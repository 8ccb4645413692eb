"""Benchmark of the qrec command line, stdlib only.

    python3 bench/run.py --workload exact-detect --seed 1 --seconds 25 --trace 0

Runs one workload's job list through ``qrec.cli.main(argv)`` in this process,
one job after another (a closed loop with one client), pass after pass until
about ``--seconds`` of job time is spent.  Every pass runs the same argv list, which
the seed picks from pinned seed pools (see workloads.py).  Before each job the
package's lru caches are cleared, so every job costs what a fresh ``qrec``
process spends after import.  Outputs are checked after the timed passes (see
checks.py).

With ``--trace 0`` the last stdout line reports the end-to-end metrics.  With
``--trace 1`` untraced and traced passes alternate, the line reports the
per-layer metrics of tracing.py, and the spans are written to
``bench/out/trace-<workload>.jsonl``.  The exit code is 0 whenever the
benchmark ran; failed jobs are counted in the result line.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path[:0] = [str(BENCH), str(SRC)]

import tracing  # noqa: E402  (sibling modules of this script)
import workloads  # noqa: E402

SETUP_SAMPLES = 30
FAILING_EXITS = (3, 4)
E2E_UNITS = {"wall_s": "s", "job_s_p50": "s", "job_s_max": "s", "setup_s": "s",
             "peak_rss_mb": "MB"}


def load_qrec():
    """The qrec package of this checkout's src/, and its layer modules."""
    if not (SRC / "qrec" / "cli.py").is_file():
        raise SystemExit(f"benchmark: no qrec sources under {SRC}")
    package = importlib.import_module("qrec")
    if Path(package.__file__).resolve().parent != SRC / "qrec":
        raise SystemExit(f"benchmark: imported qrec from {package.__file__}, not {SRC}")
    return package, {name: importlib.import_module(f"qrec.{name}")
                     for name in tracing.LAYERS}


def import_seconds() -> float:
    """The time one fresh interpreter takes to import the qrec CLI.

    The child times its own import, so the jitter of starting a process,
    which no change to qrec can move, stays out of the figure.
    """
    code = ("import sys; from time import perf_counter; started = perf_counter(); "
            "sys.path.insert(0, sys.argv[1]); import qrec.cli; "
            "print(perf_counter() - started)")
    return float(subprocess.run([sys.executable, "-I", "-S", "-c", code, str(SRC)],
                                check=True, capture_output=True, text=True).stdout)


def lru_caches(modules):
    found = {}
    for module in modules:
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                found[id(obj)] = obj
    return list(found.values())


def run_pass(cli, argvs, caches, tracer=None, after_job=None):
    """Run every job once; returns [(seconds, exit code, stdout, error)].

    ``after_job(seconds)`` is called after each job, outside its timing.
    """
    results = []
    for argv in argvs:
        for cache in caches:
            cache.cache_clear()
        gc.collect()
        if tracer is not None:
            tracer.next_job()
        out, err = io.StringIO(), io.StringIO()
        error = None
        started = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(argv))
        except (Exception, SystemExit) as exc:  # a crash fails the job, not the run
            code, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = perf_counter() - started
        results.append((elapsed, code, out.getvalue(), error or err.getvalue().strip()))
        if after_job is not None:
            after_job(elapsed)
    return results


def pass_wall(results) -> float:
    return sum(r[0] for r in results)


def run_passes(cli, argvs, caches, seconds, tracer=None, after_job=None):
    """As many passes as bring the job time nearest to ``seconds``; at least one.

    With a tracer, untraced and traced passes alternate, so both sides see the
    same machine state.  ``after_job`` runs after each untraced job.
    Returns (untraced passes, traced passes).
    """
    untraced, traced = [], []
    spent = 0.0
    while True:
        untraced.append(run_pass(cli, argvs, caches, after_job=after_job))
        step = pass_wall(untraced[-1])
        if tracer is not None:
            tracer.install()
            try:
                traced.append(run_pass(cli, argvs, caches, tracer))
            finally:
                tracer.uninstall()
            step += pass_wall(traced[-1])
        spent += step
        if spent + step / 2 > seconds:
            return untraced, traced


def judge(checks, key, result, expected) -> str | None:
    """Why a job's result fails, or None if it passes every check."""
    _, code, stdout, error = result
    if code is None or code in FAILING_EXITS:
        return f"exit {code}: {error}"
    if key not in expected:
        return "no recorded reference"
    payload = checks.parse(stdout)
    return (checks.compare(expected[key], checks.summary(code, payload))
            or checks.certify(key, payload))


def check_jobs(checks, argvs, passes, expected):
    """Failed jobs over all passes, and one line per failing argv.

    The first pass's result is judged; a later pass fails unless it repeats
    that result's exit code and report digest.
    """
    def digest(stdout):
        payload = checks.parse(stdout)
        return payload.get("digest") if payload else stdout

    failed, problems = 0, []
    for j, argv in enumerate(argvs):
        key = " ".join(argv)
        first = passes[0][j]
        reason = judge(checks, key, first, expected)
        if reason is not None:
            failed += len(passes)
            problems.append(f"{key}: {reason}")
            continue
        repeats = sum(results[j][1] != first[1] or digest(results[j][2]) != digest(first[2])
                      for results in passes[1:])
        if repeats:
            failed += repeats
            problems.append(f"{key}: {repeats} passes differ from the first")
    return failed, problems


def job_medians(passes) -> list[float]:
    """Each job's median time over the passes, so that a slow spell of the
    machine during one job does not count."""
    return [statistics.median(results[j][0] for results in passes)
            for j in range(len(passes[0]))]


def end_to_end(passes, setup_s, peak_rss_mb) -> dict:
    per_job = job_medians(passes)
    return {
        "wall_s": sum(per_job),
        "job_s_p50": statistics.median(r[0] for results in passes for r in results),
        "job_s_max": max(per_job),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }


def measure(workload_name, seed, seconds, trace, smoke=False) -> dict:
    """Run one workload; returns the result object printed as the last line."""
    package, layers = load_qrec()
    import checks  # imports qrec, so only once load_qrec has found it

    reference = json.loads((BENCH / "reference.json").read_text())
    pools = {job: [int(s) for s in outcomes] for job, outcomes in reference.items()}
    expected = {f"{job} --seed {s}": outcome
                for job, outcomes in reference.items() for s, outcome in outcomes.items()}
    argvs = workloads.resolve(workloads.WORKLOADS[workload_name], seed, pools, smoke)
    caches = lru_caches([package, *layers.values()])
    tracer = tracing.Tracer(package, layers) if trace else None

    # The speed of a shared machine can swing by a quarter within seconds, so
    # set-up is sampled between the jobs, evenly over the span they take.
    setup, spent = [], 0.0

    def sample_setup(job_seconds):
        nonlocal spent
        spent += job_seconds
        while len(setup) < SETUP_SAMPLES * min(spent / seconds, 1.0):
            setup.append(import_seconds())

    untraced, traced = run_passes(layers["cli"], argvs, caches, seconds, tracer,
                                  None if trace else sample_setup)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    passes = untraced + traced
    failed, problems = check_jobs(checks, argvs, passes, expected)
    for line in problems:
        print(f"FAILED {line}")

    if trace:
        traced_wall = sum(job_medians(traced))
        print(f"traced wall_s {traced_wall} s (the base of each layer's share)")
        values = tracer.metrics(len(traced), traced_wall, sum(job_medians(untraced)))
        units = {name: spec[0] for name, spec in tracing.METRICS.items()}
        out_dir = BENCH / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"trace-{workload_name}.jsonl")
    else:
        setup += [import_seconds() for _ in range(SETUP_SAMPLES - len(setup))]
        values = end_to_end(untraced, statistics.median(setup), peak_rss_mb)
        units = E2E_UNITS
    attempted = len(argvs) * len(passes)
    print(f"workload {workload_name}, seed {seed}: {len(argvs)} jobs x "
          f"({len(untraced)} untraced + {len(traced)} traced) passes")
    print(f"error_rate {failed / attempted} ({failed} of {attempted} jobs failed)")
    for name, value in values.items():
        print(f"{name} {value} {units[name]}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }


def main(argv=None, smoke=False) -> int:
    """Command-line entry; ``smoke`` swaps in each workload's tiny job list."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    print(json.dumps(measure(args.workload, args.seed, args.seconds, args.trace, smoke)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
