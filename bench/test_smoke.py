"""Smoke test of the benchmark: a tiny job list per workload, in seconds.

    PYTHONPATH=src python -m pytest -q bench
"""
import contextlib
import functools
import io
import json
import shutil
import subprocess
import sys

import pytest

import run
import tracing
import workloads

SPEC = json.loads((run.BENCH.parent / "BENCHMARK.json").read_text())

# Inputs on which qrec is wrong at this commit.  A benchmark run must have no
# failing job, so the workloads avoid them: modular-deep asks for enough
# primes, and record.py leaves failing seeds out of the pools.  These tests
# keep the defects in view; being strict, they fail once a defect is fixed.
KNOWN_WRONG = {
    "detect --type F4 --node 2 --modular 3 --seed 1":
        "the 3-prime CRT lift has coefficients beyond half the modulus, so the "
        "result fails at the independent prime instead of raising LiftOverflow",
    "interpolate --type F4 --node 4 --k 1 --modular 3 --seed 7":
        "one raw-random draw has order 60, not 74, and is kept, so the fit "
        "is inconsistent and the job exits 2",
}


@functools.cache
def smoke(workload, trace):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.1",
                         "--trace", str(trace)], smoke=True)
    assert code == 0
    lines = out.getvalue().splitlines()
    return lines, json.loads(lines[-1])


def test_spec_names_match_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in SPEC["per_layer"]] == list(tracing.METRICS)
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.E2E_UNITS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_prints_every_metric(workload, trace):
    lines, result = smoke(workload, trace)
    specs = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in specs}
    for m in specs:
        assert any(line.startswith(f"{m['name']} ") for line in lines)
    assert result["attempted"] >= 1
    assert any(line.startswith("error_rate ") for line in lines)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_no_job_fails(workload, trace):
    lines, result = smoke(workload, trace)
    assert result["correct"] and result["failed"] == 0
    assert "error_rate 0.0 " in "\n".join(lines)


@pytest.mark.parametrize("key", [
    pytest.param(key, marks=pytest.mark.xfail(reason=reason, strict=True))
    for key, reason in KNOWN_WRONG.items()])
def test_known_wrong_input(key):
    package, layers = run.load_qrec()
    import checks

    caches = run.lru_caches([package, *layers.values()])
    [(_, code, stdout, _)] = run.run_pass(layers["cli"], [key.split()], caches)
    assert code == 0
    assert checks.certify(key, checks.parse(stdout)) is None


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "exact-detect", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
