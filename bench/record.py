"""Pin each job's seed pool and record its expected outcomes in reference.json.

    python3 bench/record.py

Runs every job of every workload (and of the smoke lists) at qrec seeds 1,
2, ... up to SEEDS, and keeps at most KEEP seeds per job.  A seed is kept only
if its job exits 0 and its result passes the independent certificate
(checks.py): a benchmark run must have no failing job, so an input on which
qrec is known to be wrong goes into NOTES.md and the smoke test's defect
tests, not into a pool.  Modular jobs cost about the same at every seed and
keep the first KEEP such seeds.  Jobs over Q cost more as their numbers grow,
so they also need a recurrence whose coefficients have a total bit size within
BAND of the job's median: the benchmark seed then changes the inputs but not
the amount of work.
"""
from __future__ import annotations

import json
import statistics
from fractions import Fraction

import run
import workloads

SEEDS = 24  # qrec seeds tried per job
KEEP = 8  # seeds kept in a job's pool
BAND = 0.05  # largest share by which a kept seed's bit size may differ from the median


def coeff_bits(payload) -> int:
    """Total numerator and denominator bits of the reported coefficients."""
    coeffs = payload.get("recurrence", {}).get("coeffs", [])
    return sum(Fraction(c).numerator.bit_length() + Fraction(c).denominator.bit_length()
               for c in coeffs)


def main() -> int:
    package, layers = run.load_qrec()
    import checks

    caches = run.lru_caches([package, *layers.values()])
    jobs = {}
    for workload in workloads.WORKLOADS.values():
        for job in workload.jobs + workload.smoke:
            jobs[workloads.job_key(job)] = job
    reference = {}
    for key, job in jobs.items():
        modular = "--modular" in job.argv
        outcomes, bits = {}, {}
        for seed in range(1, SEEDS + 1):
            argv = list(job.argv) + ["--seed", str(seed)]
            [(seconds, code, stdout, _)] = run.run_pass(layers["cli"], [argv], caches)
            payload = checks.parse(stdout)
            reason = checks.certify(" ".join(argv), payload) if code == 0 else f"exit {code}"
            print(f"{seconds:8.3f}s {' '.join(argv)}: {reason or 'certified'}", flush=True)
            if reason is None:
                outcomes[seed] = checks.summary(code, payload)
                bits[seed] = coeff_bits(payload)
                if modular and len(outcomes) == KEEP:
                    break
        mid = statistics.median(bits.values())
        pool = [s for s in outcomes
                if modular or abs(bits[s] - mid) <= BAND * mid][:KEEP]
        if len(pool) < job.draws:
            raise SystemExit(f"{key}: only {len(pool)} usable seeds")
        reference[key] = {str(s): outcomes[s] for s in pool}
    (run.BENCH / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
