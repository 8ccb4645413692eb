"""The benchmark's workloads: fixed qrec job lists, each loading another layer.

A job is a qrec argv without its ``--seed``.  Each job has a pinned pool of
qrec seeds, recorded with their expected outcomes in ``reference.json``; the
benchmark seed picks ``draws`` of them per job, so the same benchmark seed
always gives the same argv list and every argv has a recorded outcome.
BENCHMARK.json and NOTES.md say why each workload is there.  The
modular-deep jobs ask for enough primes that the CRT lift holds at every
pinned seed: at these orders 3 primes are too few (see NOTES.md).  The draws
are set so that each run's median job falls inside a group of jobs of like
cost, not at a gap between two groups, where it would jump between them.
"""
from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Job:
    argv: tuple[str, ...]
    draws: int = 1


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: tuple[Job, ...]
    smoke: tuple[Job, ...]  # a tiny list of the same kind, for the smoke test


def _job(text: str, draws: int = 1) -> Job:
    return Job(tuple(text.split()), draws)


WORKLOADS = {w.name: w for w in (
    Workload(
        "exact-detect",
        (
            _job("detect --type E6 --node 1"),
            _job("detect --type F4 --node 1"),
            _job("detect --type G2 --node 2"),
            _job("detect --type A6 --node 3", draws=2),
            _job("detect --type B4 --node 3", draws=2),
            _job("detect --type C4 --node 2"),
            _job("detect --type D5 --node 2", draws=3),
            _job("detect --type B4 --node 4", draws=3),
        ),
        (_job("detect --type G2 --node 2"),),
    ),
    Workload(
        "character-verify",
        (
            _job("verify --type C4 --node 2 --mode character-point", draws=3),
            _job("verify --type C5 --node 5 --mode character-point", draws=2),
            _job("verify --type A6 --node 3 --mode character-point", draws=2),
            _job("verify --type C3 --node 2 --mode character-point"),
            _job("verify --type G2 --node 2 --mode character-point"),
            _job("verify --type A5 --node 3 --mode character-point"),
            _job("verify --type D5 --node 4 --mode character-point"),
            _job("verify --type B4 --node 1 --mode character-point"),
        ),
        (_job("verify --type B4 --node 1 --mode character-point"),),
    ),
    Workload(
        "modular-deep",
        (
            _job("detect --type F4 --node 2 --modular 8", draws=2),
            _job("detect --type E6 --node 2 --modular 8", draws=2),
            _job("detect --type E8 --node 7 --modular 5", draws=2),
        ),
        (_job("detect --type E8 --node 7 --modular 5"),),
    ),
    Workload(
        "modular-sweep",
        (
            _job("interpolate --type E6 --node 1 --k 1 --runs 40 --modular 3", draws=2),
            _job("interpolate --type E6 --node 1 --k 2 --runs 40 --modular 3", draws=2),
            _job("interpolate --type E6 --node 1 --k 3 --runs 40 --modular 3", draws=2),
            _job("interpolate --type F4 --node 4 --k 1 --modular 3"),
            _job("interpolate --type E7 --node 6 --k 1 --runs 41 --modular 3"),
        ),
        (_job("interpolate --type E6 --node 1 --k 1 --runs 12 --degree 1 --modular 3"),),
    ),
)}


def job_key(job: Job) -> str:
    return " ".join(job.argv)


def resolve(workload: Workload, seed: int, pools: dict[str, list[int]],
            smoke: bool = False) -> list[list[str]]:
    """The argv list the benchmark seed selects from each job's seed pool."""
    rng = random.Random(f"qrec-bench-{workload.name}-{seed}")
    argvs = []
    for job in (workload.smoke if smoke else workload.jobs):
        for qrec_seed in rng.sample(sorted(pools[job_key(job)]), job.draws):
            argvs.append(list(job.argv) + ["--seed", str(qrec_seed)])
    return argvs
