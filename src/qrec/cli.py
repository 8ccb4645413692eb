"""Batch experiment runner: generate Q-tables, detect recurrences, verify the
catalogued structure, dump order/degree tables, and interpolate coefficients.

Exit codes: 0 all checks passed, 2 at least one check failed (or detection
failed), 3 configuration or usage error, 4 resource cap hit.
"""
from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import random
import sys
import time
from collections import namedtuple
from fractions import Fraction

from . import conjectures
from .cartan import (LieType, RootCapExceeded, order_tables, cartan_data, growth_degree,
                     predicted_order)
from .fields import RATIONALS, PrimeField, seeded_primes
from .linrec import (CertificateFailure, InsufficientData, LiftOverflow,
                     NoStableRecurrence, PrimeDisagreement, find_min_recurrence,
                     guard_terms, multi_prime_detect, multi_prime_lanes)
from .qsystem import (BranchingIncomplete, CharacterPoint, DimensionMode, RawQ,
                      SingularSpecialization, generate, initial_values, levels,
                      required_depths, windows)
from .weights import DimensionCapExceeded, weight_system

EXIT_OK = 0
EXIT_CHECK_FAILED = 2
EXIT_CONFIG = 3
EXIT_RESOURCE = 4

DEPTH_CEILING = 8192
MAX_SINGULAR_RETRIES = 5
Q_BOUND = 50  # raw-random q are drawn from [-Q_BOUND, Q_BOUND]^rank
# interpolate detects its draws in rounds, whose tables are lanes of one
# table: a round holds at most this many levels, summed over its lanes'
# required_depths.  Every lane's table is kept until the round's windows
# are read, so a round's memory grows with its lanes; at this cap a round
# holds 8 E6/1 draws, 6 of F4/4 or 3 of E7/6, and the peak memory of an
# interpolation stays near that of one draw.
ROUND_LEVELS = 3200


class ConfigError(ValueError):
    pass


class CapExceeded(RuntimeError):
    def __init__(self, depth, at_least=False):
        bound = "at least " if at_least else ""
        super().__init__(f"depth {bound}{depth} exceeds the depth ceiling {DEPTH_CEILING}")


def _parse_type(args) -> LieType:
    if args.type is None:
        raise ConfigError("--type is required")
    return LieType.parse(args.type)


def _parse_fractions(text: str) -> tuple[Fraction, ...]:
    try:
        return tuple(Fraction(part.strip()) for part in text.split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"cannot parse number list {text!r}: {exc}") from None


def _load_branching(path, lt):
    if path is None:
        return None
    try:
        with open(path) as handle:
            payload = json.load(handle)
        branching = {int(a): [tuple(int(c) for c in w) for w in parts]
                     for a, parts in payload["branching"].items()}
    except (OSError, ValueError, LookupError, TypeError, AttributeError) as exc:
        raise ConfigError(f"cannot read branching file {path}: {exc}") from None
    if "type" in payload:
        text = str(payload["type"])
        if text.isalpha():
            text += str(payload.get("rank", ""))
        if LieType.parse(text) != lt:
            raise ConfigError(f"branching file is for {text}, not {lt}")
    return branching


def _rng(seed: int, tag: str) -> random.Random:
    return random.Random(f"qrec-{tag}-{seed}")


def _random_q(lt: LieType, rng: random.Random) -> tuple[int, ...]:
    return tuple(rng.randint(-Q_BOUND, Q_BOUND) for _ in range(lt.rank))


def _random_torus_point(lt: LieType, rng: random.Random) -> tuple[Fraction, ...]:
    out = []
    for _ in range(lt.rank):
        num = rng.choice([n for n in range(-9, 10) if n != 0])
        out.append(Fraction(num, rng.randint(1, 9)))
    return tuple(out)


def _resolve_mode(args) -> str:
    if getattr(args, "mode", None) is not None:
        return args.mode
    if getattr(args, "q", None) is not None:
        return "raw-explicit"
    if getattr(args, "y", None) is not None:
        return "character-point"
    return "raw-random"


def _specializations(lt, mode, args, rng, branching):
    """The configured specialization, then, in the random modes, fresh draws
    that replace a singular one."""
    if mode == "raw-explicit":
        if args.q is None:
            raise ConfigError("raw-explicit mode needs --q")
        values = _parse_fractions(args.q)
        if len(values) != lt.rank:
            raise ConfigError(f"--q needs {lt.rank} values for {lt}")
        yield RawQ(values)
    elif mode == "raw-random":
        while True:
            yield RawQ(_random_q(lt, rng))
    elif mode == "character-point":
        if args.y is not None:
            yield CharacterPoint(_parse_fractions(args.y), branching)
        else:
            while True:
                yield CharacterPoint(_random_torus_point(lt, rng), branching)
    else:  # dimension
        yield DimensionMode(branching)


def _depth(args, auto):
    """--depth, or auto() when it is absent or 'auto'.  One below 1 is a usage
    error; one past DEPTH_CEILING is refused before any level is computed."""
    if args.depth in (None, "auto"):
        depth = auto()
    else:
        depth = int(args.depth)
        if depth < 1:
            raise ConfigError(f"--depth {depth} is below 1")
    if depth is not None and depth > DEPTH_CEILING:
        raise CapExceeded(depth)
    return depth


_Setup = namedtuple("_Setup", "lt node mode primes depth specs")


def _prologue(args, tag):
    """The setup that gen, detect, verify and interpolate share, as a _Setup.

    primes is None unless --modular is given; depth is None when it is auto
    and the order is not tabulated; specs iterates over the specializations
    to try, drawn from the subcommand's rng, whose tag fixes the draws.
    """
    lt = _parse_type(args)
    mode = _resolve_mode(args)
    for option, reader in (("q", "raw-explicit"), ("y", "character-point")):
        if getattr(args, option, None) is not None and mode != reader:
            raise ConfigError(f"--{option} is read in {reader} mode only, not {mode}")
    if args.guard is not None and args.guard < 4:
        raise ConfigError(f"--guard {args.guard} is below 4")
    node = 1 if args.node is None else args.node
    branching = _load_branching(getattr(args, "branching", None), lt)
    modular = getattr(args, "modular", None)
    if modular is not None and modular < 3:
        raise ConfigError("--modular needs at least 3 primes")
    if modular is not None and mode == "character-point":
        raise ConfigError("modular detection needs an integer sequence; "
                          "character points are rational")
    primes = seeded_primes(modular, args.seed) if modular is not None else None
    specs = _specializations(lt, mode, args, _rng(args.seed, tag), branching)
    first = next(specs)  # drawn before the depth policy, whose errors come second
    if primes and isinstance(first, RawQ) and any(v.denominator != 1 for v in first.values):
        raise ConfigError("modular detection lifts integer coefficients; "
                          "--q must be integers")

    def window():  # 2L + g + 4 for a tabulated order L, else None
        pred = predicted_order(lt, node)
        return None if pred is None else 2 * pred + guard_terms(pred, args.guard) + 4
    return _Setup(lt, node, mode, primes, _depth(args, window), itertools.chain([first], specs))


def _run(args, step, timing):
    """step(setup, spec) on the first specialization of the _prologue setup;
    a singular one is replaced by the next draw, up to MAX_SINGULAR_RETRIES
    times.  Returns (the setup, the specialization used, step's result, the
    report head: job, config, retries and the step's time under timing).
    """
    setup = _prologue(args, args.command)
    started = time.perf_counter()
    spec, retries = next(setup.specs), 0
    while True:
        try:
            result = step(setup, spec)
            break
        except SingularSpecialization:
            fresh = next(setup.specs, None)
            if fresh is None or retries >= MAX_SINGULAR_RETRIES:
                raise
            spec, retries = fresh, retries + 1
    head = {"job": args.command, "config": _config_echo(setup, args), "retries": retries,
            "timings": {timing: round(time.perf_counter() - started, 6)}}
    return setup, spec, result, head


def _detect(lt, node, spec, depth, guard, modular_primes):
    """Detects the recurrence of node on levels 0..depth or, when depth is
    None, on the levels read online until detection is stable.  Returns (the
    level-1 values q, rec, the exact sequence or None, the depth read)."""
    q = initial_values(lt, spec)
    read = []

    def source(field):
        table = levels(lt, q, node, field)

        def terms(n):
            if n - 1 > DEPTH_CEILING:  # refused before any level past it is generated
                raise CapExceeded(n - 1)
            read[:] = table(n)
            return read
        return terms if depth is None else terms(depth + 1)

    if modular_primes:
        rec = multi_prime_detect(lambda m: source(PrimeField(m)), modular_primes, guard=guard)
        return q, rec, None, len(read) - 1
    return q, find_min_recurrence(source(RATIONALS), guard=guard), read, len(read) - 1


def _detect_round(lt, node, specs, depth, guard, modular_primes):
    """_detect on levels 0..depth of each draw of a round: per draw, in
    order, (the level-1 values q, rec), or (q, the exception that _detect
    would raise).  Over Q, an exception other than NoStableRecurrence is
    raised at the draw where _detect would raise it.

    The draws' tables are the lanes of one table (qsystem.windows).  Over
    Z/m, the windows run through Berlekamp-Massey in lockstep
    (linrec.multi_prime_lanes); over Q, each goes through
    find_min_recurrence.
    """
    qs = [initial_values(lt, spec) for spec in specs]
    if modular_primes:
        recs = multi_prime_lanes(lambda m: windows(lt, qs, node, depth, PrimeField(m)),
                                 modular_primes, guard=guard)
        return list(zip(qs, recs))
    recs = []
    for window in windows(lt, qs, node, depth, RATIONALS):
        try:
            recs.append(window if isinstance(window, SingularSpecialization) else
                        find_min_recurrence(window, guard=guard))
        except NoStableRecurrence as exc:
            recs.append(exc)
    return list(zip(qs, recs))


def _digest(payload: dict) -> str:
    trimmed = {k: v for k, v in payload.items() if k not in ("timings", "digest")}
    return hashlib.sha256(
        json.dumps(trimmed, sort_keys=True).encode()).hexdigest()


def _emit(payload, args, csv_rows=None) -> None:
    payload["digest"] = _digest(payload)
    if getattr(args, "format", "json") == "csv" and csv_rows is not None:
        text = "\n".join(",".join(row) for row in csv_rows) + "\n"
    else:
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.out:
        try:
            with open(args.out, "w") as handle:
                handle.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write --out file: {exc}") from None
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands


def run_gen(args):
    if args.mode == "dimension" and args.depth in (None, "auto"):
        raise ConfigError("dimension mode needs an explicit --depth")

    def step(setup, spec):
        if setup.depth is None:
            raise ConfigError("--depth auto needs a tabulated order; give an explicit depth")
        target = (setup.node, setup.depth) if args.node is not None else setup.depth
        return generate(setup.lt, spec, target)

    _setup, _spec, table, head = _run(args, step, "generate_s")
    _emit({**head, "q": [str(seq[1]) for seq in table.values],  # Q_1^(a) = q_a
           "table": table.to_json_dict()}, args, csv_rows=table.to_csv_rows())
    return EXIT_OK


def _config_echo(setup, args):
    echo = {
        "type": str(setup.lt), "rank": setup.lt.rank, "node": setup.node, "mode": setup.mode,
        "seed": args.seed, "depth": args.depth if args.depth is not None else "auto",
    }
    if args.guard is not None:
        echo["guard"] = args.guard
    if getattr(args, "modular", None):
        echo["modular"] = args.modular
    if getattr(args, "q", None):
        echo["q"] = args.q
    if getattr(args, "y", None):
        echo["y"] = args.y
    return echo


def _detect_step(args):
    return lambda setup, spec: _detect(setup.lt, setup.node, spec, setup.depth,
                                       args.guard, setup.primes)


def run_detect(args):
    setup, _spec, (qvals, rec, _seq, depth), head = _run(args, _detect_step(args), "detect_s")
    _emit({**head, "q": [str(v) for v in qvals], "depth": depth,
           "recurrence": rec.to_json_dict(),
           "ell_predicted": predicted_order(setup.lt, setup.node)}, args)
    return EXIT_OK


def _check(name, ok, witness=None):
    entry = {"name": name, "status": "pass" if ok else "fail"}
    if witness is not None and not ok:
        entry["witness"] = str(witness)
    return entry


def _skip(name, reason):
    return {"name": name, "status": "skipped", "witness": reason}


def _verify_checks(lt, node, rec, seq, qvals, y):
    checks = []
    pred = predicted_order(lt, node)
    if pred is None:
        checks.append(_skip("order_prediction",
                            f"order not tabulated; discovered {rec.order}"))
    else:
        checks.append(_check("order_prediction", rec.order == pred,
                             f"detected {rec.order} != predicted {pred}"))
    unit = rec.coeffs[0] == 1 and rec.coeffs[-1] in (1, -1)
    checks.append(_check("unit_coeffs", unit,
                         f"C_0={rec.coeffs[0]}, C_l={rec.coeffs[-1]}"))

    idents = conjectures.identity_catalogue(lt, node)
    if idents:
        bad = []
        for ident in idents:
            if ident.k > rec.order:
                bad.append(f"{ident.label}: k={ident.k} beyond order {rec.order}")
                continue
            want = ident.poly.evaluate(qvals)
            got = rec.coeffs[ident.k]
            if want != got:
                bad.append(f"{ident.label}: detected {got} != {want}")
        checks.append(_check("identity_catalogue", not bad, "; ".join(bad)))
    else:
        checks.append(_skip("identity_catalogue", "no catalogued identities"))

    try:
        lam = conjectures.build_lambda(lt, node)
    except conjectures.NotInCatalogue as exc:
        lam = None
        checks.append(_skip("ell_lambda", str(exc)))
    else:
        checks.append(_check("ell_lambda", rec.order == lam.predicted_order,
                             f"detected {rec.order} != |Lambda| + t|Lambda'| "
                             f"= {lam.predicted_order}"))

    elldim = dict(conjectures.elldim_entries(lt))
    if node in elldim:
        want = conjectures.level1_dimension(lt, node) + elldim[node]
        checks.append(_check("elldim", rec.order == want,
                             f"detected {rec.order} != dim + delta = {want}"))

    if y is not None:
        if lam is not None:
            ok, wit = conjectures.check_factorization(rec, lam, y)
            checks.append(_check("factorization", ok, wit))
            c1 = sum((conjectures.evaluate(w, y) for w in lam.weights), Fraction(0))
            checks.append(_check("clamb", rec.coeffs[1] == c1,
                                 f"C_1 = {rec.coeffs[1]} != sum e^lam = {c1}"))
        try:
            wants = conjectures.coefficient_formula(lt, node, y, rec.order)
        except conjectures.NotInCatalogue as exc:
            checks.append(_skip("coefficient_formula", str(exc)))
        else:
            bad = [f"k={k}: {got} != {want}"
                   for k, (got, want) in enumerate(zip(rec.coeffs, wants)) if got != want]
            checks.append(_check("coefficient_formula", not bad, "; ".join(bad[:4])))

    if seq is not None:
        try:
            ok, wit = conjectures.check_numerator(lt, node, seq, rec, qvals, y)
            checks.append(_check("numerator", ok, wit))
        except conjectures.NotInCatalogue as exc:
            checks.append(_skip("numerator", str(exc)))
    else:
        checks.append(_skip("numerator", "modular run keeps no exact sequence"))
    return checks


def run_verify(args):
    setup, spec, (qvals, rec, seq, _), head = _run(args, _detect_step(args), "detect_s")
    lt, node = setup.lt, setup.node
    y = spec.y if isinstance(spec, CharacterPoint) else None
    started = time.perf_counter()
    checks = _verify_checks(lt, node, rec, seq, qvals, y)
    payload = {
        **head,
        "type": str(lt), "rank": lt.rank, "node": node, "mode": setup.mode,
        "q": [str(v) for v in qvals],
        "ell_detected": rec.order,
        "ell_predicted": predicted_order(lt, node),
        "recurrence": rec.to_json_dict(),
        "checks": checks,
    }
    if y is not None:
        payload["y"] = [str(v) for v in y]
    payload["timings"]["checks_s"] = round(time.perf_counter() - started, 6)
    _emit(payload, args)
    failed = any(c["status"] == "fail" for c in checks)
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def run_tables(args):
    rows = list(order_tables())
    if args.type is not None:
        lt = _parse_type(args)
        rows = [r for r in rows if r["type"] == lt.family and r["rank"] == lt.rank]
        if not rows:
            raise ConfigError(f"no tabulated row for {lt}")
    payload = {"job": "tables", "rows": rows}
    csv_rows = [("type", "rank", "ell", "deg")]
    for r in rows:
        csv_rows.append((r["type"], str(r["rank"]),
                         " ".join("*" if e is None else str(e) for e in r["ell"]),
                         " ".join(str(d) for d in r["deg"])))
    _emit(payload, args, csv_rows=csv_rows)
    return EXIT_OK


def run_interpolate(args):
    k = args.k
    if k is None:
        raise ConfigError("--k is required for interpolate")
    if k < 0:
        raise ConfigError(f"--k {k} is negative")
    if args.degree < 0:
        raise ConfigError(f"--degree {args.degree} is negative")
    rank = _parse_type(args).rank
    need = math.comb(rank + args.degree, args.degree) + conjectures.MARGIN
    if args.runs < need:
        raise ConfigError(f"--runs {args.runs} is below {need}, the candidate monomials "
                          f"of degree at most {args.degree} plus {conjectures.MARGIN}")
    space = (2 * Q_BOUND + 1) ** rank
    if args.runs > space:
        raise ConfigError(f"--runs {args.runs} exceeds the {space} distinct q "
                          f"in [-{Q_BOUND}, {Q_BOUND}]^{rank}")
    lt, node, _, primes, depth, specs = setup = _prologue(args, "interpolate")
    if depth is None:
        raise ConfigError("interpolation needs a tabulated order or explicit --depth")
    order = predicted_order(lt, node)
    if order is not None and k > order:
        raise ConfigError(f"--k {k} exceeds the order {order} of node {node} of {lt}")
    experiments, seen = [], set()
    limit = min(args.runs + MAX_SINGULAR_RETRIES * 4, space)
    lanes = max(1, ROUND_LEVELS // sum(required_depths(lt, node, depth)))
    started = time.perf_counter()
    while len(experiments) < args.runs:
        draws = []  # the round: fresh distinct draws, no more than the runs still missing
        while len(draws) < min(lanes, args.runs - len(experiments)) and len(seen) < limit:
            spec = next(specs)
            if spec.values not in seen:  # a repeated q would add an identical row
                seen.add(spec.values)
                draws.append(spec)
        if not draws:
            raise NoStableRecurrence(f"{len(experiments)} of --runs {args.runs} detections of "
                                     f"order >= {k} succeeded, out of {limit} distinct draws")
        for qvals, rec in _detect_round(lt, node, draws, depth, args.guard, primes):
            if isinstance(rec, (SingularSpecialization, NoStableRecurrence, PrimeDisagreement)):
                continue
            if isinstance(rec, Exception):
                raise rec
            if rec.order >= k:
                experiments.append(([int(v) for v in qvals], int(rec.coeffs[k])))
    detect_s = time.perf_counter() - started
    candidates = conjectures.degree_monomials(lt.rank, args.degree)
    started = time.perf_counter()
    poly = conjectures.interpolate_coefficients(lt.rank, candidates, experiments)
    solve_s = time.perf_counter() - started
    payload = {
        "job": "interpolate",
        "config": _config_echo(setup, args),
        "k": k, "runs": args.runs,
        "polynomial": None if poly is None else str(poly),
        "terms": None if poly is None else
            [{"exponents": list(e), "coeff": str(c)} for e, c in sorted(poly.terms.items())],
        "timings": {"detect_s": round(detect_s, 6), "solve_s": round(solve_s, 6)},
    }
    _emit(payload, args)
    return EXIT_OK if poly is not None else EXIT_CHECK_FAILED


def run_weights(args):
    lt = _parse_type(args)
    if args.highest is None:
        raise ConfigError("--highest is required (fundamental-weight coordinates)")
    highest = tuple(int(c) for c in args.highest.split(","))
    if len(highest) != lt.rank:
        raise ConfigError(f"--highest needs {lt.rank} coordinates for {lt}")
    system = weight_system(lt, highest)
    entries = sorted(system.items())
    payload = {
        "job": "weights",
        "config": {"type": str(lt), "rank": lt.rank, "highest": list(highest)},
        "dimension": sum(system.values()),
        "weights": [{"coords": list(w), "multiplicity": m} for w, m in entries],
    }
    csv_rows = [tuple(f"c{i + 1}" for i in range(lt.rank)) + ("multiplicity",)]
    csv_rows += [tuple(str(c) for c in w) + (str(m),) for w, m in entries]
    _emit(payload, args, csv_rows=csv_rows)
    return EXIT_OK


def run_dims(args):
    lt = _parse_type(args)
    branching = _load_branching(args.branching, lt)

    def growth_depths():  # the levels each node needs to show its growth degree
        degs = growth_degree(lt)  # refuses a root system past the cap before any matrix
        t = cartan_data(lt).t
        return [t[a] * (degs[a] + 3) for a in range(lt.rank)]

    def auto():
        # some coordinate of 2 rho is at least the rank, so some node needs
        # rank + 3 levels: past the ceiling, refused before any root is built
        if lt.rank + 3 > DEPTH_CEILING:
            raise CapExceeded(lt.rank + 3, at_least=True)
        return max(growth_depths())

    depth = _depth(args, auto)
    needed = growth_depths()
    deepest = max(range(lt.rank), key=needed.__getitem__)
    # refused before any table or Weyl dimension when too shallow
    conjectures.check_growth_depths(
        lt, [d + 1 for d in required_depths(lt, deepest + 1, depth)])
    table = generate(lt, DimensionMode(branching), (deepest + 1, depth))
    results = conjectures.check_growth_degree(lt, table)
    payload = {
        "job": "dims",
        "config": {"type": str(lt), "rank": lt.rank, "depth": depth},
        "table": table.to_json_dict(),
        "growth": [{"node": res.node, "detected": res.detected,
                    "predicted": res.predicted,
                    "status": "pass" if res.ok else "fail"} for res in results],
    }
    _emit(payload, args, csv_rows=table.to_csv_rows())
    return EXIT_OK if all(res.ok for res in results) else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """A usage error is a configuration error: exit 3, not argparse's 2."""
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def build_parser(command=None) -> argparse.ArgumentParser:
    """The qrec parser.  When command names a subcommand, only that one is
    built, since a run parses no other; otherwise every one is."""
    parser = _Parser(
        prog="qrec",
        description="Exact Q-system tables, recurrence detection, and structural checks.")
    sub = parser.add_subparsers(dest="command", required=True)
    options = {
        "type": dict(help="Lie type, e.g. B3 or E6"),
        "node": dict(type=int, help="node index, 1-based (default 1)"),
        "seed": dict(type=int, default=os.environ.get("QREC_SEED", "0")),
        "depth": dict(help="recursion depth, or 'auto'"),
        "guard": dict(type=int, help="extra validation terms for detection"),
        "modular": dict(type=int, metavar="N",
                        help="detect once modulo the product of N >= 3 seeded primes"),
        "mode": dict(choices=("raw-random", "raw-explicit", "character-point", "dimension")),
        "q": dict(help="comma-separated level-1 values"),
        "y": dict(help="comma-separated torus point entries"),
        "branching": dict(metavar="FILE",
                          help="JSON file overriding the level-1 decompositions"),
        "k": dict(type=int, help="coefficient index to fit"),
        "runs": dict(type=int, default=40),
        "degree": dict(type=int, default=2,
                       help="maximal total degree of candidate monomials"),
        "highest": dict(help="dominant weight, comma-separated coordinates"),
        "out": dict(metavar="FILE"),
        "format": dict(choices=("json", "csv"), default="json"),
    }
    # each subcommand takes --type, --out and only the options its runner reads
    run = "node seed depth guard"
    spec = "mode q y branching"
    commands = (
        ("gen", run_gen, "generate a Q-table", f"{run} {spec} format"),
        ("detect", run_detect, "detect the minimal recurrence of a node",
         f"{run} modular {spec}"),
        ("verify", run_verify, "run every applicable structural check",
         f"{run} modular {spec}"),
        ("tables", run_tables, "dump the order/degree tables", "format"),
        ("interpolate", run_interpolate,
         "fit C_k as a polynomial in q across random runs", f"{run} modular k runs degree"),
        ("dims", run_dims, "dimension-mode table and growth degrees",
         "depth branching format"),
        ("weights", run_weights, "dump a weight system as CSV or JSON", "highest format"),
    )
    every = [name for name, *_ in commands]
    if command in every:
        sub.metavar = "{" + ",".join(every) + "}"  # the usage line lists every subcommand
    else:
        command = None
    for name, runner, text, names in commands:
        if command in (None, name):
            subparser = sub.add_parser(name, help=text)
            subparser.set_defaults(run=runner)
            for option in ("type", *names.split(), "out"):
                subparser.add_argument(f"--{option}", **options[option])
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return args.run(args)
    except (DimensionCapExceeded, RootCapExceeded, CapExceeded,
            conjectures.InsufficientDepth, LiftOverflow) as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (SingularSpecialization, NoStableRecurrence, PrimeDisagreement,
            InsufficientData, CertificateFailure, conjectures.UnderdeterminedSystem) as exc:
        print(f"detection failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except (ConfigError, BranchingIncomplete, ValueError) as exc:
        # last: InsufficientData and InsufficientDepth are ValueErrors too
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
