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
import os
import random
import sys
import time
from fractions import Fraction

from . import conjectures
from .cartan import LieType, order_tables, cartan_data, growth_degree, predicted_order
from .fields import PrimeField, seeded_primes
from .linrec import (InsufficientData, LiftOverflow, NoStableRecurrence,
                     PrimeDisagreement, find_min_recurrence, multi_prime_detect)
from .qsystem import (BranchingIncomplete, CharacterPoint, DimensionMode, RawQ,
                      SingularSpecialization, generate, initial_values)
from .weights import DimensionCapExceeded, weight_system

EXIT_OK = 0
EXIT_CHECK_FAILED = 2
EXIT_CONFIG = 3
EXIT_RESOURCE = 4

RATIONAL_ORDER_CAP = 400
MODULAR_ORDER_CAP = 3000
MAX_SINGULAR_RETRIES = 5


class ConfigError(ValueError):
    pass


def _default_seed() -> int:
    return int(os.environ.get("QREC_SEED", "0"))


def _parse_type(args) -> LieType:
    if args.type is None:
        raise ConfigError("--type is required")
    text = args.type
    if text.isalpha():
        if args.rank is None:
            raise ConfigError("--rank is required when --type is a bare family letter")
        return LieType(text.upper(), args.rank)
    lt = LieType.parse(text)
    if args.rank is not None and args.rank != lt.rank:
        raise ConfigError(f"--rank {args.rank} contradicts --type {text}")
    return lt


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
    return tuple(rng.randint(-50, 50) for _ in range(lt.rank))


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


def _resolve_depth(lt, node, args, modular) -> int | None:
    if args.depth is not None and args.depth != "auto":
        return int(args.depth)
    pred = predicted_order(lt, node)
    if pred is None:
        return None
    cap = MODULAR_ORDER_CAP if modular else RATIONAL_ORDER_CAP
    if pred > cap:
        raise conjectures.CapExceeded(
            f"predicted order {pred} exceeds the {'modular' if modular else 'rational'} "
            f"depth-policy cap {cap}")
    g = args.guard if args.guard is not None else max(8, pred // 4)
    return 2 * pred + g + 4


def _prologue(args, tag):
    """The setup that gen, detect, verify and interpolate share.

    Returns (lt, node, mode, primes, depth, specs).  primes is None unless
    --modular is given; depth is None when it is auto and the order is not
    tabulated; specs iterates over the specializations to try, drawn from the
    subcommand's rng, whose tag fixes the draws.
    """
    lt = _parse_type(args)
    mode = _resolve_mode(args)
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
    depth = _resolve_depth(lt, node, args, modular=bool(primes))
    return lt, node, mode, primes, depth, itertools.chain([first], specs)


def _retrying(step, specs):
    """step(spec) for the first specialization; a singular one is replaced by
    the next draw, up to MAX_SINGULAR_RETRIES times.

    Returns (step's result, the specialization used, retries).
    """
    spec, retries = next(specs), 0
    while True:
        try:
            return step(spec), spec, retries
        except SingularSpecialization:
            fresh = next(specs, None)
            if fresh is None or retries >= MAX_SINGULAR_RETRIES:
                raise
            spec, retries = fresh, retries + 1


def _detect(lt, node, spec, depth, guard, modular_primes):
    """Detects the recurrence of node at depth, or, when depth is None, at
    depths doubling from 32 until detection is stable or the order cap is
    passed.  Returns (rec, rational QTable or None, depth used)."""
    cap = MODULAR_ORDER_CAP if modular_primes else RATIONAL_ORDER_CAP
    trial = 32 if depth is None else depth
    while True:
        try:
            if modular_primes:
                def factory(p):
                    table = generate(lt, spec, (node, trial), field=PrimeField(p))
                    return table.node(node)
                rec = multi_prime_detect(factory, modular_primes, guard=guard)
                return rec, None, trial
            table = generate(lt, spec, (node, trial))
            return find_min_recurrence(table.node(node), guard=guard), table, trial
        except (NoStableRecurrence, InsufficientData):
            if depth is not None or trial >= 2 * cap + 64:
                raise
            trial *= 2


def _digest(payload: dict) -> str:
    trimmed = {k: v for k, v in payload.items() if k not in ("timings", "digest")}
    return hashlib.sha256(
        json.dumps(trimmed, sort_keys=True).encode()).hexdigest()


def _emit(payload, args, csv_rows=None) -> None:
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
    lt, node, mode, _primes, depth, specs = _prologue(args, "gen")
    if depth is None:
        raise ConfigError("--depth auto needs a tabulated order; give an explicit depth")
    target = (node, depth) if args.node is not None else depth
    table, spec, retries = _retrying(lambda spec: generate(lt, spec, target), specs)
    payload = {
        "job": "gen",
        "config": _config_echo(lt, node, mode, args),
        "q": [str(v) for v in initial_values(lt, spec)],
        "table": table.to_json_dict(),
        "retries": retries,
    }
    payload["digest"] = _digest(payload)
    _emit(payload, args, csv_rows=table.to_csv_rows())
    return EXIT_OK


def _config_echo(lt, node, mode, args):
    echo = {
        "type": str(lt), "rank": lt.rank, "node": node, "mode": mode,
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


def run_detect(args):
    lt, node, mode, primes, depth, specs = _prologue(args, "detect")
    (rec, _table, depth_used), spec, retries = _retrying(
        lambda spec: _detect(lt, node, spec, depth, args.guard, primes), specs)
    payload = {
        "job": "detect",
        "config": _config_echo(lt, node, mode, args),
        "q": [str(v) for v in initial_values(lt, spec)],
        "depth": depth_used,
        "recurrence": rec.to_json_dict(),
        "ell_predicted": predicted_order(lt, node),
        "retries": retries,
    }
    payload["digest"] = _digest(payload)
    _emit(payload, args)
    return EXIT_OK


def _check(name, ok, witness=None):
    entry = {"name": name, "status": "pass" if ok else "fail"}
    if witness is not None and not ok:
        entry["witness"] = str(witness)
    return entry


def _skip(name, reason):
    return {"name": name, "status": "skipped", "witness": reason}


def _verify_checks(lt, node, mode, rec, table, qvals, y):
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

    idents, pals = conjectures.identity_catalogue(lt, node)
    if idents or pals:
        bad = []
        for ident in idents:
            if ident.k > rec.order:
                bad.append(f"{ident.label}: k={ident.k} beyond order {rec.order}")
                continue
            want = ident.poly.evaluate(qvals)
            got = rec.coeffs[ident.k]
            if want != got:
                bad.append(f"{ident.label}: detected {got} != {want}")
        for pal in pals:
            for k in range(pal.lo, pal.hi + 1):
                if pal.total - k < 0 or k > rec.order:
                    continue
                if rec.coeffs[k] != pal.sign * rec.coeffs[pal.total - k]:
                    bad.append(f"{pal.label} fails at k={k}")
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

    if mode == "character-point" and y is not None:
        if lam is not None:
            ok, wit = conjectures.check_factorization(rec, lam, y)
            checks.append(_check("factorization", ok, wit))
            c1 = sum((conjectures.evaluate(w, y) for w in lam.weights), Fraction(0))
            checks.append(_check("clamb", rec.coeffs[1] == c1,
                                 f"C_1 = {rec.coeffs[1]} != sum e^lam = {c1}"))
        try:
            values = conjectures.level1_weight_values(lt, node, y)
            bad = []
            for k in range(rec.order + 1):
                want = conjectures.coefficient_formula(lt, node, k).evaluate(values)
                if rec.coeffs[k] != want:
                    bad.append(f"k={k}: {rec.coeffs[k]} != {want}")
            checks.append(_check("coefficient_formula", not bad, "; ".join(bad[:4])))
        except conjectures.NotInCatalogue as exc:
            checks.append(_skip("coefficient_formula", str(exc)))

    if table is not None:
        try:
            ok, wit = conjectures.check_numerator(
                lt, node, table.node(node), rec, qvals=qvals, y=y)
            checks.append(_check("numerator", ok, wit))
        except conjectures.NotInCatalogue as exc:
            checks.append(_skip("numerator", str(exc)))
        except conjectures.SkippedNeedsCharacterPoint as exc:
            checks.append(_skip("numerator", str(exc)))
    else:
        checks.append(_skip("numerator", "modular run keeps no exact sequence"))
    return checks


def run_verify(args):
    lt, node, mode, primes, depth, specs = _prologue(args, "verify")
    (rec, table, _depth_used), spec, retries = _retrying(
        lambda spec: _detect(lt, node, spec, depth, args.guard, primes), specs)

    qvals = initial_values(lt, spec)
    y = spec.y if isinstance(spec, CharacterPoint) else None
    started = time.perf_counter()
    checks = _verify_checks(lt, node, mode, rec, table, qvals, y)
    payload = {
        "job": "verify",
        "config": _config_echo(lt, node, mode, args),
        "type": str(lt), "rank": lt.rank, "node": node, "mode": mode,
        "q": [str(v) for v in qvals],
        "ell_detected": rec.order,
        "ell_predicted": predicted_order(lt, node),
        "recurrence": rec.to_json_dict(),
        "checks": checks,
        "retries": retries,
    }
    if y is not None:
        payload["y"] = [str(v) for v in y]
    payload["timings"] = {"checks_s": round(time.perf_counter() - started, 6)}
    payload["digest"] = _digest(payload)
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
    payload["digest"] = _digest(payload)
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
    lt, node, mode, primes, depth, specs = _prologue(args, "interpolate")
    if depth is None:
        raise ConfigError("interpolation needs a tabulated order or explicit --depth")
    order = predicted_order(lt, node)
    if order is not None and k > order:
        raise ConfigError(f"--k {k} exceeds the order {order} of node {node} of {lt}")
    experiments = []
    for attempts, spec in enumerate(specs, 1):
        if len(experiments) >= args.runs:
            break
        if attempts > args.runs + MAX_SINGULAR_RETRIES * 4:
            raise NoStableRecurrence("too many singular draws during interpolation")
        try:
            rec, _, _ = _detect(lt, node, spec, depth, args.guard, primes)
        except (SingularSpecialization, NoStableRecurrence, PrimeDisagreement):
            continue
        if rec.order < k:
            continue
        experiments.append(([int(v) for v in spec.values], int(rec.coeffs[k])))
    candidates = conjectures.degree_monomials(lt.rank, args.degree)
    poly = conjectures.interpolate_coefficients(lt, node, k, candidates, experiments)
    payload = {
        "job": "interpolate",
        "config": _config_echo(lt, node, mode, args),
        "k": k, "runs": args.runs,
        "polynomial": None if poly is None else str(poly),
        "terms": None if poly is None else
            [{"exponents": list(e), "coeff": str(c)} for e, c in sorted(poly.terms.items())],
    }
    payload["digest"] = _digest(payload)
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
    payload["digest"] = _digest(payload)
    csv_rows = [tuple(f"c{i + 1}" for i in range(lt.rank)) + ("multiplicity",)]
    csv_rows += [tuple(str(c) for c in w) + (str(m),) for w, m in entries]
    _emit(payload, args, csv_rows=csv_rows)
    return EXIT_OK


def run_dims(args):
    lt = _parse_type(args)
    branching = _load_branching(args.branching, lt)
    t = cartan_data(lt).t
    degs = growth_degree(lt)
    needed = [t[a] * (degs[a] + 3) for a in range(lt.rank)]
    deepest = max(range(lt.rank), key=needed.__getitem__)
    depth = needed[deepest] if args.depth in (None, "auto") else int(args.depth)
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
    payload["digest"] = _digest(payload)
    _emit(payload, args, csv_rows=table.to_csv_rows())
    return EXIT_OK if all(res.ok for res in results) else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """A usage error is a configuration error: exit 3, not argparse's 2."""
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qrec",
        description="Exact Q-system tables, recurrence detection, and structural checks.")
    sub = parser.add_subparsers(dest="command", required=True)
    options = {
        "type": dict(help="Lie type, e.g. B3 or E6 (or a family letter with --rank)"),
        "rank": dict(type=int),
        "node": dict(type=int, help="node index, 1-based (default 1)"),
        "seed": dict(type=int, default=_default_seed()),
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
    # each subcommand takes --type, --rank, --out and only the options its runner reads
    run = "node seed depth guard"
    spec = "mode q y branching"
    for name, runner, text, names in (
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
    ):
        command = sub.add_parser(name, help=text)
        command.set_defaults(run=runner)
        for option in ("type", "rank", *names.split(), "out"):
            command.add_argument(f"--{option}", **options[option])
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (DimensionCapExceeded, conjectures.CapExceeded,
            conjectures.InsufficientDepth, LiftOverflow) as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (SingularSpecialization, NoStableRecurrence, PrimeDisagreement,
            InsufficientData) as exc:
        print(f"detection failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except (ConfigError, BranchingIncomplete, ValueError) as exc:
        # last: InsufficientData and InsufficientDepth are ValueErrors too
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
