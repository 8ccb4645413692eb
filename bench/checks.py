"""Correctness checks on qrec job outputs, run outside the timed region.

Two independent checks feed the failure count:

* ``compare`` holds a job's result to the outcome recorded in
  ``reference.json``: exit code, recurrence order, ``n_min``, coefficients,
  check statuses and interpolated polynomial.  The digest is not compared, so
  report-only fields added later do not count as failures.
* ``certify`` proves the result without trusting the detector: an exact
  recurrence must annihilate a longer exactly generated sequence, a modular
  one must annihilate the sequence reduced at a prime that ``seeded_primes``
  never draws, and an interpolated polynomial must give the coefficient that
  a detection at that prime finds for fresh q.
"""
from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

from qrec.cartan import LieType, predicted_order
from qrec.fields import RATIONALS, PrimeField
from qrec.linrec import NoStableRecurrence, RecurrencePoly, annihilates, find_min_recurrence
from qrec.qsystem import RawQ, SingularSpecialization, generate

# seeded_primes draws 51-bit primes, so this Mersenne prime is never among them
CERT_PRIME = 2**61 - 1


def parse(stdout: str):
    """The job's JSON report, or None when it printed none."""
    try:
        return json.loads(stdout)
    except ValueError:
        return None


def summary(code: int, payload) -> dict:
    """The fields of a result that are held to the recorded reference."""
    out = {"exit": code}
    if payload is None:
        return out
    rec = payload.get("recurrence")
    if rec is not None:
        out["order"] = rec["order"]
        out["n_min"] = rec["n_min"]
        out["coeffs_sha256"] = hashlib.sha256(
            "\n".join(rec["coeffs"]).encode()).hexdigest()
    if "checks" in payload:
        out["checks"] = {c["name"]: c["status"] for c in payload["checks"]}
    if payload.get("job") == "interpolate":
        out["polynomial"] = payload["polynomial"]
    return out


def compare(expected: dict, got: dict) -> str | None:
    """Why got differs from the recorded outcome, or None if it matches.

    Checks absent from the reference are ignored, so a later version may add
    checks without failing the benchmark.
    """
    for key, want in expected.items():
        if key == "checks":
            have = got.get("checks", {})
            for name, status in want.items():
                if have.get(name) != status:
                    return f"check {name}: expected {status}, got {have.get(name)}"
        elif got.get(key) != want:
            return f"{key}: expected {want!r}, got {got.get(key)!r}"
    return None


def certify(key: str, payload) -> str | None:
    """Why the result fails its independent certificate, or None if it holds."""
    if payload is None:
        return "no report printed"
    lt = LieType.parse(payload["config"]["type"])
    node = payload["config"]["node"]
    if payload["job"] in ("detect", "verify"):
        return _certify_recurrence(lt, node, payload)
    if payload["job"] == "interpolate":
        return _certify_polynomial(lt, node, key, payload)
    return f"no certificate for job {payload['job']!r}"


def _certify_recurrence(lt, node, payload) -> str | None:
    rec_json = payload["recurrence"]
    order, start = rec_json["order"], rec_json["n_min"]
    coeffs = tuple(Fraction(c) for c in rec_json["coeffs"])
    if len(coeffs) != order + 1 or coeffs[0] != 1:
        return f"malformed recurrence: {len(coeffs)} coefficients for order {order}"
    modular = "primes" in rec_json
    if modular and str(CERT_PRIME) in rec_json["primes"]:
        return "the certifying prime was used for detection"
    field = PrimeField(CERT_PRIME) if modular else RATIONALS
    # longer than any depth qrec picks, so at least max(16, order // 2)
    # terms past its window are checked
    depth = (max(payload.get("depth", 0), 2 * order + order // 4 + 12, start + order)
             + max(16, order // 2))
    q = tuple(Fraction(v) for v in payload["q"])
    seq = generate(lt, RawQ(q), (node, depth), field=field).node(node)
    rec = RecurrencePoly(order=order, coeffs=coeffs, start=start)
    if not annihilates(seq, rec, field=field):
        where = f"mod {CERT_PRIME}" if modular else "over Q"
        return f"order-{order} recurrence does not annihilate {depth} terms {where}"
    return None


def _certify_polynomial(lt, node, key, payload, points: int = 2) -> str | None:
    if payload["terms"] is None:
        return "no polynomial fitted"
    k = payload["k"]
    fp = PrimeField(CERT_PRIME)
    order = predicted_order(lt, node)
    depth = 2 * order + max(8, order // 4) + 20
    rng = random.Random(f"qrec-bench-certify-{key}")
    checked = 0
    for _ in range(4 * points):
        q = [rng.randint(-50, 50) for _ in range(lt.rank)]
        try:
            seq = generate(lt, RawQ(q), (node, depth), field=fp).node(node)
            rec = find_min_recurrence(seq, field=fp)
        except (SingularSpecialization, NoStableRecurrence):
            continue  # a degenerate draw proves nothing; take another point
        if rec.order != order:
            continue
        want = 0
        for term in payload["terms"]:
            value = int(term["coeff"])
            for qa, e in zip(q, term["exponents"]):
                value *= qa ** e
            want += value
        if (rec.coeffs[k] - want) % CERT_PRIME:
            return f"C_{k} at q={q} is {rec.coeffs[k]} mod p, the polynomial gives {want}"
        checked += 1
        if checked == points:
            return None
    return f"only {checked} of {points} fresh points were nondegenerate"
