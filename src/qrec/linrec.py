"""Exact minimal linear recurrence detection and rational generating-function
reconstruction.

Sign convention: a detected recurrence of order l is stored as coefficients
C_0..C_l with C_0 = 1 such that sum_{k=0..l} (-1)^k C_k s_{n-k} = 0 for every
observed n >= start.  The polynomial A(D) = sum_k (-1)^k C_k D^k therefore has
coefficient list `alternating()`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .fields import RATIONALS, PrimeField


class NoStableRecurrence(RuntimeError):
    """The minimal LFSR is too long for the window to validate it."""


class InsufficientData(ValueError):
    """Sequence too short to validate any recurrence with the requested guard."""


class NonVanishingTail(RuntimeError):
    """A(D)*S(D) failed to terminate: the recurrence does not annihilate S."""


class PrimeDisagreement(RuntimeError):
    """Detection modulo one of the primes would differ from the others."""


class LiftOverflow(RuntimeError):
    """CRT modulus plausibly too small for the recurrence coefficients."""


@dataclass(frozen=True)
class RecurrencePoly:
    order: int
    coeffs: tuple  # C_0..C_order, C_0 == 1
    start: int  # first index from which the recurrence holds on the window
    confidence: str = "exact"
    primes: tuple[int, ...] | None = None

    def alternating(self) -> list:
        """Coefficients of A(D) = sum (-1)^k C_k D^k."""
        return [c if k % 2 == 0 else -c for k, c in enumerate(self.coeffs)]

    def to_json_dict(self) -> dict:
        out = {
            "order": self.order,
            "n_min": self.start,
            "coeffs": [str(c) for c in self.coeffs],
            "confidence": self.confidence,
        }
        if self.primes is not None:
            out["primes"] = [str(p) for p in self.primes]
        return out


def berlekamp_massey(seq: Sequence, field=RATIONALS):
    """Minimal LFSR of seq over the field (or Z/m).

    Returns (L, conn) with conn[0] = 1 and
    sum_{i=0..L} conn[i] * seq[n-i] = 0 for all L <= n < len(seq).
    Over Z/m, a discrepancy that is not a unit where L changes is one that
    vanishes modulo some of the primes only, where the per-prime runs part
    ways; inverting it raises ZeroDivisionError.
    """
    cur = [field.one]
    prev = [field.one]
    L, m, b_inv = 0, 1, field.one
    for n, s_n in enumerate(seq):
        d = s_n
        for i in range(1, min(L, len(cur) - 1) + 1):
            d = field.add(d, field.mul(cur[i], seq[n - i]))
        if d == field.zero:
            m += 1
            continue
        coef = field.mul(d, b_inv)
        shifted_len = m + len(prev)
        if len(cur) < shifted_len:
            cur.extend([field.zero] * (shifted_len - len(cur)))
        if 2 * L <= n:
            stash = list(cur)
            for i, pi in enumerate(prev):
                cur[m + i] = field.sub(cur[m + i], field.mul(coef, pi))
            L = n + 1 - L
            prev, b_inv, m = stash, field.div(field.one, d), 1
        else:
            for i, pi in enumerate(prev):
                cur[m + i] = field.sub(cur[m + i], field.mul(coef, pi))
            m += 1
    conn = cur[: L + 1]
    conn.extend([field.zero] * (L + 1 - len(conn)))
    return L, conn


def _holds_at(seq, conn, n, field) -> bool:
    acc = field.zero
    for i, c in enumerate(conn):
        acc = field.add(acc, field.mul(c, seq[n - i]))
    return acc == field.zero


def find_min_recurrence(seq: Sequence, guard: int | None = None,
                        field=RATIONALS) -> RecurrencePoly:
    """Stable minimal recurrence of seq.

    The minimal LFSR of the whole sequence is accepted once the sequence
    holds at least 2*L + guard terms (guard defaults to max(8, L // 4)) and
    direct substitution confirms every window term.  A transient at the
    start is absorbed into the LFSR's initial fill and shows as a later
    start index.
    """
    if guard is not None and guard < 4:
        raise ValueError("guard must be at least 4")
    n_total = len(seq)
    if n_total < 2 + (guard if guard is not None else 8):
        raise InsufficientData(
            f"{n_total} terms are too few for guard {guard if guard is not None else 8}")
    L, conn = berlekamp_massey(seq, field)
    g = guard if guard is not None else max(8, L // 4)
    if 2 * L + g > n_total or not all(_holds_at(seq, conn, n, field)
                                      for n in range(L, n_total)):
        raise NoStableRecurrence(
            f"the minimal LFSR of {n_total} terms has length {L}, which "
            f"{g} guard terms do not validate")
    # an LFSR can absorb a transient into its initial fill, leaving
    # trailing zero taps; the recurrence order is the actual degree
    while len(conn) > 1 and conn[-1] == field.zero:
        conn.pop()
    order = len(conn) - 1
    start = L
    while start > order and _holds_at(seq, conn, start - 1, field):
        start -= 1
    coeffs = tuple(c if k % 2 == 0 else field.neg(c) for k, c in enumerate(conn))
    return RecurrencePoly(order=order, coeffs=coeffs, start=start)


def annihilates(seq: Sequence, rec: RecurrencePoly, field=RATIONALS) -> bool:
    """Direct-substitution soundness check, independent of the detector."""
    conn = [field.of(c) if k % 2 == 0 else field.neg(field.of(c))
            for k, c in enumerate(rec.coeffs)]
    return all(_holds_at(seq, conn, n, field) for n in range(rec.start, len(seq)))


def poly_mul(a: Sequence, b: Sequence, field=RATIONALS) -> list:
    out = [field.zero] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == field.zero:
            continue
        for j, bj in enumerate(b):
            out[i + j] = field.add(out[i + j], field.mul(ai, bj))
    return out


def expand_linear_product(values, stride: int = 1, field=RATIONALS) -> list:
    """prod_i (1 - v_i D^stride) as a dense coefficient list."""
    poly = [field.one]
    for v in values:
        factor = [field.one] + [field.zero] * (stride - 1) + [field.neg(field.of(v))]
        poly = poly_mul(poly, factor, field)
    return poly


def series_divide(num: Sequence, den: Sequence, order: int, field=RATIONALS) -> list:
    """First order+1 coefficients of num(D)/den(D); den must be a unit."""
    if not den or den[0] == field.zero:
        raise ValueError("series division requires a nonzero constant term")
    inv0 = field.div(field.one, den[0])
    out = []
    for n in range(order + 1):
        acc = num[n] if n < len(num) else field.zero
        for k in range(1, min(n, len(den) - 1) + 1):
            acc = field.sub(acc, field.mul(den[k], out[n - k]))
        out.append(field.mul(acc, inv0))
    return out


def numerator(seq: Sequence, rec: RecurrencePoly, field=RATIONALS) -> list:
    """The polynomial A(D) * S(D), which must terminate below max(order, start)."""
    a = rec.alternating()
    tail_from = max(rec.order, rec.start)
    coeffs = []
    for n in range(len(seq)):
        acc = field.zero
        for k in range(0, min(n, rec.order) + 1):
            acc = field.add(acc, field.mul(a[k], seq[n - k]))
        if n >= tail_from and acc != field.zero:
            raise NonVanishingTail(f"product coefficient at degree {n} is {acc}")
        coeffs.append(acc)
    coeffs = coeffs[:tail_from]
    while len(coeffs) > 1 and coeffs[-1] == field.zero:
        coeffs.pop()
    return coeffs


def multi_prime_detect(seq_factory: Callable[[int], Sequence[int]], primes,
                       guard: int | None = None) -> RecurrencePoly:
    """Detection modulo the product M of the primes, lifted to the symmetric
    range (-M/2, M/2].

    seq_factory(M) must yield the integer sequence reduced mod M.  Z/M is
    the product of the prime fields, so this one detection is the per-prime
    detections joined by CRT; a division by a non-unit mod M is where they
    would disagree.  The result is flagged "modular" confidence.
    """
    primes = sorted(set(int(p) for p in primes))
    if len(primes) < 3:
        raise ValueError("need at least 3 distinct primes")
    if any(p <= 2**50 for p in primes):
        raise ValueError("primes must exceed 2^50")
    modulus = math.prod(primes)
    seq = [x % modulus for x in seq_factory(modulus)]
    try:
        rec = find_min_recurrence(seq, guard=guard, field=PrimeField(modulus))
    except ZeroDivisionError as exc:
        raise PrimeDisagreement(f"detections modulo the primes disagree: {exc}") from None
    lifted = []
    for k, c in enumerate(rec.coeffs):
        if c > modulus // 2:
            c -= modulus
        if modulus // 2 - abs(c) < 2**16:
            raise LiftOverflow(
                f"coefficient C_{k} lifted to {c}, within 2^16 of modulus/2; "
                "rerun with more primes"
            )
        lifted.append(c)
    return RecurrencePoly(order=rec.order, coeffs=tuple(lifted), start=rec.start,
                          confidence="modular", primes=tuple(primes))
