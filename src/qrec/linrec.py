"""Exact minimal linear recurrence detection and rational generating-function
reconstruction.

Sign convention: a detected recurrence of order l is stored as coefficients
C_0..C_l with C_0 = 1 such that sum_{k=0..l} (-1)^k C_k s_{n-k} = 0 for every
observed n >= start.  The polynomial A(D) = sum_k (-1)^k C_k D^k therefore has
coefficient list `alternating()`.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Callable, Sequence

from .fields import RATIONALS, PrimeField, prime_stream, rational_reconstruction

PRIME_SEED = 0  # seed of the primes that exact detection works modulo


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


class CertificateFailure(RuntimeError):
    """No lifted candidate passed substitution, past the primes that must
    suffice."""


@dataclass(frozen=True)
class RecurrencePoly:
    order: int
    coeffs: tuple  # C_0..C_order, C_0 == 1
    start: int  # first index from which the recurrence holds on the window
    primes: tuple[int, ...] | None = None  # set by modular detection

    @property
    def confidence(self) -> str:
        return "exact" if self.primes is None else "modular"

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


def berlekamp_massey(seq: Sequence, field=RATIONALS, state: list | None = None):
    """Minimal LFSR of seq over the field (or Z/m).

    Returns (L, conn) with conn[0] = 1 and
    sum_{i=0..L} conn[i] * seq[n-i] = 0 for all L <= n < len(seq).
    A state list, empty at first, carries the terms fed, the connection
    polynomials cur and prev, L, the shift m and b_inv = 1/(prev's d) from
    one call to the next, and seq holds only the terms that follow theirs.
    Each discrepancy is one inner product and each update one pass over
    prev, on plain operators, with one field.reduce per element.
    Over Z/m, a discrepancy that is not a unit where L changes is one that
    vanishes modulo some of the primes only, where the per-prime runs part
    ways; inverting it raises ZeroDivisionError, and the state is spent.
    """
    reduce = field.reduce
    terms, cur, prev, L, m, b_inv = state or ([], [field.one], [field.one], 0, 1, field.one)
    terms.extend(seq)
    for n in range(len(terms) - len(seq), len(terms)):
        k = min(L, len(cur) - 1)
        d = reduce(terms[n] + sum(map(mul, cur[1:k + 1], reversed(terms[n - k:n]))))
        if d == field.zero:
            m += 1
            continue
        coef = reduce(d * b_inv)
        shifted_len = m + len(prev)
        if len(cur) < shifted_len:
            cur.extend([field.zero] * (shifted_len - len(cur)))
        stash = cur[:L + 1] if 2 * L <= n else None  # deg cur <= L
        cur[m:shifted_len] = [reduce(c - coef * p) for c, p in zip(cur[m:shifted_len], prev)]
        if stash is None:
            m += 1
        else:
            L = n + 1 - L
            prev, (b_inv,), m = stash, field.inverses([d]), 1
    if state is not None:
        state[:] = terms, cur, prev, L, m, b_inv
    conn = cur[: L + 1]
    conn.extend([field.zero] * (L + 1 - len(conn)))
    return L, conn


def guard_terms(L: int, guard: int | None = None) -> int:
    """Terms past 2L that validate an LFSR of length L (default max(8, L // 4))."""
    return guard if guard is not None else max(8, L // 4)


def _cleared(values) -> list[int]:
    """The values times the lcm of their denominators."""
    scale = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values]


def _holds(seq, taps, n, field) -> bool:
    """Whether the reversed connection polynomial taps annihilates seq at n:
    one inner product, reduced once."""
    return field.reduce(sum(map(mul, taps, seq[n + 1 - len(taps):n + 1]))) == 0


def _residues(seq, modulus):
    """seq modulo the modulus, its denominators inverted in one inverses
    call; raises ZeroDivisionError when one is a non-unit."""
    inverses = PrimeField(modulus).inverses([x.denominator for x in seq])
    return [x.numerator * inv % modulus for x, inv in zip(seq, inverses)]


def _lifted_candidates(seq, window, moduli, run=None):
    """(L, conn) of BM on seq modulo each product of primes in moduli, each
    coefficient lifted to Q by rational reconstruction; conn is None when one
    has no lift.  run is BM's (L, conn) modulo the first, if it has run.

    A set is skipped when one of its primes divides a denominator of seq or
    a discrepancy BM must invert.  An LFSR of length L <= N/2 has
    coefficients that are ratios of L x L minors of the integer window, each
    at most (sqrt(L) * max|window|)^L by Hadamard, and reconstruction needs
    a modulus above twice their square; the candidates stop after two sets
    past that bound.
    """
    n_total = len(window)
    need = n_total * (max(map(abs, window)).bit_length() + n_total.bit_length()) + 1
    past_bound = 0
    for modulus in moduli:
        if past_bound == 2:
            return
        past_bound += modulus.bit_length() > need
        try:
            L, conn = run or berlekamp_massey(_residues(seq, modulus), PrimeField(modulus))
        except ZeroDivisionError:
            continue
        run = None
        lifted = [rational_reconstruction(c, modulus) for c in conn]
        yield L, None if None in lifted else lifted


def _read(terms, guard, field, moduli):
    """(the terms read, the streamed modulus, BM's (L, conn) on the terms
    over Z/m or modulo that modulus) of a stream read online: terms(33),
    then terms(2L + g) for BM's current L, until 2L + g terms are read or
    the stream gives no more.  BM resumes on each new chunk once it is read.
    Over Q a non-unit denominator or discrepancy restarts BM on the terms
    read so far modulo the next of the moduli."""
    seq, run, want, state = [], None, 33, []
    bm_field = field if isinstance(field, PrimeField) else PrimeField(next(moduli))
    while want > len(seq) and (chunk := terms(want)[len(seq):]):
        seq += chunk
        try:
            run = berlekamp_massey(_residues(chunk, bm_field.modulus), bm_field, state)
        except ZeroDivisionError:
            if bm_field is field:
                raise
            bm_field, state, seq = PrimeField(next(moduli)), [], []
            continue
        want = 2 * run[0] + guard_terms(run[0], guard)
    return seq, bm_field.modulus, run


def find_min_recurrence(seq: Sequence | Callable[[int], Sequence],
                        guard: int | None = None, field=RATIONALS) -> RecurrencePoly:
    """Stable minimal recurrence of seq, a window, or a stream: a function
    n -> the first n terms, read online (see _read) into the window to
    validate.

    The minimal LFSR of the whole window is accepted once the window holds
    at least 2*L + guard_terms(L, guard) terms and, over Q, direct
    substitution confirms every window term.  A transient at the start is
    absorbed into the LFSR's initial fill and shows as a later start index.

    Over Z/m the one candidate is BM's LFSR over Z/m, not substituted again:
    BM ran on these residues, so its invariant already holds.  Over Q
    the candidates are BM's LFSRs modulo growing products M of seeded
    primes, lifted by rational reconstruction, and exact substitution over
    Q certifies the first that holds: an LFSR of length L on N >= 2L terms
    is the unique minimal one.  A prime that divides no window denominator
    or coefficient denominator of the minimal LFSR over Q cannot lengthen
    the LFSR (Fatou's lemma over Z_(p)), and one that lengthens it unlike
    the other primes of its set hits a non-unit, so a candidate too long
    for the window raises NoStableRecurrence at once.
    """
    if guard is not None and guard < 4:
        raise ValueError("guard must be at least 4")
    # products of 4, 8, 16, ... fresh seeded primes, drawn from one stream
    primes = prime_stream(PRIME_SEED)
    moduli = (math.prod(itertools.islice(primes, 4 << k)) for k in itertools.count())
    run = None
    if callable(seq):
        seq, modulus, run = _read(seq, guard, field, moduli)
        moduli = itertools.chain([modulus], moduli)
    n_total = len(seq)
    if n_total < 2 + guard_terms(0, guard):
        raise InsufficientData(
            f"{n_total} terms are too few for guard {guard_terms(0, guard)}")
    window = _cleared(seq)
    modular = isinstance(field, PrimeField)
    candidates = ([run or berlekamp_massey(window, field)] if modular
                  else _lifted_candidates(seq, window, moduli, run))
    for L, conn in candidates:
        g = guard_terms(L, guard)
        if 2 * L + g > n_total:
            raise NoStableRecurrence(
                f"the minimal LFSR of {n_total} terms has length {L}, which "
                f"{g} guard terms do not validate")
        if conn is None:
            continue
        taps = _cleared(conn)[::-1]
        if modular or all(_holds(window, taps, n, field) for n in range(L, n_total)):
            break
    else:
        raise CertificateFailure(
            f"no candidate LFSR of {n_total} terms passed substitution")
    # an LFSR can absorb a transient into its initial fill, leaving
    # trailing zero taps; the recurrence order is the actual degree
    while len(conn) > 1 and conn[-1] == 0:
        conn.pop()
    taps = taps[len(taps) - len(conn):]
    order = len(conn) - 1
    start = L
    while start > order and _holds(window, taps, start - 1, field):
        start -= 1
    coeffs = tuple(c if k % 2 == 0 else field.reduce(-c) for k, c in enumerate(conn))
    return RecurrencePoly(order=order, coeffs=coeffs, start=start)


def annihilates(seq: Sequence, rec: RecurrencePoly, field=RATIONALS) -> bool:
    """Direct-substitution soundness check, independent of the detector."""
    taps = [field.of(c) for c in reversed(rec.alternating())]
    return all(_holds(seq, taps, n, field) for n in range(rec.start, len(seq)))


def poly_mul(a: Sequence, b: Sequence) -> list:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            out[i:i + len(b)] = [o + ai * bj for o, bj in zip(out[i:i + len(b)], b)]
    return out


def expand_linear_product(values, stride: int = 1) -> list:
    """prod_i (1 - v_i D^stride) as a dense coefficient list."""
    poly = [Fraction(1)]
    for v in values:
        poly = poly_mul(poly, [1] + [0] * (stride - 1) + [-Fraction(v)])
    return poly


def series_divide(num: Sequence, den: Sequence, order: int) -> list:
    """First order+1 coefficients of num(D)/den(D); den must be a unit."""
    if not den or den[0] == 0:
        raise ValueError("series division requires a nonzero constant term")
    inv0 = 1 / Fraction(den[0])
    out = []
    for n in range(order + 1):
        k = min(n, len(den) - 1)
        acc = (num[n] if n < len(num) else 0) - sum(
            map(mul, den[1:k + 1], reversed(out[n - k:n])))
        out.append(acc * inv0)
    return out


def numerator(seq: Sequence, rec: RecurrencePoly) -> list:
    """The polynomial A(D) * S(D), which must terminate below max(order, start)."""
    a = rec.alternating()
    tail_from = max(rec.order, rec.start)
    coeffs = []
    for n in range(len(seq)):
        k = min(n, rec.order)
        acc = sum(map(mul, a[:k + 1], reversed(seq[n - k:n + 1])), Fraction(0))
        if n >= tail_from and acc != 0:
            raise NonVanishingTail(f"product coefficient at degree {n} is {acc}")
        coeffs.append(acc)
    coeffs = coeffs[:tail_from]
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def multi_prime_detect(seq_factory: Callable[[int], Sequence[int]], primes,
                       guard: int | None = None) -> RecurrencePoly:
    """Detection modulo the product M of the primes, lifted to the symmetric
    range (-M/2, M/2].

    seq_factory(M) must give the integer sequence reduced mod M, as a window
    or a stream (see find_min_recurrence).  Z/M is the product of the prime
    fields, so this one detection is the per-prime detections joined by
    CRT; a division by a non-unit mod M is where they would disagree.  The
    result is flagged "modular" confidence.
    """
    primes = sorted(set(int(p) for p in primes))
    if len(primes) < 3:
        raise ValueError("need at least 3 distinct primes")
    if any(p <= 2**50 for p in primes):
        raise ValueError("primes must exceed 2^50")
    modulus = math.prod(primes)
    try:
        rec = find_min_recurrence(seq_factory(modulus), guard=guard, field=PrimeField(modulus))
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
                          primes=tuple(primes))
