"""Exact minimal linear recurrence detection and rational generating-function
reconstruction.

Sign convention: a detected recurrence of order l is stored as coefficients
C_0..C_l with C_0 = 1 such that sum_{k=0..l} (-1)^k C_k s_{n-k} = 0 for every
observed n >= start.  The polynomial A(D) = sum_k (-1)^k C_k D^k therefore has
coefficient list `alternating()`.
"""
from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Callable, Sequence
from fractions import Fraction
from operator import mul

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
    """No lifted candidate passed substitution, past the primes that must suffice."""


class RecurrencePoly(namedtuple("RecurrencePoly", "order coeffs start primes",
                                defaults=(None,))):
    """coeffs: C_0..C_order, C_0 == 1; start: the first index from which the
    recurrence holds on the window; primes: set by modular detection."""

    __slots__ = ()

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
    """Minimal LFSR of seq over the field (or Z/m): one lane of
    _berlekamp_massey.

    Returns (L, conn) with conn[0] = 1 and
    sum_{i=0..L} conn[i] * seq[n-i] = 0 for all L <= n < len(seq).
    A state list, empty at first, carries the terms fed, the connection
    polynomials cur and prev, L, the shift m and b_inv = 1/(prev's d) from
    one call to the next, and seq holds only the terms that follow theirs.
    Each discrepancy is one inner product, reduced once, and each update
    one pass over prev on plain operators, not reduced: over Z/m only the
    discrepancy, prev (the stash of cur taken where L changes) and the
    returned conn are reduced.  So prev and each update's multiplier lie in
    [0, m), and after N updates an entry of cur is below N * m^2 in size.
    Over Z/m, a discrepancy that is not a unit where L changes is one that
    vanishes modulo some of the primes only, where the per-prime runs part
    ways; inverting it raises ZeroDivisionError, and the state is spent.
    """
    (run,) = _berlekamp_massey([seq], field, [[] if state is None else state])
    if isinstance(run, ZeroDivisionError):
        raise run
    return run


def _berlekamp_massey(seqs, field, states) -> list:
    """berlekamp_massey on each seq of seqs with its state, the lanes in
    lockstep: per lane, its (L, conn), or the ZeroDivisionError of a
    discrepancy that is not a unit where its L changes, which stops that
    lane alone and spends its state.

    Step n feeds each lane its n-th new term.  The lanes whose L changes at
    the step invert their discrepancies in one field.divisors call, as the
    next step needs them; when that call meets a non-unit, each is inverted
    alone, so that only the lanes at fault stop.
    """
    reduce, zero, one = field.reduce, field.zero, field.one
    lanes = []  # per running lane: [terms, cur, prev, L, m, b_inv, its first n, its end, index]
    for j, (seq, state) in enumerate(zip(seqs, states)):
        terms, cur, prev, L, m, b_inv = state or ([], [one], [one], 0, 1, one)
        lanes.append([terms, cur, prev, L, m, b_inv, len(terms), len(terms) + len(seq), j])
        terms.extend(seq)
    out = [None] * len(lanes)
    for step in range(max(map(len, seqs), default=0)):
        changed, discrepancies = [], []
        for lane in lanes:
            terms, cur, prev, L, m, b_inv, first, end, _ = lane
            if (n := first + step) >= end:
                continue
            k = L if L < len(cur) else len(cur) - 1
            d = reduce(terms[n] + sum(map(mul, cur[1:k + 1], reversed(terms[n - k:n]))))
            if d == zero:
                lane[4] = m + 1
                continue
            coef = reduce(d * b_inv)
            if (shifted_len := m + len(prev)) > len(cur):
                cur.extend([zero] * (shifted_len - len(cur)))
            stash = list(map(reduce, cur[:L + 1])) if 2 * L <= n else None  # deg cur <= L
            cur[m:shifted_len] = [c - coef * p for c, p in zip(cur[m:shifted_len], prev)]
            if stash is None:
                lane[4] = m + 1
            else:
                lane[2:5] = stash, n + 1 - L, 1
                changed.append(lane)
                discrepancies.append(d)
        if changed:
            try:
                inverses = field.divisors(discrepancies)
            except ZeroDivisionError:
                inverses = []
                for lane, d in zip(changed, discrepancies):
                    try:
                        inverses += field.divisors([d])
                    except ZeroDivisionError as exc:
                        out[lane[-1]] = exc
                        inverses.append(None)
                lanes = [lane for lane in lanes if out[lane[-1]] is None]
            for lane, inverse in zip(changed, inverses):
                lane[5] = inverse
    for terms, cur, prev, L, m, b_inv, _, _, j in lanes:
        states[j][:] = terms, cur, prev, L, m, b_inv
        conn = list(map(reduce, cur[: L + 1]))
        conn.extend([zero] * (L + 1 - len(conn)))
        out[j] = L, conn
    return out


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


def _residues(seq, modulus, start=0):
    """seq[start:] modulo the modulus: each numerator % modulus when every
    denominator is 1, otherwise with the denominators inverted in one
    divisors call; raises ZeroDivisionError when one is a non-unit."""
    chunk = seq[start:] if start else seq
    if all(x.denominator == 1 for x in chunk):
        return [x.numerator % modulus for x in chunk]
    divisors = PrimeField(modulus).divisors([x.denominator for x in chunk])
    return [x.numerator * d % modulus for x, d in zip(chunk, divisors)]


def _symmetric(c: int, modulus: int) -> int:
    """The residue c lifted into (-modulus/2, modulus/2]."""
    return c - modulus if c > modulus // 2 else c


def _certified(conn, modulus, window):
    """The first lift of BM's conn from Z/modulus to Q that annihilates the
    integer window from len(conn) - 1 on, or None: into (-modulus/2,
    modulus/2] first, then by rational reconstruction; either is the unique
    minimal LFSR, of length L on N >= 2L terms."""
    for lift in (_symmetric, rational_reconstruction):
        lifted = [lift(c, modulus) for c in conn]
        if None not in lifted:
            taps = _cleared(lifted)[::-1]
            if all(_holds(window, taps, n, RATIONALS) for n in range(len(conn) - 1, len(window))):
                return lifted
    return None


def _read(seq, guard, field):
    """(the terms read, BM's (L, conn) on them over the field) of a window,
    read as one chunk, or a stream, read online: terms(33), then
    terms(2L + g) for BM's current L, until that many are read or no more
    come.  BM is fed each chunk once; a non-unit raises."""
    terms = seq if callable(seq) else lambda n: seq
    fed, want, state = 0, 33, []
    while want > fed and len(read := terms(want)) > fed:
        run = berlekamp_massey(_residues(read, field.modulus, fed), field, state)
        fed, want = len(read), 2 * run[0] + guard_terms(run[0], guard)
    if (short := _too_few(fed, guard)) is not None:
        raise short
    return read, run


def _too_few(fed, guard):
    """InsufficientData when fed terms are too few to validate any LFSR
    with the guard, else None."""
    if fed < 2 + guard_terms(0, guard):
        return InsufficientData(f"{fed} terms are too few for guard {guard_terms(0, guard)}")
    return None


def _unstable(n_total, L, guard):
    """NoStableRecurrence when n_total terms are too few to validate an
    LFSR of length L with the guard, else None."""
    g = guard_terms(L, guard)
    if 2 * L + g > n_total:
        return NoStableRecurrence(f"the minimal LFSR of {n_total} terms has length {L}, "
                                  f"which {g} guard terms do not validate")
    return None


def _check_guard(guard):
    if guard is not None and guard < 4:
        raise ValueError("guard must be at least 4")


def find_min_recurrence(seq: Sequence | Callable[[int], Sequence],
                        guard: int | None = None, field=RATIONALS) -> RecurrencePoly:
    """Stable minimal recurrence of seq, a window, or a stream: a function
    n -> the first n terms, read online (see _read).

    The minimal LFSR of the terms read is accepted once they number at
    least 2*L + guard_terms(L, guard); a transient at the start is absorbed
    into the LFSR's initial fill and shows as a later start index.  That
    index is BM's L: taps that held from L - 1 on would be a shorter LFSR
    modulo every prime of the modulus, where BM's L is minimal.

    One loop reads seq modulo each modulus in turn.  Over Z/m the one
    modulus is m, and BM's LFSR is not substituted again: BM ran on these
    residues, so its invariant already holds.  Over Q the moduli are
    batches of 4 seeded primes.  Garner's CRT step joins each batch's conn
    to those before it of the same L and window (another restarts the
    join), and exact substitution certifies a lift of the join (see
    _certified).  A prime that divides no denominator of the window or of
    the LFSR over Q cannot lengthen the LFSR (Fatou's lemma over Z_(p));
    one that lengthens it unlike the rest of its batch hits a non-unit,
    which skips the batch, and the first batch too long for the window is
    dropped.  The coefficients are ratios of L x L minors of the integer
    window, at most (sqrt(L) * max|window|)^L by Hadamard; a lift needs a
    modulus above twice their square, and the loop stops two batches after
    the bits drawn, batches that raised included, pass that bound.
    """
    _check_guard(guard)
    exact = not isinstance(field, PrimeField)
    moduli = map(math.prod, zip(*[prime_stream(PRIME_SEED)] * 4)) if exact else [field.modulus]
    need, bits, past, dropped, join = math.inf, 0, 0, False, None
    for p in moduli:
        if past == 2:
            raise CertificateFailure(
                f"no candidate LFSR of {len(window)} terms passed substitution")
        bits += p.bit_length()
        past += bits > need
        try:
            read, (L, conn) = _read(seq, guard, PrimeField(p))
        except ZeroDivisionError:
            if exact:
                continue
            raise
        n_total = len(read)
        if (unstable := _unstable(n_total, L, guard)) is not None:
            if exact and not dropped:
                dropped = True
                continue
            raise unstable
        if not exact:
            break
        if join != (L, n_total):
            join, modulus, joined = (L, n_total), 1, [0] * (L + 1)
            window = _cleared(read)
            need = n_total * (max(map(abs, window)).bit_length() + n_total.bit_length()) + 1
        inverse = pow(modulus, -1, p)
        joined = [a + modulus * ((c - a) * inverse % p) for a, c in zip(joined, conn)]
        modulus *= p
        if (conn := _certified(joined, modulus, window)) is not None:
            break
    return _recurrence(conn, L, field)


def _recurrence(conn, L, field) -> RecurrencePoly:
    """The recurrence of the connection polynomial conn of an LFSR of
    length L.  An LFSR can absorb a transient into its initial fill,
    leaving trailing zero taps; the recurrence order is the actual degree."""
    while len(conn) > 1 and conn[-1] == 0:
        conn.pop()
    coeffs = tuple(c if k % 2 == 0 else field.reduce(-c) for k, c in enumerate(conn))
    return RecurrencePoly(order=len(conn) - 1, coeffs=coeffs, start=L)


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
    """prod_i (1 - v_i D^stride) as a dense coefficient list of Fractions.
    With v_i = n_i / d_i this is prod_i (d_i - n_i E) / prod_i d_i in
    E = D^stride: the factors multiply in ints, and each coefficient is
    normalised once."""
    coeffs, den = [1], 1
    for v in values:
        n, d = v.numerator, v.denominator
        coeffs = [d * c - n * p for c, p in zip(coeffs + [0], [0] + coeffs)]
        den *= d
    poly = [Fraction(0)] * (stride * (len(coeffs) - 1) + 1)
    poly[::stride] = [Fraction(c, den) for c in coeffs]
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
    coeffs = poly_mul(rec.alternating(), seq)[:len(seq)]
    tail_from = max(rec.order, rec.start)
    for n in range(tail_from, len(coeffs)):
        if coeffs[n] != 0:
            raise NonVanishingTail(f"product coefficient at degree {n} is {coeffs[n]}")
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
    primes, modulus = _detection_primes(primes)
    try:
        rec = find_min_recurrence(seq_factory(modulus), guard=guard, field=PrimeField(modulus))
    except ZeroDivisionError as exc:
        raise _disagreement(exc) from None
    rec = _lifted(rec, primes, modulus)
    if isinstance(rec, LiftOverflow):
        raise rec
    return rec


def multi_prime_lanes(window_factory: Callable[[int], list], primes,
                      guard: int | None = None) -> list:
    """multi_prime_detect on lanes: window_factory(M) gives a list of integer
    windows reduced mod M, one per lane, and Berlekamp-Massey runs on them
    in lockstep (see _berlekamp_massey).  Returns per lane the
    RecurrencePoly that multi_prime_detect would return on its window, or
    the exception that it would raise there.  A lane whose window is an
    exception, as qsystem.windows gives for a singular table, gets that
    exception back."""
    primes, modulus = _detection_primes(primes)
    _check_guard(guard)
    field, windows = PrimeField(modulus), window_factory(modulus)
    regular = [w for w in windows if not isinstance(w, Exception)]
    runs = iter(_berlekamp_massey(regular, field, [[] for _ in regular]))
    out = []
    for window in windows:
        if isinstance(window, Exception):
            out.append(window)
            continue
        if isinstance(run := next(runs), ZeroDivisionError):
            out.append(_disagreement(run))
            continue
        L, conn = run
        # the first exception that find_min_recurrence and the lift would raise
        out.append(_too_few(len(window), guard) or _unstable(len(window), L, guard)
                   or _lifted(_recurrence(conn, L, field), primes, modulus))
    return out


def _detection_primes(primes):
    """The sorted distinct primes of a detection, and their product; a
    ValueError when there are fewer than 3, or one is not above 2^50."""
    primes = sorted(set(int(p) for p in primes))
    if len(primes) < 3:
        raise ValueError("need at least 3 distinct primes")
    if any(p <= 2**50 for p in primes):
        raise ValueError("primes must exceed 2^50")
    return primes, math.prod(primes)


def _disagreement(exc: ZeroDivisionError) -> PrimeDisagreement:
    return PrimeDisagreement(f"detections modulo the primes disagree: {exc}")


def _lifted(rec, primes, modulus):
    """rec over Z/modulus lifted to the symmetric range, or LiftOverflow
    when a coefficient lands within 2^16 of modulus/2."""
    lifted = [_symmetric(c, modulus) for c in rec.coeffs]
    for k, c in enumerate(lifted):
        if modulus // 2 - abs(c) < 2**16:
            return LiftOverflow(f"coefficient C_{k} lifted to {c}, within 2^16 of "
                                "modulus/2; rerun with more primes")
    return RecurrencePoly(order=rec.order, coeffs=tuple(lifted), start=rec.start,
                          primes=tuple(primes))
