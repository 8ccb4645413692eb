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


def exact_batches():
    """The moduli that exact detection reads a sequence modulo, in turn:
    the product of the first 2 primes of prime_stream(PRIME_SEED), a
    102-bit modulus, then of each next 4.  A small answer certifies at the
    first, and a large one pays for the bits it lacks 4 primes at a time."""
    primes = prime_stream(PRIME_SEED)
    yield next(primes) * next(primes)
    yield from map(math.prod, zip(*[primes] * 4))


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


def berlekamp_massey(seq: Sequence, field=RATIONALS):
    """Minimal LFSR of seq over the field (or Z/m): one lane of
    _berlekamp_massey, raising its ZeroDivisionError.

    Returns (L, conn) with conn[0] = 1 and
    sum_{i=0..L} conn[i] * seq[n-i] = 0 for all L <= n < len(seq).
    """
    return _raised(_berlekamp_massey([seq], field, [[]])[0])


def _berlekamp_massey(seqs, field, states) -> list:
    """berlekamp_massey on each seq of seqs with its state, the lanes in
    lockstep: per lane, its (L, conn) on the terms fed so far, or the
    ZeroDivisionError of a discrepancy that is not a unit where its L
    changes, which stops that lane alone and spends its state.  Over Z/m
    such a discrepancy vanishes modulo some of the primes only, where the
    per-prime runs part ways.

    A state list, empty at first, carries the terms fed, the connection
    polynomials cur and prev, L, the shift m and b_inv = 1/(prev's d) from
    one call to the next, and seq holds only the terms that follow theirs.
    Each discrepancy is one inner product, reduced once, and each update
    one pass over prev on plain operators, not reduced: over Z/m only the
    discrepancy, prev (the stash of cur taken where L changes) and the
    returned conn are reduced.  So prev and each update's multiplier lie in
    [0, m), and after N updates an entry of cur is below N * m^2 in size.

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
    minimal LFSR, of length L on N >= 2L terms.  A lift stops at the first
    coefficient that it leaves None."""
    for lift in (_symmetric, rational_reconstruction):
        lifted = []
        for c in conn:
            if (value := lift(c, modulus)) is None:
                break
            lifted.append(value)
        else:
            taps = _cleared(lifted)[::-1]
            if all(_holds(window, taps, n, RATIONALS) for n in range(len(conn) - 1, len(window))):
                return lifted
    return None


def _read(seqs, guard, field, reduced=False) -> list:
    """Per lane of seqs, (the terms read, L, conn) of BM over the field on
    them, or the exception that stopped the lane.  A lane is a window, read
    as one chunk; a stream, a function n -> the first n terms (in a new
    list or one it grows), read online: terms(33), then terms(2L + g) for
    its current L, until that many are read or no more come; or an
    exception, which is the lane's result, as is one that a stream returns.
    Each round feeds the new chunk of every lane still reading through
    _berlekamp_massey in lockstep, each term once, as its residue (see
    _residues) unless reduced says it is one.  A non-unit discrepancy or
    denominator stops its lane with ZeroDivisionError, and a lane that has
    read to its end stops with what _stable says.
    """
    out = [None] * len(seqs)
    # per lane still reading: [index, terms, the list they came in, how many
    # were fed, the terms wanted, BM's state, BM's (L, conn) on those fed]
    lanes = [[j, seq if callable(seq) else lambda n, seq=seq: seq, [], 0, 33, [], None]
             for j, seq in enumerate(seqs)]
    while lanes:
        fed, chunks = [], []
        for lane in lanes:
            j, terms, read, n, want, _, run = lane
            more = terms(want) if want > n else read
            if isinstance(more, Exception):
                out[j] = more
            elif len(more) <= n:
                out[j] = _stable(read[:n] if len(read) > n else read, run, guard)
            else:
                try:
                    chunks.append((more[n:] if n else more) if reduced
                                  else _residues(more, field.modulus, n))
                except ZeroDivisionError as exc:  # a denominator that is a non-unit
                    out[j] = exc
                    continue
                lane[2:4] = more, len(more)
                fed.append(lane)
        runs = _berlekamp_massey(chunks, field, [lane[5] for lane in fed]) if fed else []
        lanes = []
        for lane, run in zip(fed, runs):
            if isinstance(run, ZeroDivisionError):
                out[lane[0]] = run
            else:
                lane[4], lane[6] = 2 * run[0] + guard_terms(run[0], guard), run
                lanes.append(lane)
    return out


def _stable(read, run, guard):
    """(read, L, conn) for BM's run (L, conn) on the terms read, or
    InsufficientData when they are too few to validate any LFSR with the
    guard, or NoStableRecurrence when too few to validate one of length L."""
    if len(read) < 2 + (g := guard_terms(0, guard)):
        return InsufficientData(f"{len(read)} terms are too few for guard {g}")
    L, conn = run
    if 2 * L + (g := guard_terms(L, guard)) > len(read):
        return NoStableRecurrence(f"the minimal LFSR of {len(read)} terms has length {L}, "
                                  f"which {g} guard terms do not validate")
    return read, L, conn


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

    Each reading of seq is one lane of _read.  Over Z/m seq is read once,
    and BM's LFSR is not substituted again: BM ran on these residues, so
    its invariant already holds.  Over Q one loop reads seq modulo the
    batches of seeded primes of exact_batches: 2 primes first, so that
    integer coefficients of up to about 100 bits certify at half the
    modulus of 4, then 4 at a time.  Garner's CRT step joins each batch's
    conn to those before it of the same L and window (another restarts
    the join), and exact substitution certifies a lift of the join (see
    _certified).  A prime that divides no denominator of the window or of
    the LFSR over Q cannot lengthen the LFSR (Fatou's lemma over Z_(p));
    one that lengthens it unlike the rest of its batch hits a non-unit,
    which skips the batch, and the first batch too long for the window is
    dropped.  The
    coefficients are ratios of L x L minors of the integer window, at most
    (sqrt(L) * max|window|)^L by Hadamard; a lift needs a modulus above
    twice their square, and the loop stops two batches after the bits
    drawn, batches that raised included, pass that bound.
    """
    _check_guard(guard)
    if isinstance(field, PrimeField):
        _, L, conn = _raised(_read([seq], guard, field)[0])
        return _recurrence(conn, L, field)
    need, bits, past, dropped, join = math.inf, 0, 0, False, None
    for p in exact_batches():
        if past == 2:
            raise CertificateFailure(
                f"no candidate LFSR of {len(window)} terms passed substitution")
        bits += p.bit_length()
        past += bits > need
        if isinstance(run := _read([seq], guard, PrimeField(p))[0], ZeroDivisionError):
            continue
        if isinstance(run, NoStableRecurrence) and not dropped:
            dropped = True
            continue
        read, L, conn = _raised(run)
        n_total = len(read)
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


def _raised(result):
    """A lane's result, raising it when it is an exception."""
    if isinstance(result, Exception):
        raise result
    return result


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


def multi_prime_lanes(lane_factory: Callable[[int], list], primes,
                      guard: int | None = None) -> list:
    """Detection modulo the product M of the primes on lanes: lane_factory(M)
    gives a list of integer windows or streams reduced mod M, read in
    lockstep as they come (see _read), or exceptions, as qsystem.levels
    gives for a singular table.  Returns per lane its RecurrencePoly, lifted
    to the symmetric range, or the exception that stops it; a lane that is
    an exception gets it back.

    Z/M is the product of the prime fields, so each lane's detection is its
    per-prime detections joined by CRT; a division by a non-unit mod M is
    where they would disagree, PrimeDisagreement.  A coefficient that lands
    within 2^16 of M/2 is LiftOverflow.
    """
    primes = sorted(set(int(p) for p in primes))
    if len(primes) < 3:
        raise ValueError("need at least 3 distinct primes")
    if any(p <= 2**50 for p in primes):
        raise ValueError("primes must exceed 2^50")
    _check_guard(guard)
    modulus = math.prod(primes)
    field, out = PrimeField(modulus), []
    for run in _read(lane_factory(modulus), guard, field, reduced=True):
        if isinstance(run, ZeroDivisionError):
            run = PrimeDisagreement(f"detections modulo the primes disagree: {run}")
        out.append(run if isinstance(run, Exception) else _lifted(run, field, primes))
    return out


def _lifted(run, field, primes):
    """The recurrence of a lane that _read read over Z/M, the field, lifted
    to the symmetric range, or LiftOverflow when a coefficient lands within
    2^16 of M/2."""
    _, L, conn = run
    rec, modulus = _recurrence(conn, L, field), field.modulus
    lifted = [_symmetric(c, modulus) for c in rec.coeffs]
    for k, c in enumerate(lifted):
        if modulus // 2 - abs(c) < 2**16:
            return LiftOverflow(f"coefficient C_{k} lifted to {c}, within 2^16 of "
                                "modulus/2; rerun with more primes")
    return RecurrencePoly(order=rec.order, coeffs=tuple(lifted), start=rec.start,
                          primes=tuple(primes))
