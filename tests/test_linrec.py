import itertools
import math
import random
from fractions import Fraction

import pytest

import qrec.linalg as linalg
import qrec.linrec as linrec
from qrec.linalg import P, solve_overdetermined
from qrec.fields import RATIONALS, PrimeField, prime_stream, seeded_primes
from qrec.linrec import (PRIME_SEED, CertificateFailure, InsufficientData, LiftOverflow,
                         NonVanishingTail, NoStableRecurrence, PrimeDisagreement,
                         annihilates, berlekamp_massey, expand_linear_product,
                         find_min_recurrence, numerator, poly_mul, series_divide)

from helpers_oracles import (dense_min_recurrence, eager_berlekamp_massey, lane_levels,
                            multi_prime_lane)

F = Fraction

FIB = [1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987, 1597,
       2584, 4181, 6765, 10946, 17711]


def frac(seq):
    return [F(s) for s in seq]


def test_fibonacci():
    rec = find_min_recurrence(frac(FIB))
    assert rec.order == 2
    assert rec.coeffs == (F(1), F(1), F(-1))  # A(D) = 1 - D - D^2
    assert rec.alternating() == [F(1), F(-1), F(-1)]
    assert rec.start == 2
    assert annihilates(frac(FIB), rec)


def test_geometric():
    seq = frac([3**n for n in range(14)])
    rec = find_min_recurrence(seq)
    assert rec.order == 1 and rec.coeffs == (F(1), F(3))


def test_constant_sequence():
    rec = find_min_recurrence(frac([1] * 14))
    assert rec.order == 1 and rec.alternating() == [F(1), F(-1)]


def test_all_zero_sequence():
    rec = find_min_recurrence(frac([0] * 14))
    assert rec.order == 0 and rec.coeffs == (F(1),)


def test_m_times_2_to_m():
    # brute-checked: (n)2^n = 4(n-1)2^(n-1) - 4(n-2)2^(n-2) for all n
    seq = frac([m * 2**m for m in range(18)])
    for n in range(2, 18):
        assert seq[n] == 4 * seq[n - 1] - 4 * seq[n - 2]
    rec = find_min_recurrence(seq)
    assert rec.order == 2
    assert rec.alternating() == [F(1), F(-4), F(4)]  # (1 - 2D)^2


def test_rational_coefficients():
    # s_n = 2^n + (1/2)^n: A(D) = (1-2D)(1-D/2)
    seq = [F(2) ** n + F(1, 2) ** n for n in range(16)]
    rec = find_min_recurrence(seq)
    assert rec.order == 2
    assert rec.coeffs == (F(1), F(5, 2), F(1))


def test_offset_search_skips_transient():
    seq = frac([99, -7, 5] + [3**n for n in range(20)])
    rec = find_min_recurrence(seq)
    assert rec.order == 1 and rec.coeffs == (F(1), F(3))
    assert rec.start == 4  # three garbage terms, then geometric from index 3
    assert annihilates(seq, rec)


def test_no_stable_recurrence():
    rng = random.Random(3)
    seq = frac([rng.randint(-9, 9) for _ in range(24)])
    with pytest.raises(NoStableRecurrence):
        find_min_recurrence(seq)


def test_insufficient_data_and_guard_validation():
    with pytest.raises(InsufficientData):
        find_min_recurrence(frac([1, 1]), guard=8)
    with pytest.raises(ValueError):
        find_min_recurrence(frac(FIB), guard=2)


def test_guard_doubling_is_stable():
    for seq in (frac(FIB), frac([3**n for n in range(40)]),
                [F(2) ** n + F(1, 2) ** n for n in range(40)]):
        base = find_min_recurrence(seq, guard=8)
        doubled = find_min_recurrence(seq, guard=16)
        assert (base.order, base.coeffs) == (doubled.order, doubled.coeffs)


def test_minimality_matches_dense_oracle():
    for seq in (frac(FIB), frac([m * 2**m for m in range(18)]),
                frac([m**2 + 3 for m in range(20)])):
        rec = find_min_recurrence(seq)
        order, coeffs = dense_min_recurrence(seq, rec.order + 2)
        assert order == rec.order
        assert list(coeffs) == list(rec.coeffs)


def test_berlekamp_massey_mod_p():
    field = PrimeField(509)
    seq = [s % 509 for s in FIB]
    L, conn = berlekamp_massey(seq, field)
    assert L == 2 and conn == [1, 508, 508]


def test_poly_ops():
    assert expand_linear_product([F(2), F(1, 2)]) == [F(1), F(-5, 2), F(1)]
    assert expand_linear_product([F(3)], stride=3) == [F(1), F(0), F(0), F(-3)]
    assert series_divide([F(1)], [F(1), F(-1)], 5) == [F(1)] * 6
    assert poly_mul([F(1), F(1)], [F(1), F(-1)]) == [F(1), F(0), F(-1)]
    with pytest.raises(ValueError):
        series_divide([F(1)], [F(0), F(1)], 3)


def _fraction_linear_product(values, stride):
    """prod (1 - v D^stride), one Fraction factor at a time."""
    poly = [F(1)]
    for v in values:
        factor = [F(1)] + [F(0)] * (stride - 1) + [-F(v)]
        out = [F(0)] * (len(poly) + stride)
        for i, p in enumerate(poly):
            for j, f in enumerate(factor):
                out[i + j] += p * f
        poly = out
    return poly


@pytest.mark.parametrize("stride", [1, 2, 3])
def test_expand_linear_product_matches_the_fraction_loop(stride):
    rng = random.Random(stride)
    cases = [[], [0], [7, -2, 0, 5], [F(1, 3)], [F(-5, 6), F(9, 4), F(0), F(2, 9)],
             [F(3, 2), F(2, 3)],  # reciprocal pairs, as in a weight set
             [rng.choice([rng.randint(-9, 9), F(rng.randint(-30, 30), rng.randint(1, 40))])
              for _ in range(12)]]
    for values in cases:
        got = expand_linear_product(values, stride)
        assert got == _fraction_linear_product(values, stride), values
        assert all(type(c) is Fraction for c in got)


def test_the_helpers_over_q_return_fractions():
    # 1.0 == Fraction(1), so the equality checks above would let a float
    # through; integer inputs must still give Fractions
    rec = linrec.RecurrencePoly(order=1, coeffs=(1, 3), start=1)
    status, sol = solve_overdetermined([[1, 0], [0, 2], [1, 2]], [1, 1, 2])
    assert status == "unique" and sol == [1, F(1, 2)]
    for out in (poly_mul([1, 1], [1, -1]), expand_linear_product([2, 3], stride=2),
                series_divide([1], [2, -1], 5), numerator([3**n for n in range(8)], rec),
                sol):
        assert out and all(type(c) is Fraction for c in out), out


def _rows(seed, m, n):
    rng = random.Random(seed)
    return [[rng.randint(-40, 40) for _ in range(n)] for _ in range(m)]


def _rhs(rows, sol):
    return [sum(a * x for a, x in zip(row, sol)) for row in rows]


def _solve_cases():
    """(id, rows, rhs, expected status, whether the system is eliminated over
    Q: every row is when the lift modulo P fails or the rank there is short)."""
    half = P // 2
    for seed in range(6):
        rows = _rows(seed, 9, 6)
        sol = [random.Random(seed).randint(-half, half) for _ in range(6)]
        yield f"full-rank-{seed}", rows, _rhs(rows, sol), "unique", False
    rows = [[P * (i + 1), *row] for i, row in enumerate(_rows(10, 6, 2))]
    yield "column-of-multiples-of-P", rows, _rhs(rows, [3, -1, 4]), "unique", True
    rows = _rows(11, 5, 2)
    yield "entry-above-half-P", rows, _rhs(rows, [half + 1, 7]), "unique", True
    yield "inconsistent", _rows(12, 6, 3), [1, 2, 3, 4, 5, 6], "inconsistent", True
    rows = [[a, b, a + b] for a, b in _rows(13, 6, 2)]
    yield "underdetermined", rows, _rhs(rows, [1, 2, 0]), "underdetermined", True
    rows = [[3 * a, b] for a, b in _rows(14, 5, 2)]
    rhs = [int(b) for b in _rhs(rows, [F(1, 3), -5])]
    yield "non-integer", rows, rhs, "unique", True
    # the first two rows repeat, so the rows that pivot are not the first n
    rows = [[3 * a, b] for a, b in _rows(15, 4, 2)]
    rows.insert(1, rows[0])
    rhs = [int(b) for b in _rhs(rows, [F(-2, 3), 9])]
    yield "repeated-row-non-integer", rows, rhs, "unique", True
    yield "repeated-row-inconsistent", rows, [*rhs[:-1], rhs[-1] + 1], "inconsistent", True


@pytest.mark.parametrize("rows, rhs, status, over_q",
                         [pytest.param(*case[1:], id=case[0]) for case in _solve_cases()])
def test_the_modular_solve_agrees_with_the_solve_over_q(rows, rhs, status, over_q,
                                                         monkeypatch):
    fields, real = [], linalg._eliminate

    def eliminate(aug, n, field):
        fields.append((type(field).__name__, len(aug)))
        return real(aug, n, field)

    monkeypatch.setattr(linalg, "_eliminate", eliminate)
    result = solve_overdetermined(rows, rhs)
    modular = not over_q
    assert fields == [("PrimeField", len(rows))] + ([] if modular else [("Rationals", len(rows))])
    # Fraction entries force the elimination over Q
    assert result == solve_overdetermined([[F(x) for x in row] for row in rows],
                                          [F(b) for b in rhs])
    assert result[0] == status
    if modular:
        assert all(type(x) is Fraction and x.denominator == 1 for x in result[1])
        assert _rhs(rows, [int(x) for x in result[1]]) == rhs
    if status == "unique":
        assert all(type(x) is Fraction for x in result[1])
        assert _rhs(rows, result[1]) == rhs


def test_numerator_geometric_and_roundtrip():
    seq = frac([3**n for n in range(14)])
    rec = find_min_recurrence(seq)
    num = numerator(seq, rec)
    assert num == [F(1)]
    # round trip for a sequence with a real numerator: (1+D)/(1-3D)
    seq2 = series_divide([F(1), F(1)], [F(1), F(-3)], 20)
    rec2 = find_min_recurrence(seq2)
    num2 = numerator(seq2, rec2)
    assert num2 == [F(1), F(1)]
    assert series_divide(num2, rec2.alternating(), 20) == seq2


def test_numerator_rejects_wrong_recurrence():
    from qrec.linrec import RecurrencePoly
    seq = frac(FIB)
    wrong = RecurrencePoly(order=1, coeffs=(F(1), F(2)), start=1)
    with pytest.raises(NonVanishingTail):
        numerator(seq, wrong)


def test_multi_prime_fibonacci():
    primes = seeded_primes(3, 0)
    rec = multi_prime_lane(lambda p: [x % p for x in FIB], primes)
    assert rec.order == 2
    assert rec.coeffs == (1, 1, -1)
    assert rec.confidence == "modular"
    assert rec.primes == tuple(sorted(primes))


def test_multi_prime_m2m():
    seq = [m * 2**m for m in range(20)]
    rec = multi_prime_lane(lambda p: [x % p for x in seq], seeded_primes(3, 5))
    assert rec.order == 2 and rec.alternating() == [1, -4, 4]


def test_multi_prime_validation():
    with pytest.raises(ValueError):
        multi_prime_lane(lambda p: FIB, [3, 5])
    with pytest.raises(ValueError):
        multi_prime_lane(lambda p: FIB, [3, 5, 7])


def test_berlekamp_massey_mod_a_product_is_bm_mod_each_prime():
    primes = seeded_primes(3, 4)
    field = PrimeField(math.prod(primes))
    rng = random.Random(17)
    for trial in range(60):
        order = rng.randint(0, 6)
        taps = [rng.randint(-9, 9) for _ in range(order)]
        if order:
            taps[-1] = rng.choice([-3, -2, -1, 1, 2, 3])
        seq = [rng.randint(-30, 30) for _ in range(order)]
        while len(seq) < 2 * order + rng.randint(4, 12):
            seq.append(sum(c * seq[-1 - i] for i, c in enumerate(taps)))
        L, conn = berlekamp_massey([s % field.modulus for s in seq], field)
        want_order, want = dense_min_recurrence(seq, order)
        assert L == want_order, trial
        assert conn == [field.of(c if k % 2 == 0 else -c) for k, c in enumerate(want)], trial
        for p in primes:
            assert berlekamp_massey([s % p for s in seq], PrimeField(p)) == \
                (L, [c % p for c in conn]), (trial, p)


def test_berlekamp_massey_raises_where_the_primes_part_ways():
    p1, p2, p3 = seeded_primes(3, 4)
    # s_n = 3 p2 2^n: BM modulo p2 sees zeros (L = 0), modulo p1 and p3 a
    # geometric sequence (L = 1), so s_0 is a non-unit mod p1*p2*p3
    seq = [3 * p2 * 2**n for n in range(10)]
    assert berlekamp_massey([s % p2 for s in seq], PrimeField(p2)) == (0, [1])
    assert berlekamp_massey([s % p1 for s in seq], PrimeField(p1)) == (1, [1, p1 - 2])
    with pytest.raises(ZeroDivisionError):
        berlekamp_massey(seq, PrimeField(p1 * p2 * p3))


def _bm_sequences(rng, field):
    """Random sequences over the field: LFSRs of order 0..12 after a
    transient, and sequences with no short LFSR."""
    draw = ((lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 5))) if field is RATIONALS
            else (lambda: rng.randrange(field.modulus)))
    for _ in range(15):
        order, n = rng.randint(0, 12), rng.randint(1, 60)
        taps = [draw() for _ in range(order)]
        seq = [draw() for _ in range(order + rng.randint(0, 4))]
        while len(seq) < n:
            seq.append(field.reduce(sum(c * seq[-1 - i] for i, c in enumerate(taps))))
        yield seq[:n]
        yield [draw() for _ in range(n)]


def _bm_core(seq, field, state):
    """The one lane of the BM core linrec._berlekamp_massey fed seq after
    the terms in state, raising its ZeroDivisionError."""
    return linrec._raised(linrec._berlekamp_massey([seq], field, [state])[0])


@pytest.mark.parametrize("count", [None, 3, 8])
def test_lazy_berlekamp_massey_equals_the_eager_one(count):
    field = RATIONALS if count is None else PrimeField(math.prod(seeded_primes(count, 5)))
    rng = random.Random(f"lazy-bm-{count}")
    for seq in _bm_sequences(rng, field):
        want = eager_berlekamp_massey(seq, field)
        assert berlekamp_massey(seq, field) == want
        # fed in chunks, each call returns the eager LFSR of the terms so far
        state, fed = [], 0
        while fed < len(seq):
            cut = min(len(seq), fed + rng.randint(1, 9))
            assert _bm_core(seq[fed:cut], field, state) == \
                eager_berlekamp_massey(seq[:cut], field), (seq, cut)
            fed = cut


@pytest.mark.parametrize("count", [None, 3, 8])
def test_each_lane_of_berlekamp_massey_is_the_eager_one(count):
    field = RATIONALS if count is None else PrimeField(math.prod(seeded_primes(count, 5)))
    rng = random.Random(f"bm-lanes-{count}")
    seqs = list(_bm_sequences(rng, field))
    assert linrec._berlekamp_massey(seqs, field, [[] for _ in seqs]) == [
        eager_berlekamp_massey(seq, field) for seq in seqs]
    # fed in chunks, some of them empty, each lane through its own state
    states, fed = [[] for _ in seqs], [0] * len(seqs)
    while any(n < len(seq) for n, seq in zip(fed, seqs)):
        cuts = [min(len(seq), n + rng.randint(0, 9)) for n, seq in zip(fed, seqs)]
        runs = linrec._berlekamp_massey([seq[n:cut] for seq, n, cut in zip(seqs, fed, cuts)],
                                        field, states)
        assert runs == [eager_berlekamp_massey(seq[:cut], field)
                        for seq, cut in zip(seqs, cuts)]
        fed = cuts


def _parting_sequence(rng, primes):
    """One LFSR modulo every prime up to a term t, then one term off it
    modulo one prime only: the discrepancy there vanishes modulo the
    others, so BM modulo their product meets a non-unit."""
    modulus = math.prod(primes)
    order = rng.randint(1, 6)
    taps = [rng.randrange(modulus) for _ in range(order)]
    seq = [rng.randrange(modulus) for _ in range(order)]
    while len(seq) < 40:
        seq.append(sum(c * seq[-1 - i] for i, c in enumerate(taps)) % modulus)
    t, p = rng.randint(order, 30), rng.choice(primes)
    seq[t] = (seq[t] + modulus // p * rng.randint(1, p - 1)) % modulus
    return seq


def test_a_lane_of_berlekamp_massey_that_meets_a_non_unit_stops_alone():
    primes = seeded_primes(3, 6)
    field, rng = PrimeField(math.prod(primes)), random.Random(16)
    seqs = [_parting_sequence(rng, primes) if j % 3 == 1 else
            [rng.randrange(field.modulus) for _ in range(40)] for j in range(12)]
    want = [_raising_term(eager_berlekamp_massey, seq, field) for seq in seqs]
    assert [at is None for at in want] == [j % 3 != 1 for j in range(12)]
    runs = linrec._berlekamp_massey(seqs, field, [[] for _ in seqs])
    for seq, at, run in zip(seqs, want, runs):
        if at is None:
            assert run == eager_berlekamp_massey(seq, field)
        else:
            assert isinstance(run, ZeroDivisionError)
    # fed one term at a time, each lane stops at the eager BM's term
    states, stopped = [[] for _ in seqs], [None] * len(seqs)
    for n in range(40):
        running = [j for j, at in enumerate(stopped) if at is None]
        runs = linrec._berlekamp_massey([[seqs[j][n]] for j in running], field,
                                        [states[j] for j in running])
        for j, run in zip(running, runs):
            if isinstance(run, ZeroDivisionError):
                stopped[j] = n
    assert stopped == want


def _raising_term(bm, seq, field):
    """The index of the term at which bm, fed one term at a time, raises
    ZeroDivisionError, or None."""
    state = []
    for n, s in enumerate(seq):
        try:
            bm([s], field, state)
        except ZeroDivisionError:
            return n
    return None


def test_lazy_berlekamp_massey_raises_at_the_eager_ones_non_unit():
    primes = seeded_primes(3, 6)
    field, rng, raised = PrimeField(math.prod(primes)), random.Random(6), []
    for _ in range(40):
        seq = _parting_sequence(rng, primes)
        at = _raising_term(_bm_core, seq, field)
        assert at == _raising_term(eager_berlekamp_massey, seq, field)
        raised.append(at)
    assert None not in raised


def crt(residues, moduli):
    """The integer in [0, prod moduli) with the given residues."""
    modulus = math.prod(moduli)
    return sum(r * (modulus // p) * pow(modulus // p, -1, p)
               for r, p in zip(residues, moduli)) % modulus


def test_prime_disagreement():
    primes = seeded_primes(3, 1)
    # Fibonacci modulo two of the primes, 3^n modulo the third
    seq = [crt([FIB[n], FIB[n], 3**n], primes) for n in range(20)]

    with pytest.raises(PrimeDisagreement):
        multi_prime_lane(lambda m: [x % m for x in seq], primes)


def test_lift_overflow():
    primes = seeded_primes(3, 2)
    modulus = primes[0] * primes[1] * primes[2]
    ratio = modulus // 2 - 7  # symmetric lift lands within 2^16 of modulus/2
    seq = [pow(ratio, n, modulus) for n in range(12)]

    def factory(p):
        return [x % p for x in seq]

    with pytest.raises(LiftOverflow):
        multi_prime_lane(factory, primes)


def test_e6_sequence_modular_equals_rational():
    from qrec.cartan import LieType
    from qrec.qsystem import RawQ, generate
    lt = LieType.parse("E6")
    spec = RawQ((17, 22, 38, 40, 14, 31))
    table = generate(lt, spec, target=(1, 66))
    exact = find_min_recurrence(table.node(1))

    def factory(p):
        return generate(lt, spec, (1, 66), field=PrimeField(p)).node(1)

    modular = multi_prime_lane(factory, seeded_primes(3, 7))
    assert modular.order == exact.order == 27
    assert list(modular.coeffs) == [int(c) for c in exact.coeffs]


@pytest.mark.parametrize("name", ["A2", "B3", "C3", "G2"])
def test_modular_detection_equals_exact(name):
    from qrec.cartan import LieType, predicted_order
    from qrec.qsystem import RawQ, SingularSpecialization, generate
    lt = LieType.parse(name)
    order = predicted_order(lt, 1)
    depth = 2 * order + max(8, order // 4) + 4
    for seed in range(1, 11):
        rng = random.Random(seed)
        while True:
            q = RawQ(tuple(rng.randint(-50, 50) for _ in range(lt.rank)))
            try:
                seq = generate(lt, q, (1, depth)).node(1)
                break
            except SingularSpecialization:
                continue
        exact = find_min_recurrence(seq)

        def factory(m):
            return generate(lt, q, (1, depth), field=PrimeField(m)).node(1)

        modular = multi_prime_lane(factory, seeded_primes(3, seed))
        assert (modular.order, modular.start) == (exact.order, exact.start), seed
        assert list(modular.coeffs) == [int(c) for c in exact.coeffs], seed
        assert dense_min_recurrence(seq, exact.order + 2) == (
            exact.order, list(exact.coeffs)), seed


def test_minimality_hankel_system_inconsistent():
    # the (l-1)-order linear system on the suffix of a detected order-l
    # sequence must be unsolvable; checked with the independent dense solver
    from qrec.cartan import LieType
    from qrec.qsystem import RawQ, generate
    from helpers_oracles import solve_exact
    lt = LieType.parse("A2")
    table = generate(lt, RawQ((4, 7)), target=(1, 24))
    seq = table.node(1)
    rec = find_min_recurrence(seq)
    assert rec.order == 3
    order = rec.order - 1
    rows = [[seq[n - i] for i in range(1, order + 1)]
            for n in range(rec.start, len(seq))]
    rhs = [seq[n] for n in range(rec.start, len(seq))]
    assert solve_exact(rows, rhs) is None


def test_type_a_dense_oracle_agrees_with_bm():
    from qrec.cartan import LieType
    from qrec.qsystem import RawQ, generate
    for name, q in [("A1", (3,)), ("A1", (5,)), ("A2", (2, 5)), ("A2", (4, 7))]:
        lt = LieType.parse(name)
        table = generate(lt, RawQ(q), target=(1, 20))
        seq = table.node(1)
        rec = find_min_recurrence(seq)
        order, coeffs = dense_min_recurrence(seq, rec.order + 2)
        assert order == rec.order, (name, q)
        assert list(coeffs) == list(rec.coeffs), (name, q)


def test_seeded_primes_properties():
    primes = seeded_primes(4, 9)
    assert primes == seeded_primes(4, 9)  # reproducible
    assert len(set(primes)) == 4
    assert all(p > 2**50 for p in primes)
    stream = prime_stream(9)
    assert [next(stream) for _ in range(6)] == seeded_primes(6, 9)


def rational_bm_detection(seq, guard=None):
    """What BM over Q detects, as (order, coeffs), or the exception class
    raised at the same input."""
    if len(seq) < 2 + (guard if guard is not None else 8):
        return InsufficientData
    L, conn = berlekamp_massey(seq, RATIONALS)
    if 2 * L + (guard if guard is not None else max(8, L // 4)) > len(seq):
        return NoStableRecurrence
    while len(conn) > 1 and conn[-1] == 0:
        conn.pop()
    return len(conn) - 1, tuple(c if k % 2 == 0 else -c for k, c in enumerate(conn))


def detection(seq, guard=None):
    try:
        rec = find_min_recurrence(seq, guard=guard)
    except (InsufficientData, NoStableRecurrence) as exc:
        return type(exc)
    assert annihilates(seq, rec)
    return rec.order, rec.coeffs


@pytest.mark.parametrize("mode", ["raw-random", "character-point"])
@pytest.mark.parametrize("name", ["A2", "B3", "C3", "G2"])
def test_exact_detection_equals_rational_bm(name, mode):
    from qrec.cartan import LieType, predicted_order
    from qrec.qsystem import CharacterPoint, RawQ, SingularSpecialization, generate
    lt = LieType.parse(name)
    order = predicted_order(lt, 1)
    depth = 2 * order + max(8, order // 4) + 4
    for seed in range(1, 11):
        rng = random.Random(seed)
        while True:
            if mode == "raw-random":
                spec = RawQ(tuple(rng.randint(-50, 50) for _ in range(lt.rank)))
            else:
                spec = CharacterPoint(tuple(F(rng.choice([-3, -2, -1, 1, 2, 3, 5, 7]),
                                              rng.randint(1, 9)) for _ in range(lt.rank)))
            try:
                seq = generate(lt, spec, (1, depth)).node(1)
                break
            except SingularSpecialization:
                continue
        got = detection(seq)
        assert got == rational_bm_detection(seq), seed
        dense_order, dense_coeffs = dense_min_recurrence(seq, order + 2)
        assert got == (dense_order, tuple(dense_coeffs)), seed


BATCHES = list(itertools.islice(linrec.exact_batches(), 15))


def batch(modulus):
    """k when the modulus is the product of the kth batch of primes that
    exact detection draws, else 0."""
    return BATCHES.index(modulus) + 1 if modulus in BATCHES else 0


def batches_joined(modulus):
    """The numbers of the batches whose product the modulus is."""
    return [k for k, m in enumerate(BATCHES, 1) if modulus % m == 0]


def record_lanes(monkeypatch, record):
    """Patches the lane core linrec._berlekamp_massey so that each of its
    calls over Z/M calls record(modulus, terms fed, "ran" or "raised") once
    per lane, in lane order."""
    original = linrec._berlekamp_massey

    def recording(seqs, field, states):
        runs = original(seqs, field, states)
        if isinstance(field, PrimeField):
            for seq, run in zip(seqs, runs):
                record(field.modulus, len(seq),
                       "raised" if isinstance(run, ZeroDivisionError) else "ran")
        return runs

    monkeypatch.setattr(linrec, "_berlekamp_massey", recording)


@pytest.fixture
def bm_runs(monkeypatch):
    """(batch number, whether BM ran or raised) of each BM lane over Z/M."""
    runs = []
    record_lanes(monkeypatch, lambda modulus, fed, ran: runs.append((batch(modulus), ran)))
    return runs


def test_a_prime_in_a_term_denominator_skips_its_set(bm_runs):
    p = seeded_primes(1, PRIME_SEED)[0]
    seq = [F(3**n, p) + 2**n for n in range(24)]
    assert detection(seq) == rational_bm_detection(seq) == (2, (1, 5, 6))
    assert bm_runs == [(2, "ran")]  # the batch holding p was never run


def test_a_non_unit_discrepancy_moves_to_fresh_primes(bm_runs):
    p = seeded_primes(1, PRIME_SEED)[0]
    seq = [(p - 1) * 2**n + 3**n for n in range(24)]  # s_0 = p: BM inverts it
    assert detection(seq) == rational_bm_detection(seq) == (2, (1, 5, 6))
    assert bm_runs == [(1, "raised"), (2, "ran")]


@pytest.fixture
def certified_moduli(monkeypatch):
    """The modulus of each lift that exact detection tries to certify."""
    moduli = []
    certified = linrec._certified

    def recording(conn, modulus, window):
        moduli.append(modulus)
        return certified(conn, modulus, window)

    monkeypatch.setattr(linrec, "_certified", recording)
    return moduli


def test_coefficients_too_large_for_one_batch_join_a_second(bm_runs, certified_moduli):
    ratio = F(3**80, 7)  # 127 bits over 3: past sqrt(M/2) for 2 primes, and for 4
    seq = [ratio**n for n in range(12)]
    assert detection(seq) == rational_bm_detection(seq) == (1, (1, ratio))
    assert bm_runs == [(1, "ran"), (2, "ran")]
    # the second batch's residues are joined to the first's, not run alone
    assert [batches_joined(m) for m in certified_moduli] == [[1], [1, 2]]


def test_a_lift_stops_at_the_first_coefficient_with_no_reconstruction(monkeypatch):
    from qrec.fields import rational_reconstruction
    modulus = math.prod(seeded_primes(4, PRIME_SEED))
    rng = random.Random(5)
    bad = next(a for a in iter(lambda: rng.randrange(modulus), None)
               if rational_reconstruction(a, modulus) is None)
    calls = []

    def counting(a, m):
        calls.append(a)
        return rational_reconstruction(a, m)

    monkeypatch.setattr(linrec, "rational_reconstruction", counting)
    # the symmetric lift of the conn does not annihilate the window either
    assert linrec._certified([1, bad, 5, 7, 9], modulus, FIB) is None
    assert calls == [1, bad]


def test_substitution_rejects_a_lift_that_fits_the_wrong_modulus(bm_runs):
    # the ratio is 5 modulo the first batch's two primes, so it lifts to 5
    ratio = math.prod(seeded_primes(2, PRIME_SEED)) + 5
    seq = [F(ratio) ** n for n in range(12)]
    assert detection(seq) == rational_bm_detection(seq) == (1, (1, ratio))
    assert bm_runs == [(1, "ran"), (2, "ran")]


def test_prime_sets_are_consecutive_slices_of_one_stream(monkeypatch, certified_moduli):
    moduli = []
    record_lanes(monkeypatch, lambda modulus, fed, ran: moduli.append(modulus))
    # a rational ratio of 203 bits over 3 lifts by rational reconstruction
    # only, past 406 bits: it needs 3 batches, of 2, 4 and 4 primes
    ratio = F(math.prod(seeded_primes(4, PRIME_SEED)) + 5, 7)
    find_min_recurrence([F(ratio) ** n for n in range(12)])
    primes = seeded_primes(10, PRIME_SEED)
    assert moduli == [math.prod(primes[:2]), math.prod(primes[2:6]),
                      math.prod(primes[6:10])]
    # each lift is modulo the product of every batch so far
    assert certified_moduli == [math.prod(primes[:2]), math.prod(primes[:6]),
                                math.prod(primes[:10])]


def test_failures_are_raised_at_the_same_inputs_as_rational_bm():
    rng = random.Random(11)
    for trial in range(300):
        order = rng.randint(0, 6)
        taps = [F(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(order)]
        seq = [F(rng.randint(-20, 20)) for _ in range(order + rng.randint(0, 3))]
        length = rng.randint(6, 30)
        while len(seq) < length:
            seq.append(sum(c * seq[-1 - i] for i, c in enumerate(taps)) if order else F(0))
        if rng.random() < 0.2:
            seq[rng.randrange(len(seq))] += 1  # a glitch lengthens the LFSR
        guard = rng.choice([None, 4, 8, 12])
        assert detection(seq, guard) == rational_bm_detection(seq, guard), trial


def test_one_prime_in_a_coefficient_denominator_is_a_non_unit(bm_runs):
    # s_n = p^(11-n) 2^n is integral on 12 terms, with ratio 2/p over Q;
    # modulo p it is 0, ..., 0, 2^11, whose LFSR has length 12, so the runs
    # modulo the primes of the set part ways at s_0, a non-unit
    p = seeded_primes(1, PRIME_SEED)[0]
    seq = [F(p ** (11 - n) * 2**n) for n in range(12)]
    assert detection(seq) == rational_bm_detection(seq) == (1, (1, F(2, p)))
    assert bm_runs == [(1, "raised"), (2, "ran")]


def test_every_prime_in_a_coefficient_denominator_is_not_detected(bm_runs, certified_moduli):
    # modulo each prime of the first batch the LFSR has length 12, too long
    # for the window: that batch is dropped, and the next two, joined,
    # lift 2/m by rational reconstruction, which for m of 102 bits needs a
    # modulus above 2m^2, past one batch of 4 primes
    m = math.prod(seeded_primes(2, PRIME_SEED))
    seq = [F(m ** (11 - n) * 2**n) for n in range(12)]
    assert rational_bm_detection(seq) == (1, (1, F(2, m)))
    assert detection(seq) == rational_bm_detection(seq)
    assert bm_runs == [(1, "ran"), (2, "ran"), (3, "ran")]
    assert [batches_joined(m) for m in certified_moduli] == [[2], [2, 3]]


def test_a_second_batch_too_long_for_the_window_raises(bm_runs):
    seq = [F(2) ** n + F(n) ** 5 for n in range(15)]  # order 7: 2L + 8 > 15
    with pytest.raises(NoStableRecurrence):
        find_min_recurrence(seq)
    assert bm_runs == [(1, "ran"), (2, "ran")]


def test_a_stable_batch_of_another_length_restarts_the_join(monkeypatch, certified_moduli):
    real = linrec._read
    ratio = F(3**80, 7)  # needs two batches joined, as above
    seq = [ratio**n for n in range(12)]
    calls = []

    def first_reads_fibonacci(seqs, guard, field):
        # the first batch reads the window but finds Fibonacci's LFSR, of
        # length 2, on it: stable, of another L, and not certified
        [(read, *run)] = real(seqs, guard, field)
        calls.append(batch(field.modulus))
        if len(calls) == 1:
            [(_, *run)] = real([frac(FIB[:12])], guard, field)
        return [(read, *run)]

    monkeypatch.setattr(linrec, "_read", first_reads_fibonacci)
    rec = find_min_recurrence(seq)
    assert (rec.order, rec.coeffs) == (1, (1, ratio)) and annihilates(seq, rec)
    assert calls == [1, 2, 3]
    # batch 2 starts the join again; batch 3 joins it, not batch 1
    assert [batches_joined(m) for m in certified_moduli] == [[1], [2], [2, 3]]


def lfsr_stream(taps, fill, pulled):
    """A function n -> the first n terms of the LFSR with these taps from
    this fill; pulled holds the terms asked for so far."""
    seq = list(fill)

    def terms(n):
        while len(seq) < n:
            seq.append(sum(c * seq[-1 - i] for i, c in enumerate(taps)))
        pulled[len(pulled):] = seq[len(pulled):n]
        return seq[:n]
    return terms


@pytest.fixture
def stream_runs(monkeypatch):
    """[batch number, terms fed, ran or raised] of each BM lane over Z/M."""
    runs = []
    record_lanes(monkeypatch, lambda modulus, fed, ran: runs.append([batch(modulus), fed, ran]))
    return runs


@pytest.mark.parametrize("modular", [False, True])
def test_a_stream_is_read_online_and_fed_to_bm_once(modular, stream_runs):
    rng = random.Random(5)
    modulus = math.prod(seeded_primes(3, 9))
    field = PrimeField(modulus) if modular else RATIONALS
    taps = [rng.randint(-9, 9) if modular else F(rng.randint(-9, 9), rng.randint(1, 4))
            for _ in range(19)] + [1]
    fill = [rng.randint(-20, 20) for _ in taps]
    pulled = []
    terms = lfsr_stream(taps, fill, pulled)
    stream = (lambda n: [x % modulus for x in terms(n)]) if modular else terms
    rec = find_min_recurrence(stream, field=field)
    # 33 terms, then chunks up to 2L + g for L = 20 and g = 8
    assert rec.order == 20 and len(pulled) == 48
    streamed = [(primes, terms) for primes, terms, _ in stream_runs]
    assert streamed[0][1] == 33
    assert sum(terms for _, terms in streamed) == len(pulled)
    assert len({primes for primes, _ in streamed}) == 1
    window = [x % modulus for x in pulled] if modular else pulled
    assert rec == find_min_recurrence(window, field=field)


@pytest.mark.parametrize("modular", [False, True])
def test_a_stream_that_grows_one_list_in_place_detects_what_its_window_does(modular,
                                                                            stream_runs):
    rng = random.Random(5)
    primes = seeded_primes(3, 9)
    modulus = math.prod(primes)
    field = PrimeField(modulus) if modular else RATIONALS
    taps = [rng.randint(-9, 9) for _ in range(29)] + [1]
    fill = [rng.randint(-20, 20) for _ in taps]
    terms = lfsr_stream(taps, fill, [])
    buffer = []

    def grown(n):  # returns the one list, each call extended to n terms
        buffer[len(buffer):] = [x % modulus if modular else F(x) for x in terms(n)[len(buffer):]]
        return buffer

    rec = find_min_recurrence(grown, field=field)
    # 33 terms, then chunks up to 2L + g for L = 30 and g = 8, each fed once
    assert rec.order == 30 and len(buffer) == 68
    if modular:
        fed = [fed for _, fed, _ in stream_runs]
        assert fed[0] == 33 and sum(fed) == 68
    assert rec == find_min_recurrence(list(buffer), field=field)
    if modular:
        buffer.clear()
        assert multi_prime_lane(lambda m: grown, primes) == multi_prime_lane(
            lambda m: list(buffer), primes)
        assert len(buffer) == 68


def test_a_stream_skips_prime_sets_like_a_window(stream_runs):
    p = seeded_primes(1, PRIME_SEED)[0]
    streamed = []
    for seq in ([(p - 1) * 2**n + 3**n for n in range(24)],  # a non-unit discrepancy
                [F(3**n, p) + 2**n for n in range(24)]):  # a non-unit denominator
        stream_runs.clear()  # the window's runs are recorded too: drop them
        rec = find_min_recurrence(lambda n: seq[:n])
        streamed += stream_runs
        assert (rec.order, rec.coeffs) == detection(seq) == (2, (1, 5, 6))
    # the first stream restarts on its 24 terms modulo batch 2 after the
    # batch 1 run raised; the second never runs modulo the batch holding p
    assert streamed == [[1, 24, "raised"], [2, 24, "ran"], [2, 24, "ran"]]


def test_a_short_stream_fails_like_its_window():
    for seq in (FIB[:9], [F(2) ** n + F(n) ** 5 for n in range(15)]):
        assert detection(lambda n: seq[:n]) == detection(seq) in (InsufficientData,
                                                                  NoStableRecurrence)


def test_berlekamp_massey_mod_a_product_annihilates_its_window():
    # the invariant find_min_recurrence relies on over Z/M instead of
    # substituting the LFSR into the window again
    field = PrimeField(math.prod(seeded_primes(3, 4)))
    rng = random.Random(23)
    for trial in range(60):
        order = rng.randint(1, 12)
        taps = [rng.randint(-9, 9) for _ in range(order - 1)] + [rng.choice([-2, -1, 1, 2])]
        seq = [rng.randint(-30, 30) for _ in range(order)]
        length = rng.randint(order, 3 * order + 12)
        while len(seq) < length:
            seq.append(sum(c * seq[-1 - i] for i, c in enumerate(taps)))
        window = [s % field.modulus for s in seq]
        L, conn = berlekamp_massey(window, field)
        assert all(field.reduce(sum(c * window[n - i] for i, c in enumerate(conn))) == 0
                   for n in range(L, len(window))), trial


def test_only_exact_detection_substitutes_its_candidate(monkeypatch):
    from qrec.cartan import LieType
    substituted = []
    holds = linrec._holds

    def counted(seq, taps, n, field):
        substituted.append(n)
        return holds(seq, taps, n, field)

    monkeypatch.setattr(linrec, "_holds", counted)
    # F4/2 at the draw of `detect --type F4 --node 2 --modular 8 --seed 1`,
    # read as a stream of 326 terms: BM's invariant covers terms 145..325
    field = PrimeField(math.prod(seeded_primes(8, 1)))
    q = [F(v) for v in (-27, -13, 18, 17)]
    rec = find_min_recurrence(lane_levels(LieType.parse("F4"), q, 2, field), field=field)
    assert (rec.order, rec.start) == (145, 145) and substituted == []
    # a transient's start is BM's L in both arithmetics, with no substitution
    seq = frac([99, -7, 5] + [3**n for n in range(20)])
    modular = find_min_recurrence([int(s) % field.modulus for s in seq], field=field)
    assert (modular.order, modular.start) == (1, 4) and substituted == []
    exact = find_min_recurrence(seq)
    assert (exact.order, exact.start) == (1, 4)
    assert substituted == [*range(4, len(seq))]  # the certificate over Q


def test_a_later_modulus_rereads_the_stream_without_generating_a_level(monkeypatch):
    from qrec import qsystem
    from qrec.cartan import LieType
    sizes = []  # levels in the table after each request
    table = qsystem._table

    def recorded(lt, qs, field):
        extend = table(lt, qs, field)

        def recording(depths):
            [out] = extend(depths)  # the one lane of levels
            sizes.append(sum(map(len, out)))
            return [out]
        return recording

    monkeypatch.setattr(qsystem, "_table", recorded)
    # F4/2 at the draw of `detect --type F4 --node 2 --seed 1`: its 145
    # coefficients need the second batch of primes
    terms = lane_levels(LieType.parse("F4"), [F(v) for v in (-27, -13, 18, 17)], 2)
    requests = []
    rec = find_min_recurrence(lambda n: requests.append(n) or terms(n))
    second = requests.index(33, 1)  # the second modulus reads from the start again
    assert rec.order == 145 and requests[second - 1] == requests[-1] == 326
    assert max(requests[second:]) <= requests[second - 1]
    assert sizes[second:] == [sizes[second - 1]] * (len(sizes) - second)


def test_an_integral_window_lifts_symmetrically_first(bm_runs):
    import contextlib
    import io
    import qrec.cli as cli
    # B5/4 at seed 1 has 231-bit coefficients: two batches joined, of 2
    # and 4 primes, lift them into (-M/2, M/2], where Wang's bound would
    # need a third
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main("detect --type B5 --node 4 --seed 1".split()) == 0
    assert bm_runs == [(1, "ran"), (2, "ran")]


def _lfsr_window(rng, rational):
    """A window of an LFSR of order 1..6 after 0..4 transient terms, long
    enough to validate it: integers, or fractions with small denominators."""
    draw = ((lambda: F(rng.randint(-9, 9), rng.randint(1, 4))) if rational
            else (lambda: F(rng.randint(-9, 9))))
    order, transient = rng.randint(1, 6), rng.randint(0, 4)
    taps = [draw() for _ in range(order - 1)] + [draw() or F(1)]
    tail = [draw() for _ in range(order)]
    length = 2 * (order + transient) + 8 + rng.randint(0, 6) - transient
    while len(tail) < length:
        tail.append(sum(c * tail[-1 - i] for i, c in enumerate(taps)))
    return [draw() for _ in range(transient)] + tail


@pytest.mark.parametrize("rational", [False, True], ids=["integral", "rational"])
@pytest.mark.parametrize("modular", [False, True], ids=["exact", "modular"])
def test_the_start_is_bms_length_and_the_recurrence_fails_just_before_it(rational, modular):
    rng = random.Random(f"start-{rational}-{modular}")
    later = 0
    for trial in range(260):
        window = _lfsr_window(rng, rational)
        if modular:
            field = PrimeField(math.prod(seeded_primes(3, trial)))
            window = [field.of(s) for s in window]
        else:
            field = RATIONALS
        rec = find_min_recurrence(window, field=field)
        L, _ = berlekamp_massey(window, field)
        assert rec.start == L, trial
        if rec.start > rec.order:
            later += 1
            n = rec.start - 1
            taps = [field.of(c) for c in rec.alternating()]
            assert field.reduce(sum(c * window[n - k] for k, c in enumerate(taps))) != 0
    assert later > 150  # most transients show as later starts


def test_no_certified_lift_fails_two_moduli_past_the_hadamard_bound(monkeypatch, capsys):
    import qrec.cli as cli
    moduli = []

    def uncertified(conn, modulus, window):
        moduli.append(modulus)
        return None

    monkeypatch.setattr(linrec, "_certified", uncertified)
    # 20 Fibonacci terms need 20 * (13 + 5) + 1 = 361 bits: the batches
    # drawn pass them at the third, 102 + 203 + 202 bits, and the fourth is
    # the last
    with pytest.raises(CertificateFailure, match="no candidate LFSR of 20 terms"):
        find_min_recurrence(frac(FIB[:20]))
    assert [batches_joined(m) for m in moduli] == [[1], [1, 2], [1, 2, 3], [1, 2, 3, 4]]
    assert [m.bit_length() for m in moduli] == [102, 304, 506, 707]
    assert cli.main(["detect", "--type", "A2", "--q", "3,5"]) == 2
    assert "detection failed: no candidate LFSR" in capsys.readouterr().err


@pytest.mark.parametrize("argv, batches", [
    ("detect --type B4 --node 4 --seed 1", [1]),  # an exact-detect job
    ("detect --type F4 --node 2 --seed 1", [1, 2]),  # 277-bit coefficients
    ("verify --type C5 --node 5 --mode character-point --seed 12", [1, 2, 3]),
])
def test_exact_detection_runs_bm_modulo_each_batch_once(argv, batches, bm_runs):
    import contextlib
    import io
    import qrec.cli as cli
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv.split()) == 0
    # a stream feeds BM its terms in chunks, modulo one batch at a time
    assert [k for k, _ in itertools.groupby(k for k, _ in bm_runs)] == batches
    assert {ran for _, ran in bm_runs} == {"ran"}


# argv, the number of primes in each batch that BM runs modulo, and the
# report's digest, recorded with batches of 4 primes only: a schedule of
# batches changes the work, not the result
BATCH_SCHEDULES = [
    # the first pinned seed of each job of the benchmark's exact-detect
    # workload, whose coefficients have 21 to 78 bits at every pinned seed
    ("detect --type E6 --node 1 --seed 3", [2],
     "50ab4580638747052be42688bf4725c1ddfbb65dd145fea7b3f8a57ae7d3abd0"),
    ("detect --type F4 --node 1 --seed 3", [2],
     "15b65a99135716da77ff9b257c81ce3eaac0c4dff1f123a96d4fab8a4698f8de"),
    ("detect --type G2 --node 2 --seed 4", [2],
     "caf02dcd34b65836246210d667fcf424743915b3610250d9f9fa80247a486554"),
    ("detect --type A6 --node 3 --seed 1", [2],
     "7f74e2d4dca3831a109a9123e908ede145dcc9b180db444c42d0751f8925f66c"),
    ("detect --type B4 --node 3 --seed 1", [2],
     "258f44371d43519c48549ddd46390e6eb787fd283b1d2b60762173bfe92572cb"),
    ("detect --type C4 --node 2 --seed 1", [2],
     "8f97b7542263f87546ceb0c0280cff52225da248a3b23db05cab626571b49564"),
    ("detect --type D5 --node 2 --seed 1", [2],
     "24f8408b51e2052db663d60d71c076c991c329f4b81f8ee11433e33e953bbe45"),
    ("detect --type B4 --node 4 --seed 1", [2],
     "3cc5ad26435d28cb7d35a96feb75e972dfb32ab2fe31725850aa77d629a4b820"),
    # 277-bit coefficients: 2 + 4 primes, 304 bits, lift them
    ("detect --type F4 --node 2 --seed 1", [2, 4],
     "abca062de50005b0b11217d2e3c9a9f58cc84e259cb817915b0ee48bc0380475"),
    # 369-bit coefficients: 2 + 4 primes fall short, and 2 + 4 + 4 do not
    ("detect --type E6 --node 2 --seed 1", [2, 4, 4],
     "afbbc49196b4ccc5107bf5c33b1844d4b146cb7bc3e0cd22caa74b1a2ed0bdfe"),
]


@pytest.mark.parametrize("argv, sizes, digest", BATCH_SCHEDULES,
                         ids=[argv for argv, _, _ in BATCH_SCHEDULES])
def test_exact_detection_draws_2_primes_then_batches_of_4(argv, sizes, digest, monkeypatch,
                                                         certified_moduli):
    import contextlib
    import io
    import json
    import qrec.cli as cli
    moduli, how = [], set()
    record_lanes(monkeypatch, lambda modulus, fed, ran: (moduli.append(modulus), how.add(ran)))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv.split()) == 0
    assert json.loads(out.getvalue())["digest"] == digest
    ends = list(itertools.accumulate(sizes))
    primes = seeded_primes(ends[-1], PRIME_SEED)
    # a stream feeds BM its terms in chunks, modulo one batch at a time
    assert [m for m, _ in itertools.groupby(moduli)] == [
        math.prod(primes[a:b]) for a, b in zip([0] + ends, ends)]
    assert how == {"ran"}
    assert certified_moduli == [math.prod(primes[:b]) for b in ends]


def test_a_round_of_windows_inverts_once_per_step_where_a_lane_changes_length(monkeypatch):
    # a round of eight draws of `interpolate --type E6 --node 1 --modular 3`
    from qrec.cartan import LieType
    from qrec.qsystem import levels
    lt, primes, rng = LieType.parse("E6"), seeded_primes(3, 0), random.Random(26)
    field = PrimeField(math.prod(primes))
    qs = [[F(rng.randint(-50, 50)) for _ in range(6)] for _ in range(8)]
    alone, changes = [], {}  # step -> the lanes whose L changes there
    for w in [lane(67) for lane in levels(lt, qs, 1, field)]:
        alone.append(multi_prime_lane(lambda m: w, primes))
        state, length = [], 0
        for n, s in enumerate(w):
            if (L := _bm_core([s], field, state)[0]) != length:
                changes[n] = changes.get(n, 0) + 1
            length = L
    calls, divisors = [], PrimeField.divisors
    monkeypatch.setattr(PrimeField, "divisors",
                        lambda self, values: calls.append(values) or divisors(self, values))
    # the tables stay in their Z phase, which inverts nothing
    recs = linrec.multi_prime_lanes(
        lambda m: [lane(67) for lane in levels(lt, qs, 1, PrimeField(m))], primes)
    assert [len(values) for values in calls] == [changes[n] for n in sorted(changes)]
    assert recs == alone


def test_each_lane_of_a_multi_prime_detection_is_its_own_detection():
    primes = seeded_primes(3, 6)
    modulus = math.prod(primes)
    rng = random.Random(36)
    half = (modulus - 1) // 2
    windows = [
        [2 * 3**n % modulus for n in range(30)],  # a recurrence
        _parting_sequence(rng, primes),  # PrimeDisagreement
        [rng.randrange(modulus) for _ in range(30)],  # NoStableRecurrence
        [5, 7, 9],  # InsufficientData
        [pow(half, n, modulus) for n in range(30)],  # C_1 near modulus/2: LiftOverflow
        [(n * n + 1) % modulus for n in range(40)],
    ]

    def alone(window):
        try:
            return multi_prime_lane(lambda m: window, primes)
        except (PrimeDisagreement, NoStableRecurrence, InsufficientData, LiftOverflow) as exc:
            return type(exc), str(exc)

    lanes = [(type(rec), str(rec)) if isinstance(rec, Exception) else rec
             for rec in linrec.multi_prime_lanes(lambda m: windows, primes)]
    assert lanes == [alone(w) for w in windows]
    assert [lane[0] for lane in lanes[1:5]] == [PrimeDisagreement, NoStableRecurrence,
                                                 InsufficientData, LiftOverflow]
    # the lane of a singular table gets its exception back
    from qrec.qsystem import SingularSpecialization
    singular = SingularSpecialization(2, 5)
    assert linrec.multi_prime_lanes(lambda m: [windows[0], singular, windows[5]], primes) == [
        alone(windows[0]), singular, alone(windows[5])]


def test_a_stream_windows_and_exceptions_read_in_one_round_detect_as_one_lane_calls(
        monkeypatch):
    from qrec.qsystem import SingularSpecialization
    primes, rng = seeded_primes(3, 9), random.Random(5)
    modulus = math.prod(primes)
    taps = [rng.randint(-9, 9) for _ in range(19)] + [1]
    fill = [rng.randint(-20, 20) for _ in taps]

    def lanes(pulled):
        terms = lfsr_stream(taps, fill, pulled)
        return [lambda n: [x % modulus for x in terms(n)],  # order 20, read online
                [2 * 3**n % modulus for n in range(30)],
                SingularSpecialization(2, 5),
                [(n * n + 1) % modulus for n in range(40)],
                _parting_sequence(random.Random(16), primes)]

    def plain(rec):
        return (type(rec), str(rec)) if isinstance(rec, Exception) else rec

    alone = [plain(linrec.multi_prime_lanes(lambda m: [lane], primes)[0])
             for lane in lanes([])]
    assert alone[0].order == 20 and alone[1].order == 1 and alone[3].order == 3
    assert [rec[0] for rec in alone[2::2]] == [SingularSpecialization, PrimeDisagreement]
    steps, original = [], linrec._berlekamp_massey

    def recording(seqs, field, states):
        steps.append([len(seq) for seq in seqs])
        return original(seqs, field, states)

    monkeypatch.setattr(linrec, "_berlekamp_massey", recording)
    pulled = []
    assert [plain(rec) for rec in linrec.multi_prime_lanes(lambda m: lanes(pulled),
                                                           primes)] == alone
    # the stream's first 33 terms go through BM in the windows' steps; then
    # it reads alone, up to 2L + g for each L, 2 * 17 + 8 and 2 * 20 + 8,
    # and is fed each of the 48 terms it pulled once
    assert steps == [[33, 30, 40, 40], [9], [6]] and len(pulled) == 48
