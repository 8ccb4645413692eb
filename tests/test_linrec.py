import math
import random
from fractions import Fraction

import pytest

from qrec.fields import RATIONALS, PrimeField, seeded_primes
from qrec.linrec import (InsufficientData, LiftOverflow, NonVanishingTail,
                         NoStableRecurrence, PrimeDisagreement, annihilates,
                         berlekamp_massey, expand_linear_product,
                         find_min_recurrence, multi_prime_detect, numerator,
                         poly_mul, series_divide)

from helpers_oracles import dense_min_recurrence

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
    rec = multi_prime_detect(lambda p: [x % p for x in FIB], primes)
    assert rec.order == 2
    assert rec.coeffs == (1, 1, -1)
    assert rec.confidence == "modular"
    assert rec.primes == tuple(sorted(primes))


def test_multi_prime_m2m():
    seq = [m * 2**m for m in range(20)]
    rec = multi_prime_detect(lambda p: [x % p for x in seq], seeded_primes(3, 5))
    assert rec.order == 2 and rec.alternating() == [1, -4, 4]


def test_multi_prime_validation():
    with pytest.raises(ValueError):
        multi_prime_detect(lambda p: FIB, [3, 5])
    with pytest.raises(ValueError):
        multi_prime_detect(lambda p: FIB, [3, 5, 7])


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
        multi_prime_detect(lambda m: [x % m for x in seq], primes)


def test_lift_overflow():
    primes = seeded_primes(3, 2)
    modulus = primes[0] * primes[1] * primes[2]
    ratio = modulus // 2 - 7  # symmetric lift lands within 2^16 of modulus/2
    seq = [pow(ratio, n, modulus) for n in range(12)]

    def factory(p):
        return [x % p for x in seq]

    with pytest.raises(LiftOverflow):
        multi_prime_detect(factory, primes)


def test_e6_sequence_modular_equals_rational():
    from qrec.cartan import LieType
    from qrec.qsystem import RawQ, generate
    lt = LieType.parse("E6")
    spec = RawQ((17, 22, 38, 40, 14, 31))
    table = generate(lt, spec, target=(1, 66))
    exact = find_min_recurrence(table.node(1))

    def factory(p):
        return generate(lt, spec, (1, 66), field=PrimeField(p)).node(1)

    modular = multi_prime_detect(factory, seeded_primes(3, 7))
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

        modular = multi_prime_detect(factory, seeded_primes(3, seed))
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
    with pytest.raises(ValueError):
        seeded_primes(2, 0, bits=40)
