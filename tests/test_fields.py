import math
import random
from fractions import Fraction

import pytest

from qrec import qsystem
from qrec.fields import (INTEGERS, RATIONALS, Localization, PrimeField,
                         rational_reconstruction, seeded_primes)

F = Fraction

MODULI = [math.prod(seeded_primes(k, 3)) for k in (1, 2, 4)] + [10**9 + 7, 2 * 3 * 5 * 7 * 11 * 13]


def bound(m):
    return math.isqrt((m - 1) // 2)


def residue(value, m):
    return value.numerator * pow(value.denominator, -1, m) % m


@pytest.mark.parametrize("m", MODULI)
def test_round_trips_fractions_within_the_bound(m):
    b = bound(m)
    rng = random.Random(m)
    values = [F(0), F(1), F(-1), F(b), F(-b), F(1, b), F(-1, b), F(b, b - 1), F(-(b - 1), b)]
    while len(values) < 60:
        num, den = rng.randint(-b, b), rng.randint(1, b)
        if math.gcd(den, m) == 1:
            values.append(F(num, den))
    for value in values:
        if math.gcd(value.denominator, m) == 1:
            assert rational_reconstruction(residue(value, m), m) == value, value


@pytest.mark.parametrize("m", MODULI)
def test_no_fraction_past_the_bound(m):
    b = bound(m)
    # a fraction n/d within the bound congruent to b + 1 or 1/(b + 1) would
    # differ from it by less than b*b + 2*b < m, so it would equal it
    for value in (b + 1, -(b + 1)):
        assert rational_reconstruction(value % m, m) is None, value
    for value in (F(1, b + 1), F(-1, b + 1)):
        if math.gcd(b + 1, m) == 1:
            assert rational_reconstruction(residue(value, m), m) is None, value


def test_residues_of_integers_and_zero():
    m = math.prod(seeded_primes(4, 1))
    assert rational_reconstruction(0, m) == 0
    assert rational_reconstruction(m - 5, m) == -5
    assert rational_reconstruction(7 + 3 * m, m) == 7  # any representative


def test_inverses_mod_a_product_of_primes():
    p1, p2, p3 = seeded_primes(3, 2)
    m = p1 * p2 * p3
    field = PrimeField(m)
    rng = random.Random(5)
    units = []
    while len(units) < 40:
        v = rng.randrange(1, m)
        if math.gcd(v, m) == 1:
            units.append(v)
    inverses = field.divisors(units)
    assert all(v * inv % m == 1 for v, inv in zip(units, inverses))
    assert inverses == [pow(v, -1, m) for v in units]
    assert field.divisors([units[0]]) == [pow(units[0], -1, m)]
    assert field.divisors([]) == []
    assert field.reduce(-1) == m - 1 and field.reduce(m * m + 3) == 3


def test_inverses_raise_on_one_non_unit_among_many():
    p1, p2, p3 = seeded_primes(3, 2)
    field = PrimeField(p1 * p2 * p3)
    values = [3, 5, 7 * p2, 11, 13]
    with pytest.raises(ZeroDivisionError):
        field.divisors(values)
    with pytest.raises(ZeroDivisionError):
        field.divisors([0])


def test_a_localized_quotient_takes_the_powers_it_needs():
    ring = Localization(6)
    # 2 holds the factor 2 of 6: 1 / 2 = 3 / 6 is found at one more power
    half = ring.divide(ring.one, ring.of(F(2)))
    assert (half.n, half.e, ring.fraction(half)) == (3, 1, F(1, 2))
    # 36 / 6^2 divided by 1 strips both powers of 6 again
    one = ring.divide(ring.of(F(1, 36)) * ring.of(F(36)), ring.one)
    assert (one.n, one.e) == (1, 0)
    x, y = ring.of(F(5, 6)), ring.of(F(-7, 36))
    assert ring.fraction(x * y - y) == F(5, 6) * F(-7, 36) - F(-7, 36)
    with pytest.raises(ZeroDivisionError):
        ring.divide(ring.one, ring.of(F(0)))
    with pytest.raises(AssertionError):  # 1 / 5 is not in Z[1/6]
        ring.divide(ring.one, ring.of(F(5)))


def test_a_value_outside_the_localization_is_refused():
    ring = Localization(6)
    seven_twelfths = ring.of(F(7, 12))  # 7 / 12 = 21 / 6^2
    assert (seven_twelfths.n, seven_twelfths.e) == (21, 2)
    with pytest.raises(ValueError):  # 10 has the prime factor 5, which 6 lacks
        ring.of(F(7, 10))


@pytest.mark.parametrize("base", [6, 10, 12, 140])
def test_localized_arithmetic_matches_fractions(base):
    ring, rng = Localization(base), random.Random(base)
    primes = [p for p in (2, 3, 5, 7) if base % p == 0]
    for _ in range(300):
        a, b = (F(rng.randint(-60, 60), base ** rng.randint(0, 3)) for _ in range(2))
        x, y = ring.of(a), ring.of(b)
        assert ring.fraction(x) == a
        assert ring.fraction(x * y) == a * b
        assert ring.fraction(x - y) == a - b and ring.fraction(y - x) == b - a
        if b:
            assert ring.fraction(ring.divide(x * y, y)) == a
        # a unit of the ring: its numerator's prime factors all divide the base
        unit = F(rng.choice((1, -1)) * math.prod(rng.choices(primes, k=rng.randint(1, 4))),
                 base ** rng.randint(0, 3))
        assert ring.fraction(ring.divide(x, ring.of(unit))) == a / unit


def test_a_table_over_q_is_made_in_z_localized_at_the_lcm_of_the_denominators():
    assert qsystem._ring([F(4), F(-3)], RATIONALS) is INTEGERS
    ring = qsystem._ring([F(1, 4), F(5, 6), F(2)], RATIONALS)
    assert isinstance(ring, Localization) and ring.base == 12
    field = PrimeField(seeded_primes(1, 0)[0])
    assert qsystem._ring([F(1, 4), F(5, 6)], field) is field


def test_rational_inverses():
    values = [F(3), F(-2, 7), F(5, 4), F(-1)]
    assert RATIONALS.divisors(values) == [1 / v for v in values]
    assert RATIONALS.divisors([]) == []
    assert RATIONALS.reduce(F(7, 3)) == F(7, 3)
    with pytest.raises(ZeroDivisionError):
        RATIONALS.divisors([F(2), F(0), F(3)])
