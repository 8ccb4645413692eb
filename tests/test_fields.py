import math
import random
from fractions import Fraction

import pytest

from qrec.fields import (RATIONALS, Localization, PrimeField, coprime_basis,
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


@pytest.mark.parametrize("values, basis", [
    ([1, 1], ()), ([12, 18], (2, 3)), ([6, 36], (6,)), ([35, 49, 10, 1], (2, 5, 7)),
    ([4 * 9, 6, 25 * 7, 2**40 * 3], (2, 3, 175)),  # refined, not factored
])
def test_coprime_basis(values, basis):
    assert coprime_basis(values) == basis
    assert all(math.gcd(a, b) == 1 for i, a in enumerate(basis) for b in basis[i + 1:])
    for v in values:  # each value is a power product of the basis
        for b in basis:
            while v % b == 0:
                v //= b
        assert v == 1


def test_a_localized_quotient_takes_the_powers_it_needs():
    ring = Localization((6,))
    # 2 holds the base factor 2 of 6: 1 / 2 = 3 / 6 is found at one more power
    half = ring.divide(ring.one, ring.of(F(2)))
    assert (half.n, half.e, ring.fraction(half)) == (3, (1,), F(1, 2))
    # 36 / 36 strips both powers of 6 again
    one = ring.divide(ring.of(F(1, 36)), ring.of(F(1, 36)))
    assert (one.n, one.e) == (1, (0,))
    x, y = ring.of(F(5, 6)), ring.of(F(-7, 36))
    assert ring.fraction(x * y - y) == F(5, 6) * F(-7, 36) - F(-7, 36)
    with pytest.raises(ZeroDivisionError):
        ring.divide(ring.one, ring.of(F(0)))
    with pytest.raises(AssertionError):  # 1 / 5 is not in Z[1/6]
        ring.divide(ring.one, ring.of(F(5)))


def test_rational_inverses():
    values = [F(3), F(-2, 7), F(5, 4), F(-1)]
    assert RATIONALS.divisors(values) == [1 / v for v in values]
    assert RATIONALS.divisors([]) == []
    assert RATIONALS.reduce(F(7, 3)) == F(7, 3)
    with pytest.raises(ZeroDivisionError):
        RATIONALS.divisors([F(2), F(0), F(3)])
