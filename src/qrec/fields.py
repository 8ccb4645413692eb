"""Exact coefficient rings (the rationals, the integers inside them, the
ring Z[1/D] of rationals whose denominators divide a power of one integer D,
and Z/m for m a prime or a product of distinct primes), rational
reconstruction from Z/m, and the seeded prime generator used by detection."""
from __future__ import annotations

import itertools
import math
import random
from collections import namedtuple
from collections.abc import Iterator
from fractions import Fraction

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23)  # see is_probable_prime


class Rationals:
    """Q, with Fraction elements.  Like PrimeField, it offers of and reduce;
    callers compute on plain operators and reduce each result, and take the
    reciprocals they divide by in a batch from divisors.  Q-tables are made in
    Integers or a Localization instead (see qsystem)."""

    name = "rational"
    zero = Fraction(0)
    one = Fraction(1)

    @staticmethod
    def of(value) -> Fraction:
        return Fraction(value)

    @staticmethod
    def divisors(values) -> list:
        """1/v for each value; raises ZeroDivisionError on a zero.  Over Q
        one reciprocal each is cheaper than Montgomery's products."""
        return [Fraction(1, v.numerator) if v.denominator == 1 else v ** -1
                for v in values]

    @staticmethod
    def reduce(x):
        return x


RATIONALS = Rationals()


class Integers:
    """Z inside Q, with int elements, for quotients known to be exact: a
    divisor is itself, and a nonzero remainder is a bug."""

    one, of, divisors = 1, int, staticmethod(list)

    @staticmethod
    def divide(num: int, d: int) -> int:
        quotient, remainder = divmod(num, d)  # ZeroDivisionError on d == 0
        if remainder:
            raise AssertionError("an exact quotient over Z left a remainder (a bug)")
        return quotient


INTEGERS = Integers()


class Scaled:
    """The element n / D^e of the Localization Z[1/D]."""

    __slots__ = ("n", "e", "base")

    def __init__(self, n: int, e: int, base: int):
        self.n, self.e, self.base = n, e, base

    def __mul__(self, other):
        return Scaled(self.n * other.n, self.e + other.e, self.base)

    def __sub__(self, other):
        shift = self.e - other.e
        if shift >= 0:
            return Scaled(self.n - other.n * self.base ** shift, self.e, self.base)
        return Scaled(self.n * self.base ** -shift - other.n, other.e, self.base)


class Localization:
    """Z[1/D] inside Q for one integer D > 1, with Scaled elements: a product
    adds exponents and a difference brings both terms to the larger one, so
    no operation takes a gcd.  Like Integers it divides by the divisor
    itself, for quotients known to lie in the ring."""

    def __init__(self, base: int):
        self.base = base
        self.one = Scaled(1, 0, base)

    def of(self, value: Fraction) -> Scaled:
        """value at the least exponent e with its denominator dividing D^e;
        ValueError when the denominator has a prime factor that D lacks."""
        d, e, power = value.denominator, 0, 1
        while power % d:  # d divides some D^k iff it divides D^bit_length(d)
            if e == d.bit_length():
                raise ValueError(f"{value} is not in Z[1/{self.base}]")
            power, e = power * self.base, e + 1
        return Scaled(value.numerator * (power // d), e, self.base)

    def fraction(self, x: Scaled) -> Fraction:
        return Fraction(x.n, self.base ** x.e)

    divisors = staticmethod(list)

    def divide(self, num: Scaled, d: Scaled) -> Scaled:
        """num / d, which must lie in the ring; ZeroDivisionError when d == 0.

        The quotient's numerator is num.n / d.n at exponent num.e - d.e,
        with a negative exponent multiplied into the numerator.  A remainder
        means d.n holds a factor of D that num.n lacks: one more power of D
        is taken until the division is exact, at most bit_length(d.n) times,
        since no prime divides d.n that often.  Then D is stripped while it
        divides the quotient."""
        base, n, e = self.base, num.n, num.e - d.e
        if e < 0:
            n, e = n * base ** -e, 0
        quotient, remainder = divmod(n, d.n)  # ZeroDivisionError on d == 0
        if remainder:
            for _ in range(d.n.bit_length()):
                n, e = n * base, e + 1
                quotient, remainder = divmod(n, d.n)
                if not remainder:
                    break
            else:
                raise AssertionError("a quotient left the localization (a bug)")
        while e and quotient % base == 0:
            quotient, e = quotient // base, e - 1
        return Scaled(quotient, e, base)


class PrimeField(namedtuple("PrimeField", "modulus")):
    """Z/m for m a prime or a product of distinct primes; elements are plain
    ints in [0, m).  By the CRT, Z/m is the product of the prime fields, so a
    computation over it is one computation per prime factor, provided every
    divisor is a unit: inverting a non-unit raises ZeroDivisionError."""

    __slots__ = ()
    zero, one = 0, 1

    @property
    def name(self) -> str:
        return f"mod {self.modulus}"

    def _inverse(self, x: int) -> int:
        try:
            return pow(x, -1, self.modulus)
        except ValueError:
            raise ZeroDivisionError(
                f"{x % self.modulus} is not a unit mod {self.modulus}") from None

    def of(self, value) -> int:
        if isinstance(value, Fraction):
            return value.numerator * self._inverse(value.denominator) % self.modulus
        return int(value) % self.modulus

    def divisors(self, values) -> list[int]:
        """The inverse of each value, by Montgomery's trick: one inversion
        of the product and 3(r - 1) products.  Raises ZeroDivisionError when
        any value is a non-unit."""
        m = self.modulus
        prefix = [1]
        for v in values:
            prefix.append(prefix[-1] * v % m)
        inv = self._inverse(prefix[-1])
        out = [0] * len(values)
        for i in range(len(values) - 1, -1, -1):
            out[i] = inv * prefix[i] % m
            inv = inv * values[i] % m
        return out

    def divide(self, num: int, d: int) -> int:
        return num * d % self.modulus

    @property
    def reduce(self):
        """x -> x % modulus for an int x: the modulus's own __rmod__, which
        runs no Python frame per call."""
        return self.modulus.__rmod__


def rational_reconstruction(a: int, m: int) -> Fraction | None:
    """The fraction n/d with n = a*d mod m, |n| <= B and 0 < d <= B, where
    B = isqrt((m - 1) // 2), or None when no such fraction exists.

    Wang's half-extended Euclid: the first remainder at most B, with its
    cofactor, is the only candidate, since 2*B*B < m makes it unique.
    """
    bound = math.isqrt((m - 1) // 2)
    r0, r1 = m, a % m
    t0, t1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if abs(t1) > bound or math.gcd(r1, t1) != 1:
        return None
    return Fraction(r1, t1)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin at the bases 2..23, which is deterministic below
    3825123056546413051 (OEIS A014233(9)): prime_stream draws below 2^51."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n == q:
            return True
        if n % q == 0:
            return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_stream(seed: int) -> Iterator[int]:
    """Distinct 51-bit primes, each above 2^50, reproducible from the seed;
    the first count of them are seeded_primes(count, seed)."""
    rng = random.Random(f"qrec-primes-{seed}")
    seen: set[int] = set()
    while True:
        candidate = rng.randrange(1 << 50, 1 << 51) | 1
        if candidate not in seen and is_probable_prime(candidate):
            seen.add(candidate)
            yield candidate


def seeded_primes(count: int, seed: int) -> list[int]:
    """The first count primes of prime_stream(seed)."""
    return list(itertools.islice(prime_stream(seed), count))
