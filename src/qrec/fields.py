"""Exact coefficient rings (the rationals, and Z/m for m a prime or a product
of distinct primes) plus the seeded prime generator used by modular detection."""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)  # deterministic < 3.3e24


class Rationals:
    name = "rational"
    zero = Fraction(0)
    one = Fraction(1)

    @staticmethod
    def of(value) -> Fraction:
        return Fraction(value)

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def sub(a, b):
        return a - b

    @staticmethod
    def mul(a, b):
        return a * b

    @staticmethod
    def div(a, b):
        if b == 0:
            raise ZeroDivisionError("division by zero in the rationals")
        return a / b

    @staticmethod
    def neg(a):
        return -a

    def __repr__(self):
        return "Rationals()"


RATIONALS = Rationals()


@dataclass(frozen=True)
class PrimeField:
    """Z/m for m a prime or a product of distinct primes; elements are plain
    ints in [0, m).  By the CRT, Z/m is the product of the prime fields, so a
    computation over it is one computation per prime factor, provided every
    divisor is a unit: dividing by a non-unit raises ZeroDivisionError."""

    modulus: int

    @property
    def name(self) -> str:
        return f"mod {self.modulus}"

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return 1

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

    def add(self, a, b):
        return (a + b) % self.modulus

    def sub(self, a, b):
        return (a - b) % self.modulus

    def mul(self, a, b):
        return a * b % self.modulus

    def div(self, a, b):
        return a * self._inverse(b) % self.modulus

    def neg(self, a):
        return -a % self.modulus


def is_probable_prime(n: int) -> bool:
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


def seeded_primes(count: int, seed: int, bits: int = 51) -> list[int]:
    """Distinct primes in [2^(bits-1), 2^bits), reproducible from the seed.

    bits must be at least 51 so every prime exceeds 2^50.
    """
    if bits < 51:
        raise ValueError("primes below 2^50 are not allowed")
    rng = random.Random(f"qrec-primes-{seed}")
    primes: list[int] = []
    while len(primes) < count:
        candidate = rng.randrange(1 << (bits - 1), 1 << bits) | 1
        if candidate not in primes and is_probable_prime(candidate):
            primes.append(candidate)
    return primes

