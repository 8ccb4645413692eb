"""Exact linear algebra: one solver, for the interpolation fit.

`solve_overdetermined` solves a system of integers modulo the 61-bit
Mersenne prime P and certifies the lifted solution exactly: when the rank
modulo P is full, the rank over Q is full, so an integer vector that
satisfies every row over Z is the one solution.  Every other system is
solved by elimination over the rationals.
"""
from __future__ import annotations

from fractions import Fraction

from .fields import RATIONALS, PrimeField

P = (1 << 61) - 1  # a Mersenne prime, the modulus of the integer solve


def _eliminate(aug, n, field):
    """Gaussian elimination over field of the rows aug, whose first n
    columns hold the coefficients.

    Returns (the rows, the pivot columns); the r-th pivot column has its 1
    in row r.  Each pivot row is scaled to that 1 and eliminated below it
    only.  Over Z/m an elimination reduces only its multiplier, so that an
    entry grows by less than m^2 at each one, and entries are reduced where
    they are read: the pivot rows once scaled, and the right-hand column,
    n, at the end.  That column alone is then back-substituted, so that
    entry n of every row is what Gauss-Jordan leaves there.
    """
    aug = [[field.of(x) for x in row] for row in aug]
    reduce, pivots = field.reduce, []
    for col in range(n):
        at = len(pivots)
        pivot = next((r for r in range(at, len(aug)) if reduce(aug[r][col])), None)
        if pivot is None:
            continue
        aug[at], aug[pivot] = aug[pivot], aug[at]
        (inv,) = field.divisors([reduce(aug[at][col])])
        lead = aug[at][col:] = [reduce(x * inv) for x in aug[at][col:]]
        for row in aug[at + 1:]:
            if factor := reduce(row[col]):
                row[col:] = [x - factor * y for x, y in zip(row[col:], lead)]
        pivots.append(col)
    for row in aug[len(pivots):]:
        row[n] = reduce(row[n])
    for r in reversed(range(len(pivots))):
        row = aug[r]
        row[n] = reduce(row[n] - sum(row[c] * aug[s][n]
                                     for s, c in enumerate(pivots[r + 1:], r + 1)))
    return aug, pivots


def _satisfied(system, sol) -> bool:
    """Whether sol satisfies every row of the augmented system exactly."""
    return all(sum(a * x for a, x in zip(row, sol)) == row[-1] for row in system)


def solve_overdetermined(rows, rhs):
    """Solve an (over)determined linear system exactly.

    Returns (status, solution) where status is one of "unique" (solution is a
    list of Fractions), "underdetermined" (solution is None), "inconsistent"
    (solution is None).  An all-int system is first solved modulo P and
    lifted into (-P/2, P/2]; the lift is returned only if it satisfies every
    row over Z.  Otherwise, and for every other system, every row is
    eliminated over Q.
    """
    n = len(rows[0]) if rows else 0
    system = [[*row, b] for row, b in zip(rows, rhs)]
    if all(isinstance(x, int) for row in system for x in row):
        aug, pivots = _eliminate(system, n, PrimeField(P))
        if len(pivots) == n:
            sol = [x if x <= P // 2 else x - P for x in (row[n] for row in aug[:n])]
            if _satisfied(system, sol):
                return "unique", [Fraction(x) for x in sol]
    aug, pivots = _eliminate(system, n, RATIONALS)
    if any(row[n] for row in aug[len(pivots):]):
        return "inconsistent", None
    if len(pivots) < n:
        return "underdetermined", None
    return "unique", [row[n] for row in aug[:n]]
