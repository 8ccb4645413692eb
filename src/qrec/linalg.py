"""Exact linear algebra over the rationals."""
from __future__ import annotations

from fractions import Fraction


def invert_matrix(rows):
    """Invert a square matrix of rationals by Gauss-Jordan elimination."""
    n = len(rows)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(rows)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def solve_overdetermined(rows, rhs):
    """Solve an (over)determined linear system exactly, over Fractions.

    Returns (status, solution) where status is one of "unique",
    "underdetermined" (solution is None), "inconsistent" (solution is None).
    """
    m, n = len(rows), (len(rows[0]) if rows else 0)
    aug = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    pivots = []
    row_at = 0
    for col in range(n):
        pivot = next((r for r in range(row_at, m) if aug[r][col] != 0), None)
        if pivot is None:
            continue
        aug[row_at], aug[pivot] = aug[pivot], aug[row_at]
        inv = 1 / aug[row_at][col]
        aug[row_at] = [x * inv for x in aug[row_at]]
        for r in range(m):
            if r != row_at and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[row_at])]
        pivots.append(col)
        row_at += 1
        if row_at == m:
            break
    for r in range(row_at, m):
        if aug[r][n] != 0:
            return "inconsistent", None
    if len(pivots) < n:
        return "underdetermined", None
    sol = [Fraction(0)] * n
    for r, col in enumerate(pivots):
        sol[col] = aug[r][n]
    return "unique", sol
