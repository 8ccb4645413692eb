"""Static data for the simple Lie types: Cartan matrices, symmetrizers,
positive roots, recurrence orders and dimension-growth degrees, and the table
built from them.  Everything here is an integer.

Node numbering: the classical families are chains 1..r with the short/long
asymmetry on the last bond (B: node r short, C: node r long); D attaches
node r to node r-2; E types are chains 1..(r-1) with node r attached to
node 3; F4 is 1-2=>3-4 (nodes 3,4 short); G2 has node 1 long, node 2 short.
"""
from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache

RANK_BOUNDS = {"A": (1, None), "B": (2, None), "C": (2, None), "D": (3, None),
               "E": (6, 8), "F": (4, 4), "G": (2, 2)}


class LieType(namedtuple("LieType", "family rank")):
    __slots__ = ()

    def __new__(cls, family: str, rank: int):
        bounds = RANK_BOUNDS.get(family)
        if bounds is None:
            raise ValueError(f"unknown family {family!r}")
        lo, hi = bounds
        if rank < lo or (hi is not None and rank > hi):
            raise ValueError(f"rank {rank} out of range for family {family}")
        return super().__new__(cls, family, rank)

    @classmethod
    def parse(cls, text: str) -> "LieType":
        text = text.strip()
        if len(text) < 2 or not text[1:].isdigit():
            raise ValueError(f"cannot parse Lie type {text!r} (expected e.g. 'B3')")
        return cls(text[0].upper(), int(text[1:]))

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


class CartanData(namedtuple("CartanData", "lie_type cartan t")):
    """The Cartan matrix (a tuple of int rows) and the labels t (ints)."""

    __slots__ = ()

    @property
    def rank(self) -> int:
        return self.lie_type.rank


def _chain_matrix(r):
    mat = [[0] * r for _ in range(r)]
    for i in range(r):
        mat[i][i] = 2
    for i in range(r - 1):
        mat[i][i + 1] = -1
        mat[i + 1][i] = -1
    return mat


def _cartan_matrix_and_t(lt: LieType):
    fam, r = lt.family, lt.rank
    mat = _chain_matrix(r)
    t = [1] * r
    if fam == "B":
        mat[r - 1][r - 2] = -2
        t[r - 1] = 2
    elif fam == "C":
        mat[r - 2][r - 1] = -2
        t = [2] * (r - 1) + [1]
    elif fam == "D":
        mat[r - 1][r - 2] = mat[r - 2][r - 1] = 0
        mat[r - 1][r - 3] = mat[r - 3][r - 1] = -1
    elif fam == "E":
        mat[r - 1][r - 2] = mat[r - 2][r - 1] = 0
        mat[r - 1][2] = mat[2][r - 1] = -1
    elif fam == "F":
        mat[2][1] = -2
        t = [1, 1, 2, 2]
    elif fam == "G":
        mat[0][1] = -1
        mat[1][0] = -3
        t = [1, 3]
    return mat, t


@lru_cache(maxsize=None)
def cartan_data(lt: LieType) -> CartanData:
    """Cartan matrix C, whose column a holds alpha_a in the fundamental-weight
    basis, and the squared-length labels t_a = 2 / (alpha_a, alpha_a)."""
    mat, t = _cartan_matrix_and_t(lt)
    return CartanData(lie_type=lt, cartan=tuple(tuple(row) for row in mat), t=tuple(t))


_ROOT_ENTRY_CAP = 10**6  # the positive roots' entries: |Phi+| times the rank


class RootCapExceeded(RuntimeError):
    """A root system whose positive roots would hold more than 10^6 entries."""


def _refuse_large_root_systems(lt: LieType) -> None:
    """Raises RootCapExceeded, before any matrix or root is built, when the
    |Phi+| positive roots of rank r entries each exceed _ROOT_ENTRY_CAP
    entries: |Phi+| is r(r+1)/2 on A, r^2 on B and C and r(r-1) on D, and
    the exceptional types have at most 120 roots of 8 entries."""
    r = lt.rank
    count = {"A": r * (r + 1) // 2, "B": r * r, "C": r * r, "D": r * (r - 1)}.get(lt.family, 0)
    if count * r > _ROOT_ENTRY_CAP:
        raise RootCapExceeded(f"{lt} has {count} positive roots of {r} entries each, "
                              f"above the cap of {_ROOT_ENTRY_CAP} entries")


def _shift(k, a, n):
    return k[:a] + (k[a] + n,) + k[a + 1:]


@lru_cache(maxsize=None)
def positive_roots(lt: LieType) -> tuple[tuple[int, ...], ...]:
    """All positive roots in simple-root coordinates k (the root is
    sum_j k_j alpha_j), sorted: on A the intervals alpha_i + ... + alpha_j,
    on every other family the closure of _root_strings."""
    r = lt.rank
    if lt.family == "A":
        return tuple(sorted((0,) * i + (1,) * (j - i) + (0,) * (r - j)
                            for i in range(r) for j in range(i + 1, r + 1)))
    return _root_strings(lt)


def _root_strings(lt: LieType) -> tuple[tuple[int, ...], ...]:
    """The positive roots, sorted, by closing root strings upward from the
    simple roots: beta + alpha_a is a root when beta - p alpha_a is the
    lowest root of its alpha_a-string and p > <beta, alpha_a^vee> = (C k)_a."""
    cartan, r = cartan_data(lt).cartan, lt.rank
    frontier = [tuple(int(i == a) for i in range(r)) for a in range(r)]
    roots = set(frontier)
    while frontier:
        nxt = []
        for k in frontier:
            for a, row in enumerate(cartan):
                p = 0
                while _shift(k, a, -p - 1) in roots:
                    p += 1
                up = _shift(k, a, 1)
                if p > sum(c * x for c, x in zip(row, k)) and up not in roots:
                    roots.add(up)
                    nxt.append(up)
        frontier = nxt
    return tuple(sorted(roots))


def growth_degree(lt: LieType) -> list[int]:
    """The simple-root coordinates of 2 rho, the sum of the positive roots:
    the polynomial growth degree of each node's dimension sequence."""
    _refuse_large_root_systems(lt)
    return [sum(column) for column in zip(*positive_roots(lt))]


def lm_coefficient(m: int, n: int) -> int:
    """Triangle L: the sum of C(m, j) 2^j over j <= n with j = n (mod 2),
    the number of vectors in {0, +-1}^m whose support has at most n entries
    and the parity of n.  L(m,0)=1, L(m,m)=(3^m+1)/2 and
    L(m,n)=2L(m-1,n-1)+L(m-1,n)."""
    if not 0 <= n <= m:
        raise ValueError(f"L({m},{n}) out of domain 0 <= n <= m")
    return sum(math.comb(m, j) << j for j in range(n % 2, n + 1, 2))


def mm_coefficient(m: int, n: int) -> int:
    """Triangle M: C(m, n) 2^n plus twice the sum of C(m, j) 2^j over j < n,
    the vectors in {0, +-1}^m with support n counted once and those with a
    smaller support twice.  M(m,0)=1, M(m,m)=2*3^m-2^m, same interior
    recursion as L."""
    if not 0 <= n <= m:
        raise ValueError(f"M({m},{n}) out of domain 0 <= n <= m")
    return (math.comb(m, n) << n) + 2 * sum(math.comb(m, j) << j for j in range(n))


# Minimal recurrence orders for the exceptional types; None marks nodes whose
# order is not tabulated (the CLI treats those as discovery targets).
_EXCEPTIONAL_ORDERS = {
    ("E", 6): (27, 243, None, 243, 27, 73),
    ("E", 7): (127, None, None, None, None, 56, None),
    ("E", 8): (None, None, None, None, None, None, 241, None),
    ("F", 4): (25, None, None, 74),
    ("G", 2): (7, 27),
}


def predicted_order(lt: LieType, a: int):
    """Tabulated minimal recurrence order for node a (1-based), or None if unknown."""
    if not 1 <= a <= lt.rank:
        raise ValueError(f"node {a} out of range for {lt}")
    fam, r = lt.family, lt.rank
    if fam == "A":
        return math.comb(r + 1, a)
    if fam == "B":
        return lm_coefficient(r, a) if a < r else 3**r - 2**r + 1
    if fam == "C":
        return mm_coefficient(r, a) if a < r else 2**r
    if fam == "D":
        return lm_coefficient(r, a) if a <= r - 2 else 2 ** (r - 1)
    return _EXCEPTIONAL_ORDERS[(fam, r)][a - 1]


@lru_cache(maxsize=None)
def order_tables() -> tuple[dict, ...]:
    """Order/degree table rows {type, rank, ell: [int|None], deg: [int]} for
    A1-A7, B2-B7, C2-C7, D3-D7, E6, E7, E8, F4 and G2, in that order."""
    classical = (("A", 1), ("B", 2), ("C", 2), ("D", 3))
    types = [LieType(family, rank) for family, lowest in classical
             for rank in range(lowest, 8)]
    types += [LieType.parse(name) for name in ("E6", "E7", "E8", "F4", "G2")]
    return tuple({"type": lt.family, "rank": lt.rank,
                  "ell": [predicted_order(lt, a) for a in range(1, lt.rank + 1)],
                  "deg": growth_degree(lt)} for lt in types)
