"""Weight systems of irreducible highest-weight modules with exact
multiplicities, Weyl dimensions, and evaluation of formal exponentials.

All weights live in the fundamental-weight basis as integer tuples, and the
Weyl dimension formula and Freudenthal's recursion run in integers: a weight
x pairs with a positive root alpha = sum_j k_j alpha_j as
(x, alpha) = sum_j x_j k_j / t_j, since (omega_i, alpha_j) = delta_ij / t_j,
which is an integer once scaled by T = lcm(t).  Each dimension and each
multiplicity is then one exact quotient.
"""
from __future__ import annotations

import os
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .cartan import (CartanData, LieType, _refuse_large_root_systems, cartan_data,
                     positive_roots)
from .fields import INTEGERS

Weight = tuple[int, ...]

DEFAULT_DIMENSION_CAP = 100_000


class DimensionCapExceeded(RuntimeError):
    """Weight-system request above the configured dimension budget."""

    def __init__(self, lt, highest, dim, cap):
        self.dimension = dim
        super().__init__(
            f"weight system of {lt} highest weight {highest} has dimension "
            f"{dim}, above the cap {cap} (raise QREC_CAP_DIM to override)"
        )


def dimension_cap() -> int:
    env = os.environ.get("QREC_CAP_DIM")
    return int(env) if env else DEFAULT_DIMENSION_CAP


def omega(rank: int, a: int) -> Weight:
    """The fundamental weight omega_a (1-based); omega(rank, 0) is zero."""
    return tuple(int(i == a - 1) for i in range(rank))


def is_dominant(w: Weight) -> bool:
    return all(c >= 0 for c in w)


def reflect(cd: CartanData, w: Weight, a: int) -> Weight:
    """Simple reflection s_a (0-based): w - w_a * alpha_a."""
    if w[a] == 0:
        return w
    alpha = tuple(cd.cartan[b][a] for b in range(cd.rank))
    return tuple(x - w[a] * y for x, y in zip(w, alpha))


def dominant_conjugate(cd: CartanData, w: Weight) -> Weight:
    """The dominant representative of the Weyl orbit of w."""
    w = tuple(w)
    while True:
        a = next((i for i, c in enumerate(w) if c < 0), None)
        if a is None:
            return w
        w = reflect(cd, w, a)


def weyl_orbit(cd: CartanData, w: Weight) -> list[Weight]:
    seen = {tuple(w)}
    frontier = [tuple(w)]
    while frontier:
        nxt = []
        for u in frontier:
            for a in range(cd.rank):
                v = reflect(cd, u, a)
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return sorted(seen)


@lru_cache(maxsize=None)
def _roots(lt: LieType) -> tuple[tuple[Weight, Weight], ...]:
    """Each positive root as (its fundamental-weight coordinates C k, its
    pairing vector v with v_j = k_j T / t_j, so that T (x, alpha) = x . v)."""
    _refuse_large_root_systems(lt)
    cd = cartan_data(lt)
    scale = [lcm(*cd.t) // t for t in cd.t]
    return tuple((tuple(sum(c * x for c, x in zip(row, k)) for row in cd.cartan),
                  tuple(x * s for x, s in zip(k, scale))) for k in positive_roots(lt))


def _require_dominant(highest):
    if not is_dominant(highest):
        raise ValueError(f"highest weight {highest} is not dominant")


@lru_cache(maxsize=None)
def dimension(lt: LieType, highest: Weight) -> int:
    """Weyl dimension formula: the product over the positive roots of
    (highest + rho, alpha) / (rho, alpha), with rho = (1, ..., 1)."""
    _require_dominant(highest)
    num = den = 1
    for _, v in _roots(lt):
        num *= sum((x + 1) * y for x, y in zip(highest, v))
        den *= sum(v)
    return INTEGERS.divide(num, den)


@lru_cache(maxsize=None)
def _dominant_multiplicities(lt: LieType, highest: Weight) -> tuple:
    """Freudenthal multiplicities on the dominant weights mu of L(highest):
    m(mu) (highest - mu, highest + mu + 2 rho)
        = 2 sum over alpha > 0 and n >= 1 of m(mu + n alpha) (mu + n alpha, alpha),
    both sides scaled by T."""
    cd = cartan_data(lt)
    roots = _roots(lt)
    # The dominant weights below highest, each with the pairing vector of
    # highest - mu.  Covers in dominance order differ by one positive root,
    # so closure under root subtraction is complete.
    gaps = {highest: omega(lt.rank, 0)}
    frontier = [highest]
    while frontier:
        nxt = []
        for w in frontier:
            for beta, v in roots:
                mu = tuple(a - b for a, b in zip(w, beta))
                if mu not in gaps and min(mu) >= 0:
                    gaps[mu] = tuple(a + b for a, b in zip(gaps[w], v))
                    nxt.append(mu)
        frontier = nxt

    # Sorting by T (highest - mu, rho), the sum of the pairing vector, puts
    # highest first and the dominant conjugate of each mu + n alpha before
    # mu: it lies above mu in dominance order, and (alpha_j, rho) > 0 for
    # every simple root.
    mult = {highest: 1}
    for mu in sorted(gaps, key=lambda mu: sum(gaps[mu]))[1:]:
        acc = 0
        for beta, v in roots:
            nu = tuple(a + b for a, b in zip(mu, beta))
            while m := mult.get(dominant_conjugate(cd, nu), 0):
                acc += m * sum(x * y for x, y in zip(nu, v))
                nu = tuple(a + b for a, b in zip(nu, beta))
        gap = sum(g * (x + y + 2) for g, x, y in zip(gaps[mu], highest, mu))
        mult[mu] = INTEGERS.divide(2 * acc, gap)
        assert mult[mu] > 0
    return tuple(sorted(mult.items()))


def weight_system(lt: LieType, highest: Weight) -> dict[Weight, int]:
    """Full weight multiset of L(highest): map weight -> multiplicity.

    The result is Weyl-stable, sums (with multiplicity) to zero, and its
    total size equals the Weyl dimension formula value.  Raises
    DimensionCapExceeded above dimension_cap().
    """
    _require_dominant(highest)
    highest = tuple(highest)
    dim = dimension(lt, highest)
    budget = dimension_cap()
    if dim > budget:
        raise DimensionCapExceeded(lt, highest, dim, budget)
    cd = cartan_data(lt)
    system: dict[Weight, int] = {}
    total = 0
    for mu, m in _dominant_multiplicities(lt, highest):
        for w in weyl_orbit(cd, mu):
            system[w] = m
            total += m
    assert total == dim, f"Freudenthal count {total} != Weyl dimension {dim}"
    return system


def evaluate(obj, point) -> Fraction:
    """e^w at a torus point (a tuple of nonzero rationals), or the
    multiplicity-weighted sum over a weight multiset (a character value).
    e^w is one Fraction of integer powers of the entries' numerators and
    denominators, so it is normalised once."""
    if isinstance(obj, dict):
        return sum((m * evaluate(w, point) for w, m in obj.items()), Fraction(0))
    num = den = 1
    for y, e in zip(point, obj):
        if e > 0:
            num *= y.numerator ** e
            den *= y.denominator ** e
        elif e < 0:
            num *= y.denominator ** -e
            den *= y.numerator ** -e
    return Fraction(num, den)

