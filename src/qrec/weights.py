"""Weight systems of irreducible highest-weight modules with exact
multiplicities, Weyl dimensions, and evaluation of formal exponentials.

All weights live in the fundamental-weight basis as integer tuples; inner
products come from the exact quadratic form in `cartan`.
"""
from __future__ import annotations

import os
from fractions import Fraction
from functools import lru_cache

from .cartan import CartanData, LieType, cartan_data

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


def zero(rank: int) -> Weight:
    return (0,) * rank


def omega(rank: int, a: int) -> Weight:
    """The fundamental weight omega_a (1-based); omega(rank, 0) is zero."""
    return tuple(int(i == a - 1) for i in range(rank))


def wsum(u: Weight, v: Weight) -> Weight:
    return tuple(a + b for a, b in zip(u, v))


def is_dominant(w: Weight) -> bool:
    return all(c >= 0 for c in w)


def simple_roots(cd: CartanData) -> list[Weight]:
    """Simple roots in the fundamental-weight basis: column a of the Cartan matrix."""
    r = cd.rank
    return [tuple(cd.cartan[b][a] for b in range(r)) for a in range(r)]


def reflect(cd: CartanData, w: Weight, a: int) -> Weight:
    """Simple reflection s_a (0-based): w - w_a * alpha_a."""
    if w[a] == 0:
        return w
    alpha = tuple(cd.cartan[b][a] for b in range(cd.rank))
    return tuple(x - w[a] * y for x, y in zip(w, alpha))


def inner(cd: CartanData, u, v) -> Fraction:
    form = cd.quadratic_form
    total = Fraction(0)
    for a, ua in enumerate(u):
        if ua:
            row = form[a]
            total += ua * sum(vb * row[b] for b, vb in enumerate(v) if vb)
    return total


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
def positive_roots(lt: LieType) -> tuple[Weight, ...]:
    """All positive roots, generated by closing root strings upward from the simples."""
    cd = cartan_data(lt)
    simples = simple_roots(cd)
    roots = set(simples)
    frontier = list(simples)
    while frontier:
        nxt = []
        for beta in frontier:
            for a, alpha in enumerate(simples):
                if beta == alpha:
                    continue
                p = 0
                down = tuple(x - y for x, y in zip(beta, alpha))
                while down in roots:
                    p += 1
                    down = tuple(x - y for x, y in zip(down, alpha))
                if p - beta[a] >= 1:
                    up = wsum(beta, alpha)
                    if up not in roots:
                        roots.add(up)
                        nxt.append(up)
        frontier = nxt
    return tuple(sorted(roots))


def _require_dominant(highest):
    if not is_dominant(highest):
        raise ValueError(f"highest weight {highest} is not dominant")


@lru_cache(maxsize=None)
def dimension(lt: LieType, highest: Weight) -> int:
    """Weyl dimension formula, exact."""
    _require_dominant(highest)
    cd = cartan_data(lt)
    rho = (1,) * cd.rank
    lam_rho = wsum(highest, rho)
    dim = Fraction(1)
    for alpha in positive_roots(lt):
        dim *= inner(cd, lam_rho, alpha) / inner(cd, rho, alpha)
    assert dim.denominator == 1 and dim > 0
    return int(dim)


def _dominant_weights_below(cd: CartanData, pos_roots, highest: Weight):
    """All dominant weights <= highest (covers in dominance order differ by
    one positive root, so closure under root subtraction is complete)."""
    found = {tuple(highest)}
    frontier = [tuple(highest)]
    while frontier:
        nxt = []
        for w in frontier:
            for beta in pos_roots:
                v = tuple(a - b for a, b in zip(w, beta))
                if v not in found and all(c >= 0 for c in v):
                    found.add(v)
                    nxt.append(v)
        frontier = nxt
    return found


@lru_cache(maxsize=None)
def _dominant_multiplicities(lt: LieType, highest: Weight) -> tuple:
    """Freudenthal multiplicities on the dominant weights of L(highest)."""
    cd = cartan_data(lt)
    pos = positive_roots(lt)
    rho = (1,) * cd.rank
    lam_rho = wsum(highest, rho)
    top_norm = inner(cd, lam_rho, lam_rho)

    doms = _dominant_weights_below(cd, pos, highest)
    inv = cd.cartan_inverse

    def depth(mu):
        # height of highest - mu in the simple-root basis
        diff = tuple(a - b for a, b in zip(highest, mu))
        total = Fraction(0)
        for a in range(cd.rank):
            total += sum(inv[a][b] * diff[b] for b in range(cd.rank))
        assert total.denominator == 1
        return int(total)

    mult: dict[Weight, int] = {}
    for mu in sorted(doms, key=depth):
        if mu == tuple(highest):
            mult[mu] = 1
            continue
        acc = Fraction(0)
        for alpha in pos:
            k = 1
            while True:
                nu = tuple(a + k * b for a, b in zip(mu, alpha))
                m = mult.get(dominant_conjugate(cd, nu), 0)
                if m == 0:
                    break
                acc += m * inner(cd, nu, alpha)
                k += 1
        mu_rho = wsum(mu, rho)
        denom = top_norm - inner(cd, mu_rho, mu_rho)
        value = 2 * acc / denom
        assert value.denominator == 1 and value > 0
        mult[mu] = int(value)
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
    multiplicity-weighted sum over a weight multiset (a character value)."""
    if isinstance(obj, dict):
        return sum((m * evaluate(w, point) for w, m in obj.items()), Fraction(0))
    value = Fraction(1)
    for y, e in zip(point, obj):
        if e:
            value *= Fraction(y) ** e
    return value

