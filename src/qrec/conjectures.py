"""Structural checks for detected recurrences: weight-set factorizations,
coefficient identities, generating-function numerators, order predictions,
growth degrees, and symbolic coefficient interpolation.

The catalogue below covers exactly the nodes whose structure is pinned down:
type A (every node), B/C/D node 1 plus the D spin nodes, E6 node 1, E7 node 6,
E8 node 7, F4 nodes 1 and 4, and both G2 nodes.
"""
from __future__ import annotations

import itertools
import math
import operator
from collections import namedtuple
from collections.abc import Mapping
from fractions import Fraction

from . import linrec
from .cartan import LieType, cartan_data, growth_degree, predicted_order
from .linalg import solve_overdetermined
from .linrec import RecurrencePoly
from .qsystem import QTable, default_branching
from .weights import Weight, dimension, dominant_conjugate, evaluate, omega, weight_system

MARGIN = 5  # experiments past the candidate count, to verify the fit


class NotInCatalogue(LookupError):
    pass


class UnderdeterminedSystem(RuntimeError):
    pass


class NonIntegerSolution(RuntimeError):
    def __init__(self, values):
        self.values = values
        super().__init__(f"interpolated coefficients are not integers: {values}")


class InsufficientDepth(ValueError):
    pass


# ---------------------------------------------------------------------------
# sparse integer polynomials in q_1..q_r


class QPoly:
    """Sparse polynomial in the level-1 values q_1..q_r with integer coefficients."""

    __slots__ = ("rank", "terms")

    def __init__(self, rank: int, terms: Mapping[tuple, int] | None = None):
        self.rank = rank
        self.terms = {tuple(e): int(c) for e, c in (terms or {}).items() if c}

    @classmethod
    def const(cls, rank: int, c: int) -> "QPoly":
        return cls(rank, {tuple([0] * rank): c})

    @classmethod
    def var(cls, rank: int, a: int) -> "QPoly":
        if not 1 <= a <= rank:
            raise ValueError(f"q_{a} undefined at rank {rank}")
        e = [0] * rank
        e[a - 1] = 1
        return cls(rank, {tuple(e): 1})

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return QPoly(self.rank, out)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __neg__(self):
        return QPoly(self.rank, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        other = self._coerce(other)
        out: dict[tuple, int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return QPoly(self.rank, out)

    __rmul__ = __mul__

    def _coerce(self, other):
        if isinstance(other, QPoly):
            return other
        return QPoly.const(self.rank, other)

    def __eq__(self, other):
        return isinstance(other, QPoly) and self.terms == other.terms

    def evaluate(self, qvals) -> Fraction:
        return evaluate(self.terms, qvals)

    def __str__(self):
        if not self.terms:
            return "0"
        def mono(e):
            parts = [f"q_{i + 1}" + (f"^{x}" if x > 1 else "")
                     for i, x in enumerate(e) if x]
            return "*".join(parts)
        items = sorted(self.terms.items(),
                       key=lambda ec: (-sum(ec[0]), tuple(-x for x in ec[0])))
        pieces = []
        for e, c in items:
            m = mono(e)
            mag = abs(c)
            if not m:
                body = str(mag)
            elif mag == 1:
                body = m
            else:
                body = f"{mag}*{m}"
            pieces.append(("- " if c < 0 else "+ ") + body)
        text = " ".join(pieces)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]


# ---------------------------------------------------------------------------
# catalogued weight sets


class LambdaSpec(namedtuple("LambdaSpec", "weights primed stride")):
    """Lambda_a and Lambda'_a as frozensets of weights, and the stride t_a."""

    __slots__ = ()

    @property
    def predicted_order(self) -> int:
        return len(self.weights) + self.stride * len(self.primed)


def _distinct_weights(lt, highest) -> frozenset:
    return frozenset(weight_system(lt, highest))


def _character_difference(lt, plus, minus, const: int) -> frozenset:
    """Weight set of chi(L(plus)) - chi(L(minus)) - const; every surviving
    coefficient must be exactly 1."""
    acc: dict[Weight, int] = dict(weight_system(lt, plus))
    if minus is not None:
        for w, m in weight_system(lt, minus).items():
            acc[w] = acc.get(w, 0) - m
    if const:
        z = omega(lt.rank, 0)
        acc[z] = acc.get(z, 0) - const
    acc = {w: m for w, m in acc.items() if m}
    if any(m != 1 for m in acc.values()):
        bad = {w: m for w, m in acc.items() if m != 1}
        raise AssertionError(f"difference character is not multiplicity-free: {bad}")
    return frozenset(acc)


def build_lambda(lt: LieType, a: int) -> LambdaSpec:
    """The catalogued factorization data (Lambda_a, Lambda'_a, stride t_a)."""
    fam, r = lt.family, lt.rank
    t = cartan_data(lt).t
    empty = frozenset()

    if fam == "A":
        spec = LambdaSpec(_distinct_weights(lt, omega(r, a)), empty, 1)
    elif fam == "B" and a == 1:
        nonzero = _distinct_weights(lt, omega(r, 1)) - {omega(r, 0)}
        spec = LambdaSpec(frozenset(nonzero), empty, 1)
    elif fam == "C" and a == 1:
        spec = LambdaSpec(_distinct_weights(lt, omega(r, 1)),
                          frozenset({omega(r, 0)}), t[0])
    elif fam == "D" and a in (1, r - 1, r):
        spec = LambdaSpec(_distinct_weights(lt, omega(r, a)), empty, 1)
    elif (fam, r, a) == ("E", 6, 1) or (fam, r, a) == ("E", 7, 6) or \
            (fam, r, a) == ("E", 8, 7):
        spec = LambdaSpec(_distinct_weights(lt, omega(r, a)), empty, 1)
    elif (fam, a) == ("F", 1):
        lam = _character_difference(lt, omega(4, 1), omega(4, 4), 1)
        spec = LambdaSpec(lam, empty, 1)
    elif (fam, a) == ("F", 4):
        lam1 = _character_difference(lt, omega(4, 1), omega(4, 4), 1)
        lam4 = _character_difference(lt, omega(4, 4), None, 2)
        spec = LambdaSpec(lam4, lam1, t[3])
    elif (fam, a) == ("G", 1):
        lam = _character_difference(lt, omega(2, 1), omega(2, 2), 0)
        spec = LambdaSpec(lam, empty, 1)
    elif (fam, a) == ("G", 2):
        lam1 = _character_difference(lt, omega(2, 1), omega(2, 2), 0)
        lam2 = _character_difference(lt, omega(2, 2), None, 1)
        spec = LambdaSpec(lam2, lam1, t[1])
    else:
        raise NotInCatalogue(f"no catalogued weight sets for {lt} node {a}")

    assert omega(r, a) in spec.weights
    return spec


# ---------------------------------------------------------------------------
# coefficient formulas as exterior-power products

# num(D), den(D) of each family's catalogued nodes (every node of A, node 1 else)
_FORMULA_FACTORS = {"A": ([1], [1]), "B": ([1], [1, -1]), "C": ([1, 0, -1], [1]),
                    "D": ([1], [1])}


def coefficient_formula(lt: LieType, a: int, y, order: int) -> list[Fraction]:
    """C_0..C_order of A(D) = num(D)/den(D) * prod (1 - e^w(y) D) over the
    weights w of res W_1^(a): with e_n the elementary symmetric polynomials
    in the weight values, C_k is e_k for A and D, e_k - e_{k-2} for C and
    sum_n (-1)^(k-n) e_n for B."""
    if lt.family not in _FORMULA_FACTORS or (lt.family != "A" and a != 1):
        _level1_decomposition(lt, a)  # an unknown decomposition is the reason given
        raise NotInCatalogue(f"no coefficient formula for {lt} node {a}")
    values = level1_weight_values(lt, a, y)
    num, den = _FORMULA_FACTORS[lt.family]
    series = linrec.series_divide(
        linrec.poly_mul(num, linrec.expand_linear_product(values)), den, order)
    return [c if k % 2 == 0 else -c for k, c in enumerate(series)]


def _level1_decomposition(lt: LieType, a: int) -> tuple[Weight, ...]:
    """The shipped summands mu of res W_1^(a) = (+) L(mu)."""
    table = default_branching(lt)
    if a not in table:
        raise NotInCatalogue(f"level-1 decomposition of {lt} node {a} unknown")
    return table[a]


def level1_weight_values(lt: LieType, a: int, y) -> list[Fraction]:
    """Weight values of res W_1^(a) at the torus point, with multiplicity."""
    values = []
    for mu in _level1_decomposition(lt, a):
        for w, m in weight_system(lt, mu).items():
            values.extend([evaluate(w, y)] * m)
    return values


def level1_dimension(lt: LieType, a: int) -> int:
    return sum(dimension(lt, mu) for mu in _level1_decomposition(lt, a))


# ---------------------------------------------------------------------------
# coefficient identities in q


CoefficientIdentity = namedtuple("CoefficientIdentity", "k poly label")


def _dual_nodes(lt: LieType) -> tuple[int, ...]:
    """a* for each node a (at index a - 1): -w0(omega_a) = omega_{a*}, and
    -w0(omega_a) is the dominant conjugate of -omega_a."""
    cd = cartan_data(lt)
    return tuple(dominant_conjugate(cd, tuple(-c for c in omega(lt.rank, a))).index(1) + 1
                 for a in range(1, lt.rank + 1))


def _at_dual(vector: tuple, dual: tuple[int, ...]) -> tuple:
    """The vector with entry c replaced by entry c*."""
    return tuple(vector[s - 1] for s in dual)


def identity_catalogue(lt: LieType, a: int):
    """Catalogued identities (k, polynomial in q).  When C_ell is catalogued,
    each C_k with 0 < k < ell - k also gives C_{ell-k}(q) = C_ell * C_k(q*),
    where q*_b = q_{b*}."""
    fam, r = lt.family, lt.rank
    q = lambda i: QPoly.var(r, i)
    one = QPoly.const(r, 1)
    idents: list[CoefficientIdentity] = []
    add = lambda k, poly: idents.append(CoefficientIdentity(k, poly, f"C_{k} = {poly}"))

    if fam == "A":
        add(1, q(a))
        if a == 1:
            for k in range(2, (r + 1) // 2 + 1):
                add(k, q(k))
            add(r + 1, one)
    elif fam == "B" and a == 1:
        for k in range(1, r):
            add(k, q(k) - (q(k - 1) if k >= 2 else one))
        add(r, q(r) * q(r) - 2 * q(r - 1))
        add(2 * r, one)
    elif fam == "C" and a == 1:
        for k in range(1, r + 1):
            add(k, q(k))
        add(r + 1, QPoly(r))
        add(2 * r + 2, -one)
    elif fam == "D" and a == 1:
        add(1, q(1))
        for k in range(2, r - 1):
            add(k, q(k) - (q(k - 2) if k >= 3 else one))
        add(r - 1, q(r - 1) * q(r) - (q(r - 3) if r >= 4 else one))
        add(r, q(r - 1) * q(r - 1) + q(r) * q(r) - 2 * q(r - 2))
        add(2 * r, one)
    elif fam == "D" and a in (r - 1, r):
        add(1, q(a))
    elif (fam, r, a) == ("E", 6, 1):
        add(1, q(1))
        add(2, q(2) - q(5))
        add(3, q(3) - q(1) * q(5) - q(6) + one)
        add(4, q(1) - q(1) * q(6) - q(2) * q(5) + q(4) * q(6))
        add(27, one)
    elif (fam, r, a) == ("E", 7, 6):
        add(1, q(6))
    elif (fam, r, a) == ("E", 8, 7):
        add(1, q(7) - 8 * one)
    elif (fam, a) == ("F", 1):
        add(1, q(1) - q(4) - 2 * one)
    elif (fam, a) == ("F", 4):
        add(1, q(4) - 2 * one)
    elif (fam, a) == ("G", 1):
        add(1, q(1) - q(2) - one)
    elif (fam, a) == ("G", 2):
        add(1, q(2) - one)

    ell = predicted_order(lt, a)
    top = next((i.poly for i in idents if i.k == ell), None)
    if top is not None:
        dual = _dual_nodes(lt)
        idents += [CoefficientIdentity(
            ell - i.k, top * QPoly(r, {_at_dual(e, dual): c for e, c in i.poly.terms.items()}),
            f"C_{ell - i.k} = C_{ell} * C_{i.k}(q*)") for i in idents if 0 < i.k < ell - i.k]
    return idents


# ---------------------------------------------------------------------------
# generating-function numerators

# E6 node 1: numerator entries 0..7 as (integer, signed highest weights) pairs
_E6_NUMERATOR = ((1, ()), (0, ()), (0, ((-1, omega(6, 5)),)), (0, ((1, omega(6, 6)),)),
                 (0, ()), (0, ((-1, omega(6, 2)),)), (0, ((1, (1, 0, 0, 0, 1, 0)),)),
                 (0, ((-1, (0, 0, 0, 0, 2, 0)),)))


def e6_numerator_terms():
    """The sixteen E6 numerator coefficients as (constant, signed highest
    weights) pairs; each evaluates to const + sum sign * chi(L(mu)), and
    entry 15 - n is entry n at the dual highest weights mu*."""
    dual = _dual_nodes(LieType("E", 6))
    return list(_E6_NUMERATOR) + [
        (const, tuple((sign, _at_dual(mu, dual)) for sign, mu in terms))
        for const, terms in reversed(_E6_NUMERATOR)]


def expected_numerator(lt: LieType, a: int) -> list[QPoly]:
    """Catalogued numerator of A(D) * sum Q_m D^m, as QPoly coefficients;
    raises NotInCatalogue elsewhere (E6 node 1's entries are characters,
    see check_numerator)."""
    fam, r = lt.family, lt.rank
    one = QPoly.const(r, 1)
    if fam in ("A", "C") and a == 1:
        return [one]
    if fam == "B" and a == 1:
        return [one, one]
    if fam == "D" and a == 1:
        return [one, QPoly(r), -one]
    if (fam, a) == ("G", 1):
        c = QPoly.var(r, 2) + one
        return [one, c, c, one]
    raise NotInCatalogue(f"no catalogued numerator for {lt} node {a}")


def check_numerator(lt: LieType, a: int, seq, rec: RecurrencePoly, qvals, y):
    """Compare the computed numerator against the catalogue: polynomials in
    the level-1 values qvals, or on E6 node 1 characters at the torus point
    y.  Returns (ok, witness); raises NotInCatalogue when nothing is
    catalogued for this node, or y is None on E6 node 1.
    """
    if (lt.family, lt.rank, a) == ("E", 6, 1):
        if y is None:
            raise NotInCatalogue("the E6 numerator needs character values at a torus point")
        want = [Fraction(const) + sum(sign * evaluate(weight_system(lt, mu), y)
                                      for sign, mu in terms)
                for const, terms in e6_numerator_terms()]
    else:
        want = [p.evaluate(qvals) for p in expected_numerator(lt, a)]
    computed = linrec.numerator(seq, rec)
    if computed == want:
        return True, None
    return False, f"numerator {computed} != catalogued {want}"


# ---------------------------------------------------------------------------
# factorization check


def check_factorization(rec: RecurrencePoly, spec: LambdaSpec, y):
    """Expand prod (1 - e^lam(y) D) * prod (1 - e^lam(y) D^t) and compare
    with A(D) coefficient-wise.  Returns (ok, witness)."""
    plain = [evaluate(w, y) for w in sorted(spec.weights)]
    rhs = linrec.expand_linear_product(plain, 1)
    if spec.primed:
        primed = [evaluate(w, y) for w in sorted(spec.primed)]
        rhs = linrec.poly_mul(rhs, linrec.expand_linear_product(primed, spec.stride))
    lhs = [Fraction(c) for c in rec.alternating()]
    if len(lhs) != len(rhs):
        return False, f"degree {len(lhs) - 1} != expected {len(rhs) - 1}"
    for d, (u, v) in enumerate(zip(lhs, rhs)):
        if u != v:
            return False, f"first mismatch at degree {d}: {u} != {v}"
    return True, None


# ---------------------------------------------------------------------------
# coefficient interpolation across experiments


def degree_monomials(rank: int, max_degree: int = 2) -> list[tuple]:
    """All exponent vectors of total degree <= max_degree, sorted (the
    candidate pool for interpolation)."""
    return sorted(tuple(combo.count(i) for i in range(rank))
                  for degree in range(max_degree + 1)
                  for combo in itertools.combinations_with_replacement(range(rank), degree))


def interpolate_coefficients(rank: int, candidates, experiments):
    """Fit an integer polynomial in q to observed coefficient values.

    experiments: list of (qvals, value of C_k).  Solves exactly on every
    experiment at once and never rounds: a non-integer solution is an error,
    an inconsistent system returns None (no fit).
    """
    candidates = [tuple(c) for c in candidates]
    if len(experiments) < len(candidates) + MARGIN:
        raise ValueError(
            f"need at least {len(candidates) + MARGIN} experiments "
            f"for {len(candidates)} candidates, got {len(experiments)}")
    # each candidate as its (variable, exponent) pairs, read from a table of
    # powers per experiment
    factors = [[(i, e) for i, e in enumerate(exps) if e] for exps in candidates]
    top = max((e for exps in candidates for e in exps), default=0)
    rows = []
    for qvals, _ in experiments:
        powers = [list(itertools.accumulate([v] * top, operator.mul, initial=1))
                  for v in qvals]
        rows.append([math.prod([powers[i][e] for i, e in pairs]) for pairs in factors])
    status, sol = solve_overdetermined(rows, [value for _, value in experiments])
    if status == "underdetermined":
        raise UnderdeterminedSystem(
            f"{len(rows)} experiments do not pin down {len(candidates)} candidates")
    if status == "inconsistent":
        return None
    if any(c.denominator != 1 for c in sol):
        raise NonIntegerSolution([str(c) for c in sol])
    return QPoly(rank, {e: int(c) for e, c in zip(candidates, sol)})


# ---------------------------------------------------------------------------
# growth degrees from dimension tables


class GrowthResult(namedtuple("GrowthResult", "node detected predicted")):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.detected == self.predicted


def check_growth_depths(lt: LieType, sizes) -> None:
    """Raises InsufficientDepth at the first node whose levels, sizes[a - 1]
    of them from level 0 on, are too few to show its growth degree in
    check_growth_degree."""
    t = cartan_data(lt).t
    for a, (size, degree) in enumerate(zip(sizes, growth_degree(lt)), start=1):
        stride = t[a - 1]
        if len(range(0, size, stride)) < degree + 2:
            raise InsufficientDepth(f"node {a} needs at least {stride * (degree + 2)} levels")


def check_growth_degree(lt: LieType, table: QTable) -> list[GrowthResult]:
    """Exact finite differences on the stride-t_a subsequence of each node's
    dimension sequence, compared with the 2*C^-1 row sums."""
    t = cartan_data(lt).t
    predicted = growth_degree(lt)
    check_growth_depths(lt, [len(seq) for seq in table.values])
    results = []
    for a in range(1, lt.rank + 1):
        sub = [Fraction(v) for v in table.node(a)[::t[a - 1]]]
        k = 0
        cur = sub
        while any(c != 0 for c in cur):
            if len(cur) < 2:
                raise InsufficientDepth(
                    f"node {a}: differences did not vanish within the window")
            cur = [cur[i + 1] - cur[i] for i in range(len(cur) - 1)]
            k += 1
        results.append(GrowthResult(a, k - 1, predicted[a - 1]))
    return results


# ---------------------------------------------------------------------------
# ell = dim + delta consistency entries


def elldim_entries(lt: LieType) -> list[tuple[int, int]]:
    """Nodes where C_1 = q_a + delta with t_a = 1, as (node, delta), read
    off the catalogued C_1 identities."""
    t, const = cartan_data(lt).t, (0,) * lt.rank
    entries = []
    for a in range(1, lt.rank + 1):
        for ident in identity_catalogue(lt, a):
            rest = (ident.poly - QPoly.var(lt.rank, a)).terms
            if ident.k == 1 and t[a - 1] == 1 and set(rest) <= {const}:
                entries.append((a, rest.get(const, 0)))
    return entries

