"""Exact solutions of the Q-system recursion

    Q_m^2 = Q_{m+1} Q_{m-1} + prod_{b adjacent} prod_{k=0}^{-C_ab-1}
            Q^{(b)}_{floor((C_ba m - k) / C_ab)}        (per node a, m >= 1)

over the rationals or a prime field, from one of three specializations of
the level-1 data: explicit values, a torus point, or dimensions.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence, Union

from .cartan import LieType, cartan_data
from .fields import RATIONALS, PrimeField
from .weights import Weight, dimension, evaluate, is_dominant, weight_system, zero


class SingularSpecialization(ArithmeticError):
    """Division by zero (or by a non-unit mod m) while advancing the recursion
    (retry another seed)."""

    def __init__(self, node, level):
        self.node = node
        self.level = level
        super().__init__(f"Q^({node}) vanished at level {level}")


class BranchingIncomplete(ValueError):
    def __init__(self, lt, missing):
        self.missing = tuple(missing)
        super().__init__(
            f"no level-1 decomposition is shipped for {lt} nodes {list(missing)}; "
            "supply a branching config for them"
        )


@dataclass(frozen=True)
class RawQ:
    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(Fraction(v) for v in self.values))


@dataclass(frozen=True)
class CharacterPoint:
    y: tuple
    branching: Mapping[int, Sequence[Weight]] | None = None

    def __post_init__(self):
        y = tuple(Fraction(v) for v in self.y)
        if any(v == 0 for v in y):
            raise ValueError("torus point entries must be nonzero")
        object.__setattr__(self, "y", y)


@dataclass(frozen=True)
class DimensionMode:
    branching: Mapping[int, Sequence[Weight]] | None = None


Specialization = Union[RawQ, CharacterPoint, DimensionMode]


def default_branching(lt: LieType) -> dict[int, tuple[Weight, ...]]:
    """Shipped level-1 decompositions res W_1^(a) = (+) L(mu).

    Only the nodes forced by the catalogued C_1 identities are present;
    E6 nodes 2,3,4,6, E7 nodes != 6, E8 nodes != 7 and F4 nodes 2,3 stay
    user-configurable.
    """
    r = lt.rank
    table: dict[int, tuple[Weight, ...]] = {}

    def omega(a):  # 1-based; omega(0) is the trivial summand
        if a == 0:
            return zero(r)
        return tuple(int(i == a - 1) for i in range(r))

    fam = lt.family
    if fam in ("A", "C"):
        for a in range(1, r + 1):
            table[a] = (omega(a),)
    elif fam == "B":
        for a in range(1, r):
            table[a] = tuple(omega(a - 2 * j) for j in range((a // 2) + 1))
        table[r] = (omega(r),)
    elif fam == "D":
        for a in range(1, r - 1):
            table[a] = tuple(omega(a - 2 * j) for j in range((a // 2) + 1))
        table[r - 1] = (omega(r - 1),)
        table[r] = (omega(r),)
    elif fam == "G":
        table[1] = (omega(1), omega(0))
        table[2] = (omega(2),)
    elif fam == "F":
        table[1] = (omega(1), omega(0))
        table[4] = (omega(4),)
    elif fam == "E" and r == 6:
        table[1] = (omega(1),)
        table[5] = (omega(5),)
    elif fam == "E" and r == 7:
        table[6] = (omega(6),)
    elif fam == "E" and r == 8:
        table[7] = (omega(7), omega(0))
    return table


def resolve_branching(lt: LieType, override=None) -> dict[int, tuple[Weight, ...]]:
    """Defaults merged with a user table; refuses unless every node is covered."""
    table = default_branching(lt)
    if override:
        for a, parts in override.items():
            a = int(a)
            if not 1 <= a <= lt.rank:
                raise ValueError(f"branching node {a} out of range for {lt}")
            parts = tuple(tuple(int(c) for c in w) for w in parts)
            for w in parts:
                if len(w) != lt.rank or not is_dominant(w):
                    raise ValueError(f"branching entry {w} is not a dominant weight")
            table[a] = parts
    missing = [a for a in range(1, lt.rank + 1) if a not in table]
    if missing:
        raise BranchingIncomplete(lt, missing)
    return table


def initial_values(lt: LieType, spec: Specialization) -> list[Fraction]:
    """The level-1 values q_a as exact rationals."""
    r = lt.rank
    if isinstance(spec, RawQ):
        if len(spec.values) != r:
            raise ValueError(f"need {r} values for {lt}, got {len(spec.values)}")
        return list(spec.values)
    if isinstance(spec, CharacterPoint):
        if len(spec.y) != r:
            raise ValueError(f"torus point needs {r} entries for {lt}")
        table = resolve_branching(lt, spec.branching)
        return [sum((evaluate(weight_system(lt, mu), spec.y) for mu in table[a]),
                    Fraction(0))
                for a in range(1, r + 1)]
    if isinstance(spec, DimensionMode):
        table = resolve_branching(lt, spec.branching)
        return [Fraction(sum(dimension(lt, mu) for mu in table[a]))
                for a in range(1, r + 1)]
    raise TypeError(f"unsupported specialization {spec!r}")


def _close_depths(lt: LieType, need: list[int]) -> list[int]:
    C = cartan_data(lt).cartan
    r = lt.rank
    need = [max(1, n) for n in need]
    changed = True
    while changed:
        changed = False
        for a in range(r):
            m = need[a] - 1  # deepest level whose relation is used
            if m < 1:
                continue
            for b in range(r):
                if b == a or C[a][b] == 0:
                    continue
                k_max = -C[a][b] - 1
                idx = (C[b][a] * m - k_max) // C[a][b]
                if need[b] < idx:
                    need[b] = idx
                    changed = True
    return need


def required_depths(lt: LieType, node: int, depth: int) -> list[int]:
    """Minimal per-node depths so Q^(node) can be advanced to the given level.

    Advancing node a through level m uses Q^(b) at floor((C_ba*m - k)/C_ab),
    which can run ahead of m (node 1 of G2 pulls node 2 to triple depth), so
    the requirement is closed under a fixed point across nodes.
    """
    if not 1 <= node <= lt.rank:
        raise ValueError(f"node {node} out of range for {lt}")
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    need = [1] * lt.rank
    need[node - 1] = max(1, depth)
    return _close_depths(lt, need)


@dataclass(frozen=True)
class QTable:
    """Per-node sequences Q_0..Q_{N_a} of exact field elements."""

    lie_type: LieType
    field_name: str
    values: tuple[tuple, ...]
    spec_kind: str = "raw"

    def node(self, a: int) -> tuple:
        return self.values[a - 1]

    def depth(self, a: int) -> int:
        return len(self.values[a - 1]) - 1

    def to_json_dict(self) -> dict:
        return {
            "type": str(self.lie_type),
            "rank": self.lie_type.rank,
            "field": self.field_name,
            "mode": self.spec_kind,
            "values": {str(a + 1): [str(v) for v in seq]
                       for a, seq in enumerate(self.values)},
        }

    def to_csv_rows(self):
        yield ("node", "m", "value")
        for a, seq in enumerate(self.values, start=1):
            for m, v in enumerate(seq):
                yield (str(a), str(m), str(v))


def _product_term(C, vals, field, a, m):
    """The coupling product for node a at level m, or None if inputs missing."""
    prod = field.one
    for b in range(len(C)):
        if b == a or C[a][b] == 0:
            continue
        for k in range(-C[a][b]):
            idx = (C[b][a] * m - k) // C[a][b]
            if idx >= len(vals[b]):
                return None
            prod = field.mul(prod, vals[b][idx])
    return prod


def generate(lt: LieType, spec: Specialization, target,
             field=RATIONALS) -> QTable:
    """Advance the recursion until the target is reached: either a
    (node, depth) pair or a bare depth meaning every node.

    Nodes are interleaved: each sweep advances every node whose inputs are
    available, so cross-node index excursions resolve without recursion.
    Raises SingularSpecialization on division by zero in the field, or over
    Z/m by a non-unit.
    """
    if isinstance(target, int):
        node, depth = None, target
    else:
        node, depth = target
    if depth < 1:
        raise ValueError("target depth must be at least 1")
    C = cartan_data(lt).cartan
    r = lt.rank
    if node is None:
        depths = _close_depths(lt, [depth] * r)
    else:
        depths = required_depths(lt, node, depth)
    q = initial_values(lt, spec)
    check_integrality = field is RATIONALS and all(v.denominator == 1 for v in q)
    vals = [[field.one, field.of(v)] for v in q]
    while any(len(vals[a]) - 1 < depths[a] for a in range(r)):
        advanced = False
        for a in range(r):
            m = len(vals[a]) - 1
            if m >= depths[a]:
                continue
            prod = _product_term(C, vals, field, a, m)
            if prod is None:
                continue
            num = field.sub(field.mul(vals[a][m], vals[a][m]), prod)
            try:
                nxt = field.div(num, vals[a][m - 1])
            except ZeroDivisionError:
                raise SingularSpecialization(a + 1, m - 1) from None
            if check_integrality and nxt.denominator != 1:
                raise AssertionError(
                    f"integrality violated at node {a + 1} level {m + 1}: {nxt} "
                    "(this is a bug, not bad input)"
                )
            vals[a].append(nxt)
            advanced = True
        if not advanced:
            raise RuntimeError("recursion scheduling made no progress (bug)")
    kind = type(spec).__name__
    return QTable(lie_type=lt, field_name=field.name,
                  values=tuple(tuple(v) for v in vals), spec_kind=kind)


def check_relation(table: QTable, a: int, m: int, field=RATIONALS) -> bool:
    """Re-verify the defining relation at (a, m) from the stored values."""
    C = cartan_data(table.lie_type).cartan
    vals = [list(seq) for seq in table.values]
    prod = _product_term(C, vals, field, a - 1, m)
    if prod is None:
        raise ValueError(f"stored table too shallow to check node {a} level {m}")
    seq = vals[a - 1]
    lhs = field.mul(seq[m], seq[m])
    rhs = field.add(field.mul(seq[m + 1], seq[m - 1]), prod)
    return lhs == rhs
