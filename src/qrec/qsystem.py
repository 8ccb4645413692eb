"""Exact solutions of the Q-system recursion

    Q_m^2 = Q_{m+1} Q_{m-1} + prod_{b adjacent} prod_{k=0}^{-C_ab-1}
            Q^{(b)}_{floor((C_ba m - k) / C_ab)}        (per node a, m >= 1)

over the rationals or a prime field, from one of three specializations of
the level-1 data: explicit values, a torus point, or dimensions.
"""
from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction

from .cartan import LieType, _refuse_large_root_systems, cartan_data
from .fields import INTEGERS, RATIONALS, Localization, PrimeField
from .linrec import expand_linear_product
from .weights import Weight, dimension, evaluate, is_dominant, omega, weight_system


class SingularSpecialization(ArithmeticError):
    """Division by zero (or, over Z/m past the Z phase of _table, by a
    non-unit) while advancing the recursion (retry another seed)."""

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


# The three specializations of the level-1 data.  branching, when given, maps
# a node to the dominant weights of its level-1 decomposition.
class RawQ(namedtuple("RawQ", "values")):
    __slots__ = ()

    def __new__(cls, values):
        return super().__new__(cls, tuple(Fraction(v) for v in values))


class CharacterPoint(namedtuple("CharacterPoint", "y branching")):
    __slots__ = ()

    def __new__(cls, y, branching=None):
        y = tuple(Fraction(v) for v in y)
        if any(v == 0 for v in y):
            raise ValueError("torus point entries must be nonzero")
        return super().__new__(cls, y, branching)


class DimensionMode(namedtuple("DimensionMode", "branching", defaults=(None,))):
    __slots__ = ()


def default_branching(lt: LieType) -> dict[int, tuple[Weight, ...]]:
    """Shipped level-1 decompositions res W_1^(a) = (+) L(mu).

    Only the nodes forced by the catalogued C_1 identities are present;
    E6 nodes 2,3,4,6, E7 nodes != 6, E8 nodes != 7 and F4 nodes 2,3 stay
    user-configurable.  omega(r, 0), the zero weight, is the trivial summand.
    """
    r = lt.rank
    table: dict[int, tuple[Weight, ...]] = {}
    fam = lt.family
    if fam in ("A", "C"):
        for a in range(1, r + 1):
            table[a] = (omega(r, a),)
    elif fam == "B":
        for a in range(1, r):
            table[a] = tuple(omega(r, a - 2 * j) for j in range((a // 2) + 1))
        table[r] = (omega(r, r),)
    elif fam == "D":
        for a in range(1, r - 1):
            table[a] = tuple(omega(r, a - 2 * j) for j in range((a // 2) + 1))
        table[r - 1] = (omega(r, r - 1),)
        table[r] = (omega(r, r),)
    elif fam == "G":
        table[1] = (omega(r, 1), omega(r, 0))
        table[2] = (omega(r, 2),)
    elif fam == "F":
        table[1] = (omega(r, 1), omega(r, 0))
        table[4] = (omega(r, 4),)
    elif fam == "E" and r == 6:
        table[1] = (omega(r, 1),)
        table[5] = (omega(r, 5),)
    elif fam == "E" and r == 7:
        table[6] = (omega(r, 6),)
    elif fam == "E" and r == 8:
        table[7] = (omega(r, 7), omega(r, 0))
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


def classical_level1_values(lt: LieType, y) -> list[Fraction]:
    """q_1..q_r of a classical type at the torus point y, every node taken
    with its default_branching decomposition, from the weights of the
    vector representation (see initial_values for the x_i).

    Let e_k be the elementary symmetric polynomials of V: x_1..x_{r+1} on A,
    and otherwise x_i and 1/x_i for i <= r, with one 1 more on B.  Then
    q_a = e_a on A, e_a - e_{a-2} on C, and e_a + e_{a-2} + ... on B below
    node r and on D below node r - 1.  With P = prod (1 + 1/x_i) and
    M = prod (1 - 1/x_i), the B spin node is y_r P, and the D half-spin
    nodes r and r - 1 are y_r (P + M) / 2 and y_r (P - M) / 2.  Builds no
    root or weight system, but refuses a type whose positive roots are past
    the cap, as those would.
    """
    _refuse_large_root_systems(lt)
    fam, r = lt.family, lt.rank
    y = (Fraction(1), *map(Fraction, y))  # y[i] = y_i, with y_0 = 1
    x = [y[i] / y[i - 1] for i in range(1, r + 1)]
    if fam == "A":
        x.append(1 / y[r])
    elif fam == "B":
        x[r - 1] = y[r] * y[r] / y[r - 1]
    elif fam == "D":
        x[r - 2] = y[r - 1] * y[r] / y[r - 2]
        x[r - 1] = y[r] / y[r - 1]
    inverses = [1 / v for v in x]
    weights = x if fam == "A" else x + inverses + [1] * (fam == "B")
    e = [c if k % 2 == 0 else -c for k, c in enumerate(expand_linear_product(weights))]
    if fam == "A":
        return e[1:r + 1]
    if fam == "C":
        return [e[a] - e[a - 2] if a >= 2 else e[a] for a in range(1, r + 1)]
    q = [sum(e[a % 2:a + 1:2]) for a in range(1, r + 1)]
    p = math.prod(1 + v for v in inverses)
    if fam == "B":
        q[r - 1] = y[r] * p
    else:
        m = math.prod(1 - v for v in inverses)
        q[r - 2], q[r - 1] = y[r] * (p - m) / 2, y[r] * (p + m) / 2
    return q


def initial_values(lt: LieType,
                   spec: RawQ | CharacterPoint | DimensionMode) -> list[Fraction]:
    """The level-1 values q_a as exact rationals.

    At a torus point y, q_a is the character of node a's level-1
    decomposition at y.  On A, B, C and D, each node whose decomposition
    is its default_branching one takes it from classical_level1_values,
    with x_i = e^{eps_i}(y) in the eps-basis of the vector representation:
    x_i = y_i / y_{i-1} (y_0 = 1), except that A has x_{r+1} = 1 / y_r, B
    has x_r = y_r^2 / y_{r-1}, and D has x_{r-1} = y_{r-1} y_r / y_{r-2}
    and x_r = y_r / y_{r-1}.  Every other node, on G, F and E and wherever
    a branching overrides the default, sums e^w(y) over the weight systems
    of its summands (Freudenthal)."""
    r = lt.rank
    if isinstance(spec, RawQ):
        if len(spec.values) != r:
            raise ValueError(f"need {r} values for {lt}, got {len(spec.values)}")
        return list(spec.values)
    if isinstance(spec, CharacterPoint):
        if len(spec.y) != r:
            raise ValueError(f"torus point needs {r} entries for {lt}")
        table = resolve_branching(lt, spec.branching)
        shipped = default_branching(lt) if lt.family in "ABCD" else {}
        vector = {a for a in shipped if table[a] == shipped[a]}
        q = classical_level1_values(lt, spec.y) if vector else None
        return [q[a - 1] if a in vector else
                sum((evaluate(weight_system(lt, mu), spec.y) for mu in table[a]),
                    Fraction(0))
                for a in range(1, r + 1)]
    if isinstance(spec, DimensionMode):
        table = resolve_branching(lt, spec.branching)
        return [Fraction(sum(dimension(lt, mu) for mu in table[a]))
                for a in range(1, r + 1)]
    raise TypeError(f"unsupported specialization {spec!r}")


def required_depths(lt: LieType, node: int | None, depth: int) -> list[int]:
    """Minimal per-node depths so Q^(node), or every node when node is None,
    can be advanced to the given level.

    Advancing node a through level m uses Q^(b) at floor((C_ba*m - k)/C_ab),
    which can run ahead of m (node 1 of G2 pulls node 2 to triple depth), so
    the requirement is closed under a fixed point across nodes.
    """
    if node is not None and not 1 <= node <= lt.rank:
        raise ValueError(f"node {node} out of range for {lt}")
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    C = cartan_data(lt).cartan
    r = lt.rank
    need = [max(1, depth) if node in (None, a + 1) else 1 for a in range(r)]
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


class QTable(namedtuple("QTable", "lie_type field_name values spec_kind",
                        defaults=("raw",))):
    """Per-node sequences Q_0..Q_{N_a} of exact field elements: values holds
    one tuple per node."""

    __slots__ = ()

    def node(self, a: int) -> tuple:
        return self.values[a - 1]

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


def _ring(q, field):
    """The ring a table over field is made in: over Q, Z[1/D] for D the lcm
    of q's denominators, since with Q_0 = 1 every level is an integer
    polynomial in q (Di Francesco-Kedem); INTEGERS when D = 1, that is when
    q is integral.  Any other field is its own ring."""
    if field is not RATIONALS:
        return field
    base = math.lcm(*(v.denominator for v in q))
    return Localization(base) if base > 1 else INTEGERS


# Over Z/m at integral q, a table is made over Z while every pending node's
# last level has at most this many bits, then reduced and continued over Z/m.
Z_PHASE_BITS = 2048


def _table(lt, qs, ring):
    """A function that extends a list of tables, one per lane, in place to
    the per-node depths it is given, and returns per lane its table (a list
    of levels per node, made from the level-1 values q of that lane in the
    ring that _ring gives) or the SingularSpecialization that stopped it.

    The lanes advance in lockstep.  Nodes are interleaved: each sweep
    advances every node whose inputs are available, so cross-node index
    excursions resolve without recursion, and a node reads levels appended
    earlier in the sweep.  Every running lane holds as many levels of each
    node as the others, so a sweep works out its schedule once for all of
    them: the nodes it advances, with their levels and the indices of their
    coupling inputs.

    Over Z/m, a lane at integral q starts over INTEGERS (its Z phase): every
    level is an integer polynomial in q, so exact divmod gives the levels
    whose residues Z/m would, with no inverse.  Before the first sweep where
    the last level of one of its pending nodes is longer than Z_PHASE_BITS,
    the lane reduces its stored levels mod m once and continues over Z/m.
    So a level it returns may be an int outside [0, m): _output says how
    generate and levels convert it.

    In each sweep, a lane prepares the divisors of the nodes it advances in
    one ring.divisors call, and takes each quotient as its node's numerator
    is formed.  A lane that divides by zero, or over Z/m past its Z phase by
    a non-unit, stops with SingularSpecialization at the first node that
    divides by it, and the other lanes go on.
    """
    C, r = cartan_data(lt).cartan, lt.rank
    # node a at level m multiplies Q^(b)_{floor((C_ba m - k) / C_ab)}, 0 <= k < -C_ab
    couplings = [[(b, C[b][a], k, C[a][b]) for b in range(r) for k in range(-C[a][b])]
                 for a in range(r)]
    field, tables, lanes = ring, [], []
    for q in qs:
        start = INTEGERS if isinstance(field, PrimeField) and all(
            v.denominator == 1 for v in q) else field
        tables.append([[start.one, start.of(v)] for v in q])
        lanes.append([start, len(lanes)])  # a running lane: its ring and its index
    sizes = [2] * r  # the levels of each node in every running lane

    def extend(depths):
        nonlocal lanes
        while lanes and (pending := [a for a in range(r) if sizes[a] - 1 < depths[a]]):
            steps = []
            for a in pending:
                m, inputs = sizes[a] - 1, []
                for b, c_ba, k, c_ab in couplings[a]:
                    if (i := (c_ba * m - k) // c_ab) >= sizes[b]:
                        break  # an input made later in this sweep or the next
                    inputs.append((b, i))
                else:
                    steps.append((a, m, inputs))
                    sizes[a] += 1
            if not steps:
                raise RuntimeError("recursion scheduling made no progress (bug)")
            stopped = False
            for lane in lanes:
                lane_ring, vals = lane[0], tables[lane[1]]
                if lane_ring is not field and any(vals[a][-1].bit_length() > Z_PHASE_BITS
                                                  for a in pending):
                    lane[0] = lane_ring = field
                    for seq in vals:
                        seq[:] = map(field.reduce, seq)
                try:
                    divisors = lane_ring.divisors([vals[a][m - 1] for a, m, _ in steps])
                except ZeroDivisionError:
                    # a zero or non-unit: prepared per node, so the first to reach it reports it
                    divisors = [None] * len(steps)
                one, divide = lane_ring.one, lane_ring.divide
                for (a, m, inputs), d in zip(steps, divisors):
                    seq, prod = vals[a], None
                    for b, i in inputs:
                        prod = vals[b][i] if prod is None else prod * vals[b][i]
                    num = seq[m] * seq[m] - (one if prod is None else prod)
                    try:
                        d = lane_ring.divisors([seq[m - 1]])[0] if d is None else d
                        seq.append(divide(num, d))
                    except ZeroDivisionError:
                        tables[lane[1]] = SingularSpecialization(a + 1, m - 1)
                        stopped = True
                        break
            if stopped:
                lanes = [lane for lane in lanes if isinstance(tables[lane[1]], list)]
        return tables

    return extend


def _output(ring):
    """What generate and levels apply to each stored level of a table made
    in the ring before handing it out: ring.fraction over Z[1/D], the
    residue over Z/m, where the Z phase stores ints (see _table), and None
    over Z, where levels are handed out as stored."""
    if isinstance(ring, Localization):
        return ring.fraction
    return ring.reduce if isinstance(ring, PrimeField) else None


def generate(lt: LieType, spec: RawQ | CharacterPoint | DimensionMode, target,
             field=RATIONALS) -> QTable:
    """Advance the recursion until the target is reached: either a
    (node, depth) pair or a bare depth meaning every node (see _table)."""
    node, depth = (None, target) if isinstance(target, int) else target
    if depth < 1:
        raise ValueError("target depth must be at least 1")
    q = initial_values(lt, spec)
    ring = _ring(q, field)
    vals = _raised(_table(lt, [q], ring)(required_depths(lt, node, depth))[0])
    if (convert := _output(ring)) is not None:
        vals = [map(convert, seq) for seq in vals]
    return QTable(lie_type=lt, field_name=field.name,
                  values=tuple(tuple(v) for v in vals), spec_kind=type(spec).__name__)


def levels(lt: LieType, q: Sequence[Fraction], node: int, field=RATIONALS):
    """A function n -> [Q^(node)_0, ..., Q^(node)_{n-1}] from the level-1
    values q; each call extends one table to generate's at depth n - 1, so
    each level is made once.  Only the levels of the node returned are
    converted (see _output), each once: to a Fraction at non-integral q
    over Q, to its residue over Z/m."""
    ring = _ring(q, field)
    extend = _table(lt, [q], ring)

    def table(n):
        return _raised(extend(required_depths(lt, node, n - 1))[0])[node - 1]

    if (convert := _output(ring)) is None:
        return lambda n: table(n)[:n]
    made = []

    def read(n):
        seq = table(n)
        made.extend(map(convert, seq[len(made):n]))
        return made[:n]
    return read


def windows(lt: LieType, qs: Sequence[Sequence[Fraction]], node: int, depth: int,
            field=RATIONALS) -> list:
    """Q^(node)_0, ..., Q^(node)_depth from each q of qs, converted as
    levels converts them, or the SingularSpecialization that generate would
    raise there: one table whose lanes are the qs (see _table)."""
    ring = _ring([v for q in qs for v in q], field)
    tables = _table(lt, qs, ring)(required_depths(lt, node, depth))
    convert = _output(ring)
    return [table if isinstance(table, SingularSpecialization) else
            table[node - 1][:depth + 1] if convert is None else
            list(map(convert, table[node - 1][:depth + 1])) for table in tables]


def _raised(lane):
    """A lane's result, raising it when it is an exception."""
    if isinstance(lane, Exception):
        raise lane
    return lane

