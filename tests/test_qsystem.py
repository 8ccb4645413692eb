import math
import random
from fractions import Fraction

import pytest

from qrec import fields, qsystem
from qrec.cartan import LieType, cartan_data, order_tables
from qrec.fields import INTEGERS, RATIONALS, PrimeField, seeded_primes
from qrec.qsystem import (BranchingIncomplete, CharacterPoint, DimensionMode,
                          RawQ, SingularSpecialization, default_branching,
                          generate, initial_values, levels, required_depths,
                          resolve_branching)
from qrec.weights import evaluate, weight_system

from helpers_oracles import check_relation, fraction_table, lane_levels
from test_cli import E6_BRANCHING
from test_cli_digests import BAD_BRANCHING

F = Fraction

E6 = LieType.parse("E6")
G2 = LieType.parse("G2")
B2 = LieType.parse("B2")


def test_specializations_convert_and_check_their_entries():
    assert RawQ(values=[1, "2/3"]) == RawQ((F(1), F(2, 3)))
    assert type(RawQ([1]).values[0]) is F
    point = CharacterPoint(y=[2, "1/3"])
    assert point.y == (F(2), F(1, 3)) and point.branching is None
    with pytest.raises(ValueError, match="nonzero"):
        CharacterPoint((1, 0))
    assert DimensionMode().branching is None
    assert repr(DimensionMode()) == "DimensionMode(branching=None)"
    with pytest.raises(AttributeError):
        point.y = (F(1), F(1))


def test_floor_semantics_on_negative_operands():
    # the recursion indices divide negative numerators by negative couplings;
    # Python's // is the mathematical floor, which these cases pin down
    assert (-7) // (-2) == 3      # floor(3.5)
    assert (-8) // (-3) == 2      # floor(8/3)
    assert (-1) // (-3) == 0      # floor(1/3)
    assert (-3 * 5 - 2) // (-1) == 17


def test_required_depths_examples():
    A2 = LieType.parse("A2")
    assert required_depths(A2, 1, 12) == [12, 11]
    # G2 node 1 at depth N pulls node 2 to 3(N-1): the deepest product term
    # used when advancing through level m = N-1 is Q^(2)_{3m}
    assert required_depths(G2, 1, 10) == [10, 27]
    # B2 node 2 at depth N needs node 1 at floor(N/2) (k=1 term at m = N-1)
    assert required_depths(B2, 2, 9) == [4, 9]
    assert required_depths(B2, 2, 10) == [5, 10]
    with pytest.raises(ValueError):
        required_depths(A2, 3, 5)


def test_a1_closed_form():
    lt = LieType.parse("A1")
    table = generate(lt, RawQ((2,)), target=(1, 9))
    assert [int(v) for v in table.node(1)] == list(range(1, 11))
    # closed form m+1 satisfies the relation: (m+1)^2 = (m+2)m + 1
    assert all(check_relation([[2]], table.values, 1, m) for m in range(1, 9))


@pytest.mark.parametrize("name, q", [("G2", (3, -5)), ("B3", (4, -2, 7)),
                                     ("C3", (-3, 5, 2)), ("F4", (2, -3, 5, 7))])
def test_every_stored_level_satisfies_the_q_system_relation(name, q):
    lt = LieType.parse(name)
    table = generate(lt, RawQ(q), target=8)
    cartan = cartan_data(lt).cartan
    for a, seq in enumerate(table.values, start=1):
        assert all(check_relation(cartan, table.values, a, m) for m in range(1, len(seq) - 1))


def test_e6_example_table():
    table = generate(E6, RawQ((17, 22, 38, 40, 14, 31)), target=3)
    assert [int(table.node(a)[2]) for a in range(1, 7)] == \
        [267, -162, -25836, 1068, 156, 923]
    assert [int(table.node(a)[3]) for a in range(1, 7)] == \
        [4203, 314748, 21768228, 129276, 1662, 28315]


def test_g2_dimension_sequence():
    table = generate(G2, DimensionMode(), target=(1, 4))
    assert [int(v) for v in table.node(1)] == [1, 15, 92, 365, 1113]
    assert initial_values(G2, DimensionMode()) == [F(15), F(7)]


def test_dimension_mode_positive():
    for name in ("A3", "B3", "C3", "D4", "G2"):
        lt = LieType.parse(name)
        table = generate(lt, DimensionMode(), target=(1, 12))
        for a in range(1, lt.rank + 1):
            seq = table.node(a)
            assert all(v.denominator == 1 and v > 0 for v in seq), (name, a)


def test_integrality_of_integer_specializations():
    rng = random.Random(13)
    for name in ("A3", "B3", "G2"):
        lt = LieType.parse(name)
        q = tuple(rng.randint(-50, 50) for _ in range(lt.rank))
        try:
            table = generate(lt, RawQ(q), target=(1, 15))
        except SingularSpecialization:
            continue
        for a in range(1, lt.rank + 1):
            assert all(v.denominator == 1 for v in table.node(a)), (name, q)


def test_modular_consistency():
    rng = random.Random(29)
    primes = seeded_primes(3, 17)
    for name in ("A3", "B3", "G2"):
        lt = LieType.parse(name)
        q = tuple(rng.randint(-50, 50) for _ in range(lt.rank))
        rational = generate(lt, RawQ(q), target=(1, 40))
        for p in primes + [math.prod(primes)]:
            modular = generate(lt, RawQ(q), target=(1, 40), field=PrimeField(p))
            for a in range(1, lt.rank + 1):
                want = [int(v) % p for v in rational.node(a)]
                got = list(modular.node(a))
                assert want == got[:len(want)] or want[:len(got)] == got, (name, p, a)


@pytest.mark.parametrize("row", order_tables(), ids=lambda row: f"{row['type']}{row['rank']}")
def test_integral_tables_are_ints_that_agree_modulo_m(row):
    lt = LieType(row["type"], row["rank"])
    cartan = cartan_data(lt).cartan
    field = PrimeField(math.prod(seeded_primes(3, 0)))
    rng = random.Random(f"integral-{lt}")
    for _ in range(3):
        q = RawQ([rng.randint(-50, 50) for _ in range(lt.rank)])
        try:
            table = generate(lt, q, target=40)
        except SingularSpecialization as err:
            with pytest.raises(SingularSpecialization) as modular_err:
                generate(lt, q, target=40, field=field)
            assert (modular_err.value.node, modular_err.value.level) == (err.node, err.level)
            continue
        modular = generate(lt, q, target=40, field=field)
        for a, seq in enumerate(table.values, start=1):
            assert all(type(v) is int for v in seq), (lt, q, a)
            assert [v % field.modulus for v in seq] == list(modular.node(a)), (lt, q, a)
            assert all(check_relation(cartan, table.values, a, m) for m in range(1, len(seq) - 1))


def test_a_zero_level_enters_the_coupling_product():
    # Q^(1)_1 = 0 makes node 2's product at m = 1 zero, not an empty product
    A2 = LieType.parse("A2")
    for field in (RATIONALS, PrimeField(math.prod(seeded_primes(3, 0)))):
        assert lane_levels(A2, [F(0), F(5)], 2, field)(3) == [1, 5, 25]


def test_a_non_integral_q_keeps_fractions_and_an_inexact_quotient_is_a_bug():
    table = generate(B2, RawQ((F(1, 2), 3)), target=12)
    assert all(type(v) is Fraction for seq in table.values for v in seq)
    cartan = cartan_data(B2).cartan
    assert all(check_relation(cartan, table.values, a, m)
               for a, seq in enumerate(table.values, start=1) for m in range(1, len(seq) - 1))
    # over Z every quotient is exact; a corrupted level leaves a remainder
    extend = qsystem._table(B2, [[F(4), F(-3)]], qsystem._ring([F(4), F(-3)], RATIONALS))
    [vals] = extend(required_depths(B2, None, 3))
    assert all(type(v) is int for seq in vals for v in seq)
    vals[0][3] += 1
    with pytest.raises(AssertionError):
        extend(required_depths(B2, None, 8))


# each (node, level) below was recorded with one division per level, before
# the divisors of a sweep were inverted together


def test_singular_specialization():
    lt = LieType.parse("A1")
    with pytest.raises(SingularSpecialization) as err:
        generate(lt, RawQ((1,)), target=(1, 6))
    assert (err.value.node, err.value.level) == (1, 2)


def test_a_non_unit_divisor_in_the_z_phase_takes_the_exact_quotient():
    # q = p1 is nonzero mod p1*p2*p3 but not a unit, and Q_3 divides by it:
    # over Z the quotient is exact, so the residues are the exact table's
    p1, p2, p3 = seeded_primes(3, 0)
    field = PrimeField(p1 * p2 * p3)
    table = generate(LieType.parse("A1"), RawQ((p1,)), target=(1, 6), field=field)
    exact = generate(LieType.parse("A1"), RawQ((p1,)), target=(1, 6))
    assert list(table.node(1)) == [int(v) % field.modulus for v in exact.node(1)]


def test_non_unit_divisor_is_singular():
    # q = p1 * 2^2100 is longer than Z_PHASE_BITS, so the first sweep is
    # over Z/m, where Q_3 divides by q, a non-unit mod p1*p2*p3
    p1, p2, p3 = seeded_primes(3, 0)
    assert (p1 << 2100).bit_length() > qsystem.Z_PHASE_BITS
    with pytest.raises(SingularSpecialization) as err:
        generate(LieType.parse("A1"), RawQ((p1 << 2100,)), target=(1, 6),
                 field=PrimeField(p1 * p2 * p3))
    assert (err.value.node, err.value.level) == (1, 1)


@pytest.mark.parametrize("name, q, target, modular, label", [
    # the raw-random draw of `qrec detect --type B3 --seed 177`
    ("B3", (19, -37, -1), (1, 40), False, (3, 9)),
    ("C3", (-3, -1, 5), 40, False, (3, 3)),
    # node 1 is the first zero divisor in node order, but it waits for
    # node 3 in the sweep where node 3 divides by zero
    ("B3", (0, 1, 0), 12, False, (3, 1)),
    ("B3", (0, 1, 0), 12, True, (3, 1)),
    # rational q, whose labels were recorded when such tables were made in Fractions
    ("C3", (F(1, 2), F(1, 2), 1), 12, False, (3, 3)),
    ("D4", (F(2, 3), F(3, 2), 1, F(1, 6)), 12, False, (3, 4)),
    ("F4", (F(-1, 3), F(-2, 3), F(-2, 3), F(-1, 3)), 12, False, (1, 8)),
])
def test_singular_draw_keeps_its_label(name, q, target, modular, label):
    field = PrimeField(math.prod(seeded_primes(3, 0))) if modular else RATIONALS
    with pytest.raises(SingularSpecialization) as err:
        generate(LieType.parse(name), RawQ(q), target=target, field=field)
    assert (err.value.node, err.value.level) == label


def _matches_the_fraction_recursion(lt, q, depth):
    """generate's table to the depth equals the Fraction oracle's, and so do
    the levels of each node read in chunks, or both raise at the same
    (node, level).  Returns the table, or None when both raised."""
    try:
        expected = fraction_table(cartan_data(lt).cartan, q, required_depths(lt, None, depth))
    except ZeroDivisionError as zero:
        with pytest.raises(SingularSpecialization) as err:
            generate(lt, RawQ(q), depth)
        assert (err.value.node, err.value.level) == zero.args, (lt, q)
        return None
    table = generate(lt, RawQ(q), depth)
    assert [list(seq) for seq in table.values] == expected, (lt, q)
    for node in range(1, lt.rank + 1):
        read = lane_levels(lt, q, node)
        assert [read(n) for n in (2, 5, depth + 1)] == [expected[node - 1][:n]
                                                      for n in (2, 5, depth + 1)]
    return table


def test_tables_at_random_rational_q_match_the_fraction_recursion():
    rng, made = random.Random(0), []
    for name in ("A1", "A3", "B3", "C3", "D4", "G2", "F4", "C4", "B4"):
        lt = LieType.parse(name)
        for _ in range(10):
            # denominators that share primes, and small numerators, so that
            # some draws divide by zero
            q = [F(rng.choice((-3, -2, -1, 1, 2, 3, 5, 7)),
                   rng.choice((1, 2, 3, 4, 6, 9, 10, 15, 35))) for _ in range(lt.rank)]
            made.append(_matches_the_fraction_recursion(lt, q, 12))
    assert None in made and any(made)


@pytest.mark.parametrize("name, branching, depth", [
    ("A4", None, 10), ("B3", None, 10), ("C3", None, 10), ("D4", None, 8), ("G2", None, 14),
    ("B3", BAD_BRANCHING["branching"], 10),
    ("E6", E6_BRANCHING, 4),
])
def test_tables_at_torus_points_match_the_fraction_recursion(name, branching, depth):
    lt, rng = LieType.parse(name), random.Random(name)
    for _ in range(2):
        y = [F(rng.choice([n for n in range(-9, 10) if n]), rng.randint(1, 9))
             for _ in range(lt.rank)]
        q = initial_values(lt, CharacterPoint(y, branching))
        assert any(v.denominator != 1 for v in q)
        assert _matches_the_fraction_recursion(lt, q, depth) is not None


def test_a_divisor_holding_a_base_factor_takes_another_power(monkeypatch):
    # the q of `detect --type E6 --node 1 --q 1/2,-3/7,5/4,2/9,7/3,-11/6`: a
    # divisor's numerator shares a factor with D = lcm(2, 7, 4, 9, 3, 6), so a
    # first division leaves a remainder and is repeated at one more power of D
    q = [F(v) for v in "1/2,-3/7,5/4,2/9,7/3,-11/6".split(",")]
    table = _matches_the_fraction_recursion(E6, q, 20)
    divisions = []
    monkeypatch.setattr(fields, "divmod", lambda n, d: divisions.append(d) or divmod(n, d),
                        raising=False)
    assert generate(E6, RawQ(q), 20) == table
    assert len(divisions) > sum(len(seq) - 2 for seq in table.values)


def test_character_point_initial_values():
    lt = LieType.parse("A2")
    y = (F(2), F(3))
    q = initial_values(lt, CharacterPoint(y))
    assert q[0] == F(23, 6)
    assert q[1] == evaluate(weight_system(lt, (0, 1)), y)


CLASSICAL = [LieType(family, rank) for family, lowest in (("A", 1), ("B", 2), ("C", 2), ("D", 3))
             for rank in range(lowest, 8)]


def _freudenthal_values(lt, table, y):
    """Each node's character at y, summed over the weight systems of its table entry."""
    return [sum((evaluate(weight_system(lt, mu), y) for mu in table[a]), F(0))
            for a in range(1, lt.rank + 1)]


@pytest.mark.parametrize("lt", CLASSICAL, ids=str)
def test_classical_character_points_come_from_the_vector_representation(lt, monkeypatch):
    rng = random.Random(str(lt))
    points = []
    for _ in range(3):
        y = [F(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(lt.rank)]
        for i in rng.sample(range(lt.rank), rng.randint(1, lt.rank)):
            y[i] = -y[i]
        points.append(tuple(y))
    want = [_freudenthal_values(lt, default_branching(lt), y) for y in points]

    def refuse(lt, highest):
        raise AssertionError(f"built the weight system of {highest}")

    monkeypatch.setattr(qsystem, "weight_system", refuse)
    assert [initial_values(lt, CharacterPoint(y)) for y in points] == want
    assert [qsystem.classical_level1_values(lt, y) for y in points] == want


@pytest.mark.parametrize("lt", CLASSICAL, ids=str)
def test_the_vector_representation_at_the_identity_gives_the_dimensions(lt):
    assert (qsystem.classical_level1_values(lt, (1,) * lt.rank)
            == initial_values(lt, DimensionMode()))


def test_a_branching_override_takes_freudenthal_at_its_node_only(monkeypatch):
    lt = LieType.parse("D5")
    y = (F(-2, 3), F(5), F(3, 7), F(-4), F(7, 2))
    override = {2: [(0, 1, 0, 0, 0)]}  # the default adds the trivial summand
    want = _freudenthal_values(lt, resolve_branching(lt, override), y)
    built = []
    original = qsystem.weight_system
    monkeypatch.setattr(qsystem, "weight_system",
                        lambda lt, mu: built.append(mu) or original(lt, mu))
    q = initial_values(lt, CharacterPoint(y, override))
    assert q == want and built == [(0, 1, 0, 0, 0)]
    assert q[1] != qsystem.classical_level1_values(lt, y)[1]


def test_branching_defaults_and_refusal():
    b3 = default_branching(LieType.parse("B3"))
    assert b3[1] == ((1, 0, 0),)
    assert b3[2] == ((0, 1, 0), (0, 0, 0))
    assert b3[3] == ((0, 0, 1),)
    f4 = LieType.parse("F4")
    assert set(default_branching(f4)) == {1, 4}
    with pytest.raises(BranchingIncomplete) as err:
        initial_values(f4, CharacterPoint((F(1), F(2), F(3), F(4))))
    assert err.value.missing == (2, 3)
    for name in ("E6", "E7", "E8"):
        with pytest.raises(BranchingIncomplete):
            initial_values(LieType.parse(name), DimensionMode())
    # a user table for the missing nodes unblocks the mode
    override = {2: [(0, 0, 0, 0)], 3: [(0, 0, 0, 0)]}
    vals = initial_values(f4, DimensionMode(override))
    assert vals == [F(53), F(1), F(1), F(26)]
    with pytest.raises(ValueError):
        resolve_branching(f4, {2: [(0, -1, 0, 0)]})


def test_e6_character_consistency_to_level_3():
    """Node-1 values at a character point equal the characters of L(m*omega_1).

    The level-1 data for nodes 2 and 3 is not shipped, so the two values the
    recursion actually consumes are derived here from pure character
    arithmetic and fed in as an explicit specialization.
    """
    y = tuple(F(n, d) for n, d in [(2, 3), (3, 2), (1, 2), (2, 1), (5, 3), (3, 4)])
    omega = lambda a: tuple(int(i == a - 1) for i in range(6))
    chi = {m: evaluate(weight_system(E6, tuple(m * c for c in omega(1))), y)
           for m in range(4)}
    q1 = chi[1]
    q2 = q1 * q1 - chi[2]                      # forced by the node-1 relation at m=1
    q3 = chi[3] + (q2 * q2 - chi[2] ** 2) / q1  # forced by the relation at m=2
    q5 = evaluate(weight_system(E6, omega(5)), y)
    spec = RawQ((q1, q2, q3, F(1), q5, F(1)))  # nodes 4,6 unused below level 4
    table = generate(E6, spec, target=(1, 3))
    for m in range(4):
        assert table.node(1)[m] == chi[m], m


def test_table_export_shapes():
    lt = LieType.parse("A2")
    table = generate(lt, RawQ((2, 3)), target=(1, 4))
    payload = table.to_json_dict()
    assert payload["type"] == "A2" and payload["field"] == "rational"
    assert payload["values"]["1"][0] == "1"
    rows = list(table.to_csv_rows())
    assert rows[0] == ("node", "m", "value")
    assert rows[1] == ("1", "0", "1")
    assert all(len(row) == 3 for row in rows)


def test_generate_validates_input():
    with pytest.raises(ValueError):
        generate(E6, RawQ((1, 2, 3)), target=(1, 3))
    with pytest.raises(ValueError):
        generate(G2, RawQ((2, 3)), target=(1, 0))
    with pytest.raises(ValueError):
        CharacterPoint((F(0), F(1)))


def _count_divisions(monkeypatch, divisions):
    """Counts each quotient generation takes, over Z and over Z/m: one per
    level made past level 1."""
    integers_divide, field_divide = INTEGERS.divide, PrimeField.divide
    monkeypatch.setattr(INTEGERS, "divide",
                        lambda num, d: divisions.append(d) or integers_divide(num, d))
    monkeypatch.setattr(PrimeField, "divide",
                        lambda self, num, d: divisions.append(d) or field_divide(self, num, d))


@pytest.mark.parametrize("name, node", [("G2", 1), ("G2", 2), ("F4", 2), ("B3", 3)])
def test_levels_read_the_table_generating_each_level_once(name, node, monkeypatch):
    lt = LieType.parse(name)
    spec = RawQ([(-1) ** a * (7 + 2 * a) for a in range(lt.rank)])
    divisions = []
    _count_divisions(monkeypatch, divisions)
    for field in (RATIONALS, PrimeField(math.prod(seeded_primes(3, 0)))):
        table = generate(lt, spec, (node, 30), field=field)
        made = len(divisions)
        assert made == sum(len(seq) - 2 for seq in table.values)
        divisions.clear()
        read = lane_levels(lt, spec.values, node, field)
        assert [tuple(read(n)) for n in range(1, 32)] == [table.node(node)[:n]
                                                          for n in range(1, 32)]
        assert len(divisions) == made  # the levels of the one-shot table, once each
        divisions.clear()


def test_levels_raise_a_singular_specialization():
    with pytest.raises(SingularSpecialization) as err:
        lane_levels(LieType.parse("A1"), RawQ((1,)).values, 1)(7)
    assert (err.value.node, err.value.level) == (1, 2)


def test_a_stream_read_in_the_readers_chunks_costs_what_its_window_costs(monkeypatch):
    # F4/2 at the draw of `detect --type F4 --node 2 --modular 8 --seed 1`
    from qrec.linrec import find_min_recurrence
    lt = LieType.parse("F4")
    spec = RawQ((-27, -13, 18, 17))
    field = PrimeField(math.prod(seeded_primes(8, 1)))
    table, requests = lane_levels(lt, spec.values, 2, field), []
    rec = find_min_recurrence(lambda n: requests.append(n) or table(n), field=field)
    assert rec.order == 145 and len(requests) > 2 and requests[-1] == 326

    divisions, sweeps = [], []
    _count_divisions(monkeypatch, divisions)
    divisors = PrimeField.divisors
    monkeypatch.setattr(PrimeField, "divisors",
                        lambda self, values: sweeps.append(values) or divisors(self, values))
    read = lane_levels(lt, spec.values, 2, field)
    for n in requests:
        read(n)
    streamed = {"divisions": len(divisions), "sweeps": len(sweeps)}
    divisions.clear()
    sweeps.clear()
    table = generate(lt, spec, (2, requests[-1] - 1), field=field)
    # the same levels, and about the sweeps of one table
    assert len(divisions) == sum(len(seq) - 2 for seq in table.values) > 0
    assert streamed["divisions"] == len(divisions)
    assert streamed["sweeps"] <= 1.1 * len(sweeps)


def _integral_draw(lt, rng, depth):
    """A q in [-50, 50]^r whose exact table to the depth divides by no
    zero, with that table."""
    while True:
        q = [F(rng.randint(-50, 50)) for _ in range(lt.rank)]
        try:
            return q, generate(lt, RawQ(q), depth)
        except SingularSpecialization:
            continue


@pytest.mark.parametrize("name, depth, bits", [
    *[(name, 40, bits) for name in ("A3", "B3", "C3", "D4", "G2", "F4", "E6")
      for bits in (qsystem.Z_PHASE_BITS, 64)],
    # windows that cross the switch at the default Z_PHASE_BITS
    ("F4", 325, qsystem.Z_PHASE_BITS), ("E8", 500, qsystem.Z_PHASE_BITS)])
def test_modular_tables_are_the_exact_table_modulo_m(name, depth, bits, monkeypatch):
    lt, rng = LieType.parse(name), random.Random(f"z-phase-{name}-{depth}")
    monkeypatch.setattr(qsystem, "Z_PHASE_BITS", bits)
    q, exact = _integral_draw(lt, rng, depth)
    longest = max(v.bit_length() for seq in exact.values for v in seq)
    assert (longest > bits) == (bits == 64 or depth > 40)  # the table crosses the switch
    nodes = range(1, lt.rank + 1) if depth == 40 else [2 if name == "F4" else 7]
    for count in (3, 5, 8):
        field = PrimeField(math.prod(seeded_primes(count, depth)))
        want = [[v % field.modulus for v in seq] for seq in exact.values]
        assert [list(seq) for seq in generate(lt, RawQ(q), depth, field).values] == want
        for node in nodes:
            read, n = lane_levels(lt, q, node, field), len(exact.node(node))
            assert [read(k) for k in (2, 33, n)] == [want[node - 1][:k] for k in (2, 33, n)]


def _count_inversions(monkeypatch):
    """The values of every PrimeField.divisors call, one list per call."""
    calls, divisors = [], PrimeField.divisors
    monkeypatch.setattr(PrimeField, "divisors",
                        lambda self, values: calls.append(values) or divisors(self, values))
    return calls


def test_a_shallow_modular_window_makes_no_inversion(monkeypatch):
    # the windows of `interpolate --type E6 --node 1 --modular 3`
    calls = _count_inversions(monkeypatch)
    rng, field = random.Random(1), PrimeField(math.prod(seeded_primes(3, 0)))
    for _ in range(5):
        q = [F(rng.randint(-50, 50)) for _ in range(6)]
        assert len(lane_levels(E6, q, 1, field)(67)) == 67
    assert calls == []


def test_a_deep_modular_table_inverts_once_per_sweep_past_the_switch(monkeypatch):
    # E8 is simply laced: each sweep advances every pending node by one level
    lt, depth = LieType.parse("E8"), 500
    q, exact = _integral_draw(lt, random.Random(7), depth)
    depths = required_depths(lt, 7, depth)
    switch = next(m for m in range(1, max(depths))
                  if any(m < d and exact.values[a][m].bit_length() > qsystem.Z_PHASE_BITS
                         for a, d in enumerate(depths)))
    calls = _count_inversions(monkeypatch)
    field = PrimeField(math.prod(seeded_primes(5, 0)))
    generate(lt, RawQ(q), (7, depth), field)
    assert 0 < len(calls) == max(depths) - switch
    assert [len(values) for values in calls] == [
        sum(m < d for d in depths) for m in range(switch, max(depths))]


def _one_lane(lt, q, node, depth, field):
    """Levels 0..depth of the node from a table of its own, or the
    (node, level) at which that table is singular."""
    try:
        return lane_levels(lt, q, node, field)(depth + 1)
    except SingularSpecialization as err:
        return err.node, err.level


@pytest.mark.parametrize("bits", [qsystem.Z_PHASE_BITS, 64])
@pytest.mark.parametrize("name", ["A3", "B3", "C3", "D4", "G2", "F4", "E6"])
def test_each_lane_of_a_table_is_its_own_table(name, bits, monkeypatch):
    # at 64 bits the lanes leave the Z phase at different sweeps: small q
    # later than large ones; q = 0 divides by zero in the middle of the
    # round, and the last q is not integral, so over Z/m it has no Z phase
    # and over Q it puts every lane in Z[1/2]
    monkeypatch.setattr(qsystem, "Z_PHASE_BITS", bits)
    lt, rng = LieType.parse(name), random.Random(f"lanes-{name}")
    qs = [[F(rng.randint(-bound, bound)) for _ in range(lt.rank)]
          for bound in (50, 2, 50, 1, 50, 3)]
    qs.insert(3, [F(0)] * lt.rank)
    qs.append([F(2 * rng.randint(-9, 9) + 1, 2) for _ in range(lt.rank)])  # no Z phase
    for field in (RATIONALS, *(PrimeField(math.prod(seeded_primes(count, 9)))
                               for count in (3, 8))):
        for node in range(1, lt.rank + 1):
            lanes = [(lane.node, lane.level) if isinstance(lane, SingularSpecialization)
                     else lane for lane in (read(41) for read in levels(lt, qs, node, field))]
            assert lanes == [_one_lane(lt, q, node, 40, field) for q in qs], (field, node)
            assert isinstance(lanes[3], tuple)
    if bits == 64:  # the first level past the switch differs between lanes
        first = set()
        for q in qs[:-1]:
            try:
                table = generate(lt, RawQ(q), 40).values
            except SingularSpecialization:
                continue
            first.add(min(m for seq in table for m, v in enumerate(seq) if v.bit_length() > bits))
        assert len(first) > 1
