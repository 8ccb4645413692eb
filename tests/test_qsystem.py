import random
from fractions import Fraction

import pytest

from qrec.cartan import LieType
from qrec.fields import RATIONALS, PrimeField, seeded_primes
from qrec.qsystem import (BranchingIncomplete, CharacterPoint, DimensionMode,
                          RawQ, SingularSpecialization, check_relation,
                          default_branching, generate, initial_values,
                          required_depths, resolve_branching)
from qrec.weights import evaluate, weight_system

F = Fraction

E6 = LieType.parse("E6")
G2 = LieType.parse("G2")
B2 = LieType.parse("B2")


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
    assert all(check_relation(table, 1, m) for m in range(1, 9))


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
        for p in primes:
            modular = generate(lt, RawQ(q), target=(1, 40), field=PrimeField(p))
            for a in range(1, lt.rank + 1):
                want = [int(v) % p for v in rational.node(a)]
                got = list(modular.node(a))
                assert want == got[:len(want)] or want[:len(got)] == got, (name, p, a)


def test_singular_specialization():
    lt = LieType.parse("A1")
    with pytest.raises(SingularSpecialization) as err:
        generate(lt, RawQ((1,)), target=(1, 6))
    assert err.value.node == 1


def test_non_unit_divisor_is_singular():
    # q = p1 is nonzero mod p1*p2*p3 but not a unit, and Q_3 divides by it
    p1, p2, p3 = seeded_primes(3, 0)
    with pytest.raises(SingularSpecialization):
        generate(LieType.parse("A1"), RawQ((p1,)), target=(1, 6),
                 field=PrimeField(p1 * p2 * p3))


def test_character_point_initial_values():
    lt = LieType.parse("A2")
    y = (F(2), F(3))
    q = initial_values(lt, CharacterPoint(y))
    assert q[0] == F(23, 6)
    assert q[1] == evaluate(weight_system(lt, (0, 1)), y)


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
