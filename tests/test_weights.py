import hashlib
import random
from fractions import Fraction

import pytest

from qrec.cartan import LieType, cartan_data, order_tables, positive_roots
from qrec.weights import DimensionCapExceeded, dimension, evaluate, reflect, weight_system

from helpers_oracles import brute_elementary_symmetric


def omega(lt, a):
    return tuple(int(i == a - 1) for i in range(lt.rank))


POSITIVE_ROOT_COUNTS = {
    "A4": 10, "B3": 9, "C4": 16, "D4": 12, "G2": 6, "F4": 24,
    "E6": 36, "E7": 63, "E8": 120,
}


@pytest.mark.parametrize("name,count", sorted(POSITIVE_ROOT_COUNTS.items()))
def test_positive_root_counts(name, count):
    assert len(positive_roots(LieType.parse(name))) == count


def test_a1_weight_system():
    lt = LieType.parse("A1")
    assert weight_system(lt, (1,)) == {(1,): 1, (-1,): 1}


def test_e6_27_dimensional():
    lt = LieType.parse("E6")
    ws = weight_system(lt, omega(lt, 1))
    assert len(ws) == 27 and set(ws.values()) == {1}


def test_e8_adjoint_weights():
    lt = LieType.parse("E8")
    ws = weight_system(lt, omega(lt, 7))
    assert sum(ws.values()) == 248
    assert ws[(0,) * 8] == 8
    assert sum(1 for w, m in ws.items() if m == 1) == 240


DIMENSIONS = [
    ("E6", {"w1": 1}, 27), ("E6", {"w2": 1}, 351), ("E6", {"w4": 1}, 351),
    ("E6", {"w5": 1}, 27), ("E6", {"w6": 1}, 78),
    ("E6", {"w1": 1, "w5": 1}, 650), ("E6", {"w1": 2}, 351), ("E6", {"w5": 2}, 351),
    ("E6", {"w1": 3}, 3003),
    ("E7", {"w6": 1}, 56), ("E8", {"w7": 1}, 248),
    ("F4", {"w1": 1}, 52), ("F4", {"w4": 1}, 26),
    ("G2", {"w1": 1}, 14), ("G2", {"w2": 1}, 7),
]


@pytest.mark.parametrize("name,spec,expected", DIMENSIONS)
def test_dimension_fixtures(name, spec, expected):
    lt = LieType.parse(name)
    highest = [0] * lt.rank
    for key, c in spec.items():
        highest[int(key[1:]) - 1] = c
    assert dimension(lt, tuple(highest)) == expected


def test_dimension_of_trivial_module():
    for name in ["A1", "B3", "E7"]:
        lt = LieType.parse(name)
        assert dimension(lt, (0,) * lt.rank) == 1


def test_dimension_rejects_non_dominant():
    with pytest.raises(ValueError):
        dimension(LieType.parse("A2"), (1, -1))
    with pytest.raises(ValueError):
        weight_system(LieType.parse("A2"), (-1, 0))


def test_dimension_cap(monkeypatch):
    monkeypatch.setenv("QREC_CAP_DIM", "1000")
    with pytest.raises(DimensionCapExceeded) as err:
        weight_system(LieType.parse("A2"), (40, 40))
    assert "68921" in str(err.value)  # the offending dimension is named


# fundamental weight systems whose size must match the Weyl dimension formula
FREUDENTHAL_SWEEP = (
    [f"A{r}" for r in range(1, 5)] + [f"B{r}" for r in range(2, 5)]
    + [f"C{r}" for r in range(2, 5)] + ["D4", "G2", "F4"]
)


def test_freudenthal_counts_match_weyl_dimension():
    for name in FREUDENTHAL_SWEEP:
        lt = LieType.parse(name)
        for a in range(1, lt.rank + 1):
            ws = weight_system(lt, omega(lt, a))
            assert sum(ws.values()) == dimension(lt, omega(lt, a)), (name, a)
    for name, a in [("E6", 1), ("E6", 2), ("E6", 5), ("E6", 6), ("E7", 6)]:
        lt = LieType.parse(name)
        ws = weight_system(lt, omega(lt, a))
        assert sum(ws.values()) == dimension(lt, omega(lt, a)), (name, a)


def test_weyl_stability_and_zero_sum():
    for name, highest in [("A3", (1, 0, 1)), ("B3", (0, 1, 0)), ("G2", (1, 0)),
                          ("C3", (0, 0, 1)), ("D4", (0, 1, 0, 0))]:
        lt = LieType.parse(name)
        cd = cartan_data(lt)
        ws = weight_system(lt, highest)
        for a in range(lt.rank):
            for w, m in ws.items():
                assert ws.get(reflect(cd, w, a)) == m
        total = [0] * lt.rank
        for w, m in ws.items():
            total = [x + m * c for x, c in zip(total, w)]
        assert all(x == 0 for x in total)


def test_evaluate_examples():
    lt = LieType.parse("A2")
    y = (Fraction(2), Fraction(3))
    ws = weight_system(lt, (1, 0))
    values = sorted(evaluate(w, y) for w in ws)
    # enumerated by hand: omega_1, omega_2 - omega_1, -omega_2
    assert values == [Fraction(1, 3), Fraction(3, 2), Fraction(2)]
    assert evaluate(ws, y) == Fraction(23, 6)
    assert evaluate((0, 0), y) == 1
    product = Fraction(1)
    for w in ws:
        product *= evaluate(w, y)
    assert product == 1  # weights of the vector representation sum to zero


def test_evaluate_is_multiplicative():
    rng = random.Random(7)
    lt = LieType.parse("B3")
    y = tuple(Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(3))
    for _ in range(25):
        w1 = tuple(rng.randint(-4, 4) for _ in range(3))
        w2 = tuple(rng.randint(-4, 4) for _ in range(3))
        w12 = tuple(a + b for a, b in zip(w1, w2))
        assert evaluate(w12, y) == evaluate(w1, y) * evaluate(w2, y)


def test_evaluate_matches_a_product_of_fraction_powers():
    # the reference: one Fraction power per coordinate, normalised at each product
    rng = random.Random(11)
    nonzero = [n for n in range(-9, 10) if n]
    for rank in (1, 2, 4, 6):
        for _ in range(40):
            y = tuple(Fraction(rng.choice(nonzero), rng.randint(1, 9)) for _ in range(rank))
            w = tuple(rng.randint(-5, 5) for _ in range(rank))
            want = Fraction(1)
            for v, e in zip(y, w):
                want *= Fraction(v) ** e
            got = evaluate(w, y)
            assert type(got) is Fraction and got == want, (y, w)
    assert evaluate((2, -3), (-2, 3)) == Fraction(4, 27)
    assert evaluate((-1,), (-3,)) == Fraction(-1, 3)
    assert evaluate((-1, 1), (4, 6)) == Fraction(3, 2)  # integer entries


def test_exterior_power_link():
    # e_2 of the A2 vector-representation values equals the L(omega_2) character
    lt = LieType.parse("A2")
    y = (Fraction(2), Fraction(3))
    values = [evaluate(w, y) for w in weight_system(lt, (1, 0))]
    assert brute_elementary_symmetric(values, 2) == evaluate(weight_system(lt, (0, 1)), y)
    # e_n of the full weight multiset of L(omega_1) in A_{n-1} is 1
    for r in (2, 3, 4):
        ltr = LieType.parse(f"A{r}")
        yr = tuple(Fraction(k + 2, 3) for k in range(r))
        vals = [evaluate(w, yr) for w in weight_system(ltr, omega(ltr, 1))]
        assert brute_elementary_symmetric(vals, r + 1) == 1


# Pinned before the weights layer moved from a Fraction quadratic form to
# integer pairings: each digest hashes repr((type, a, value)) for every
# fundamental weight omega_a of the 29 tabulated types, in table order
# (the weight systems only up to dimension 20000).
FUNDAMENTAL_SYSTEMS_SHA256 = "9223f890c3f7d3be9e95d949011a124c5d0ff1e454ad9ab7554a7f86f2ed6c34"
FUNDAMENTAL_DIMENSIONS_SHA256 = "e0726f144e5836e366053995fc0311a61b0702523126d3d897db3c16164ad66a"


def fundamental_modules():
    for row in order_tables():
        lt = LieType(row["type"], row["rank"])
        for a in range(1, lt.rank + 1):
            yield lt, a


def test_fundamental_weight_systems_match_the_pinned_digest():
    digest, count = hashlib.sha256(), 0
    for lt, a in fundamental_modules():
        if dimension(lt, omega(lt, a)) <= 20000:
            entries = sorted(weight_system(lt, omega(lt, a)).items())
            digest.update(repr((str(lt), a, entries)).encode())
            count += 1
    assert count == 126
    assert digest.hexdigest() == FUNDAMENTAL_SYSTEMS_SHA256


def test_fundamental_dimensions_match_the_pinned_digest():
    digest = hashlib.sha256()
    for lt, a in fundamental_modules():
        digest.update(repr((str(lt), a, dimension(lt, omega(lt, a)))).encode())
    assert digest.hexdigest() == FUNDAMENTAL_DIMENSIONS_SHA256
