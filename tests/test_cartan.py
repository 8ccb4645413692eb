import hashlib
from fractions import Fraction
from math import lcm

import pytest

from qrec.cartan import (LieType, order_tables, cartan_data, growth_degree,
                         lm_coefficient, mm_coefficient, predicted_order)

from helpers_oracles import lm_recursion, mm_recursion, solve_exact

ALL_TYPES = ([f"A{r}" for r in range(1, 8)] + [f"B{r}" for r in range(2, 8)]
             + [f"C{r}" for r in range(2, 8)] + [f"D{r}" for r in range(3, 8)]
             + ["E6", "E7", "E8", "F4", "G2"])

# every tabulated type in table order, then larger classical ranks
GROWTH_TYPES = ALL_TYPES + ["A8", "B8", "C8", "D8", "B12", "C12", "D12", "A15"]

# order tables up to rank 7, embedded independently of the shipped data file
ORDER_TABLE = {
    "A1": [2], "A2": [3, 3], "A3": [4, 6, 4], "A4": [5, 10, 10, 5],
    "A5": [6, 15, 20, 15, 6], "A6": [7, 21, 35, 35, 21, 7],
    "A7": [8, 28, 56, 70, 56, 28, 8],
    "B2": [4, 6], "B3": [6, 13, 20], "B4": [8, 25, 40, 66],
    "B5": [10, 41, 90, 121, 212], "B6": [12, 61, 172, 301, 364, 666],
    "B7": [14, 85, 294, 645, 966, 1093, 2060],
    "C2": [6, 4], "C3": [8, 26, 8], "C4": [10, 42, 98, 16],
    "C5": [12, 62, 182, 342, 32], "C6": [14, 86, 306, 706, 1138, 64],
    "C7": [16, 114, 478, 1318, 2550, 3670, 128],
    "D3": [6, 4, 4], "D4": [8, 25, 8, 8], "D5": [10, 41, 90, 16, 16],
    "D6": [12, 61, 172, 301, 32, 32], "D7": [14, 85, 294, 645, 966, 64, 64],
    "E6": [27, 243, None, 243, 27, 73],
    "E7": [127, None, None, None, None, 56, None],
    "E8": [None, None, None, None, None, None, 241, None],
    "F4": [25, None, None, 74],
    "G2": [7, 27],
}

EXCEPTIONAL_DEGREES = {
    "E6": [16, 30, 42, 30, 16, 22],
    "E7": [34, 66, 96, 75, 52, 27, 49],
    "E8": [92, 182, 270, 220, 168, 114, 58, 136],
    "F4": [16, 30, 42, 22],
    "G2": [6, 10],
}


def test_rank_bounds():
    for bad in ["A0", "B1", "C1", "D2", "E5", "E9", "F3", "G3"]:
        with pytest.raises(ValueError):
            LieType.parse(bad)
    with pytest.raises(ValueError):
        LieType("H", 4)
    assert str(LieType.parse("e6")) == "E6"


def test_lie_type_is_an_immutable_value():
    b3 = LieType(family="B", rank=3)
    with pytest.raises(ValueError):
        LieType(family="B", rank=1)
    assert b3 == LieType.parse("B3") and hash(b3) == hash(LieType("B", 3))
    assert b3 != LieType("C", 3)
    assert repr(b3) == "LieType(family='B', rank=3)"
    with pytest.raises(AttributeError):
        b3.rank = 4
    cd = cartan_data(b3)
    assert cd is cartan_data(LieType("B", 3)) and cd.rank == 3 and cd.lie_type == b3


def test_f4_cartan_matrix():
    cd = cartan_data(LieType.parse("F4"))
    assert cd.cartan == ((2, -1, 0, 0), (-1, 2, -1, 0), (0, -2, 2, -1), (0, 0, -1, 2))
    assert cd.t == (1, 1, 2, 2)


def test_a1_and_g2_cartan():
    a1 = cartan_data(LieType.parse("A1"))
    assert a1.cartan == ((2,),) and a1.t == (1,)
    g2 = cartan_data(LieType.parse("G2"))
    assert g2.cartan == ((2, -1), (-3, 2)) and g2.t == (1, 3)
    assert growth_degree(LieType.parse("G2")) == [6, 10]


@pytest.mark.parametrize("name", ALL_TYPES)
def test_symmetrizability_and_normalization(name):
    lt = LieType.parse(name)
    cd = cartan_data(lt)
    r = lt.rank
    for a in range(r):
        assert cd.cartan[a][a] == 2
        for b in range(r):
            if a != b:
                assert cd.cartan[a][b] in (0, -1, -2, -3)
                assert (cd.cartan[a][b] == 0) == (cd.cartan[b][a] == 0)
            # C = diag(t) * S with S symmetric
            assert Fraction(cd.cartan[a][b], cd.t[a]) == Fraction(cd.cartan[b][a], cd.t[b])
    # t_a = 2 / (alpha_a, alpha_a), in the integer pairing scaled by T = lcm(t):
    # T (x, alpha) = sum_j x_j k_j T / t_j for x in the fundamental-weight basis
    # and alpha = sum_j k_j alpha_j
    T = lcm(*cd.t)
    for a in range(r):
        alpha = tuple(cd.cartan[b][a] for b in range(r))
        k = tuple(int(j == a) for j in range(r))
        assert sum(x * kj * (T // t) for x, kj, t in zip(alpha, k, cd.t)) == 2 * T // cd.t[a]


def test_lm_mm_triangles():
    # rows of the printed triangles
    assert [lm_coefficient(4, n) for n in range(5)] == [1, 8, 25, 40, 41]
    assert [mm_coefficient(3, n) for n in range(4)] == [1, 8, 26, 46]
    assert lm_coefficient(4, 2) == 25
    assert mm_coefficient(3, 2) == 26
    for m in range(0, 21):
        assert lm_coefficient(m, 0) == 1
        assert lm_coefficient(m, m) == (3**m + 1) // 2
        assert mm_coefficient(m, m) == 2 * 3**m - 2**m
    with pytest.raises(ValueError):
        lm_coefficient(3, 4)
    with pytest.raises(ValueError):
        mm_coefficient(3, -1)


def test_the_closed_forms_equal_the_triangles_recursions():
    for m in range(61):
        for n in range(m + 1):
            assert lm_coefficient(m, n) == lm_recursion(m, n), (m, n)
            assert mm_coefficient(m, n) == mm_recursion(m, n), (m, n)


def test_predicted_order_against_embedded_tables():
    for name, expected in ORDER_TABLE.items():
        lt = LieType.parse(name)
        got = [predicted_order(lt, a) for a in range(1, lt.rank + 1)]
        assert got == expected, name
    assert predicted_order(LieType.parse("B7"), 7) == 2060
    assert predicted_order(LieType.parse("G2"), 1) == 7
    assert predicted_order(LieType.parse("G2"), 2) == 27
    assert predicted_order(LieType.parse("E7"), 2) is None


def test_growth_degree_examples():
    assert growth_degree(LieType.parse("F4")) == [16, 30, 42, 22]
    assert growth_degree(LieType.parse("E8")) == [92, 182, 270, 220, 168, 114, 58, 136]
    assert growth_degree(LieType.parse("A3")) == [3, 4, 3]


@pytest.mark.parametrize("name", GROWTH_TYPES)
def test_growth_degree_integral(name):
    """2 rho = 2 (omega_1 + ... + omega_r) has fundamental-weight coordinates
    (2, ..., 2), so its simple-root coordinates, the growth degrees, solve
    C d = 2: a Fraction solve that shares no code with qrec."""
    lt = LieType.parse(name)
    degs = growth_degree(lt)
    assert all(isinstance(d, int) and d > 0 for d in degs)
    if lt.family == "A":
        assert degs == [a * (lt.rank + 1 - a) for a in range(1, lt.rank + 1)]
    assert degs == solve_exact(cartan_data(lt).cartan, [2] * lt.rank)


def test_exceptional_growth_degrees():
    for name, expected in EXCEPTIONAL_DEGREES.items():
        assert growth_degree(LieType.parse(name)) == expected


def test_order_table_rows_match_paper_values():
    rows = {(row["type"], row["rank"]): row for row in order_tables()}
    assert len(rows) == 29
    assert list(rows)[:2] == [("A", 1), ("A", 2)] and list(rows)[-2:] == [("F", 4), ("G", 2)]
    expected = {
        ("G", 2): ([7, 27], [6, 10]),
        ("F", 4): ([25, None, None, 74], [16, 30, 42, 22]),
        ("B", 3): ([6, 13, 20], [5, 8, 9]),
        ("D", 4): ([8, 25, 8, 8], [6, 10, 6, 6]),
        ("C", 4): ([10, 42, 98, 16], [8, 14, 18, 10]),
        ("E", 6): ([27, 243, None, 243, 27, 73], [16, 30, 42, 30, 16, 22]),
    }
    for key, (ell, deg) in expected.items():
        assert (rows[key]["ell"], rows[key]["deg"]) == (ell, deg), key


def test_predicted_order_rejects_bad_node():
    with pytest.raises(ValueError):
        predicted_order(LieType.parse("A3"), 4)


# Pinned before growth degrees were read from the positive roots instead of
# the inverse Cartan matrix: sha256 of repr((type, degrees)) over GROWTH_TYPES.
GROWTH_DEGREES_SHA256 = "6165e6ce668f0e97b7e5e6e581abf2abfaaae29ccd31f8018e7b4ada8a83eef3"


def test_growth_degrees_match_the_pinned_digest():
    assert ALL_TYPES == [f"{row['type']}{row['rank']}" for row in order_tables()]
    digest = hashlib.sha256()
    for name in GROWTH_TYPES:
        digest.update(repr((name, growth_degree(LieType.parse(name)))).encode())
    assert digest.hexdigest() == GROWTH_DEGREES_SHA256


@pytest.mark.parametrize("family, lowest", [("A", 1), ("B", 2), ("C", 2), ("D", 3)])
def test_the_root_cap_counts_the_positive_roots_in_closed_form(family, lowest, monkeypatch):
    import qrec.cartan as cartan
    for rank in range(lowest, 9):
        lt = LieType(family, rank)
        entries = len(cartan.positive_roots(lt)) * rank
        monkeypatch.setattr(cartan, "_ROOT_ENTRY_CAP", entries)
        cartan._refuse_large_root_systems(lt)
        monkeypatch.setattr(cartan, "_ROOT_ENTRY_CAP", entries - 1)
        with pytest.raises(cartan.RootCapExceeded):
            cartan._refuse_large_root_systems(lt)


def test_the_root_cap_admits_a125_and_every_tested_rank():
    import qrec.cartan as cartan
    for name in ("A125", "A15", "B12", "C12", "D12", "E8", "F4", "G2"):
        cartan._refuse_large_root_systems(LieType.parse(name))
    with pytest.raises(cartan.RootCapExceeded, match="A126 has 8001 positive roots"):
        cartan._refuse_large_root_systems(LieType.parse("A126"))


@pytest.mark.parametrize("rank", range(1, 13))
def test_a_roots_in_closed_form_equal_the_root_string_closure(rank):
    import qrec.cartan as cartan
    lt = LieType("A", rank)
    assert cartan.positive_roots(lt) == cartan._root_strings(lt)
