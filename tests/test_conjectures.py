import random
from fractions import Fraction

import pytest

from qrec.cartan import LieType
from qrec.conjectures import (NonIntegerSolution, NotInCatalogue, QPoly, UnderdeterminedSystem,
                              build_lambda, check_factorization, check_growth_degree,
                              check_numerator, coefficient_formula, degree_monomials,
                              elldim_entries, expected_numerator,
                              identity_catalogue, interpolate_coefficients,
                              level1_dimension, level1_weight_values)
from qrec.linrec import find_min_recurrence
from qrec.qsystem import CharacterPoint, DimensionMode, RawQ, generate
from qrec.weights import evaluate, weight_system

from helpers_oracles import (E6_NUMERATOR_TERMS, brute_elementary_symmetric, g2_dimension_p2,
                             multi_prime_lane)

F = Fraction


def lt(name):
    return LieType.parse(name)


# ---------------------------------------------------------------------------
# Lambda catalogue


def test_lambda_cardinalities():
    cases = [
        ("A3", 2, 6, 0, 1, 6), ("B3", 1, 6, 0, 1, 6), ("C3", 1, 6, 1, 2, 8),
        ("D4", 1, 8, 0, 1, 8), ("D4", 3, 8, 0, 1, 8), ("D4", 4, 8, 0, 1, 8),
        ("E6", 1, 27, 0, 1, 27), ("E7", 6, 56, 0, 1, 56), ("E8", 7, 241, 0, 1, 241),
        ("F4", 1, 25, 0, 1, 25), ("F4", 4, 24, 25, 2, 74),
        ("G2", 1, 7, 0, 1, 7), ("G2", 2, 6, 7, 3, 27),
    ]
    for name, a, n_lam, n_primed, stride, ell in cases:
        spec = build_lambda(lt(name), a)
        assert len(spec.weights) == n_lam, (name, a)
        assert len(spec.primed) == n_primed, (name, a)
        assert spec.stride == stride, (name, a)
        assert spec.predicted_order == ell, (name, a)


def test_lambda_g2_explicit_sets():
    spec1 = build_lambda(lt("G2"), 1)
    assert spec1.weights == frozenset(
        {(1, 0), (-1, 0), (1, -3), (-1, 3), (2, -3), (-2, 3), (0, 0)})
    spec2 = build_lambda(lt("G2"), 2)
    assert spec2.weights == frozenset(
        {(0, 1), (0, -1), (1, -1), (-1, 1), (1, -2), (-1, 2)})
    assert spec2.primed == spec1.weights


def test_lambda_b_drops_zero_weight():
    spec = build_lambda(lt("B3"), 1)
    assert (0, 0, 0) not in spec.weights
    assert len(spec.weights) == 6


def test_lambda_not_in_catalogue():
    for name, a in [("B3", 2), ("C3", 2), ("E6", 3), ("F4", 2), ("E8", 1)]:
        with pytest.raises(NotInCatalogue):
            build_lambda(lt(name), a)


# ---------------------------------------------------------------------------
# coefficient formulas


def test_c_type_middle_coefficient_vanishes():
    # C_{r+1} = e_{r+1} - e_{r-1} = 0 since the weight values pair into inverses
    for r in (2, 3, 4):
        ltc = lt(f"C{r}")
        y = tuple(F(k + 2, k + 3) for k in range(r))
        assert coefficient_formula(ltc, 1, y, r + 1)[r + 1] == 0


def test_b2_formula_matches_remark_polynomial():
    ltb = lt("B2")
    y = (F(3, 2), F(5, 7))
    c2 = coefficient_formula(ltb, 1, y, 2)[2]  # k = r for r = 2
    q1 = evaluate(weight_system(ltb, (1, 0)), y)
    q2 = evaluate(weight_system(ltb, (0, 1)), y)
    assert c2 == q2 * q2 - 2 * q1


def test_formula_range_checks():
    with pytest.raises(NotInCatalogue):
        coefficient_formula(lt("F4"), 1, (F(1),) * 4, 1)


@pytest.mark.parametrize("name, a", [(f"A{r}", a) for r in range(1, 5) for a in range(1, r + 1)]
                         + [(f"{fam}{r}", 1) for fam, lo in (("B", 2), ("C", 2), ("D", 3))
                            for r in range(lo, lo + 3)])
def test_coefficient_formula_is_the_per_k_exterior_power_combination(name, a):
    ltx = lt(name)
    rng = random.Random(f"formula-{name}-{a}")
    for _ in range(3):
        y = tuple(F(rng.choice([n for n in range(-9, 10) if n]), rng.randint(1, 9))
                  for _ in range(ltx.rank))
        values = level1_weight_values(ltx, a, y)
        e = lambda n: brute_elementary_symmetric(values, n) if 0 <= n <= len(values) else 0
        order = len(values) + 2  # past the product's degree, where C_k = 0
        want = {"A": e, "D": e,
                "B": lambda k: sum((-1) ** (k - n) * e(n) for n in range(k + 1)),
                "C": lambda k: e(k) - e(k - 2)}[ltx.family]
        assert coefficient_formula(ltx, a, y, order) == [want(k) for k in range(order + 1)]


def test_the_coefficient_formula_skip_reasons_keep_their_order():
    # a node without a shipped decomposition reports that before the formula
    for name, a, reason in (
            ("F4", 2, "level-1 decomposition of F4 node 2 unknown"),
            ("B3", 2, "no coefficient formula for B3 node 2"),
            ("D4", 3, "no coefficient formula for D4 node 3")):
        y = tuple(F(k + 2, k + 3) for k in range(lt(name).rank))
        with pytest.raises(NotInCatalogue) as err:
            coefficient_formula(lt(name), a, y, 8)
        assert str(err.value) == reason


# ---------------------------------------------------------------------------
# identities


def test_e6_identity_values():
    q = (17, 22, 38, 40, 14, 31)
    idents = identity_catalogue(lt("E6"), 1)
    values = {i.k: i.poly.evaluate(q) for i in idents}
    assert values[1] == 17
    assert values[2] == 8
    assert values[3] == -230
    assert values[4] == 422
    assert values[23] == -418
    assert values[24] == -230
    assert values[25] == 23
    assert values[26] == 14
    assert values[27] == 1


def test_identity_catalogue_shapes():
    rows = {i.k: i.poly for i in identity_catalogue(lt("B3"), 1)}
    assert set(rows) == set(range(1, 7))
    assert rows[6] == QPoly.const(3, 1)
    rows = {i.k: i.poly for i in identity_catalogue(lt("C3"), 1)}
    assert set(rows) == set(range(1, 9))
    assert rows[8] == QPoly.const(3, -1)
    idents = identity_catalogue(lt("D4"), 1)
    assert {i.k for i in idents} == set(range(1, 9))
    assert identity_catalogue(lt("G2"), 1)[0].poly.evaluate((9, 5)) == 3
    assert identity_catalogue(lt("F4"), 1)[0].poly.evaluate((9, 0, 0, 5)) == 2
    assert identity_catalogue(lt("E8"), 7)[0].poly.evaluate((0,) * 6 + (50, 0)) == 42


def test_identity_labels_name_only_the_variables_of_their_type():
    import re
    from qrec.cartan import order_tables
    for row in order_tables():
        family, r = row["type"], row["rank"]
        for a in range(1, r + 1):
            for ident in identity_catalogue(LieType(family, r), a):
                named = {int(i) for i in re.findall(r"q_(\d+)", ident.label)}
                assert named <= set(range(1, r + 1)), (family, r, a, ident.label)
    # the lowest B/1 and D/1 rows use the constant 1, and say so
    assert identity_catalogue(lt("B3"), 1)[0].label == "C_1 = q_1 - 1"
    assert identity_catalogue(lt("D3"), 1)[1].label == "C_2 = q_2*q_3 - 1"
    assert identity_catalogue(lt("D4"), 1)[1].label == "C_2 = q_2 - 1"


def _textbook_dual(family, r):
    """a -> a* under -w0, as tabulated for each Dynkin diagram."""
    if family == "A":
        return tuple(range(r, 0, -1))
    if family == "D" and r % 2:
        return (*range(1, r - 1), r, r - 1)
    if (family, r) == ("E", 6):
        return (5, 4, 3, 2, 1, 6)
    return tuple(range(1, r + 1))


def test_dual_nodes_are_the_textbook_involutions():
    from qrec.cartan import order_tables
    from qrec.conjectures import _dual_nodes
    for row in order_tables():
        family, r = row["type"], row["rank"]
        assert _dual_nodes(LieType(family, r)) == _textbook_dual(family, r), (family, r)


def test_catalogue_rows_are_distinct_and_within_the_order():
    from qrec.cartan import order_tables
    for row in order_tables():
        ltx = LieType(row["type"], row["rank"])
        for a, ell in enumerate(row["ell"], start=1):
            if ell is None:
                continue
            ks = [i.k for i in identity_catalogue(ltx, a)]
            assert len(set(ks)) == len(ks), (ltx, a, ks)
            assert set(ks) <= set(range(1, ell + 1)), (ltx, a, ks)


def test_qpoly_str_and_arith():
    q2 = QPoly.var(6, 2)
    q5 = QPoly.var(6, 5)
    poly = q2 - q5
    assert str(poly) in ("q_2 - q_5", "-q_5 + q_2")
    assert (poly + q5).terms == q2.terms
    assert str(QPoly(3)) == "0"
    assert (QPoly.var(2, 1) * QPoly.var(2, 1)).evaluate((3, 1)) == 9


# ---------------------------------------------------------------------------
# interpolation


def test_interpolate_recovers_polynomial():
    rng = random.Random(23)
    truth = QPoly(2, {(1, 0): 1})  # q_1
    experiments = []
    for _ in range(12):
        q = (rng.randint(-40, 40), rng.randint(-40, 40))
        experiments.append((q, truth.evaluate(q)))
    cands = degree_monomials(2, 1)
    poly = interpolate_coefficients(2, cands, experiments)
    assert poly == truth


def test_interpolate_no_fit_and_errors():
    rng = random.Random(31)
    experiments = [((rng.randint(-30, 30), rng.randint(-30, 30)),
                    rng.randint(-500, 500)) for _ in range(12)]
    assert interpolate_coefficients(2, degree_monomials(2, 1), experiments) is None
    with pytest.raises(ValueError):
        interpolate_coefficients(2, degree_monomials(2, 1), experiments[:4])
    degenerate = [((1, 1), 7)] * 12  # same point over and over
    with pytest.raises(UnderdeterminedSystem):
        interpolate_coefficients(2, degree_monomials(2, 1), degenerate)
    halves = [((q1, q2), F(q1, 2)) for (q1, q2), _ in experiments]
    with pytest.raises(NonIntegerSolution):
        interpolate_coefficients(2, degree_monomials(2, 1), halves)


# ---------------------------------------------------------------------------
# growth degrees


def test_growth_degree_a1():
    a1 = lt("A1")
    table = generate(a1, DimensionMode(), target=(1, 6))
    results = check_growth_degree(a1, table)
    assert results[0].detected == 1 and results[0].ok


def test_growth_degree_g2_with_closed_form_oracle():
    g2 = lt("G2")
    assert g2_dimension_p2(0) == 1
    assert g2_dimension_p2(1) == 7
    table = generate(g2, DimensionMode(), target=(2, 40))
    node2 = [int(v) for v in table.node(2)]
    assert node2[:20] == [g2_dimension_p2(m) for m in range(20)]
    results = check_growth_degree(g2, table)
    assert [res.detected for res in results] == [6, 10]
    assert all(res.ok for res in results)


def test_growth_degree_insufficient_depth():
    from qrec.conjectures import InsufficientDepth
    g2 = lt("G2")
    table = generate(g2, DimensionMode(), target=(1, 8))
    with pytest.raises(InsufficientDepth):
        check_growth_degree(g2, table)


# ---------------------------------------------------------------------------
# numerators and factorization glue


def test_check_numerator_g2_dimension_mode():
    g2 = lt("G2")
    table = generate(g2, DimensionMode(), target=(1, 22))
    rec = find_min_recurrence(table.node(1))
    ok, _ = check_numerator(g2, 1, table.node(1), rec, (15, 7), None)
    assert ok
    assert rec.order == 7


def test_check_numerator_needs_character_values():
    e6 = lt("E6")
    table = generate(e6, RawQ((17, 22, 38, 40, 14, 31)), target=(1, 62))
    rec = find_min_recurrence(table.node(1))
    with pytest.raises(NotInCatalogue, match="E6 numerator needs character values"):
        check_numerator(e6, 1, table.node(1), rec, (17, 22, 38, 40, 14, 31), None)
    with pytest.raises(NotInCatalogue, match="no catalogued numerator for B3 node 2"):
        check_numerator(lt("B3"), 2, table.node(1), rec, None, None)


def test_check_factorization_a1():
    a1 = lt("A1")
    y = (F(2),)
    table = generate(a1, CharacterPoint(y), target=(1, 16))
    rec = find_min_recurrence(table.node(1))
    assert rec.order == 2
    assert rec.alternating() == [F(1), F(-5, 2), F(1)]  # (1-2D)(1-D/2)
    ok, _ = check_factorization(rec, build_lambda(a1, 1), y)
    assert ok


def test_a_recurrence_of_the_wrong_degree_fails_the_factorization():
    a1, y = lt("A1"), (F(2),)
    rec = find_min_recurrence(generate(a1, CharacterPoint(y), target=(1, 16)).node(1))
    short = rec._replace(order=1, coeffs=rec.coeffs[:2])
    assert check_factorization(short, build_lambda(a1, 1), y) == (False, "degree 1 != expected 2")


def test_e6_numerator_table_reproduces_dimension_series():
    """At the identity point the sixteen catalogued numerator entries over
    (1-D)^27 must reproduce the dimension sequence of the level-m modules;
    the first five values 1, 27, 351, 3003, 19305 pin the table down."""
    from qrec.conjectures import e6_numerator_terms
    from qrec.linrec import expand_linear_product, series_divide
    from qrec.weights import dimension
    e6 = lt("E6")
    values = []
    for const, terms in e6_numerator_terms():
        v = F(const)
        for sign, mu in terms:
            v += sign * dimension(e6, mu)
        values.append(v)
    assert values[:6] == [1, 0, -27, 78, 0, -351]
    assert values[6] == 650 and values[15] == 1
    den = expand_linear_product([F(1)] * 27)
    series = series_divide(values, den, 4)
    assert series == [1, 27, 351, 3003, 19305]
    omega1 = (1, 0, 0, 0, 0, 0)
    assert series == [dimension(e6, tuple(m * c for c in omega1))
                      for m in range(5)]


def test_e6_numerator_terms_match_the_recorded_table():
    """omega_1 and omega_5 both have dimension 27, so the dimension series
    above cannot tell a swapped pair apart; the recorded table can."""
    from qrec.conjectures import e6_numerator_terms
    terms = e6_numerator_terms()
    assert len(terms) == 16
    for n, (got, want) in enumerate(zip(terms, E6_NUMERATOR_TERMS)):
        assert got == want, n


def test_e6_interpolation_recovers_table_rows():
    """Repeated random integer runs pin down C_2 = q_2 - q_5 and
    C_25 = q_4 - q_1 (modular detection keeps the runs fast)."""
    from qrec.fields import PrimeField, seeded_primes
    e6 = lt("E6")
    primes = seeded_primes(3, 61)
    rng = random.Random("interp-e6")
    experiments = {2: [], 25: []}
    while len(experiments[2]) < 12:
        q = tuple(rng.randint(-50, 50) for _ in range(6))

        def factory(p, q=q):
            return generate(e6, RawQ(q), (1, 66), field=PrimeField(p)).node(1)

        try:
            rec = multi_prime_lane(factory, primes)
        except Exception:
            continue
        if rec.order != 27:
            continue
        experiments[2].append((q, rec.coeffs[2]))
        experiments[25].append((q, rec.coeffs[25]))
    cands = degree_monomials(6, 1)
    poly2 = interpolate_coefficients(6, cands, experiments[2])
    poly25 = interpolate_coefficients(6, cands, experiments[25])
    q = lambda i: QPoly.var(6, i)
    assert poly2 == q(2) - q(5)
    assert poly25 == q(4) - q(1)


def test_ell_lambda_for_spin_nodes():
    from qrec.linrec import find_min_recurrence
    from qrec.qsystem import SingularSpecialization
    rng = random.Random("spin")
    for name, a in [("D4", 3), ("D4", 4), ("A3", 2)]:
        ltx = lt(name)
        spec = build_lambda(ltx, a)
        while True:
            q = tuple(rng.randint(-50, 50) for _ in range(ltx.rank))
            try:
                table = generate(ltx, RawQ(q), (a, 2 * spec.predicted_order + 12))
            except SingularSpecialization:
                continue
            break
        rec = find_min_recurrence(table.node(a))
        assert rec.order == spec.predicted_order, (name, a)
        from qrec.conjectures import level1_dimension, elldim_entries
        delta = dict(elldim_entries(ltx)).get(a)
        if delta is not None:
            assert rec.order == level1_dimension(ltx, a) + delta


# recorded from the shipped list, before elldim_entries was computed from
# the catalogued C_1 identities
ELLDIM = {
    **{f"A{r}": [(a, 0) for a in range(1, r + 1)] for r in range(1, 8)},
    **{f"B{r}": [(1, -1)] for r in range(2, 8)},
    **{f"C{r}": [] for r in range(2, 8)},
    **{f"D{r}": [(1, 0), (r - 1, 0), (r, 0)] for r in range(3, 8)},
    "E6": [(1, 0)], "E7": [(6, 0)], "E8": [(7, -8)], "F4": [], "G2": [],
}


def test_elldim_entries_of_every_tabulated_type():
    from qrec.cartan import order_tables
    types = [f"{row['type']}{row['rank']}" for row in order_tables()]
    assert sorted(types) == sorted(ELLDIM) and len(types) == 29
    for name in types:
        assert elldim_entries(lt(name)) == ELLDIM[name], name


def test_elldim_catalogue():
    assert elldim_entries(lt("A3")) == [(1, 0), (2, 0), (3, 0)]
    assert elldim_entries(lt("B4")) == [(1, -1)]
    assert elldim_entries(lt("D4")) == [(1, 0), (3, 0), (4, 0)]
    assert elldim_entries(lt("E8")) == [(7, -8)]
    assert elldim_entries(lt("G2")) == []
    assert level1_dimension(lt("E8"), 7) == 249
    assert level1_dimension(lt("B3"), 2) == 22
