"""Acceptance suite: one test per criterion, each printing a pass line.

Everything runs in exact arithmetic, so every comparison is equality; the
only tolerances are the two wall-clock budgets, asserted as stated.
"""
import math
import random
import time
from fractions import Fraction

import pytest

from qrec.cartan import LieType, order_tables, growth_degree, predicted_order
from qrec.conjectures import (build_lambda, check_factorization,
                              check_growth_degree, check_numerator,
                              coefficient_formula, identity_catalogue,
                              level1_weight_values)
from qrec.fields import PrimeField, seeded_primes
from qrec.linrec import annihilates, find_min_recurrence, numerator
from qrec.qsystem import (CharacterPoint, DimensionMode, RawQ,
                          SingularSpecialization, generate, initial_values)
from qrec.weights import evaluate

from helpers_oracles import brute_elementary_symmetric, g2_dimension_p2, multi_prime_lane

F = Fraction


def detect_depth(ell: int) -> int:
    return 2 * ell + max(8, ell // 4) + 4


def random_q(rng, rank):
    return tuple(rng.randint(-50, 50) for _ in range(rank))


def random_y(rng, rank):
    return tuple(F(rng.choice([n for n in range(-9, 10) if n != 0]),
                   rng.randint(1, 9)) for _ in range(rank))


def detect_node(lt, spec, node, ell, field_primes=None, guard=None):
    depth = detect_depth(ell)
    if field_primes:
        def factory(p):
            return generate(lt, spec, (node, depth), field=PrimeField(p)).node(node)
        return multi_prime_lane(factory, field_primes, guard=guard), None
    table = generate(lt, spec, (node, depth))
    return find_min_recurrence(table.node(node), guard=guard), table


def test_criterion_1_e6_reproduction():
    started = time.perf_counter()
    lt = LieType.parse("E6")
    spec = RawQ((17, 22, 38, 40, 14, 31))
    table = generate(lt, spec, target=3)
    assert [int(table.node(a)[2]) for a in range(1, 7)] == \
        [267, -162, -25836, 1068, 156, 923]
    assert [int(table.node(a)[3]) for a in range(1, 7)] == \
        [4203, 314748, 21768228, 129276, 1662, 28315]
    deep = generate(lt, spec, target=(1, detect_depth(27)))
    head = [int(v) for v in deep.node(1)[:7]]
    assert head == [1, 17, 267, 4203, 64983, 1015833, 15856320]
    rec = find_min_recurrence(deep.node(1))
    assert rec.order == 27
    expected = {0: 1, 1: 17, 2: 8, 3: -230, 4: 422,
                23: -418, 24: -230, 25: 23, 26: 14, 27: 1}
    for k, value in expected.items():
        assert rec.coeffs[k] == value, k
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(f"ACCEPTANCE 1 PASS: E6 table rows, order 27, nine coefficients "
          f"({elapsed:.2f}s rational)")


def test_criterion_2_type_a_orders():
    started = time.perf_counter()
    runs = 0
    for r in range(1, 6):
        lt = LieType.parse(f"A{r}")
        rng = random.Random(f"acc2-{r}")
        done = 0
        while done < 10:
            spec = RawQ(random_q(rng, r))
            try:
                for a in range(1, r + 1):
                    ell = math.comb(r + 1, a)
                    rec, _ = detect_node(lt, spec, a, ell)
                    assert rec.order == ell, (r, a, spec.values)
                    assert rec.coeffs[0] == 1 and rec.coeffs[-1] in (1, -1)
            except SingularSpecialization:
                continue
            done += 1
            runs += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    print(f"ACCEPTANCE 2 PASS: type A orders binom(r+1,a) over {runs} runs "
          f"({elapsed:.2f}s)")


def test_criterion_3_type_a_factorization():
    for r in (1, 2, 3):
        lt = LieType.parse(f"A{r}")
        rng = random.Random(f"acc3-{r}")
        done = 0
        while done < 3:
            y = random_y(rng, r)
            try:
                rec, table = detect_node(lt, CharacterPoint(y), 1, r + 1)
            except SingularSpecialization:
                continue
            lam = build_lambda(lt, 1)
            ok, witness = check_factorization(rec, lam, y)
            assert ok, witness
            values = level1_weight_values(lt, 1, y)
            for k in range(rec.order + 1):
                assert rec.coeffs[k] == brute_elementary_symmetric(values, k), (r, k)
            assert numerator(table.node(1), rec) == [F(1)]
            done += 1
    print("ACCEPTANCE 3 PASS: A1..A3 factorizations, C_k = e_k, numerator 1")


def test_criterion_4_bcd_character_points():
    expectations = {
        "B": (lambda r: 2 * r, [F(1), F(1)]),
        "C": (lambda r: 2 * r + 2, [F(1)]),
        "D": (lambda r: 2 * r, [F(1), F(0), F(-1)]),
    }
    for family, lo in (("B", 2), ("C", 2), ("D", 3)):
        for r in range(lo, 5):
            lt = LieType.parse(f"{family}{r}")
            rng = random.Random(f"acc4-{family}{r}")
            ell_fn, num_expected = expectations[family]
            ell = ell_fn(r)
            while True:
                y = random_y(rng, r)
                try:
                    rec, table = detect_node(lt, CharacterPoint(y), 1, ell)
                except SingularSpecialization:
                    continue
                break
            assert rec.order == ell, (family, r)
            wants = coefficient_formula(lt, 1, y, rec.order)
            for k in range(rec.order + 1):
                assert rec.coeffs[k] == wants[k], (family, r, k)
            assert numerator(table.node(1), rec) == num_expected, (family, r)
            qvals = initial_values(lt, CharacterPoint(y))
            for ident in identity_catalogue(lt, 1):
                assert rec.coeffs[ident.k] == ident.poly.evaluate(qvals), \
                    (family, r, ident.label)
            sign = -1 if family == "C" else 1  # C_k = sign * C_{ell-k}
            for k in range(ell // 2 + 1, ell + 1):
                assert rec.coeffs[k] == sign * rec.coeffs[ell - k], (family, r, k)
    print("ACCEPTANCE 4 PASS: B/C/D character points (orders, formulas, "
          "numerators, remark identities)")


def test_criterion_5_g2_full_suite():
    lt = LieType.parse("G2")
    rng = random.Random("acc5")
    while True:
        y = random_y(rng, 2)
        try:
            rec1, table1 = detect_node(lt, CharacterPoint(y), 1, 7)
            rec2, _ = detect_node(lt, CharacterPoint(y), 2, 27)
        except SingularSpecialization:
            continue
        break
    assert (rec1.order, rec2.order) == (7, 27)
    qvals = initial_values(lt, CharacterPoint(y))
    ok, witness = check_numerator(lt, 1, table1.node(1), rec1, qvals, y)
    assert ok, witness  # 1 + (q_2+1)D + (q_2+1)D^2 + D^3
    lam2 = build_lambda(lt, 2)
    assert lam2.stride == 3 and lam2.primed == build_lambda(lt, 1).weights
    ok, witness = check_factorization(rec2, lam2, y)
    assert ok, witness
    dims = generate(lt, DimensionMode(), target=40)
    assert [int(v) for v in dims.node(1)[:5]] == [1, 15, 92, 365, 1113]
    rec_dim = find_min_recurrence(dims.node(1))
    assert numerator(dims.node(1), rec_dim) == [F(1), F(8), F(8), F(1)]
    growth = check_growth_degree(lt, dims)
    assert [res.detected for res in growth] == [6, 10]
    assert g2_dimension_p2(1) == 7
    assert [int(v) for v in dims.node(2)[:15]] == \
        [g2_dimension_p2(m) for m in range(15)]
    print("ACCEPTANCE 5 PASS: G2 orders (7,27), numerators, stride-3 "
          "factorization, growth degrees (6,10), closed-form oracle")


def test_criterion_6_f4_random_integer_q():
    lt = LieType.parse("F4")
    lam1 = build_lambda(lt, 1)
    lam4 = build_lambda(lt, 4)
    assert len(lam1.weights) == 25
    assert len(lam4.weights) + 2 * len(lam4.primed) == 74
    primes = seeded_primes(3, 41)
    rng = random.Random("acc6")
    done = 0
    while done < 5:
        q = random_q(rng, 4)
        spec = RawQ(q)
        try:
            rec1, _ = detect_node(lt, spec, 1, 25, field_primes=primes)
            rec4, _ = detect_node(lt, spec, 4, 74, field_primes=primes)
        except SingularSpecialization:
            continue
        assert rec1.order == 25 and rec4.order == 74, q
        assert rec1.coeffs[1] == q[0] - q[3] - 2, q
        assert rec4.coeffs[1] == q[3] - 2, q
        done += 1
    print("ACCEPTANCE 6 PASS: F4 orders (25, 74) and C_1 identities over "
          f"{done} random integer specializations")


def test_criterion_7_tabulated_orders():
    primes = seeded_primes(3, 43)
    for name in ["A1", "A2", "A3", "A4", "B2", "B3", "B4",
                 "C2", "C3", "C4", "D3", "D4"]:
        lt = LieType.parse(name)
        rng = random.Random(f"acc7-{name}")
        for a in range(1, lt.rank + 1):
            ell = predicted_order(lt, a)
            while True:
                spec = RawQ(random_q(rng, lt.rank))
                try:
                    rec, _ = detect_node(lt, spec, a, ell, field_primes=primes)
                except SingularSpecialization:
                    continue
                break
            assert rec.order == ell, (name, a)
    for row in order_tables():
        lt = LieType(row["type"], row["rank"])
        assert growth_degree(lt) == row["deg"], str(lt)
    print("ACCEPTANCE 7 PASS: predicted orders confirmed for every classical "
          "type of rank <= 4 (modular), growth degrees match all table rows")


def test_criterion_8_modular_equals_rational():
    primes = seeded_primes(3, 47)
    for name, q in [("A3", (7, -3, 11)), ("G2", (9, 4))]:
        lt = LieType.parse(name)
        spec = RawQ(q)
        for a in range(1, lt.rank + 1):
            ell = predicted_order(lt, a)
            exact, _ = detect_node(lt, spec, a, ell)
            modular, _ = detect_node(lt, spec, a, ell, field_primes=primes)
            assert modular.order == exact.order, (name, a)
            assert list(modular.coeffs) == [int(c) for c in exact.coeffs], (name, a)
            assert modular.confidence == "modular" and exact.confidence == "exact"
    print("ACCEPTANCE 8 PASS: modular-consensus lifts equal rational-exact "
          "coefficients on A3 and G2")


@pytest.mark.stretch
def test_criterion_9_stretch_e7_e8():
    started = time.perf_counter()
    primes = seeded_primes(3, 53)
    check = PrimeField(2**61 - 1)  # a prime independent of the detection's

    def annihilates_at_check(lt, q, node, rec):
        seq = generate(lt, RawQ(q), (node, detect_depth(rec.order)), field=check).node(node)
        return annihilates(seq, rec, check)
    e7 = LieType.parse("E7")
    rng = random.Random("acc9-e7")
    while True:
        q = random_q(rng, 7)
        try:
            rec, _ = detect_node(e7, RawQ(q), 6, 56, field_primes=primes)
        except SingularSpecialization:
            continue
        break
    assert rec.order == 56
    assert rec.coeffs[1] == q[5]  # C_1 lifts to q_6
    assert annihilates_at_check(e7, q, 6, rec)
    e8 = LieType.parse("E8")
    rng = random.Random("acc9-e8")
    while True:
        q = random_q(rng, 8)
        try:
            rec8, _ = detect_node(e8, RawQ(q), 7, 241, field_primes=primes)
        except SingularSpecialization:
            continue
        break
    assert rec8.order == 241
    assert rec8.coeffs[1] == q[6] - 8  # C_1 lifts to q_7 - 8
    assert annihilates_at_check(e8, q, 7, rec8)
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE 9 PASS (stretch): E7 node 6 order 56 with C_1 = q_6, "
          f"E8 node 7 order 241 with C_1 = q_7 - 8 ({elapsed:.2f}s modular)")
