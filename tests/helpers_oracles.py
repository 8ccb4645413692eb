"""Independent oracles for the test suite.

Deliberately self-contained: the dense recurrence solver, subset-expansion
e_k, the Q-system relation check, the Q-system recursion over Fraction, the
G2 dimension closed form and the L and M triangles' recursions share no code
with the package under test.  The eager Berlekamp-Massey uses only the
field's reduce and divisors.  The per-draw interpolation loop is the
reference for the CLI's rounds of draws: it detects one draw at a time
through the CLI's one-draw detection, cli._detect.
"""
import math
import time
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from operator import mul


def solve_exact(matrix, rhs):
    """Gaussian elimination over Fraction; None if singular/inconsistent."""
    n = len(matrix)
    aug = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(matrix, rhs)]
    cols = len(matrix[0])
    if n < cols:
        return None
    for col in range(cols):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col] / aug[col][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    for r in range(cols, n):
        if aug[r][cols] != 0:
            return None
    return [aug[i][cols] / aug[i][i] for i in range(cols)]


def dense_min_recurrence(seq, max_order):
    """Smallest order L with s_n = sum_{i=1..L} c_i s_{n-i} verified on the
    whole tail, found by brute-force linear solving.  Returns (L, coeffs)
    in the alternating convention C_k = (-1)^(k+1) * c_k ... i.e. returns
    the C_0..C_L list with C_0 = 1 matching the package convention."""
    seq = [Fraction(s) for s in seq]
    for order in range(0, max_order + 1):
        if order == 0:
            if all(s == 0 for s in seq):
                return 0, [Fraction(1)]
            continue
        if len(seq) < 2 * order + 2:
            break
        rows = [[seq[n - i] for i in range(1, order + 1)]
                for n in range(order, 2 * order)]
        rhs = [seq[n] for n in range(order, 2 * order)]
        sol = solve_exact(rows, rhs)
        if sol is None:
            continue
        if all(seq[n] == sum(c * seq[n - i] for i, c in enumerate(sol, start=1))
               for n in range(order, len(seq))):
            coeffs = [Fraction(1)]
            for k, c in enumerate(sol, start=1):
                conn = -c  # s_n - sum c_i s_{n-i} = 0 has conn_i = -c_i
                coeffs.append(conn if k % 2 == 0 else -conn)
            return order, coeffs
    return None


def eager_berlekamp_massey(seq, field, state=None):
    """Berlekamp-Massey with every entry of every update reduced at once:
    the same (L, conn) and the same state protocol as
    linrec.berlekamp_massey, which reduces only discrepancies, stashes and
    the returned conn."""
    reduce = field.reduce
    terms, cur, prev, L, m, b_inv = state or ([], [field.one], [field.one], 0, 1, field.one)
    terms.extend(seq)
    for n in range(len(terms) - len(seq), len(terms)):
        k = min(L, len(cur) - 1)
        d = reduce(terms[n] + sum(map(mul, cur[1:k + 1], reversed(terms[n - k:n]))))
        if d == field.zero:
            m += 1
            continue
        coef = reduce(d * b_inv)
        shifted_len = m + len(prev)
        cur.extend([field.zero] * (shifted_len - len(cur)))
        stash = cur[:L + 1] if 2 * L <= n else None
        cur[m:shifted_len] = [reduce(c - coef * p) for c, p in zip(cur[m:shifted_len], prev)]
        if stash is None:
            m += 1
        else:
            L = n + 1 - L
            prev, (b_inv,), m = stash, field.divisors([d]), 1
    if state is not None:
        state[:] = terms, cur, prev, L, m, b_inv
    conn = cur[: L + 1]
    conn.extend([field.zero] * (L + 1 - len(conn)))
    return L, conn


def brute_elementary_symmetric(values, k):
    return sum((prod(c) for c in combinations(values, k)), Fraction(0)) \
        if k else Fraction(1)


def check_relation(cartan, values, a, m):
    """The Q-system relation at node a (1-based) and level m >= 1, re-checked
    on stored sequences, values[b - 1] = Q^(b)_0, Q^(b)_1, ...:

        (Q^(a)_m)^2 = Q^(a)_{m+1} Q^(a)_{m-1}
                      + prod_{b ~ a} prod_{k=0}^{c-1} Q^(b)_{floor((d m + k) / c)}

    with c = -C_ab and d = -C_ba.  Raises IndexError if a level is not stored."""
    seq, row = values[a - 1], cartan[a - 1]
    coupling = Fraction(1)
    for b, entry in enumerate(row):
        c, d = -entry, -cartan[b][a - 1]
        if b != a - 1:
            for k in range(c):
                coupling *= values[b][(d * m + k) // c]
    return seq[m] * seq[m] == seq[m + 1] * seq[m - 1] + coupling


def fraction_table(cartan, q, depths):
    """The Q-system table from the level-1 values q, Q^(a)_0..Q^(a)_{depths[a-1]}
    per node, in Fraction arithmetic, scheduled as the package schedules it:
    each sweep advances, in node order, every node below its depth whose
    coupling inputs are stored, so a node reads levels made earlier in the
    sweep.  Raises ZeroDivisionError(node, level) at the first node that
    divides by a zero Q^(node)_level."""
    r = len(q)
    values = [[Fraction(1), Fraction(v)] for v in q]
    while pending := [a for a in range(r) if len(values[a]) - 1 < depths[a]]:
        advanced = False
        for a in pending:
            seq, m, coupling = values[a], len(values[a]) - 1, Fraction(1)
            inputs = [(b, (-cartan[b][a] * m + k) // -cartan[a][b])
                      for b in range(r) if b != a for k in range(-cartan[a][b])]
            if any(i >= len(values[b]) for b, i in inputs):
                continue
            for b, i in inputs:
                coupling *= values[b][i]
            if seq[m - 1] == 0:
                raise ZeroDivisionError(a + 1, m - 1)
            seq.append((seq[m] * seq[m] - coupling) / seq[m - 1])
            advanced = True
        assert advanced
    return values


def prod(xs):
    out = Fraction(1)
    for x in xs:
        out *= x
    return out


def g2_dimension_p2(m):
    """Closed form for the node-2 dimension sequence of G2, evaluated
    exactly at integer m (the trigonometric part is rational there)."""
    a = 3 * (4 + m) * (5 + m) * (6 + m) * (7 + m) * (8 + m) \
        * (715 + 948 * m + 367 * m**2 + 48 * m**3 + 2 * m**4)
    b = 240 * (6 + m) * (25 + 12 * m + m**2) * (37 + 12 * m + m**2)
    c_over_sqrt3 = 160 * (3875 + 2592 * m + 648 * m**2 + 72 * m**3 + 3 * m**4)
    r = m % 3
    if r == 0:
        cos, sin_times_sqrt3 = Fraction(1), Fraction(0)
    elif r == 1:
        cos, sin_times_sqrt3 = Fraction(-1, 2), Fraction(3, 2)
    else:
        cos, sin_times_sqrt3 = Fraction(-1, 2), Fraction(-3, 2)
    value = Fraction(6 + m) * (a + b * cos + c_over_sqrt3 * sin_times_sqrt3)
    value /= 94478400
    assert value.denominator == 1
    return int(value)


# The sixteen E6 node-1 numerator entries as (constant, ((sign, highest
# weight), ...)), recorded as literal data from the table the package shipped
# before its upper half was derived from the -w0 duality.
E6_NUMERATOR_TERMS = [
    (1, ()),
    (0, ()),
    (0, ((-1, (0, 0, 0, 0, 1, 0)),)),
    (0, ((1, (0, 0, 0, 0, 0, 1)),)),
    (0, ()),
    (0, ((-1, (0, 1, 0, 0, 0, 0)),)),
    (0, ((1, (1, 0, 0, 0, 1, 0)),)),
    (0, ((-1, (0, 0, 0, 0, 2, 0)),)),
    (0, ((-1, (2, 0, 0, 0, 0, 0)),)),
    (0, ((1, (1, 0, 0, 0, 1, 0)),)),
    (0, ((-1, (0, 0, 0, 1, 0, 0)),)),
    (0, ()),
    (0, ((1, (0, 0, 0, 0, 0, 1)),)),
    (0, ((-1, (1, 0, 0, 0, 0, 0)),)),
    (0, ()),
    (1, ()),
]


@lru_cache(maxsize=None)
def lm_recursion(m, n):
    """Triangle L by its recursion: L(m,0)=1, L(m,m)=(3^m+1)/2 and
    L(m,n)=2L(m-1,n-1)+L(m-1,n)."""
    if n == 0:
        return 1
    if n == m:
        return (3**m + 1) // 2
    return 2 * lm_recursion(m - 1, n - 1) + lm_recursion(m - 1, n)


@lru_cache(maxsize=None)
def mm_recursion(m, n):
    """Triangle M by its recursion: M(m,0)=1, M(m,m)=2*3^m-2^m and the
    interior recursion of L."""
    if n == 0:
        return 1
    if n == m:
        return 2 * 3**m - 2**m
    return 2 * mm_recursion(m - 1, n - 1) + mm_recursion(m - 1, n)


def per_draw_interpolate(args):
    """qrec interpolate as one detection per draw, in draw order: a stand-in
    for cli.run_interpolate with the same validation, skips, errors and
    report."""
    from qrec import cli, conjectures

    k = args.k
    if k is None:
        raise cli.ConfigError("--k is required for interpolate")
    if k < 0:
        raise cli.ConfigError(f"--k {k} is negative")
    if args.degree < 0:
        raise cli.ConfigError(f"--degree {args.degree} is negative")
    rank = cli._parse_type(args).rank
    need = math.comb(rank + args.degree, args.degree) + conjectures.MARGIN
    if args.runs < need:
        raise cli.ConfigError(f"--runs {args.runs} is below {need}, the candidate monomials "
                              f"of degree at most {args.degree} plus {conjectures.MARGIN}")
    space = (2 * cli.Q_BOUND + 1) ** rank
    if args.runs > space:
        raise cli.ConfigError(f"--runs {args.runs} exceeds the {space} distinct q "
                              f"in [-{cli.Q_BOUND}, {cli.Q_BOUND}]^{rank}")
    lt, node, _, primes, depth, specs = setup = cli._prologue(args, "interpolate")
    if depth is None:
        raise cli.ConfigError("interpolation needs a tabulated order or explicit --depth")
    order = cli.predicted_order(lt, node)
    if order is not None and k > order:
        raise cli.ConfigError(f"--k {k} exceeds the order {order} of node {node} of {lt}")
    experiments, seen = [], set()
    limit = min(args.runs + cli.MAX_SINGULAR_RETRIES * 4, space)
    started = time.perf_counter()
    for spec in specs:
        if len(experiments) >= args.runs:
            break
        if len(seen) == limit:
            raise cli.NoStableRecurrence(
                f"{len(experiments)} of --runs {args.runs} detections of "
                f"order >= {k} succeeded, out of {limit} distinct draws")
        if spec.values in seen:
            continue
        seen.add(spec.values)
        try:
            qvals, rec, _, _ = cli._detect(lt, node, spec, depth, args.guard, primes)
        except (cli.SingularSpecialization, cli.NoStableRecurrence, cli.PrimeDisagreement):
            continue
        if rec.order >= k:
            experiments.append(([int(v) for v in qvals], int(rec.coeffs[k])))
    detect_s = time.perf_counter() - started
    candidates = conjectures.degree_monomials(lt.rank, args.degree)
    started = time.perf_counter()
    poly = conjectures.interpolate_coefficients(lt.rank, candidates, experiments)
    solve_s = time.perf_counter() - started
    payload = {
        "job": "interpolate",
        "config": cli._config_echo(setup, args),
        "k": k, "runs": args.runs,
        "polynomial": None if poly is None else str(poly),
        "terms": None if poly is None else
            [{"exponents": list(e), "coeff": str(c)} for e, c in sorted(poly.terms.items())],
        "timings": {"detect_s": round(detect_s, 6), "solve_s": round(solve_s, 6)},
    }
    cli._emit(payload, args)
    return cli.EXIT_OK if poly is not None else cli.EXIT_CHECK_FAILED
