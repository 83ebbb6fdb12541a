import itertools
from fractions import Fraction

import pytest

from polarlines import constructions as con
from polarlines.analysis import _dual
from polarlines.delsarte import LPResult, _normalize_tags, delsarte_lp_bound
from polarlines.schemetables import make_tables
from polarlines.spaces import REL_TAGS, q_to_e_power

F = Fraction

# legal (q, 2e) signatures with q <= 9
GRID = [(q, e2) for e2 in (0, 2, 4) for q in (2, 3, 4, 5, 7, 8, 9)] + [
    (q, e2) for e2 in (1, 3) for q in (4, 9)
]


def closed_form(case, q, e2):
    """The published optimum of each forbidden-relation LP."""
    s = q_to_e_power(q, e2)
    theta = q * q + q + 1
    if case == "10":
        return F((s * q + 1) * (s * q * q + 1))
    if case == "11":
        return F((s * q * q + 1) * theta)
    if case == "20":
        if e2 >= 1 or (e2, q) == (0, 2):
            return F((s * q + 1) * (s * q * q + 1))
        return F((q * q + 1) * (q**3 + q * q + q - 1), 3 * q - 1)
    if case == "10,11":
        return F(theta * (s * q * q + 1), q + 1)
    if case == "10,21":
        if e2 > 0 or (e2, q) == (0, 2):
            return F(theta * (s * q + 1) * (s * q + 2 * q - 1), s * q * q + q**3 + q - 1)
        return F(2 * q * q + q - 1, q - 1)
    if case == "11,20":
        return F((s * q * q + 1) * (s * q * q + q**3 + q - 1), s * q + 2 * q - 1)
    if case == "11,21":
        return F(theta)
    if case == "10,20,21":
        return F(s * q + 1)
    raise KeyError(case)


@pytest.mark.parametrize("q,e2", GRID)
@pytest.mark.parametrize(
    "case", ["10", "11", "20", "10,11", "10,21", "11,20", "11,21", "10,20,21"]
)
def test_lp_matches_published_closed_forms(q, e2, case):
    result = delsarte_lp_bound(q, e2, case.split(","))
    assert result.optimum == closed_form(case, q, e2)


@pytest.mark.parametrize("q,e2", GRID)
def test_forbidding_20_on_top_of_10_changes_nothing(q, e2):
    assert (
        delsarte_lp_bound(q, e2, ["10", "20"]).optimum
        == delsarte_lp_bound(q, e2, ["10"]).optimum
    )


@pytest.mark.parametrize("q,e2", GRID)
def test_forbidding_more_on_top_of_11_21(q, e2):
    # adding the disjoint-concurrent relation never changes the plane bound;
    # adding the coplanar relation keeps it except at e=0, q>2, where the
    # optimum drops to the value of the {10,21} program
    base = delsarte_lp_bound(q, e2, ["11", "21"]).optimum
    assert delsarte_lp_bound(q, e2, ["11", "20", "21"]).optimum == base
    with_10 = delsarte_lp_bound(q, e2, ["10", "11", "21"]).optimum
    if e2 > 0 or q == 2:
        assert with_10 == base
    else:
        assert with_10 == closed_form("10,21", q, e2) < base


def test_spot_values():
    assert delsarte_lp_bound(2, 0, ["R11"]).optimum == 35
    assert delsarte_lp_bound(2, 2, ["R10", "R11"]).optimum == 21
    assert delsarte_lp_bound(2, 0, ["R11", "R20"]).optimum == 13
    assert delsarte_lp_bound(2, 0, ["R11", "R21"]).optimum == 7
    assert delsarte_lp_bound(2, 0, ["R10", "R20", "R21"]).optimum == 3


def test_non_integrality_claims():
    # lines pairwise neither coplanar-concurrent nor opposite: the bound is
    # never an integer for e > 0, and for e = 0, q > 2 only at q = 3
    for q, e2 in GRID:
        opt = delsarte_lp_bound(q, e2, ["10", "21"]).optimum
        if e2 > 0:
            assert opt.denominator != 1, (q, e2)
        elif q > 2:
            assert (opt.denominator == 1) == (q == 3)
    # common-plane-or-opposite: integral at (e,q) in {(0,2),(0,5),(0,7),(1,3)}
    # and additionally at (3/2,4), where the bound is exactly 645
    for q, e2 in GRID:
        opt = delsarte_lp_bound(q, e2, ["11", "20"]).optimum
        assert (opt.denominator == 1) == ((e2, q) in {(0, 2), (0, 5), (0, 7), (2, 3), (3, 4)})
    assert delsarte_lp_bound(4, 3, ["11", "20"]).optimum == 645


def test_tight_eigenspaces_at_spot_cases():
    assert delsarte_lp_bound(2, 0, ["11"]).tight >= {"10", "11", "21"}
    assert delsarte_lp_bound(2, 0, ["11", "21"]).tight >= {"11"}
    assert delsarte_lp_bound(2, 0, ["10", "20", "21"]).tight >= {"20"}
    assert delsarte_lp_bound(2, 2, ["10", "11"]).tight >= {"10", "11"}


def test_bounds_dominate_constructed_examples(o6plus2, sp62):
    gq = con.hyperplane_section_lines(o6plus2, con.find_section(o6plus2, "gq"))
    assert delsarte_lp_bound(2, 0, ["10"]).optimum >= len(gq)
    assert delsarte_lp_bound(2, 0, ["10"]).optimum == len(gq) == 15
    spread = con.symplectic_spread_lines(sp62)
    assert delsarte_lp_bound(2, 2, ["11"]).optimum == len(spread) == 63
    plane = con.plane_lines(o6plus2, 0)
    assert delsarte_lp_bound(2, 0, ["11", "21"]).optimum == len(plane) == 7
    # a 1-system avoids all of R10, R11, R20
    from test_constructions import one_system_of

    one = one_system_of(sp62)
    assert delsarte_lp_bound(2, 2, ["10", "11", "20"]).optimum >= len(one) == 9


def test_certificates_are_exact():
    r = delsarte_lp_bound(3, 2, ["10", "11"])
    assert r.certificate["bound"] == r.optimum
    assert all(v >= 0 for v in r.certificate["multipliers"].values())


def test_optimal_distribution_is_feasible():
    r = delsarte_lp_bound(2, 0, ["11", "20"])
    assert r.a[0] == 1
    assert all(r.a[i] == 0 for i, tag in enumerate(("00", "10", "11", "20", "21")) if tag in r.forbidden)
    assert all(v >= 0 for v in r.aq)
    assert sum(r.a) == r.optimum


def test_bad_inputs_rejected():
    with pytest.raises(ValueError, match="nonempty"):
        delsarte_lp_bound(2, 0, [])
    with pytest.raises(ValueError, match="all four"):
        delsarte_lp_bound(2, 0, ["10", "11", "20", "21"])
    with pytest.raises(ValueError, match="unknown relation"):
        delsarte_lp_bound(2, 0, ["12"])


@pytest.mark.parametrize("tag", ["R11", "r11", "11"])
def test_a_tag_takes_one_optional_r(tag):
    assert delsarte_lp_bound(2, 0, [tag]).forbidden == ("11",)


@pytest.mark.parametrize("tag", ["RR11", "rR11", "R", "RR"])
def test_a_tag_with_more_than_one_r_is_unknown(tag):
    """The error names the tag as it was given."""
    with pytest.raises(ValueError, match=f"unknown relation '{tag}'"):
        delsarte_lp_bound(2, 0, [tag])


# -- the integer LP against the Fraction LP it replaced ------------------------------


def fraction_solve(mat, rhs):
    """Exact X with mat . X = rhs by Gauss-Jordan over Fractions; None if singular."""
    k = len(mat)
    aug = [[Fraction(x) for x in (*row, *extra)] for row, extra in zip(mat, rhs)]
    for col in range(k):
        piv = next((r for r in range(col, k) if aug[r][col] != 0), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(k):
            if r != col and aug[r][col]:
                c = aug[r][col]
                aug[r] = [x - c * y for x, y in zip(aug[r], aug[col])]
    return [row[k:] for row in aug]


def _solve_square(rows, rhs):
    x = fraction_solve(rows, [[v] for v in rhs])
    return None if x is None else [row[0] for row in x]


def reference_lp_bound(q, e2, forbidden):
    """The vertex enumeration and dual certificate with a Fraction solve of every basis."""
    forbidden = _normalize_tags(forbidden)
    tables = make_tables(q, e2)
    free = [i for i in range(1, 5) if REL_TAGS[i] not in forbidden]
    k = len(free)
    constraints = []
    for j in range(5):
        g = tuple(tables.Q[i][j] for i in free)
        constraints.append((("aQ", REL_TAGS[j]), g, -tables.Q[0][j]))
    for pos, i in enumerate(free):
        g = tuple(Fraction(int(pos == t)) for t in range(k))
        constraints.append((("nonneg", REL_TAGS[i]), g, Fraction(0)))
    vertices = []
    for combo in itertools.combinations(range(len(constraints)), k):
        x = _solve_square([constraints[c][1] for c in combo], [constraints[c][2] for c in combo])
        if x is not None and all(
            sum(g[t] * x[t] for t in range(k)) >= h for _, g, h in constraints
        ):
            vertices.append(tuple(x))
    best = max(1 + sum(x) for x in vertices)
    optimal = [x for x in vertices if 1 + sum(x) == best]
    tight = set(REL_TAGS)
    for x in optimal:
        tight &= {
            REL_TAGS[j]
            for j in range(5)
            if sum(tables.Q[i][j] * xi for i, xi in zip(free, x)) + tables.Q[0][j] == 0
        }
    xstar = min(optimal)
    active = [
        c
        for c, (_, g, h) in enumerate(constraints)
        if sum(gt * xt for gt, xt in zip(g, xstar)) == h
    ]
    cert = None
    for combo in itertools.combinations(active, k):
        cols = [constraints[c][1] for c in combo]
        y = _solve_square([[cols[c][t] for c in range(k)] for t in range(k)], [Fraction(-1)] * k)
        if y is None or any(v < 0 for v in y):
            continue
        bound = 1 - sum(yv * constraints[c][2] for yv, c in zip(y, combo))
        if bound == best:
            cert = {
                "multipliers": {constraints[c][0]: y_i for c, y_i in zip(combo, y)},
                "bound": bound,
            }
            break
    a_full = [Fraction(0)] * 5
    a_full[0] = Fraction(1)
    for i, xi in zip(free, xstar):
        a_full[i] = xi
    return LPResult(q, e2, forbidden, best, tuple(a_full), frozenset(tight), cert)


def _outcome(solve, q, e2, forbidden):
    try:
        result = solve(q, e2, forbidden)
    except ValueError as exc:
        return ("ValueError", str(exc))
    # repr fixes the Fraction types and the order of the certificate's multipliers
    return (repr(result.optimum), repr(result.a), result.tight,
            repr(list(result.certificate["multipliers"].items())),
            repr(result.certificate["bound"]))


FORBIDDEN_SETS = [
    forb for r in range(1, 4) for forb in itertools.combinations(("10", "11", "20", "21"), r)
]


@pytest.mark.parametrize("q", (2, 3, 4, 5, 7, 8, 9))
def test_integer_lp_matches_the_fraction_lp(q):
    """Every e2 in 0..4 (odd ones without square q fail alike) and every forbidden set."""
    for e2 in range(5):
        for forbidden in FORBIDDEN_SETS:
            want = _outcome(reference_lp_bound, q, e2, forbidden)
            assert _outcome(delsarte_lp_bound, q, e2, forbidden) == want, (q, e2, forbidden)


@pytest.mark.parametrize("q", (2, 3, 4, 5, 7, 8, 9))
def test_the_integer_dual_matches_the_fraction_dual(q):
    """_dual in Python ints against sum_i a_i Q_ij in Fractions, on the optimal
    distribution of every case of the integer LP grid."""
    for e2 in range(5):
        for forbidden in FORBIDDEN_SETS:
            try:
                result = delsarte_lp_bound(q, e2, forbidden)
            except ValueError:  # odd e2 without square q
                continue
            tables, a = make_tables(q, e2), result.a
            want = tuple(sum(a[i] * tables.Q[i][j] for i in range(5)) for j in range(5))
            assert repr(_dual(tables, a)) == repr(want), (q, e2, forbidden)
