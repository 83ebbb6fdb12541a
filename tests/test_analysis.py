import random
from fractions import Fraction

import numpy as np
import pytest

from polarlines import analysis
from polarlines import constructions as con
from polarlines.analysis import (
    NONTRIVIAL,
    PENCIL_SPAN,
    PLANE_SPAN,
    DivisibilityReport,
    design_check,
    divisibility_report,
    dual_distribution,
    eigenspace_support,
    inner_distribution,
    make_lineset,
    plane_profile,
    regular_set_check,
    span_orthogonal_divisor,
)
from polarlines.schemetables import _project, make_tables, relation_products, tables_for_space
from polarlines.spaces import REL_TAGS, q_to_e_power

F = Fraction

# the seven test spaces, and their scheme parameters (q, e2)
TEST_SPACES = [
    ("O6plus", 2),
    ("Sp6", 2),
    ("O6plus", 3),
    ("O8minus", 2),
    ("O7", 3),
    ("Sp6", 3),
    ("U6", 4),
]
TEST_SPACE_PARAMS = [(2, 0), (2, 2), (3, 0), (2, 4), (3, 2), (4, 1)]


def aq_plane(q, s):
    th, nu = q * q + q + 1, s * q * q + 1
    return (F(th), F(s * q * (q + 1) * th * (s * q + 1), s + 1), F(0), F(s * s * q * th * nu, s + 1), F(0))


def aq_pencil(q, s):
    th, nu = q * q + q + 1, s * q * q + 1
    return (
        F((q + 1) * (s * q + 1)),
        F(s * q * q * th * (s + 1) * (s * q + 1), s + q),
        F(q**3 * (s * q + 1) * nu, s + q),
        F(0),
        F(0),
    )


def aq_pencil_perp_avoiding(q, s):
    th, nu = q * q + q + 1, s * q * q + 1
    return (
        F(q * q * (s + 1) * (s * q + 1)),
        F(s * (q + 1) * (q - 1) ** 2 * th * (s * q + 1), s + q),
        F(q * (q + 1) * (s + 1) * (s * q + 1) * nu, s + q),
        F(0),
        F(0),
    )


def aq_one_system(q, s):
    th, nu = q * q + q + 1, s * q * q + 1
    return (
        F(nu),
        F(0),
        F(q * (q + 1) * nu),
        F(s * q * th * (s + 1) * nu, s + q * q),
        F(s * q * (q * q - 1) * th * nu, s + q * q),
    )


def aq_rank3_section(q, s):
    th = q * q + q + 1
    return (F(th * (s + 1) * (s * q + 1)), F(s * (q * q - 1) * th * (s * q + 1)), F(0), F(0), F(0))


def aq_gq(q, s):
    return (F((s * q + 1) * (s * q * q + 1)), F(0), F(q * (q + 1) * (s * q + 1) * (s * q * q + 1)), F(0), F(0))


def aq_spread(q, s):
    th, nu = q * q + q + 1, s * q * q + 1
    return (F(th * nu), F(0), F(0), F(s * q * th * nu), F(0))


def test_plane_distributions(o6plus2):
    tables = tables_for_space(o6plus2)
    y = con.plane_lines(o6plus2, 0)
    assert inner_distribution(o6plus2, y) == (1, 6, 0, 0, 0)
    assert dual_distribution(o6plus2, tables, y) == aq_plane(2, 1) == (7, 63, 0, 35, 0)
    assert eigenspace_support(o6plus2, tables, y) == {"10", "20"}


def test_pencil_distributions(o6plus2):
    tables = tables_for_space(o6plus2)
    y = con.point_pencil(o6plus2, 0)
    assert len(y) == 9
    assert inner_distribution(o6plus2, y) == (1, 4, 4, 0, 0)
    assert dual_distribution(o6plus2, tables, y) == aq_pencil(2, 1)
    assert eigenspace_support(o6plus2, tables, y) == {"10", "11"}
    y2 = con.point_pencil(o6plus2, 0, "perp_avoiding")
    assert inner_distribution(o6plus2, y2) == (1, 3, 6, 6, 8)
    assert dual_distribution(o6plus2, tables, y2) == aq_pencil_perp_avoiding(2, 1)


def test_weighted_pencil_combination_lands_in_v10(o6plus2):
    # (q^e+1) * pencil + perp-avoiding pencil spans only the first eigenspace
    tables = tables_for_space(o6plus2)
    w = [0] * o6plus2.n_lines
    for li in con.point_pencil(o6plus2, 0).indices:
        w[li] += o6plus2.qe + 1
    for li in con.point_pencil(o6plus2, 0, "perp_avoiding").indices:
        w[li] += 1
    Aw = relation_products(o6plus2, [[x] for x in w])
    support = {REL_TAGS[j] for j in range(1, 5) if _project(tables, j, Aw)[0].any()}
    assert support == {"10"}


def test_gq_section_distributions(o6plus2):
    tables = tables_for_space(o6plus2)
    y = con.hyperplane_section_lines(o6plus2, con.find_section(o6plus2, "gq"))
    assert len(y) == 15
    assert inner_distribution(o6plus2, y) == (1, 0, 6, 0, 8)
    assert dual_distribution(o6plus2, tables, y) == aq_gq(2, 1) == (15, 0, 90, 0, 0)


def test_rank3_section_distributions(o8minus2):
    tables = tables_for_space(o8minus2)
    y = con.hyperplane_section_lines(o8minus2, con.find_section(o8minus2, "rank3"))
    assert len(y) == 315
    assert dual_distribution(o8minus2, tables, y) == aq_rank3_section(2, 4)
    assert eigenspace_support(o8minus2, tables, y) == {"10"}


def test_spread_and_hexagon_distributions(sp62):
    tables = tables_for_space(sp62)
    spread = con.symplectic_spread_lines(sp62)
    assert dual_distribution(sp62, tables, spread) == aq_spread(2, 2)
    hexagon = con.hexagon_lines(sp62)
    assert inner_distribution(sp62, hexagon) == (1, 6, 0, 24, 32)
    # for e = 1 the hexagon and spread dual distributions coincide
    assert dual_distribution(sp62, tables, hexagon) == aq_spread(2, 2)


def test_one_system_distributions(sp62):
    from polarlines.search import line_spread_search

    tables = tables_for_space(sp62)
    sec = con.quadric_section(sp62, "minus")
    inside = set(sec.point_indices)
    sec_lines = [li for li, pts in enumerate(sp62.line_points) if all(p in inside for p in pts)]
    res = line_spread_search(sp62, sec.point_indices, sec_lines)
    assert res.lines is not None and len(res.lines) == 9
    assert inner_distribution(sp62, res.lines) == (1, 0, 0, 0, 8)
    assert dual_distribution(sp62, tables, res.lines) == aq_one_system(2, 2)
    assert eigenspace_support(sp62, tables, res.lines) == {"11", "20", "21"}


def test_distribution_invariants_on_random_subsets(o6plus2):
    tables = tables_for_space(o6plus2)
    rng = random.Random(2718)
    for _ in range(20):
        k = rng.randint(1, o6plus2.n_lines)
        y = rng.sample(range(o6plus2.n_lines), k)
        a = inner_distribution(o6plus2, y)
        aq = dual_distribution(o6plus2, tables, y)
        assert sum(a) == len(set(y))
        assert a[0] == 1
        assert aq[0] == len(set(y))
        assert sum(aq) == tables.n
        assert all(v >= 0 for v in aq)


@pytest.mark.parametrize("family,q", TEST_SPACES)
def test_the_census_of_a_set_is_a_bincount_of_its_table_columns(monkeypatch, spaces, family, q):
    """Row y of the regularity census counts the set's lines in each relation to y."""
    space = spaces.get(family, q)
    tables = tables_for_space(space)
    exact = analysis.relation_products
    seen = []

    def recorded(*args):
        AY = exact(*args)
        seen.append(AY[..., 0].T)
        return AY

    monkeypatch.setattr(analysis, "relation_products", recorded)
    n = space.n_lines
    rng = np.random.default_rng(n)
    sets = [space.plane_lines_arr[0]]
    sets += [rng.choice(n, size, replace=False) for size in (1, 40, n // 3)]
    for y in sets:
        idx = np.sort(y)
        seen.clear()
        mask = analysis._line_mask(space, idx)[:, None]
        ((a, _, _),) = analysis._regular_set_check(space, tables, mask)
        want = np.stack([np.bincount(row, minlength=5) for row in space.labels[:, idx]])
        assert len(seen) == 1 and np.array_equal(seen[0], want)
        assert a == tuple(F(int(c), len(idx)) for c in want[idx].sum(axis=0))
        assert inner_distribution(space, idx) == a


def test_empty_set_rejected(o6plus2):
    tables = tables_for_space(o6plus2)
    with pytest.raises(ValueError, match="empty"):
        inner_distribution(o6plus2, [])
    with pytest.raises(ValueError, match="empty"):
        regular_set_check(o6plus2, tables, [])
    with pytest.raises(ValueError, match="full"):
        regular_set_check(o6plus2, tables, range(o6plus2.n_lines))


def test_regular_check_verdicts(o6plus2):
    tables = tables_for_space(o6plus2)
    gq = con.hyperplane_section_lines(o6plus2, con.find_section(o6plus2, "gq"))
    rep = regular_set_check(o6plus2, tables, gq)
    assert rep.is_regular and rep.eigenspace == "11"
    assert rep.inside_degrees == (1, 0, 6, 0, 8)
    assert rep.outside_degrees == (0, 2, 1, 8, 4)
    pencil = con.point_pencil(o6plus2, 0)
    rep = regular_set_check(o6plus2, tables, pencil)
    assert not rep.is_regular
    assert rep.support == {"10", "11"}
    assert rep.witness == (0, "10", 4, "52/7")


def test_regular_check_witness_is_the_first_deviation_from_v10(o6plus2, sp62):
    # the first two sets have integer V10 targets; line 0 of the first meets its own
    cases = [
        (o6plus2, random.Random(64).sample(range(o6plus2.n_lines), 21), (1, "10", 3, "1")),
        (sp62, random.Random(280).sample(range(sp62.n_lines), 280), (0, "11", 23, "22")),
        (sp62, range(0, sp62.n_lines, 7), (0, "10", 2, "72/7")),
    ]
    for space, y, witness in cases:
        rep = regular_set_check(space, tables_for_space(space), y)
        assert not rep.is_regular
        assert rep.witness == witness


def test_complement_symmetry(o6plus2, sp62):
    for space, y in [
        (o6plus2, con.hyperplane_section_lines(o6plus2, con.find_section(o6plus2, "gq"))),
        (sp62, con.symplectic_spread_lines(sp62)),
        (sp62, con.hexagon_lines(sp62)),
    ]:
        tables = tables_for_space(space)
        rep = regular_set_check(space, tables, y)
        comp = np.setdiff1d(np.arange(space.n_lines), y.indices)
        rep_c = regular_set_check(space, tables, comp)
        assert rep.is_regular and rep_c.is_regular
        assert rep.eigenspace == rep_c.eigenspace


def test_divisibility_spec_values():
    # size 21 in the first eigenspace at (2,0) is divisible but excluded (m=1)
    rep = divisibility_report(21, "10", 2, 0)
    assert not rep.consistent and "m=1" in rep.reason
    # complement exclusion m = q^{e+2}
    rep = divisibility_report(84, "10", 2, 0)
    assert not rep.consistent
    assert divisibility_report(42, "10", 2, 0).consistent
    # V21 admits only the empty and full sets
    assert divisibility_report(0, "21", 2, 0).consistent
    assert divisibility_report(105, "21", 2, 0).consistent
    assert not divisibility_report(35, "21", 2, 0).consistent
    # j=20 at (2,0): multiples of 35 up to n
    for m in range(4):
        assert divisibility_report(35 * m, "20", 2, 0).consistent
    assert not divisibility_report(70 + 1, "20", 2, 0).consistent


def test_divisibility_e1_interval():
    # e=1: m must be 0, in [q+1, q^2(q+1)], or (q^2+1)(q+1)
    assert divisibility_report(0, "20", 2, 2).consistent
    assert not divisibility_report(21, "20", 2, 2).consistent  # m=1
    assert not divisibility_report(42, "20", 2, 2).consistent  # m=2
    assert divisibility_report(63, "20", 2, 2).consistent  # m=3=q+1 (spread, hexagon)
    assert divisibility_report(252, "20", 2, 2).consistent  # m=12=q^2(q+1) (complement)
    assert not divisibility_report(273, "20", 2, 2).consistent  # m=13
    assert divisibility_report(315, "20", 2, 2).consistent  # m=15 full


def test_divisibility_odd_q():
    # (3,0), j=20: modulus 65 = 13*10/2, m != 1
    assert not divisibility_report(65, "20", 3, 0).consistent
    assert divisibility_report(130, "20", 3, 0).consistent
    assert not divisibility_report(64, "20", 3, 0).consistent


def _reference_divisibility_report(size, j, q, e2):
    """divisibility_report with every modulus written out, eigenspace by eigenspace."""
    if j not in NONTRIVIAL:
        raise ValueError(f"eigenspace must be one of {NONTRIVIAL}")
    s = q_to_e_power(q, e2)
    theta = q * q + q + 1
    n = (s * q + 1) * (s * q * q + 1) * theta
    excluded = ()
    interval = None
    if j == "10":
        modulus = Fraction((s * q + 1) * theta)
        excluded = (1, s * q * q)
    elif j == "11":
        modulus = Fraction((s * q + 1) * (s * q * q + 1))
    elif j == "20":
        if e2 != 2 and q % 2 == 0:
            modulus = Fraction(theta * (s * q * q + 1))
        elif e2 != 2:
            modulus = Fraction(theta * (s * q * q + 1), 2)
            excluded = (1, 2 * s * q * q + 1)
        else:
            modulus = Fraction(q**4 + q * q + 1)
            interval = (q + 1, q * q * (q + 1), (q * q + 1) * (q + 1))
    else:
        ok = size in (0, n)
        return DivisibilityReport(
            consistent=ok,
            eigenspace=j,
            size=size,
            modulus=Fraction(n),
            m=Fraction(size, n) if ok else None,
            excluded=(),
            reason="only the empty and full sets lie in this eigenspace"
            if ok
            else f"size must be 0 or {n}",
        )

    if size < 0 or size > n:
        return DivisibilityReport(False, j, size, modulus, None, excluded, f"size outside [0, {n}]")
    m = Fraction(size) / modulus
    if m.denominator != 1:
        return DivisibilityReport(
            False, j, size, modulus, None, excluded, f"size not a multiple of {modulus}"
        )
    m = int(m)
    if m in excluded:
        return DivisibilityReport(
            False, j, size, modulus, Fraction(m), excluded, f"multiplier m={m} is excluded"
        )
    if interval is not None:
        lo, hi, full = interval
        if not (m == 0 or lo <= m <= hi or m == full):
            return DivisibilityReport(
                False,
                j,
                size,
                modulus,
                Fraction(m),
                excluded,
                f"multiplier m={m} outside {{0}} u [{lo}, {hi}] u {{{full}}}",
            )
    return DivisibilityReport(True, j, size, modulus, Fraction(m), excluded, "admissible")


@pytest.mark.parametrize("q,e2", TEST_SPACE_PARAMS)
def test_divisibility_report_matches_the_reference(q, e2):
    """Every field of every report, reprs included, on all sizes -3..n+1 of the four eigenspaces."""
    for j in NONTRIVIAL:
        for size in range(-3, make_tables(q, e2).n + 2):
            want = _reference_divisibility_report(size, j, q, e2)
            assert repr(divisibility_report(size, j, q, e2)) == repr(want), (j, size)


@pytest.mark.parametrize("family,q", TEST_SPACES)
def test_plane_and_pencil_spans_match_the_tables(spaces, family, q):
    """A plane's lines span PLANE_SPAN and a point's pencil PENCIL_SPAN, read off aQ."""
    space = spaces.get(family, q)
    tables = tables_for_space(space)
    assert eigenspace_support(space, tables, space.plane_lines_arr[0]) == PLANE_SPAN
    assert eigenspace_support(space, tables, space.point_lines_arr[0]) == PENCIL_SPAN


def test_span_orthogonal_divisor_cases():
    assert span_orthogonal_divisor({"10", "20"}, 2, 0) == 15
    assert span_orthogonal_divisor({"10", "11"}, 2, 2) == 21  # q^4+q^2+1
    with pytest.raises(ValueError, match="no divisor known"):
        span_orthogonal_divisor({"21"}, 2, 0)
    with pytest.raises(ValueError, match="no divisor known"):
        span_orthogonal_divisor({"10"}, 2, 0)  # neither span


def test_plane_profile_of_contained_plane(o6plus2):
    y = con.plane_lines(o6plus2, 0)
    prof = plane_profile(o6plus2, y)
    assert prof.histogram[7] == 1
    assert set(prof.histogram) <= {0, 1, 7}
    empty = plane_profile(o6plus2, [])
    assert empty.histogram == {0: 30}


def test_design_checks(o6plus2, sp62):
    tables = tables_for_space(o6plus2)
    gq = con.hyperplane_section_lines(o6plus2, con.find_section(o6plus2, "gq"))
    rep = design_check(o6plus2, tables, gq, "planes")
    assert rep.is_design and rep.m == 1 and rep.size_formula_ok and rep.support_ok
    full = design_check(o6plus2, tables, range(105), "points")
    assert full.is_design and full.m == 9 and full.size_formula_ok
    tables2 = tables_for_space(sp62)
    hexagon = con.hexagon_lines(sp62)
    rep = design_check(sp62, tables2, hexagon, "points")
    assert rep.is_design and rep.m == 3 and rep.size_formula_ok and rep.support_ok
    rep = design_check(sp62, tables2, hexagon, "planes")
    assert not rep.is_design


def _reference_plane_profile(space, idx):
    """Histogram and pencil condition, one plane at a time over the tuple views."""
    idx = set(idx)
    hist, pencil_ok = {}, True
    for lines in space.plane_lines:
        inside = [li for li in lines if li in idx]
        hist[len(inside)] = hist.get(len(inside), 0) + 1
        if len(inside) == space.q + 1:
            common = set.intersection(*(set(space.line_points[li]) for li in inside))
            pencil_ok &= len(common) == 1
    return list(hist.items()), pencil_ok


def _reference_design_m(space, idx, level):
    """The constant number of lines of idx per point or per plane, else None."""
    incident = space.point_lines if level == "points" else space.plane_lines
    counts = {sum(li in set(idx) for li in lines) for lines in incident}
    return counts.pop() if len(counts) == 1 else None


@pytest.mark.parametrize("family,q", [("O6plus", 2), ("Sp6", 2), ("O6plus", 3), ("O8minus", 2)])
def test_plane_profile_and_design_check_match_the_per_object_loops(spaces, family, q):
    space = spaces.get(family, q)
    tables = tables_for_space(space)
    rng = random.Random(31)
    sets = [[], list(range(space.n_lines))]
    sets += [rng.sample(range(space.n_lines), rng.randrange(1, 60)) for _ in range(20)]
    # q+1 lines of one plane, concurrent or not
    sets += [rng.sample(space.plane_lines[rng.randrange(len(space.plane_lines))], q + 1)
             for _ in range(20)]
    sets += [space.point_lines[p] for p in range(5)]
    pencils = set()
    for y in sets:
        prof = plane_profile(space, y)
        assert (list(prof.histogram.items()), prof.pencil_ok) == _reference_plane_profile(space, y)
        pencils.add(prof.pencil_ok)
        for level in ("points", "planes"):
            assert design_check(space, tables, y, level).m == _reference_design_m(space, y, level)
    assert pencils == {True, False}


def test_lineset_space_mismatch(o6plus2, sp62):
    y = make_lineset(sp62, [0, 1])
    with pytest.raises(ValueError, match="different space"):
        inner_distribution(o6plus2, y)


def test_the_dual_distribution_has_no_int64_ceiling(monkeypatch, o6plus2, o73):
    """a, aQ and both routes' verdicts, with each L Q column and its L scaled by 2^45.

    That is past the old guard, n^2 max|LQ| < 2^63, on both spaces, and the
    O(7,3) hexagon's |Y|^2 max|LQ| is past 2^63 too, so an int64 dual would wrap.
    """
    from polarlines.search import enumerate_regular_sets

    v11 = enumerate_regular_sets(o6plus2, tables_for_space(o6plus2), "11", 15).sets
    assert len(v11) == 28
    cases = []
    for space, sets in ((o6plus2, v11), (o73, [con.hexagon_lines(o73)])):
        X = np.zeros((space.n_lines, len(sets)), dtype=bool)
        for c, y in enumerate(sets):
            X[analysis._as_indices(space, y), c] = True
        cases.append((space, tables_for_space(space), X))
    plain = [analysis._regular_set_check(*case) for case in cases]
    assert [{r.eigenspace for _, _, r in checks} for checks in plain] == [{"11"}, {"20"}]

    unscaled = analysis.integer_column

    def scaled(tables, j):
        col, L = unscaled(tables, j)
        return [c * 2**45 for c in col], L * 2**45

    monkeypatch.setattr(analysis, "integer_column", scaled)
    for (space, tables, X), want in zip(cases, plain):
        top = max(abs(c) for j in range(5) for c in scaled(tables, j)[0])
        assert space.n_lines**2 * top >= 2**63
        assert analysis._regular_set_check(space, tables, X) == want
