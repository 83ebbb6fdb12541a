import itertools

import pytest

from polarlines import constructions as con
from polarlines.analysis import eigenspace_support, inner_distribution, regular_set_check
from polarlines.schemetables import tables_for_space
from polarlines.search import (
    _Nodes,
    disjoint_section_packing,
    enumerate_regular_sets,
    feasibility_probe,
    line_spread_search,
    max_clique,
    packing_union,
)

import numpy as np


def test_search_rediscovers_the_quadrangle_sections(o6plus2):
    tables = tables_for_space(o6plus2)
    res = enumerate_regular_sets(o6plus2, tables, "11", 15)
    assert res.complete
    assert len(res.sets) == 28  # one per nondegenerate hyperplane
    assert res.nodes == 67
    _, incidence = con.section_line_sets(o6plus2, "gq")
    sections = {frozenset(np.flatnonzero(row).tolist()) for row in incidence}
    assert {frozenset(s) for s in res.sets} == sections


def test_no_regular_v20_set_of_size_35(o6plus2):
    tables = tables_for_space(o6plus2)
    res = enumerate_regular_sets(o6plus2, tables, "20", 35, budget=10**9)
    assert res.complete and not res.sets
    assert res.nodes == 167


def test_inadmissible_sizes_rejected_without_search(o6plus2):
    tables = tables_for_space(o6plus2)
    res = enumerate_regular_sets(o6plus2, tables, "11", 16)
    assert res.complete and not res.sets and res.nodes == 0
    assert "rejected" in res.note


@pytest.mark.parametrize("stop_after", [0, -1])
def test_stop_after_below_one_is_rejected(o6plus2, stop_after):
    tables = tables_for_space(o6plus2)
    with pytest.raises(ValueError, match="stop_after must be at least 1"):
        enumerate_regular_sets(o6plus2, tables, "11", 15, stop_after=stop_after)


@pytest.mark.parametrize("budget", [0, -1])
def test_budget_below_one_is_rejected(o6plus2, budget):
    tables = tables_for_space(o6plus2)
    with pytest.raises(ValueError, match="node budget must be at least 1"):
        enumerate_regular_sets(o6plus2, tables, "11", 15, budget=budget)
    with pytest.raises(ValueError, match="node budget must be at least 1"):
        disjoint_section_packing(o6plus2, budget=budget)


def test_budget_exhaustion_is_flagged(sp62):
    tables = tables_for_space(sp62)
    res = enumerate_regular_sets(sp62, tables, "20", 63, budget=10)
    assert not res.complete
    assert res.note == "node budget exhausted"


def test_search_finds_spreads_and_hexagons_in_sp62(sp62):
    from polarlines.analysis import plane_profile

    tables = tables_for_space(sp62)
    res = enumerate_regular_sets(sp62, tables, "20", 63, budget=200_000, stop_after=2)
    assert len(res.sets) == 2
    assert not res.complete and "solution cap" in res.note
    for found in res.sets:
        rep = regular_set_check(sp62, tables, found)
        assert rep.is_regular and rep.eigenspace == "20"
        assert inner_distribution(sp62, found) == (1, 6, 0, 24, 32)
        # a minimal V20 set is either the line set of a plane spread (nine
        # full planes) or hexagon-like (no plane holds more than q+1 lines)
        hist = plane_profile(sp62, found).histogram
        assert hist.get(7, 0) == 9 or set(hist) <= {0, 1, 3}


def test_probe_none_with_and_without_prefilter(o6plus2):
    tables = tables_for_space(o6plus2)
    fast = feasibility_probe(o6plus2, tables, {"10"}, 21)
    assert fast.status == "none" and fast.nodes == 0
    honest = feasibility_probe(o6plus2, tables, {"10"}, 21, prefilter=False)
    assert honest.status == "none" and honest.nodes > 0
    assert honest.nodes == 31


def test_probe_witnesses(o6plus2):
    tables = tables_for_space(o6plus2)
    gq = feasibility_probe(o6plus2, tables, {"11"}, 15)
    assert gq.status == "witness"
    assert eigenspace_support(o6plus2, tables, gq.witness) == {"11"}
    planes = feasibility_probe(o6plus2, tables, {"10", "20"}, 35)
    assert planes.status == "witness"
    assert eigenspace_support(o6plus2, tables, planes.witness) <= {"10", "20"}
    pencils = feasibility_probe(o6plus2, tables, {"10", "11"}, 45)
    assert pencils.status == "witness"


def test_probe_divisibility_prefilter_on_plane_orthogonal_supports(o6plus2):
    tables = tables_for_space(o6plus2)
    res = feasibility_probe(o6plus2, tables, {"11", "21"}, 20)
    assert res.status == "none" and "multiple of 15" in res.note


def test_probe_unknown_under_tiny_budget(o6plus2):
    tables = tables_for_space(o6plus2)
    res = feasibility_probe(o6plus2, tables, {"11", "20"}, 35, budget=50, catalog=False)
    assert res.status == "unknown"
    assert res.note == "node budget exhausted"


def test_line_spread_of_minus_quadric_section(sp62):
    sec = con.quadric_section(sp62, "minus")
    inside = set(sec.point_indices)
    lines = [li for li, pts in enumerate(sp62.line_points) if all(p in inside for p in pts)]
    res = line_spread_search(sp62, sec.point_indices, lines)
    assert res.lines is not None and res.complete
    assert len(res.lines) == 9
    covered = [p for li in res.lines for p in sp62.line_points[li]]
    assert sorted(covered) == sorted(inside)
    assert inner_distribution(sp62, res.lines) == (1, 0, 0, 0, 8)


def test_spread_precondition_on_point_count(o6plus2):
    # 35 points, lines of size 3: no exact cover is possible
    with pytest.raises(ValueError, match="divisible"):
        line_spread_search(o6plus2)


def test_full_space_line_spread_exists_in_sp62(sp62):
    res = line_spread_search(sp62, budget=5_000_000)
    if res.lines is not None:
        covered = [p for li in res.lines for p in sp62.line_points[li]]
        assert sorted(covered) == list(range(63))
        assert len(res.lines) == 21
    else:
        assert not res.complete  # only acceptable failure is a budget stop


def test_hemisystem_search_and_lift(o73):
    from polarlines.search import m_ovoid_search

    tables = tables_for_space(o73)
    sec = con.find_section(o73, "gq")
    pts = con.section_point_indices(o73, sec)
    lines = list(con.hyperplane_section_lines(o73, sec).indices)
    res = m_ovoid_search(o73, pts, lines, 2, budget=500_000)
    assert res.points is not None and len(res.points) == 56
    assert con.validate_m_ovoid(o73, sec, res.points) == 2
    lift = con.m_ovoid_lift(o73, sec, res.points)
    assert len(lift) == 1680  # m q (q^2+1)(q^3+1) at m=2, q=3
    rep = regular_set_check(o73, tables, lift)
    assert rep.is_regular and rep.eigenspace == "11"


def test_m_ovoid_search_rejects_bad_m(o6plus2):
    sec = con.find_section(o6plus2, "gq")
    pts = con.section_point_indices(o6plus2, sec)
    lines = list(con.hyperplane_section_lines(o6plus2, sec).indices)
    from polarlines.search import m_ovoid_search

    with pytest.raises(ValueError, match="between"):
        m_ovoid_search(o6plus2, pts, lines, 9)


def test_max_clique_on_known_graph():
    adj = np.zeros((6, 6), dtype=bool)
    for a, b in [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (3, 5)]:
        adj[a, b] = adj[b, a] = True
    clique, complete, _ = max_clique(adj)
    assert complete and len(clique) == 3


def _reference_max_clique(adj, budget=None):
    """Exact maximum clique by branch and bound with greedy coloring bounds.

    adj is a boolean numpy matrix.  Returns (clique tuple, complete, nodes).
    """
    n = adj.shape[0]
    masks = []
    for i in range(n):
        m = 0
        for j in np.nonzero(adj[i])[0]:
            if j != i:
                m |= 1 << int(j)
        masks.append(m)
    best = []
    nodes = _Nodes(budget)

    def color_order(cand):
        order, bounds = [], []
        color = 0
        rest = cand
        while rest:
            color += 1
            avail = rest
            while avail:
                b = avail & -avail
                v = b.bit_length() - 1
                order.append(v)
                bounds.append(color)
                avail &= ~masks[v]
                avail ^= b
                rest ^= b
        return order, bounds

    def expand(current, cand):
        nonlocal best
        nodes.tick()
        order, bounds = color_order(cand)
        for k in range(len(order) - 1, -1, -1):
            if len(current) + bounds[k] <= len(best):
                return
            v = order[k]
            current.append(v)
            nxt = cand & masks[v]
            if nxt:
                expand(current, nxt)
            elif len(current) > len(best):
                best = list(current)
            current.pop()
            cand &= ~(1 << v)

    complete = nodes.run(expand, [], (1 << n) - 1) == "exhausted"
    return tuple(sorted(best)), complete, nodes.count


def _random_graph(rng, n, density):
    upper = np.triu(rng.random((n, n)) < density, 1)
    return upper | upper.T


@pytest.mark.parametrize("seed", range(2))
def test_max_clique_matches_the_reference_search(seed):
    """Same clique, completeness and node count as the uncut colouring, budgets included."""
    rng = np.random.default_rng(seed)
    for n in (0, 1, 2, 3) + tuple(rng.integers(4, 91, size=6).tolist()):
        for density in (0.1, 0.3, 0.5, 0.7, 0.9):
            adj = _random_graph(rng, n, density)
            full = _reference_max_clique(adj)
            for budget in (None, 1, max(1, full[2] // 2)):
                assert max_clique(adj, budget) == _reference_max_clique(adj, budget)


def test_max_clique_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def graphs(draw):
        n = draw(st.integers(0, 12))
        pairs = list(itertools.combinations(range(n), 2))
        bits = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        adj = np.zeros((n, n), dtype=bool)
        for (a, b), bit in zip(pairs, bits):
            adj[a, b] = adj[b, a] = bit
        # the diagonal is ignored, whatever it holds
        adj[np.diag_indices(n)] = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        return adj

    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @hypothesis.given(graphs(), st.one_of(st.none(), st.integers(1, 40)))
    def check(adj, budget):
        clique, complete, nodes = max_clique(adj, budget)
        assert (clique, complete, nodes) == _reference_max_clique(adj, budget)
        assert all(adj[a, b] for a, b in itertools.combinations(clique, 2))
        if complete:
            n = adj.shape[0]
            assert not any(
                all(adj[a, b] for a, b in itertools.combinations(bigger, 2))
                for bigger in itertools.combinations(range(n), len(clique) + 1)
            )

    check()


@pytest.mark.parametrize(
    "adj",
    [np.ones((3, 4), dtype=bool), np.ones(5, dtype=bool), np.triu(np.ones((4, 4), dtype=bool))],
    ids=["non_square", "one_dimensional", "asymmetric"],
)
def test_max_clique_rejects_a_bad_adjacency(adj):
    with pytest.raises(ValueError, match="square symmetric"):
        max_clique(adj)


def test_packing_g2(o6plus2):
    tables = tables_for_space(o6plus2)
    res = disjoint_section_packing(o6plus2)
    assert res.complete and res.count == 7
    union = packing_union(o6plus2, res)
    assert len(union) == 105  # a full partition into 7 quadrangle sections
    partial = [li for ls in res.line_sets[:3] for li in ls]
    rep = regular_set_check(o6plus2, tables, partial)
    assert rep.is_regular and rep.eigenspace == "11"


def test_packing_rejected_outside_o6plus(sp62):
    with pytest.raises(ValueError, match="O6plus"):
        disjoint_section_packing(sp62)
