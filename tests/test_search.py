import hashlib
import itertools
import json
import random
import sys
from dataclasses import replace
from math import lcm

import pytest

from polarlines import analysis as pl_analysis
from polarlines import constructions as con
from polarlines import search as pl_search
from polarlines.analysis import (
    eigenspace_support,
    expected_degrees,
    inner_distribution,
    regular_set_check,
)
from polarlines.schemetables import make_tables, tables_for_space
from polarlines.spaces import REL_TAGS
from polarlines.search import (
    SearchResult,
    _MembershipSearch,
    _Nodes,
    _bits,
    _disjointness,
    _guards_set,
    _orbit_constraints,
    _projector_rows,
    _reach_words,
    _Stop,
    _target_fields,
    disjoint_section_packing,
    enumerate_regular_sets,
    feasibility_probe,
    line_spread_search,
    m_ovoid_search,
    max_clique,
)

import numpy as np

from test_analysis import TEST_SPACE_PARAMS


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


def test_no_regular_v10_set_of_size_42(o6plus2):
    tables = tables_for_space(o6plus2)
    res = enumerate_regular_sets(o6plus2, tables, "10", 42)
    assert res.complete and not res.sets
    assert res.nodes == 1745


def test_the_stacked_recheck_matches_the_per_set_check(o6plus2, o73):
    """_regular_set_check over many columns, against regular_set_check one set at a time.

    On O+(6,2): the V11/15 sets, the V20/35 ones (there are none), the
    complements of the first and seeded random sets, in one block.  On O(7,3)
    the hexagon, its complement and random sets span three blocks of columns.
    """
    t62 = tables_for_space(o6plus2)
    v20 = enumerate_regular_sets(o6plus2, t62, "20", 35).sets
    assert v20 == ()
    v11 = enumerate_regular_sets(o6plus2, t62, "11", 15).sets
    hexagon = con.hexagon_lines(o73).indices
    for space, sets in ((o6plus2, v11 + v20), (o73, (hexagon,))):
        n = space.n_lines
        rng = np.random.default_rng(n)
        sets += tuple(tuple(sorted(set(range(n)) - set(y))) for y in sets)
        sets += tuple(tuple(rng.choice(n, k, replace=False)) for k in rng.integers(1, n, 40))
        X = np.zeros((n, len(sets)), dtype=bool)
        for c, y in enumerate(sets):
            X[list(y), c] = True
        tables = tables_for_space(space)
        stacked = pl_analysis._regular_set_check(space, tables, X)
        assert [rep for _, _, rep in stacked] == [regular_set_check(space, tables, y) for y in sets]
        assert [a for a, _, _ in stacked[::9]] == [inner_distribution(space, y) for y in sets[::9]]
        # the regular sets and their complements, and no random set
        assert sum(rep.is_regular for _, _, rep in stacked) == len(sets) - 40


def _planted(monkeypatch, extra):
    """Let _regular_search return one more set than it found."""
    search = pl_search._regular_search

    def planted(*args):
        result = search(*args)
        return replace(result, sets=result.sets + (tuple(extra),))

    monkeypatch.setattr(pl_search, "_regular_search", planted)


def test_a_planted_irregular_set_fails_the_recheck(monkeypatch, o6plus2):
    tables = tables_for_space(o6plus2)
    y = tuple(sorted(random.Random(15).sample(range(o6plus2.n_lines), 15)))
    assert not regular_set_check(o6plus2, tables, y).is_regular
    _planted(monkeypatch, y)
    with pytest.raises(RuntimeError, match="fails independent verification"):
        enumerate_regular_sets(o6plus2, tables, "11", 15)


def test_a_planted_set_of_another_eigenspace_fails_the_recheck(monkeypatch, sp62):
    tables = tables_for_space(sp62)
    (y,) = enumerate_regular_sets(sp62, tables, "11", 45, stop_after=1).sets
    _planted(monkeypatch, y)
    with pytest.raises(RuntimeError, match="fails independent verification"):
        enumerate_regular_sets(sp62, tables, "20", 63, stop_after=1)


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


def test_projector_probe_witness_and_node_count(sp62):
    tables = tables_for_space(sp62)
    res = feasibility_probe(sp62, tables, {"10", "20"}, 7, catalog=False, prefilter=False)
    assert (res.status, res.witness, res.nodes) == ("witness", tuple(range(7)), 624)
    assert eigenspace_support(sp62, tables, res.witness) <= {"10", "20"}


def _reference_projector_rows(tables, support):
    """The projector rows, each with the lcm of its own Q column taken in place."""
    rows = []
    for jtag in REL_TAGS[1:]:
        if jtag in support:
            continue
        j = REL_TAGS.index(jtag)
        den = lcm(*(tables.Q[i][j].denominator for i in range(5)))
        coefs = [int(tables.Q[i][j] * den) for i in range(5)]
        rows.append((coefs[0], coefs[1:]))
    return rows


@pytest.mark.parametrize("q,e2", TEST_SPACE_PARAMS)
def test_projector_rows_match_the_reference(q, e2):
    tables = make_tables(q, e2)
    for r in range(5):
        for support in itertools.combinations(REL_TAGS[1:], r):
            want = _reference_projector_rows(tables, set(support))
            assert repr(_projector_rows(tables, set(support))) == repr(want), support


def test_a_search_deeper_than_the_recursion_limit_finishes(sp62):
    """The probe above branches 316 levels deep; the core keeps no Python frame per level."""
    tables = tables_for_space(sp62)
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 100)
    try:
        res = feasibility_probe(sp62, tables, {"10", "20"}, 7, catalog=False, prefilter=False)
    finally:
        sys.setrecursionlimit(limit)
    assert (res.status, res.witness, res.nodes) == ("witness", tuple(range(7)), 624)


def test_probe_divisibility_prefilter_on_plane_orthogonal_supports(o6plus2):
    tables = tables_for_space(o6plus2)
    res = feasibility_probe(o6plus2, tables, {"11", "21"}, 20)
    assert res.status == "none" and "multiple of 15" in res.note


def test_probe_unknown_under_tiny_budget(o6plus2):
    tables = tables_for_space(o6plus2)
    res = feasibility_probe(o6plus2, tables, {"11", "20"}, 35, budget=50, catalog=False)
    assert res.status == "unknown"
    assert res.note == "node budget exhausted"


def test_the_catalog_stops_at_the_node_budget(o6plus2, sp62):
    """The budget bounds each catalog search; the nodes reported are the exhaustive search's."""
    res = feasibility_probe(sp62, tables_for_space(sp62), {"10", "20"}, 280, budget=10)
    assert (res.status, res.nodes, res.note) == ("unknown", 11, "node budget exhausted")
    # five disjoint planes of O+(6,2) are a clique found in five nodes, the root and one
    # per plane but the last
    tables = tables_for_space(o6plus2)
    found = feasibility_probe(o6plus2, tables, {"10", "20"}, 35, budget=5)
    assert (found.status, found.nodes, found.note) == ("witness", 0, "catalog construction")
    short = feasibility_probe(o6plus2, tables, {"10", "20"}, 35, budget=4)
    assert (short.status, short.nodes, short.note) == ("unknown", 5, "node budget exhausted")


def test_the_catalog_finds_thirty_disjoint_planes_within_a_small_budget(sp62):
    tables = tables_for_space(sp62)
    res = feasibility_probe(sp62, tables, {"10", "20"}, 210, budget=1000)
    assert (res.status, res.nodes, res.note) == ("witness", 0, "catalog construction")
    assert len(res.witness) == 210
    assert eigenspace_support(sp62, tables, res.witness) <= {"10", "20"}


def test_the_clique_search_proves_there_are_no_forty_disjoint_sp62_planes(sp62):
    """Sp(6,2) has at most 36 pairwise line-disjoint planes, so a catalog of 40 ends."""
    incidence = np.zeros((len(sp62.plane_lines_arr), sp62.n_lines), dtype=bool)
    np.put_along_axis(incidence, sp62.plane_lines_arr, True, axis=1)
    res = max_clique(_disjointness(incidence), goal=40)
    assert (res.stopped_by, res.nodes, res.sets) == ("exhausted", 74_397, ((),))


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
    assert res.complete and res.nodes == 10_672
    assert res.points[:6] == (4, 13, 23, 24, 25, 26)
    assert hashlib.sha256(json.dumps(list(res.points)).encode()).hexdigest()[:16] == (
        "ee0e6ad8019f52db"
    )
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
    # and a line with a point off the given points
    with pytest.raises(ValueError, match="inside the section points"):
        m_ovoid_search(o6plus2, pts[1:], lines, 1)


def test_max_clique_on_known_graph():
    adj = np.zeros((6, 6), dtype=bool)
    for a, b in [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (3, 5)]:
        adj[a, b] = adj[b, a] = True
    res = max_clique(adj)
    assert res.complete and len(res.sets[0]) == 3


def _reference_max_clique(adj, budget=None):
    """Exact maximum clique by branch and bound with greedy coloring bounds.

    adj is a boolean numpy matrix.  Returns a SearchResult whose one set is the clique.
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

    stop = nodes.run(expand, [], (1 << n) - 1)
    return SearchResult(stop, nodes.count, sets=(tuple(sorted(best)),))


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
            for budget in (None, 1, max(1, full.nodes // 2)):
                assert max_clique(adj, budget) == _reference_max_clique(adj, budget)


@pytest.mark.parametrize("seed", range(2))
def test_max_clique_reaches_a_goal_exactly_when_the_clique_number_does(seed):
    rng = np.random.default_rng(seed)
    for n in (1, 2, 3) + tuple(rng.integers(4, 61, size=4).tolist()):
        for density in (0.1, 0.5, 0.9):
            adj = _random_graph(rng, n, density)
            omega = len(_reference_max_clique(adj).sets[0])
            for goal in range(1, omega + 3):
                res = max_clique(adj, goal=goal)
                (clique,) = res.sets
                if goal <= omega:
                    assert (res.stopped_by, len(clique)) == ("found", goal)
                    assert all(adj[a, b] for a, b in itertools.combinations(clique, 2))
                else:
                    assert (res.stopped_by, clique) == ("exhausted", ())


def test_max_clique_rejects_a_goal_below_one():
    with pytest.raises(ValueError, match="goal must be at least 1, .* got 0"):
        max_clique(np.ones((3, 3), dtype=bool), goal=0)


def test_max_clique_rejects_a_goal_with_automorphisms():
    adj = _circulant(5, {1})
    with pytest.raises(ValueError, match="given without automorphisms, got 2"):
        max_clique(adj, goal=2, automorphisms=[(np.arange(5) + 1) % 5])


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
        res = max_clique(adj, budget)
        assert res == _reference_max_clique(adj, budget)
        (clique,) = res.sets
        assert all(adj[a, b] for a, b in itertools.combinations(clique, 2))
        if res.complete:
            n = adj.shape[0]
            assert not any(
                all(adj[a, b] for a, b in itertools.combinations(bigger, 2))
                for bigger in itertools.combinations(range(n), len(clique) + 1)
            )

    check()


def _circulant(n, connections):
    """The graph on Z_n joining a and b when a - b or b - a is a connection."""
    diff = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    return np.isin(diff, list(connections)) | np.isin(-diff % n, list(connections))


def test_max_clique_orbit_reduction_on_circulant_graphs():
    """Rotation is an automorphism of a circulant graph, which it makes vertex-transitive."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.integers(1, 40), st.sets(st.integers(1, 39)), st.booleans())
    def check(n, connections, both):
        adj = _circulant(n, {c % n for c in connections} - {0})
        rotation = (np.arange(n) + 1) % n
        moves = [rotation, (-np.arange(n)) % n] if both else [rotation]
        reduced, plain = max_clique(adj, automorphisms=moves), max_clique(adj)
        assert (reduced.sets, reduced.complete) == (plain.sets, plain.complete)

    check()


def test_max_clique_under_a_budget_with_automorphisms():
    adj = _circulant(37, {1, 3, 4, 7, 11, 16})
    rotation = (np.arange(37) + 1) % 37
    full = max_clique(adj, automorphisms=[rotation])
    assert full.stopped_by == "found" and full.sets == max_clique(adj).sets
    for budget in (1, 2, full.nodes // 2, full.nodes - 1):
        res = max_clique(adj, budget, automorphisms=[rotation])
        assert (res.stopped_by, res.complete, res.nodes) == ("budget", False, budget + 1)
        assert all(adj[a, b] for a, b in itertools.combinations(res.sets[0], 2))
    assert max_clique(adj, full.nodes, automorphisms=[rotation]) == full


@pytest.mark.parametrize(
    "move,match",
    [
        ([1, 2, 3, 4, 0], "does not keep the edges"),
        ([0, 0, 1, 2, 3], "permute the 5 vertices"),
        ([0, 1, 2, 3], "permute the 5 vertices"),
        ([0.0, 1.0, 2.0, 3.0, 4.0], "permute the 5 vertices"),
        ([1, 2, 3, 4, 5], "permute the 5 vertices"),
    ],
    ids=["not_an_automorphism", "not_a_bijection", "too_short", "not_integer", "out_of_range"],
)
def test_max_clique_rejects_a_bad_automorphism(move, match):
    # the path 0-1-2-3-4: reversal is its one automorphism besides the identity
    adj = np.zeros((5, 5), dtype=bool)
    for a in range(4):
        adj[a, a + 1] = adj[a + 1, a] = True
    reduced, plain = max_clique(adj, automorphisms=[[4, 3, 2, 1, 0]]), max_clique(adj)
    assert (reduced.sets, reduced.complete) == (plain.sets, plain.complete)
    with pytest.raises(ValueError, match=match):
        max_clique(adj, automorphisms=[[4, 3, 2, 1, 0], move])


@pytest.mark.parametrize(
    "adj",
    [np.ones((3, 4), dtype=bool), np.ones(5, dtype=bool), np.triu(np.ones((4, 4), dtype=bool))],
    ids=["non_square", "one_dimensional", "asymmetric"],
)
def test_max_clique_rejects_a_bad_adjacency(adj):
    with pytest.raises(ValueError, match="square symmetric"):
        max_clique(adj)


# -- the membership DFS core against its unpacked predecessor -----------------------

_OUT, _IN, _UNDECIDED = 0, 1, 2
# degree-rule domains as bits: 1 = may be in, 2 = may be out
_DOMAIN = np.array([2, 1, 3], dtype=np.uint8)  # indexed by status


class _ReferenceMembershipSearch:
    """The membership DFS core as it was before its state was packed: the oracle
    of test_membership_search_matches_the_reference_core.

    DFS over the 0/1 memberships of n items with exact propagation.

    Constraints plug in at construction:

    - size: the exact number of members, or None for any;
    - labels: the line relation table of a line search.  The per-relation
      counts of members and undecided neighbours feed either degrees, the
      (inside, outside) targets of relations R10..R21, which force items and,
      once the cardinality is settled, the rest; or projectors, integer
      projector rows (c0, c) whose value on the final set must vanish, which
      only prune;
    - blocks: (members, target) pairs; each block ends with exactly target
      members and forces its undecided members once it is settled.

    Branching takes the lowest undecided item, first in and then out.
    """

    def __init__(
        self,
        n,
        budget,
        size=None,
        labels=None,
        valencies=None,
        degrees=None,
        projectors=None,
        blocks=(),
    ):
        # valencies goes unused: the reference counts each line's from the table itself
        self.nodes = _Nodes(budget)
        self.size = size
        self.status = bytearray([_UNDECIDED]) * n
        self.view = np.frombuffer(self.status, dtype=np.uint8)
        self.n_in = 0
        self.n_und = n
        self.trail = []
        self.solutions = []
        self.stop_after = None

        self.nbr = None
        if labels is not None:
            # flat indices into the (4, n) tables: relation i neighbour y of x
            # sits at (i - 1) * n + y
            self.nbr = []
            for row in labels:
                ys = np.flatnonzero(row)
                self.nbr.append((row[ys].astype(np.intp) - 1) * n + ys)
            self.cnt = np.zeros((4, n), dtype=np.int32)
            census = np.stack([np.bincount(row, minlength=5) for row in labels])
            self.und = np.ascontiguousarray(census[:, 1:].T, dtype=np.int32)
            self.cnt_flat, self.und_flat = self.cnt.reshape(-1), self.und.reshape(-1)
        self.degrees = None
        if degrees is not None:
            self.degrees = tuple(np.array(t, dtype=np.int32)[:, None] for t in degrees)
        self.projectors = None
        if projectors:
            c0 = np.array([[p[0]] for p in projectors], dtype=np.int64)
            c = np.array([p[1] for p in projectors], dtype=np.int64)
            self.projectors = (
                c, np.minimum(c, 0), np.maximum(c, 0), c0, np.minimum(c0, 0), np.maximum(c0, 0)
            )

        self.members = [tuple(m) for m, _ in blocks]
        self.cap_in = [t for _, t in blocks]
        self.cap_out = [len(m) - t for m, t in blocks]
        self.cin = [0] * len(blocks)
        self.cout = [0] * len(blocks)
        self.item_blocks = [[] for _ in range(n)]
        for b, m in enumerate(self.members):
            for x in m:
                self.item_blocks[x].append(b)
        self.hot = list(range(len(blocks)))  # blocks that may be settled or broken

    def run(self, stop_after=None):
        """Search: every solution, or the first stop_after, with why the search stopped."""
        self.stop_after = stop_after
        stop = self.nodes.run(self._dfs)
        return SearchResult(stop, self.nodes.count, sets=tuple(self.solutions))

    def _set(self, x, val):
        self.status[x] = val
        self.trail.append(x)
        self.n_und -= 1
        if self.nbr is not None:
            idx = self.nbr[x]
            self.und_flat[idx] -= 1
            if val:
                self.cnt_flat[idx] += 1
        if val:
            self.n_in += 1
            cin, cap = self.cin, self.cap_in
            for b in self.item_blocks[x]:
                cin[b] += 1
                if cin[b] >= cap[b]:
                    self.hot.append(b)
        else:
            cout, cap = self.cout, self.cap_out
            for b in self.item_blocks[x]:
                cout[b] += 1
                if cout[b] >= cap[b]:
                    self.hot.append(b)

    def _undo_to(self, mark):
        trail, status = self.trail, self.status
        cin, cout = self.cin, self.cout
        while len(trail) > mark:
            x = trail.pop()
            val = status[x]
            status[x] = _UNDECIDED
            self.n_und += 1
            if self.nbr is not None:
                idx = self.nbr[x]
                self.und_flat[idx] += 1
                if val:
                    self.cnt_flat[idx] -= 1
            if val:
                self.n_in -= 1
                for b in self.item_blocks[x]:
                    cin[b] -= 1
            else:
                for b in self.item_blocks[x]:
                    cout[b] -= 1
        self.hot.clear()

    def _propagate(self):
        """Apply forced memberships up to the fixpoint; False on a contradiction.

        The fixpoint does not depend on the order in which forced items are
        applied, so neither do the search tree and its node count.
        """
        status, hot = self.status, self.hot
        while True:
            while hot:
                b = hot.pop()
                if self.cin[b] > self.cap_in[b] or self.cout[b] > self.cap_out[b]:
                    return False
                if self.cin[b] == self.cap_in[b]:
                    val = _OUT
                elif self.cout[b] == self.cap_out[b]:
                    val = _IN
                else:
                    continue
                for x in self.members[b]:
                    if status[x] == _UNDECIDED:
                        self._set(x, val)
            if self.size is not None and not self.n_in <= self.size <= self.n_in + self.n_und:
                return False
            if self.projectors is not None:
                return self._projectors_ok()
            if self.degrees is None:
                return True
            forced = self._degree_forced()
            if forced is None:
                return False
            if not forced[0]:
                return True
            for x, val in zip(*forced):
                self._set(x, val)

    def _degree_forced(self):
        """Degree-target rule: (items, values) it forces, or None on a contradiction."""
        cnt, und = self.cnt, self.und.view(np.uint32)
        t_in, t_out = self.degrees
        # a target t stays reachable while 0 <= t - cnt <= und
        may_in = ((t_in - cnt).view(np.uint32) <= und).all(axis=0)
        may_out = ((t_out - cnt).view(np.uint32) <= und).all(axis=0)
        dom = _DOMAIN[self.view] & (may_in.view(np.uint8) | (may_out.view(np.uint8) << 1))
        if not dom.all():
            return None
        # only undecided items keep both bits; a settled cardinality decides them
        if self.n_in == self.size:
            dom[dom == 3] = 2
        elif self.n_in + self.n_und == self.size:
            dom[dom == 3] = 1
        items = np.flatnonzero((self.view == _UNDECIDED) & (dom != 3))
        return items.tolist(), (2 - dom[items]).tolist()

    def _projectors_ok(self):
        """Every projector row can still vanish at every line: 0 in [now + lo, now + hi]."""
        c, c_neg, c_pos, c0, c0_neg, c0_pos = self.projectors
        undec = self.view == _UNDECIDED
        now = c @ self.cnt + c0 * (self.view == _IN)
        lo = now + c_neg @ self.und + c0_neg * undec
        hi = now + c_pos @ self.und + c0_pos * undec
        return not ((lo > 0) | (hi < 0)).any()

    def _dfs(self):
        self.nodes.tick()
        mark = len(self.trail)
        if self._propagate():
            x = self.status.find(_UNDECIDED)
            if x < 0:
                self.solutions.append(tuple(np.flatnonzero(self.view == _IN).tolist()))
                if self.stop_after is not None and len(self.solutions) >= self.stop_after:
                    raise _Stop("solution_cap")
            else:
                settled = len(self.trail)
                for val in (_IN, _OUT):
                    self._set(x, val)
                    self._dfs()
                    self._undo_to(settled)
        self._undo_to(mark)


def test_membership_search_matches_the_reference_core(o6plus2, sp62):
    """Same sets, order, stop reason and node count as the unpacked core.

    Random instances on O+(6,2) and Sp(6,2): degree targets of regular sets,
    exact or with one target nudged, up to far outside the 16-bit fields;
    plane and pencil blocks with random targets; projector rows of random
    supports; random size, budget and solution cap.
    """
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    cases = []
    for space in (o6plus2, sp62):
        tables = tables_for_space(space)
        # (eigenspace, size) pairs whose degree targets are all integers
        whole = [
            (j, s)
            for j in range(1, 5)
            for s in range(1, space.n_lines)
            if all(v.denominator == 1 for side in expected_degrees(tables, j, s) for v in side)
        ]
        cases.append((space, tables, whole))

    def instance(rnd):
        space, tables, whole = rnd.choice(cases)
        n = space.n_lines
        rule = rnd.choice(("degrees", "projectors", "blocks"))
        # a small size is settled early, where it decides the other items
        kwargs = {"size": rnd.choice((None, rnd.randint(0, 4), rnd.randint(0, n)))}
        if rule == "degrees":
            j, size = rnd.choice(whole)
            targets = [int(v) for side in expected_degrees(tables, j, size) for v in side[1:]]
            if rnd.random() < 0.3:
                targets[rnd.randrange(8)] += rnd.choice((1, -1, 2, -3, 0x7FFF, 0x8000, -0x8000))
            kwargs["degrees"] = (targets[:4], targets[4:])
            if rnd.random() < 0.6:
                kwargs["size"] = size
        elif rule == "projectors":
            support = rnd.sample(REL_TAGS[1:], rnd.randint(1, 3))
            kwargs["projectors"] = _projector_rows(tables, support)
        if rule == "blocks" or rnd.random() < 0.3:
            members = rnd.choice((space.plane_lines, space.point_lines))
            picked = rnd.sample(range(len(members)), rnd.randint(1, 8))
            # a target outside [0, |block|] is a contradiction at the root
            lo, hi = (-1, len(members[0]) + 1) if rnd.random() < 0.1 else (0, len(members[0]))
            kwargs["blocks"] = [(members[b], rnd.randint(lo, hi)) for b in picked]
        if rule != "blocks":
            kwargs["labels"], kwargs["valencies"] = space.labels, tables.valencies
        return n, kwargs

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.integers(0, 2**64 - 1))
    def check(seed):
        rnd = random.Random(seed)
        n, kwargs = instance(rnd)
        budget = rnd.choice((1, rnd.randint(2, 400), 400))
        stop_after = rnd.choice((None, rnd.randint(1, 4)))
        got = _MembershipSearch(n, budget, **kwargs).run(stop_after)
        assert got == _ReferenceMembershipSearch(n, budget, **kwargs).run(stop_after)

    check()


@pytest.mark.parametrize("size", (1, 3, 4, 7, 8, 15, 16))
def test_block_fields_at_their_width_boundaries_match_the_reference_core(o6plus2, size):
    """Blocks at and around the field-width powers of two, with every edge target.

    Two overlapping blocks of this size take a target t in -1, 0, 1, |b|-1,
    |b| and |b|+1 and a third, disjoint, block the target 1; t = 0 and t = |b|
    leave a block full at the root, and -1 and |b|+1 end the search there.
    Each case runs with V11/15 degree targets over the lines of O+(6,2), and
    without them over just the items the blocks cover and two more.
    """
    tables = tables_for_space(o6plus2)
    inside, outside = expected_degrees(tables, 2, 15)
    degrees = ([int(v) for v in inside[1:]], [int(v) for v in outside[1:]])
    shift = max(size // 2, 1)
    first, second, third = (range(k, k + size) for k in (0, shift, shift + size))
    for target in (-1, 0, 1, size - 1, size, size + 1):
        blocks = [(first, target), (second, target), (third, 1)]
        for kwargs in (
            {
                "n": o6plus2.n_lines,
                "size": 15,
                "labels": o6plus2.labels,
                "valencies": tables.valencies,
                "degrees": degrees,
            },
            {"n": shift + 2 * size + 2},
        ):
            n = kwargs.pop("n")
            budget = 400 if "degrees" in kwargs else 3000
            got = _MembershipSearch(n, budget, blocks=blocks, **kwargs).run()
            assert got == _ReferenceMembershipSearch(n, budget, blocks=blocks, **kwargs).run()
            if target in (-1, size + 1):
                assert got == SearchResult("exhausted", 1)


def test_packed_reachability_matches_the_interval_test():
    """Both words keep every guard bit exactly where 0 <= t - cnt <= und, in all four fields.

    The counts run to the field bound 0x7FFF; the targets run past it, and
    below zero.
    """
    edges = (0, 1, 0x7FFE, 0x7FFF)
    pairs = [(c, r) for c in edges for r in edges if c <= r]
    lines = np.array(list(itertools.product(pairs, repeat=4)), dtype=np.int64)
    cnt, und = lines[..., 0], lines[..., 1] - lines[..., 0]
    targets = (-0x8000, -1, 0, 1, 0x7FFE, 0x7FFF, 0x8000, 0xFFFF, 2**40)
    for k in range(len(targets)):
        t = [targets[(k + i) % len(targets)] for i in range(4)]
        low, high = _reach_words(cnt, und, *_target_fields(t))
        assert low.dtype == high.dtype == np.uint64
        want = ((0 <= t - cnt) & (t - cnt <= und)).all(axis=1)
        assert (_guards_set(low, high) == want).all()


def test_packed_state_stays_uint64_after_a_set_and_an_undo(o6plus2):
    """In-place uint64 and int64 updates, whatever the casting rules of the NumPy at hand.

    A restore brings back the arrays, in place and byte for byte, and the ints;
    the next save takes the freed buffers again instead of allocating new ones.
    """
    tables = tables_for_space(o6plus2)
    inside, outside = expected_degrees(tables, 2, 15)
    degrees = ([int(v) for v in inside[1:]], [int(v) for v in outside[1:]])
    for kwargs, attr, dtype in (
        ({"degrees": degrees}, "state", np.uint64),
        ({"projectors": _projector_rows(tables, {"11"})}, "P", np.int64),
    ):
        search = _MembershipSearch(
            o6plus2.n_lines,
            None,
            labels=o6plus2.labels,
            valencies=tables.valencies,
            blocks=[((0, 1, 2), 1)],
            **kwargs,
        )
        live = getattr(search, attr)
        before = live.copy()
        ints = (search.IN, search.OUT, list(search.packed))
        saved = search._save()
        search._set(0, _IN)
        search._set(1, _OUT)
        assert live.dtype == dtype and not np.array_equal(live, before)
        assert (search.IN, search.OUT, search.packed) != ints
        search._restore(saved)
        assert getattr(search, attr) is live and live.dtype == dtype
        assert live.tobytes() == before.tobytes()
        assert (search.IN, search.OUT, search.packed) == ints
        buffers = search.free[-1]
        again = search._save()
        assert again[-1] is buffers and not search.free
        search._set(2, _IN)
        search._restore(again)
        assert live.tobytes() == before.tobytes() and search.free == [buffers]


def test_saved_copies_never_outnumber_the_open_in_branchings(monkeypatch, o6plus2, sp62):
    """At every node at most |IN| + 1 saved copies are held, by the root and by
    each branching whose in branch runs, and the results are the reference core's.

    On the 316-level projector probe of Sp(6,2) and on V11/30 of O+(6,2) under
    a budget of 3000 nodes.
    """
    save, propagate = _MembershipSearch._save, _MembershipSearch._propagate
    handed = {}  # every buffer list a save returned, by id
    peak = [0]

    def counting_save(self):
        saved = save(self)
        handed[id(saved[-1])] = saved[-1]
        return saved

    def checking_propagate(self):
        free = {id(copies) for copies in self.free}
        alive = sum(key not in free for key in handed)
        assert alive <= self.IN.bit_count() + 1
        peak[0] = max(peak[0], alive)
        return propagate(self)

    monkeypatch.setattr(_MembershipSearch, "_save", counting_save)
    monkeypatch.setattr(_MembershipSearch, "_propagate", checking_propagate)
    sp_tables, o_tables = tables_for_space(sp62), tables_for_space(o6plus2)
    inside, outside = expected_degrees(o_tables, 2, 30)
    constraints = _orbit_constraints(o6plus2, o_tables, "11", 30)
    probe = {
        "valencies": sp_tables.valencies,
        "projectors": _projector_rows(sp_tables, {"10", "20"}),
    }
    regular = {
        "valencies": o_tables.valencies,
        "degrees": ([int(v) for v in inside[1:]], [int(v) for v in outside[1:]]),
        "blocks": [(lines, target) for members, target in constraints for lines in members],
    }
    cases = (
        (sp62.n_lines, None, 1, dict(size=7, labels=sp62.labels, **probe)),
        (o6plus2.n_lines, 3000, None, dict(size=30, labels=o6plus2.labels, **regular)),
    )
    for n, budget, stop_after, kwargs in cases:
        handed.clear()
        peak[0] = 0
        got = _MembershipSearch(n, budget, **kwargs).run(stop_after)
        assert got == _ReferenceMembershipSearch(n, budget, **kwargs).run(stop_after)
        assert got.nodes > 1 and peak[0] > 1


def test_bits_reads_every_set_bit():
    rnd = random.Random(105)
    for n in (105, 3640):
        singles = [1 << k for k in (0, 7, 8, 63, 64, n - 1)]
        ints = [0, *singles, *(rnd.getrandbits(n) for _ in range(3))]
        for v in ints:
            bits = _bits(v, n)
            assert bits.dtype == bool
            assert bits.tolist() == [bool(v >> k & 1) for k in range(n)]


def test_a_valency_beyond_the_16_bit_fields_is_rejected(o6plus2):
    n = o6plus2.n_lines
    for valency, ok in ((0x7FFF, True), (0x8000, False)):
        valencies = list(tables_for_space(o6plus2).valencies)
        valencies[3] = valency
        kwargs = {"labels": o6plus2.labels, "valencies": valencies, "degrees": ([0] * 4, [0] * 4)}
        if ok:
            _MembershipSearch(n, None, **kwargs)
        else:
            with pytest.raises(ValueError, match="exceeds 0x7fff"):
                _MembershipSearch(n, None, **kwargs)


@pytest.mark.parametrize(
    "case",
    ["v11_30", "v20_35", "sp62_v20_63", "sp62_projector", "projector_budget", "hemisystem"],
)
def test_searches_match_the_reference_core(monkeypatch, o6plus2, sp62, o73, case):
    """The public searches give the same results on the reference core, node counts included."""

    t62, tsp = tables_for_space(o6plus2), tables_for_space(sp62)
    sec = con.find_section(o73, "gq")
    runs = {
        "v11_30": lambda: enumerate_regular_sets(o6plus2, t62, "11", 30, budget=3000),
        "v20_35": lambda: enumerate_regular_sets(o6plus2, t62, "20", 35),
        "sp62_v20_63": lambda: enumerate_regular_sets(
            sp62, tsp, "20", 63, budget=3000, stop_after=2
        ),
        "sp62_projector": lambda: feasibility_probe(
            sp62, tsp, {"10", "20"}, 7, catalog=False, prefilter=False
        ),
        "projector_budget": lambda: feasibility_probe(
            o6plus2, t62, {"11", "20"}, 35, budget=2000, catalog=False
        ),
        "hemisystem": lambda: pl_search.m_ovoid_search(
            o73,
            con.section_point_indices(o73, sec),
            list(con.hyperplane_section_lines(o73, sec).indices),
            2,
        ),
    }
    got = runs[case]()
    monkeypatch.setattr(pl_search, "_MembershipSearch", _ReferenceMembershipSearch)
    assert got == runs[case]()


def test_packing_g2(o6plus2):
    tables = tables_for_space(o6plus2)
    res = disjoint_section_packing(o6plus2)
    assert res.complete and res.count == 7
    # a full partition into 7 quadrangle sections
    assert sorted(li for ls in res.line_sets for li in ls) == list(range(105))
    partial = [li for ls in res.line_sets[:3] for li in ls]
    rep = regular_set_check(o6plus2, tables, partial)
    assert rep.is_regular and rep.eigenspace == "11"


def test_packing_rejected_outside_o6plus(sp62):
    with pytest.raises(ValueError, match="O6plus"):
        disjoint_section_packing(sp62)


def _small_graph():
    adj = np.zeros((6, 6), dtype=bool)
    for a, b in [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (3, 5)]:
        adj[a, b] = adj[b, a] = True
    return adj


def _gq_section(space):
    sec = con.find_section(space, "gq")
    lines = con.hyperplane_section_lines(space, sec).indices
    return con.section_point_indices(space, sec), list(lines)


def _minus_section_spread(sp62, budget=None):
    pts = con.quadric_section(sp62, "minus").point_indices
    inside = set(pts)
    lines = [li for li, lp in enumerate(sp62.line_points) if all(p in inside for p in lp)]
    return line_spread_search(sp62, pts, lines, budget=budget)


# each search, and (stopped_by, nodes, complete, note, status) of its result
_STOPS = {
    "enumeration_exhausted": (
        lambda o, sp: enumerate_regular_sets(o, tables_for_space(o), "20", 35),
        ("exhausted", 167, True, "", None),
    ),
    "enumeration_budget": (
        lambda o, sp: enumerate_regular_sets(sp, tables_for_space(sp), "20", 63, budget=10),
        ("budget", 11, False, "node budget exhausted", None),
    ),
    "enumeration_solution_cap": (
        lambda o, sp: enumerate_regular_sets(o, tables_for_space(o), "11", 15, stop_after=2),
        ("solution_cap", 5, False, "solution cap reached", None),
    ),
    "enumeration_rejected": (
        lambda o, sp: enumerate_regular_sets(o, tables_for_space(o), "11", 16),
        ("rejected", 0, True, "size rejected: size not a multiple of 15", None),
    ),
    "enumeration_via_complements": (
        lambda o, sp: enumerate_regular_sets(o, tables_for_space(o), "11", 90),
        ("exhausted", 67, True, "searched via complements", None),
    ),
    "enumeration_via_complements_budget": (
        lambda o, sp: enumerate_regular_sets(o, tables_for_space(o), "11", 90, budget=5),
        ("budget", 6, False, "node budget exhausted; searched via complements", None),
    ),
    "probe_found": (
        lambda o, sp: feasibility_probe(o, tables_for_space(o), {"11"}, 15),
        ("found", 4, True, "", "witness"),
    ),
    "probe_none": (
        lambda o, sp: feasibility_probe(o, tables_for_space(o), {"10"}, 21, prefilter=False),
        ("exhausted", 31, True, "", "none"),
    ),
    "probe_unknown": (
        lambda o, sp: feasibility_probe(
            o, tables_for_space(o), {"11", "20"}, 35, budget=50, catalog=False
        ),
        ("budget", 51, False, "node budget exhausted", "unknown"),
    ),
    "probe_prefilter": (
        lambda o, sp: feasibility_probe(o, tables_for_space(o), {"10"}, 21),
        ("rejected", 0, True, "divisibility prefilter: multiplier m=1 is excluded", "none"),
    ),
    "probe_size_outside": (
        lambda o, sp: feasibility_probe(o, tables_for_space(o), {"10", "20"}, -7),
        ("rejected", 0, True, "size rejected: size outside [0, 105]", "none"),
    ),
    "probe_catalog": (
        lambda o, sp: feasibility_probe(o, tables_for_space(o), {"10", "20"}, 35),
        ("found", 0, True, "catalog construction", "witness"),
    ),
    "probe_empty_set": (
        lambda o, sp: feasibility_probe(o, tables_for_space(o), {"10", "20"}, 0),
        ("found", 0, True, "empty set", "witness"),
    ),
    "spread_found": (
        lambda o, sp: _minus_section_spread(sp),
        ("found", 10, True, "", None),
    ),
    "spread_budget": (
        lambda o, sp: _minus_section_spread(sp, budget=3),
        ("budget", 4, False, "node budget exhausted", None),
    ),
    "m_ovoid_found": (
        lambda o, sp: m_ovoid_search(o, *_gq_section(o), 1),
        ("found", 3, True, "", None),
    ),
    "m_ovoid_budget": (
        lambda o, sp: m_ovoid_search(o, *_gq_section(o), 1, budget=2),
        ("budget", 3, False, "node budget exhausted", None),
    ),
    "packing_found": (
        lambda o, sp: disjoint_section_packing(o),
        ("found", 13, True, "", None),
    ),
    "max_clique_exhausted": (
        lambda o, sp: max_clique(_small_graph()),
        ("exhausted", 3, True, "", None),
    ),
    "max_clique_budget": (
        lambda o, sp: max_clique(_small_graph(), budget=2),
        ("budget", 3, False, "node budget exhausted", None),
    ),
}


@pytest.mark.parametrize("case", list(_STOPS))
def test_every_search_says_why_it_stopped(o6plus2, sp62, case):
    """stopped_by and the node count, and the complete, note and status derived from them."""
    run, want = _STOPS[case]
    res = run(o6plus2, sp62)
    status = res.status if hasattr(res, "status") else None
    assert (res.stopped_by, res.nodes, res.complete, res.note, status) == want
    # a found answer carries its solution, and only a found one
    for name in ("witness", "lines", "points"):
        if hasattr(res, name):
            assert (getattr(res, name) is not None) == (res.stopped_by == "found")
