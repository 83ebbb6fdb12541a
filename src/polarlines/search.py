"""Exhaustive and budgeted searches over line sets.

All searches run depth-first with exact integer propagation and report
honestly why they stopped: the search space was exhausted, the node budget
ran out, or the requested number of solutions was reached.  Every returned
set is re-verified through the analysis layer, independently of the search's
own bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import numpy as np

from .analysis import (
    divisibility_report,
    eigenspace_support,
    expected_degrees,
    make_lineset,
    regular_set_check,
    span_orthogonal_divisor,
)
from .schemetables import relation_census
from .spaces import REL_TAGS


@dataclass(frozen=True)
class SearchResult:
    sets: tuple
    complete: bool
    nodes: int
    note: str = ""


@dataclass(frozen=True)
class ProbeResult:
    status: str  # "witness" | "none" | "unknown"
    witness: tuple | None
    nodes: int
    note: str = ""


@dataclass(frozen=True)
class SpreadResult:
    lines: tuple | None
    complete: bool
    nodes: int


@dataclass(frozen=True)
class PointSetResult:
    points: tuple | None
    complete: bool
    nodes: int


@dataclass(frozen=True)
class PackingResult:
    count: int
    sections: tuple
    line_sets: tuple
    complete: bool
    nodes: int


# -- the node counter and stop signal every search shares --------------------------

# why a search stopped -> the note its result carries
_STOP_NOTES = {
    "exhausted": "",
    "budget": "node budget exhausted",
    "solution_cap": "solution cap reached",
}


class _Stop(Exception):
    """Unwinds a search early; reason is "budget" or "solution_cap"."""

    def __init__(self, reason):
        super().__init__(reason)
        self.reason = reason


class _Nodes:
    """Counts search nodes; the node after the budget raises _Stop("budget")."""

    def __init__(self, budget):
        if budget is not None and budget < 1:
            raise ValueError(f"node budget must be at least 1, got {budget}")
        self.limit = float("inf") if budget is None else budget
        self.count = 0

    def tick(self):
        self.count += 1
        if self.count > self.limit:
            raise _Stop("budget")

    def run(self, dfs, *args):
        """Run a search; returns why it stopped: exhausted, budget or solution_cap."""
        try:
            dfs(*args)
        except _Stop as stop:
            return stop.reason
        return "exhausted"


# -- the membership DFS core -------------------------------------------------------

_OUT, _IN, _UNDECIDED = 0, 1, 2
# degree-rule domains as bits: 1 = may be in, 2 = may be out
_DOMAIN = np.array([2, 1, 3], dtype=np.uint8)  # indexed by status


class _MembershipSearch:
    """DFS over the 0/1 memberships of n items with exact propagation.

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
        self, n, budget, size=None, labels=None, degrees=None, projectors=None, blocks=()
    ):
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
            self.und = np.ascontiguousarray(relation_census(labels)[:, 1:].T)
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
        """Search; an incomplete result's note says why the search stopped."""
        self.stop_after = stop_after
        stop = self.nodes.run(self._dfs)
        return SearchResult(
            tuple(self.solutions), stop == "exhausted", self.nodes.count, _STOP_NOTES[stop]
        )

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


# -- regular sets and feasibility probes ------------------------------------------


def _orbit_constraints(space, tables, j, size):
    """Exact block-intersection targets implied by the eigenspace.

    Plane line sets span <j> + V10 + V20 and point-pencils span
    <j> + V10 + V11, so a regular set in an eigenspace outside the span meets
    every member of the orbit in exactly size * |member| / n lines.  A
    non-integral target is an immediate infeasibility certificate.
    """
    orbits = []
    if j in ("11", "21"):
        orbits.append(space.plane_lines)
    if j in ("20", "21"):
        orbits.append(space.point_lines)
    out = []
    for members in orbits:
        target = Fraction(size * len(members[0]), tables.n)
        if target.denominator != 1:
            return None  # eigenspace forces an impossible intersection count
        out.append((members, int(target)))
    return out


def _regular_search(space, tables, j, size, budget, stop_after):
    """V_j-regular sets of exactly this size, by degree targets and block counts."""
    inside, outside = expected_degrees(tables, REL_TAGS.index(j), size)
    constraints = _orbit_constraints(space, tables, j, size)
    if constraints is None or any(v.denominator != 1 or v < 0 for v in inside + outside):
        return SearchResult((), True, 0, "degree or block targets are not nonnegative integers")
    search = _MembershipSearch(
        space.n_lines,
        budget,
        size=size,
        labels=space.labels,
        degrees=([int(v) for v in inside[1:]], [int(v) for v in outside[1:]]),
        blocks=[(lines, target) for members, target in constraints for lines in members],
    )
    return search.run(stop_after)


def enumerate_regular_sets(space, tables, j, size, budget=None, stop_after=None):
    """All regular sets with chi_Y in <j> + V_j of the given size.

    Sizes failing the divisibility conditions are rejected without search;
    sizes above n/2 are searched through their complements (a set is regular
    for V_j exactly when its complement is).  Every found set is re-checked
    through regular_set_check.  A search stopped by the node budget or by
    stop_after is incomplete, and its note says which of the two stopped it.
    """
    if j not in REL_TAGS[1:]:
        raise ValueError(f"eigenspace must be one of {REL_TAGS[1:]}")
    if stop_after is not None and stop_after < 1:
        raise ValueError(f"stop_after must be at least 1, got {stop_after}")
    report = divisibility_report(size, j, space.q, space.e2)
    if not report.consistent:
        return SearchResult((), True, 0, f"size rejected: {report.reason}")
    if size in (0, space.n_lines):
        return SearchResult((), True, 0, "only proper nonempty sets are searched")
    complemented = size > space.n_lines // 2
    target_size = space.n_lines - size if complemented else size
    result = _regular_search(space, tables, j, target_size, budget, stop_after)
    sets = result.sets
    if complemented:
        full = set(range(space.n_lines))
        sets = tuple(tuple(sorted(full - set(s))) for s in sets)
        note = (result.note + "; " if result.note else "") + "searched via complements"
        result = SearchResult(sets, result.complete, result.nodes, note)
    for sol in result.sets:
        rep = regular_set_check(space, tables, sol)
        if not rep.is_regular or rep.eigenspace != j:
            raise RuntimeError("search returned a set that fails independent verification")
    return result


def _projector_rows(tables, support):
    """Integer projector rows (c0, (c1..c4)) of the eigenspaces outside the support.

    For a forbidden eigenspace j, (M_j chi)_x = c0 [x in Y] + sum_i c_i cnt_i(x)
    must vanish at every line x.
    """
    rows = []
    for jtag in REL_TAGS[1:]:
        if jtag in support:
            continue
        j = REL_TAGS.index(jtag)
        den = lcm(*(tables.Q[i][j].denominator for i in range(5)))
        coefs = [int(tables.Q[i][j] * den) for i in range(5)]
        rows.append((coefs[0], coefs[1:]))
    return rows


def _find_disjoint_members(pool, k):
    """First k pairwise-disjoint frozensets from the pool, or None."""
    chosen = []

    def dfs(start, used):
        if len(chosen) == k:
            return True
        for idx in range(start, len(pool)):
            s = pool[idx]
            if not (s & used):
                chosen.append(idx)
                if dfs(idx + 1, used | s):
                    return True
                chosen.pop()
        return False

    if dfs(0, frozenset()):
        return [pool[i] for i in chosen]
    return None


def _catalog_witness(space, tables, support, size):
    """Try to assemble a witness from known structured families."""
    from .constructions import section_line_sets

    q, s = space.q, space.qe
    theta = space.theta
    candidates = []
    if size % theta == 0 and ("10" in support or "20" in support):
        # union of pairwise line-disjoint planes
        pool = [frozenset(lines) for lines in space.plane_lines]
        hit = _find_disjoint_members(pool, size // theta)
        if hit is not None:
            candidates.append(sorted(set().union(*hit)))
    pencil_size = (q + 1) * (s * q + 1)
    if size % pencil_size == 0 and ("10" in support or "11" in support):
        pool = [frozenset(lines) for lines in space.point_lines]
        hit = _find_disjoint_members(pool, size // pencil_size)
        if hit is not None:
            candidates.append(sorted(set().union(*hit)))
    gq_size = (s * q + 1) * (s * q * q + 1)
    if size % gq_size == 0 and "11" in support and space.family in ("O6plus", "U6", "O7"):
        _, incidence = section_line_sets(space, "gq")
        pool = [frozenset(np.flatnonzero(row).tolist()) for row in incidence]
        hit = _find_disjoint_members(pool, size // gq_size)
        if hit is not None:
            candidates.append(sorted(set().union(*hit)))
    for cand in candidates:
        if len(cand) == size and eigenspace_support(space, tables, cand) <= support:
            return tuple(cand)
    return None


def feasibility_probe(space, tables, support, size, budget=None, prefilter=True, catalog=True):
    """Search for a set of the given size with eigenspace support within S.

    With prefilter, safe divisibility conditions reject sizes without search;
    with catalog, structured candidates (disjoint unions of planes, pencils,
    quadrangle sections) are tried before the exhaustive search.  A
    conclusive "none" is only reported when the search space was exhausted.
    """
    support = frozenset(str(t).upper().lstrip("R") for t in support)
    if not support <= set(REL_TAGS[1:]):
        raise ValueError("support must be a subset of the nontrivial eigenspaces")
    if size == 0:
        return ProbeResult("witness", (), 0, "empty set")
    if prefilter:
        if len(support) == 1:
            rep = divisibility_report(size, next(iter(support)), space.q, space.e2)
            if not rep.consistent:
                return ProbeResult("none", None, 0, f"divisibility prefilter: {rep.reason}")
        # a set within these eigenspaces is orthogonal to the other two
        for within, orthogonal in (({"11", "21"}, {"10", "20"}), ({"20", "21"}, {"10", "11"})):
            modulus = span_orthogonal_divisor(orthogonal, space.q, space.e2)
            if support <= within and Fraction(size) % modulus:
                return ProbeResult(
                    "none", None, 0, f"divisibility prefilter: size not a multiple of {modulus}"
                )
    if catalog and len(support) > 1:
        witness = _catalog_witness(space, tables, support, size)
        if witness is not None:
            return ProbeResult("witness", witness, 0, "catalog construction")
    if len(support) == 1:
        # support {j} on a proper nonempty set is exactly V_j-regularity, where
        # per-vertex degree targets prune far harder than projector intervals
        result = _regular_search(space, tables, next(iter(support)), size, budget, 1)
    else:
        projectors = _projector_rows(tables, support)
        search = _MembershipSearch(
            space.n_lines, budget, size=size, labels=space.labels, projectors=projectors
        )
        result = search.run(stop_after=1)
    if result.sets:
        if not eigenspace_support(space, tables, result.sets[0]) <= support:
            raise RuntimeError("probe witness fails independent support verification")
        return ProbeResult("witness", result.sets[0], result.nodes)
    # without a witness, only the node budget can have stopped the search early
    return ProbeResult("none" if result.complete else "unknown", None, result.nodes, result.note)


# -- exact cover: line spreads ---------------------------------------------------


def line_spread_search(space, point_indices=None, line_indices=None, budget=None):
    """Partition the (sub)geometry's points into lines, by exact cover.

    Defaults to the whole space; pass the points and lines of a section to
    search a spread of an embedded quadric or quadrangle.
    """
    if point_indices is None:
        point_indices = range(len(space.points))
    if line_indices is None:
        line_indices = range(space.n_lines)
    pts = sorted(set(point_indices))
    pos = {p: k for k, p in enumerate(pts)}
    if len(pts) % (space.q + 1):
        raise ValueError("point count is not divisible by the line size q+1")
    cand = []
    for li in sorted(set(line_indices)):
        if all(p in pos for p in space.line_points[li]):
            mask = 0
            for p in space.line_points[li]:
                mask |= 1 << pos[p]
            cand.append((li, mask))
    covers = [[] for _ in pts]
    for ci, (_, mask) in enumerate(cand):
        m = mask
        while m:
            b = m & -m
            covers[b.bit_length() - 1].append(ci)
            m ^= b
    full = (1 << len(pts)) - 1
    nodes = _Nodes(budget)
    chosen = []

    def dfs(covered):
        nodes.tick()
        if covered == full:
            raise _Stop("solution_cap")  # the first spread is the answer
        # most-constrained uncovered point
        best_p, best_opts = None, None
        m = full & ~covered
        while m:
            b = m & -m
            p = b.bit_length() - 1
            opts = [ci for ci in covers[p] if not (cand[ci][1] & covered)]
            if best_opts is None or len(opts) < len(best_opts):
                best_p, best_opts = p, opts
                if not opts:
                    return
            m ^= b
        for ci in best_opts:
            chosen.append(cand[ci][0])
            dfs(covered | cand[ci][1])
            chosen.pop()

    stop = nodes.run(dfs, 0)
    if stop == "solution_cap":
        return SpreadResult(tuple(sorted(chosen)), True, nodes.count)
    return SpreadResult(None, stop == "exhausted", nodes.count)


def m_ovoid_search(space, point_indices, line_indices, m, budget=None):
    """Point set meeting every listed line in exactly m points, by DFS.

    Propagation forces the rest of a line once m points are in or the
    complementary count is out; the first solution in lexicographic order is
    returned.  Used to find m-ovoids (m = (q+1)/2 gives hemisystems) of an
    embedded quadrangle section.
    """
    pts = sorted(set(point_indices))
    pos = {p: k for k, p in enumerate(pts)}
    lines = []
    for li in sorted(set(line_indices)):
        if not all(p in pos for p in space.line_points[li]):
            raise ValueError("section lines must lie inside the section points")
        lines.append([pos[p] for p in space.line_points[li]])
    per_line = space.q + 1
    if not 0 <= m <= per_line:
        raise ValueError(f"m must be between 0 and {per_line}")
    search = _MembershipSearch(len(pts), budget, blocks=[(ln, m) for ln in lines])
    result = search.run(stop_after=1)
    found = tuple(pts[p] for p in result.sets[0]) if result.sets else None
    return PointSetResult(found, result.complete or found is not None, result.nodes)


# -- maximum clique and section packings ------------------------------------------


def max_clique(adj, budget=None):
    """Exact maximum clique by branch and bound with greedy coloring bounds.

    adj is a square symmetric matrix whose nonzero entries are the edges; its
    diagonal is ignored.  Returns (clique tuple, complete, nodes).

    Each node colours its candidates greedily, lowest vertex first, and
    branches on them from the last vertex of the last colour class down,
    returning at the first vertex whose colour c has |current| + c <= |best|.
    With kmin = |best| - |current| at the node's start, the classes 1..kmin
    are still swept, since later classes depend on them, but their vertices
    are never listed: best only grows, so the branch loop would return before
    it reached any of them.  The tree and its node count are those of listing
    every vertex.
    """
    edges = np.asarray(adj) != 0
    if edges.ndim != 2 or edges.shape[0] != edges.shape[1] or not (edges == edges.T).all():
        raise ValueError(f"adjacency must be a square symmetric matrix, got shape {edges.shape}")
    n = edges.shape[0]
    full = (1 << n) - 1
    rows = np.packbits(edges, axis=1, bitorder="little")
    masks = [int.from_bytes(row.tobytes(), "little") & ~(1 << v) for v, row in enumerate(rows)]
    keep = [full ^ (m | 1 << v) for v, m in enumerate(masks)]  # non-neighbours, v excluded
    best = []
    nodes = _Nodes(budget)

    def expand(current, cand):
        nonlocal best
        nodes.tick()
        kmin = len(best) - len(current)
        color, rest = 0, cand
        while color < kmin and rest:
            color += 1
            avail = rest
            while avail:
                b = avail & -avail
                avail &= keep[b.bit_length() - 1]
                rest ^= b
        classes = []
        while rest:
            cls, avail = [], rest
            while avail:
                b = avail & -avail
                v = b.bit_length() - 1
                cls.append(v)
                avail &= keep[v]
                rest ^= b
            classes.append(cls)
        # last colour first; a vertex of colour c bounds the clique by |current| + c
        for c in range(len(classes), 0, -1):
            bound = len(current) + color + c
            for v in reversed(classes[c - 1]):
                if bound <= len(best):
                    return
                current.append(v)
                nxt = cand & masks[v]
                if nxt:
                    expand(current, nxt)
                elif len(current) > len(best):
                    best = list(current)
                current.pop()
                cand ^= 1 << v

    complete = nodes.run(expand, [], full) == "exhausted"
    return tuple(sorted(best)), complete, nodes.count


def disjoint_section_packing(space, budget=None):
    """Largest family of pairwise line-disjoint GQ hyperplane sections.

    Vertices are the nondegenerate hyperplane sections (all of GQ kind in
    O6plus); two are adjacent when their line sets share no line.  Budget
    exhaustion downgrades the result to a lower bound, flagged incomplete.
    """
    from .constructions import section_line_sets

    if space.family != "O6plus":
        raise ValueError("section packings are computed for O6plus")
    sections, incidence = section_line_sets(space, "gq")
    packed = np.packbits(incidence, axis=1)
    adj = np.array([~(row & packed).any(axis=1) for row in packed])
    clique, complete, nodes = max_clique(adj, budget=budget)
    return PackingResult(
        count=len(clique),
        sections=tuple(sections[i] for i in clique),
        line_sets=tuple(np.flatnonzero(incidence[i]).tolist() for i in clique),
        complete=complete,
        nodes=nodes,
    )


def packing_union(space, packing):
    lines = []
    for ls in packing.line_sets:
        lines.extend(ls)
    return make_lineset(space, lines, name=f"packing_union[{packing.count}]")
