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
from .groups import o6plus_generators, vector_permutation
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

# The degree rule keeps one 16-bit field per relation R10..R21 in each uint64
# word.  A field holds a count of at most _FIELD_MAX below its guard bit, so a
# difference 0x8000 + a - b keeps its guard bit exactly when a >= b, and no
# field borrows from its neighbour.
_FIELD_MAX = 0x7FFF
_GUARD = 0x8000
_GUARDS = 0x8000_8000_8000_8000
# the same as a uint64: NumPy 1.x promotes a uint64 mixed with a Python int to float64
_GUARD_WORD = np.uint64(_GUARDS)
_SHIFTS = np.array([0, 16, 32, 48], dtype=np.uint64)
# by relation: the field a neighbour in that relation counts in; R00 is the line itself
_UNIT = np.array([0, 1, 1 << 16, 1 << 32, 1 << 48], dtype=np.uint64)


def _pack(fields):
    """Rows of four fields in [0, 0xFFFF] as uint64 words, relation R10 lowest."""
    fields = np.asarray(fields, dtype=np.int64).astype(np.uint64)
    return np.bitwise_or.reduce(fields << _SHIFTS, axis=-1)


def _target_fields(targets):
    """The fields that test cnt <= t and t <= cnt + und, for each of four targets.

    A target outside [0, _FIELD_MAX] is reachable by no line, and its second
    field, _GUARD, exceeds every count.
    """
    low = [min(max(t, 0), _FIELD_MAX) for t in targets]
    high = [t if 0 <= t <= _FIELD_MAX else _GUARD for t in targets]
    return np.array(low, dtype=np.int64), np.array(high, dtype=np.int64)


def _reach_words(cnt, und, low, high):
    """Two words per line whose guard bits are all set exactly where cnt <= low, high <= cnt + und.

    cnt and und are (lines, 4) counts with cnt + und <= _FIELD_MAX, and low
    and high are fields of _target_fields.
    """
    cnt = np.asarray(cnt, dtype=np.int64)
    return _pack(_GUARD + low - cnt), _pack(_GUARD + cnt + und - high)


def _guards_set(low, high):
    """Where every guard bit of both uint64 words is set."""
    return (low & high & _GUARD_WORD) == _GUARD_WORD


class _MembershipSearch:
    """DFS over the 0/1 memberships of n items with exact propagation.

    Constraints plug in at construction:

    - size: the exact number of members, or None for any;
    - labels: the line relation table of a line search, which feeds either
      degrees, the (inside, outside) targets of relations R10..R21 that every
      line's count of member neighbours must reach, which force items and,
      once the cardinality is settled, the rest; or projectors, integer
      projector rows (c0, c) whose value on the final set must vanish, which
      only prune;
    - blocks: (members, target) pairs of distinct items; each block ends with
      exactly target members and forces its undecided members once it is
      settled.

    Branching takes the lowest undecided item, first in and then out.

    Setting an item, and undoing it, costs one whole-array op per rule:

    - degrees: per line y and relation i, c_i(y) counts member neighbours and
      r_i(y) = c_i(y) + (undecided neighbours).  The rule holds when
      c_i <= t_i <= r_i for the target t of y's status, both targets while y
      is undecided.  state[0, y] packs 0x8000 + t_i - c_i, state[1, y] packs
      0x8000 + r_i - t_i, so the rule holds at y exactly when every guard bit
      of both words is set, and at every line when the AND of all words
      keeps them.  An in item subtracts its row of the packed relation
      table from state[0], an out item from state[1].
    - projectors: P stacks the bounds (lo, -hi) of every row at every line;
      a row can still vanish everywhere while P <= 0, and an item adds one
      gather of the bound steps by its labels row.
    - blocks: the members are int bitsets IN and OUT, so a block's counts
      are popcounts and an undo restores two words.
    """

    def __init__(
        self, n, budget, size=None, labels=None, degrees=None, projectors=None, blocks=()
    ):
        self.nodes = _Nodes(budget)
        self.n = n
        self.size = size
        self.status = bytearray([_UNDECIDED]) * n
        self.view = np.frombuffer(self.status, dtype=np.uint8)
        self.IN = self.OUT = 0
        self.trail = []
        self.solutions = []
        self.stop_after = None
        self.labels = labels

        self.state = None
        if degrees is not None:
            valency = relation_census(labels)[:, 1:]
            if valency.max(initial=0) > _FIELD_MAX:
                raise ValueError(
                    f"a relation valency of {valency.max()} exceeds {_FIELD_MAX:#x}, "
                    "the largest count a 16-bit field of the degree rule holds"
                )
            (low_in, high_in), (low_out, high_out) = (_target_fields(t) for t in degrees)
            # an undecided line must keep both targets reachable
            low, high = np.minimum(low_in, low_out), np.maximum(high_in, high_out)
            self.state = np.empty((2, n), dtype=np.uint64)
            self.state[0], self.state[1] = _reach_words(0, valency, low, high)
            self.flat = self.state.reshape(-1)
            # single words as Python ints, which a uint64 cell rejects on overflow
            self.cells = memoryview(self.flat).cast("B").cast("Q")
            self.words = (self.state[1], self.state[0])  # the word an out or in item lowers
            # what a decided line adds to its two words to test only its own target
            self.retarget = (
                (int(_pack(low_out - low)), int(_pack(high - high_out))),
                (int(_pack(low_in - low)), int(_pack(high - high_in))),
            )
            self.rows = _UNIT[labels]
        self.P = None
        if projectors:
            c = np.array([[p[0], *p[1]] for p in projectors], dtype=np.int64)
            pos, neg = np.maximum(c, 0), np.maximum(-c, 0)
            # lo and -hi start from every item undecided and climb as items settle
            valency = relation_census(labels).T
            self.P = np.concatenate([-neg @ valency, -pos @ valency]).astype(np.int64)
            self.steps = (np.concatenate([neg, pos]), np.concatenate([pos, neg]))  # out, in
            self.step = np.empty_like(self.P)

        self.masks = [0] * len(blocks)
        self.cap_in = [t for _, t in blocks]
        self.cap_out = [len(m) - t for m, t in blocks]
        # a block b whose in count may have changed is listed as b, its out count as ~b
        item_blocks = [[] for _ in range(n)]
        for b, (m, _) in enumerate(blocks):
            for x in m:
                self.masks[b] |= 1 << int(x)
                item_blocks[x].append(b)
        self.item_blocks = ([[~b for b in bs] for bs in item_blocks], item_blocks)
        self.hot = [~b for b in range(len(blocks))] + list(range(len(blocks)))

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
        if val:
            self.IN |= 1 << x
        else:
            self.OUT |= 1 << x
        self.hot.extend(self.item_blocks[val][x])
        if self.state is not None:
            word = self.words[val]
            np.subtract(word, self.rows[x], out=word)
            a, b = self.retarget[val]
            self.cells[x] += a
            self.cells[self.n + x] += b
        if self.P is not None:
            self.steps[val].take(self.labels[x], axis=1, out=self.step)
            np.add(self.P, self.step, out=self.P)

    def _undo_to(self, mark):
        length, self.IN, self.OUT = mark
        trail, status = self.trail, self.status
        while len(trail) > length:
            x = trail.pop()
            val = status[x]
            status[x] = _UNDECIDED
            if self.state is not None:
                word = self.words[val]
                np.add(word, self.rows[x], out=word)
                a, b = self.retarget[val]
                self.cells[x] -= a
                self.cells[self.n + x] -= b
            if self.P is not None:
                self.steps[val].take(self.labels[x], axis=1, out=self.step)
                np.subtract(self.P, self.step, out=self.P)
        self.hot.clear()

    def _propagate(self):
        """Apply forced memberships up to the fixpoint; False on a contradiction.

        The fixpoint does not depend on the order in which forced items are
        applied, so neither do the search tree and its node count.
        """
        hot, masks, cap_in, cap_out = self.hot, self.masks, self.cap_in, self.cap_out
        while True:
            while hot:
                b = hot.pop()
                if b >= 0:  # its members in may have reached the target
                    mask = masks[b]
                    count, cap, val = (self.IN & mask).bit_count(), cap_in[b], _OUT
                else:  # its members out may have reached the rest
                    mask = masks[~b]
                    count, cap, val = (self.OUT & mask).bit_count(), cap_out[~b], _IN
                if count < cap:
                    continue
                if count > cap:
                    return False
                rest = mask & ~(self.IN | self.OUT)
                while rest:
                    low = rest & -rest
                    self._set(low.bit_length() - 1, val)
                    rest ^= low
            n_in, n_und = self.IN.bit_count(), self.n - len(self.trail)
            if self.size is not None and not n_in <= self.size <= n_in + n_und:
                return False
            if self.P is not None:
                return self.P.max() <= 0
            if self.state is None:
                return True
            forced = self._degree_forced(n_in, n_und)
            if forced is None:
                return False
            if not forced[0]:
                return True
            for x, val in zip(*forced):
                self._set(x, val)

    def _degree_forced(self, n_in, n_und):
        """Degree-target rule: (items, values) it forces, or None on a contradiction."""
        if self.size == n_in:
            settled = _OUT
        elif self.size == n_in + n_und:
            settled = _IN
        else:
            settled = None
        items, values = [], []
        if (np.bitwise_and.reduce(self.flat) & _GUARD_WORD) != _GUARD_WORD:
            # a line fails the test of its status; an undecided one may pass one of its two
            cells, n = self.cells, self.n
            (a_out, b_out), (a_in, b_in) = self.retarget
            for y in (~_guards_set(*self.state)).nonzero()[0].tolist():
                if self.status[y] != _UNDECIDED:
                    return None
                lo, hi = cells[y], cells[n + y]
                if (lo + a_in) & (hi + b_in) & _GUARDS == _GUARDS:
                    values.append(_IN)
                elif (lo + a_out) & (hi + b_out) & _GUARDS == _GUARDS:
                    values.append(_OUT)
                else:
                    return None
                items.append(y)
        if settled is not None and n_und > len(items):
            # a settled cardinality decides every other undecided line
            forced = set(items)
            for y in (self.view == _UNDECIDED).nonzero()[0].tolist():
                if y not in forced:
                    items.append(y)
                    values.append(settled)
        return items, values

    def _dfs(self):
        """The search tree, node by node, on an explicit stack: any depth fits.

        The stack holds one (x, settled) per open branching: its item, as x
        while the in branch runs and as ~x while the out branch runs, and the
        state before either was set.
        """
        stack = []
        root = (len(self.trail), self.IN, self.OUT)
        while True:
            self.nodes.tick()
            if self._propagate():
                x = self.status.find(_UNDECIDED)
                if x >= 0:
                    stack.append((x, (len(self.trail), self.IN, self.OUT)))
                    self._set(x, _IN)
                    continue
                self.solutions.append(tuple(np.flatnonzero(self.view == _IN).tolist()))
                if self.stop_after is not None and len(self.solutions) >= self.stop_after:
                    raise _Stop("solution_cap")
            # back to the deepest branching whose out branch has not run
            while stack:
                x, settled = stack.pop()
                self._undo_to(settled)
                if x >= 0:
                    stack.append((~x, settled))
                    self._set(x, _OUT)
                    break
            else:
                self._undo_to(root)
                return


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

    A size outside [0, n] is rejected without search.  With prefilter, safe
    divisibility conditions reject sizes without search;
    with catalog, structured candidates (disjoint unions of planes, pencils,
    quadrangle sections) are tried before the exhaustive search.  A
    conclusive "none" is only reported when the search space was exhausted.
    """
    support = frozenset(str(t).upper().lstrip("R") for t in support)
    if not support <= set(REL_TAGS[1:]):
        raise ValueError("support must be a subset of the nontrivial eigenspaces")
    if not 0 <= size <= space.n_lines:
        return ProbeResult("none", None, 0, f"size rejected: size outside [0, {space.n_lines}]")
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


def _orbit_representatives(n, automorphisms):
    """The least vertex of each orbit of the group the permutations generate, ascending.

    Each pass lowers a vertex's label to its image's, so labels fall to the
    least vertex reachable, and a finite group's orbits are closed under
    reaching.
    """
    label = np.arange(n)
    while True:
        lowered = label
        for p in automorphisms:
            lowered = np.minimum(lowered, lowered[p])
        if (lowered == label).all():
            return np.flatnonzero(label == np.arange(n)).tolist()
        label = lowered


def max_clique(adj, budget=None, automorphisms=()):
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

    automorphisms are vertex permutations p, as integer arrays, each checked
    to be a bijection with adj[p][:, p] == adj off the diagonal; ValueError
    otherwise.  With any given, every clique maps onto one through the least
    vertex r of its orbit, so the clique number is the largest 1 + omega(N(r))
    over those r, each found by the same colour-bounded search on r's
    neighbourhood.  The search of the whole graph then runs until its best
    clique reaches that size: the clique returned is the one the search
    without automorphisms returns, and nodes counts both stages.  If the
    budget runs out, the largest clique found so far is returned, incomplete.
    """
    edges = np.asarray(adj) != 0
    if edges.ndim != 2 or edges.shape[0] != edges.shape[1] or not (edges == edges.T).all():
        raise ValueError(f"adjacency must be a square symmetric matrix, got shape {edges.shape}")
    n = edges.shape[0]
    np.fill_diagonal(edges, False)
    automorphisms = [np.asarray(p) for p in automorphisms]
    for p in automorphisms:
        if p.shape != (n,) or p.dtype.kind not in "iu" or (np.sort(p) != np.arange(n)).any():
            raise ValueError(f"an automorphism must permute the {n} vertices")
        if (edges[np.ix_(p, p)] != edges).any():
            raise ValueError("a permutation given as an automorphism does not keep the edges")
    full = (1 << n) - 1
    rows = np.packbits(edges, axis=1, bitorder="little")
    masks = [int.from_bytes(row.tobytes(), "little") for row in rows]
    keep = [full ^ (m | 1 << v) for v, m in enumerate(masks)]  # non-neighbours, v excluded
    best, goal = [], None
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
                    if len(best) == goal:
                        raise _Stop("solution_cap")
                current.pop()
                cand ^= 1 << v

    def through_representatives():
        nonlocal best
        for r in _orbit_representatives(n, automorphisms):
            if masks[r]:
                expand([r], masks[r])
            elif not best:
                best = [r]

    if automorphisms:
        if nodes.run(through_representatives) == "budget":
            return tuple(sorted(best)), False, nodes.count
        largest, best, goal = best, [], len(best)
        if nodes.run(expand, [], full) == "budget":
            return tuple(sorted(largest)), False, nodes.count
        return tuple(sorted(best)), True, nodes.count
    complete = nodes.run(expand, [], full) == "exhausted"
    return tuple(sorted(best)), complete, nodes.count


def disjoint_section_packing(space, budget=None):
    """Largest family of pairwise line-disjoint GQ hyperplane sections.

    Vertices are the nondegenerate hyperplane sections (all of GQ kind in
    O6plus); two are adjacent when their line sets share no line.  The
    similitudes of groups.o6plus_generators permute the sections through
    their dual points, and max_clique checks each permutation against the
    adjacency before it reduces the search by their orbits; the packing
    found is the one the unreduced search finds.  Budget exhaustion
    downgrades the result to a lower bound, flagged incomplete.
    """
    from .constructions import section_line_sets

    if space.family != "O6plus":
        raise ValueError("section packings are computed for O6plus")
    sections, incidence = section_line_sets(space, "gq")
    packed = np.packbits(incidence, axis=1)
    adj = np.array([~(row & packed).any(axis=1) for row in packed])
    duals = [sec.dual_point for sec in sections]
    moves = [vector_permutation(space.field, duals, g) for g in o6plus_generators(space.field)]
    clique, complete, nodes = max_clique(adj, budget=budget, automorphisms=moves)
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
