"""Exhaustive and budgeted searches over line sets.

All searches run depth-first with exact integer propagation, and every
result says in stopped_by why its search stopped: the search space was
exhausted, the solution asked for was found, the requested number of
solutions was reached, the node budget ran out, or the answer needed no
search.  Every returned set is re-verified through the analysis layer,
independently of the search's own bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
import numpy as np

from .analysis import (
    PENCIL_SPAN,
    PLANE_SPAN,
    _regular_set_check,
    divisibility_report,
    eigenspace_support,
    expected_degrees,
    span_orthogonal_divisor,
)
from .groups import o6plus_generators, vector_permutation
from .schemetables import integer_column
from .spaces import REL_TAGS, bare_tag


# -- the stop record every search result shares, and the node counter ---------------

# why a search stopped -> the note its result carries
_STOP_NOTES = {
    "exhausted": "",  # the whole tree was searched
    "found": "",  # an existence search reached the solution it asked for
    "solution_cap": "solution cap reached",  # stop_after cut an enumeration short
    "budget": "node budget exhausted",
    "rejected": "",  # answered with no search; detail says why
}


def _joined(*parts):
    return "; ".join(p for p in parts if p)


@dataclass(frozen=True)
class _Outcome:
    """Why a search stopped (a key of _STOP_NOTES), its node count and a detail note."""

    stopped_by: str
    nodes: int
    detail: str = ""

    @property
    def complete(self):
        """The answer is settled: no budget or solution cap cut the search short."""
        return self.stopped_by not in ("budget", "solution_cap")

    @property
    def note(self):
        return _joined(_STOP_NOTES[self.stopped_by], self.detail)


@dataclass(frozen=True)
class SearchResult(_Outcome):
    sets: tuple = ()


@dataclass(frozen=True)
class ProbeResult(_Outcome):
    witness: tuple | None = None

    @property
    def status(self):
        """The verdict: witness, none or, for a search cut short, unknown."""
        return "witness" if self.stopped_by == "found" else "none" if self.complete else "unknown"


@dataclass(frozen=True)
class SpreadResult(_Outcome):
    lines: tuple | None = None


@dataclass(frozen=True)
class PointSetResult(_Outcome):
    points: tuple | None = None


@dataclass(frozen=True)
class PackingResult(_Outcome):
    sections: tuple = ()
    line_sets: tuple = ()

    @property
    def count(self):
        return len(self.sections)


class _Stop(Exception):
    """Unwinds a search early; its argument, the reason, is budget, solution_cap or found."""


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
        """Run a search; returns why it stopped: exhausted, or the reason it was unwound."""
        try:
            dfs(*args)
        except _Stop as stop:
            return stop.args[0]
        return "exhausted"


# -- the membership DFS core -------------------------------------------------------

_OUT, _IN = 0, 1

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

    cnt and und are counts of four relations, per line or the same at every
    line, with cnt + und <= _FIELD_MAX, and low and high are fields of
    _target_fields.
    """
    cnt = np.asarray(cnt, dtype=np.int64)
    return _pack(_GUARD + low - cnt), _pack(_GUARD + cnt + und - high)


def _int_rows(rows, bits, n_rows, width):
    """One int per row r < n_rows of width bits, with bit k set for each pair (r, k) given."""
    buf = np.zeros((n_rows, -(-width // 8)), dtype=np.uint8)
    np.bitwise_or.at(buf, (rows, bits >> 3), np.left_shift(1, bits & 7).astype(np.uint8))
    return [int.from_bytes(row.tobytes(), "little") for row in buf]


def _fields(values, w):
    """The values, each in [0, 2^w), as one int of w-bit fields, the first lowest."""
    return int("".join(f"{v:0{w}b}" for v in reversed(values.tolist())) or "0", 2)


def _bits(v, n):
    """Bit k of the int v, for k < n, as a bool array; v is below 2^n."""
    raw = np.frombuffer(v.to_bytes(-(-n // 8), "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=n, bitorder="little").view(bool)


class _MembershipSearch:
    """DFS over the 0/1 memberships of n items with exact propagation.

    Constraints plug in at construction:

    - size: the exact number of members, or None for any;
    - labels and valencies: the line relation table of a line search and the
      scheme's five valencies, the size of each relation at every line.  They
      feed either degrees, the (inside, outside) targets of relations
      R10..R21 that every line's count of member neighbours must reach, which
      force items and, once the cardinality is settled, the rest; or
      projectors, integer projector rows (c0, c) whose value on the final set
      must vanish, which only prune;
    - blocks: (members, target) pairs of distinct items; each block ends with
      exactly target members and forces its undecided members once it is
      settled.

    Branching takes the lowest undecided item, first in and then out.

    A node's memberships are the two ints IN and OUT, with bit x set for each
    member and each non-member x.  Setting an item costs one whole-array op
    per rule:

    - degrees: per line y and relation i, c_i(y) counts member neighbours and
      r_i(y) = c_i(y) + (undecided neighbours).  The rule holds when
      c_i <= t_i <= r_i for the target t of y's side, both targets while y
      is undecided.  state[0, y] packs 0x8000 + t_i - c_i, state[1, y] packs
      0x8000 + r_i - t_i, so the rule holds at y exactly when every guard bit
      of both words is set, and at every line when the AND of all words
      keeps them.  An in item subtracts its row of the packed relation
      table from state[0], an out item from state[1].
    - projectors: P holds, per line, the bounds (lo, -hi) of every row;
      a row can still vanish everywhere while P <= 0, and an item adds one
      gather of the bound steps by its labels row.
    - blocks: each side, out and in, is one int packed[val] with a w-bit
      field per block holding 2^(w-1) - cap + count, for the target cap on
      the in side and the rest on the out side.  w exceeds the bit length of
      the largest block, so no field carries, and a field's top (guard) bit
      is set exactly when its block is full.  An item adds inc[x], a unit in
      the field of each of its blocks: a guard bit already set there is a
      contradiction, and one it turns on marks a block that just filled,
      which propagation settles depth first.  An item in no block has
      inc[x] = 0 and skips both ints.  A search with blocks alone settles
      them in _settle, which makes the same sets in the same order with each
      set inlined.

    Backtracking restores saved state instead of undoing each set.  A
    branching saves IN, OUT and packed by reference, since ints are
    immutable, and copies state and P into buffers from a free list; turning
    to its out branch copies them back and frees the buffers at once.  So
    copies are held only by the root and by each branching whose in branch
    is running: per such branching, 16n bytes for the degree words and
    16Rn bytes for R projector rows.  A search with neither, such as an
    m-ovoid search, saves no copies at all.  The members are counted only
    when the size or the degree rule reads the count.
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
        self.nodes = _Nodes(budget)
        self.n = n
        self.size = size
        self.IN = self.OUT = 0
        self.solutions = []
        self.stop_after = None

        self.state = None
        if degrees is not None:
            if max(valencies[1:]) > _FIELD_MAX:
                raise ValueError(
                    f"a relation valency of {max(valencies[1:])} exceeds {_FIELD_MAX:#x}, "
                    "the largest count a 16-bit field of the degree rule holds"
                )
            (low_in, high_in), (low_out, high_out) = (_target_fields(t) for t in degrees)
            # an undecided line must keep both targets reachable
            low, high = np.minimum(low_in, low_out), np.maximum(high_in, high_out)
            self.state = np.empty((2, n), dtype=np.uint64)
            self.state[0], self.state[1] = _reach_words(0, valencies[1:], low, high)
            self.flat = self.state.reshape(-1)
            # single words as Python ints, which a uint64 cell rejects on overflow
            self.cells = memoryview(self.flat).cast("B").cast("Q")
            self.words = (self.state[1], self.state[0])  # the word an out or in item lowers
            # what a decided line adds to its two words to test only its own target
            self.retarget = (
                (int(_pack(low_out - low)), int(_pack(high - high_out))),
                (int(_pack(low_in - low)), int(_pack(high - high_in))),
            )
            # one view per line: a list item is cheaper to reach than a row of the array
            self.rows = list(_UNIT[labels])
        self.P = None
        if projectors:
            c = np.array([[p[0], *p[1]] for p in projectors], dtype=np.int64)
            pos, neg = np.maximum(c, 0), np.maximum(-c, 0)
            # lo and -hi start from every item undecided and climb as items settle
            bounds = np.concatenate([-neg, -pos]) @ np.array(valencies, dtype=np.int64)
            # a row of bounds per line and, out and in, a row of steps per relation, so an
            # item's gather copies whole rows (0.7 against 1.1 us down the columns on O+(6,2))
            self.P = np.repeat(bounds[None, :], n, axis=0)
            self.P_flat = self.P.reshape(-1)
            self.steps = (np.concatenate([neg, pos]).T.copy(), np.concatenate([pos, neg]).T.copy())
            self.labels = list(labels)
            self.step = np.empty_like(self.P)

        sizes = np.array([len(m) for m, _ in blocks], dtype=np.int64)
        targets = np.array([t for _, t in blocks], dtype=np.int64)
        members = np.concatenate(
            [np.zeros(0, dtype=np.int64)] + [np.asarray(m, dtype=np.int64) for m, _ in blocks]
        )
        owner = np.repeat(np.arange(len(blocks)), sizes)
        self.w = w = int(sizes.max(initial=0)).bit_length() + 1
        self.masks = _int_rows(owner, members, len(blocks), n)
        # one unit in the field of each block of x, and the guard bits of those fields
        self.inc = _int_rows(members, w * owner, n, w * len(blocks))
        self.guard_of = [i << (w - 1) for i in self.inc]
        # a target outside [0, |block|] is a contradiction at the root
        cap_in = np.clip(targets, 0, sizes)
        self.conflict = bool((cap_in != targets).any())
        self.packed = [_fields(2 ** (w - 1) - cap, w) for cap in (sizes - cap_in, cap_in)]
        guards = _fields(np.full(len(blocks), 2 ** (w - 1)), w)
        # (side, guard bits of the blocks that filled on it); blocks of cap 0 are full at the root
        self.hot = [(val, full) for val in (_OUT, _IN) if (full := self.packed[val] & guards)]
        self.arrays = [a for a in (self.state, self.P) if a is not None]
        self.free = []  # buffers of saved arrays that no branching holds

    def run(self, stop_after=None):
        """Search: every solution, or the first stop_after, with why the search stopped."""
        self.stop_after = stop_after
        stop = self.nodes.run(self._dfs)
        return SearchResult(stop, self.nodes.count, sets=tuple(self.solutions))

    def _set(self, x, val):
        if val:
            self.IN |= 1 << x
        else:
            self.OUT |= 1 << x
        inc = self.inc[x]
        if inc:  # x lies in a block
            guard, side = self.guard_of[x], self.packed[val]
            if side & guard:
                self.conflict = True  # x overfills a block that is already full
            side += inc
            self.packed[val] = side
            full = side & guard
            if full:  # the blocks that just filled
                self.hot.append((val, full))
        if self.state is not None:
            word = self.words[val]
            np.subtract(word, self.rows[x], out=word)
            a, b = self.retarget[val]
            self.cells[x] += a
            self.cells[self.n + x] += b
        if self.P is not None:
            # labels are 0..4, as the table admits no other code, so the clip never
            # acts; with the default mode, "raise", NumPy buffers out through a copy
            self.steps[val].take(self.labels[x], axis=0, out=self.step, mode="clip")
            np.add(self.P, self.step, out=self.P)

    def _save(self):
        """The node's state for _restore: its ints, and copies of its arrays in free buffers.

        A search with no arrays saves None for its copies.
        """
        copies = None
        if self.free:
            copies = self.free.pop()
            for copy, a in zip(copies, self.arrays):
                np.copyto(copy, a)
        elif self.arrays:
            copies = [a.copy() for a in self.arrays]
        return self.IN, self.OUT, self.packed[0], self.packed[1], copies

    def _restore(self, saved):
        """Return to a saved state; its buffers go back to the free list."""
        self.IN, self.OUT, self.packed[0], self.packed[1], copies = saved
        if copies is not None:
            for a, copy in zip(self.arrays, copies):
                np.copyto(a, copy)
            self.free.append(copies)
        self.hot.clear()
        self.conflict = False

    def _propagate(self):
        """Apply forced memberships up to the fixpoint; False on a contradiction.

        For a search with degree words or projector bounds; _settle serves the
        rest.  The fixpoint does not depend on the order in which forced items
        are applied, so neither do the search tree and its node count.
        """
        hot, masks, w, set_ = self.hot, self.masks, self.w, self._set
        while True:
            if self.conflict:
                return False
            while hot:
                val, full = hot.pop()
                low = full & -full
                if full != low:
                    hot.append((val, full ^ low))
                # the lowest full block is settled: its undecided members take the other side
                rest = masks[low.bit_length() // w - 1] & ~(self.IN | self.OUT)
                other = 1 - val
                while rest:
                    bit = rest & -rest
                    set_(bit.bit_length() - 1, other)
                    if self.conflict:
                        return False
                    rest ^= bit
            if self.size is not None or self.state is not None:
                n_in = self.IN.bit_count()
                n_und = self.n - n_in - self.OUT.bit_count()
                if self.size is not None and not n_in <= self.size <= n_in + n_und:
                    return False
            if self.P is not None:
                return np.maximum.reduce(self.P_flat) <= 0
            forced = self._degree_forced(n_in, n_und)
            if forced is None:
                return False
            if not forced[0]:
                return True
            for x, val in zip(*forced):
                self._set(x, val)

    def _settle(self):
        """_propagate for a search with no arrays: the block rule, with _set inlined.

        It makes _propagate's sets in _propagate's order, and puts a settled
        block's undecided members on their side with one OR.
        """
        if self.conflict:
            return False
        hot, masks, w, inc_of, guard_of, packed = (
            self.hot, self.masks, self.w, self.inc, self.guard_of, self.packed
        )
        pop, push = hot.pop, hot.append
        IN, OUT = self.IN, self.OUT
        while hot:
            val, full = pop()
            low = full & -full
            if full != low:
                push((val, full ^ low))
            # the lowest full block is settled: its undecided members take the other side
            rest = masks[low.bit_length() // w - 1] & ~(IN | OUT)
            if not rest:
                continue
            if val:
                val, OUT = _OUT, OUT | rest
            else:
                val, IN = _IN, IN | rest
            side = packed[val]
            while rest:
                low = rest & -rest
                x = low.bit_length() - 1
                rest ^= low
                guard = guard_of[x]
                if side & guard:
                    return False  # x overfills a block that is already full
                side += inc_of[x]
                full = side & guard
                if full:
                    push((val, full))
            packed[val] = side
        self.IN, self.OUT = IN, OUT
        if self.size is None:
            return True
        n_in = IN.bit_count()
        return n_in <= self.size <= self.n - OUT.bit_count()

    def _degree_forced(self, n_in, n_und):
        """Degree-target rule: (items, values) it forces, or None on a contradiction."""
        if self.size == n_in:
            settled = _OUT
        elif self.size == n_in + n_und:
            settled = _IN
        else:
            settled = None
        items, values = [], []
        decided = self.IN | self.OUT
        if (np.bitwise_and.reduce(self.flat) & _GUARD_WORD) != _GUARD_WORD:
            # a line fails the test of its side; an undecided one may pass one of its two
            cells, n = self.cells, self.n
            (a_out, b_out), (a_in, b_in) = self.retarget
            low, high = self.state
            for y in ((low & high & _GUARD_WORD) != _GUARD_WORD).nonzero()[0].tolist():
                if decided >> y & 1:
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
            for y in np.flatnonzero(~_bits(decided, self.n)).tolist():
                if y not in forced:
                    items.append(y)
                    values.append(settled)
        return items, values

    def _dfs(self):
        """The search tree, node by node, on an explicit stack: any depth fits.

        The stack holds one (x, saved) per open branching: its item, and the
        state before x was set while the in branch runs, or None while the
        out branch runs.  An out branch needs no state: once it ends, the
        next restore is that of a branching further up, or of the root.
        """
        tick, save, restore, set_ = self.nodes.tick, self._save, self._restore, self._set
        propagate = self._propagate if self.arrays else self._settle
        n, solutions, stack = self.n, self.solutions, []
        push, pop = stack.append, stack.pop
        root = save()
        while True:
            tick()
            if propagate():
                decided = self.IN | self.OUT
                x = (~decided & (decided + 1)).bit_length() - 1  # the lowest undecided item
                if x < n:
                    push((x, save()))
                    set_(x, _IN)
                    continue
                solutions.append(tuple(np.flatnonzero(_bits(self.IN, n)).tolist()))
                if self.stop_after is not None and len(solutions) >= self.stop_after:
                    raise _Stop("solution_cap")
            # back to the deepest branching whose out branch has not run
            while stack:
                x, saved = pop()
                if saved is not None:
                    restore(saved)
                    push((x, None))
                    set_(x, _OUT)
                    break
            else:
                restore(root)
                return


# -- regular sets and feasibility probes ------------------------------------------


def _orbit_constraints(space, tables, j, size):
    """Exact block-intersection targets implied by the eigenspace.

    A regular set in an eigenspace outside the plane span (or the pencil span)
    meets every plane (or point-pencil) in exactly size * |member| / n lines.
    A non-integral target is an immediate infeasibility certificate.
    """
    orbits = []
    if j not in PLANE_SPAN:
        orbits.append(space.plane_lines_arr)
    if j not in PENCIL_SPAN:
        orbits.append(space.point_lines_arr)
    out = []
    for members in orbits:
        target = Fraction(size * members.shape[1], tables.n)
        if target.denominator != 1:
            return None  # eigenspace forces an impossible intersection count
        out.append((members, int(target)))
    return out


def _regular_search(space, tables, j, size, budget, stop_after):
    """V_j-regular sets of exactly this size, by degree targets and block counts."""
    inside, outside = expected_degrees(tables, REL_TAGS.index(j), size)
    constraints = _orbit_constraints(space, tables, j, size)
    if constraints is None or any(v.denominator != 1 or v < 0 for v in inside + outside):
        return SearchResult("rejected", 0, "degree or block targets are not nonnegative integers")
    search = _MembershipSearch(
        space.n_lines,
        budget,
        size=size,
        labels=space.labels,
        valencies=tables.valencies,
        degrees=([int(v) for v in inside[1:]], [int(v) for v in outside[1:]]),
        blocks=[(lines, target) for members, target in constraints for lines in members],
    )
    return search.run(stop_after)


def enumerate_regular_sets(space, tables, j, size, budget=None, stop_after=None):
    """All regular sets with chi_Y in <j> + V_j of the given size.

    Sizes failing the divisibility conditions are rejected without search;
    sizes above n/2 are searched through their complements (a set is regular
    for V_j exactly when its complement is).  All found sets are re-checked
    by both routes of regular_set_check at once.  A search stopped by the node
    budget or by stop_after is incomplete, and its stopped_by says which.
    """
    report = divisibility_report(size, j, space.q, space.e2)  # raises on a j outside 10..21
    if stop_after is not None and stop_after < 1:
        raise ValueError(f"stop_after must be at least 1, got {stop_after}")
    if not report.consistent:
        return SearchResult("rejected", 0, f"size rejected: {report.reason}")
    if size in (0, space.n_lines):
        return SearchResult("rejected", 0, "only proper nonempty sets are searched")
    complemented = size > space.n_lines // 2
    target_size = space.n_lines - size if complemented else size
    result = _regular_search(space, tables, j, target_size, budget, stop_after)
    if complemented:
        full = set(range(space.n_lines))
        sets = tuple(tuple(sorted(full - set(s))) for s in result.sets)
        detail = _joined(result.detail, "searched via complements")
        result = replace(result, sets=sets, detail=detail)
    found = np.zeros((space.n_lines, len(result.sets)), dtype=bool)
    for c, y in enumerate(result.sets):
        found[list(y), c] = True
    for _, _, rep in _regular_set_check(space, tables, found):
        if not rep.is_regular or rep.eigenspace != j:
            raise RuntimeError("search returned a set that fails independent verification")
    return result


def _projector_rows(tables, support):
    """Integer projector rows (c0, (c1..c4)) of the eigenspaces outside the support.

    For a forbidden eigenspace j, (M_j chi)_x = c0 [x in Y] + sum_i c_i cnt_i(x)
    must vanish at every line x.
    """
    cols = [integer_column(tables, j)[0] for j in range(1, 5) if REL_TAGS[j] not in support]
    return [(c[0], c[1:]) for c in cols]


def _catalog_witness(space, tables, support, size, budget):
    """Try to assemble a witness from known structured families, each search within the budget.

    The witness is a clique of size / unit members in the family's disjointness graph.
    """
    from .constructions import section_line_sets

    q, s = space.q, space.qe
    gq = space.family in ("O6plus", "U6", "O7")
    # unions of pairwise line-disjoint planes, point-pencils and quadrangle sections
    families = (
        (space.theta, not support.isdisjoint(PLANE_SPAN), space.plane_lines_arr),
        ((q + 1) * (s * q + 1), not support.isdisjoint(PENCIL_SPAN), space.point_lines_arr),
        ((s * q + 1) * (s * q * q + 1), "11" in support and gq, None),
    )
    for unit, fits, rows in families:
        if not fits or size % unit:
            continue
        if rows is None:
            # the sections are classified only when their size divides the set's
            incidence = section_line_sets(space, "gq")[1]
        else:
            incidence = np.zeros((len(rows), space.n_lines), dtype=bool)
            np.put_along_axis(incidence, rows, True, axis=1)
        res = max_clique(_disjointness(incidence), budget, goal=size // unit)
        if res.stopped_by == "found":
            cand = np.flatnonzero(incidence[list(res.sets[0])].any(axis=0)).tolist()
            if len(cand) == size and eigenspace_support(space, tables, cand) <= support:
                return tuple(cand)
    return None


def feasibility_probe(space, tables, support, size, budget=None, prefilter=True, catalog=True):
    """Search for a set of the given size with eigenspace support within S.

    A size outside [0, n] is rejected without search.  With prefilter, safe
    divisibility conditions reject sizes without search;
    with catalog, structured candidates (disjoint unions of planes, pencils,
    quadrangle sections) are tried before the exhaustive search, each family's
    search within the node budget.  The reported nodes are those of the
    exhaustive search.  A conclusive "none" is only reported when the search
    space was exhausted.
    """
    for t in support:
        if bare_tag(t) not in REL_TAGS[1:]:
            raise ValueError(f"support must be a subset of the nontrivial eigenspaces, got {t!r}")
    support = frozenset(map(bare_tag, support))
    if not 0 <= size <= space.n_lines:
        return ProbeResult("rejected", 0, f"size rejected: size outside [0, {space.n_lines}]")
    if size == 0:
        return ProbeResult("found", 0, "empty set", witness=())
    if prefilter:
        if len(support) == 1:
            rep = divisibility_report(size, next(iter(support)), space.q, space.e2)
            if not rep.consistent:
                return ProbeResult("rejected", 0, f"divisibility prefilter: {rep.reason}")
        # a set whose support misses a span is orthogonal to that span
        for span in (PLANE_SPAN, PENCIL_SPAN):
            modulus = span_orthogonal_divisor(span, space.q, space.e2)
            if support.isdisjoint(span) and Fraction(size) % modulus:
                return ProbeResult(
                    "rejected", 0, f"divisibility prefilter: size not a multiple of {modulus}"
                )
    if catalog and len(support) > 1:
        witness = _catalog_witness(space, tables, support, size, budget)
        if witness is not None:
            return ProbeResult("found", 0, "catalog construction", witness=witness)
    if len(support) == 1:
        # support {j} on a proper nonempty set is exactly V_j-regularity, where
        # per-vertex degree targets prune far harder than projector intervals
        result = _regular_search(space, tables, next(iter(support)), size, budget, 1)
    else:
        projectors = _projector_rows(tables, support)
        search = _MembershipSearch(
            space.n_lines, budget, size, space.labels, tables.valencies, projectors=projectors
        )
        result = search.run(stop_after=1)
    if result.sets:  # the one solution asked for
        if not eigenspace_support(space, tables, result.sets[0]) <= support:
            raise RuntimeError("probe witness fails independent support verification")
        return ProbeResult("found", result.nodes, witness=result.sets[0])
    return ProbeResult(result.stopped_by, result.nodes, result.detail)


# -- exact cover: line spreads ---------------------------------------------------


def _section_lines(space, point_indices, line_indices):
    """The sorted distinct points and lines, and each line's points by position among those points.

    A point off the given points has position -1.
    """
    pts = sorted(set(point_indices))
    pos = np.full(len(space.pts_arr), -1, dtype=np.int64)
    pos[pts] = np.arange(len(pts))
    lines = np.array(sorted(set(line_indices)), dtype=np.int64)
    return pts, lines, pos[space.line_points_arr[lines]]


def line_spread_search(space, point_indices=None, line_indices=None, budget=None):
    """Partition the (sub)geometry's points into lines, by exact cover.

    Defaults to the whole space; pass the points and lines of a section to
    search a spread of an embedded quadric or quadrangle.
    """
    if point_indices is None:
        point_indices = range(len(space.pts_arr))
    if line_indices is None:
        line_indices = range(space.n_lines)
    pts, lines, local = _section_lines(space, point_indices, line_indices)
    if len(pts) % (space.q + 1):
        raise ValueError("point count is not divisible by the line size q+1")
    inside = (local >= 0).all(axis=1)
    rows = local[inside].tolist()
    cand = [(li, sum(1 << p for p in row)) for li, row in zip(lines[inside].tolist(), rows)]
    covers = [[] for _ in pts]  # the candidates through each point, in order
    for ci, row in enumerate(rows):
        for p in row:
            covers[p].append(ci)
    full = (1 << len(pts)) - 1
    nodes = _Nodes(budget)
    chosen = []

    def dfs(covered):
        nodes.tick()
        if covered == full:
            raise _Stop("found")  # the first spread is the answer
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
    return SpreadResult(stop, nodes.count, lines=tuple(sorted(chosen)) if stop == "found" else None)


def m_ovoid_search(space, point_indices, line_indices, m, budget=None):
    """Point set meeting every listed line in exactly m points, by DFS.

    Propagation forces the rest of a line once m points are in or the
    complementary count is out; the first solution in lexicographic order is
    returned.  Used to find m-ovoids (m = (q+1)/2 gives hemisystems) of an
    embedded quadrangle section.
    """
    pts, _, lines = _section_lines(space, point_indices, line_indices)
    if (lines < 0).any():
        raise ValueError("section lines must lie inside the section points")
    per_line = space.q + 1
    if not 0 <= m <= per_line:
        raise ValueError(f"m must be between 0 and {per_line}")
    search = _MembershipSearch(len(pts), budget, blocks=[(ln, m) for ln in lines])
    result = search.run(stop_after=1)
    if result.sets:  # the one solution asked for
        return PointSetResult("found", result.nodes, points=tuple(pts[p] for p in result.sets[0]))
    return PointSetResult(result.stopped_by, result.nodes)


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


def _disjointness(incidence):
    """The adjacency of the rows of a bool incidence matrix that share no column."""
    packed = np.packbits(incidence, axis=1)
    return np.array([~(row & packed).any(axis=1) for row in packed])


def max_clique(adj, budget=None, automorphisms=(), goal=None):
    """Exact maximum clique by branch and bound with greedy coloring bounds.

    adj is a square symmetric matrix whose nonzero entries are the edges; its
    diagonal is ignored.  Returns a SearchResult whose one set is the clique.

    Each node colours its candidates greedily, lowest vertex first, and
    branches on them from the last vertex of the last colour class down,
    returning at the first vertex whose colour c has |current| + c <= beat,
    where beat is |best|, or goal - 1 if that is larger.  With kmin = beat -
    |current| at the node's start, the classes 1..kmin are still swept, since
    later classes depend on them, but their vertices are never listed: beat
    only grows, so the branch loop would return before it reached any of
    them.  The tree and its node count are those of listing every vertex.

    With a goal of at least 1 and no automorphisms (ValueError otherwise), the
    search stops "found" at the first clique of goal vertices; "exhausted"
    proves there is none, and returns the empty set.

    automorphisms are vertex permutations p, as integer arrays, each checked
    to be a bijection with adj[p][:, p] == adj off the diagonal; ValueError
    otherwise.  With any given, every clique maps onto one through the least
    vertex r of its orbit, so the clique number is the largest 1 + omega(N(r))
    over those r, each found by the same colour-bounded search on r's
    neighbourhood.  The search of the whole graph then runs until its best
    clique reaches that size, and stops "found": the clique returned is the
    one the search without automorphisms returns, and nodes counts both
    stages.  If the budget runs out, the largest clique found so far is
    returned, incomplete.
    """
    edges = np.asarray(adj) != 0
    if edges.ndim != 2 or edges.shape[0] != edges.shape[1] or not (edges == edges.T).all():
        raise ValueError(f"adjacency must be a square symmetric matrix, got shape {edges.shape}")
    n = edges.shape[0]
    np.fill_diagonal(edges, False)
    automorphisms = [np.asarray(p) for p in automorphisms]
    if goal is not None and (goal < 1 or automorphisms):
        raise ValueError(f"goal must be at least 1, and given without automorphisms, got {goal}")
    for p in automorphisms:
        if p.shape != (n,) or p.dtype.kind not in "iu" or (np.sort(p) != np.arange(n)).any():
            raise ValueError(f"an automorphism must permute the {n} vertices")
        if (edges[np.ix_(p, p)] != edges).any():
            raise ValueError("a permutation given as an automorphism does not keep the edges")
    full = (1 << n) - 1
    rows = np.packbits(edges, axis=1, bitorder="little")
    masks = [int.from_bytes(row.tobytes(), "little") for row in rows]
    keep = [full ^ (m | 1 << v) for v, m in enumerate(masks)]  # non-neighbours, v excluded
    best, beat = [], (goal or 1) - 1
    nodes = _Nodes(budget)

    def expand(current, cand):
        nonlocal best, beat
        nodes.tick()
        kmin = beat - len(current)
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
                if bound <= beat:
                    return
                current.append(v)
                if len(current) == goal:
                    best = list(current)
                    raise _Stop("found")
                nxt = cand & masks[v]
                if nxt:
                    expand(current, nxt)
                elif len(current) > beat:
                    best = list(current)
                    beat = len(best)
                current.pop()
                cand ^= 1 << v

    def through_representatives():
        nonlocal best, beat
        for r in _orbit_representatives(n, automorphisms):
            if masks[r]:
                expand([r], masks[r])
            elif not best:
                best, beat = [r], 1

    stop, largest = "exhausted", []
    if automorphisms:
        stop = nodes.run(through_representatives)
        largest, best, goal = best, [], len(best)
        beat = max(0, goal - 1)
    if stop != "budget":
        stop = nodes.run(expand, [], full)
    # a recovery search cut short by the budget keeps the larger clique of the first stage
    clique = max(best, largest, key=len)
    return SearchResult(stop, nodes.count, sets=(tuple(sorted(clique)),))


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
    adj = _disjointness(incidence)
    duals = [sec.dual_point for sec in sections]
    moves = [vector_permutation(space.field, duals, g) for g in o6plus_generators(space.field)]
    res = max_clique(adj, budget=budget, automorphisms=moves)
    (clique,) = res.sets
    return PackingResult(
        res.stopped_by,
        res.nodes,
        sections=tuple(sections[i] for i in clique),
        line_sets=tuple(np.flatnonzero(incidence[i]).tolist() for i in clique),
    )
