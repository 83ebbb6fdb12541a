"""Line-set analysis: distributions, regularity, divisibility, profiles.

All statistics are exact.  The inner distribution of a set Y counts ordered
pairs per relation, a_i = #{(x,y) in R_i : x,y in Y} / |Y|; the dual
distribution is aQ, and (aQ)_j = 0 exactly when the characteristic vector of
Y is orthogonal to the eigenspace V_j.  A set is regular (intriguing) when at
most one nontrivial (aQ)_j survives, equivalently when its inside/outside
degrees are constant in every relation graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .schemetables import relation_census
from .spaces import REL_TAGS, GeometryError, q_to_e_power

EIGEN_TAGS = REL_TAGS  # eigenspaces carry the same labels, in the same order
NONTRIVIAL = ("10", "11", "20", "21")


@dataclass(frozen=True)
class LineSet:
    """A subset of the lines of one space, held as sorted indices."""

    indices: tuple
    fingerprint: str
    name: str = ""

    def __len__(self):
        return len(self.indices)


def make_lineset(space, indices, name=""):
    idx = tuple(sorted(set(int(i) for i in indices)))
    if idx and (idx[0] < 0 or idx[-1] >= space.n_lines):
        raise ValueError("line index out of range")
    return LineSet(indices=idx, fingerprint=space.fingerprint, name=name)


def _as_indices(space, y):
    if isinstance(y, LineSet):
        if y.fingerprint != space.fingerprint:
            raise ValueError("line set belongs to a different space")
        return list(y.indices)
    idx = sorted(set(int(i) for i in y))
    if idx and (idx[0] < 0 or idx[-1] >= space.n_lines):
        raise ValueError("line index out of range")
    return idx


def complement(space, y):
    idx = set(_as_indices(space, y))
    return make_lineset(space, [i for i in range(space.n_lines) if i not in idx])


def inner_distribution(space, y):
    """The 5-vector a with a_i = (ordered pairs of Y in relation i) / |Y|."""
    idx = _as_indices(space, y)
    if not idx:
        raise ValueError("inner distribution undefined for the empty set")
    counts = relation_census(space.labels[np.ix_(idx, idx)]).sum(axis=0)
    return tuple(Fraction(int(c), len(idx)) for c in counts)


def dual_distribution(space, tables, y):
    """aQ, exactly; Delsarte nonnegativity is asserted as a sanity check."""
    return _dual(tables, inner_distribution(space, y))


def _dual(tables, a):
    """aQ of an inner distribution a, checked nonnegative."""
    aq = tuple(sum(a[i] * tables.Q[i][j] for i in range(5)) for j in range(5))
    if any(v < 0 for v in aq):
        raise GeometryError("negative dual distribution entry for a genuine subset")
    return aq


def eigenspace_support(space, tables, y):
    """The nontrivial eigenspaces j with (aQ)_j != 0, as a frozenset of tags."""
    return _support(dual_distribution(space, tables, y))


def _support(aq):
    return frozenset(EIGEN_TAGS[j] for j in range(1, 5) if aq[j] != 0)


@dataclass(frozen=True)
class RegularSetReport:
    is_regular: bool
    eigenspace: str | None
    size: int
    support: frozenset
    inside_degrees: tuple | None
    outside_degrees: tuple | None
    witness: tuple | None  # (line, relation tag, observed, expected-set) on failure


def expected_degrees(tables, j, size):
    """Inside/outside degree per relation for a regular set of given size.

    inside_i  = |Y| (P[0][i] - P[j][i]) / n + P[j][i]
    outside_i = |Y| (P[0][i] - P[j][i]) / n
    """
    inside, outside = [], []
    for i in range(5):
        base = Fraction(size * (tables.P[0][i] - tables.P[j][i]), tables.n)
        outside.append(base)
        inside.append(base + tables.P[j][i])
    return tuple(inside), tuple(outside)


def regular_set_check(space, tables, y):
    """Two-route regularity verdict: eigenspace support and vertexwise degrees.

    The routes must agree; disagreement raises, since it would mean the scheme
    tables and the enumerated geometry contradict each other.
    """
    idx = _as_indices(space, y)
    if not idx:
        raise ValueError("regularity undefined for the empty set")
    return _regular_set_check(space, tables, idx, dual_distribution(space, tables, idx))


def _regular_set_check(space, tables, idx, aq):
    """regular_set_check of the sorted nonempty indices idx, whose aQ is given."""
    if len(idx) == space.n_lines:
        raise ValueError("regularity undefined for the full line set")

    support = _support(aq)
    j_tag = next(iter(support)) if len(support) == 1 else None

    counts = relation_census(space.labels[:, idx])
    in_mask = np.zeros(space.n_lines, dtype=bool)
    in_mask[idx] = True
    # counts and targets are compared times n, so a fractional target misses everywhere
    routes = {}
    for j in range(1, 5):
        want_in, want_out = expected_degrees(tables, j, len(idx))
        scaled = [np.array([int(v * tables.n) for v in w]) for w in (want_in, want_out)]
        off = counts.astype(np.int64) * tables.n != np.where(in_mask[:, None], *scaled)
        routes[EIGEN_TAGS[j]] = (off, want_in, want_out)
    degree_tag = next((t for t, (off, _, _) in routes.items() if not off.any()), None)
    if degree_tag != j_tag:
        raise GeometryError("support-based and degree-based regularity verdicts disagree")

    inside = outside = witness = None
    if degree_tag:
        _, inside, outside = routes[degree_tag]
    else:
        # the first (line, relation) off the V10 targets
        off, want_in, want_out = routes["10"]
        x, i = divmod(int(off.argmax()), 5)
        want = want_in if in_mask[x] else want_out
        witness = (x, REL_TAGS[i], int(counts[x, i]), str(want[i]))

    return RegularSetReport(
        is_regular=j_tag is not None,
        eigenspace=j_tag,
        size=len(idx),
        support=support,
        inside_degrees=tuple(int(v) for v in inside) if inside else None,
        outside_degrees=tuple(int(v) for v in outside) if outside else None,
        witness=witness,
    )


# -- divisibility conditions ---------------------------------------------------


@dataclass(frozen=True)
class DivisibilityReport:
    consistent: bool
    eigenspace: str
    size: int
    modulus: Fraction
    m: Fraction | None
    excluded: tuple
    reason: str


def divisibility_report(size, j, q, e2):
    """Size admissibility for a regular set in the eigenspace tagged j.

    Cases, with m the integer multiplier of the stated modulus:
      j=10: |Y| = m (q^{e+1}+1)(q^2+q+1), m not in {1, q^{e+2}}
      j=11: |Y| = m (q^{e+1}+1)(q^{e+2}+1)
      j=20: q even, e != 1:  |Y| = m (q^2+q+1)(q^{e+2}+1)
            q odd,  e != 1:  |Y| = m (q^2+q+1)(q^{e+2}+1)/2, m not in {1, 2q^{e+2}+1}
            e = 1:           |Y| = m (q^4+q^2+1), m in {0} u [q+1, q^2(q+1)] u {(q^2+1)(q+1)}
      j=21: |Y| in {0, n}
    """
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


def span_orthogonal_divisor(S, q, e2, uncovered_point=False, has_spread=False):
    """Divisibility modulus for |Z| when chi_Z is orthogonal to sum of V_s, s in S.

    Each covered case is one intersection-based divisibility condition; an
    uncovered combination raises ValueError("no divisor known").
    """
    S = frozenset(S)
    s = q_to_e_power(q, e2)
    theta = q * q + q + 1
    if S == frozenset({"10", "20"}):
        return Fraction((s * q + 1) * (s * q * q + 1))
    if S == frozenset({"10", "11"}):
        if e2 != 2 and q % 2 == 0:
            return Fraction(theta * (s * q * q + 1))
        if e2 != 2:
            return Fraction(theta * (s * q * q + 1), 2)
        return Fraction(q**4 + q * q + 1)
    if S == frozenset({"10"}) and uncovered_point:
        if e2 in (0, 4) and q % 2 == 0:
            return Fraction(s * q * q + 1)
        if e2 in (0, 4):
            return Fraction(s * q * q + 1, 2)
        if e2 in (1, 3):
            return Fraction(s * q * q + 1, s + 1)
        return Fraction(q * q - q + 1)
    if S == frozenset({"11"}):
        if e2 in (0, 2, 4) or (e2 == 3 and q % 3 in (0, 1)):
            return Fraction((s * q + 1) * (s * q * q + 1))
        if e2 == 1:
            return Fraction((s + 1) * (s * q * q + 1))
        return Fraction((s * q + 1) * (s * q * q + 1), 3)
    if S == frozenset({"20"}) and has_spread:
        return Fraction(s * q + 1)
    raise ValueError("no divisor known for this eigenspace combination")


# -- geometric profiles ---------------------------------------------------------


@dataclass(frozen=True)
class PlaneProfile:
    histogram: dict
    pencil_ok: bool

    @property
    def sizes(self):
        return frozenset(self.histogram)


def plane_profile(space, y):
    """Histogram of |Y n plane| over all planes, with the pencil condition.

    pencil_ok is True when in every plane meeting Y in exactly q+1 lines those
    lines share a common point.
    """
    inside = _line_mask(space, _as_indices(space, y))[space.plane_lines_arr]
    counts = inside.sum(axis=1)
    # the histogram lists each count where it first occurs over the planes
    sizes, first, freq = np.unique(counts, return_index=True, return_counts=True)
    hist = {int(sizes[k]): int(freq[k]) for k in np.argsort(first)}
    # q+1 distinct lines of a plane meet pairwise in single points, so they
    # share one point exactly when some point of the first lies on all of them
    q1 = space.q + 1
    full = counts == q1
    pts = space.line_points_arr[space.plane_lines_arr[full][inside[full]]].reshape(-1, q1, q1)
    on_all = (pts[:, :, :, None] == pts[:, :1, None, :]).any(axis=2).all(axis=1)
    return PlaneProfile(histogram=hist, pencil_ok=bool(on_all.any(axis=1).all()))


def _line_mask(space, idx):
    """Boolean mask over the lines of the space, True at the indices idx."""
    mask = np.zeros(space.n_lines, dtype=bool)
    mask[idx] = True
    return mask


@dataclass(frozen=True)
class DesignReport:
    is_design: bool
    level: str
    m: int | None
    size_formula_ok: bool | None
    support_ok: bool | None


def design_check(space, tables, y, level):
    """Constant-incidence check against points or planes.

    A point-design has every point on exactly m lines of Y, forces
    |Y| = m (q^{e+2}+1)(q^2+q+1)/(q+1) and support within {20, 21}; a
    plane-design has every plane containing exactly m lines of Y, forces
    |Y| = m (q^{e+1}+1)(q^{e+2}+1) and support within {11, 21}.
    """
    if level not in ("points", "planes"):
        raise ValueError("level must be 'points' or 'planes'")
    idx = _as_indices(space, y)
    incident = space.point_lines_arr if level == "points" else space.plane_lines_arr
    counts = _line_mask(space, idx)[incident].sum(axis=1)
    if (counts != counts[0]).any():
        return DesignReport(False, level, None, None, None)
    m = int(counts[0])
    q, s = space.q, space.qe
    if level == "points":
        want = Fraction(m * (s * q * q + 1) * space.theta, q + 1)
        allowed = {"20", "21"}
    else:
        want = Fraction(m * (s * q + 1) * (s * q * q + 1))
        allowed = {"11", "21"}
    size_ok = Fraction(len(idx)) == want
    if idx:
        support_ok = eigenspace_support(space, tables, idx) <= allowed
    else:
        support_ok = True
    return DesignReport(True, level, m, size_ok, support_ok)
