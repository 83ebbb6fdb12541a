"""Line-set analysis: distributions, regularity, divisibility, profiles.

All statistics are exact.  The inner distribution of a set Y counts ordered
pairs per relation, a_i = #{(x,y) in R_i : x,y in Y} / |Y|; the dual
distribution is aQ, and (aQ)_j = 0 exactly when the characteristic vector of
Y is orthogonal to the eigenspace V_j.  A set is regular (intriguing) when at
most one nontrivial (aQ)_j survives, equivalently when its inside/outside
degrees are constant in every relation graph.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import numpy as np

from .schemetables import integer_column, pair_counts, relation_products
from .spaces import REL_TAGS, GeometryError, q_to_e_power

# eigenspaces carry the relations' tags, in the same order
NONTRIVIAL = REL_TAGS[1:]
# the nontrivial eigenspaces spanned by the lines of a plane and by the lines
# through a point; a set whose support misses a span meets all its members alike
PLANE_SPAN = frozenset({"10", "20"})
PENCIL_SPAN = frozenset({"10", "11"})


@dataclass(frozen=True)
class LineSet:
    """A subset of the lines of one space, held as sorted indices."""

    indices: tuple
    fingerprint: str
    name: str = ""

    def __len__(self):
        return len(self.indices)


def _distinct_indices(values, n, what):
    """values as ascending distinct ints below n; a non-integral or out-of-range one raises ValueError."""
    try:
        idx = sorted(set(map(operator.index, values)))
    except TypeError:
        raise ValueError(f"{what} indices must be integers") from None
    if idx and (idx[0] < 0 or idx[-1] >= n):
        raise ValueError(f"{what} index out of range")
    return idx


def make_lineset(space, indices, name=""):
    idx = tuple(_distinct_indices(indices, space.n_lines, "line"))
    return LineSet(indices=idx, fingerprint=space.fingerprint, name=name)


def _as_indices(space, y):
    if isinstance(y, LineSet):
        if y.fingerprint != space.fingerprint:
            raise ValueError("line set belongs to a different space")
        return list(y.indices)
    return _distinct_indices(y, space.n_lines, "line")


def inner_distribution(space, y):
    """The 5-vector a with a_i = (ordered pairs of Y in relation i) / |Y|."""
    idx = _as_indices(space, y)
    if not idx:
        raise ValueError("inner distribution undefined for the empty set")
    mask = _line_mask(space, idx)
    counts = pair_counts(space, mask[:, None])[:, 0]
    return tuple(Fraction(int(c), len(idx)) for c in counts)


def dual_distribution(space, tables, y):
    """aQ, exactly; Delsarte nonnegativity is asserted as a sanity check."""
    return _dual(tables, inner_distribution(space, y))


def _dual(tables, a):
    """aQ of an inner distribution a, checked nonnegative.

    With D the common denominator of a, A = D a and (LQ_j, L_j) the integer
    columns, (aQ)_j = sum_i A_i LQ_ij / (D L_j): Python ints and one Fraction
    per entry.
    """
    D = lcm(*(v.denominator for v in a))
    A = [v.numerator * (D // v.denominator) for v in a]
    aq = tuple(
        Fraction(sum(x * c for x, c in zip(A, col)), D * L)
        for col, L in (integer_column(tables, j) for j in range(5))
    )
    if any(v < 0 for v in aq):
        raise GeometryError("negative dual distribution entry for a genuine subset")
    return aq


def eigenspace_support(space, tables, y):
    """The nontrivial eigenspaces j with (aQ)_j != 0, as a frozenset of tags."""
    return _support(dual_distribution(space, tables, y))


def _support(aq):
    return frozenset(REL_TAGS[j] for j in range(1, 5) if aq[j] != 0)


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
    return _regular_set_check(space, tables, _line_mask(space, idx)[:, None])[0][2]


def _regular_set_check(space, tables, X):
    """[(a, aQ, regular_set_check)] of the columns of X, an n x k bool matrix of nonempty sets.

    Both routes run on every column, and the columns go through
    relation_products in blocks, so memory stays bounded.  Entry (y, i) of a
    set's census counts its lines in relation i to the line y.  The support
    route sums it over the set to chi^T A_i chi = |Y| a_i, whose product with
    L Q, column j of Q times its least common denominator L_j, is |Y| L_j aQ
    in exact Python ints.  The degree route compares n times it with the
    targets in int64, whose operands are at most n times a valency.
    """
    n, P = space.n_lines, np.array(tables.P, dtype=np.int64)
    sizes = X.sum(axis=0)
    if (sizes == n).any():
        raise ValueError("regularity undefined for the full line set")
    cols, Ls = zip(*(integer_column(tables, j) for j in range(5)))
    # Python ints, so the sets x 25 products of the dual have no ceiling
    LQ = np.array(cols, dtype=object).T
    out = []
    block = max(1, 2**16 // n)
    for lo in range(0, X.shape[1], block):
        Y, m = X[:, lo : lo + block], sizes[lo : lo + block]
        counts = relation_products(space, Y).transpose(2, 1, 0)  # set x line x relation
        pairs = (counts * Y.T[:, :, None]).sum(axis=1)
        dual = pairs.astype(object) @ LQ
        if (dual < 0).any():
            raise GeometryError("negative dual distribution entry for a genuine subset")
        # n cnt_i(y) = |Y| (P0i - Pji) + n Pji [y in Y] at every line y of a V_j-regular
        # set; j = 10..21 on axis 1, and a fractional target would miss everywhere
        in_Y = Y.T[:, None, :, None]
        want = m[:, None, None, None] * (P[0] - P[1:])[:, None] + n * P[1:, None] * in_Y
        off = counts[:, None] * n != want
        clean = ~off.any(axis=(2, 3))
        for c, size in enumerate(m.tolist()):
            a = tuple(Fraction(int(v), size) for v in pairs[c])
            aq = tuple(Fraction(int(v), size * L) for v, L in zip(dual[c], Ls))
            support = _support(aq)
            j_tag = next(iter(support)) if len(support) == 1 else None
            degree_tag = REL_TAGS[1 + int(clean[c].argmax())] if clean[c].any() else None
            if degree_tag != j_tag:
                raise GeometryError("support-based and degree-based regularity verdicts disagree")
            inside = outside = witness = None
            if degree_tag:
                inside, outside = expected_degrees(tables, REL_TAGS.index(degree_tag), size)
            else:
                # the first (line, relation) off the V10 targets
                x, i = divmod(int(off[c, 0].argmax()), 5)
                want_x = expected_degrees(tables, 1, size)[0 if Y[x, c] else 1]
                witness = (x, REL_TAGS[i], int(counts[c, x, i]), str(want_x[i]))
            report = RegularSetReport(
                is_regular=j_tag is not None,
                eigenspace=j_tag,
                size=size,
                support=support,
                inside_degrees=tuple(int(v) for v in inside) if inside else None,
                outside_degrees=tuple(int(v) for v in outside) if outside else None,
                witness=witness,
            )
            out.append((a, aq, report))
    return out


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
    elif j == "21":
        modulus = Fraction(n)
    else:
        # V11 misses the plane span and V20 the pencil span
        modulus = span_orthogonal_divisor(PENCIL_SPAN if j in PLANE_SPAN else PLANE_SPAN, q, e2)
        if j == "20" and e2 == 2:
            interval = (q + 1, q * q * (q + 1), (q * q + 1) * (q + 1))
        elif j == "20" and q % 2:
            excluded = (1, 2 * s * q * q + 1)

    m = Fraction(size) / modulus
    consistent = False
    if j == "21":
        consistent = m in (0, 1)
        reason = (
            "only the empty and full sets lie in this eigenspace"
            if consistent
            else f"size must be 0 or {n}"
        )
        m = m if consistent else None
    elif size < 0 or size > n:
        m, reason = None, f"size outside [0, {n}]"
    elif m.denominator != 1:
        m, reason = None, f"size not a multiple of {modulus}"
    elif m in excluded:
        reason = f"multiplier m={m} is excluded"
    elif interval and not (m == 0 or interval[0] <= m <= interval[1] or m == interval[2]):
        lo, hi, full = interval
        reason = f"multiplier m={m} outside {{0}} u [{lo}, {hi}] u {{{full}}}"
    else:
        consistent, reason = True, "admissible"
    return DivisibilityReport(consistent, j, size, modulus, m, excluded, reason)


def span_orthogonal_divisor(S, q, e2):
    """Divisibility modulus for |Z| when chi_Z is orthogonal to sum of V_s, s in S.

    S is PLANE_SPAN or PENCIL_SPAN, each one intersection-based divisibility
    condition; any other S raises ValueError("no divisor known").
    """
    S = frozenset(S)
    s = q_to_e_power(q, e2)
    theta = q * q + q + 1
    if S == PLANE_SPAN:
        return Fraction((s * q + 1) * (s * q * q + 1))
    if S == PENCIL_SPAN:
        if e2 != 2 and q % 2 == 0:
            return Fraction(theta * (s * q * q + 1))
        if e2 != 2:
            return Fraction(theta * (s * q * q + 1), 2)
        return Fraction(q**4 + q * q + 1)
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
    return _design_check(space, tables, _as_indices(space, y), level)


def _design_check(space, tables, idx, level, support=None):
    """design_check of the sorted indices idx, whose eigenspace support may be given."""
    incident = space.point_lines_arr if level == "points" else space.plane_lines_arr
    counts = _line_mask(space, idx)[incident].sum(axis=1)
    if (counts != counts[0]).any():
        return DesignReport(False, level, None, None, None)
    m = int(counts[0])
    q, s = space.q, space.qe
    if level == "points":
        want = Fraction(m * (s * q * q + 1) * space.theta, q + 1)
        span = PENCIL_SPAN
    else:
        want = Fraction(m * (s * q + 1) * (s * q * q + 1))
        span = PLANE_SPAN
    size_ok = Fraction(len(idx)) == want
    if idx and support is None:
        support = eigenspace_support(space, tables, idx)
    support_ok = not idx or support.isdisjoint(span)
    return DesignReport(True, level, m, size_ok, support_ok)
