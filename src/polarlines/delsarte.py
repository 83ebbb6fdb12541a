"""Exact Delsarte linear programming bounds for forbidden-relation line families.

The LP over inner distributions: variables a_i >= 0 for the relations i not
forbidden (a for the identity relation is fixed to 1), constraints
(aQ)_j >= 0 for all five eigenspaces, objective maximize sum a_i.  The
polytope has at most 4 dimensions, so the solver enumerates all basic
solutions exactly over the rationals and certifies the optimum with exact
dual multipliers.  Each constraint row is scaled to integers once, and each
basis is solved fraction-free, so feasibility is a test of integer
inequalities, each vertex's objective is one Fraction and only the optimal
vertices become Fractions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .analysis import _dual
from .linalg import solve_rational
from .schemetables import integer_column, make_tables
from .spaces import REL_TAGS, bare_tag


def _normalize_tags(forbidden):
    for t in forbidden:
        if bare_tag(t) not in REL_TAGS[1:]:
            raise ValueError(f"unknown relation {t!r}; use R10, R11, R20, R21")
    out = sorted({bare_tag(t) for t in forbidden}, key=REL_TAGS.index)
    if not out:
        raise ValueError("forbidden set must be nonempty")
    if len(out) == 4:
        raise ValueError("forbidding all four relations leaves only single lines")
    return tuple(out)


@dataclass(frozen=True)
class LPResult:
    q: int
    e2: int
    forbidden: tuple
    optimum: Fraction
    a: tuple  # full 5-vector of the optimal inner distribution
    tight: frozenset  # eigenspaces with (aQ)_j = 0 in every optimal solution
    certificate: dict

    @property
    def aq(self):
        return _dual(make_tables(self.q, self.e2), self.a)


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def delsarte_lp_bound(q, e2, forbidden):
    """Exact LP optimum, optimal distributions, tight eigenspaces, certificate.

    The certificate is a nonnegative rational combination of the constraint
    rows equal to the negated objective, which proves the bound; it is checked
    here, so a returned result is verified.
    """
    forbidden = _normalize_tags(forbidden)
    tables = make_tables(q, e2)
    free = [i for i in range(1, 5) if REL_TAGS[i] not in forbidden]
    k = len(free)

    # constraints g.x >= h over the free variables x, (aQ)_j >= 0 scaled by
    # the integer L of Q's column j: (name, g, h, scale)
    constraints = []
    for j in range(5):
        col, scale = integer_column(tables, j)
        constraints.append((("aQ", REL_TAGS[j]), [col[i] for i in free], -col[0], scale))
    for pos, i in enumerate(free):
        constraints.append((("nonneg", REL_TAGS[i]), [int(pos == t) for t in range(k)], 0, 1))

    vertices = []
    for combo in itertools.combinations(constraints, k):
        solved = solve_rational([c[1] for c in combo], [[c[2]] for c in combo])
        if solved is None:
            continue
        # the vertex is x = N / d with d > 0, so g.x >= h is g.N >= h d
        N, d = [row[0] for row in solved[0]], solved[1]
        if all(_dot(g, N) >= h * d for _, g, h, _ in constraints):
            vertices.append((N, d))
    if not vertices:
        raise RuntimeError("LP infeasible; impossible since a = (1,0,0,0,0) is feasible")

    # the objective 1 + sum(x) = (d + sum(N)) / d
    objectives = [Fraction(d + sum(N), d) for N, d in vertices]
    best = max(objectives)
    optimal = [
        tuple(Fraction(v, d) for v in N)
        for (N, d), value in zip(vertices, objectives)
        if value == best
    ]

    def inner(x):
        """The inner distribution (1, a_10, ..., a_21) with the free values x."""
        at = dict(zip(free, x))
        return (Fraction(1), *(at.get(i, Fraction(0)) for i in range(1, 5)))

    # tight eigenspaces: (aQ)_j = 0 in every optimal basic solution
    tight = frozenset(REL_TAGS)
    for x in optimal:
        tight &= {t for t, v in zip(REL_TAGS, _dual(tables, inner(x))) if v == 0}
    xstar = min(optimal)

    return LPResult(
        q=q,
        e2=e2,
        forbidden=forbidden,
        optimum=best,
        a=inner(xstar),
        tight=tight,
        certificate=_dual_certificate(constraints, k, xstar, best),
    )


def _dual_certificate(constraints, k, xstar, best):
    """Nonnegative multipliers y with sum y_c g_c = -objective gradient.

    Then for every feasible x, -(sum x) = sum y (g.x) - extra >= sum y h, so
    1 + sum x <= 1 - sum y h, and equality at xstar proves optimality.  The
    rows are solved as scaled; a multiplier of a scaled row times its scale
    is the multiplier of the row itself.
    """
    den = lcm(*(v.denominator for v in xstar))
    num = [int(v * den) for v in xstar]
    active = [c for c in constraints if _dot(c[1], num) == c[2] * den]
    for combo in itertools.combinations(active, k):
        rows = [[c[1][t] for c in combo] for t in range(k)]  # transpose
        solved = solve_rational(rows, [[-1]] * k)  # gradient of -(sum of free variables)
        if solved is None:
            continue
        y, d = [row[0] for row in solved[0]], solved[1]
        if any(v < 0 for v in y):
            continue
        bound = Fraction(d - sum(v * c[2] for v, c in zip(y, combo)), d)
        if bound == best:
            return {
                "multipliers": {c[0]: Fraction(v * c[3], d) for v, c in zip(y, combo)},
                "bound": bound,
            }
    raise RuntimeError("no exact dual certificate found at the optimum")
