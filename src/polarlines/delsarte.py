"""Exact Delsarte linear programming bounds for forbidden-relation line families.

The LP over inner distributions: variables a_i >= 0 for the relations i not
forbidden (a for the identity relation is fixed to 1), constraints
(aQ)_j >= 0 for all five eigenspaces, objective maximize sum a_i.  The
polytope has at most 4 dimensions, so the solver enumerates all basic
solutions exactly over the rationals and certifies the optimum with exact
dual multipliers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .linalg import solve_rational
from .schemetables import make_tables
from .spaces import REL_TAGS


def _normalize_tags(forbidden):
    out = []
    for t in forbidden:
        t = str(t).upper().lstrip("R")
        if t not in REL_TAGS[1:]:
            raise ValueError(f"unknown relation {t!r}; use R10, R11, R20, R21")
        out.append(t)
    out = sorted(set(out), key=REL_TAGS.index)
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
        tables = make_tables(self.q, self.e2)
        return tuple(sum(self.a[i] * tables.Q[i][j] for i in range(5)) for j in range(5))


def _solve_square(rows, rhs):
    """Solve an exact square linear system; None if singular."""
    x = solve_rational(rows, [[v] for v in rhs])
    return None if x is None else [row[0] for row in x]


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

    # constraints g.x >= h over the free variables x
    constraints = []
    for j in range(5):
        g = tuple(tables.Q[i][j] for i in free)
        constraints.append((("aQ", REL_TAGS[j]), g, -tables.Q[0][j]))
    for pos, i in enumerate(free):
        g = tuple(Fraction(int(pos == t)) for t in range(k))
        constraints.append((("nonneg", REL_TAGS[i]), g, Fraction(0)))

    vertices = []
    for combo in itertools.combinations(range(len(constraints)), k):
        rows = [constraints[c][1] for c in combo]
        rhs = [constraints[c][2] for c in combo]
        x = _solve_square(rows, rhs)
        if x is None:
            continue
        if all(sum(g[t] * x[t] for t in range(k)) >= h for _, g, h in constraints):
            vertices.append(tuple(x))
    if not vertices:
        raise RuntimeError("LP infeasible; impossible since a = (1,0,0,0,0) is feasible")

    def objective(x):
        return 1 + sum(x)

    best = max(objective(x) for x in vertices)
    optimal = [x for x in vertices if objective(x) == best]

    # tight eigenspaces: (aQ)_j = 0 in every optimal basic solution
    tight = set(REL_TAGS)
    for x in optimal:
        zero = set()
        for j in range(5):
            val = sum(tables.Q[i][j] * xi for i, xi in zip(free, x)) + tables.Q[0][j]
            if val == 0:
                zero.add(REL_TAGS[j])
        tight &= zero
    xstar = min(optimal)

    cert = _dual_certificate(constraints, k, xstar, best)
    a_full = [Fraction(0)] * 5
    a_full[0] = Fraction(1)
    for i, xi in zip(free, xstar):
        a_full[i] = xi
    return LPResult(
        q=q,
        e2=e2,
        forbidden=forbidden,
        optimum=best,
        a=tuple(a_full),
        tight=frozenset(tight),
        certificate=cert,
    )


def _dual_certificate(constraints, k, xstar, best):
    """Nonnegative multipliers y with sum y_c g_c = -objective gradient.

    Then for every feasible x, -(sum x) = sum y (g.x) - extra >= sum y h, so
    1 + sum x <= 1 - sum y h, and equality at xstar proves optimality.
    """
    active = [
        c
        for c, (_, g, h) in enumerate(constraints)
        if sum(gt * xt for gt, xt in zip(g, xstar)) == h
    ]
    target = [Fraction(-1)] * k  # gradient of -(sum of free variables)
    for combo in itertools.combinations(active, k):
        cols = [constraints[c][1] for c in combo]
        rows = [[cols[c][t] for c in range(k)] for t in range(k)]  # transpose
        y = _solve_square(rows, target)
        if y is None or any(v < 0 for v in y):
            continue
        bound = 1 - sum(yv * constraints[c][2] for yv, c in zip(y, combo))
        if bound == best:
            return {
                "multipliers": {constraints[c][0]: y_i for c, y_i in zip(combo, y)},
                "bound": bound,
            }
    raise RuntimeError("no exact dual certificate found at the optimum")
