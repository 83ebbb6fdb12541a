import itertools

import numpy as np
import pytest

from polarlines.constructions import section_line_sets
from polarlines.groups import o6plus_generators, point_permutation, vector_permutation
from polarlines.spaces import _quad_values, _table_matmul


def _orbit_count(n, perms):
    """Orbits of the group the permutations generate, by breadth-first search."""
    seen, orbits = set(), 0
    for start in range(n):
        if start in seen:
            continue
        orbits += 1
        seen.add(start)
        frontier = [start]
        while frontier:
            frontier = list({int(p[v]) for v in frontier for p in perms} - seen)
            seen.update(frontier)
    return orbits


@pytest.mark.parametrize("q", [2, 3, 4])
def test_generators_are_similitudes_that_keep_lines_and_labels(spaces, q):
    space = spaces.get("O6plus", q)
    f = space.field
    gens = o6plus_generators(f)
    assert len(gens) == (4 if q == 2 else 6)
    vectors = np.array(list(itertools.product(range(q), repeat=6)), dtype=np.uint8)
    form = _quad_values(f, space.form.quad, vectors, vectors)
    line_index = {pts: i for i, pts in enumerate(space.line_points)}
    for g in gens:
        # Q(v g) = c Q(v) on all of GF(q)^6, for one nonzero c
        images = _table_matmul(f, vectors, g)
        moved_form = _quad_values(f, space.form.quad, images, images)
        assert ((form == 0) == (moved_form == 0)).all()
        ratios = f.MUL[moved_form, f.INV[form]][form != 0]
        assert len(set(ratios.tolist())) == 1
        # every line's points go onto a line, and the line permutation keeps the labels
        moved = point_permutation(space, g)
        tau = np.array(
            [line_index[tuple(sorted(moved[list(pts)].tolist()))] for pts in space.line_points]
        )
        assert sorted(tau.tolist()) == list(range(space.n_lines))
        assert (space.labels[np.ix_(tau, tau)] == space.labels).all()


@pytest.mark.parametrize("q", [2, 3])
def test_section_permutations_form_one_orbit(spaces, q):
    space = spaces.get("O6plus", q)
    sections, incidence = section_line_sets(space, "gq")
    duals = [sec.dual_point for sec in sections]
    moves = [vector_permutation(space.field, duals, g) for g in o6plus_generators(space.field)]
    assert _orbit_count(len(sections), moves) == 1
    # each keeps the number of lines two sections share
    shared = incidence.astype(np.int64) @ incidence.T.astype(np.int64)
    for p in moves:
        assert (shared[np.ix_(p, p)] == shared).all()


def test_a_matrix_that_makes_no_permutation_is_rejected(o6plus3):
    assert (point_permutation(o6plus3, np.eye(6, dtype=np.uint8)) == np.arange(130)).all()
    singular = np.eye(6, dtype=np.uint8)
    singular[5, 5] = 0
    with pytest.raises(ValueError, match="outside"):
        point_permutation(o6plus3, singular)
    # x0 += x2 alone sends the point (0, 1, 1, 0, 0, 0) to (1, 1, 1, 0, 0, 0), which is no point
    shear = np.eye(6, dtype=np.uint8)
    shear[2, 0] = 1
    with pytest.raises(ValueError, match="outside"):
        point_permutation(o6plus3, shear)
    # sending x5 to x4 maps the points (0, 0, 0, 0, 1, 0) and (0, 0, 0, 0, 0, 1) onto one
    merge = np.eye(6, dtype=np.uint8)
    merge[5] = merge[4]
    duals = [(0, 0, 0, 0, 0, 1), (0, 0, 0, 0, 1, 0)]
    with pytest.raises(ValueError, match="two vectors to one"):
        vector_permutation(o6plus3.field, duals, merge)
