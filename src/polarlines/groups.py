"""Similitudes of the fixed O6plus form, as permutations of points and sections.

The O6plus spaces use the hyperbolic form Q(x) = x0 x1 + x2 x3 + x4 x5.  A
similitude g multiplies Q by a nonzero constant, so it permutes the singular
points, keeps perpendicularity, and acts on every object built from them.
Matrices act on row vectors, v -> v g.  The hyperplane u^perp goes to
(u g)^perp, so a similitude permutes the hyperplane sections through their
dual points.  Every permutation here is read off the images of the vectors,
and one that is not a permutation of the given vectors raises ValueError.
"""

from __future__ import annotations

import numpy as np

from .spaces import _table_matmul, _vector_indices


def _primitive_element(field):
    """The least generator of GF(q)*: the least a >= 2 with log a prime to q - 1; 1 in GF(2)."""
    return next((a for a in range(2, field.q) if np.gcd(field._log[a], field.q - 1) == 1), 1)


def _coordinate_permutation(images):
    """The matrix that moves coordinate i of a row vector to coordinate images[i]."""
    g = np.zeros((len(images), len(images)), dtype=np.uint8)
    g[np.arange(len(images)), images] = 1
    return g


def o6plus_generators(field):
    """Similitudes of x0 x1 + x2 x3 + x4 x5 over the field, as 6 x 6 uint8 matrices.

    In order: cycle the three hyperbolic pairs; swap the first two pairs; swap
    x0 and x1; the Siegel element x2 += x0, x1 -= x3; scale x0 by a primitive
    element w and x1 by 1/w; scale x1, x3 and x5 by w, which multiplies Q by
    w.  The last two are the identity over GF(2) and are left out there.
    """
    gens = [
        _coordinate_permutation([2, 3, 4, 5, 0, 1]),
        _coordinate_permutation([2, 3, 0, 1, 4, 5]),
        _coordinate_permutation([1, 0, 2, 3, 4, 5]),
    ]
    siegel = np.eye(6, dtype=np.uint8)
    siegel[0, 2] = 1
    siegel[3, 1] = field.neg(1)
    gens.append(siegel)
    w = _primitive_element(field)
    if w != 1:
        gens.append(np.diag([w, field.inv(w), 1, 1, 1, 1]).astype(np.uint8))
        gens.append(np.diag([1, w, 1, w, 1, w]).astype(np.uint8))
    return tuple(gens)


def vector_permutation(field, vectors, g):
    """Where g sends each of the vectors, as indices into the vectors.

    vectors are normalized (first nonzero entry 1) and distinct, as the points
    of a space and the dual points of its sections are.  Each product v g is
    looked up, up to a nonzero scalar, by spaces._vector_indices.  Raises ValueError if
    an image is zero or not one of the vectors, or two vectors share an image.
    """
    vectors = np.asarray(vectors, dtype=np.uint8)
    images = _table_matmul(field, vectors, np.asarray(g, dtype=np.uint8))
    pos = _vector_indices(field, vectors, images.T)
    if (pos < 0).any():
        raise ValueError("the matrix sends a vector outside the given ones")
    if (np.bincount(pos, minlength=len(pos)) > 1).any():
        raise ValueError("the matrix sends two vectors to one")
    return pos


def point_permutation(space, g):
    """The permutation of the space's points by the matrix g; ValueError if g makes none."""
    return vector_permutation(space.field, space.pts_arr, g)
