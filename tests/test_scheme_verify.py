import copy

import numpy as np
import pytest

from polarlines.schemetables import _project, relation_products, tables_for_space, verify_scheme
from polarlines.spaces import GeometryError

# the seven test spaces: hyperbolic, symplectic, parabolic, elliptic and Hermitian
SPACES = ["o6plus2", "sp62", "o6plus3", "o73", "o8minus2", "u64", "sp63"]


@pytest.mark.parametrize("family,q", [("O6plus", 2), ("Sp6", 2), ("O6plus", 3)])
def test_verify_scheme_all_pairs_pass(spaces, family, q):
    space = spaces.get(family, q)
    tables = tables_for_space(space)
    report = verify_scheme(space, tables, k=5, seed=0x5EED)
    assert report["ok"]
    assert all(report["pairs"].values())
    assert report["resolution_of_identity"]


def test_projection_onto_v00_is_the_mean(o6plus2):
    tables = tables_for_space(o6plus2)
    rng = np.random.default_rng(7)
    x = rng.integers(-5, 6, size=o6plus2.n_lines).astype(np.int64)
    z, D = _project(tables, 0, relation_products(o6plus2, x[:, None]))
    total = int(x.sum())
    # E_00 x = (sum x / n) * all-ones
    assert np.array_equal(z * tables.n, np.full_like(z, total * D))


def test_r21_eigenvalue_on_v21_image(o73):
    # the opposite-lines graph acts as -q^{e+1} on the last eigenspace
    tables = tables_for_space(o73)
    rng = np.random.default_rng(11)
    x = rng.integers(-5, 6, size=o73.n_lines).astype(np.int64)
    z, _ = _project(tables, 4, relation_products(o73, x[:, None]))
    a21 = np.zeros_like(z)
    block = 512
    for lo in range(0, o73.n_lines, block):
        hi = min(o73.n_lines, lo + block)
        a21[lo:hi] = (o73.labels[lo:hi] == 4) @ z
    assert np.array_equal(a21, -9 * z)
    assert tables.P[4][4] == -9


def test_projectors_are_orthogonal_idempotents(o6plus2):
    # exact check of E_j E_k = delta_jk E_j on a random vector
    tables = tables_for_space(o6plus2)
    rng = np.random.default_rng(23)
    x = rng.integers(-4, 5, size=o6plus2.n_lines).astype(np.int64)
    for j in range(5):
        zj, _ = _project(tables, j, relation_products(o6plus2, x[:, None]))
        for kk in range(5):
            zz, Dz = _project(tables, kk, relation_products(o6plus2, zj))
            if kk == j:
                assert np.array_equal(zz, Dz * zj)
            else:
                assert not zz.any()


def test_mismatched_tables_rejected(o6plus2):
    from polarlines.schemetables import make_tables

    with pytest.raises(ValueError):
        verify_scheme(o6plus2, make_tables(3, 0))


@pytest.mark.parametrize("k", [0, -3])
def test_verify_scheme_needs_a_vector(o6plus2, k):
    with pytest.raises(ValueError):
        verify_scheme(o6plus2, tables_for_space(o6plus2), k=k)


def _reference_relation_products(labels, Y):
    """The five-mask float64 relation products, kept as the oracle of the incidence route."""
    Y = np.asarray(Y, dtype=np.int64)
    n = labels.shape[0]
    if max(int(Y.max(initial=0)), -int(Y.min(initial=0))) * n >= 2**53:
        raise OverflowError("operand too large for exact float64 relation products")
    Yf = Y.astype(np.float64)
    out = np.empty((5, n, Y.shape[1]), dtype=np.int64)
    rows = max(1, 2**20 // max(labels.shape[1], 1))
    for lo in range(0, n, rows):
        block = labels[lo : lo + rows]
        for i in range(5):
            out[i, lo : lo + len(block)] = (block == i).astype(np.float64) @ Yf
    return out


# entries of a row block of the label table: the reference check's float32 copy
# of a block, 1 MiB, stays in cache and below numpy's 4 MiB huge-page threshold
_BLOCK_ENTRIES = 2**18


def _check_table(labels, X, AX):
    """Raise ValueError naming the first line whose table row disagrees with AX.

    The reference that a relation table is the incidence's: AX =
    relation_products(space, X).  The table's label-weighted product
    sum_i i [labels = i] X is one float32 pass over row blocks of about
    _BLOCK_ENTRIES entries, and must equal sum_i i A_i X.  Each block is
    first checked to hold no label above 4, which raises too.  With |X| <= 9,
    every partial sum is then an integer of magnitude at most 36 n < 2^24
    (n < 466,033, past any table that fits in memory), so the pass is exact.
    """
    Xf = X.astype(np.float32)
    want = AX[1] + 2 * AX[2] + 3 * AX[3] + 4 * AX[4]
    rows = max(1, _BLOCK_ENTRIES // max(labels.shape[1], 1))
    for lo in range(0, labels.shape[0], rows):
        block = labels[lo : lo + rows]
        if block.max(initial=0) > 4:
            raise ValueError("relation table holds a label outside 0..4")
        wrong = (block.astype(np.float32) @ Xf != want[lo : lo + len(block)]).any(axis=1)
        if wrong.any():
            line = lo + int(np.argmax(wrong))
            raise ValueError(f"relation table disagrees with the incidence at line {line}")


def _integer_relation_products(labels, Y):
    """The five integer-matmul masks, by row blocks: exact wherever every A_i Y fits in int64."""
    out = np.empty((5, len(labels), Y.shape[1]), dtype=np.int64)
    for lo in range(0, len(labels), 512):
        block = labels[lo : lo + 512]
        for i in range(5):
            out[i, lo : lo + len(block)] = (block == i).astype(np.int64) @ Y
    return out


def _moved_pair_copy(space, label=4):
    # move one symmetric pair from R20 to another relation: the copy is no
    # longer a scheme, and with label 0 two of its rows hold a second 0
    broken = copy.copy(space)
    broken.labels = space.labels.copy()
    a, b = np.argwhere(broken.labels == 3)[0]
    broken.labels[a, b] = broken.labels[b, a] = label
    return broken, a


def test_a_moved_relation_pair_is_seen_by_the_reference_check_alone(o6plus2):
    # verify_scheme reads the incidence and no table, so its report on the
    # moved copy is the clean one; the reference check names the moved row
    tables = tables_for_space(o6plus2)
    clean = verify_scheme(o6plus2, tables, k=2)
    assert clean["ok"] is True
    X = np.random.default_rng(0x5EED).integers(-9, 10, size=(o6plus2.n_lines, 2))
    AX = relation_products(o6plus2, X)
    for label in (4, 0, 7):
        broken, a = _moved_pair_copy(o6plus2, label)
        assert verify_scheme(broken, tables, k=2) == clean
        message = "outside 0..4" if label == 7 else f"disagrees with the incidence at line {a}$"
        with pytest.raises(ValueError, match=message):
            _check_table(broken.labels, X, AX)


@pytest.mark.parametrize("seed", [3, 0x5EED])
@pytest.mark.parametrize("space", SPACES)
def test_the_built_table_matches_the_incidence_products(request, space, seed):
    space = request.getfixturevalue(space)
    X = np.random.default_rng(seed).integers(-9, 10, size=(space.n_lines, 2))
    _check_table(space.labels, X, relation_products(space, X))


def test_moved_pair_report_matches_the_reference_route(o6plus2):
    # the table check names the first line whose products, by the reference
    # route over the table, differ from the incidence's
    X = np.random.default_rng(3).integers(-9, 10, size=(o6plus2.n_lines, 2))
    AX = relation_products(o6plus2, X)
    for label in (4, 0):
        broken, _ = _moved_pair_copy(o6plus2, label)
        differs = (_reference_relation_products(broken.labels, X) != AX).any(axis=(0, 2))
        with pytest.raises(ValueError, match=f"at line {int(np.argmax(differs))}$"):
            _check_table(broken.labels, X, AX)
    _check_table(o6plus2.labels, X, AX)


def test_r00_is_read_where_its_labels_sit(o6plus2):
    # R00 is the diagonal of a valid table; the table check weighs a 0 off
    # the diagonal, and a diagonal entry other than 0, in their own rows
    X = np.random.default_rng(29).integers(1, 10, size=(o6plus2.n_lines, 2))
    AX = relation_products(o6plus2, X)
    for row, col, label in ((3, 40, 0), (7, 7, 2)):
        labels = o6plus2.labels.copy()
        labels[row, col] = labels[col, row] = label
        with pytest.raises(ValueError, match=f"at line {row}$"):
            _check_table(labels, X, AX)


@pytest.mark.parametrize("space", SPACES)
@pytest.mark.parametrize(
    "bound",
    # the random vectors of verify_scheme, and operands above its projections
    # (max|Z| is about 1.96e6 on O(7,3))
    [pytest.param(9, id="x_sized"), pytest.param(2**30, id="z_sized")],
)
def test_relation_products_match_the_reference_route(request, space, bound):
    space = request.getfixturevalue(space)
    Y = np.random.default_rng(bound).integers(-bound, bound + 1, size=(space.n_lines, 14))
    Y[0, 0], Y[1, 1] = bound, -bound
    want = _reference_relation_products(space.labels, Y)
    # widths 1, 3 and 10, against one reference product of all 14 columns
    for lo, hi in ((0, 1), (1, 4), (4, 14)):
        got = relation_products(space, Y[:, lo:hi])
        assert got.dtype == np.int64
        assert np.array_equal(got, want[:, :, lo:hi])


def _overflow_bound(space):
    """The largest max|Y| that relation_products accepts on this space."""
    lpp = space.point_lines_arr.shape[1]
    return (2**63 - 1) // ((space.q + 2) * lpp**2 - lpp + space.n_lines)


@pytest.mark.parametrize("space", SPACES)
def test_relation_products_guard_is_max_entry_times_the_route_factor(request, space):
    space = request.getfixturevalue(space)
    top = _overflow_bound(space)
    # a random column with both extremes, and the all-top and all-minus-top
    # columns, whose every partial sum has one sign
    Y = np.empty((space.n_lines, 3), dtype=np.int64)
    rng = np.random.default_rng(top % 1000)
    Y[:, 0] = rng.integers(-top, top, size=space.n_lines, endpoint=True)
    Y[:2, 0] = top, -top
    Y[:, 1], Y[:, 2] = top, -top
    assert np.array_equal(relation_products(space, Y), _integer_relation_products(space.labels, Y))
    for bad in (top + 1, -(top + 1)):
        Y[5, 2] = bad
        with pytest.raises(OverflowError):
            relation_products(space, Y)


def _changed_incidence_copy(space, name, line):
    # one entry of the line's row in `name` moves to a point or plane off the line
    broken = copy.copy(space)
    arr = getattr(space, name).copy()
    size = len(space.pts_arr) if name == "line_points_arr" else len(space.plane_lines_arr)
    arr[line, 0] = next(x for x in range(size) if x not in arr[line])
    setattr(broken, name, arr)
    return broken


@pytest.mark.parametrize("space", ["o6plus2", "sp62", "o73", "u64"])
@pytest.mark.parametrize("name", ["line_planes_arr", "line_points_arr"])
def test_a_changed_incidence_entry_is_never_ok(request, space, name):
    space = request.getfixturevalue(space)
    tables = tables_for_space(space)
    X = np.random.default_rng(0x5EED).integers(-9, 10, size=(space.n_lines, 2))
    for line in (0, space.n_lines // 2, space.n_lines - 1):
        broken = _changed_incidence_copy(space, name, line)
        # the reference check sees that the table is no longer the incidence's
        with pytest.raises((ValueError, GeometryError)):
            _check_table(space.labels, X, relation_products(broken, X))
        # and verify_scheme, which reads no table, fails the scheme identities
        try:
            report = verify_scheme(broken, tables, k=2)
        except GeometryError:  # a perp count that q does not divide
            continue
        assert report["ok"] is False


def test_a_point_off_the_line_leaves_a_remainder(o6plus2):
    # with one point of line 0 moved, a unit vector on a line through the new
    # point and not through the old one adds 1 to one numerator of T^T Y
    broken = _changed_incidence_copy(o6plus2, "line_points_arr", 0)
    old, new = o6plus2.line_points_arr[0, 0], broken.line_points_arr[0, 0]
    M = next(m for m in o6plus2.point_lines_arr[new] if old not in o6plus2.line_points_arr[m])
    Y = np.zeros((o6plus2.n_lines, 1), dtype=np.int64)
    Y[M] = 1
    with pytest.raises(GeometryError, match="not a multiple of q"):
        relation_products(broken, Y)


def _random_labels(rng, n):
    upper = np.triu(rng.integers(0, 5, size=(n, n)), 1)
    return (upper + upper.T).astype(np.uint8)


# with 513 lines a block is 511 rows, so the last block holds two rows; with
# 1025 lines it is 255 rows, and the last block holds five
@pytest.mark.parametrize("n", [50, 513, 1025])
@pytest.mark.parametrize("m", [1, 3, 10])
def test_table_check_matches_integer_matmul(n, m):
    rng = np.random.default_rng(n * 100 + m)
    labels = _random_labels(rng, n)
    X = rng.integers(-9, 10, size=(n, m))
    X[0, 0], X[-1, -1] = 9, -9
    AX = _integer_relation_products(labels, X)
    _check_table(labels, X, AX)
    # one changed label is seen in its row, in the first and the last block
    for row in (0, n // 2, n - 1):
        col = int(np.flatnonzero(X[:, 0])[0])
        wrong = labels.copy()
        wrong[row, col] = (wrong[row, col] + 1) % 5
        with pytest.raises(ValueError, match=f"at line {row}$"):
            _check_table(wrong, X, AX)


def test_relation_products_reject_an_operand_of_another_height(o6plus2):
    for Y in (np.ones((104, 2), dtype=np.int64), np.ones(105, dtype=np.int64)):
        with pytest.raises(ValueError, match=rf"\({len(Y)},.*\).*105 lines"):
            relation_products(o6plus2, Y)


@pytest.mark.parametrize("row", [0, 512])
def test_readers_reject_a_label_above_4(row):
    # the check weighs each label by its value, and the search indexes its
    # rows by label, so a 7 must be stopped before either reads it
    labels = _random_labels(np.random.default_rng(9), 513)
    labels[row, 1] = labels[1, row] = 7
    X = np.ones((513, 1), dtype=np.int64)
    with pytest.raises(ValueError, match="outside 0..4"):
        _check_table(labels, X, _integer_relation_products(labels, X))
