import copy

import numpy as np
import pytest

from polarlines import schemetables
from polarlines.schemetables import (
    _limbs,
    _project,
    relation_census,
    relation_products,
    tables_for_space,
    verify_scheme,
)


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
    z, D = _project(tables, 0, relation_products(o6plus2.labels, x[:, None]))
    total = int(x.sum())
    # E_00 x = (sum x / n) * all-ones
    assert np.array_equal(z * tables.n, np.full_like(z, total * D))


def test_r21_eigenvalue_on_v21_image(o73):
    # the opposite-lines graph acts as -q^{e+1} on the last eigenspace
    tables = tables_for_space(o73)
    rng = np.random.default_rng(11)
    x = rng.integers(-5, 6, size=o73.n_lines).astype(np.int64)
    z, _ = _project(tables, 4, relation_products(o73.labels, x[:, None]))
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
        zj, _ = _project(tables, j, relation_products(o6plus2.labels, x[:, None]))
        for kk in range(5):
            zz, Dz = _project(tables, kk, relation_products(o6plus2.labels, zj))
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
    """The five-mask float64 relation products, kept as the oracle of the fast route."""
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


def _moved_pair_copy(space, label=4):
    # move one symmetric pair from R20 to another relation: the copy is no
    # longer a scheme, and with label 0 two of its rows hold a second 0
    broken = copy.copy(space)
    broken.labels = space.labels.copy()
    a, b = np.argwhere(broken.labels == 3)[0]
    broken.labels[a, b] = broken.labels[b, a] = label
    return broken


def test_verify_scheme_rejects_a_moved_relation_pair(o6plus2):
    broken = _moved_pair_copy(o6plus2)
    report = verify_scheme(broken, tables_for_space(o6plus2), k=2)
    assert report["ok"] is False
    assert not all(report["pairs"].values())
    assert verify_scheme(o6plus2, tables_for_space(o6plus2), k=2)["ok"] is True


def test_moved_pair_report_matches_the_reference_route(o6plus2, monkeypatch):
    tables = tables_for_space(o6plus2)
    broken = [_moved_pair_copy(o6plus2, label) for label in (4, 0)]
    fast = [verify_scheme(space, tables, k=2) for space in broken]
    assert all(report["ok"] is False for report in fast)
    monkeypatch.setattr(schemetables, "relation_products", _reference_relation_products)
    assert [verify_scheme(space, tables, k=2) for space in broken] == fast


def _limb_count(Y):
    Y = np.asarray(Y, dtype=np.int64)
    return _limbs(Y, len(Y))[0].shape[1] // Y.shape[1]


def _assert_matches_integer_matmul(labels, Y):
    got = relation_products(labels, Y)
    assert got.dtype == np.int64 and got.shape == (5, labels.shape[0], Y.shape[1])
    for i in range(5):
        assert np.array_equal(got[i], (labels == i).astype(np.int64) @ Y)


@pytest.mark.parametrize("space", ["o6plus2", "sp62", "o73"])
@pytest.mark.parametrize(
    "bound,limbs",
    # the random vectors of verify_scheme, one limb, and operands above its
    # projections (max|Z| is about 1.96e6 on O(7,3)): two limbs, three on O(7,3)
    [pytest.param(9, (1, 1, 1), id="x_sized"), pytest.param(2**30, (2, 2, 3), id="z_sized")],
)
def test_relation_products_match_the_reference_route(request, space, bound, limbs):
    labels = request.getfixturevalue(space).labels
    Y = np.random.default_rng(bound).integers(-bound, bound + 1, size=(len(labels), 3))
    Y[0, 0] = bound
    assert _limb_count(Y) == limbs[["o6plus2", "sp62", "o73"].index(space)]
    got = relation_products(labels, Y)
    assert got.dtype == np.int64
    assert np.array_equal(got, _reference_relation_products(labels, Y))


def test_float32_guard_boundary():
    rng = np.random.default_rng(17)
    # n * max|Y| = 2^24 - 1 (255 * 65793) takes one limb and 2^24 (256 *
    # 65536) two.  Float32 holds every integer up to 2^24, so only the third
    # case, whose R10 rows add about 300 odd entries near 2^17 to odd sums far
    # above 2^24, would come out wrong in one float32 limb.
    for n, top, limbs in ((255, 65793, 1), (256, 65536, 2), (512, 2**17 + 1, 2)):
        labels = rng.choice(5, size=(n, n), p=[0.1, 0.6, 0.1, 0.1, 0.1]).astype(np.uint8)
        for sign in (1, -1):
            Y = sign * (rng.integers((top + 1) // 4, (top + 1) // 2, size=(n, 4)) * 2 + 1)
            Y[0, 0] = sign * top
            assert _limb_count(Y) == limbs
            _assert_matches_integer_matmul(labels, Y)
    # each low limb of 2^40 - 1 is 2^b - 1 = 2^16 - 1, so a row of 255 ones in
    # R10 adds up to 255 * (2^16 - 1), just below 2^24, in every low limb
    labels = np.ones((256, 256), dtype=np.uint8)
    np.fill_diagonal(labels, 0)
    _assert_matches_integer_matmul(labels, np.full((256, 3), 2**40 - 1))


def _random_labels(rng, n):
    upper = np.triu(rng.integers(0, 5, size=(n, n)), 1)
    return (upper + upper.T).astype(np.uint8)


# with 513 lines a block is 511 rows, so the last block holds two rows; with
# 1025 lines it is 255 rows, and the last block holds five
@pytest.mark.parametrize("n", [50, 513, 1025])
@pytest.mark.parametrize("m", [1, 3, 10])
def test_relation_products_match_integer_matmul(n, m):
    rng = np.random.default_rng(n * 100 + m)
    labels = _random_labels(rng, n)
    # max|Y| * n just below 2^24, at 2^24, near 2^40 and near 2^62, with the
    # negative extreme in one entry, so the partial sums fill every limb
    for bits in (24, 40, 62):
        for top in ((2**bits - 1) // n, -(-(2**bits) // n)):
            Y = rng.integers(-top, top, size=(n, m), endpoint=True)
            Y[rng.integers(n), rng.integers(m)] = -top
            _assert_matches_integer_matmul(labels, Y)
            _assert_matches_integer_matmul(labels, np.full((n, m), -top))


def test_relation_products_guard_is_max_entry_times_n():
    labels = _random_labels(np.random.default_rng(3), 4)
    for bad in (2**61, -(2**61)):
        Y = np.zeros((4, 2), dtype=np.int64)
        Y[1, 1] = bad
        with pytest.raises(OverflowError):
            relation_products(labels, Y)
    Y = np.full((4, 2), 2**61 - 1, dtype=np.int64)
    Y[0, 0] = -(2**61 - 1)
    _assert_matches_integer_matmul(labels, Y)
    _assert_matches_integer_matmul(labels, -Y)
    # at n = 3 the shifted accumulator of an all-R10 row passes -2^63 before
    # the low limb brings it back: int64 wraps, and the result is exact
    _assert_matches_integer_matmul(
        np.ones((3, 3), dtype=np.uint8), np.full((3, 2), -((2**63 - 1) // 3))
    )
    # past 2^23 columns a limb has no bit to spare: entries of 2 must raise
    # rather than split forever
    with pytest.raises(OverflowError):
        _limbs(np.full((1, 1), 2), 2**23 + 1)


def test_r00_is_read_where_its_labels_sit(o6plus2):
    # R00 is the diagonal of a valid table; a 0 off the diagonal and a row
    # with no 0 are still read exactly, as the rows of Y where the zeros sit
    labels = o6plus2.labels.copy()
    labels[3, 40] = labels[40, 3] = 0
    labels[7, 7] = 2
    rng = np.random.default_rng(29)
    for top in (9, 2**30):
        _assert_matches_integer_matmul(labels, rng.integers(-top, top, size=(len(labels), 4)))


def test_relation_products_reject_an_operand_of_another_height():
    labels = _random_labels(np.random.default_rng(31), 50)
    with pytest.raises(ValueError, match=r"\(49, 2\).*\(50, 50\)"):
        relation_products(labels, np.ones((49, 2), dtype=np.int64))


def test_relation_census_is_a_per_row_bincount(o6plus2, sp62):
    rng = np.random.default_rng(5)
    # 513 columns make blocks of 511 rows, so the last block holds two rows
    for labels in (
        o6plus2.labels,
        sp62.labels,
        sp62.labels[:, ::7],
        rng.integers(0, 5, size=(513, 513), dtype=np.uint8),
    ):
        want = np.stack([np.bincount(row, minlength=5) for row in labels])
        assert np.array_equal(relation_census(labels), want)


@pytest.mark.parametrize("row", [0, 512])
def test_readers_reject_a_label_above_4(row):
    # relation 4 is counted as the complement of the others, so a 7 would
    # otherwise be read as relation 4
    labels = _random_labels(np.random.default_rng(9), 513)
    labels[row, 1] = labels[1, row] = 7
    with pytest.raises(ValueError):
        relation_products(labels, np.ones((513, 1), dtype=np.int64))
    with pytest.raises(ValueError):
        relation_census(labels)
    with pytest.raises(ValueError):
        relation_census(labels[:, [0, 1]])
