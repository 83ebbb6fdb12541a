import copy

import numpy as np
import pytest

from polarlines.schemetables import (
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


def test_verify_scheme_rejects_a_moved_relation_pair(o6plus2):
    # move one symmetric pair from R20 to R21: the copy is no longer a scheme
    broken = copy.copy(o6plus2)
    broken.labels = o6plus2.labels.copy()
    a, b = np.argwhere(broken.labels == 3)[0]
    broken.labels[a, b] = broken.labels[b, a] = 4
    report = verify_scheme(broken, tables_for_space(o6plus2), k=2)
    assert report["ok"] is False
    assert not all(report["pairs"].values())
    assert verify_scheme(o6plus2, tables_for_space(o6plus2), k=2)["ok"] is True


def _random_labels(rng, n):
    upper = np.triu(rng.integers(0, 5, size=(n, n)), 1)
    return (upper + upper.T).astype(np.uint8)


# with 1025 lines a block is 1023 rows, so the last block holds two rows
@pytest.mark.parametrize("n", [50, 1025])
@pytest.mark.parametrize("m", [1, 3, 10])
def test_relation_products_match_integer_matmul(n, m):
    rng = np.random.default_rng(n * 100 + m)
    labels = _random_labels(rng, n)
    # entries near 2^53 / n, so float64 partial sums use the full mantissa
    Y = rng.integers(-(2**42), 2**42, size=(n, m))
    got = relation_products(labels, Y)
    assert got.dtype == np.int64 and got.shape == (5, n, m)
    for i in range(5):
        assert np.array_equal(got[i], (labels == i).astype(np.int64) @ Y)


def test_relation_products_guard_is_max_entry_times_n():
    labels = _random_labels(np.random.default_rng(3), 4)
    for bad in (2**51, -(2**51)):
        Y = np.zeros((4, 2), dtype=np.int64)
        Y[1, 1] = bad
        with pytest.raises(OverflowError):
            relation_products(labels, Y)
    Y = np.full((4, 2), 2**51 - 1, dtype=np.int64)
    Y[0, 0] = -(2**51 - 1)
    got = relation_products(labels, Y)
    for i in range(5):
        assert np.array_equal(got[i], (labels == i).astype(np.int64) @ Y)


def test_relation_census_is_a_per_row_bincount(o6plus2, sp62):
    rng = np.random.default_rng(5)
    # 1100 columns leave a two-block census
    for labels in (
        o6plus2.labels,
        sp62.labels,
        sp62.labels[:, ::7],
        rng.integers(0, 5, size=(1100, 1100), dtype=np.uint8),
    ):
        want = np.stack([np.bincount(row, minlength=5) for row in labels])
        assert np.array_equal(relation_census(labels), want)
