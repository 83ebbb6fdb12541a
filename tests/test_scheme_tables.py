from fractions import Fraction

import pytest

from polarlines.schemetables import make_tables, p_matrix

LEGAL = [(q, e2) for e2 in (0, 2, 4) for q in (2, 3, 4, 5, 7, 8, 9, 16, 25)] + [
    (q, e2) for e2 in (1, 3) for q in (4, 9, 16, 25)
]


def test_pinned_rows_at_q2_e0():
    P = p_matrix(2, 0)
    assert P[0] == (1, 12, 12, 48, 32)
    assert P[3] == (1, 3, -6, -6, 8)


def test_pinned_multiplicities_at_q2_e0():
    t = make_tables(2, 0)
    assert t.multiplicities == (1, 14, 20, 14, 56)
    assert sum(t.multiplicities) == t.n == 105


@pytest.mark.parametrize("q,e2", LEGAL)
def test_tables_consistent_for_all_legal_parameters(q, e2):
    # make_tables itself cross-checks the closed form against n * P^-1 and
    # validates row sums and multiplicities, raising on any mismatch
    t = make_tables(q, e2)
    assert sum(t.P[0]) == t.n
    for row in t.P[1:]:
        assert sum(row) == 0
    # first column of Q is all ones
    for i in range(5):
        assert t.Q[i][0] == 1


def test_p_times_q_is_n_identity_at_q3_e1():
    t = make_tables(3, 2)
    assert t.n == 3640
    for i in range(5):
        for k in range(5):
            dot = sum(Fraction(t.P[i][j]) * t.Q[j][k] for j in range(5))
            assert dot == (t.n if i == k else 0)
            dot = sum(t.Q[i][j] * t.P[j][k] for j in range(5))
            assert dot == (t.n if i == k else 0)


def test_p_entries_are_integers():
    for q, e2 in LEGAL:
        for row in p_matrix(q, e2):
            assert all(isinstance(x, int) for x in row)


def test_half_integer_e_requires_square_q():
    with pytest.raises(ValueError, match="square"):
        make_tables(2, 1)
    with pytest.raises(ValueError, match="square"):
        make_tables(3, 3)


def test_closed_form_mismatch_is_a_hard_error(monkeypatch):
    # the dual matrix is computed from the closed form and from n * P^-1;
    # a disagreement (the known typo failure mode) must raise, not warn
    import polarlines.schemetables as st

    good = st._q_matrix_closed_form(2, 0)
    doctored = [list(row) for row in good]
    doctored[3][1] += 1
    monkeypatch.setattr(st, "_q_matrix_closed_form", lambda q, e2: tuple(tuple(r) for r in doctored))
    # the uncached builder: make_tables(2, 0) may already be cached from an earlier test
    with pytest.raises(RuntimeError, match="mismatch"):
        st.make_tables.__wrapped__(2, 0)
