"""Exact rank and field solving over Q(s): connected blocks, each brought to
echelon form by Bareiss elimination, checked by hand-made cases, against
sympy's rank and solution over QQ(s), and on dense matrices by rank at a
rational point and by A x == b; and the incremental step ``add``, checked
against ``exact_rank``."""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st
from sympy.polys.matrices import DomainMatrix

from ncgv import commrep, linalg
from ncgv.dual import make_slq2_context
from ncgv.fodc import bicovariant_build
from ncgv.linalg import add, exact_rank, solve_field
from ncgv.scalars import ONE, Q, QScalar, S, ZERO


def scalar(num, k=0):
    """(num[0] + num[1] s + ...) * s^k."""
    return QScalar(tuple(num)) * QScalar.s_power(k)


def combine(coeffs, rows):
    """The row sum(c * row)."""
    out = [ZERO] * len(rows[0])
    for c, row in zip(coeffs, rows):
        out = [x + c * y for x, y in zip(out, row)]
    return out


def test_empty_matrices_have_rank_zero():
    assert exact_rank([]) == 0
    assert exact_rank([[], []]) == 0
    assert exact_rank([[ZERO] * 3] * 2) == 0


def test_shuffled_block_diagonal_matrix_has_full_rank():
    blocks = [
        [[ONE, S, Q], [S, ONE, ZERO], [scalar((1, 2), -1), ZERO, ONE]],
        [[Q, ONE + Q], [ONE, S]],
        [[scalar((0, 3), -2)]],
    ]
    ncols = sum(len(b[0]) for b in blocks)
    rows, offset = [], 0
    for block in blocks:
        for brow in block:
            row = [ZERO] * ncols
            row[offset:offset + len(brow)] = brow
            rows.append(row)
        offset += len(block[0])
    rng = random.Random(7)
    rng.shuffle(rows)
    perm = list(range(ncols))
    rng.shuffle(perm)
    rows = [[row[c] for c in perm] for row in rows]
    assert exact_rank(rows) == 6
    assert exact_rank(rows[:4]) == 4


def test_blocks_sharing_a_column_are_merged():
    # a1, a2 live in columns 0-2 and b1, b2 in columns 2-4: they share
    # column 2.  The first row, a1 + b1, depends on the others.
    a1 = [ONE, S, ONE, ZERO, ZERO]
    a2 = [Q, ONE, ZERO, ZERO, ZERO]
    b1 = [ZERO, ZERO, ONE, S, ONE]
    b2 = [ZERO, ZERO, ZERO, ONE, Q]
    rows = [combine([ONE, ONE], [a1, b1]), a1, a2, b1, b2]
    assert exact_rank(rows) == 4
    assert exact_rank(rows[:2] + rows[3:4]) == 2
    # the last row joins the blocks of the first two, through columns 1 and 2
    assert exact_rank([[ONE, S, ZERO], [ZERO, ZERO, ONE], [ZERO, ONE, Q]]) == 3


def test_rank_is_over_q_of_s_not_at_a_point():
    # det [[1, s], [s, 1]] = 1 - s^2 vanishes at s = 1 but not in Q(s)
    assert exact_rank([[ONE, S], [S, ONE]]) == 2
    assert exact_rank([[ONE, S], [S, Q]]) == 1
    assert exact_rank([[ONE / (ONE - Q), ONE], [ONE, ONE - Q]]) == 1


laurent = st.builds(scalar,
                    st.lists(st.integers(-3, 3), min_size=1, max_size=3),
                    st.integers(-2, 2))
entries = st.one_of(st.just(ZERO), st.just(ZERO), laurent)


@st.composite
def planted_matrices(draw):
    """A sparse matrix whose last rows are combinations of its first ones,
    with its rows shuffled."""
    ncols = draw(st.integers(1, 6))
    base = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                         min_size=1, max_size=5))
    planted = draw(st.lists(
        st.lists(st.one_of(st.just(ZERO), laurent), min_size=len(base),
                 max_size=len(base)).map(lambda cs: combine(cs, base)),
        max_size=3))
    return draw(st.permutations(base + planted))


SYM_S = sympy.Symbol("s")
QQ_S = sympy.QQ.frac_field(SYM_S)


def value(x):
    """A QScalar as a sympy expression in s."""
    num = sum(sympy.Integer(c) * SYM_S**i for i, c in enumerate(x.num))
    den = sum(sympy.Integer(c) * SYM_S**i for i, c in enumerate(x.den))
    return num / den


def field_matrix(rows):
    """A matrix of QScalars as a sympy DomainMatrix over QQ(s)."""
    return DomainMatrix.from_Matrix(sympy.Matrix([[value(x) for x in row] for row in rows])
                                    ).convert_to(QQ_S)


def sympy_rank(rows):
    return field_matrix(rows).rank()


@settings(max_examples=60, deadline=None)
@given(planted_matrices())
def test_rank_matches_sympy_over_q_of_s(rows):
    assert exact_rank(rows) == sympy_rank(rows)


@settings(max_examples=60, deadline=None)
@given(planted_matrices())
def test_add_keeps_a_reduced_basis_of_the_rows_so_far(rows):
    basis, pivots = [], []
    for i, row in enumerate(rows):
        rank, before = exact_rank(rows[:i + 1]), len(basis)
        assert add(basis, pivots, row) == (rank > before)
        assert len(basis) == len(pivots) == rank
        # reduced: each row is nonzero at its own pivot and zero at the others'
        for r, c in enumerate(pivots):
            assert [bool(b[c]) for b in basis] == [k == r for k in range(len(basis))]
        # and the rows span the rows added so far
        span = [[QScalar(x) for x in b] for b in basis]
        assert exact_rank(span + rows[:i + 1]) == rank


def test_add_reduces_the_rows_when_a_pivot_arrives():
    # the second row takes column 1 as pivot, so it is cleared from the first
    basis, pivots = [], []
    assert add(basis, pivots, [ONE, S, ZERO])
    assert add(basis, pivots, [ZERO, Q, ONE])
    assert pivots == [0, 1]
    assert basis[0][1] == () and basis[1][0] == ()
    assert not add(basis, pivots, [ONE, S + Q, ONE])
    assert add(basis, pivots, [ONE, ZERO, ZERO])
    assert len(basis) == 3 and all(b[c] for b, c in zip(basis, pivots))


def test_certificates_make_no_rank_matrix(monkeypatch):
    # the forward-space searches take their basis by ``add``, so a traced
    # linalg.rank_calls still counts the matrices of exact_rank alone
    from ncgv.commrep import centrality_check
    from ncgv.fodc import fodc_validate

    def no_rank(rows):
        raise AssertionError("a certificate called exact_rank")

    B = bicovariant_build(make_slq2_context(), "eps")
    monkeypatch.setattr(linalg, "exact_rank", no_rank)
    assert all(ok for _, ok, _ in fodc_validate(B.fodc, 3))
    assert centrality_check(B, 3) == [("centrality", True, None)]


@st.composite
def planted_systems(draw):
    """A square system A x = b with a unique solution, plus rows that are
    combinations of its rows, with the rows and the columns of A shuffled:
    (rows of A, b, square A, square b, column order)."""
    n = draw(st.integers(1, 5))
    square = []
    for i in range(n):
        row = draw(st.lists(entries, min_size=n, max_size=n))
        row[i] = draw(laurent)
        square.append(row)
    assume(sympy_rank(square) == n)
    rhs = draw(st.lists(st.one_of(st.just(ZERO), laurent), min_size=n, max_size=n))
    aug = [row + [y] for row, y in zip(square, rhs)]
    planted = draw(st.lists(
        st.lists(st.one_of(st.just(ZERO), laurent), min_size=n,
                 max_size=n).map(lambda cs: combine(cs, aug)),
        max_size=3))
    rows = draw(st.permutations(aug + planted))
    perm = draw(st.permutations(range(n)))
    return ([[row[c] for c in perm] for row in rows], [row[n] for row in rows],
            square, rhs, perm)


@settings(max_examples=40, deadline=None)
@given(planted_systems())
def test_solve_matches_sympy_over_q_of_s(system):
    a, b, square, rhs, perm = system
    want = field_matrix(square).lu_solve(field_matrix([rhs]).transpose()).to_list()
    assert [QQ_S.from_sympy(value(x)) for x in solve_field(a, b)] == \
        [want[c][0] for c in perm]


def test_solve_rejects_inconsistent_and_underdetermined_systems():
    with pytest.raises(ValueError, match="inconsistent"):
        solve_field([[ONE], [ZERO]], [ONE, S])
    with pytest.raises(ValueError, match="inconsistent"):
        solve_field([[ONE, S], [S, Q]], [ONE, ONE])
    # a zero column
    with pytest.raises(ValueError, match="underdetermined"):
        solve_field([[ONE, ZERO]], [S])
    # a rank-deficient block: its second row is s times its first
    with pytest.raises(ValueError, match="underdetermined"):
        solve_field([[ONE, S], [S, Q]], [ONE, S])
    # an inconsistent block and a block of rank 1 in 3 unknowns:
    # inconsistent wins
    with pytest.raises(ValueError, match="inconsistent"):
        solve_field([[ONE, ZERO, ZERO, ZERO], [ZERO, ZERO, ZERO, ZERO],
                     [ZERO, ONE, S, Q], [ZERO, S, Q, S * Q]],
                    [ONE, ONE, ZERO, ZERO])


def test_empty_system_has_the_empty_solution():
    assert solve_field([], []) == []


def dense_laurent(rng, nrows, ncols):
    """A dense matrix of Laurent polynomials with small coefficients."""
    return [[scalar([rng.randint(-3, 3) for _ in range(3)], rng.randint(-2, 2))
             for _ in range(ncols)] for _ in range(nrows)]


def test_dense_solve_is_exact():
    rng = random.Random(8)
    a = dense_laurent(rng, 8, 8)
    b = dense_laurent(rng, 1, 8)[0]
    x = solve_field(a, b)
    assert field_matrix(a) * field_matrix([x]).transpose() == field_matrix([b]).transpose()


def fraction_rank(rows, point):
    """Rank of the matrix evaluated at s = point, by sparse elimination over
    the rationals."""

    def value(poly):
        v = Fraction(0)
        for c in reversed(poly):
            v = v * point + c
        return v

    pivots = {}
    for row in rows:
        vec = {c: value(x.num) / value(x.den) for c, x in enumerate(row) if x}
        vec = {c: v for c, v in vec.items() if v}
        while vec:
            col = min(vec)
            if col not in pivots:
                lead = vec[col]
                pivots[col] = {c: v / lead for c, v in vec.items()}
                break
            f = vec[col]
            for c, v in pivots[col].items():
                vec[c] = vec.get(c, 0) - f * v
                if not vec[c]:
                    del vec[c]
    return len(pivots)


def test_fraction_rank_sees_the_dependence():
    assert fraction_rank([[ONE, S], [S, Q]], Fraction(3, 5)) == 1
    assert fraction_rank([[ONE, S], [S, ONE]], Fraction(3, 5)) == 2
    assert fraction_rank([[ONE, S], [S, ONE]], Fraction(1)) == 1


def test_dense_rank_with_a_planted_dependence():
    # One dense block, where sparse Gauss-Jordan over Q(s) swells (seconds
    # at 10 x 10) and Bareiss does not.  The last row is a combination of
    # the others, so the rank is at most 9, and at least 9 since evaluation
    # at s = 3/5 can only lower it.
    rng = random.Random(10)
    base = dense_laurent(rng, 9, 10)
    rows = base + [combine(dense_laurent(rng, 1, 9)[0], base)]
    assert fraction_rank(rows, Fraction(3, 5)) == 9
    assert exact_rank(rows) == 9


def test_degree_4_faithfulness_has_full_rank_at_a_rational_point(monkeypatch):
    # Evaluation can only lower rank, so full row rank at s = 3/5 certifies
    # full rank over Q(s), independently of the Bareiss elimination.
    shapes = []

    def rank_at_point(rows):
        shapes.append((len(rows), len(rows[0])))
        return fraction_rank(rows, Fraction(3, 5))

    monkeypatch.setattr(commrep, "exact_rank", rank_at_point)
    B = bicovariant_build(make_slq2_context(), "eps")
    report = commrep.faithfulness_rank(B, degree=4)
    assert shapes == [(120, 202), (120, 404)]
    assert report["corpus_size"] == report["gamma_span_dim"] == report["tau_rank"] == 120
