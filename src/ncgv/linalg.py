"""Exact linear algebra over Q(s): fraction-free rank and field solving.

Rank uses Bareiss elimination on a denominator-cleared integer-polynomial
matrix, so no rational-function arithmetic happens in the pivoting loop.
"""

from __future__ import annotations

from .scalars import ZERO, _pdiv_exact, _pmul, _psub


def _clear_denominators(row):
    """Scale a row of QScalars to integer polynomials (common multiple of
    denominators; any nonzero scaling preserves rank)."""
    out = [x.num for x in row]
    for j, x in enumerate(row):
        if len(x.den) == 1 and x.den[0] == 1:
            continue
        for k in range(len(out)):
            if k == j:
                continue
            out[k] = _pmul(out[k], x.den)
    return out


def exact_rank(rows):
    """Rank of a matrix of QScalars by fraction-free (Bareiss) elimination."""
    m = [_clear_denominators(list(r)) for r in rows]
    m = [r for r in m if any(r)]
    if not m:
        return 0
    ncols = len(m[0])
    rank = 0
    prev = (1,)
    row = 0
    for col in range(ncols):
        pivot = None
        for r in range(row, len(m)):
            if m[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        p = m[row][col]
        for r in range(row + 1, len(m)):
            for c in range(col + 1, ncols):
                num = _psub(_pmul(p, m[r][c]), _pmul(m[r][col], m[row][c]))
                m[r][c] = _pdiv_exact(num, prev) if num else ()
            m[r][col] = ()
        prev = p
        rank += 1
        row += 1
        if row == len(m):
            break
    return rank


def solve_field(a_rows, b_cols):
    """Solve A x = b over Q(s) by Gaussian elimination.

    Returns the unique solution vector; raises ValueError if the system is
    inconsistent or underdetermined.
    """
    nrows = len(a_rows)
    ncols = len(a_rows[0]) if nrows else 0
    aug = [list(a_rows[r]) + [b_cols[r]] for r in range(nrows)]
    pivots = []
    row = 0
    for col in range(ncols):
        pivot = None
        for r in range(row, nrows):
            if not aug[r][col].is_zero():
                pivot = r
                break
        if pivot is None:
            continue
        aug[row], aug[pivot] = aug[pivot], aug[row]
        inv = aug[row][col].inverse()
        aug[row] = [x * inv for x in aug[row]]
        for r in range(nrows):
            if r != row and not aug[r][col].is_zero():
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[row])]
        pivots.append(col)
        row += 1
    for r in range(row, nrows):
        if not aug[r][ncols].is_zero():
            raise ValueError("inconsistent linear system")
    if len(pivots) < ncols:
        raise ValueError("underdetermined linear system")
    sol = [ZERO] * ncols
    for r, col in enumerate(pivots):
        sol[col] = aug[r][ncols]
    return sol
