"""Exact linear algebra over Q(s): the one exact matrix type, fraction-free
rank and field solving.

Rank is the sum of the ranks of the connected blocks of the matrix: the
components of the bipartite graph of rows and columns joined by nonzero
entries.  Each block is ranked by Bareiss elimination on its rows scaled by
the lcm of their denominators, an integer-polynomial matrix over Z[s], so no
rational-function arithmetic happens in the pivoting loop.

The matrix type has entries in algebras over Q(s) and nothing else: it
carries no formal complex unit, since no identity checked with it needs one.
"""

from __future__ import annotations

from itertools import product
from math import gcd as _igcd

from .scalars import ZERO, QScalar, _pcontent, _pdiv_exact, _pgcd, _pmul, _psub


class MatrixOverAlgebra:
    """Square matrix whose entries are QScalar, NCPoly or CrossElement
    values: the R-matrix identities, the RTT relations and the block model
    of a commutator representation."""

    __slots__ = ("entries", "size")

    def __init__(self, entries):
        self.entries = entries
        self.size = len(entries)

    @classmethod
    def diagonal(cls, polys):
        pres = polys[0].pres
        n = len(polys)
        ent = [[pres.zero() for _ in range(n)] for _ in range(n)]
        for i, p in enumerate(polys):
            ent[i][i] = p
        return cls(ent)

    @classmethod
    def from_index(cls, n, k, entry):
        """The n^k x n^k matrix with ``entry(*row, *col)`` at row and column
        indices in {1..n}^k, numbered in lexicographic order: for k = 2,
        ``entry(a, b, c, d)`` sits in row (a-1)n + b-1 and column
        (c-1)n + d-1."""
        idx = list(product(range(1, n + 1), repeat=k))
        return cls([[entry(*row, *col) for col in idx] for row in idx])

    def _new(self, entries):
        """A matrix of the same kind as self."""
        return MatrixOverAlgebra(entries)

    def _cell(self, p):
        """An algebra element as an entry."""
        return p

    def __add__(self, other):
        ent = [[x + y for x, y in zip(ra, rb)]
               for ra, rb in zip(self.entries, other.entries)]
        return self._new(ent)

    def __sub__(self, other):
        return self + other.scale(QScalar.from_int(-1))

    def scale(self, c):
        return self._new([[e.scale(c) for e in row] for row in self.entries])

    def scale_poly(self, p):
        """Left multiplication by an algebra element."""
        cell = self._cell(p)
        return self._new([[cell * e for e in row] for row in self.entries])

    def __mul__(self, other):
        if not isinstance(other, MatrixOverAlgebra):
            return NotImplemented
        cols = range(1, self.size)
        ent = []
        for row in self.entries:
            out = []
            for j in range(self.size):
                acc = row[0] * other.entries[0][j]
                for k in cols:
                    acc = acc + row[k] * other.entries[k][j]
                out.append(acc)
            ent.append(out)
        return self._new(ent)

    __matmul__ = __mul__

    def is_zero(self):
        return all(e.is_zero() for row in self.entries for e in row)

    def __eq__(self, other):
        if not isinstance(other, MatrixOverAlgebra):
            return NotImplemented
        return self.entries == other.entries

    def __repr__(self):
        return "[" + "; ".join(
            ", ".join(repr(e) for e in row) for row in self.entries) + "]"


def _clear_denominators(row):
    """Scale a row of QScalars to integer polynomials by the lcm of its
    denominators (any nonzero scaling preserves rank)."""
    lcm = (1,)
    for x in row:
        if x.den != (1,):
            c = _igcd(_pcontent(lcm), _pcontent(x.den))
            g = tuple(c * k for k in _pgcd(lcm, x.den))
            lcm = _pmul(lcm, _pdiv_exact(x.den, g))
    return [_pmul(x.num, _pdiv_exact(lcm, x.den)) for x in row]


def _blocks(rows):
    """The connected blocks of a matrix as (row indices, column indices):
    rows that share a nonzero column are joined, through the first row
    that owns each column (union-find).  Zero rows belong to no block."""
    parent = list(range(len(rows)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    owner = {}
    for i, row in enumerate(rows):
        for c, x in enumerate(row):
            if x:
                j = owner.setdefault(c, i)
                parent[find(i)] = find(j)
    blocks = {}
    for i in range(len(rows)):
        blocks.setdefault(find(i), ([], []))[0].append(i)
    for c, i in sorted(owner.items()):
        blocks[find(i)][1].append(c)
    return [block for block in blocks.values() if block[1]]


def exact_rank(rows):
    """Rank of a matrix of QScalars: the sum of the exact ranks of its
    connected blocks."""
    rows = [list(r) for r in rows]
    return sum(_bareiss_rank([[rows[i][c] for c in cs] for i in rs])
               for rs, cs in _blocks(rows))


def _bareiss_rank(rows):
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
