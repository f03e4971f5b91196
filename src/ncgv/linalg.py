"""Exact linear algebra over Q(s): the one exact matrix type and one
fraction-free elimination, which serves both rank and field solving.

A matrix is split into its connected blocks: the components of the
bipartite graph of rows and columns joined by nonzero entries.  Each block
is brought to echelon form by Bareiss elimination on its rows scaled by the
lcm of their denominators, an integer-polynomial matrix over Z[s], so no
rational-function arithmetic happens in the pivoting loop.  Rank is the
sum of the blocks' pivot counts.  A linear system is solved on the blocks
of its augmented matrix, by a back substitution that stays in Z[s] until
it divides by one determinant.  For a search that meets its vectors one at
a time, ``add`` is the incremental step: it keeps a reduced basis over Z[s]
and says whether each new vector enlarges its span.

The matrix type has entries in algebras over Q(s) and nothing else: it
carries no formal complex unit, since no identity checked with it needs one.
"""

from __future__ import annotations

from itertools import product
from math import gcd as _igcd

from .scalars import ZERO, QScalar, _pcontent, _pdiv_exact, _pgcd, _pmul, _pshift, _psub


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

    def __add__(self, other):
        ent = [[x + y for x, y in zip(ra, rb, strict=True)]
               for ra, rb in zip(self.entries, other.entries, strict=True)]
        return type(self)(ent)

    def __sub__(self, other):
        return self + other.scale(QScalar.from_int(-1))

    def scale(self, c):
        return type(self)([[e.scale(c) for e in row] for row in self.entries])

    def scale_poly(self, cell):
        """Left multiplication by an algebra element of the entry type."""
        return type(self)([[cell * e for e in row] for row in self.entries])

    def __mul__(self, other):
        if not isinstance(other, MatrixOverAlgebra):
            return NotImplemented
        if other.size != self.size:
            raise ValueError(f"matrix sizes differ: {self.size} and {other.size}")
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
        return type(self)(ent)

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
    denominators (any nonzero scaling of a row preserves rank and
    solutions)."""
    lcm = (1,)
    for x in row:
        if x.den == (1,) or x.den == lcm:
            continue
        if not any(x.den[:-1]) and not any(lcm[:-1]):
            # two monomials c s^k: the lcm of the c at the larger power
            c, d = lcm[-1], x.den[-1]
            lcm = _pshift((c * d // _igcd(c, d),), max(len(lcm), len(x.den)) - 1)
        else:
            c = _igcd(_pcontent(lcm), _pcontent(x.den))
            g = tuple(c * k for k in _pgcd(lcm, x.den))
            lcm = _pmul(lcm, _pdiv_exact(x.den, g))
    return [_pmul(x.num, _pdiv_exact(lcm, x.den)) if x.num and x.den != lcm else x.num
            for x in row]


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
    return sum(len(_echelon([[rows[i][c] for c in cs] for i in rs])[1])
               for rs, cs in _blocks(rows))


def _echelon(rows):
    """Fraction-free (Bareiss) row echelon form of a matrix of QScalars,
    each row first scaled by the lcm of its denominators: the nonzero
    echelon rows over Z[s] and their pivot columns.  The pivot of echelon
    row k is the minor of the first k + 1 rows on the first k + 1 pivot
    columns, in the row order the elimination chose."""
    m = [_clear_denominators(r) for r in rows]
    m = [r for r in m if any(r)]
    ncols = len(m[0]) if m else 0
    pivots = []
    prev = (1,)
    row = 0
    for col in range(ncols):
        pivot = next((r for r in range(row, len(m)) if m[r][col]), None)
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
        pivots.append(col)
        row += 1
        if row == len(m):
            break
    return m[:row], pivots


def _zgcd(a, b):
    """gcd of two nonzero polynomials in Z[s], content included."""
    return _pmul((_igcd(_pcontent(a), _pcontent(b)),), _pgcd(a, b))


def _primitive(row):
    """A row over Z[s] divided by the gcd of its entries: their integer
    content, their common power of s, and the gcd of their parts prime to
    s, which is 1 from the first monomial entry on."""
    content, shift, g = 0, None, None
    for x in row:
        if x:
            k = next(i for i, a in enumerate(x) if a)
            content = _igcd(content, _pcontent(x))
            shift = k if shift is None else min(shift, k)
            if g != (1,):
                g = _pgcd(x[k:], x[k:] if g is None else g)
    if g is None or (content, shift, g) == (1, 0, (1,)):
        return row
    d = _pmul((content,), g)
    return [_pdiv_exact(x[shift:], d) if x and d != (1,) else x[shift:] for x in row]


def _eliminate(v, r, c):
    """r[c] v - v[c] r over their gcd, which is zero at column c."""
    g = _zgcd(r[c], v[c])
    a, b = _pdiv_exact(r[c], g), _pdiv_exact(v[c], g)
    return [_psub(_pmul(a, x), _pmul(b, y)) if y else _pmul(a, x) for x, y in zip(v, r)]


def add(rows, pivots, vec):
    """One more step of the elimination, for a search that meets its
    vectors one at a time.  ``rows`` over Z[s] are kept reduced: row i is
    nonzero at column ``pivots[i]`` and every other row is zero there.
    ``vec``, a row of QScalars, is scaled to Z[s] and reduced against them.
    If anything is left, it becomes a new row, pivoting at its first nonzero
    column, which is cleared from the other rows; the return value says
    whether the vector was new, that is, outside the span of the rows."""
    v = _clear_denominators(vec)
    for r, c in zip(rows, pivots):
        if v[c]:
            v = _eliminate(v, r, c)
    col = next((c for c, x in enumerate(v) if x), None)
    if col is None:
        return False
    v = _primitive(v)
    for i, r in enumerate(rows):
        if r[col]:
            rows[i] = _primitive(_eliminate(r, v, col))
    rows.append(v)
    pivots.append(col)
    return True


def solve_field(a_rows, b_cols):
    """Solve A x = b over Q(s): the unique solution vector, or ValueError
    if the system is inconsistent or underdetermined.

    Each connected block of [A | b] is brought to echelon form [U | y].  Its
    last pivot D is the determinant of its pivot part, so z = D x is a
    vector over Z[s] (Cramer's rule) and the back substitution
    z_i = (D y_i - sum_{j>i} U_ij z_j) / U_ii divides exactly.  A block
    without the b column has x = 0."""
    ncols = len(a_rows[0]) if a_rows else 0
    aug = [list(row) + [b] for row, b in zip(a_rows, b_cols)]
    echelons = [(cs, *_echelon([[aug[i][c] for c in cs] for i in rs]))
                for rs, cs in _blocks(aug)]
    if any(cs[pivots[-1]] == ncols for cs, _, pivots in echelons):
        raise ValueError("inconsistent linear system")
    if sum(len(pivots) for _, _, pivots in echelons) < ncols:
        raise ValueError("underdetermined linear system")
    sol = [ZERO] * ncols
    for cs, u, _ in echelons:
        if cs[-1] != ncols:
            continue
        n = len(u)
        d = u[n - 1][n - 1]
        z = [()] * n
        for i in reversed(range(n)):
            acc = _pmul(d, u[i][n])
            for j in range(i + 1, n):
                acc = _psub(acc, _pmul(u[i][j], z[j]))
            z[i] = _pdiv_exact(acc, u[i][i])
            sol[cs[i]] = QScalar(z[i], d)
    return sol
