"""R-matrix data: entries of R and R^{-1} over Q(s) plus the r-form
normalization constant c, with exact inverse and Yang-Baxter checks on load.

Index convention: R maps e_j (x) e_l to sum_{i,k} R^{ik}_{jl} e_i (x) e_k;
the stored matrix is indexed by composite row (i,k) and column (j,l).
The universal r-form on matrix generators is r(v^i_j (x) v^k_l) = c*R^{ik}_{jl}.
Both checks are products of ``linalg.MatrixOverAlgebra``, built in that
index convention by ``MatrixOverAlgebra.from_index``.
"""

from __future__ import annotations

import json
from importlib import resources

from .exprparse import parse_scalar
from .linalg import MatrixOverAlgebra
from .scalars import ONE, ZERO


class RMatrixError(ValueError):
    pass


class RMatrixData:
    def __init__(self, name, n, c, R, Rinv):
        self.name = name
        self.n = n
        self.c = c
        self.c_inv = c.inverse()
        self.R = R          # dict (i,k,j,l) -> QScalar, 1-based indices
        self.Rinv = Rinv
        self.validate()

    def entry(self, i, k, j, l):
        return self.R.get((i, k, j, l), ZERO)

    def inv_entry(self, i, k, j, l):
        return self.Rinv.get((i, k, j, l), ZERO)

    def r_form(self, i, j, k, l):
        """r(v^i_j (x) v^k_l) = c * R^{ik}_{jl}."""
        return self.c * self.entry(i, k, j, l)

    def rbar_form(self, i, j, k, l):
        """rbar(v^i_j (x) v^k_l) = c^{-1} * (R^{-1})^{ik}_{jl}."""
        return self.c_inv * self.inv_entry(i, k, j, l)

    def validate(self):
        """R R^{-1} = 1 and R12 R13 R23 = R23 R13 R12, as products of exact
        matrices on the double and the triple tensor space."""
        n = self.n
        R = MatrixOverAlgebra.from_index(n, 2, self.entry)
        Rinv = MatrixOverAlgebra.from_index(n, 2, self.inv_entry)
        one = MatrixOverAlgebra.from_index(
            n, 2, lambda i, k, j, l: ONE if (i, k) == (j, l) else ZERO)
        if R @ Rinv != one:
            raise RMatrixError(f"R*Rinv != id in {self.name!r}")
        # R_ab acts on tensor legs a and b, as the identity on the third
        r12 = MatrixOverAlgebra.from_index(
            n, 3, lambda a, b, c, d, e, f: self.entry(a, b, d, e) if c == f else ZERO)
        r13 = MatrixOverAlgebra.from_index(
            n, 3, lambda a, b, c, d, e, f: self.entry(a, c, d, f) if b == e else ZERO)
        r23 = MatrixOverAlgebra.from_index(
            n, 3, lambda a, b, c, d, e, f: self.entry(b, c, e, f) if a == d else ZERO)
        if r12 @ r13 @ r23 != r23 @ r13 @ r12:
            raise RMatrixError(f"Yang-Baxter equation fails for {self.name!r}")


def _grid_to_dict(grid, n):
    out = {}
    for row in range(n * n):
        for col in range(n * n):
            v = parse_scalar(grid[row][col])
            if not v.is_zero():
                i, k = divmod(row, n)
                j, l = divmod(col, n)
                out[(i + 1, k + 1, j + 1, l + 1)] = v
    return out


def load_rmatrix(doc):
    """Load from a parsed document {"n":..., "c":..., "R": [[...]], "Rinv": [[...]]}."""
    n = int(doc["n"])
    c = parse_scalar(doc["c"])
    R = _grid_to_dict(doc["R"], n)
    Rinv = _grid_to_dict(doc["Rinv"], n)
    return RMatrixData(doc.get("name", "rmatrix"), n, c, R, Rinv)


def builtin_rmatrix(name="slq2"):
    if name != "slq2":
        raise RMatrixError(f"no builtin R-matrix named {name!r}")
    text = resources.files("ncgv.data").joinpath("slq2_rmatrix.json").read_text()
    return load_rmatrix(json.loads(text))
