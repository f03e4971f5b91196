"""Desk-scale Hilbert-space layer.

Numeric side: truncated weighted-shift representations of the quantum disc,
clock/shift pairs for the root-of-unity plane, with masked residual checks
(shift operators corrupt the top basis rows, so identities are asserted on a
leading block only).  Every matrix of both models is a sum of a few weighted
shifts (the clock is one diagonal, the cyclic shift two), so all of them are
kept as their diagonals (``Diagonals``), and a block matrix is built by
``Diagonals.block``.  A residual's masked spectral norm is exact: a weighted
partial permutation (at most one nonzero in each row and column, as every
residual of the shipped checks is) has norm max |entry|, and any other
matrix takes a dense SVD.  The command line imports this module only when a
scenario binds a numeric check, so an exact-only run does not load numpy.
Symbolic side: the extended-plane representation on a formal module in the
basis d_n e_n, d_n = lambda_1 ... lambda_n, where only lambda_n^2 =
1 - q^(2n) enters, with an exact quotient coefficient ring, where zero means
zero.  Its relation and row-transport reports are ``algebra.row_statuses``
rows whose witness is the first move of the residual from a masked slot.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .algebra import AlgebraPresentation, LinComb, _accum, first_failure, row_statuses
from .commrep import plane_block_c, quantum_space_commrep_report, row_transport
from .fodc import builtin_calculus
from .linalg import MatrixOverAlgebra
from .presentations import builtin_presentation
from .scalars import ONE, QScalar, REAL

_Q = QScalar.q_power


class HilbertError(ValueError):
    pass


class Diagonals:
    """Square matrix kept as its nonzero diagonals: ``diags`` maps an offset
    k to a length-``dim`` vector v with entry (i, i + k) = v[i], and the
    slots of v whose column falls outside the matrix hold 0.  A weighted
    shift is one diagonal, so the models stay a few vectors long.  A
    product adds the terms of each entry in ascending inner index, and a
    quotient by a scalar multiplies by its inverse, as a compressed sparse
    row (CSR) matrix does, so the residuals agree bit for bit with a CSR
    construction of the same model."""

    __slots__ = ("dim", "shape", "diags")

    def __init__(self, dim, diags):
        self.dim = dim
        self.shape = (dim, dim)
        self.diags = diags

    @classmethod
    def from_entries(cls, dim, rows, cols, vals):
        """The dim x dim matrix with entry (rows[i], cols[i]) = vals[i], each
        position given at most once, and zeros elsewhere."""
        offsets = cols - rows
        diags = {}
        for k in np.unique(offsets).tolist():
            at = offsets == k
            diags[k] = np.zeros(dim, dtype=complex)
            diags[k][rows[at]] = vals[at]
        return cls(dim, diags)

    @classmethod
    def block(cls, grid):
        """The block matrix of a square grid of equal-sized ``Diagonals``."""
        n = grid[0][0].dim
        parts = [(rows + i * n, cols + j * n, vals) for i, line in enumerate(grid)
                 for j, (rows, cols, vals) in enumerate(mat.entries() for mat in line)]
        return cls.from_entries(n * len(grid), *map(np.concatenate, zip(*parts)))

    def entries(self):
        """(rows, cols, values) of the nonzero entries."""
        parts = [(np.zeros(0, dtype=int), np.zeros(0, dtype=int), np.zeros(0, dtype=complex))]
        for k, v in self.diags.items():
            rows = np.flatnonzero(v)
            parts.append((rows, rows + k, v[rows]))
        return tuple(np.concatenate(part) for part in zip(*parts))

    def toarray(self):
        rows, cols, vals = self.entries()
        out = np.zeros(self.shape, dtype=complex)
        out[rows, cols] = vals
        return out

    def any(self):
        return any(v.any() for v in self.diags.values())

    def restrict(self, idx):
        """The submatrix on the rows and columns ``idx`` (ascending)."""
        pos = np.full(self.dim, -1)
        pos[idx] = np.arange(len(idx))
        rows, cols, vals = self.entries()
        rows, cols = pos[rows], pos[cols]
        kept = (rows >= 0) & (cols >= 0)
        return Diagonals.from_entries(len(idx), rows[kept], cols[kept], vals[kept])

    def adjoint(self):
        """The conjugate transpose."""
        rows, cols, vals = self.entries()
        return Diagonals.from_entries(self.dim, cols, rows, vals.conj())

    def _merge(self, other, op):
        out = dict(self.diags)
        for k, v in other.diags.items():
            out[k] = op(out.get(k, 0), v)
        return Diagonals(self.dim, out)

    def __add__(self, other):
        return self._merge(other, np.add)

    def __sub__(self, other):
        return self._merge(other, np.subtract)

    def __mul__(self, c):
        return Diagonals(self.dim, {k: v * c for k, v in self.diags.items()})

    __rmul__ = __mul__

    def __truediv__(self, c):
        return self * (1 / c)

    def __matmul__(self, other):
        n = self.dim
        out = {}
        for a, u in sorted(self.diags.items()):
            for b, w in other.diags.items():
                # shifted[i] = w[i + a], the entry of other in row i + a
                if abs(a + b) < n:
                    shifted = np.zeros(n, dtype=complex)
                    shifted[max(0, -a):n - max(0, a)] = w[max(0, a):n - max(0, -a)]
                    out[a + b] = out.get(a + b, 0) + u * shifted
        return Diagonals(n, out)


def _norm(mat):
    """Spectral norm.  A matrix with at most one nonzero in each row and
    each column is a weighted partial permutation P D Q, whose norm is
    exactly its largest |entry|; any other takes the dense SVD."""
    rows, cols, vals = mat.entries()
    if len(np.unique(rows)) == len(rows) == len(np.unique(cols)):
        return float(np.abs(vals).max(initial=0.0))
    return float(np.linalg.norm(mat.toarray(), 2))


class TruncatedRep:
    """Finite matrix model with truncation metadata: a model made of
    ``copies`` equal diagonal blocks asserts identities on the leading
    mask x mask block of every copy only.  Its matrices, and all their
    products, are ``Diagonals``."""

    def __init__(self, pres, dim, s_value, mats, mask, adjoint_pairs=(), notes=(),
                 copies=1):
        self.pres = pres
        self.dim = dim
        self.s_value = complex(s_value)
        self.mats = dict(mats)
        self.mask = mask
        self.adjoint_pairs = tuple(adjoint_pairs)
        self.notes = tuple(notes)
        self.copies = copies
        self.one = Diagonals(dim, {0: np.ones(dim, dtype=complex)})

    def word_matrix(self, w):
        out = self.one
        for g in w:
            out = out @ self.mats[g]
        return out

    def poly_matrix(self, p):
        out = 0 * self.one
        for w, c in p.terms.items():
            out = out + c.evaluate(self.s_value) * self.word_matrix(w)
        return out

    def masked(self, mat):
        block = self.dim // self.copies
        idx = (block * np.arange(self.copies)[:, None] + np.arange(self.mask)).ravel()
        return mat.restrict(idx)

    def relation_residuals(self):
        residuals = self.pres.relation_residuals(self.word_matrix,
                                                 lambda c: c.evaluate(self.s_value))
        return [(" ".join(lhs), _norm(self.masked(m))) for lhs, _, m in residuals]

    def adjoint_residuals(self):
        out = []
        for g, gstar in self.adjoint_pairs:
            m = self.masked(self.mats[gstar]) - self.masked(self.mats[g]).adjoint()
            out.append((f"{gstar} = adjoint({g})", _norm(m)))
        return out


# ---------------------------------------------------------------------------
# quantum disc
# ---------------------------------------------------------------------------


def shift_weights(q, M):
    """lambda_n = (1 - q^(2n))^(1/2) for n = 0..M."""
    return [math.sqrt(max(0.0, 1.0 - q ** (2 * n))) for n in range(M + 1)]


def disc_rep(M, q):
    """Weighted shift pair: z raises with weight lambda_{n+1}, z* lowers."""
    if not (0.0 < q < 1.0):
        raise HilbertError("disc representation needs 0 < q < 1")
    if M < 2:
        raise HilbertError("dimension must be at least 2")
    # entry (n, n - 1) = lambda_n, and lambda_0 = 0 fills the unused slot
    Z = Diagonals(M, {-1: np.array(shift_weights(q, M)[:M], dtype=complex)})
    pres = builtin_presentation("disc")
    mats = {"z": Z, "z*": Z.adjoint()}
    return TruncatedRep(pres, M, math.sqrt(q), mats, mask=M - 1,
                        adjoint_pairs=(("z", "z*"),))


def disc_commrep(M, q):
    """Doubled representation with the off-diagonal block operator
    F = (1-q^2)^{-1} (0 Z; Z* 0)."""
    rep = disc_rep(M, q)
    zero = Diagonals(M, {})
    mats = {g: Diagonals.block([[m, zero], [zero, m]]) for g, m in rep.mats.items()}
    F = Diagonals.block([[zero, rep.mats["z"]], [rep.mats["z*"], zero]]) / (1 - q * q)
    rep2 = TruncatedRep(rep.pres, 2 * M, rep.s_value, mats, mask=M - 1,
                        adjoint_pairs=rep.adjoint_pairs, copies=2)
    return rep2, F


def numeric_verify(rep, F, calc, tol=1e-12):
    """Masked residuals per class: algebra relations, declared adjoint pairs,
    symmetry of F, and every bimodule row of ``calc`` transported to
    commutators with F.  Returns a report dict with the max residual per
    class.  Rows whose label has no unit differential are left out; a row
    that names a label without a commutator is listed with residual None."""
    classes = {}
    classes["relations"] = max((r for _, r in rep.relation_residuals()), default=0.0)
    adj = rep.adjoint_residuals()
    if adj:
        classes["star_compatibility"] = max(r for _, r in adj)
    mask_f = rep.masked(F)
    classes["f_symmetry"] = _norm(mask_f - mask_f.adjoint())
    rows, comms = row_transport(calc, rep.poly_matrix, F)
    rows_detail = [(f"{label}.{gen}",
                    None if delta is None else _norm(rep.masked(delta)))
                   for label, gen, delta, _ in rows if label in comms]
    classes["bimodule_rows"] = max([0.0] + [r for _, r in rows_detail if r is not None])
    degenerate = not F.any()
    report = {
        "check": "numeric_verify",
        "dim": rep.dim,
        "mask": rep.mask,
        "tol": tol,
        "classes": classes,
        "rows": rows_detail,
        "status": "pass" if all(v <= tol for v in classes.values()) else "fail",
        "notes": list(rep.notes),
    }
    if degenerate:
        report["notes"].append("degenerate (tau = 0): F vanishes")
    return report


def summability_report(q, M):
    """Partial sums of the commutator eigenvalue sequence q^{2n+2} against
    the closed geometric form, with the tail bound q^{2M+2}/(1-q^2)."""
    if not (0.0 < q < 1.0):
        raise HilbertError("summability needs 0 < q < 1")
    if M < 1:
        raise HilbertError("summability needs at least one term (M >= 1)")
    terms = [q ** (2 * n + 2) for n in range(M)]
    partial = []
    acc = 0.0
    for t in terms:
        acc += t
        partial.append(acc)
    closed = q * q * (1 - q ** (2 * M)) / (1 - q * q)
    tail = q ** (2 * M + 2) / (1 - q * q)
    return {
        "check": "summability",
        "q": q,
        "terms": M,
        "partial_sum": acc,
        "closed_form": closed,
        "difference": abs(acc - closed),
        "tail_bound": tail,
        "monotone": all(b >= a for a, b in zip(partial, partial[1:])),
        "verdict": "trace-norm partial sums consistent with a summable sequence",
    }


# ---------------------------------------------------------------------------
# root-of-unity plane (clock and shift)
# ---------------------------------------------------------------------------


def weyl_rep(m):
    """Clock X and shift Y on C^m with X Y = q Y X at q = exp(2 pi i / m).
    No faithful finite model exists for generic |q| = 1; this specialization
    checks the polynomial identities at a root of unity, which the reports
    label explicitly."""
    if m < 3:
        raise HilbertError("clock/shift model needs m >= 3")
    q = cmath.exp(2j * cmath.pi / m)
    X = Diagonals(m, {0: np.array([q ** j for j in range(m)], dtype=complex)})
    j = np.arange(m)
    Y = Diagonals.from_entries(m, (j + 1) % m, j, np.ones(m))
    pres = builtin_presentation("real_plane")
    mats = {"x": X, "y": Y, "yinv": Y.adjoint()}
    s = cmath.exp(1j * cmath.pi / m)
    return TruncatedRep(pres, m, s, mats, mask=m,
                        adjoint_pairs=(("y", "yinv"),),
                        notes=("root-of-unity specialization q = exp(2 pi i/m)",))


def weyl_commrep_residuals(m, tol=1e-12):
    """Numeric commutators of the block C against the exactly derived
    images, evaluated in the clock/shift model."""
    rep = weyl_rep(m)
    pres = rep.pres
    calc = builtin_calculus("pw-a")
    C = plane_block_c(pres)
    results, comms = quantum_space_commrep_report(calc, C)
    if not all(status == "pass" for _, status, _ in results):
        raise HilbertError("exact row transport failed; cannot transport")

    def block_matrix(mx):
        return Diagonals.block([[rep.poly_matrix(e) for e in row] for row in mx.entries])

    Cnum = block_matrix(C)
    out = {}
    for gen in ("x", "y", "yinv"):
        rho = block_matrix(MatrixOverAlgebra.diagonal([pres.gen(gen)] * C.size))
        numeric = Cnum @ rho - rho @ Cnum
        derived = sum((block_matrix(comms[label].scale_poly(coeff))
                       for label, coeff in calc.dmap[gen].terms.items()), 0 * Cnum)
        out[gen] = _norm(numeric - derived)
    xy = rep.mats["x"] @ rep.mats["y"] - \
        _Q(1).evaluate(rep.s_value) * rep.mats["y"] @ rep.mats["x"]
    return {
        "check": "weyl_commrep",
        "m": m,
        "tol": tol,
        "weyl_relation_residual": _norm(xy),
        "commutator_residuals": out,
        "status": "pass" if _norm(xy) <= tol and all(v <= tol for v in out.values())
        else "fail",
        "notes": list(rep.notes),
    }


# ---------------------------------------------------------------------------
# extended plane, symbolic module model
# ---------------------------------------------------------------------------

OPS = ("w", "w*", "|N|", "N", "N*", "T", "S", "T*")


def ex3_ring():
    """Coefficient ring of the formal module model: the operator alphabet
    with its conjugation rules, as one rewrite system."""
    weights = {"N": 2, "N*": 2}
    rules = []
    # polar decomposition, normality, unitarity
    rules.append((("N",), {("w", "|N|"): ONE}))
    rules.append((("N*",), {("w*", "|N|"): ONE}))
    rules.append((("w", "w*"), {(): ONE}))
    rules.append((("w*", "w"), {(): ONE}))
    rules.append((("|N|", "w"), {("w", "|N|"): ONE}))
    rules.append((("|N|", "w*"), {("w*", "|N|"): ONE}))
    # conjugation rules for the tridiagonal coefficients
    for t, scale in (("T", _Q(1)), ("S", _Q(2)), ("T*", _Q(1))):
        rules.append(((t, "w"), {("w", t): scale}))
        rules.append(((t, "w*"), {("w*", t): scale.inverse()}))
        rules.append(((t, "|N|"), {("|N|", t): ONE}))
    star = {"w": ("w*", ONE), "w*": ("w", ONE), "|N|": ("|N|", ONE),
            "N": ("N*", ONE), "N*": ("N", ONE),
            "T": ("T*", ONE), "T*": ("T", ONE), "S": ("S", ONE)}
    return AlgebraPresentation("ext_plane_ops", OPS, rules, star=star,
                               star_mode=REAL, weights=weights)


def _lam2(n):
    """lambda_n^2 = 1 - q^(2n), the weight of a lowering move from slot n."""
    return ONE - _Q(2 * n)


class SlotOperator(LinComb):
    """Operator on the formal module: ``terms`` maps (slot n, target slot m)
    to the ring coefficient of the move n -> m.  Slots above top vanish; a
    move below slot 0 is kept, so a lowering weight that fails to vanish at
    slot 0 shows."""

    __slots__ = ("ring", "top", "terms")
    _error = HilbertError

    def __init__(self, ring, top, terms):
        self.ring = ring
        self.top = top
        self.terms = terms

    def _owner(self):
        return (self.ring, self.top)

    @classmethod
    def build(cls, ring, top, rule):
        """rule(n) -> list of (target slot, coefficient)."""
        terms = {}
        for n in range(top + 1):
            for m, c in rule(n):
                if m <= top:
                    _accum(terms, (n, m), c)
        return cls(ring, top, terms)

    @property
    def table(self):
        """Moves by source slot: {n: [(m, coefficient), ...]}."""
        rows = {}
        for (n, m), c in self.terms.items():
            rows.setdefault(n, []).append((m, c))
        return rows

    def apply(self, n):
        """Images of slot n as {target slot: coefficient}."""
        return {m: c for (k, m), c in self.terms.items() if k == n}

    def compose(self, other):
        """self after other."""
        rows = self.table
        out = {}
        for (n, m), c in other.terms.items():
            for k, c2 in rows.get(m, ()):
                _accum(out, (n, k), c2 * c)
        return SlotOperator(self.ring, self.top, out)

    __matmul__ = compose

    def entry(self, m, n):
        return self.terms.get((n, m), self.ring.zero())


class Ex3Model:
    """Formal module model of the extended plane with its tridiagonal
    symmetric operator, in the basis d_n e_n: a raising move carries no
    weight and a lowering move from slot n carries lambda_n^2."""

    def __init__(self, M, pi_variant="consistent", rows_variant="consistent"):
        self.M = M
        self.mask = M - 2
        self.pi_variant = pi_variant
        self.rows_variant = rows_variant
        # headroom: products of up to three shift-by-one operators reach
        # slots M+3 from the masked range without touching the boundary
        self.top = M + 3
        self.ring = ex3_ring()
        if rows_variant not in ("consistent", "literal"):
            raise HilbertError(f"unknown rows variant {rows_variant!r}")
        self.calc = builtin_calculus(f"ext-{rows_variant}")
        ring = self.ring
        top = self.top

        def op(*names):
            return ring.poly({tuple(names): ONE})

        N, Ns, absN = op("N"), op("N*"), op("|N|")
        raising = SlotOperator.build(ring, top, lambda n: [(n + 1, absN)])
        lowering = SlotOperator.build(ring, top,
                                   lambda n: [(n - 1, absN.scale(_lam2(n)))])
        if pi_variant == "consistent":
            # the shift directions of y and y* are swapped relative to the
            # literal reading, which violates the defining relations (see
            # the verification report)
            pi_y, pi_ys = raising, lowering
        elif pi_variant == "literal":
            pi_y, pi_ys = lowering, raising
        else:
            raise HilbertError(f"unknown pi variant {pi_variant!r}")
        self.pi = {
            "x": SlotOperator.build(ring, top,
                                    lambda n: [(n, N.scale(QScalar.q_power(n + 1)))]),
            "x*": SlotOperator.build(ring, top,
                                     lambda n: [(n, Ns.scale(QScalar.q_power(n + 1)))]),
            "y": pi_y,
            "y*": pi_ys,
        }
        T, Ss, Ts = op("T"), op("S"), op("T*")
        self.F = SlotOperator.build(ring, top, lambda n: [
            (n - 1, T.scale(_lam2(n))),
            (n, Ss),
            (n + 1, Ts),
        ])

    def pi_poly(self, p):
        out = SlotOperator(self.ring, self.top, {})
        for w, c in p.terms.items():
            out = out + self.pi_word(w).scale(c)
        return out

    def relation_report(self):
        """Exact residual of every defining relation under pi, on the masked
        slots."""
        return row_statuses(((" ".join(lhs), op, None) for lhs, _, op
                             in self.calc.pres.relation_residuals(self.pi_word)),
                            lambda op: _slot_witness(op, self.mask))

    def pi_word(self, w):
        cur = SlotOperator.build(self.ring, self.top,
                                 lambda n: [(n, self.ring.one())])
        for g in reversed(w):
            cur = self.pi[g].compose(cur)
        return cur

    def row_transport_report(self):
        """[F, pi(gamma)] pi(g) = sum c pi(h) [F, pi(gamma')], exactly on the
        masked slots, for every bimodule row."""
        rows, _ = row_transport(self.calc, self.pi_poly, self.F)
        return row_statuses(((f"{label}.{gen}", op, skip) for label, gen, op, skip in rows),
                            lambda op: _slot_witness(op, self.mask))

    def f_symmetry_report(self):
        """Formal symmetry F = F* in the basis e_n.  In the basis d_n e_n it
        reads d_m^2 F(m, n) = d_n^2 F(n, m)*, so for neighbouring slots
        lambda^2 of the larger index goes on the side whose row index is
        larger."""

        def weighted(m, n):
            entry = self.F.entry(m, n)
            return entry.scale(_lam2(m)) if m > n else entry

        return [first_failure("f_formal_symmetry", (
            (m, n) for n in range(self.mask + 1)
            for m in range(max(0, n - 1), min(self.top, n + 1) + 1)
            if weighted(m, n) != weighted(n, m).star()))]

    def boundary_report(self):
        """lambda_0^2 = 0 kills the lowering operator at slot 0."""
        lowered = self.pi["y*"].apply(0) if self.pi_variant == "consistent" \
            else self.pi["y"].apply(0)
        return [("lambda0_boundary", lowered == {}, lowered)]


def _slot_witness(op, mask):
    """The first move of ``op`` from a slot n <= mask, lowest slot first, as
    {"slot", "target", "coefficient"}; None exactly when ``op`` vanishes on
    the masked slots.  So it is the zero test and the witness in one."""
    moves = [(n, m, c) for (n, m), c in op.terms.items() if n <= mask]
    if not moves:
        return None
    n, m, c = min(moves, key=lambda move: move[0])
    return {"slot": n, "target": m, "coefficient": repr(c)}


def ex3_build(M, pi_variant="consistent", rows_variant="consistent"):
    if M < 3:
        raise HilbertError("module model needs M >= 3")
    return Ex3Model(M, pi_variant, rows_variant)


def ex3_report(model):
    relations = model.relation_report()
    rows = model.row_transport_report()
    sym = model.f_symmetry_report()
    boundary = model.boundary_report()
    ok = (all(s == "pass" for _, s, _ in relations)
          and all(s == "pass" for _, s, _ in rows)
          and all(okk for _, okk, _ in sym)
          and all(okk for _, okk, _ in boundary))
    return {
        "check": "ex3_symbolic",
        "M": model.M,
        "mask": model.mask,
        "pi_variant": model.pi_variant,
        "rows_variant": model.rows_variant,
        "relations": [(r, s) for r, s, _ in relations],
        "rows": [(r, s) for r, s, _ in rows],
        "f_symmetry": sym[0][1],
        "boundary": boundary[0][1],
        "status": "pass" if ok else "fail",
        "notes": [
            "weights lam_n adopted as (1 - q^(2n))^(1/2); lam_0 = 0",
            "coefficient ring is exact: zero means zero",
            ("pi uses the corrected shift directions for y, y*"
             if model.pi_variant == "consistent" else
             "pi uses the literal shift directions (fails the relations)"),
            ("row (dx, x*) uses the corrected coefficient q^-2 - 1"
             if model.rows_variant == "consistent" else
             "row (dx, x*) uses the literal coefficient q^2 - 1"),
        ],
    }
