"""First-order differential calculi.

Two presentations of a calculus live here: the left-covariant functional
model (basis omega_k, tangent functionals X_k, structure functionals f^k_j,
differential da = sum (X_k |> a) omega_k, one covariance verdict) and the
quantum-space model (bimodule tables for d-symbols).  Gamma elements are
always stored in left normal form: coefficients left of the basis symbols.
"""

from __future__ import annotations

from functools import cached_property

from .algebra import (LinComb, NCPoly, _accum, _concat, character_value, first_failure,
                      first_failures, nonzero_repr, row_statuses)
from .dual import BF, CHAR, DualElement, LP, SLM, multiplicative
from .exprparse import parse_scalar, scalar_to_str
from .linalg import MatrixOverAlgebra
from .presentations import builtin_presentation
from .scalars import ONE, QScalar, ZERO

_Q = QScalar.q_power


class FodcError(ValueError):
    pass


class GammaElement(LinComb):
    """Left normal form sum_k a_k . omega_k over named basis labels."""

    __slots__ = ("pres", "terms")
    _error = FodcError

    def __init__(self, pres, terms):
        self.pres = pres
        self.terms = {k: v for k, v in terms.items() if not v.is_zero()}

    @classmethod
    def zero(cls, pres):
        return cls(pres, {})

    @classmethod
    def basis(cls, pres, label):
        return cls(pres, {label: pres.one()})

    def _owner(self):
        return (self.pres,)

    def left_mul(self, a):
        """Multiply by an algebra element on the left."""
        return GammaElement(self.pres, {k: a * v for k, v in self.terms.items()})

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"({v!r}).{k}" for k, v in sorted(self.terms.items()))


# ---------------------------------------------------------------------------
# left-covariant functional model
# ---------------------------------------------------------------------------


class FodcData:
    """Basis labels, tangent functionals X and structure functionals f, kept
    as tuples, and the bordered structure matrix M = (eps X; 0 f) of
    functionals built from them: row 0 is the counit followed by X, row k+1
    the zero functional followed by f^k.  Left covariance is
    Delta(M) = M (x) M, that is M(ab) = M(a) M(b)."""

    def __init__(self, ctx, labels, X, f, star_permutation=None):
        self.ctx = ctx
        self.labels = list(labels)
        self.n = len(labels)
        self._index = {label: k for k, label in enumerate(self.labels)}
        if len(X) != self.n or len(f) != self.n or any(len(row) != self.n for row in f):
            raise FodcError("X/f tables must match the basis size")
        self.X = tuple(X)
        self.f = tuple(tuple(row) for row in f)
        self.star_permutation = star_permutation
        zero = DualElement(ctx, {})
        self.structure_matrix = ((ctx.unit(), *self.X), *((zero, *row) for row in self.f))

    @property
    def pres(self):
        return self.ctx.pres

    @cached_property
    def covariant(self):
        """The one covariance verdict: ``multiplicative`` of M, for words of
        every length; False means only that the certificate does not apply."""
        return multiplicative(self.structure_matrix)

    def differential(self, a):
        """da = sum_k (X_k |> a) omega_k."""
        coeffs = {}
        for k, label in enumerate(self.labels):
            v = self.X[k].left_act(a)
            if not v.is_zero():
                coeffs[label] = v
        return GammaElement(self.pres, coeffs)

    def right_mul(self, g, a):
        """(sum_k c_k omega_k) a = sum_{k,j} c_k (f^k_j |> a) omega_j.  The
        raw products c_k (f^k_j |> a) are gathered over all k for each label
        omega_j and brought to normal form once per label.  A label of g that
        is not a basis label raises FodcError."""
        raw = [{} for _ in self.labels]
        for label, c in g.terms.items():
            k = self._index.get(label)
            if k is None:
                raise FodcError(f"{label!r} is not a basis label of the calculus")
            for f, out in zip(self.f[k], raw):
                _concat(out, c.terms, f.left_act(a).terms)
        nf = self.pres.normal_form_terms
        return GammaElement(self.pres, {label: NCPoly(self.pres, nf(out))
                                        for label, out in zip(self.labels, raw) if out})


def fodc_validate(F, degree=3):
    """Checks of the structure matrix M (``FodcData``): boundary
    values M(1) = 1 and left covariance M(ab) = M(a) M(b) on the columns
    1..n, where row 0 is the tangent coproduct identity
    <X_k, ab> = eps(a)<X_k, b> + sum_j <X_j, a><f^j_k, b> and rows 1..n the
    comultiplicativity of the f-table; plus star-invariance of the tangent
    span for *-calculi (``DualElement.ext_equal``).  Column 0 of
    M(ab) = M(a) M(b) is the multiplicativity of the counit, a Hopf axiom.

    Covariance is certificate first, corpus search on refusal: when the
    verdict ``F.covariant`` certifies M for words of every length, no corpus
    pair can fail.  Otherwise each entry of M is evaluated once per normal
    word w, M(ab) is read off the M(w) of the words of the normal form of
    ab, and the first failing pair is the witness."""
    ctx = F.ctx
    pres = F.pres
    words = ctx.corpus(degree)
    M = F.structure_matrix
    size = F.n + 1

    values = {}

    def m_at(w):
        """M(w) for a normal word w, evaluated once per word."""
        mw = values.get(w)
        if mw is None:
            mw = values[w] = [[m.evaluate(w) for m in row] for row in M]
        return mw

    def unit_values():
        m1 = m_at(())
        for j in range(size):
            for k in range(1, size):
                if m1[j][k] != (ONE if j == k else ZERO):
                    yield ("X_at_1", k - 1) if j == 0 else ("f_at_1", j - 1, k - 1)

    def covariance():
        for wa in words:
            ma = m_at(wa)
            for wb in words:
                mb = m_at(wb)
                # M(ab) = sum_w c_w M(w) over the normal form of ab
                ab = [(c, m_at(w)) for w, c in pres.normal_form_word(wa + wb).items()]
                for j in range(size):
                    for k in range(1, size):
                        rhs = sum((ma[j][l] * mb[l][k] for l in range(size)), ZERO)
                        lhs = sum((c * mw[j][k] for c, mw in ab), ZERO)
                        if lhs == rhs:
                            continue
                        if j == 0:
                            yield 0, ("tangent_coproduct", k - 1, wa, wb)
                        else:
                            yield 1, ("f_comultiplicative", j - 1, k - 1, wa, wb)

    def tangent_star():
        for k, k_star in enumerate(F.star_permutation):
            if not F.X[k].star().ext_equal(F.X[k_star], degree):
                yield ("tangent_star", k)

    checks = [first_failure("unit_values", unit_values()),
              *first_failures(["tangent_coproduct", "f_comultiplicative"],
                              () if F.covariant else covariance())]
    if F.star_permutation is not None:
        checks.append(first_failure("tangent_star_invariance", tangent_star()))
    return checks


# ---------------------------------------------------------------------------
# bicovariant builder
# ---------------------------------------------------------------------------


class BicovariantOutput:
    def __init__(self, ctx, zeta_name, fodc, C, Omega, A, TrA):
        self.ctx = ctx
        self.zeta_name = zeta_name
        self.fodc = fodc
        self.C = C
        self.Omega = Omega  # same flattened order as fodc.labels
        self.A = A          # n x n matrix of QScalar
        self.TrA = TrA

    @property
    def labels(self):
        return self.fodc.labels

    def theta(self):
        """The biinvariant element: unit coefficient at each diagonal label."""
        pres = self.ctx.pres
        coeffs = {}
        for k in range(1, self.ctx.n + 1):
            coeffs[f"theta{k}{k}"] = pres.one()
        return GammaElement(pres, coeffs)


def bicovariant_build(ctx, zeta_name="eps"):
    """Construct the bicovariant calculus attached to the matrix
    corepresentation and a character.  The f-table fixes the calculus, and
    every other table is a sum over it:

        f^{kj}_{st} = zeta S(l^-s_k) l^+j_t        (structure functionals)
        X_kj = sum_t f^{tt}_{kj} - delta_kj eps     (tangent functionals)
        A^j_k = sum_s r(S^2(v^j_s) (x) v^s_k)       (twist matrix)
        C = sum_{k,j} X_kj A^j_k                    (central candidate)
        Omega_kj = sum_{s,t} f^{kj}_{st} A^t_s

    The calculus is validated on the degree-2 corpus; zeta was checked on entry.
    """
    n = ctx.n
    pres = ctx.pres
    H = ctx.hopf
    zeta = BF(CHAR, name=zeta_name)
    flat = [(k, j) for k in range(1, n + 1) for j in range(1, n + 1)]
    labels = [f"theta{k}{j}" for k, j in flat]
    zero = DualElement(ctx, {})

    # f[kj][st] = f^{kj}_{st}, rows and columns in the order of flat
    f = [[DualElement(ctx, {ctx.canonical_word((zeta, BF(SLM, s, k), BF(LP, j, t))): ONE})
          for (s, t) in flat] for (k, j) in flat]

    diagonal = [flat.index((t, t)) for t in range(1, n + 1)]
    X = []
    for col, (k, j) in enumerate(flat):
        x = sum((f[d][col] for d in diagonal), zero)
        X.append(x - ctx.unit() if k == j else x)

    # A^j_k by evaluating the r-form on squared-antipode generators
    s2 = {g: H.antipode(H.antipode(pres.gen(g))) for g in ctx.gen_index}
    A = MatrixOverAlgebra.from_index(n, 1, lambda j, k: sum(
        (ctx.eval_letter_poly(BF(LP, s, k), s2[f"v{j}{s}"]) for s in range(1, n + 1)),
        ZERO)).entries
    TrA = sum((A[k][k] for k in range(n)), ZERO)

    C = sum((x.scale(A[j - 1][k - 1]) for x, (k, j) in zip(X, flat)), zero)
    Omega = [sum((row[col].scale(A[t - 1][s - 1]) for col, (s, t) in enumerate(flat)), zero)
             for row in f]

    fodc = FodcData(ctx, labels, X, f, star_permutation=_star_permutation(ctx, zeta_name))
    report = fodc_validate(fodc, degree=2)
    failed = [name for name, ok, _ in report if not ok]
    if failed:
        raise FodcError(f"bicovariant build fails validation: {failed}")
    return BicovariantOutput(ctx, zeta_name, fodc, C, Omega, A, TrA)


def _star_permutation(ctx, zeta_name):
    """The tangent star permutation of the calculus of zeta, X_kj* = X_jk as
    positions in the labels theta_kj, when zeta is hermitean; else None."""
    vals = ctx.character_values(zeta_name)
    pres = ctx.pres
    # zeta(g*) must equal conj(zeta(g))
    if not all(character_value(vals, pres.star_word((g,))) == pres.conj(vals[g])
               for g in pres.generators):
        return None
    n = ctx.n
    return [(j - 1) * n + k - 1 for k in range(1, n + 1) for j in range(1, n + 1)]


# ---------------------------------------------------------------------------
# quantum-space calculi (explicit bimodule tables)
# ---------------------------------------------------------------------------


class QuantumSpaceCalculus:
    """Bimodule relation table (d-symbol, generator) -> Gamma element, plus
    the differential images of the generators."""

    def __init__(self, name, pres, labels, dmap, rows, label_star=None):
        self.name = name
        self.pres = pres
        self.labels = list(labels)
        self.dmap = dict(dmap)        # generator -> GammaElement
        self.rows = dict(rows)        # (label, generator) -> GammaElement
        self.label_star = label_star  # label -> label, or None

    def right_mul_word(self, g, word):
        cur = g
        for gen in word:
            out = {}
            for label, c in cur.terms.items():
                row = self.rows.get((label, gen))
                if row is None:
                    raise FodcError(
                        f"calculus {self.name!r} has no row for ({label}, {gen})")
                for lab2, h in row.terms.items():
                    _accum(out, lab2, c * h)
            cur = GammaElement(self.pres, out)
        return cur

    def right_mul_poly(self, g, a):
        total = GammaElement.zero(self.pres)
        for w, c in a.terms.items():
            total = total + self.right_mul_word(g, w).scale(c)
        return total

    def differential_word(self, w):
        """Leibniz expansion of a raw (not necessarily normal) word:
        d(g1...gd) = sum_i g1..g_{i-1} d(g_i) g_{i+1}..gd."""
        pres = self.pres
        total = GammaElement.zero(pres)
        for i, gen in enumerate(w):
            dg = self.dmap.get(gen)
            if dg is None:
                raise FodcError(
                    f"calculus {self.name!r} has no differential for {gen!r}")
            piece = self.right_mul_word(dg, w[i + 1:])
            prefix = NCPoly(pres, pres.normal_form_word(w[:i]))
            total = total + piece.left_mul(prefix)
        return total

    def gamma_star(self, g):
        """(sum a_k omega_k)* = sum omega_k* a_k*, re-expressed in left form."""
        if self.label_star is None:
            raise FodcError(f"calculus {self.name!r} carries no star data")
        total = GammaElement.zero(self.pres)
        for label, c in g.terms.items():
            unit = GammaElement.basis(self.pres, self.label_star[label])
            total = total + self.right_mul_poly(unit, c.star())
        return total


def calculus_consistency_report(calc):
    """d(lhs) = d(rhs) for every defining relation whose generators have
    declared differentials.  The left side is differentiated as written
    (before any rewriting), so the check genuinely constrains the table."""

    def image(w):
        return calc.differential_word(w) if calc.dmap.keys() >= set(w) else None

    return row_statuses(
        ((" ".join(lhs), res, "no differential images" if res is None else None)
         for lhs, _, res in calc.pres.relation_residuals(image)),
        nonzero_repr)


def star_row_closure_report(calc):
    """Starring a row (omega g = sum c h omega') gives g* omega* =
    sum conj(c) omega'* h*; both sides are brought to left normal form and
    compared."""
    if calc.label_star is None:
        return row_statuses([("all", None, "calculus carries no star data")], nonzero_repr)
    pres = calc.pres

    def residual(label, gen, row):
        lhs = GammaElement.basis(pres, calc.label_star[label]).left_mul(pres.gen(gen).star())
        return lhs - calc.gamma_star(row)

    return row_statuses(
        ((f"{label}.{gen}", residual(label, gen, row), None)
         for (label, gen), row in sorted(calc.rows.items())),
        nonzero_repr)


# ---------------------------------------------------------------------------
# builtin quantum-space calculi
# ---------------------------------------------------------------------------


def _gamma(pres, pairs):
    out = {}
    for label, terms in pairs.items():
        out[label] = pres.poly(terms)
    return GammaElement(pres, out)


def disc_calculus():
    pres = builtin_presentation("disc")
    rows = {
        ("dz", "z"): _gamma(pres, {"dz": {("z",): _Q(2)}}),
        ("dz", "z*"): _gamma(pres, {"dz": {("z*",): _Q(-2)}}),
        ("dz*", "z"): _gamma(pres, {"dz*": {("z",): _Q(2)}}),
        ("dz*", "z*"): _gamma(pres, {"dz*": {("z*",): _Q(-2)}}),
    }
    dmap = {
        "z": GammaElement(pres, {"dz": pres.one()}),
        "z*": GammaElement(pres, {"dz*": pres.one()}),
    }
    return QuantumSpaceCalculus(
        "disc", pres, ["dz", "dz*"], dmap, rows,
        label_star={"dz": "dz*", "dz*": "dz"})


def _plane_xy(pres):
    """The rows (dx|dy, x|y) and the differentials d x = dx, d y = dy that
    the real and the extended plane share, in the pw-a reading of the mixed
    relation: the correction term sits on (dx, y)."""
    rows = {
        ("dx", "x"): _gamma(pres, {"dx": {("x",): _Q(2)}}),
        ("dx", "y"): _gamma(pres, {"dx": {("y",): _Q(1)},
                                   "dy": {("x",): _Q(2) - ONE}}),
        ("dy", "x"): _gamma(pres, {"dy": {("x",): _Q(1)}}),
        ("dy", "y"): _gamma(pres, {"dy": {("y",): _Q(2)}}),
    }
    dmap = {
        "x": GammaElement(pres, {"dx": pres.one()}),
        "y": GammaElement(pres, {"dy": pres.one()}),
    }
    return rows, dmap


def plane_calculus(variant="pw-a"):
    """The two coherent readings of the duplicated mixed relation: pw-a keeps
    the correction term on (dx, y), pw-b moves it to (dy, x).  Exactly one of
    them satisfies d(relations) = 0."""
    pres = builtin_presentation("real_plane")
    rows, dmap = _plane_xy(pres)
    if variant == "pw-a":
        rows[("dx", "yinv")] = _gamma(pres, {"dx": {("yinv",): _Q(-1)},
                                             "dy": {("x", "yinv", "yinv"): _Q(-2) - ONE}})
    elif variant == "pw-b":
        rows[("dx", "y")] = _gamma(pres, {"dx": {("y",): _Q(1)}})
        rows[("dy", "x")] = _gamma(pres, {"dy": {("x",): _Q(1)},
                                          "dx": {("y",): _Q(2) - ONE}})
        rows[("dx", "yinv")] = _gamma(pres, {"dx": {("yinv",): _Q(-1)}})
    else:
        raise FodcError(f"unknown plane calculus variant {variant!r}")
    rows[("dy", "yinv")] = _gamma(pres, {"dy": {("yinv",): _Q(-2)}})
    dmap["yinv"] = _gamma(pres, {"dy": {("yinv", "yinv"): -_Q(-2)}})
    return QuantumSpaceCalculus(
        f"real_plane[{variant}]", pres, ["dx", "dy"], dmap, rows,
        label_star={"dx": "dx", "dy": "dy"})


def ext_plane_calculus(variant="consistent"):
    """Extended plane calculus over basis {dx, dy}; rows for all four
    right multipliers.  The 'literal' variant keeps the stated correction
    coefficient (q^2 - 1) on (dx, x*); the 'consistent' variant uses
    (q^-2 - 1), the unique value compatible with the operator model.
    Differential images exist only for x and y, so d(r) checks are partial.
    """
    pres = builtin_presentation("ext_plane")
    if variant == "consistent":
        kappa = _Q(-2) - ONE
    elif variant == "literal":
        kappa = _Q(2) - ONE
    else:
        raise FodcError(f"unknown ext_plane calculus variant {variant!r}")
    rows, dmap = _plane_xy(pres)
    rows.update({
        ("dx", "x*"): _gamma(pres, {"dx": {("x*",): _Q(-2)},
                                    "dy": {("y*",): kappa}}),
        ("dx", "y*"): _gamma(pres, {"dx": {("y*",): _Q(-1)}}),
        ("dy", "x*"): _gamma(pres, {"dy": {("x*",): _Q(-1)}}),
        ("dy", "y*"): _gamma(pres, {"dy": {("y*",): _Q(-2)}}),
    })
    return QuantumSpaceCalculus(f"ext_plane[{variant}]", pres, ["dx", "dy"], dmap, rows)


_BUILTIN_CALCULI = {
    "disc": disc_calculus,
    "pw-a": lambda: plane_calculus("pw-a"),
    "pw-b": lambda: plane_calculus("pw-b"),
    "ext-consistent": lambda: ext_plane_calculus("consistent"),
    "ext-literal": lambda: ext_plane_calculus("literal"),
}


def builtin_calculus(name):
    if name not in _BUILTIN_CALCULI:
        raise FodcError(f"unknown builtin calculus {name!r}")
    return _BUILTIN_CALCULI[name]()


# ---------------------------------------------------------------------------
# structured-text interface
# ---------------------------------------------------------------------------

def _letters_to_doc(word):
    out = []
    for bf in word:
        if bf.kind == CHAR:
            out.append({"kind": "CHAR", "name": bf.name})
        else:
            out.append({"kind": bf.kind, "i": bf.i, "j": bf.j})
    return out


def _letters_from_doc(items):
    out = []
    for item in items:
        if item["kind"] == "CHAR":
            out.append(BF(CHAR, name=item["name"]))
        else:
            out.append(BF(item["kind"], item["i"], item["j"]))
    return tuple(out)


def dual_element_to_doc(f):
    return [
        {"coeff": scalar_to_str(c), "word": _letters_to_doc(w)}
        for w, c in sorted(f.terms.items(), key=lambda kv: (len(kv[0]), repr(kv[0])))
    ]


def dual_element_from_doc(ctx, items):
    terms = {}
    for item in items:
        _accum(terms, ctx.canonical_word(_letters_from_doc(item["word"])),
               parse_scalar(item["coeff"]))
    return DualElement(ctx, terms)


def bicovariant_to_doc(B):
    n = B.ctx.n
    return {
        "kind": "bicovariant",
        "zeta": B.zeta_name,
        "labels": list(B.labels),
        "X": [dual_element_to_doc(x) for x in B.fodc.X],
        "f": [[dual_element_to_doc(e) for e in row] for row in B.fodc.f],
        "Omega": [dual_element_to_doc(o) for o in B.Omega],
        "A": [[scalar_to_str(B.A[j][k]) for k in range(n)] for j in range(n)],
        "TrA": scalar_to_str(B.TrA),
        "C": dual_element_to_doc(B.C),
    }


def fodc_from_doc(ctx, doc):
    """Rebuild the functional model of a serialized bicovariant calculus,
    with the star permutation of its character ``zeta``; validated by the
    caller before use."""
    labels = list(doc["labels"])
    X = [dual_element_from_doc(ctx, item) for item in doc["X"]]
    f = [[dual_element_from_doc(ctx, e) for e in row] for row in doc["f"]]
    return FodcData(ctx, labels, X, f, star_permutation=_star_permutation(ctx, doc["zeta"]))

