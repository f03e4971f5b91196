"""First-order differential calculi.

Two presentations of a calculus live here: the left-covariant functional
model (basis omega_k, tangent functionals X_k, structure functionals f^k_j,
differential da = sum (X_k |> a) omega_k) and the quantum-space model (an
explicit bimodule relation table for d-symbols).  Gamma elements are always
stored in left normal form: coefficients to the left of the basis symbols.
"""

from __future__ import annotations

from .algebra import LinComb, NCPoly, _accum, first_failure, first_failures
from .dual import BF, CHAR, DualElement, LP, SLM
from .exprparse import base_env, parse_scalar, scalar_to_str, terms_from_doc, terms_to_doc
from .presentations import builtin_presentation
from .scalars import ONE, QScalar, ZERO

_Q = QScalar.q_power


class FodcError(ValueError):
    pass


class GammaElement(LinComb):
    """Left normal form sum_k a_k . omega_k over named basis labels."""

    __slots__ = ("pres", "terms")

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

    def _same(self, other):
        if self.pres is not other.pres:
            raise FodcError("calculus elements from different presentations")

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
    """Basis labels, tangent functionals X and structure functionals f."""

    def __init__(self, ctx, labels, X, f, star_permutation=None):
        self.ctx = ctx
        self.labels = list(labels)
        self.n = len(labels)
        if len(X) != self.n or len(f) != self.n or any(len(row) != self.n for row in f):
            raise FodcError("X/f tables must match the basis size")
        self.X = list(X)
        self.f = [list(row) for row in f]
        self.star_permutation = star_permutation

    @property
    def pres(self):
        return self.ctx.pres

    def structure_matrix(self):
        """The bordered matrix M = (eps X; 0 f) of functionals: row 0 is the
        counit followed by X, row k+1 the zero functional followed by f^k.
        Left covariance is Delta(M) = M (x) M, that is M(ab) = M(a) M(b)."""
        zero = DualElement(self.ctx, {})
        return [[self.ctx.unit(), *self.X]] + [[zero, *row] for row in self.f]

    def differential(self, a):
        """da = sum_k (X_k |> a) omega_k."""
        coeffs = {}
        for k, label in enumerate(self.labels):
            v = self.X[k].left_act(a)
            if not v.is_zero():
                coeffs[label] = v
        return GammaElement(self.pres, coeffs)

    def right_mul(self, g, a):
        """(sum_k c_k omega_k) a = sum_{k,j} c_k (f^k_j |> a) omega_j."""
        out = {}
        for k, label in enumerate(self.labels):
            c = g.terms.get(label)
            if c is None:
                continue
            for j, label_j in enumerate(self.labels):
                acted = self.f[k][j].left_act(a)
                if acted.is_zero():
                    continue
                _accum(out, label_j, c * acted)
        return GammaElement(self.pres, out)


def fodc_validate(F, degree=3):
    """Corpus checks of the structure matrix M (``structure_matrix``):
    boundary values M(1) = 1 and left covariance M(ab) = M(a) M(b) on the
    columns 1..n, where row 0 is the tangent coproduct identity
    <X_k, ab> = eps(a)<X_k, b> + sum_j <X_j, a><f^j_k, b> and rows 1..n the
    comultiplicativity of the f-table; plus star-invariance of the tangent
    span for *-calculi.  Column 0 of M(ab) = M(a) M(b) is the
    multiplicativity of the counit, a Hopf axiom."""
    ctx = F.ctx
    pres = F.pres
    words = ctx.corpus(degree)
    M = F.structure_matrix()
    size = F.n + 1

    def unit_values():
        for j, row in enumerate(M):
            for k in range(1, size):
                if row[k].evaluate(pres.one()) != (ONE if j == k else ZERO):
                    yield ("X_at_1", k - 1) if j == 0 else ("f_at_1", j - 1, k - 1)

    def covariance():
        values = {w: [[m.evaluate(w) for m in row] for row in M] for w in words}
        for wa in words:
            a = NCPoly(pres, {wa: ONE})
            ma = values[wa]
            for wb in words:
                mb = values[wb]
                ab = a * NCPoly(pres, {wb: ONE})
                for j, row in enumerate(M):
                    for k in range(1, size):
                        rhs = ZERO
                        for l in range(size):
                            if not ma[j][l].is_zero():
                                rhs = rhs + ma[j][l] * mb[l][k]
                        if row[k].evaluate(ab) == rhs:
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
              *first_failures(["tangent_coproduct", "f_comultiplicative"], covariance())]
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
        n = int(len(self.labels) ** 0.5)
        for k in range(1, n + 1):
            coeffs[f"theta{k}{k}"] = pres.one()
        return GammaElement(pres, coeffs)


def bicovariant_build(ctx, zeta_name="eps", validate_degree=2):
    """Construct the bicovariant calculus attached to the matrix
    corepresentation and a character:

        f^{kj}_{st} = zeta S(l^-s_k) l^+j_t        (structure functionals)
        X_kj = zeta l^k_j - delta_kj eps            (tangent functionals)
        A^j_k = sum_s r(S^2(v^j_s) (x) v^s_k)       (twist matrix)
        C = sum_{k,j} X_kj A^j_k                    (central candidate)
        Omega_kj = sum_{s,t} zeta S(l^-s_k) l^+j_t A^t_s
    """
    ctx.validate_character(zeta_name)
    n = ctx.n
    pres = ctx.pres
    H = ctx.hopf
    zeta = BF(CHAR, name=zeta_name)

    def fodc_word(s, k, j, t):
        return ctx.canonical_word((zeta, BF(SLM, s, k), BF(LP, j, t)))

    labels = [f"theta{k}{j}" for k in range(1, n + 1) for j in range(1, n + 1)]
    flat = [(k, j) for k in range(1, n + 1) for j in range(1, n + 1)]

    X = []
    for (k, j) in flat:
        terms = {}
        for t in range(1, n + 1):
            _accum(terms, fodc_word(k, t, t, j), ONE)
        if k == j:
            _accum(terms, (), -ONE)
        X.append(DualElement(ctx, terms))

    f = []
    for (k, j) in flat:
        row = []
        for (s, t) in flat:
            row.append(DualElement(ctx, {fodc_word(s, k, j, t): ONE}))
        f.append(row)

    # A^j_k by evaluating the r-form on squared-antipode generators
    A = []
    for j in range(1, n + 1):
        row = []
        for k in range(1, n + 1):
            acc = ZERO
            for s in range(1, n + 1):
                g = pres.gen(f"v{j}{s}")
                s2 = H.antipode(H.antipode(g))
                acc = acc + ctx.eval_letter_poly(BF(LP, s, k), s2)
            row.append(acc)
        A.append(row)
    TrA = ZERO
    for k in range(n):
        TrA = TrA + A[k][k]

    C = DualElement(ctx, {})
    for idx, (k, j) in enumerate(flat):
        C = C + X[idx].scale(A[j - 1][k - 1])

    Omega = []
    for (k, j) in flat:
        terms = {}
        for s in range(1, n + 1):
            for t in range(1, n + 1):
                _accum(terms, fodc_word(s, k, j, t), A[t - 1][s - 1])
        Omega.append(DualElement(ctx, terms))

    # the tangent star permutation: X_kj* = X_jk when zeta is hermitean
    perm = None
    if _character_hermitean(ctx, zeta_name):
        perm = [flat.index((j, k)) for (k, j) in flat]

    fodc = FodcData(ctx, labels, X, f, star_permutation=perm)
    report = fodc_validate(fodc, degree=validate_degree)
    failed = [name for name, ok, _ in report if not ok]
    if failed:
        raise FodcError(f"bicovariant build fails validation: {failed}")
    return BicovariantOutput(ctx, zeta_name, fodc, C, Omega, A, TrA)


def _character_hermitean(ctx, name):
    vals = ctx.character_values(name)
    mode = ctx.pres.star_mode
    for g in ctx.pres.generators:
        h, c = ctx.pres.star[g]
        # zeta(g*) must equal conj(zeta(g))
        if vals[h] * c != vals[g].star(mode):
            return False
    return True


def differential_via_theta(B, a):
    """da = theta a - a theta, expanded through the bimodule table."""
    theta = B.theta()
    left = B.fodc.right_mul(theta, a)
    right = theta.left_mul(a)
    return left - right


# ---------------------------------------------------------------------------
# quantum-space calculi (explicit bimodule tables)
# ---------------------------------------------------------------------------


class QuantumSpaceCalculus:
    """Bimodule relation table (d-symbol, generator) -> Gamma element, plus
    the differential images of the generators."""

    def __init__(self, name, pres, labels, dmap, rows, label_star=None,
                 variant=None, notes=()):
        self.name = name
        self.pres = pres
        self.labels = list(labels)
        self.dmap = dict(dmap)        # generator -> GammaElement
        self.rows = dict(rows)        # (label, generator) -> GammaElement
        self.label_star = label_star  # label -> label, or None
        self.variant = variant
        self.notes = tuple(notes)

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

    def differential(self, a):
        total = GammaElement.zero(self.pres)
        for w, c in a.terms.items():
            total = total + self.differential_word(w).scale(c)
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
    pres = calc.pres
    results = []
    for lhs, rhs in pres.rules:
        gens = set(lhs) | {g for w in rhs for g in w}
        if not gens.issubset(calc.dmap.keys()):
            results.append((" ".join(lhs), "skipped", "no differential images"))
            continue
        image = calc.differential_word(lhs)
        for w, c in rhs.items():
            image = image - calc.differential_word(w).scale(c)
        results.append((" ".join(lhs), "pass" if image.is_zero() else "fail",
                        None if image.is_zero() else repr(image)))
    return results


def star_row_closure_report(calc):
    """Starring a row (omega g = sum c h omega') gives g* omega* =
    sum conj(c) omega'* h*; both sides are brought to left normal form and
    compared."""
    if calc.label_star is None:
        return [("all", "skipped", "calculus carries no star data")]
    pres = calc.pres
    results = []
    for (label, gen), row in sorted(calc.rows.items()):
        gstar = pres.gen(gen).star()
        lhs = GammaElement.basis(pres, calc.label_star[label]).left_mul(gstar)
        rhs = calc.gamma_star(row)
        ok = lhs == rhs
        results.append((f"{label}.{gen}", "pass" if ok else "fail",
                        None if ok else repr(lhs - rhs)))
    return results


# ---------------------------------------------------------------------------
# builtin quantum-space calculi
# ---------------------------------------------------------------------------


def _gamma(pres, pairs):
    out = {}
    for label, terms in pairs.items():
        out[label] = pres.poly(terms)
    return GammaElement(pres, out)


def disc_calculus(gamma=ONE):
    pres = builtin_presentation("disc", {"gamma": gamma})
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


def plane_calculus(variant="pw-a"):
    """The two coherent readings of the duplicated mixed relation: pw-a keeps
    the correction term on (y, dx), pw-b moves it to (x, dy).  Exactly one of
    them satisfies d(relations) = 0."""
    pres = builtin_presentation("real_plane")
    if variant == "pw-a":
        rows = {
            ("dx", "x"): _gamma(pres, {"dx": {("x",): _Q(2)}}),
            ("dx", "y"): _gamma(pres, {"dx": {("y",): _Q(1)},
                                       "dy": {("x",): _Q(2) - ONE}}),
            ("dy", "x"): _gamma(pres, {"dy": {("x",): _Q(1)}}),
            ("dy", "y"): _gamma(pres, {"dy": {("y",): _Q(2)}}),
            ("dx", "yinv"): _gamma(pres, {"dx": {("yinv",): _Q(-1)},
                                          "dy": {("x", "yinv", "yinv"): _Q(-2) - ONE}}),
            ("dy", "yinv"): _gamma(pres, {"dy": {("yinv",): _Q(-2)}}),
        }
    elif variant == "pw-b":
        rows = {
            ("dx", "x"): _gamma(pres, {"dx": {("x",): _Q(2)}}),
            ("dx", "y"): _gamma(pres, {"dx": {("y",): _Q(1)}}),
            ("dy", "x"): _gamma(pres, {"dy": {("x",): _Q(1)},
                                       "dx": {("y",): _Q(2) - ONE}}),
            ("dy", "y"): _gamma(pres, {"dy": {("y",): _Q(2)}}),
            ("dx", "yinv"): _gamma(pres, {"dx": {("yinv",): _Q(-1)}}),
            ("dy", "yinv"): _gamma(pres, {"dy": {("yinv",): _Q(-2)}}),
        }
    else:
        raise FodcError(f"unknown plane calculus variant {variant!r}")
    dmap = {
        "x": GammaElement(pres, {"dx": pres.one()}),
        "y": GammaElement(pres, {"dy": pres.one()}),
        "yinv": _gamma(pres, {"dy": {("yinv", "yinv"): -_Q(-2)}}),
    }
    return QuantumSpaceCalculus(
        f"real_plane[{variant}]", pres, ["dx", "dy"], dmap, rows,
        label_star={"dx": "dx", "dy": "dy"}, variant=variant)


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
    rows = {
        ("dx", "x"): _gamma(pres, {"dx": {("x",): _Q(2)}}),
        ("dx", "y"): _gamma(pres, {"dx": {("y",): _Q(1)},
                                   "dy": {("x",): _Q(2) - ONE}}),
        ("dy", "y"): _gamma(pres, {"dy": {("y",): _Q(2)}}),
        ("dy", "x"): _gamma(pres, {"dy": {("x",): _Q(1)}}),
        ("dx", "x*"): _gamma(pres, {"dx": {("x*",): _Q(-2)},
                                    "dy": {("y*",): kappa}}),
        ("dx", "y*"): _gamma(pres, {"dx": {("y*",): _Q(-1)}}),
        ("dy", "x*"): _gamma(pres, {"dy": {("x*",): _Q(-1)}}),
        ("dy", "y*"): _gamma(pres, {"dy": {("y*",): _Q(-2)}}),
    }
    dmap = {
        "x": GammaElement(pres, {"dx": pres.one()}),
        "y": GammaElement(pres, {"dy": pres.one()}),
    }
    notes = ("differential images for starred generators are not part of the "
             "source data; consistency checks are limited to the x,y subalgebra",)
    return QuantumSpaceCalculus(
        f"ext_plane[{variant}]", pres, ["dx", "dy"], dmap, rows,
        label_star=None, variant=variant, notes=notes)


_BUILTIN_CALCULI = {
    "disc": lambda params: disc_calculus((params or {}).get("gamma", ONE)),
    "pw-a": lambda params: plane_calculus("pw-a"),
    "pw-b": lambda params: plane_calculus("pw-b"),
    "ext-consistent": lambda params: ext_plane_calculus("consistent"),
    "ext-literal": lambda params: ext_plane_calculus("literal"),
}


def builtin_calculus(name, params=None):
    if name not in _BUILTIN_CALCULI:
        raise FodcError(f"unknown builtin calculus {name!r}")
    return _BUILTIN_CALCULI[name](params)


# ---------------------------------------------------------------------------
# structured-text interface
# ---------------------------------------------------------------------------

_LETTER_KINDS = {"LP": LP, "SLM": SLM, "CHAR": CHAR}


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
    env = base_env()
    terms = {}
    for item in items:
        _accum(terms, ctx.canonical_word(_letters_from_doc(item["word"])),
               parse_scalar(item["coeff"], env))
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


def quantum_space_to_doc(calc):
    def gamma_doc(g):
        return [
            {"label": label, "coeff": terms_to_doc(poly.sorted_terms())}
            for label, poly in sorted(g.terms.items())
        ]

    return {
        "kind": "quantum_space",
        "name": calc.name,
        "labels": calc.labels,
        "d": {g: gamma_doc(v) for g, v in sorted(calc.dmap.items())},
        "rows": [
            {"label": label, "gen": gen, "value": gamma_doc(v)}
            for (label, gen), v in sorted(calc.rows.items())
        ],
        "label_star": calc.label_star,
        "variant": calc.variant,
    }


def fodc_from_doc(ctx, doc):
    """Rebuild the functional model of a serialized bicovariant calculus;
    validated by the caller before use."""
    labels = list(doc["labels"])
    X = [dual_element_from_doc(ctx, item) for item in doc["X"]]
    f = [[dual_element_from_doc(ctx, e) for e in row] for row in doc["f"]]
    return FodcData(ctx, labels, X, f)


def quantum_space_from_doc(doc, pres):
    env = base_env({k: v for k, v in pres.params.items()})

    def gamma_from(items):
        return GammaElement(pres, {item["label"]: pres.poly(terms_from_doc(item["coeff"], env))
                                   for item in items})

    dmap = {g: gamma_from(v) for g, v in doc["d"].items()}
    rows = {(r["label"], r["gen"]): gamma_from(r["value"]) for r in doc["rows"]}
    return QuantumSpaceCalculus(
        doc.get("name", "loaded"), pres, doc["labels"], dmap, rows,
        label_star=doc.get("label_star"), variant=doc.get("variant"))
