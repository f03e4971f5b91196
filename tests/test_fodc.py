"""Left-covariant calculus validation, the bicovariant builder, and the
quantum-space bimodule tables with their consistency checks."""

import random

import pytest

from ncgv.algebra import AlgebraPresentation, NCPoly, random_poly
from ncgv.dual import BF, CHAR, DualElement, SLM, make_slq2_context
from ncgv.fodc import (BicovariantOutput, FodcData, FodcError, GammaElement,
                       QuantumSpaceCalculus, bicovariant_build, builtin_calculus,
                       calculus_consistency_report, fodc_validate, star_row_closure_report,
                       bicovariant_to_doc, dual_element_from_doc)
from ncgv.scalars import ONE, QScalar, ZERO

qp = QScalar.q_power
sp = QScalar.s_power


@pytest.fixture(scope="module")
def ctx():
    return make_slq2_context()


@pytest.fixture(scope="module")
def B(ctx):
    return bicovariant_build(ctx, "eps")


def test_build_shape(B):
    assert len(B.labels) == 4
    assert B.labels == ["theta11", "theta12", "theta21", "theta22"]
    assert len(B.fodc.X) == 4 and len(B.fodc.f) == 4


def test_twist_matrix_frozen(B):
    # hand-evaluated through the antipode and R tables: A = diag(s, s^5)
    assert B.A[0][0] == sp(1)
    assert B.A[1][1] == sp(5)
    assert B.A[0][1] == ZERO and B.A[1][0] == ZERO
    assert B.TrA == sp(1) + sp(5)


def test_tangent_vanishes_at_one(B, ctx):
    for x in B.fodc.X:
        assert x.evaluate(ctx.pres.one()) == ZERO


def test_fodc_validate_degree3(B):
    report = fodc_validate(B.fodc, degree=3)
    assert all(ok for _, ok, _ in report), report


def test_validation_catches_group_like_tangent(B, ctx):
    # replacing X_1 by a group-like character breaks the tangent identity
    zeta = DualElement(ctx, {(BF(CHAR, name="zeta_q"),): ONE})
    X = [zeta] + list(B.fodc.X[1:])
    broken = FodcData(ctx, B.labels, X, B.fodc.f)
    report = dict((name, (ok, wit)) for name, ok, wit in fodc_validate(broken, 2))
    ok, witness = report["tangent_coproduct"]
    assert not ok and witness is not None


def test_structure_matrix_is_bordered(B, ctx):
    M = B.fodc.structure_matrix
    assert len(M) == 5 and all(len(row) == 5 for row in M)
    assert M[0] == (ctx.unit(), *B.fodc.X)
    for k in range(4):
        assert not M[k + 1][0].terms
        assert M[k + 1][1:] == B.fodc.f[k]


def test_tangent_failures_stay_in_row_0(B, ctx):
    # a group-like X_1 breaks row 0 of M(ab) = M(a) M(b) and no other row
    zeta = DualElement(ctx, {(BF(CHAR, name="zeta_q"),): ONE})
    broken = FodcData(ctx, B.labels, [zeta] + list(B.fodc.X[1:]), B.fodc.f)
    report = {name: (ok, wit) for name, ok, wit in fodc_validate(broken, 2)}
    assert report["unit_values"] == (False, ("X_at_1", 0))
    assert report["tangent_coproduct"] == (False, ("tangent_coproduct", 0, (), ()))
    assert report["f_comultiplicative"] == (True, None)


def test_corrupted_structure_functional_fails_comultiplicativity(B, ctx):
    f = [list(row) for row in B.fodc.f]
    f[0][1] = f[0][1].scale(QScalar.from_int(2))
    broken = FodcData(ctx, B.labels, B.fodc.X, f)
    report = {name: (ok, wit) for name, ok, wit in fodc_validate(broken, 2)}
    assert report["unit_values"] == (True, None)
    assert report["tangent_coproduct"] == (
        False, ("tangent_coproduct", 1, ("v11",), ("v21",)))
    assert report["f_comultiplicative"] == (
        False, ("f_comultiplicative", 0, 3, ("v21",), ("v12",)))


def test_structure_matrix_evaluated_once_per_normal_word(B, ctx, monkeypatch):
    # M(ab) is read off M(w) of the words w of the normal form of ab, so each
    # of the (n+1)^2 entries of M is evaluated at most once per normal word
    pres = ctx.pres
    words = ctx.corpus(2)
    normal = set(words)
    for wa in words:
        for wb in words:
            normal.update((NCPoly(pres, {wa: ONE}) * NCPoly(pres, {wb: ONE})).terms)
    calls = []
    evaluate = DualElement.evaluate

    def counted(self, a):
        calls.append(a)
        return evaluate(self, a)
    monkeypatch.setattr(DualElement, "evaluate", counted)
    assert all(ok for _, ok, _ in fodc_validate(B.fodc, degree=2))
    assert calls and len(calls) <= (B.fodc.n + 1) ** 2 * len(normal)


def test_corrupted_structure_functional_at_one_fails_unit_values(B, ctx):
    f = [list(row) for row in B.fodc.f]
    f[1][2] = f[1][2] + ctx.unit()
    broken = FodcData(ctx, B.labels, B.fodc.X, f)
    report = {name: (ok, wit) for name, ok, wit in fodc_validate(broken, 2)}
    assert report["unit_values"] == (False, ("f_at_1", 1, 2))


def test_certified_calculi_skip_the_pair_loop(ctx, monkeypatch):
    # the covariance certificate settles both shipped calculi for every
    # degree, so the corpus pair loop, which normal-forms the products of
    # corpus words, never runs, and the reports are those the loop gives
    B_eps, B_zeta = bicovariant_build(ctx, "eps"), bicovariant_build(ctx, "zeta_q")

    def no_pairs(self, w):
        raise AssertionError("the corpus pair loop ran")
    monkeypatch.setattr(AlgebraPresentation, "normal_form_word", no_pairs)
    passed = [("unit_values", True, None), ("tangent_coproduct", True, None),
              ("f_comultiplicative", True, None)]
    assert fodc_validate(B_eps.fodc, 3) == passed + [("tangent_star_invariance", True, None)]
    assert fodc_validate(B_zeta.fodc, 3) == passed


def broken_calculus(B, ctx, name):
    """The corrupted calculi of this file."""
    X, f = list(B.fodc.X), [list(row) for row in B.fodc.f]
    if name == "group_like_tangent":
        X[0] = DualElement(ctx, {(BF(CHAR, name="zeta_q"),): ONE})
    elif name == "f01_doubled":
        f[0][1] = f[0][1].scale(QScalar.from_int(2))
    else:
        f[1][2] = f[1][2] + ctx.unit()
    return FodcData(ctx, B.labels, X, f)


@pytest.mark.parametrize("name, report", [
    ("group_like_tangent", [("unit_values", False, ("X_at_1", 0)),
                            ("tangent_coproduct", False, ("tangent_coproduct", 0, (), ())),
                            ("f_comultiplicative", True, None)]),
    ("f01_doubled", [("unit_values", True, None),
                     ("tangent_coproduct", False, ("tangent_coproduct", 1, ("v11",), ("v21",))),
                     ("f_comultiplicative", False,
                      ("f_comultiplicative", 0, 3, ("v21",), ("v12",)))]),
    ("f12_plus_eps", [("unit_values", False, ("f_at_1", 1, 2)),
                      ("tangent_coproduct", False, ("tangent_coproduct", 2, ("v21",), ())),
                      ("f_comultiplicative", False, ("f_comultiplicative", 1, 2, (), ()))]),
])
def test_broken_calculi_are_refused_and_searched(B, ctx, name, report, monkeypatch):
    # the certificate refuses, and the corpus search gives its first
    # witnesses, reading each product of corpus words off the normal-form table
    broken = broken_calculus(B, ctx, name)
    assert not broken.covariant

    def no_product(self, other):
        raise AssertionError("the corpus search formed a polynomial product")
    monkeypatch.setattr(NCPoly, "__mul__", no_product)
    assert fodc_validate(broken, 2) == report


def test_trivial_rank_one_calculus(ctx):
    zero = DualElement(ctx, {})
    f = [[ctx.unit()]]
    triv = FodcData(ctx, ["w"], [zero], f)
    assert all(ok for _, ok, _ in fodc_validate(triv, 2))
    assert triv.differential(ctx.pres.gen("v11")).is_zero()


def test_differential_leibniz(B, ctx):
    rng = random.Random(10)
    F = B.fodc
    for _ in range(60):
        a = random_poly(ctx.pres, rng, 2, 2)
        b = random_poly(ctx.pres, rng, 2, 2)
        lhs = F.differential(a * b)
        rhs = F.differential(b).left_mul(a) + F.right_mul(F.differential(a), b)
        assert lhs == rhs


def test_right_mul_associative(B, ctx):
    rng = random.Random(11)
    F = B.fodc
    g = GammaElement.basis(ctx.pres, "theta12")
    for _ in range(20):
        a = random_poly(ctx.pres, rng, 1, 2)
        b = random_poly(ctx.pres, rng, 1, 2)
        assert F.right_mul(F.right_mul(g, a), b) == F.right_mul(g, a * b)


def test_right_mul_unit(B, ctx):
    for label in B.labels:
        g = GammaElement.basis(ctx.pres, label)
        assert B.fodc.right_mul(g, ctx.pres.one()) == g


def per_term_left_act(f, a):
    """f |> a = sum fc c cv <fw, v> u over the terms fc fw of f, c w of a and
    u (x) v of the coproduct of w, with nothing cached."""
    ctx = f.ctx
    out = {}
    for fw, fc in f.terms.items():
        for w, c in a.terms.items():
            for (u, v), cv in ctx.hopf.coproduct_word(w).terms.items():
                out[u] = out.get(u, ZERO) + fc * c * cv * ctx.eval_word_on_word(fw, v)
    return NCPoly(ctx.pres, {u: c for u, c in out.items() if not c.is_zero()})


def reference_right_mul(F, g, a):
    """sum_{k,j} c_k (f^k_j |> a) omega_j, with one polynomial product and
    one sum per (k, j)."""
    out = GammaElement.zero(F.pres)
    for k, label in enumerate(F.labels):
        c = g.terms.get(label)
        if c is not None:
            for label_j, f in zip(F.labels, F.f[k]):
                out = out + GammaElement(F.pres, {label_j: c * per_term_left_act(f, a)})
    return out


def random_gamma(F, rng):
    """Random polynomial coefficients at two to four of the basis labels."""
    labels = rng.sample(F.labels, rng.randint(2, len(F.labels)))
    return GammaElement(F.pres, {label: random_poly(F.pres, rng, 2, 2) for label in labels})


@pytest.mark.parametrize("zeta", ["eps", "zeta_q"])
def test_right_mul_matches_per_label_reference(ctx, zeta):
    rng = random.Random(12)
    F = bicovariant_build(ctx, zeta).fodc
    for _ in range(10):
        g = random_gamma(F, rng)
        a = random_poly(ctx.pres, rng, 2, 3)
        assert F.right_mul(g, a) == reference_right_mul(F, g, a), (g, a)


def test_right_mul_makes_no_polynomial_product(B, ctx, monkeypatch):
    rng = random.Random(13)
    F = B.fodc
    g, a = random_gamma(F, rng), random_poly(ctx.pres, rng, 2, 3)
    want = reference_right_mul(F, g, a)

    def refuse(self, other):
        raise AssertionError("NCPoly product in right_mul")

    monkeypatch.setattr(NCPoly, "__mul__", refuse)
    assert F.right_mul(g, a) == want


def test_right_mul_rejects_a_foreign_label(B, ctx):
    # dz is a basis label of the disc calculus, not of this one
    g = GammaElement(ctx.pres, {"theta11": ctx.pres.one(), "dz": ctx.pres.one()})
    with pytest.raises(FodcError, match="'dz'"):
        B.fodc.right_mul(g, ctx.pres.gen("v12"))


def differential_via_theta(B, a):
    """da = theta a - a theta, expanded through the bimodule table."""
    theta = B.theta()
    return B.fodc.right_mul(theta, a) - theta.left_mul(a)


def test_differential_matches_theta_commutator(B, ctx):
    # da = theta a - a theta, on all degree <= 2 corpus words
    for w in ctx.corpus(2):
        a = NCPoly(ctx.pres, {w: ONE})
        assert B.fodc.differential(a) == differential_via_theta(B, a)


def test_bicovariant_zeta_q(ctx):
    # a non-counital character gives another valid calculus
    B2 = bicovariant_build(ctx, "zeta_q")
    report = fodc_validate(B2.fodc, degree=2)
    assert all(ok for _, ok, _ in report if _ != "tangent_star_invariance")
    a = ctx.pres.gen("v12")
    assert B2.fodc.differential(a) == differential_via_theta(B2, a)


def test_dual_coproduct_of_omega(B, ctx):
    # Delta(Omega_kj) = sum_{il} f^{kj}_{il} (x) Omega_il, structurally
    n = 2
    flat = [(k, j) for k in range(1, n + 1) for j in range(1, n + 1)]
    for idx, (k, j) in enumerate(flat):
        lhs = B.Omega[idx].coproduct()
        rhs = {}
        for idx2, (i, l) in enumerate(flat):
            fk = B.fodc.f[flat.index((k, j))][idx2]
            for wf, cf in fk.terms.items():
                for wo, co in B.Omega[idx2].terms.items():
                    key = (wf, wo)
                    rhs[key] = rhs.get(key, ZERO) + cf * co
        rhs = {k2: v for k2, v in rhs.items() if not v.is_zero()}
        assert lhs == rhs


# -- quantum-space calculi ------------------------------------------------------


def test_disc_rows_and_consistency():
    calc = builtin_calculus("disc")
    report = calculus_consistency_report(calc)
    assert all(status == "pass" for _, status, _ in report), report
    star_report = star_row_closure_report(calc)
    assert all(status == "pass" for _, status, _ in star_report), star_report


def test_star_closure_reports_a_broken_row():
    # (dz, z*) with q^-3 in place of q^-2: the starred row lands on (dz*, z),
    # so both fail and the two untouched rows still pass
    disc = builtin_calculus("disc")
    pres = disc.pres
    rows = dict(disc.rows)
    rows[("dz", "z*")] = GammaElement(pres, {"dz": pres.gen("z*").scale(qp(-3))})
    calc = QuantumSpaceCalculus("disc-broken", pres, disc.labels, disc.dmap, rows,
                                label_star=disc.label_star)

    def residual(label, gen):
        lhs = GammaElement.basis(pres, disc.label_star[label]).left_mul(pres.gen(gen).star())
        return lhs - calc.gamma_star(rows[(label, gen)])

    report = {label: (status, wit) for label, status, wit in star_row_closure_report(calc)}
    assert report == {
        "dz.z": ("pass", None),
        "dz.z*": ("fail", repr(residual("dz", "z*"))),
        "dz*.z": ("fail", repr(residual("dz*", "z"))),
        "dz*.z*": ("pass", None),
    }
    assert report["dz.z*"][1] == "(((s^2 - 1)/(s^2))*z).dz*"


def test_disc_gamma_star_example():
    # (z dz)* = d(z*) z* recombined through the q^{-2} row
    calc = builtin_calculus("disc")
    pres = calc.pres
    g = GammaElement(pres, {"dz": pres.gen("z")})
    star = calc.gamma_star(g)
    assert star == GammaElement(pres, {"dz*": pres.gen("z*").scale(qp(-2))})


def test_gamma_star_involutive():
    calc = builtin_calculus("disc")
    pres = calc.pres
    rng = random.Random(12)
    for _ in range(20):
        g = GammaElement(pres, {
            "dz": random_poly(pres, rng, 2, 2),
            "dz*": random_poly(pres, rng, 2, 2),
        })
        assert calc.gamma_star(calc.gamma_star(g)) == g


def differential(calc, b):
    """d b of a quantum-space calculus: the sum over the terms of b."""
    total = GammaElement.zero(calc.pres)
    for w, c in b.terms.items():
        total = total + calc.differential_word(w).scale(c)
    return total


def test_db_star_is_d_of_star():
    calc = builtin_calculus("disc")
    pres = calc.pres
    rng = random.Random(13)
    for _ in range(20):
        b = random_poly(pres, rng, 2, 2)
        assert calc.gamma_star(differential(calc, b)) == differential(calc, b.star())


def test_plane_variant_selection():
    good = calculus_consistency_report(builtin_calculus("pw-a"))
    bad = calculus_consistency_report(builtin_calculus("pw-b"))
    assert all(status == "pass" for _, status, _ in good), good
    statuses = [status for _, status, _ in bad]
    assert "fail" in statuses


def test_plane_leibniz_and_star():
    calc = builtin_calculus("pw-a")
    pres = calc.pres
    rng = random.Random(14)
    for _ in range(30):
        a = random_poly(pres, rng, 2, 2)
        b = random_poly(pres, rng, 2, 2)
        lhs = differential(calc, a * b)
        rhs = differential(calc, b).left_mul(a) + calc.right_mul_poly(
            differential(calc, a), b)
        assert lhs == rhs
    assert all(status == "pass" for _, status, _ in star_row_closure_report(calc))


def test_ext_plane_consistent_variant():
    calc = builtin_calculus("ext-consistent")
    report = calculus_consistency_report(calc)
    by_rel = {rel: status for rel, status, _ in report}
    # the x,y subalgebra relation is checkable and passes; starred relations
    # are reported as skipped (no differential images for x*, y*)
    assert by_rel["y x"] == "pass"
    assert "skipped" in by_rel.values()
    assert star_row_closure_report(calc)[0][1] == "skipped"


def test_serialization_roundtrip_bicovariant(B, ctx):
    doc = bicovariant_to_doc(B)
    C2 = dual_element_from_doc(ctx, doc["C"])
    assert C2 == B.C
    X2 = dual_element_from_doc(ctx, doc["X"][1])
    assert X2 == B.fodc.X[1]
