"""Left-covariant calculus validation, the bicovariant builder, and the
quantum-space bimodule tables with their consistency checks."""

import random

import pytest

from ncgv.algebra import NCPoly, random_poly
from ncgv.dual import BF, CHAR, DualElement, SLM, make_slq2_context
from ncgv.fodc import (BicovariantOutput, FodcData, GammaElement,
                       bicovariant_build, builtin_calculus,
                       calculus_consistency_report, differential_via_theta,
                       fodc_validate, quantum_space_from_doc,
                       quantum_space_to_doc, star_row_closure_report,
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
    M = B.fodc.structure_matrix()
    assert len(M) == 5 and all(len(row) == 5 for row in M)
    assert M[0] == [ctx.unit(), *B.fodc.X]
    for k in range(4):
        assert not M[k + 1][0].terms
        assert M[k + 1][1:] == B.fodc.f[k]


def test_tangent_failures_stay_in_row_0(B, ctx):
    # a group-like X_1 breaks row 0 of M(ab) = M(a) M(b) and no other row
    zeta = DualElement(ctx, {(BF(CHAR, name="zeta_q"),): ONE})
    broken = FodcData(ctx, B.labels, [zeta] + list(B.fodc.X[1:]), B.fodc.f)
    report = {name: (ok, wit) for name, ok, wit in fodc_validate(broken, 2)}
    assert report["unit_values"] == (False, ("X_at_1", 0))
    ok, witness = report["tangent_coproduct"]
    assert not ok and witness[0] == "tangent_coproduct" and len(witness) == 4
    assert report["f_comultiplicative"] == (True, None)


def test_corrupted_structure_functional_fails_comultiplicativity(B, ctx):
    f = [row[:] for row in B.fodc.f]
    f[0][1] = f[0][1].scale(QScalar.from_int(2))
    broken = FodcData(ctx, B.labels, B.fodc.X, f)
    report = {name: (ok, wit) for name, ok, wit in fodc_validate(broken, 2)}
    assert report["unit_values"] == (True, None)
    ok, witness = report["f_comultiplicative"]
    assert not ok and witness[0] == "f_comultiplicative" and len(witness) == 5


def test_corrupted_structure_functional_at_one_fails_unit_values(B, ctx):
    f = [row[:] for row in B.fodc.f]
    f[1][2] = f[1][2] + ctx.unit()
    broken = FodcData(ctx, B.labels, B.fodc.X, f)
    report = {name: (ok, wit) for name, ok, wit in fodc_validate(broken, 2)}
    assert report["unit_values"] == (False, ("f_at_1", 1, 2))


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


def test_db_star_is_d_of_star():
    calc = builtin_calculus("disc")
    pres = calc.pres
    rng = random.Random(13)
    for _ in range(20):
        b = random_poly(pres, rng, 2, 2)
        assert calc.gamma_star(calc.differential(b)) == calc.differential(b.star())


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
        lhs = calc.differential(a * b)
        rhs = calc.differential(b).left_mul(a) + calc.right_mul_poly(
            calc.differential(a), b)
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


def test_serialization_roundtrip_quantum_space():
    calc = builtin_calculus("pw-a")
    doc = quantum_space_to_doc(calc)
    calc2 = quantum_space_from_doc(doc, calc.pres)
    assert calc2.rows == calc.rows or all(
        calc2.rows[k] == calc.rows[k] for k in calc.rows)
    assert calc2.dmap["yinv"] == calc.dmap["yinv"]


def test_serialization_roundtrip_bicovariant(B, ctx):
    doc = bicovariant_to_doc(B)
    C2 = dual_element_from_doc(ctx, doc["C"])
    assert C2 == B.C
    X2 = dual_element_from_doc(ctx, doc["X"][1])
    assert X2 == B.fodc.X[1]
