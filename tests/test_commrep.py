"""Exact verification of both commutator-representation constructions."""

import random

import pytest

from ncgv.algebra import NCPoly, random_poly
from ncgv.commrep import (BOperator, centrality_check,
                          disc_block_c, dual_centrality, faithfulness_rank,
                          hermiticity_check, plane_block_c, prop1_build, prop1_verify,
                          prop4_verify, quantum_space_commrep_report,
                          tau_central, MatrixOverAlgebra, _mul_by_algebra_right)
from ncgv.dual import BF, CrossElement, DualElement, LP, make_slq2_context
from ncgv.fodc import BicovariantOutput, FodcData, bicovariant_build, builtin_calculus
from ncgv.scalars import ONE, QScalar, ZERO

qp = QScalar.q_power


@pytest.fixture(scope="module")
def ctx():
    return make_slq2_context()


@pytest.fixture(scope="module")
def B(ctx):
    return bicovariant_build(ctx, "eps")


@pytest.fixture(scope="module")
def blocks(B):
    return prop1_build(B.fodc)


def test_prop1_shape(blocks, B, ctx):
    C, Omegas = blocks
    assert C.size == 5 and len(Omegas) == 4
    # first row carries the tangent functionals, diagonal-border shape
    for k in range(4):
        assert C.entries[0][k + 1] == CrossElement.from_dual(ctx, B.fodc.X[k])
        assert C.entries[k + 1][0] == CrossElement.from_dual(ctx, B.fodc.X[k])
    assert C.entries[0][0].is_zero() and C.entries[2][3].is_zero()
    for k in range(4):
        for j in range(4):
            assert Omegas[k].entries[0][j + 1] == CrossElement.from_dual(
                ctx, B.fodc.f[k][j])


def test_prop1_identities(blocks, B):
    C, Omegas = blocks
    checks = prop1_verify(C, Omegas, B.fodc, degree_a=2)
    assert all(ok for _, ok, _ in checks), checks


def test_prop1_trivial_a_is_one(blocks, B, ctx):
    C, Omegas = blocks
    a = ctx.pres.one()
    lhs = _mul_by_algebra_right(C, a) - C.scale_poly(a)
    assert lhs.is_zero()


def test_prop1_mutation_detected(blocks, B):
    C, Omegas = blocks
    corrupted = list(Omegas)
    bad = BOperator(B.ctx, [row[:] for row in Omegas[0].entries])
    bad.entries[0][1] = bad.entries[0][1].scale(QScalar.from_int(-1))
    corrupted[0] = bad
    checks = prop1_verify(C, corrupted, B.fodc, degree_a=1)
    failed = [w for name, ok, w in checks if not ok]
    assert failed and failed[0] is not None


def test_corrupted_c_border_fails_only_r1(blocks, B):
    # C appears only in row 0 of the identity, so only prop1_r1 can fail
    C, Omegas = blocks
    bad = BOperator(B.ctx, [row[:] for row in C.entries])
    bad.entries[0][1] = bad.entries[1][0] = bad.entries[0][1].scale(QScalar.from_int(-1))
    checks = {name: (ok, w) for name, ok, w in
              prop1_verify(bad, Omegas, B.fodc, degree_a=1)}
    ok, witness = checks["prop1_r1"]
    assert not ok and witness["identity"] == "r1" and "k" not in witness
    assert checks["prop1_r2"] == (True, None)


def test_corrupted_omega_fails_r2_with_its_row(blocks, B):
    C, Omegas = blocks
    bad = BOperator(B.ctx, [row[:] for row in Omegas[0].entries])
    bad.entries[0][2] = bad.entries[0][2].scale(QScalar.from_int(-1))
    checks = {name: (ok, w) for name, ok, w in
              prop1_verify(C, [bad] + list(Omegas[1:]), B.fodc, degree_a=1)}
    assert checks["prop1_r2"] == (False, {"identity": "r2", "a": ("v11",), "k": 0,
                                          "slot": 2, "b": ()})


def test_trivial_calculus_prop1(ctx):
    zero = DualElement(ctx, {})
    triv = FodcData(ctx, ["w"], [zero], [[ctx.unit()]])
    C, Omegas = prop1_build(triv)
    assert C.is_zero()
    checks = prop1_verify(C, Omegas, triv, degree_a=1)
    assert all(ok for _, ok, _ in checks)


def rho(ctx, size, a):
    """The algebra element a embedded diagonally in the block operators."""
    out = BOperator.zero(ctx, size)
    for i in range(size):
        out.entries[i][i] = CrossElement.from_poly(ctx, a)
    return out


def tau_block(a, b, C):
    """tau(a db) = rho(a)(C rho(b) - rho(b) C); the complex unit in front of
    the paper's formula is left out."""
    return (_mul_by_algebra_right(C, b) - C.scale_poly(b)).scale_poly(a)


def test_tau_block_well_defined(blocks, B, ctx):
    # two presentations of the same calculus element have equal images
    C, _ = blocks
    pres = ctx.pres
    rng = random.Random(15)
    for _ in range(10):
        a = random_poly(pres, rng, 1, 2)
        b = random_poly(pres, rng, 1, 2)
        lhs = tau_block(pres.one(), a * b, C)
        rhs = tau_block(a, b, C) + tau_block(pres.one(), a, C) * rho(ctx, 5, b)
        assert lhs == rhs
    assert tau_block(pres.one(), pres.one(), C).is_zero()


def test_prop4_identities(B):
    checks = prop4_verify(B, degree=2)
    assert all(ok for _, ok, _ in checks), checks


def prop4_mutant(B, C=None, Omega=None, TrA=None):
    return BicovariantOutput(B.ctx, B.zeta_name, B.fodc, B.C if C is None else C,
                             B.Omega if Omega is None else Omega, B.A,
                             B.TrA if TrA is None else TrA)


def test_prop4_doubled_omega_fails_all_but_theta_image(B):
    # Omega_12 enters no diagonal label, so tau(theta) is unchanged
    omega = list(B.Omega)
    omega[1] = omega[1].scale(QScalar.from_int(2))
    assert prop4_verify(prop4_mutant(B, Omega=omega), degree=2) == [
        ("prop4_omega_rows", False,
         {"identity": "omega_rows", "label": "theta11", "a": ("v11",)}),
        ("prop4_bimodule_map", False,
         {"identity": "bimodule", "label": "theta11", "a": ("v11",)}),
        ("prop4_tau_formula", False, {"identity": "tau_formula", "a": (), "b": ("v11",)}),
        ("prop4_theta_image", True, None)]


def test_prop4_shifted_c_fails_tau_formula_and_theta_image(B):
    assert prop4_verify(prop4_mutant(B, C=B.C + B.fodc.X[1]), degree=2) == [
        ("prop4_omega_rows", True, None),
        ("prop4_bimodule_map", True, None),
        ("prop4_tau_formula", False, {"identity": "tau_formula", "a": (), "b": ("v11",)}),
        ("prop4_theta_image", False, {"identity": "theta_image", "degree": 2})]


def test_prop4_shifted_trace_fails_only_theta_image(B):
    assert prop4_verify(prop4_mutant(B, TrA=B.TrA + ONE), degree=2) == [
        ("prop4_omega_rows", True, None),
        ("prop4_bimodule_map", True, None),
        ("prop4_tau_formula", True, None),
        ("prop4_theta_image", False, {"identity": "theta_image", "degree": 2})]


def test_prop4_omega_collapse_at_one(B, ctx):
    # a = 1: Omega_kj 1 = Omega_kj and <f^{kj}_{il}, 1> = delta delta
    from ncgv.dual import mixed_word_to_cross
    for idx, label in enumerate(B.labels):
        lhs = mixed_word_to_cross(ctx, [B.Omega[idx], ctx.pres.one()])
        assert lhs == CrossElement.from_dual(ctx, B.Omega[idx])
        for idx2 in range(len(B.labels)):
            want = ONE if idx == idx2 else ZERO
            assert B.fodc.f[idx][idx2].evaluate(ctx.pres.one()) == want


def test_tau_leibniz_coherence(B):
    # tau(d(ab)) = tau(a db) + tau(da) b, exactly, on random a and b
    ctx = B.ctx
    pres = ctx.pres
    rng = random.Random(16)
    for _ in range(25):
        a = random_poly(pres, rng, 2, 2)
        b = random_poly(pres, rng, 2, 2)
        lhs = tau_central(pres.one(), a * b, B)
        rhs = tau_central(a, b, B)
        tail = tau_central(pres.one(), a, B) * CrossElement.from_poly(ctx, b)
        assert lhs == rhs + tail, (a, b)


def test_centrality(B):
    checks = centrality_check(B, degree=3)
    assert all(ok for _, ok, _ in checks), checks


def test_centrality_counterexamples(ctx, B):
    # eps is central; a single off-diagonal matrix functional is not
    assert dual_centrality(ctx.unit(), [BF(LP, 1, 1)], 2)[0][1]
    lone = DualElement(ctx, {(BF(LP, 1, 2),): ONE})
    name, ok, witness = dual_centrality(
        lone, [BF(LP, i, j) for i in (1, 2) for j in (1, 2)], 2)[0]
    assert not ok and witness is not None


def test_hermiticity(B):
    checks = hermiticity_check(B, degree=3)
    assert all(ok for _, ok, _ in checks), checks


def test_hermiticity_of_unit(ctx, B):
    assert ctx.unit().star().ext_equal(ctx.unit(), 2)


def test_faithfulness_generator_corpus(B):
    report = faithfulness_rank(B, degree=2)
    assert report["faithful_on_corpus"], report
    assert report["gamma_span_dim"] == report["corpus_size"] == 20
    r1 = faithfulness_rank(B, degree=1)
    assert r1["faithful_on_corpus"]
    assert r1["tau_rank"] <= report["tau_rank"]


def test_faithfulness_degenerate_c(B, ctx):
    class Degenerate:
        pass

    D = Degenerate()
    D.ctx = ctx
    D.C = ctx.unit()
    D.fodc = B.fodc
    D.labels = B.labels
    D.Omega = B.Omega
    report = faithfulness_rank(D, degree=1)
    assert report["tau_rank"] == 0
    assert not report["faithful_on_corpus"]


def test_faithfulness_pair_corpus(B, ctx):
    # the sixteen elements v^i_j d(v^k_l) span a 16-dimensional space and
    # tau is injective on it
    pres = ctx.pres
    pairs = [(pres.gen(g), pres.gen(h))
             for g in pres.generators for h in pres.generators]
    report = faithfulness_rank(B, pairs=pairs)
    assert report["gamma_span_dim"] == 16
    assert report["tau_rank"] == 16
    assert report["faithful_on_corpus"]


# -- quantum-space block models ----------------------------------------------------


def test_disc_block_commutators():
    calc = builtin_calculus("disc")
    pres = calc.pres
    C = disc_block_c(pres)
    results, comms = quantum_space_commrep_report(calc, C)
    assert all(status == "pass" for _, status, _ in results), results
    # derived commutator: [C, rho(z)] has the (gamma - z z*) corner,
    # equal to q^(-2)(gamma - z* z)
    lower = comms["dz"].entries[1][0]
    zzs = pres.gen("z") * pres.gen("z*")
    assert lower == pres.one() - zzs
    zsz = pres.gen("z*") * pres.gen("z")
    assert lower == (pres.one() - zsz).scale(qp(-2))
    assert comms["dz"].entries[0][0].is_zero()
    assert comms["dz"].entries[0][1].is_zero()


def test_disc_block_vs_alt_normalization():
    # the alternative corner form (1 - z* z) differs from the derived one by q^2
    calc = builtin_calculus("disc")
    pres = calc.pres
    C = disc_block_c(pres)
    _, comms = quantum_space_commrep_report(calc, C)
    derived = comms["dz"].entries[1][0]
    alt = pres.one() - pres.gen("z*") * pres.gen("z")
    assert alt == derived.scale(qp(2))


def test_plane_block_commutators():
    calc = builtin_calculus("pw-a")
    pres = calc.pres
    C = plane_block_c(pres)
    results, comms = quantum_space_commrep_report(calc, C)
    assert all(status == "pass" for _, status, _ in results), results
    # frozen expected entries
    x, y, yinv = pres.gen("x"), pres.gen("y"), pres.gen("yinv")
    cx = comms["dx"]
    assert cx.entries[0][0] == (x * x * x * yinv * yinv).scale(qp(2))
    assert cx.entries[1][1] == x * yinv * yinv
    cy = comms["dy"]
    assert cy.entries[0][0] == x * x * yinv
    assert cy.entries[1][1].is_zero()


def block_commutator(C, p):
    rho = MatrixOverAlgebra.diagonal([p] * C.size)
    return C * rho - rho * C


def test_block_commutator_leibniz():
    calc = builtin_calculus("disc")
    pres = calc.pres
    C = disc_block_c(pres)
    rng = random.Random(17)
    for _ in range(15):
        a = random_poly(pres, rng, 2, 2)
        b = random_poly(pres, rng, 2, 2)
        rho_a = MatrixOverAlgebra.diagonal([a, a])
        lhs = block_commutator(C, a * b)
        rhs = block_commutator(C, a) * MatrixOverAlgebra.diagonal([b, b]) \
            + rho_a * block_commutator(C, b)
        assert lhs == rhs
