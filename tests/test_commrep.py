"""Exact verification of both commutator-representation constructions."""

import random

import pytest

from ncgv import fodc
from ncgv.algebra import NCPoly, first_failure, random_poly
from ncgv.commrep import (BOperator, centrality_check,
                          disc_block_c, dual_centrality, faithfulness_rank,
                          hermiticity_check, plane_block_c, prop1_build, prop1_verify,
                          prop4_verify, quantum_space_commrep_report,
                          tau_central, MatrixOverAlgebra, _flatten,
                          _mul_by_algebra_right)
from ncgv.dual import (BF, CHAR, LM, LP, SLP, CrossElement, DualContext, DualElement,
                       make_slq2_context, mixed_word_to_cross)
from ncgv.fodc import (BicovariantOutput, FodcData, GammaElement, bicovariant_build,
                       builtin_calculus, fodc_validate)
from ncgv.linalg import exact_rank
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
    a = CrossElement.from_poly(ctx, ctx.pres.one())
    lhs = _mul_by_algebra_right(C, a) - C.scale_poly(a)
    assert lhs.is_zero()


def test_prop1_mutation_detected(blocks, B):
    C, Omegas = blocks
    corrupted = list(Omegas)
    bad = BOperator([row[:] for row in Omegas[0].entries])
    bad.entries[0][1] = bad.entries[0][1].scale(QScalar.from_int(-1))
    corrupted[0] = bad
    checks = prop1_verify(C, corrupted, B.fodc, degree_a=1)
    failed = [w for name, ok, w in checks if not ok]
    assert failed and failed[0] is not None


def test_corrupted_c_border_fails_only_r1(blocks, B):
    # C appears only in row 0 of the identity, so only prop1_r1 can fail
    C, Omegas = blocks
    bad = BOperator([row[:] for row in C.entries])
    bad.entries[0][1] = bad.entries[1][0] = bad.entries[0][1].scale(QScalar.from_int(-1))
    checks = {name: (ok, w) for name, ok, w in
              prop1_verify(bad, Omegas, B.fodc, degree_a=1)}
    ok, witness = checks["prop1_r1"]
    assert not ok and witness["identity"] == "r1" and "k" not in witness
    assert checks["prop1_r2"] == (True, None)


def test_corrupted_omega_fails_r2_with_its_row(blocks, B):
    C, Omegas = blocks
    bad = BOperator([row[:] for row in Omegas[0].entries])
    bad.entries[0][2] = bad.entries[0][2].scale(QScalar.from_int(-1))
    checks = {name: (ok, w) for name, ok, w in
              prop1_verify(C, [bad] + list(Omegas[1:]), B.fodc, degree_a=1)}
    assert checks["prop1_r2"] == (False, {"identity": "r2", "a": ("v11",), "k": 0,
                                          "slot": 2, "b": ()})


@pytest.mark.parametrize("degree_a", [1, 2, 3])
def test_corrupted_omega_keeps_its_witnesses_at_every_degree(blocks, B, degree_a):
    # a failure on a generator refuses the induction, and the search keeps
    # the first witnesses of degree 1 (Omega_1 enters row 0 too)
    C, Omegas = blocks
    bad = BOperator([row[:] for row in Omegas[0].entries])
    bad.entries[0][2] = bad.entries[0][2].scale(QScalar.from_int(-1))
    assert prop1_verify(C, [bad] + list(Omegas[1:]), B.fodc, degree_a=degree_a) == [
        ("prop1_r1", False, {"identity": "r1", "a": ("v11",), "slot": 2, "b": ("v11",)}),
        ("prop1_r2", False, {"identity": "r2", "a": ("v11",), "k": 0, "slot": 2, "b": ()})]


def act_calls(monkeypatch):
    """A list that gains one entry, the operator, per call of BOperator.act."""
    calls = []
    act = BOperator.act

    def spy(self, tup):
        calls.append(self)
        return act(self, tup)

    monkeypatch.setattr(BOperator, "act", spy)
    return calls


@pytest.mark.parametrize("zeta", ["eps", "zeta_q"])
def test_prop1_is_certified_from_the_generators(ctx, zeta, monkeypatch):
    # P_j(a) is zero term by term on the unit and the generators and M is
    # multiplicative, so the rows a of degree 2 and 3 are never acted on
    F = bicovariant_build(ctx, zeta).fodc
    C, Omegas = prop1_build(F)
    calls = act_calls(monkeypatch)
    assert prop1_verify(C, Omegas, F, degree_a=3) == [("prop1_r1", True, None),
                                                       ("prop1_r2", True, None)]
    # every word a of degree <= 1, row j, slot and word b once
    low = len(ctx.corpus(1))
    assert len(calls) == low * (F.n + 1) ** 2 * low


@pytest.mark.parametrize("zeta", ["eps", "zeta_q"])
def test_covariance_is_certified_once_per_calculus(ctx, zeta, monkeypatch):
    # the build validation, fodc_validate and the prop1 certificate all read
    # the one verdict F.covariant
    certified = []
    multiplicative = fodc.multiplicative
    monkeypatch.setattr(fodc, "multiplicative",
                        lambda M: certified.append(M) or multiplicative(M))
    F = bicovariant_build(ctx, zeta).fodc
    assert all(ok for _, ok, _ in fodc_validate(F, 3))
    C, Omegas = prop1_build(F)
    assert all(ok for _, ok, _ in prop1_verify(C, Omegas, F, degree_a=3))
    assert certified == [F.structure_matrix] and F.covariant is True


@pytest.mark.parametrize("degree_a", [1, 2, 3])
def test_refused_prop1_induction_searches_the_corpus(blocks, B, ctx, degree_a, monkeypatch):
    C, Omegas = blocks
    certified = prop1_verify(C, Omegas, B.fodc, degree_a=degree_a)
    monkeypatch.setattr(B.fodc, "covariant", False)
    calls = act_calls(monkeypatch)
    assert prop1_verify(C, Omegas, B.fodc, degree_a=degree_a) == certified
    assert len(calls) == len(ctx.corpus(degree_a)) * (B.fodc.n + 1) ** 2 * len(ctx.corpus(1))


def test_zero_with_terms_refuses_the_prop1_induction(blocks, B, ctx, monkeypatch):
    # sum_t l+[1,t] S(l+)[t,2] is zero on every word but keeps its terms:
    # added to Omega_1, it leaves every identity true, and P_j(a) is no
    # longer zero term by term, so the corpus decides
    C, Omegas = blocks
    z = sum((DualElement(ctx, {ctx.canonical_word((BF(LP, 1, t), BF(SLP, t, 2))): ONE})
             for t in (1, 2)), DualElement(ctx, {}))
    assert z.vanishes() and z.terms
    padded = BOperator([row[:] for row in Omegas[0].entries])
    padded.entries[0][1] = padded.entries[0][1] + CrossElement.from_dual(ctx, z)
    calls = act_calls(monkeypatch)
    assert prop1_verify(C, [padded] + list(Omegas[1:]), B.fodc, degree_a=2) == [
        ("prop1_r1", True, None), ("prop1_r2", True, None)]
    assert len(calls) == len(ctx.corpus(2)) * (B.fodc.n + 1) ** 2 * len(ctx.corpus(1))


# an entry of the structure functionals scaled by q: a tangent functional
# X_k (row 0 of M) or a diagonal f^k_k (a row k+1); each breaks left covariance
SCALED = {"X_0": (0, None), "X_1": (1, None), "f_0_0": (0, 0), "f_3_3": (3, 3)}


@pytest.mark.parametrize("entry", sorted(SCALED))
def test_prop1_fails_the_rows_fodc_validate_fails(B, ctx, entry):
    # prop1_r1 is the tangent coproduct identity, prop1_r2 the
    # comultiplicativity of the f-table, through the bordered operators
    k, j = SCALED[entry]
    X, f = list(B.fodc.X), [list(row) for row in B.fodc.f]
    if j is None:
        X[k] = X[k].scale(qp(1))
    else:
        f[k][j] = f[k][j].scale(qp(1))
    F = FodcData(ctx, B.fodc.labels, X, f)
    C, Omegas = prop1_build(F)
    prop1 = [ok for _, ok, _ in prop1_verify(C, Omegas, F, degree_a=2)]
    covariance = {name: ok for name, ok, _ in fodc_validate(F, 2)}
    assert prop1 == [covariance["tangent_coproduct"], covariance["f_comultiplicative"]]
    assert prop1 == ([False, True] if j is None else [False, False])


def test_trivial_calculus_prop1(ctx):
    zero = DualElement(ctx, {})
    triv = FodcData(ctx, ["w"], [zero], [[ctx.unit()]])
    C, Omegas = prop1_build(triv)
    assert C.is_zero()
    checks = prop1_verify(C, Omegas, triv, degree_a=1)
    assert all(ok for _, ok, _ in checks)


def rho(ctx, size, a):
    """The algebra element a embedded diagonally in the block operators."""
    cell, empty = CrossElement.from_poly(ctx, a), CrossElement(ctx, {})
    return BOperator([[cell if i == j else empty for j in range(size)] for i in range(size)])


def tau_block(ctx, a, b, C):
    """tau(a db) = rho(a)(C rho(b) - rho(b) C); the complex unit in front of
    the paper's formula is left out."""
    a, b = CrossElement.from_poly(ctx, a), CrossElement.from_poly(ctx, b)
    return (_mul_by_algebra_right(C, b) - C.scale_poly(b)).scale_poly(a)


def test_tau_block_well_defined(blocks, B, ctx):
    # two presentations of the same calculus element have equal images
    C, _ = blocks
    pres = ctx.pres
    rng = random.Random(15)
    for _ in range(10):
        a = random_poly(pres, rng, 1, 2)
        b = random_poly(pres, rng, 1, 2)
        lhs = tau_block(ctx, pres.one(), a * b, C)
        rhs = tau_block(ctx, a, b, C) + tau_block(ctx, pres.one(), a, C) * rho(ctx, 5, b)
        assert lhs == rhs
    assert tau_block(ctx, pres.one(), pres.one(), C).is_zero()


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


def prop4_reference(B, degree):
    """prop4_verify as three full corpus searches: the Omega rows, the
    bimodule map on the words of length <= 1, and the tau formula on every
    pair (a, b) of corpus words."""
    ctx = B.ctx
    pres = ctx.pres
    n2 = len(B.labels)
    words = ctx.corpus(degree)

    def tau_gamma(gamma):
        out = CrossElement(ctx, {})
        for lab, coeff in gamma.terms.items():
            out = out + mixed_word_to_cross(ctx, [coeff, B.Omega[B.labels.index(lab)]])
        return out

    def omega_rows():
        for idx in range(n2):
            for wa in words:
                a = NCPoly(pres, {wa: ONE})
                lhs = mixed_word_to_cross(ctx, [B.Omega[idx], a])
                rhs = CrossElement(ctx, {})
                for idx2 in range(n2):
                    acted = B.fodc.f[idx][idx2].left_act(a)
                    if not acted.is_zero():
                        rhs = rhs + mixed_word_to_cross(ctx, [acted, B.Omega[idx2]])
                if lhs != rhs:
                    yield {"identity": "omega_rows", "label": B.labels[idx], "a": wa}

    def bimodule_map():
        for idx in range(n2):
            for wa in words:
                if len(wa) > 1:
                    continue
                a = NCPoly(pres, {wa: ONE})
                g = GammaElement.basis(pres, B.labels[idx])
                lhs = tau_gamma(B.fodc.right_mul(g, a))
                if lhs != mixed_word_to_cross(ctx, [B.Omega[idx], a]):
                    yield {"identity": "bimodule", "label": B.labels[idx], "a": wa}

    def tau_formula():
        for wa in words:
            a = NCPoly(pres, {wa: ONE})
            for wb in words:
                b = NCPoly(pres, {wb: ONE})
                lhs = tau_gamma(B.fodc.differential(b).left_mul(a))
                if lhs != tau_central(a, b, B):
                    yield {"identity": "tau_formula", "a": wa, "b": wb}

    checks = [first_failure("prop4_omega_rows", omega_rows()),
              first_failure("prop4_bimodule_map", bimodule_map()),
              first_failure("prop4_tau_formula", tau_formula())]
    # tau(theta) = C + Tr(A) eps as operators on the corpus
    diff = tau_gamma(B.theta()) - CrossElement.from_dual(ctx, B.C + ctx.unit().scale(B.TrA))
    ok = acts_as_zero(diff, degree)
    checks.append(("prop4_theta_image", ok,
                   None if ok else {"identity": "theta_image", "degree": degree}))
    return checks


def acts_as_zero(x, degree):
    """Whether a cross element acts as zero on every corpus word."""
    pres = x.ctx.pres
    return all(x.act(NCPoly(pres, {w: ONE})).is_zero() for w in x.ctx.corpus(degree))


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_functional_acts_as_zero_iff_it_vanishes(ctx, B, degree):
    # a functional g acts as zero on the corpus exactly when g is zero there:
    # g(w) = eps(g |> w), and the legs of Delta(w) are no longer than w;
    # prop4 decides tau(theta) = C + Tr(A) eps by this equivalence
    letters = [BF(kind, i, j) for kind in (LP, LM) for i in (1, 2) for j in (1, 2)]
    letters.append(BF(CHAR, name=B.zeta_name))
    zero = DualElement(ctx, {})
    outcomes = set()
    for bf in letters:
        word = DualElement(ctx, {ctx.canonical_word((bf,)): ONE})
        commutator = B.C * word - word * B.C
        for g in (commutator, commutator + word):
            vanishes = g.ext_equal(zero, degree)
            assert acts_as_zero(CrossElement.from_dual(ctx, g), degree) == vanishes, bf
            outcomes.add(vanishes)
    assert outcomes == {True, False}


@pytest.fixture(scope="module")
def calculi(ctx, B):
    """The shipped calculus of each character and its three mutants:
    Omega_12 doubled, C + X_1 and q C."""
    out = {}
    for zeta, base in (("eps", B), ("zeta_q", bicovariant_build(ctx, "zeta_q"))):
        omega = list(base.Omega)
        omega[1] = omega[1].scale(QScalar.from_int(2))
        out[zeta, "shipped"] = base
        out[zeta, "omega12_doubled"] = prop4_mutant(base, Omega=omega)
        out[zeta, "c_plus_x1"] = prop4_mutant(base, C=base.C + base.fodc.X[1])
        out[zeta, "q_times_c"] = prop4_mutant(base, C=base.C.scale(qp(1)))
    return out


@pytest.mark.parametrize("zeta", ["eps", "zeta_q"])
@pytest.mark.parametrize("degree", [2, 3])
@pytest.mark.parametrize("variant", ["shipped", "omega12_doubled", "c_plus_x1",
                                     "q_times_c"])
def test_prop4_matches_the_full_grid(calculi, zeta, degree, variant):
    B = calculi[zeta, variant]
    assert prop4_verify(B, degree) == prop4_reference(B, degree)


def left_by(ctx, wa, x):
    """L_a for the word a = wa: c (w, f) -> c NF(a w) f, term by term."""
    out = {}
    for (w, f), c in x.terms.items():
        for v, cv in ctx.pres.normal_form_word(wa + w).items():
            out[v, f] = out.get((v, f), ZERO) + c * cv
    return CrossElement(ctx, out)


def tau_difference(B, a, b):
    """tau(a db) - a(Cb - bC), both sides as prop4 forms them."""
    ctx = B.ctx
    lhs = CrossElement(ctx, {})
    for lab, coeff in B.fodc.differential(b).left_mul(a).terms.items():
        lhs = lhs + mixed_word_to_cross(ctx, [coeff, B.Omega[B.labels.index(lab)]])
    return lhs - tau_central(a, b, B)


def test_tau_formula_grid_is_left_multiple_of_its_row(ctx, calculi):
    # both sides of tau(a db) = a(Cb - bC) are L_a of their values at a = 1,
    # so the row a = 1 decides the whole grid, failing calculi included
    pres = ctx.pres
    words = ctx.corpus(3)
    failing_rows = 0
    for B in calculi.values():
        for wb in words:
            b = NCPoly(pres, {wb: ONE})
            row = tau_difference(B, pres.one(), b)
            failing_rows += not row.is_zero()
            for wa in words[:12]:
                assert tau_difference(B, NCPoly(pres, {wa: ONE}), b) == \
                    left_by(ctx, wa, row), (B.zeta_name, wa, wb)
    assert failing_rows


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


def centrality_letters(ctx, zeta):
    """The letters of ``centrality_check``."""
    return ([BF(kind, i, j) for kind in (LP, LM) for i in (1, 2) for j in (1, 2)]
            + [BF(CHAR, name=zeta)])


def test_centrality_is_certified_for_every_word(ctx, B):
    for bf in centrality_letters(ctx, "eps"):
        g = DualElement(ctx, {ctx.canonical_word((bf,)): ONE})
        assert (B.C * g - g * B.C).vanishes(), bf


# the first witness of the corpus search, for C of zeta_q and for a C with
# one term times q
NONCENTRAL = [("centrality", False, {"letter": "l+[1,2]", "word": ("v21",)})]


def test_noncentral_letters_are_refused_and_searched(ctx, B):
    fw, c = min(((w, c) for w, c in B.C.terms.items() if w),
                key=lambda kv: (len(kv[0]), repr(kv[0])))
    mutant = B.C + DualElement(ctx, {fw: c * (qp(1) - ONE)})
    letters = centrality_letters(ctx, "eps")

    def commutator(bf):
        g = DualElement(ctx, {ctx.canonical_word((bf,)): ONE})
        return mutant * g - g * mutant
    refused = [repr(bf) for bf in letters if not commutator(bf).vanishes()]
    assert refused == ["l+[1,2]", "l-[2,1]"]
    assert dual_centrality(mutant, letters, 3) == NONCENTRAL
    assert centrality_check(bicovariant_build(ctx, "zeta_q"), 3) == NONCENTRAL


def test_hermiticity(B):
    checks = hermiticity_check(B, degree=3)
    assert all(ok for _, ok, _ in checks), checks


def test_hermiticity_is_certified_for_every_word(ctx, monkeypatch):
    # C* - C of zeta_q is a nonzero combination of words that vanishes on
    # every word, so the check passes without evaluating any of them
    Bq = bicovariant_build(ctx, "zeta_q")
    assert len((Bq.C.star() - Bq.C).terms) == 8

    def refuse(*args):
        raise AssertionError("a functional word was evaluated")
    monkeypatch.setattr(DualContext, "eval_word_on_word", refuse)
    checks = hermiticity_check(Bq, degree=3)
    assert all(ok for _, ok, _ in checks), checks


def test_non_hermitean_c_is_refused_at_the_corpus_degree(ctx, B):
    C = B.C + DualElement(ctx, {(BF(LP, 1, 2),): ONE})
    mutant = BicovariantOutput(ctx, B.zeta_name, B.fodc, C, B.Omega, B.A, B.TrA)
    assert hermiticity_check(mutant, degree=3)[1] == (
        "central_element_hermitean", False, {"degree": 3})


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
    gammas = [{(lab, w): c
               for lab, poly in B.fodc.differential(b).left_mul(a).terms.items()
               for w, c in poly.terms.items()} for a, b in pairs]
    images = [tau_central(a, b, B).terms for a, b in pairs]
    assert exact_rank(_flatten(gammas)) == 16
    assert exact_rank(_flatten(images)) == 16


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
