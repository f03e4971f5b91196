"""Numeric truncated representations and the exact formal module model."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

from ncgv import hilbert
from ncgv.algebra import confluence_check
from ncgv.cli import run_scenario
from ncgv.commrep import disc_block_c, quantum_space_commrep_report
from ncgv.fodc import GammaElement, QuantumSpaceCalculus, builtin_calculus
from ncgv.hilbert import (Diagonals, Ex3Model, HilbertError, SlotOperator, TruncatedRep,
                          _lam2, _norm, disc_commrep, disc_rep, ex3_build, ex3_report,
                          ex3_ring, numeric_verify, shift_weights, summability_report,
                          weyl_commrep_residuals, weyl_rep)
from ncgv.scalars import ONE, QScalar, ZERO

qp = QScalar.q_power

TOL = 1e-12


# -- quantum disc -------------------------------------------------------------


def test_disc_rep_boundary_and_spectrum():
    M, q = 64, 0.5
    rep = disc_rep(M, q)
    Z, Zs = rep.mats["z"], rep.mats["z*"]
    e0 = np.zeros(M)
    e0[0] = 1.0
    assert np.linalg.norm(Zs.toarray() @ e0) == 0.0  # lambda_0 = 0
    onemzz = np.eye(M) - (Zs @ Z).toarray()
    for n in range(M - 1):
        assert abs(onemzz[n, n] - q ** (2 * n + 2)) <= TOL


def test_disc_relation_residual():
    M, q = 64, 0.5
    rep = disc_rep(M, q)
    relations = rep.relation_residuals()
    adjoints = rep.adjoint_residuals()
    assert [lhs for lhs, _ in relations] == ["z* z"]
    assert [row for row, _ in adjoints] == ["star(z) = adjoint(z)", "star(z*) = adjoint(z*)"]
    assert all(r <= TOL for _, r in relations + adjoints)


def test_disc_commrep_all_classes():
    M, q = 64, 0.5
    rep2, F = disc_commrep(M, q)
    calc = builtin_calculus("disc")
    report = numeric_verify(rep2, F=F, calc=calc, tol=TOL)
    assert report["status"] == "pass", report
    assert report["classes"]["f_symmetry"] <= TOL
    assert report["classes"]["bimodule_rows"] <= TOL
    assert len(report["rows"]) == 4


def test_disc_commutator_block_value():
    # lower-left of i[F, pi2(z)] equals i q^{-2}(I - pi(z* z)) on the mask
    M, q = 64, 0.5
    rep2, F = disc_commrep(M, q)
    Z = rep2.mats["z"].toarray()[:M, :M]
    comm = (F @ rep2.mats["z"] - rep2.mats["z"] @ F).toarray()
    lower = comm[M:, :M]
    target = (np.eye(M) - Z.conj().T @ Z) / (q * q)
    first = rep2.keep[rep2.keep < M]  # the kept indices of the first copy
    kept = np.ix_(first, first)
    assert np.linalg.norm(lower[kept] - target[kept], 2) <= TOL


def one_entry(dim, i, j, value):
    """The ``Diagonals`` with ``value`` at (i, j) and zeros elsewhere."""
    return Diagonals.from_entries(dim, np.array([i]), np.array([j]), np.array([value]))


def test_disc_perturbation_detected():
    M, q = 32, 0.5
    rep2, F = disc_commrep(M, q)
    # off the diagonals of F (a zero of Z): the residuals it reaches are no
    # partial permutations, so they take the dense SVD
    F2 = F + one_entry(2 * M, 3, M + 4, 1e-6)
    calc = builtin_calculus("disc")
    with svd_calls() as svd:
        report = numeric_verify(rep2, F=F2, calc=calc, tol=TOL)
    assert svd.call_count > 0
    assert report["status"] == "fail"
    assert 1e-8 < report["classes"]["bimodule_rows"] < 1e-3


def test_disc_second_copy_perturbation_detected():
    # the doubled model keeps the leading block of both copies
    M, q = 32, 0.5
    rep2, F = disc_commrep(M, q)
    F2 = F + one_entry(2 * M, M + 3, 4, 1e-6)
    report = numeric_verify(rep2, F=F2, calc=builtin_calculus("disc"), tol=TOL)
    assert report["classes"]["f_symmetry"] > TOL
    assert report["classes"]["bimodule_rows"] > TOL


def partial_disc_calculus():
    """The disc calculus without d z, so the rows of dz name a label that has
    no unit differential, and with one dz* row that names dz."""
    calc = builtin_calculus("disc")
    pres = calc.pres
    rows = dict(calc.rows)
    rows[("dz*", "z")] = GammaElement(pres, {"dz*": pres.gen("z").scale(qp(2)),
                                             "dz": pres.gen("z")})
    return QuantumSpaceCalculus("disc-partial", pres, calc.labels,
                                {"z*": calc.dmap["z*"]}, rows)


def test_rows_without_commutator_are_skipped():
    calc = partial_disc_calculus()
    results, comms = quantum_space_commrep_report(calc, disc_block_c(calc.pres))
    assert list(comms) == ["dz*"]
    assert results == [
        ("dz.z", "skipped", "label without generator"),
        ("dz.z*", "skipped", "label without generator"),
        ("dz*.z", "skipped", "no commutator image for dz"),
        ("dz*.z*", "pass", None),
    ]
    rep2, F = disc_commrep(16, 0.5)
    report = numeric_verify(rep2, F=F, calc=calc, tol=TOL)
    assert [row for row, _ in report["rows"]] == ["dz*.z", "dz*.z*"]
    assert report["rows"][0][1] is None
    assert report["classes"]["bimodule_rows"] == report["rows"][1][1] <= TOL
    assert report["status"] == "pass"


def test_degenerate_f_flagged():
    M, q = 16, 0.5
    rep2, F = disc_commrep(M, q)
    report = numeric_verify(rep2, F=0 * F, calc=builtin_calculus("disc"),
                            tol=TOL)
    assert any("degenerate" in note for note in report["notes"])


def test_masked_residual_monotone_in_dimension():
    q = 0.5
    small = disc_rep(32, q)
    full = disc_rep(64, q)
    small_res = max(r for _, r in small.relation_residuals())
    # same kept set on the larger model: weights are dimension-independent
    large = TruncatedRep(full.pres, full.s_value, full.mats, np.arange(31))
    large_res = max(r for _, r in large.relation_residuals())
    assert large_res <= small_res + 1e-15


@pytest.mark.parametrize("M", [16, 64])
def test_doubled_disc_keeping_the_top_rows_fails(M):
    q = 0.5
    rep2, F = disc_commrep(M, q)
    assert rep2.keep.tolist() == [*range(M - 1), *range(M, 2 * M - 1)]
    calc = builtin_calculus("disc")
    assert numeric_verify(rep2, F=F, calc=calc, tol=TOL)["status"] == "pass"
    # the top row n = M - 1 of each copy lacks its move to n = M
    mutant = TruncatedRep(rep2.pres, rep2.s_value, rep2.mats, np.arange(2 * M))
    report = numeric_verify(mutant, F=F, calc=calc, tol=TOL)
    assert report["status"] == "fail"
    assert report["classes"]["relations"] > 0.9
    assert report["classes"]["bimodule_rows"] > 5.0


def test_doubled_disc_with_a_scaled_star_image_fails():
    M, q = 16, 0.5
    rep2, F = disc_commrep(M, q)
    Z = rep2.mats["z"]
    mutant = TruncatedRep(rep2.pres, rep2.s_value, {"z": Z, "z*": 2 * Z.adjoint()},
                          rep2.keep)
    report = numeric_verify(mutant, F=F, calc=builtin_calculus("disc"), tol=TOL)
    assert report["status"] == "fail"
    assert report["classes"]["star_compatibility"] > 0.9


def test_disc_rejects_bad_parameters():
    with pytest.raises(HilbertError):
        disc_rep(64, 1.5)
    with pytest.raises(HilbertError):
        disc_rep(1, 0.5)


def dense_disc_commrep(M, q):
    """The dense construction of the doubled model, written out."""
    Z = np.zeros((M, M), dtype=complex)
    lam = shift_weights(q, M)
    for n in range(M - 1):
        Z[n + 1, n] = lam[n + 1]
    mats = {}
    for g, m in {"z": Z, "z*": Z.conj().T}.items():
        big = np.zeros((2 * M, 2 * M), dtype=complex)
        big[:M, :M] = m
        big[M:, M:] = m
        mats[g] = big
    F = np.zeros((2 * M, 2 * M), dtype=complex)
    F[:M, M:] = Z / (1 - q * q)
    F[M:, :M] = Z.conj().T / (1 - q * q)
    return mats, F


def test_sparse_disc_model_equals_dense_construction():
    M, q = 64, 0.5
    rep2, F = disc_commrep(M, q)
    mats, dense_f = dense_disc_commrep(M, q)
    assert all(isinstance(m, Diagonals) for m in [F, rep2.one, *rep2.mats.values()])
    assert rep2.mats.keys() == mats.keys()
    for g, m in mats.items():
        assert np.array_equal(rep2.mats[g].toarray(), m)
    assert np.array_equal(F.toarray(), dense_f)
    assert np.array_equal(rep2.one.toarray(), np.eye(2 * M))
    # one weighted shift per generator, and F on the two diagonals +-(M - 1)
    assert [list(m.diags) for m in rep2.mats.values()] == [[-1], [1]]
    assert sorted(F.diags) == [1 - M, M - 1]


def disc_scenario(*dims):
    return {"name": "disc_scaled", "algebra": "disc",
            "checks": [{"name": "disc_numeric", "dim": M} for M in dims]}


def test_disc_numeric_scaled_to_4096():
    small, large = run_scenario(disc_scenario(64, 4096))["checks"]
    assert large["status"] == small["status"] == "pass"
    assert large["mask"] == 4095
    assert large["classes"] == small["classes"]


def test_shipped_numeric_checks_take_no_dense_svd():
    # the checks of the numeric benchmark workload: every residual they norm
    # is a weighted partial permutation, so none needs the SVD
    scenario = {"name": "numeric", "algebra": "disc", "checks": [
        {"name": "disc_numeric", "dim": 512, "q": 0.5, "tol": TOL},
        {"name": "weyl_numeric", "m": 64, "tol": TOL},
        {"name": "ex3_symbolic", "M": 24}]}
    with mock.patch.object(np.linalg, "norm", side_effect=AssertionError("dense SVD")):
        checks = run_scenario(scenario)["checks"]
    assert [check["status"] for check in checks] == ["pass"] * 3


def test_disc_perturbation_detected_at_4096():
    # one stored entry of F far outside the 64-dimensional model
    M, q = 4096, 0.5
    rep2, F = disc_commrep(M, q)
    F = F + one_entry(2 * M, 4000, M + 3999, 1e-6)
    report = numeric_verify(rep2, F=F, calc=builtin_calculus("disc"), tol=TOL)
    assert report["status"] == "fail"
    assert 1e-8 < report["classes"]["f_symmetry"] < 1e-3
    assert 1e-8 < report["classes"]["bimodule_rows"] < 1e-3
    assert report["classes"]["relations"] <= TOL


# -- the diagonal format against CSR ------------------------------------------------

finite = st.floats(-1e3, 1e3).filter(lambda x: x == 0 or abs(x) > 1e-6)
nonzero = finite.filter(lambda x: x != 0)


@st.composite
def weighted_shifts(draw, n):
    """A real n x n sum of up to three weighted shifts, as a ``Diagonals`` and,
    built from a dense array without it, as a CSR matrix."""
    diags, dense = {}, np.zeros((n, n), dtype=complex)
    for k in draw(st.sets(st.integers(1 - n, n - 1), max_size=3)):
        band = np.array(draw(st.lists(finite, min_size=n - abs(k), max_size=n - abs(k))))
        diags[k] = np.zeros(n, dtype=complex)
        diags[k][max(0, -k):n - max(0, k)] = band
        dense += np.diag(band, k)
    return Diagonals(n, diags), sparse.csr_array(dense)


@st.composite
def shift_pairs(draw):
    n = draw(st.integers(1, 10))
    return draw(weighted_shifts(n)), draw(weighted_shifts(n))


def sorted_entries(rows, cols, vals):
    """The nonzero entries in row-major order, values as their float bits."""
    kept = vals != 0
    order = np.lexsort((cols[kept], rows[kept]))
    return rows[kept][order].tolist(), cols[kept][order].tolist(), vals[kept][order].tobytes()


def same_bits(ours, csr):
    """The same nonzero entries with the same float bits, signs of zero
    parts included (``toarray`` of a CSR matrix adds its entries to +0, so
    it cannot tell them apart)."""
    coo = csr.tocoo()
    return (ours.shape == csr.shape
            and sorted_entries(*ours.entries()) == sorted_entries(coo.row, coo.col, coo.data))


@settings(max_examples=200, deadline=None)
@given(shift_pairs(), nonzero, st.data())
def test_diagonals_agree_with_csr_bit_for_bit(pair, c, data):
    (a, a_csr), (b, b_csr) = pair
    assert same_bits(a, a_csr)
    assert same_bits(a @ b, a_csr @ b_csr)
    assert same_bits(a + b, a_csr + b_csr)
    assert same_bits(a - b, a_csr - b_csr)
    assert same_bits(c * a, c * a_csr) and same_bits(a / c, a_csr / c)
    assert same_bits(a.adjoint(), a_csr.conj().T)
    assert same_bits((1j * a).adjoint(), (1j * a_csr).conj().T)
    size = data.draw(st.integers(1, 3))
    grid = [[data.draw(st.sampled_from([(a, a_csr), (b, b_csr)])) for _ in range(size)]
            for _ in range(size)]
    assert same_bits(Diagonals.block([[ours for ours, _ in line] for line in grid]),
                     sparse.bmat([[csr for _, csr in line] for line in grid]))
    idx = np.array(sorted(data.draw(st.sets(st.integers(0, a.dim - 1), min_size=1))))
    assert same_bits(a.restrict(idx), a_csr[idx][:, idx])


@st.composite
def partial_permutations(draw, min_size=1):
    """A square matrix with at most one nonzero in each row and column, as its
    (rows, cols, values)."""
    n = draw(st.integers(min_size, 12))
    k = draw(st.integers(min_size, n))
    rows = np.array(draw(st.permutations(range(n)))[:k])
    cols = np.array(draw(st.permutations(range(n)))[:k])
    vals = np.array(draw(st.lists(finite, min_size=k, max_size=k)), dtype=complex)
    if draw(st.booleans()):
        vals = vals + 1j * np.array(draw(st.lists(finite, min_size=k, max_size=k)))
    return n, rows, cols, vals


def svd_calls():
    return mock.patch.object(np.linalg, "norm", wraps=np.linalg.norm)


@settings(max_examples=200, deadline=None)
@given(partial_permutations())
def test_norm_of_partial_permutation_is_largest_entry(perm):
    mat = Diagonals.from_entries(*perm)
    want = np.linalg.norm(mat.toarray(), 2)
    with svd_calls() as svd:
        got = _norm(mat)
    assert svd.call_count == 0
    assert abs(got - want) <= 1e-12 * want


@settings(max_examples=100, deadline=None)
@given(partial_permutations(min_size=2), st.booleans(), st.data())
def test_norm_with_a_shared_row_or_column_takes_the_svd(perm, share_row, data):
    n, rows, cols, vals = perm
    i, j = rows[0], cols[0]
    vals[0] = 2.0 - 1.0j
    # row i and column j hold no other entry, so the new one is no overwrite
    if share_row:
        extra = i, data.draw(st.sampled_from(sorted(set(range(n)) - {j})))
    else:
        extra = data.draw(st.sampled_from(sorted(set(range(n)) - {i}))), j
    mat = Diagonals.from_entries(n, np.append(rows, extra[0]), np.append(cols, extra[1]),
                                 np.append(vals, 1.5))
    with svd_calls() as svd:
        got = _norm(mat)
    assert svd.call_count == 1
    assert got == np.linalg.norm(mat.toarray(), 2)


def test_norm_of_zero_and_stored_zeros():
    assert _norm(Diagonals(5, {})) == 0.0
    stored = Diagonals.from_entries(3, np.array([0, 1]), np.array([1, 1]), np.zeros(2))
    assert _norm(stored) == 0.0
    zeros = Diagonals(3, {0: np.zeros(3, dtype=complex), 1: np.zeros(3, dtype=complex)})
    assert not zeros.any() and _norm(zeros) == 0.0
    # stored zeros beside the entries of a partial permutation keep the certificate
    mat = Diagonals(3, {2: np.array([3.0, 0, 0], dtype=complex),
                        0: np.zeros(3, dtype=complex),
                        -1: np.array([0, -4.0, 0], dtype=complex)})
    with svd_calls() as svd:
        assert _norm(mat) == 4.0
    assert svd.call_count == 0


# -- summability -------------------------------------------------------------------


def test_summability_closed_form():
    rep = summability_report(0.5, 64)
    q = 0.5
    closed = q * q * (1 - q ** 128) / (1 - q * q)
    assert abs(rep["partial_sum"] - closed) <= TOL
    assert rep["difference"] <= TOL
    assert rep["tail_bound"] == q ** 130 / (1 - q * q)
    assert rep["monotone"]


def test_summability_single_term():
    rep = summability_report(0.3, 1)
    assert abs(rep["partial_sum"] - 0.09) <= 1e-15


def test_summability_monotone_various_q():
    for q in (0.1, 0.5, 0.9):
        assert summability_report(q, 40)["monotone"]


# -- clock and shift ------------------------------------------------------------------


def test_weyl_relation_and_unitarity():
    m = 8
    rep = weyl_rep(m)
    X, Y = rep.mats["x"].toarray(), rep.mats["y"].toarray()
    q = np.exp(2j * np.pi / m)
    assert np.linalg.norm(X @ Y - q * Y @ X, 2) <= TOL
    assert np.linalg.norm(X @ X.conj().T - np.eye(m), 2) <= TOL
    assert np.linalg.norm(Y @ Y.conj().T - np.eye(m), 2) <= TOL
    assert max(r for _, r in rep.relation_residuals()) <= TOL
    # unitary, but not a *-representation of real_plane's star x* = x, y* = y:
    # X - X^H and Y - Y^H each have norm 2
    assert [r for _, r in rep.adjoint_residuals()] == pytest.approx([2.0] * 3)


def test_weyl_commutators_match_derived_images():
    report = weyl_commrep_residuals(8, tol=TOL)
    assert report["status"] == "pass", report
    assert report["weyl_relation_residual"] <= TOL
    assert all(v <= TOL for v in report["commutator_residuals"].values())
    assert any("root-of-unity" in n for n in report["notes"])


def test_weyl_with_the_shift_transposed_fails():
    m = 8
    rep = weyl_rep(m)
    Y = rep.mats["y"]
    mutant = TruncatedRep(rep.pres, rep.s_value, {"x": rep.mats["x"], "y": Y.adjoint(),
                                                  "yinv": Y}, rep.keep, rep.notes)
    with mock.patch.object(hilbert, "weyl_rep", lambda _: mutant):
        report = weyl_commrep_residuals(m, tol=TOL)
    assert report["status"] == "fail"
    # X Y^T = q^-1 Y^T X, so x y - q y x has norm |q^-1 - q| = 2 sin(2 pi / m)
    assert report["weyl_relation_residual"] == pytest.approx(2 * math.sin(2 * math.pi / m))


def test_weyl_rejects_small_m():
    with pytest.raises(HilbertError):
        weyl_rep(2)


# -- extended plane, formal module ------------------------------------------------------


@pytest.fixture(scope="module")
def model():
    return ex3_build(6)


def test_ex3_ring_is_confluent():
    ring = ex3_ring()
    assert len(ring.generators) == 8 and len(ring.rules) == 15
    assert confluence_check(ring, max_degree=5) == []


def test_ex3_ring_reductions():
    ring = ex3_ring()
    # the squared weights are Q(s) scalars: lambda_0^2 = 0,
    # lambda_n^2 = 1 - q^(2n)
    assert _lam2(0) == ZERO
    assert _lam2(2) == ONE - qp(4)
    # polar decomposition: N reduces to w|N|
    assert ring.poly({("N",): ONE}) == ring.poly({("w", "|N|"): ONE})
    # conjugation: T N = q N T after reduction
    tn = ring.poly({("T", "N"): ONE})
    nt = ring.poly({("N", "T"): ONE})
    assert tn == nt.scale(qp(1))


def test_ex3_relations_consistent_variant(model):
    report = model.relation_report()
    assert all(status == "pass" for _, status, _ in report), report


def test_ex3_relations_fail_with_literal_shifts():
    literal = ex3_build(5, pi_variant="literal")
    report = literal.relation_report()
    failed = {rel for rel, status, _ in report if status == "fail"}
    assert ("y", "x") in {tuple(r.split()) for r in failed} or failed


def test_ex3_row_transport_consistent(model):
    report = model.row_transport_report()
    assert all(status == "pass" for _, status, _ in report), report
    assert len(report) == 8


def test_ex3_literal_row_fails_exactly():
    # the literal correction coefficient leaves a nonzero residual
    # lambda_n^2 q^(2n) (q^2-1)(q^2-q^-2) |N|^2 T at target n-1 (in the basis
    # d_n e_n; lambda_n times it in the basis e_n)
    m = ex3_build(6, rows_variant="literal")
    report = {rel: (status, wit) for rel, status, wit in m.row_transport_report()}
    status, witness = report["dx.x*"]
    assert status == "fail"
    assert all(report[k][0] == "pass" for k in report if k != "dx.x*")
    comms = {label: m.F @ m.pi[g] - m.pi[g] @ m.F for label, g in (("dx", "x"), ("dy", "y"))}
    row = m.calc.rows[("dx", "x*")]
    lhs = comms["dx"].compose(m.pi["x*"])
    rhs = None
    for lab2, h in row.terms.items():
        piece = m.pi_poly(h).compose(comms[lab2])
        rhs = piece if rhs is None else rhs + piece
    delta = lhs - rhs
    n = 2
    got = delta.entry(n - 1, n)
    coeff = qp(2 * n) * (qp(2) - ONE) * (qp(2) - qp(-2))
    want = m.ring.poly({("|N|", "|N|", "T"): (ONE - qp(2 * n)) * coeff})
    assert got == want


RELATIONS = ["y x", "y* x", "x* x", "x* y", "y* x*", "y* y"]
ROWS = ["dx.x", "dx.x*", "dx.y", "dx.y*", "dy.x", "dy.x*", "dy.y", "dy.y*"]
LITERAL_PI_RELATIONS = {"y x", "y* x", "x* y", "y* x*", "y* y"}
LITERAL_PI_ROWS = {"dx.x*", "dx.y", "dx.y*", "dy.y", "dy.y*"}


def statuses(names, failed):
    return [[name, "fail" if name in failed else "pass"] for name in names]


@pytest.mark.parametrize("M", [3, 6, 9])
@pytest.mark.parametrize("pi_variant, rows_variant, bad_relations, bad_rows", [
    ("consistent", "consistent", set(), set()),
    ("consistent", "literal", set(), {"dx.x*"}),
    ("literal", "consistent", LITERAL_PI_RELATIONS, LITERAL_PI_ROWS),
    ("literal", "literal", LITERAL_PI_RELATIONS, LITERAL_PI_ROWS),
])
def test_ex3_statuses_pinned(M, pi_variant, rows_variant, bad_relations, bad_rows):
    report = ex3_report(ex3_build(M, pi_variant, rows_variant))
    assert [list(r) for r in report["relations"]] == statuses(RELATIONS, bad_relations)
    assert [list(r) for r in report["rows"]] == statuses(ROWS, bad_rows)
    assert report["f_symmetry"] and report["boundary"]
    assert report["status"] == ("fail" if bad_relations or bad_rows else "pass")


@pytest.mark.parametrize("variants", [("litteral", "consistent"), ("consistent", "consistant")])
def test_ex3_unknown_variant_rejected(variants):
    with pytest.raises(HilbertError, match="unknown"):
        ex3_build(6, *variants)


def test_ex3_weight_alive_at_slot_0_fails_boundary(monkeypatch):
    # a lowering move from slot 0 that keeps its weight reaches slot -1
    monkeypatch.setattr(hilbert, "_lam2", lambda n: _lam2(n) if n else ONE)
    model = ex3_build(6)
    assert model.pi["y*"].apply(0) == {-1: model.ring.poly({("|N|",): ONE})}
    assert not ex3_report(model)["boundary"]


def test_ex3_wrong_weight_exponent_fails(monkeypatch):
    monkeypatch.setattr(hilbert, "_lam2", lambda n: ONE - qp(2 * n + 2))
    report = ex3_report(ex3_build(6))
    assert dict(report["relations"])["y* y"] == "fail"
    assert dict(report["rows"])["dx.x*"] == "fail"


def test_slot_build_keeps_nonzero_moves_below_slot_0():
    ring = ex3_ring()
    absN = ring.poly({("|N|",): ONE})
    # a zero coefficient is no move, and a move above top is dropped
    op = SlotOperator.build(ring, 2, lambda n: [(n - 1, absN), (n, absN.scale(ZERO)),
                                                (n + 1, absN)])
    assert op.apply(0) == {-1: absN, 1: absN}
    assert set(op.terms) == {(0, -1), (1, 0), (2, 1), (0, 1), (1, 2)}


def test_ex3_f_symmetry(model):
    assert model.f_symmetry_report()[0][1]


def test_ex3_boundary(model):
    name, ok, _ = model.boundary_report()[0]
    assert ok


def test_ex3_report_status(model):
    report = ex3_report(model)
    assert report["status"] == "pass"
    assert report["mask"] == 4
    bad = ex3_report(ex3_build(6, rows_variant="literal"))
    assert bad["status"] == "fail"


def test_ex3_commutator_shapes(model):
    # [F, pi(x)] carries lowering NT and diagonal NS terms only
    cx = model.F @ model.pi["x"] - model.pi["x"] @ model.F
    for n in range(1, model.mask + 1):
        assert (n + 1, ) not in [(m,) for m, _ in cx.table.get(n, ())]
    cy = model.F @ model.pi["y"] - model.pi["y"] @ model.F
    for n in range(model.mask + 1):
        targets = [m for m, _ in cy.table.get(n, ())]
        assert targets in ([], [n])
