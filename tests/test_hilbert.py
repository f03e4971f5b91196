"""Numeric truncated representations and the exact formal module model."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

from ncgv.algebra import confluence_check
from ncgv.cli import run_scenario
from ncgv.commrep import disc_block_c, quantum_space_commrep_report
from ncgv.fodc import GammaElement, QuantumSpaceCalculus, builtin_calculus
from ncgv.hilbert import (Ex3Model, HilbertError, _norm, disc_commrep, disc_rep,
                          ex3_build, ex3_report, ex3_ring, numeric_verify,
                          shift_weights, summability_report, weyl_commrep_residuals,
                          weyl_rep)
from ncgv.scalars import ONE, QScalar

qp = QScalar.q_power

TOL = 1e-12


# -- quantum disc -------------------------------------------------------------


def test_disc_rep_boundary_and_spectrum():
    M, q = 64, 0.5
    rep = disc_rep(M, q)
    Z, Zs = rep.mats["z"], rep.mats["z*"]
    e0 = np.zeros(M)
    e0[0] = 1.0
    assert np.linalg.norm(Zs @ e0) == 0.0  # lambda_0 = 0
    onemzz = np.eye(M) - Zs @ Z
    for n in range(M - 1):
        assert abs(onemzz[n, n] - q ** (2 * n + 2)) <= TOL


def test_disc_relation_residual():
    M, q = 64, 0.5
    rep = disc_rep(M, q)
    report = numeric_verify(rep, tol=TOL)
    assert report["classes"]["relations"] <= TOL
    assert report["classes"]["star_compatibility"] <= TOL
    assert report["status"] == "pass"


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
    Z = rep2.mats["z"][:M, :M]
    comm = F @ rep2.mats["z"] - rep2.mats["z"] @ F
    lower = comm[M:, :M]
    target = (np.eye(M) - Z.conj().T @ Z) / (q * q)
    mask = rep2.mask
    assert np.linalg.norm(lower[:mask, :mask] - target[:mask, :mask], 2) <= TOL


def test_disc_perturbation_detected():
    M, q = 32, 0.5
    rep2, F = disc_commrep(M, q)
    # off the sparsity pattern (a zero of Z): the one residual that takes the
    # dense SVD; LIL format takes a new entry without a SparseEfficiencyWarning
    F2 = F.tolil()
    F2[3, M + 4] += 1e-6
    F2 = F2.tocsr()
    calc = builtin_calculus("disc")
    report = numeric_verify(rep2, F=F2, calc=calc, tol=TOL)
    assert report["status"] == "fail"
    assert 1e-8 < report["classes"]["bimodule_rows"] < 1e-3


def test_disc_second_copy_perturbation_detected():
    # the doubled model masks the leading block of both copies
    M, q = 32, 0.5
    rep2, F = disc_commrep(M, q)
    F2 = F.copy()
    F2[M + 3, 4] += 1e-6
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
    large = disc_rep(64, q)
    small_res = max(r for _, r in small.relation_residuals())
    # same mask on the larger model: weights are dimension-independent
    large.mask = 31
    large_res = max(r for _, r in large.relation_residuals())
    assert large_res <= small_res + 1e-15


def test_disc_rejects_bad_parameters():
    with pytest.raises(HilbertError):
        disc_rep(64, 1.5)
    with pytest.raises(HilbertError):
        disc_rep(1, 0.5)


def old_dense_disc_commrep(M, q):
    """The dense construction the sparse model replaced, written out."""
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
    mats, dense_f = old_dense_disc_commrep(M, q)
    assert sparse.issparse(F) and all(map(sparse.issparse, rep2.mats.values()))
    assert rep2.mats.keys() == mats.keys()
    for g, m in mats.items():
        assert np.array_equal(rep2.mats[g].toarray(), m)
    assert np.array_equal(F.toarray(), dense_f)
    assert np.array_equal(rep2.one.toarray(), np.eye(2 * M))


def disc_scenario(*dims):
    return {"name": "disc_scaled", "algebra": "disc",
            "checks": [{"name": "disc_numeric", "dim": M} for M in dims]}


def test_disc_numeric_scaled_to_4096():
    small, large = run_scenario(disc_scenario(64, 4096))["checks"]
    assert large["status"] == small["status"] == "pass"
    assert large["mask"] == 4095
    assert large["classes"] == small["classes"]


def test_disc_perturbation_detected_at_4096():
    # one stored entry of F far outside the 64-dimensional model
    M, q = 4096, 0.5
    rep2, F = disc_commrep(M, q)
    F[4000, M + 3999] += 1e-6
    report = numeric_verify(rep2, F=F, calc=builtin_calculus("disc"), tol=TOL)
    assert report["status"] == "fail"
    assert 1e-8 < report["classes"]["f_symmetry"] < 1e-3
    assert 1e-8 < report["classes"]["bimodule_rows"] < 1e-3
    assert report["classes"]["relations"] <= TOL


# -- spectral norm ---------------------------------------------------------------

finite = st.floats(-1e3, 1e3).filter(lambda x: x == 0 or abs(x) > 1e-6)


@st.composite
def partial_permutations(draw, min_size=1):
    """A sparse matrix with at most one stored entry in each row and column."""
    n, m = draw(st.integers(min_size, 12)), draw(st.integers(min_size, 12))
    k = draw(st.integers(min_size, min(n, m)))
    rows = draw(st.permutations(range(n)))[:k]
    cols = draw(st.permutations(range(m)))[:k]
    vals = np.array(draw(st.lists(finite, min_size=k, max_size=k)), dtype=complex)
    if draw(st.booleans()):
        vals = vals + 1j * np.array(draw(st.lists(finite, min_size=k, max_size=k)))
    return sparse.csr_array((vals, (rows, cols)), shape=(n, m))


def svd_calls():
    return mock.patch.object(np.linalg, "norm", wraps=np.linalg.norm)


@settings(max_examples=200, deadline=None)
@given(partial_permutations())
def test_norm_of_partial_permutation_is_largest_entry(mat):
    want = np.linalg.norm(mat.toarray(), 2)
    with svd_calls() as svd:
        got = _norm(mat)
    assert svd.call_count == 0
    assert abs(got - want) <= 1e-12 * want


@settings(max_examples=100, deadline=None)
@given(partial_permutations(min_size=2), st.booleans(), st.data())
def test_norm_with_a_shared_row_or_column_takes_the_svd(mat, share_row, data):
    coo = mat.tocoo()
    i, j = coo.row[0], coo.col[0]
    mat = mat.tolil()
    mat[i, j] = 2.0 - 1.0j
    if share_row:
        mat[i, data.draw(st.sampled_from(sorted(set(range(mat.shape[1])) - {j})))] = 1.5
    else:
        mat[data.draw(st.sampled_from(sorted(set(range(mat.shape[0])) - {i}))), j] = 1.5
    mat = mat.tocsr()
    with svd_calls() as svd:
        got = _norm(mat)
    assert svd.call_count == 1
    assert got == np.linalg.norm(mat.toarray(), 2)


def test_norm_of_zero_and_stored_zeros():
    assert _norm(sparse.csr_array((5, 7), dtype=complex)) == 0.0
    assert _norm(np.zeros((3, 3), dtype=complex)) == 0.0
    zeros = sparse.csr_array(([0.0, 0.0], ([0, 1], [1, 1])), shape=(3, 3))
    assert zeros.nnz == 2 and _norm(zeros) == 0.0
    # stored zeros beside the entries of a partial permutation keep the certificate
    mat = sparse.csr_array(([3.0, 0.0, 0.0, -4.0], ([0, 0, 2, 1], [2, 0, 2, 0])),
                           shape=(3, 3))
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
    X, Y = rep.mats["x"], rep.mats["y"]
    q = np.exp(2j * np.pi / m)
    assert np.linalg.norm(X @ Y - q * Y @ X, 2) <= TOL
    assert np.linalg.norm(X @ X.conj().T - np.eye(m), 2) <= TOL
    assert np.linalg.norm(Y @ Y.conj().T - np.eye(m), 2) <= TOL
    assert max(r for _, r in rep.relation_residuals()) <= TOL
    assert max(r for _, r in rep.adjoint_residuals()) <= TOL


def test_weyl_commutators_match_derived_images():
    report = weyl_commrep_residuals(8, tol=TOL)
    assert report["status"] == "pass", report
    assert report["weyl_relation_residual"] <= TOL
    assert all(v <= TOL for v in report["commutator_residuals"].values())
    assert any("root-of-unity" in n for n in report["notes"])


def test_weyl_rejects_small_m():
    with pytest.raises(HilbertError):
        weyl_rep(2)


# -- extended plane, formal module ------------------------------------------------------


@pytest.fixture(scope="module")
def model():
    return ex3_build(6)


def test_ex3_ring_is_confluent():
    ring = ex3_ring(4)
    assert confluence_check(ring, max_degree=5).ok


def test_ex3_ring_reductions():
    ring = ex3_ring(4)
    # lam_0 = 0 and lam_n^2 = 1 - q^(2n) hold in the ring itself
    assert ring.poly({("lam0", "|N|"): ONE}).is_zero()
    sq = ring.poly({("lam2", "lam2"): ONE})
    assert sq == ring.poly({(): ONE - qp(4)})
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
    # lam_n q^(2n) (q^2-1)(q^2-q^-2) |N|^2 T at target n-1
    m = ex3_build(6, rows_variant="literal")
    report = {rel: (status, wit) for rel, status, wit in m.row_transport_report()}
    status, witness = report["dx.x*"]
    assert status == "fail"
    assert all(report[k][0] == "pass" for k in report if k != "dx.x*")
    comms = {"dx": m.F.commutator(m.pi["x"]), "dy": m.F.commutator(m.pi["y"])}
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
    want = m.ring.poly({(f"lam{n}", "|N|", "|N|", "T"): coeff})
    assert got == want


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
    cx = model.F.commutator(model.pi["x"])
    for n in range(1, model.mask + 1):
        assert (n + 1, ) not in [(m,) for m, _ in cx.table.get(n, ())]
    cy = model.F.commutator(model.pi["y"])
    for n in range(model.mask + 1):
        targets = [m for m, _ in cy.table.get(n, ())]
        assert targets in ([], [n])
