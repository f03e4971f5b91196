"""Numeric truncated representations and the exact formal module model."""

import math

import numpy as np
import pytest

from ncgv.algebra import confluence_check
from ncgv.commrep import disc_block_c, quantum_space_commrep_report
from ncgv.fodc import GammaElement, QuantumSpaceCalculus, builtin_calculus
from ncgv.hilbert import (Ex3Model, HilbertError, disc_commrep, disc_rep,
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
    F2 = F.copy()
    F2[3, M + 4] += 1e-6
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
    report = numeric_verify(rep2, F=np.zeros_like(F), calc=builtin_calculus("disc"),
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
