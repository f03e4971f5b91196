"""Tests of the benchmark itself: the correctness gate, and that tracing is
transparent and reaches every entry point it wraps.

The traced runs use the shipped scenarios and small scenarios with the same
checks as the workloads, so that the tests stay quick; the benchmark repeats
the reach check on the full workloads in every traced run.
"""

from __future__ import annotations

import copy
import json

import pytest

import gate
import run
import tracer as tracing
import workloads

# small scenarios with the checks of each workload
SMALL = {
    "exact_slq2": "builtin:slq2_full",
    "rank_faithfulness": "builtin:slq2_full",
    "property_random": "builtin:property_suites",
    "numeric_disc": {
        "name": "numeric_small", "algebra": "disc",
        "checks": [{"name": "disc_numeric", "dim": 16, "q": 0.5, "tol": 1e-12},
                   {"name": "weyl_numeric", "m": 8, "tol": 1e-12},
                   {"name": "ex3_symbolic", "M": 6}],
    },
}


def _scenario(tmp_path, spec):
    if isinstance(spec, str):
        return spec
    path = tmp_path / f"{spec['name']}.json"
    path.write_text(json.dumps(spec))
    return path


def _spawn(tmp_path, mode, spec, tag):
    rep = run.spawn(mode, _scenario(tmp_path, spec), 0, tmp_path, tag)
    assert rep.sidecar is not None, rep.stderr
    return rep


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Untraced and traced repetitions of the shipped and small scenarios."""
    tmp_path = tmp_path_factory.mktemp("runs")
    shipped = ["builtin:slq2_full", "builtin:disc_m64"]
    out = {}
    for mode, specs in (("plain", shipped), ("trace", shipped + list(SMALL.values()))):
        for spec in specs:
            key = (mode, json.dumps(spec))
            if key not in out:
                out[key] = _spawn(tmp_path, mode, spec, f"{mode}{len(out)}")
    return lambda mode, spec: out[(mode, json.dumps(spec))]


@pytest.fixture(scope="module")
def traced(runs):
    """The traced repetition of each workload's small scenario."""
    return {w: runs("trace", spec) for w, spec in SMALL.items()}


# -- gate ---------------------------------------------------------------------------


def _reference(workload):
    ref = gate.load_reference(workload)
    return ref, copy.deepcopy(ref["report"])


def test_reference_report_passes_the_gate():
    for workload in workloads.WORKLOADS:
        if workloads.deterministic(workload):
            ref, report = _reference(workload)
            assert gate.compare(ref, dict(report, seed=7), ref["exit_code"], 7) == []


@pytest.mark.parametrize("mutate", [
    lambda r: r["checks"][0]["detail"][2].__setitem__("tau_rank", 55),
    lambda r: r["checks"][0].__setitem__("status", "fail"),
    lambda r: r["checks"][0]["ranks"].append(56),
    lambda r: r["checks"][0].__setitem__("extra", 1),
    lambda r: r.__setitem__("seed", 3),
    lambda r: r["checks"][0]["detail"][0].__setitem__("faithful_on_corpus", 1),
])
def test_gate_flags_a_mutated_exact_report(mutate):
    ref, report = _reference("rank_faithfulness")
    report["seed"] = 0
    mutate(report)
    assert gate.compare(ref, report, 0, 0)


def test_gate_flags_wrong_exit_code():
    ref, report = _reference("rank_faithfulness")
    assert gate.compare(ref, report, 1, 0)


def test_gate_float_residuals_compare_against_tolerance():
    ref, report = _reference("numeric_disc")
    disc = report["checks"][0]
    assert disc["tol"] == 1e-12
    disc["classes"]["relations"] = 9e-13      # moved, still below tol
    assert gate.compare(ref, report, 0, 0) == []
    disc["classes"]["relations"] = 2e-12      # above tol
    assert gate.compare(ref, report, 0, 0)
    ref, report = _reference("numeric_disc")
    report["checks"][0]["q"] = 0.25           # an input, not a residual
    assert gate.compare(ref, report, 0, 0)


def test_check_passing_flags_failures_and_missing_checks():
    names = ["leibniz_random", "idempotence_random"]
    report = {"status": "pass", "checks": [{"check": n, "status": "pass"}
                                           for n in names]}
    assert gate.check_passing(report, 0, names) == []
    assert gate.check_passing(report, 1, names)
    assert gate.check_passing(report, 0, names + ["cross_assoc_random"])
    report["checks"][1]["status"] = "fail"
    assert gate.check_passing(report, 0, names)


# -- tracing ------------------------------------------------------------------------


@pytest.mark.parametrize("scenario", ["builtin:slq2_full", "builtin:disc_m64"])
def test_traced_report_is_byte_identical(runs, scenario):
    plain, traced = runs("plain", scenario), runs("trace", scenario)
    assert plain.exit_code == traced.exit_code == 0
    assert plain.report_text == traced.report_text


def test_every_wrapped_entry_point_is_reached(traced):
    for workload, rep in traced.items():
        called = {name for _, name, count, _, _ in rep.sidecar["spans"] if count}
        stressed = {name for name, _, _, stress in tracing.LAYER_TARGETS
                    if workload in stress}
        assert stressed - called == set(), workload


def test_names_imported_elsewhere_are_patched(traced):
    spans = traced["exact_slq2"].sidecar["spans"]
    parents = {(p, n) for p, n, count, _, _ in spans if count}
    assert ("commrep.faithfulness_rank", "linalg.rank") in parents
    assert ("hopf.derive_antipode", "linalg.solve") in parents
    assert any(p.startswith(tracing.CHECK_PREFIX) and n == "hopf.axiom_report"
               for p, n in parents)


def test_layer_metrics_cover_benchmark_json_and_add_up(traced):
    spec = run.load_spec()
    for workload, rep in traced.items():
        metrics, gap = run.layer_metrics(rep, [])
        metrics["trace.overhead_s"] = 0.0
        missing = [n for n in spec["per_layer"]
                   if n not in metrics and not n.startswith(run.CHECK_METRIC)]
        assert missing == [], workload
        assert abs(gap) <= run.ACCOUNTING_TOLERANCE * rep.wall
        assert metrics["trace.remainder_s"] > 0


def test_hilbert_idle_on_exact_layers(traced):
    metrics, _ = run.layer_metrics(traced["exact_slq2"], [])
    assert metrics["hilbert.self_s"] == 0 and metrics["hilbert.norm_calls"] == 0
    metrics, _ = run.layer_metrics(traced["numeric_disc"], [])
    assert metrics["hilbert.norm_calls"] > 0


def test_setup_probe_replays_session_calls(runs, tmp_path):
    calls = runs("plain", SMALL["rank_faithfulness"]).sidecar["setup_calls"]
    assert calls == [["context"], ["bicovariant", "eps"]]
    rep = run.spawn("setup", SMALL["rank_faithfulness"], 0, tmp_path, "probe",
                    replay=calls)
    assert rep.exit_code == 0 and rep.report_text is None
    assert rep.sidecar["setup_calls"] == calls
    assert 0 < rep.setup <= rep.wall
