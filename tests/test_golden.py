"""Report content of every shipped scenario, pinned against golden files.

``tests/data/golden/<name>.json`` holds the exit code and the report of
``ncgv verify builtin:<name>`` at seed 0.  Reports are compared with the
benchmark's correctness gate: exact fields must match exactly, and a float
residual must be equal or, like its golden value, at most the check's ``tol``.
``tests/data/bicovariant/<zeta>.json`` holds the output of ``ncgv
build-bicovariant --zeta <zeta>``, compared byte for byte.
Regenerate a file only from a commit whose reports are known to be right.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from ncgv import fodc
from ncgv.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "golden"
BICOVARIANT = ROOT / "tests" / "data" / "bicovariant"
SCENARIOS = sorted(p.stem for p in (ROOT / "src" / "ncgv" / "data" / "scenarios").glob("*.json"))


def _load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


gate = _load_perfbench("gate")
workloads = _load_perfbench("workloads")


@pytest.mark.parametrize("zeta", ["eps", "zeta_q"])
def test_bicovariant_build_matches_golden(zeta, tmp_path):
    # the serialized calculus of ncgv build-bicovariant, byte for byte
    out = tmp_path / "calculus.json"
    assert main(["build-bicovariant", "--zeta", zeta, "--out", str(out)]) == 0
    assert out.read_bytes() == (BICOVARIANT / f"{zeta}.json").read_bytes()


def test_every_scenario_has_a_golden_report():
    assert SCENARIOS == sorted(p.stem for p in GOLDEN.glob("*.json"))
    assert len(SCENARIOS) == 8


@pytest.mark.parametrize("name", SCENARIOS)
def test_report_matches_golden(name, tmp_path):
    golden = json.loads((GOLDEN / f"{name}.json").read_text())
    out = tmp_path / "report.json"
    code = main(["verify", f"builtin:{name}", "--out", str(out)])
    report = json.loads(out.read_text())
    assert gate.compare(golden, report, code, seed=0) == []


def test_exact_slq2_workload_matches_its_benchmark_reference(tmp_path, monkeypatch):
    # hopf_axioms at degree 4 and prop1 at degree 3, both certified from the
    # generators; the shipped scenarios reach them only at degrees 3 and 2.
    # Every check binds the one calculus (eps), whose structure matrix is
    # certified once, in its build validation
    certified = []
    multiplicative = fodc.multiplicative
    monkeypatch.setattr(fodc, "multiplicative",
                        lambda M: certified.append(M) or multiplicative(M))
    scenario = tmp_path / "exact_slq2.json"
    scenario.write_text(json.dumps(workloads.scenario("exact_slq2", 0)))
    out = tmp_path / "report.json"
    code = main(["verify", str(scenario), "--seed", "0", "--out", str(out)])
    report = json.loads(out.read_text())
    assert gate.compare(gate.load_reference("exact_slq2"), report, code, seed=0) == []
    assert len(certified) == 1
