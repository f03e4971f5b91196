"""Scenario runner: exit codes, determinism, report completeness."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ncgv
from ncgv import cli
from ncgv.algebra import first_failure, first_failures
from ncgv.cli import load_scenario, main, run_scenario

# the directory holding the package, for child interpreters
PACKAGE_ROOT = str(Path(ncgv.__file__).resolve().parent.parent)
README = Path(__file__).resolve().parent.parent / "README.md"


def run_cli(args, module="ncgv.cli"):
    path = os.pathsep.join(filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", module, *args],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    return proc.returncode, proc.stdout, proc.stderr


def test_builtin_scenario_passes(tmp_path):
    out = tmp_path / "report.json"
    code = main(["verify", "builtin:property_suites", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["status"] == "pass"
    assert report["seed"] == 0
    names = [c["check"] for c in report["checks"]]
    assert names == ["leibniz_random", "idempotence_random", "cross_assoc_random"]


def test_package_runs_as_a_module():
    # python -m ncgv is the ncgv command
    code, stdout, err = run_cli(["verify", "builtin:weyl_m8"], module="ncgv")
    assert code == 0, err
    assert json.loads(stdout)["status"] == "pass"
    assert (code, stdout, err) == run_cli(["verify", "builtin:weyl_m8"])


def test_unknown_check_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"name": "bad", "checks": [{"name": "frobnicate"}]}))
    code, _, err = run_cli(["verify", str(bad)])
    assert code == 2
    assert "frobnicate" in err


def test_unreadable_scenario_exits_2():
    code, _, _ = run_cli(["verify", "/nonexistent/scenario.json"])
    assert code == 2


def test_unreachable_tolerance_exits_1(tmp_path):
    out = tmp_path / "report.json"
    code = main(["verify", "builtin:disc_unreachable_tol", "--out", str(out)])
    assert code == 1
    report = json.loads(out.read_text())
    assert report["status"] == "fail"
    resid = report["checks"][0]["classes"]["relations"]
    assert resid > 1e-30


def test_every_check_reported_once(tmp_path):
    out = tmp_path / "report.json"
    code = main(["verify", "builtin:weyl_m8", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    doc = load_scenario("builtin:weyl_m8")
    assert len(report["checks"]) == len(doc["checks"])
    for item in report["checks"]:
        assert item["status"] in ("pass", "fail", "skipped")


def test_report_determinism(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["verify", "builtin:property_suites", "--out", str(a)]) == 0
    assert main(["verify", "builtin:property_suites", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_seed_recorded(tmp_path):
    out = tmp_path / "report.json"
    main(["verify", "builtin:property_suites", "--seed", "7", "--out", str(out)])
    assert json.loads(out.read_text())["seed"] == 7


def test_build_bicovariant_deterministic(tmp_path):
    a = tmp_path / "calc_a.json"
    b = tmp_path / "calc_b.json"
    assert main(["build-bicovariant", "--algebra", "slq2", "--zeta", "eps",
                 "--out", str(a)]) == 0
    assert main(["build-bicovariant", "--algebra", "slq2", "--zeta", "eps",
                 "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    doc = json.loads(a.read_text())
    assert len(doc["labels"]) == 4
    assert doc["zeta"] == "eps"


def test_build_bicovariant_rejects_bad_character():
    code, _, err = run_cli(["build-bicovariant", "--zeta", "nope"])
    assert code == 1
    assert "nope" in err


def test_summability_subcommand(tmp_path):
    out = tmp_path / "sum.json"
    assert main(["summability", "--q", "0.5", "--dim", "64", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["difference"] <= 1e-12


def test_eval_subcommand():
    code, stdout, _ = run_cli(["eval", "--algebra", "disc", "z* z"])
    assert code == 0
    assert "z z*" in stdout


def test_ext_plane_literal_scenario_fails(tmp_path):
    out = tmp_path / "report.json"
    code = main(["verify", "builtin:ext_plane_literal", "--out", str(out)])
    assert code == 1
    report = json.loads(out.read_text())
    assert report["checks"][0]["status"] == "fail"


def test_run_scenario_override():
    doc = load_scenario("builtin:disc_m64")
    report = run_scenario(doc, seed=0, overrides={"tol": 1e-30})
    assert report["status"] == "fail"


@pytest.mark.parametrize("mask", [0, 40, 7.5])
def test_disc_numeric_rejects_bad_mask(tmp_path, capsys, mask):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"name": "bad", "algebra": "disc", "checks": [
        {"name": "disc_numeric", "dim": 16, "mask": mask, "tol": 1e-30}]}))
    assert main(["verify", str(bad)]) == 2
    assert "mask" in capsys.readouterr().err


def test_disc_numeric_accepts_mask_in_range(tmp_path):
    scenario = tmp_path / "ok.json"
    scenario.write_text(json.dumps({"name": "ok", "algebra": "disc", "checks": [
        {"name": "disc_numeric", "dim": 16, "mask": 8}]}))
    out = tmp_path / "report.json"
    assert main(["verify", str(scenario), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["checks"][0]["mask"] == 8


def write_scenario(tmp_path, checks, algebra="slq2"):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"name": "t", "algebra": algebra, "checks": checks}))
    return str(path)


@pytest.mark.parametrize("item, key", [
    ({"name": "hopf_axioms", "degre": 1}, "degre"),
    ({"name": "disc_numeric", "dim": "64"}, "dim"),
    ({"name": "prop1", "degree": "2"}, "degree"),
    ({"name": "summability", "tol": True}, "tol"),
    ({"name": "faithfulness", "degrees": [1, "2"]}, "degrees"),
    ({"name": "calculus_consistency"}, "variant"),
])
def test_bad_parameter_exits_2_naming_the_key(tmp_path, capsys, item, key):
    assert main(["verify", write_scenario(tmp_path, [item])]) == 2
    assert repr(key) in capsys.readouterr().err


def test_bad_last_item_rejected_before_first_check_runs(tmp_path, capsys, monkeypatch):
    built = []
    monkeypatch.setattr(cli.Session, "context", lambda session: built.append(session))
    path = write_scenario(tmp_path, [{"name": "hopf_axioms", "degree": 1},
                                     {"name": "summability", "dimm": 8}])
    assert main(["verify", path]) == 2
    assert "'dimm'" in capsys.readouterr().err
    assert built == []


def test_overrides_reach_only_checks_that_declare_them(tmp_path):
    plain = tmp_path / "plain.json"
    with_degree = tmp_path / "with_degree.json"
    assert main(["verify", "builtin:disc_m64", "--out", str(plain)]) == 0
    assert main(["verify", "builtin:disc_m64", "--degree", "2",
                 "--out", str(with_degree)]) == 0
    assert plain.read_bytes() == with_degree.read_bytes()


def test_int_accepted_for_float_parameter(tmp_path):
    out = tmp_path / "report.json"
    path = write_scenario(tmp_path, [{"name": "summability", "dim": 8, "tol": 1}])
    assert main(["verify", path, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["checks"][0]["tol"] == 1


def test_summability_without_terms_exits_2(tmp_path, capsys):
    path = write_scenario(tmp_path, [{"name": "summability", "dim": 0}], algebra="disc")
    assert main(["verify", path]) == 2
    assert "summability" in capsys.readouterr().err


@pytest.mark.parametrize("args", [["--q", "1.5"], ["--dim", "0"]])
def test_summability_subcommand_rejects_bad_input(args):
    code, _, err = run_cli(["summability", *args])
    assert code == 2
    assert err.startswith("summability error:")
    assert "Traceback" not in err


def test_first_failure_consumes_only_the_first_witness():
    consumed = []

    def witnesses():
        for w in [("a",), ("b",)]:
            consumed.append(w)
            yield w

    assert first_failure("c", witnesses()) == ("c", False, ("a",))
    assert consumed == [("a",)]
    assert first_failure("c", iter([])) == ("c", True, None)


def test_first_failures_stops_once_every_check_has_a_witness():
    consumed = []

    def witnesses():
        for item in [(1, "x"), (1, "y"), (0, "z"), (1, "w")]:
            consumed.append(item)
            yield item

    assert first_failures(["a", "b"], witnesses()) == [("a", False, "z"), ("b", False, "x")]
    assert consumed == [(1, "x"), (1, "y"), (0, "z")]
    assert first_failures(["a", "b"], iter([(1, ())])) == [("a", True, None),
                                                           ("b", False, ())]


def test_first_failure_reports_the_empty_word():
    assert first_failure("c", iter([()])) == ("c", False, ())


def test_readme_lists_every_check():
    text = README.read_text()
    paragraph = text[text.index("Check names:"):].split("\n\n")[0]
    names = re.findall(r"`([a-z0-9_]+)`", paragraph)
    assert sorted(names) == sorted(cli.CHECKS)


def rejected_before_any_check(tmp_path, capsys, monkeypatch, checks, *args):
    """stderr of a scenario that exits 2 before any check builds its context."""
    built = []
    monkeypatch.setattr(cli.Session, "context", lambda session: built.append(session))
    assert main(["verify", write_scenario(tmp_path, checks), *args]) == 2
    assert built == []
    return capsys.readouterr().err


@pytest.mark.parametrize("degrees", [[], [0, 1]])
def test_faithfulness_degrees_rejected_at_bind_time(tmp_path, capsys, monkeypatch, degrees):
    err = rejected_before_any_check(tmp_path, capsys, monkeypatch, [
        {"name": "hopf_axioms", "degree": 1},
        {"name": "faithfulness", "degrees": degrees}])
    assert "'degrees'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("item, args, key", [
    ({"name": "leibniz_random", "samples": -5}, [], "samples"),
    ({"name": "cross_assoc_random", "samples": 0}, [], "samples"),
    ({"name": "idempotence_random", "presentations": []}, [], "presentations"),
    ({"name": "idempotence_random", "samples": 3}, [], "samples"),
    ({"name": "hopf_axioms", "degree": -1}, [], "degree"),
    ({"name": "hopf_axioms", "degree": 1}, ["--degree", "-1"], "degree"),
])
def test_empty_corpus_rejected_at_bind_time(tmp_path, capsys, monkeypatch, item, args, key):
    err = rejected_before_any_check(tmp_path, capsys, monkeypatch, [
        {"name": "hopf_axioms", "degree": 1}, item], *args)
    assert repr(key) in err


@pytest.mark.parametrize("item, args", [
    ({"name": "confluence", "degree": 2}, []),
    ({"name": "confluence"}, ["--degree", "2"]),
    ({"name": "confluence", "degree": 0, "presentation": "real_plane"}, []),
    ({"name": "confluence", "degree": 2, "presentation": "ext_plane"}, []),
    ({"name": "confluence", "degree": 2, "presentation": None}, []),
])
def test_vacuous_confluence_degree_rejected_at_bind_time(tmp_path, capsys, monkeypatch,
                                                         item, args):
    err = rejected_before_any_check(tmp_path, capsys, monkeypatch, [
        {"name": "hopf_axioms", "degree": 1}, item], *args)
    assert "'degree'" in err
    assert "ambiguity" in err


@pytest.mark.parametrize("algebra, item", [
    ("slq2", {"name": "confluence", "degree": 3}),
    ("disc", {"name": "confluence", "degree": 0}),
    ("slq2", {"name": "confluence", "degree": 0, "presentation": "disc"}),
    ("disc", {"name": "confluence", "degree": 0, "presentation": None}),
])
def test_confluence_degree_bound_follows_the_presentation(algebra, item):
    assert cli.validate_scenario({"algebra": algebra, "checks": [item]}) \
        == [("confluence", {k: v for k, v in item.items() if k != "name"})]


@pytest.mark.parametrize("item, key", [
    ({"name": "weyl_numeric", "m": 2}, "m"),
    ({"name": "ex3_symbolic", "M": 2}, "M"),
    ({"name": "disc_numeric", "dim": 1}, "dim"),
    ({"name": "summability", "dim": 0}, "dim"),
    ({"name": "disc_numeric", "dim": 16, "mask": 16}, "mask"),
])
def test_model_size_rejected_at_bind_time(tmp_path, capsys, monkeypatch, item, key):
    err = rejected_before_any_check(tmp_path, capsys, monkeypatch, [
        {"name": "hopf_axioms", "degree": 1}, item])
    assert repr(key) in err
    assert "Traceback" not in err


def test_model_size_bounds_are_per_check():
    bound = cli.validate_scenario({"checks": [{"name": "summability", "dim": 1}]})
    assert bound == [("summability", {"dim": 1})]


@pytest.mark.parametrize("name", ["prop1", "fodc_validate", "leibniz_random"])
def test_unknown_character_rejected_at_bind_time(tmp_path, capsys, monkeypatch, name):
    ran = []
    monkeypatch.setattr(cli, "hopf_axiom_report", lambda *args: ran.append(args))
    path = write_scenario(tmp_path, [{"name": "hopf_axioms", "degree": 1},
                                     {"name": name, "zeta": "bogus"}])
    assert main(["verify", path]) == 2
    err = capsys.readouterr().err
    assert "'zeta'" in err and "'bogus'" in err
    assert "Traceback" not in err
    assert ran == []


def test_shipped_characters_bind():
    bound = cli.validate_scenario({"checks": [{"name": "prop1", "zeta": "zeta_q"},
                                              {"name": "centrality", "zeta": "eps"}]})
    assert bound == [("prop1", {"zeta": "zeta_q"}), ("centrality", {"zeta": "eps"})]


@pytest.mark.parametrize("item", [
    {"name": "summability", "q": 1.5},
    {"name": "disc_numeric", "q": 0},
    {"name": "disc_numeric", "q": 1},
])
def test_q_outside_the_unit_interval_rejected_at_bind_time(tmp_path, capsys, monkeypatch,
                                                          item):
    ran = []
    monkeypatch.setattr(cli, "confluence_check", lambda *args: ran.append(args))
    path = write_scenario(tmp_path, [{"name": "confluence", "degree": 0}, item],
                          algebra="disc")
    assert main(["verify", path]) == 2
    err = capsys.readouterr().err
    assert "'q'" in err
    assert "Traceback" not in err
    assert ran == []
