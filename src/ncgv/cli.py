"""Scenario-driven batch runner.

A scenario file names an algebra, the structure data it needs, and a list of
checks with per-check parameters.  Reports are deterministic: randomized
property checks take an explicit seed (default 0) which is recorded, and all
output is sorted, so identical inputs produce byte-identical reports.

Exit codes: 0 all checks pass, 1 at least one check fails, 2 the scenario
could not be loaded (parse error, missing reference, unknown check name).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from importlib import resources

from . import __version__
from .algebra import RewriteError, confluence_check, random_poly
from .dual import make_slq2_context, mixed_word_to_cross
from .exprparse import parse_scalar
from .fodc import (bicovariant_build, bicovariant_to_doc, builtin_calculus,
                   calculus_consistency_report, fodc_validate,
                   star_row_closure_report)
from .hilbert import (disc_commrep, ex3_build, ex3_report, numeric_verify,
                      summability_report, weyl_commrep_residuals)
from .hopf import hopf_axiom_report
from .presentations import builtin_presentation
from .scalars import ONE


class ScenarioError(Exception):
    pass


def _result(name, status, degree=None, witness=None, **data):
    out = {"check": name, "status": status, "degree": degree, "witness": witness}
    out.update(data)
    return out


def _from_triples(name, triples, degree=None, **data):
    bad = [(label, wit) for label, ok, wit in triples if not ok]
    return _result(name, "pass" if not bad else "fail", degree=degree,
                   witness=_printable(bad[0]) if bad else None,
                   items=[[label, "pass" if ok else "fail"] for label, ok, _ in triples],
                   **data)


def _printable(obj):
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    if isinstance(obj, (list, tuple)):
        return [_printable(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): _printable(v) for k, v in obj.items()}
    return repr(obj)


class Session:
    """Lazily constructed shared objects for one scenario run."""

    def __init__(self, doc, seed):
        self.doc = doc
        self.seed = seed
        self._ctx = None
        self._bico = {}

    def context(self):
        if self._ctx is None:
            algebra = self.doc.get("algebra", "slq2")
            if algebra != "slq2":
                raise ScenarioError(
                    f"functional checks need the builtin slq2 algebra, got {algebra!r}")
            self._ctx = make_slq2_context()
        return self._ctx

    def bicovariant(self, zeta="eps"):
        if zeta not in self._bico:
            self._bico[zeta] = bicovariant_build(self.context(), zeta)
        return self._bico[zeta]

    def rng(self, params):
        return random.Random(params.get("seed", self.seed))


# --------------------------------------------------------------------------
# check implementations
# --------------------------------------------------------------------------


def check_hopf_axioms(session, params):
    degree = params.get("degree", 3)
    ctx = session.context()
    return _from_triples("hopf_axioms", hopf_axiom_report(ctx.hopf, degree),
                         degree=degree)


def check_confluence(session, params):
    degree = params.get("degree", 6)
    name = params.get("presentation", session.doc.get("algebra", "slq2"))
    report = confluence_check(builtin_presentation(name), degree)
    return _result("confluence", "pass" if report.ok else "fail", degree=degree,
                   witness=None if report.ok else _printable(report.failures[0][0]),
                   presentation=name)


def check_fodc_validate(session, params):
    degree = params.get("degree", 3)
    if "file" in params:
        from .fodc import fodc_from_doc
        with open(params["file"]) as fh:
            doc = json.load(fh)
        fodc = fodc_from_doc(session.context(), doc)
        return _from_triples("fodc_validate", fodc_validate(fodc, degree),
                             degree=degree, source=params["file"])
    B = session.bicovariant(params.get("zeta", "eps"))
    return _from_triples("fodc_validate", fodc_validate(B.fodc, degree),
                         degree=degree, zeta=B.zeta_name)


def check_prop1(session, params):
    from .commrep import prop1_build, prop1_verify

    degree = params.get("degree", 2)
    B = session.bicovariant(params.get("zeta", "eps"))
    C, Omegas, _ = prop1_build(B.fodc)
    triples = prop1_verify(C, Omegas, B.fodc, degree_a=degree, degree_b=1)
    return _from_triples("prop1", triples, degree=degree,
                         note="tuples exercised componentwise (the action is "
                              "slotwise linear)")


def check_prop4(session, params):
    from .commrep import prop4_verify

    degree = params.get("degree", 2)
    B = session.bicovariant(params.get("zeta", "eps"))
    return _from_triples("prop4", prop4_verify(B, degree), degree=degree)


def check_centrality(session, params):
    from .commrep import centrality_check

    degree = params.get("degree", 3)
    B = session.bicovariant(params.get("zeta", "eps"))
    return _from_triples("centrality", centrality_check(B, degree), degree=degree)


def check_hermiticity(session, params):
    from .commrep import hermiticity_check

    degree = params.get("degree", 3)
    B = session.bicovariant(params.get("zeta", "eps"))
    return _from_triples("hermiticity", hermiticity_check(B, degree), degree=degree)


def check_faithfulness(session, params):
    from .commrep import faithfulness_rank

    degrees = params.get("degrees", [1, 2])
    B = session.bicovariant(params.get("zeta", "eps"))
    reports = [faithfulness_rank(B, degree=d) for d in degrees]
    ranks = [r["tau_rank"] for r in reports]
    ok = all(r["faithful_on_corpus"] for r in reports)
    monotone = all(a <= b for a, b in zip(ranks, ranks[1:]))
    status = "pass" if ok and monotone else "fail"
    return _result("faithfulness", status, degree=degrees[-1],
                   witness=None if status == "pass" else _printable(reports),
                   ranks=ranks, monotone=monotone,
                   detail=[{k: v for k, v in r.items()} for r in reports])


def check_calculus_consistency(session, params):
    variant = params.get("variant")
    if variant is None:
        raise ScenarioError("calculus_consistency needs a 'variant' parameter")
    report = calculus_consistency_report(builtin_calculus(variant))
    triples = [(rel, status == "pass", wit)
               for rel, status, wit in report if status != "skipped"]
    skipped = [rel for rel, status, _ in report if status == "skipped"]
    out = _from_triples("calculus_consistency", triples, variant=variant)
    if skipped:
        out["skipped"] = skipped
    expect = params.get("expect", "pass")
    if expect == "fail":
        flipped = "pass" if out["status"] == "fail" else "fail"
        out["status"] = flipped
        out["note"] = "variant is expected to be inconsistent"
    return out


def check_variant_selection(session, params):
    variants = params.get("variants", ["pw-a", "pw-b"])
    passing = []
    for v in variants:
        report = calculus_consistency_report(builtin_calculus(v))
        if all(status != "fail" for _, status, _ in report):
            passing.append(v)
    ok = len(passing) == 1
    return _result("variant_selection", "pass" if ok else "fail",
                   witness=None if ok else passing,
                   variants=variants, admissible=passing)


def check_star_closure(session, params):
    variant = params.get("variant", "disc")
    calc = builtin_calculus(variant)
    triples = [(row, status == "pass", wit)
               for row, status, wit in star_row_closure_report(calc)
               if status != "skipped"]
    if not triples:
        return _result("star_closure", "skipped", variant=variant,
                       witness="calculus carries no star data")
    return _from_triples("star_closure", triples, variant=variant)


def check_disc_numeric(session, params):
    dim = params.get("dim", 64)
    q = params.get("q", 0.5)
    tol = params.get("tol", 1e-12)
    rep2, F = disc_commrep(dim, q)
    mask = params.get("mask", rep2.mask)
    if type(mask) is not int or not 1 <= mask < dim:
        raise ScenarioError(
            f"disc_numeric needs an integer mask in 1..{dim - 1}, got {mask!r}")
    rep2.mask = mask
    report = numeric_verify(rep2, F=F, calc=builtin_calculus("disc"), tol=tol)
    report["check"] = "disc_numeric"
    report["q"] = q
    return report


def check_disc_block_exact(session, params):
    from .commrep import (disc_block_c, disc_commutator_comparison,
                          quantum_space_commrep_report)

    calc = builtin_calculus("disc")
    C = disc_block_c(calc.pres)
    results, _ = quantum_space_commrep_report(calc, C)
    triples = [(row, status == "pass", wit) for row, status, wit in results]
    out = _from_triples("disc_block_exact", triples)
    out["commutator_comparison"] = disc_commutator_comparison(calc, C)
    return out


def check_weyl_numeric(session, params):
    m = params.get("m", 8)
    tol = params.get("tol", 1e-12)
    return weyl_commrep_residuals(m, tol=tol)


def check_ex3_symbolic(session, params):
    M = params.get("M", 6)
    model = ex3_build(M,
                      pi_variant=params.get("pi_variant", "consistent"),
                      rows_variant=params.get("rows_variant", "consistent"))
    return ex3_report(model)


def check_summability(session, params):
    q = params.get("q", 0.5)
    M = params.get("dim", 64)
    tol = params.get("tol", 1e-12)
    report = summability_report(q, M)
    report["status"] = "pass" if report["difference"] <= tol and report["monotone"] \
        else "fail"
    report["tol"] = tol
    return report


def check_leibniz_random(session, params):
    samples = params.get("samples", 200)
    degree = params.get("degree", 2)
    rng = session.rng(params)
    B = session.bicovariant(params.get("zeta", "eps"))
    pres = session.context().pres
    F = B.fodc
    witness = None
    for _ in range(samples):
        a = random_poly(pres, rng, degree, 2)
        b = random_poly(pres, rng, degree, 2)
        lhs = F.differential(a * b)
        rhs = F.differential(b).left_mul(a) + F.right_mul(F.differential(a), b)
        if lhs != rhs:
            witness = {"a": repr(a), "b": repr(b)}
            break
    return _result("leibniz_random", "pass" if witness is None else "fail",
                   witness=witness, samples=samples,
                   seed=params.get("seed", session.seed))


def check_idempotence_random(session, params):
    samples = params.get("samples", 500)
    names = params.get("presentations", ["disc", "real_plane", "ext_plane", "slq2"])
    rng = session.rng(params)
    witness = None
    for name in names:
        pres = builtin_presentation(name)
        for _ in range(samples // len(names)):
            p = random_poly(pres, rng, 3, 3)
            if pres.normal_form_terms(p.terms) != p.terms:
                witness = {"presentation": name, "p": repr(p)}
                break
        if witness:
            break
    return _result("idempotence_random", "pass" if witness is None else "fail",
                   witness=witness, samples=samples,
                   seed=params.get("seed", session.seed))


def check_cross_assoc_random(session, params):
    samples = params.get("samples", 20)
    rng = session.rng(params)
    ctx = session.context()
    B = session.bicovariant(params.get("zeta", "eps"))
    pres = ctx.pres
    witness = None
    for _ in range(samples):
        a = random_poly(pres, rng, 1, 2)
        b = random_poly(pres, rng, 1, 2)
        target = random_poly(pres, rng, 2, 2)
        x = mixed_word_to_cross(ctx, [a, B.C])
        y = mixed_word_to_cross(ctx, [B.C, b])
        if (x * y).act(target) != x.act(y.act(target)):
            witness = {"a": repr(a), "b": repr(b)}
            break
    return _result("cross_assoc_random", "pass" if witness is None else "fail",
                   witness=witness, samples=samples,
                   seed=params.get("seed", session.seed))


CHECKS = {
    "hopf_axioms": check_hopf_axioms,
    "confluence": check_confluence,
    "fodc_validate": check_fodc_validate,
    "disc_block_exact": check_disc_block_exact,
    "prop1": check_prop1,
    "prop4": check_prop4,
    "centrality": check_centrality,
    "hermiticity": check_hermiticity,
    "faithfulness": check_faithfulness,
    "calculus_consistency": check_calculus_consistency,
    "variant_selection": check_variant_selection,
    "star_closure": check_star_closure,
    "disc_numeric": check_disc_numeric,
    "weyl_numeric": check_weyl_numeric,
    "ex3_symbolic": check_ex3_symbolic,
    "summability": check_summability,
    "leibniz_random": check_leibniz_random,
    "idempotence_random": check_idempotence_random,
    "cross_assoc_random": check_cross_assoc_random,
}


# --------------------------------------------------------------------------
# scenario execution
# --------------------------------------------------------------------------


def load_scenario(path):
    if path.startswith("builtin:"):
        name = path.split(":", 1)[1]
        text = resources.files("ncgv.data.scenarios").joinpath(f"{name}.json").read_text()
        return json.loads(text)
    with open(path) as fh:
        return json.load(fh)


def validate_scenario(doc):
    checks = doc.get("checks")
    if not isinstance(checks, list) or not checks:
        raise ScenarioError("scenario needs a non-empty 'checks' list")
    for item in checks:
        name = item.get("name")
        if name not in CHECKS:
            raise ScenarioError(f"unknown check {name!r}")
        variant = item.get("variant")
        if name in ("calculus_consistency", "star_closure") and variant:
            builtin_calculus(variant)  # raises for unknown variants


def run_scenario(doc, seed=0, overrides=None):
    validate_scenario(doc)
    session = Session(doc, seed)
    results = []
    for item in doc["checks"]:
        params = {k: v for k, v in item.items() if k != "name"}
        if overrides:
            params.update(overrides)
        results.append(CHECKS[item["name"]](session, params))
    worst = "pass"
    for r in results:
        if r["status"] == "fail":
            worst = "fail"
    return {
        "scenario": doc.get("name", "unnamed"),
        "tool": {"name": "ncgv", "version": __version__},
        "seed": seed,
        "status": worst,
        "checks": results,
    }


def write_report(report, out):
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# --------------------------------------------------------------------------
# entry points
# --------------------------------------------------------------------------


def cmd_verify(args):
    try:
        doc = load_scenario(args.scenario)
        overrides = {}
        if args.degree is not None:
            overrides["degree"] = args.degree
        if args.tol is not None:
            overrides["tol"] = args.tol
        report = run_scenario(doc, seed=args.seed, overrides=overrides)
    except (ScenarioError, OSError, json.JSONDecodeError, KeyError, ValueError) as e:
        sys.stderr.write(f"scenario error: {e}\n")
        return 2
    write_report(report, args.out)
    return 0 if report["status"] == "pass" else 1


def cmd_build_bicovariant(args):
    try:
        if args.algebra != "slq2":
            raise ScenarioError("only the builtin slq2 algebra is available")
        ctx = make_slq2_context()
        B = bicovariant_build(ctx, args.zeta)
    except Exception as e:  # validation failures carry witnesses
        sys.stderr.write(f"build failed: {e}\n")
        return 1
    doc = bicovariant_to_doc(B)
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_summability(args):
    report = summability_report(args.q, args.dim)
    write_report(report, args.out)
    return 0


def cmd_eval(args):
    try:
        pres = builtin_presentation(args.algebra)
        terms = {}
        word = tuple(args.expr.split())
        coeff = parse_scalar(args.coeff) if args.coeff else ONE
        terms[word] = coeff
        p = pres.poly(terms)
    except (RewriteError, ValueError) as e:
        sys.stderr.write(f"eval error: {e}\n")
        return 2
    sys.stdout.write(repr(p) + "\n")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="ncgv",
        description="exact and numeric verification of commutator "
                    "representations of covariant differential calculi")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run a scenario file")
    p.add_argument("scenario", help="path to a scenario JSON, or builtin:<name>")
    p.add_argument("--degree", type=int, default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("build-bicovariant", help="build and serialize a calculus")
    p.add_argument("--algebra", default="slq2")
    p.add_argument("--zeta", default="eps")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_build_bicovariant)

    p = sub.add_parser("summability", help="trace-norm partial sums for the disc")
    p.add_argument("--q", type=float, default=0.5)
    p.add_argument("--dim", type=int, default=64)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_summability)

    p = sub.add_parser("eval", help="normal-form a word in a builtin algebra")
    p.add_argument("--algebra", default="slq2")
    p.add_argument("--coeff", default=None)
    p.add_argument("expr", help="space-separated generator word")
    p.set_defaults(func=cmd_eval)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
