"""Scenario-driven batch runner.

A scenario file names an algebra, the structure data it needs, and a list of
checks with per-check parameters.  Reports are deterministic: randomized
property checks take an explicit seed (default 0) which is recorded, and all
output is sorted, so identical inputs produce byte-identical reports.

Each check declares its parameters as keyword-only arguments with defaults,
and every check of a scenario is bound to them before the first one runs.

Every check runs under its own guard: a check that raises is reported with
status "error" and the exception as its witness, and the checks after it
still run.

Exit codes: 0 all checks pass, 1 at least one check fails, 2 the scenario
could not be loaded (parse error, missing reference, unknown check name, or
an unknown, missing, mistyped or out-of-range check parameter) or the report
could not be written, 3 at least one check raised an error.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import json
import random
import sys
import traceback
import types
import typing
from importlib import resources

from . import __version__
from .algebra import (RewriteError, ambiguities, confluence_check, first_failure,
                      random_poly)
from .commrep import (centrality_check, disc_block_c, disc_commutator_comparison,
                      faithfulness_rank, hermiticity_check, prop1_build, prop1_verify,
                      prop4_verify, quantum_space_commrep_report)
from .dual import make_slq2_context, mixed_word_to_cross, shipped_characters
from .exprparse import parse_scalar
from .fodc import (bicovariant_build, bicovariant_to_doc, builtin_calculus,
                   calculus_consistency_report, fodc_from_doc, fodc_validate,
                   star_row_closure_report)
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
    failed = [(label, wit) for label, ok, wit in triples if not ok]
    return _result(name, "fail" if failed else "pass", degree=degree,
                   witness=_printable(failed[0]) if failed else None,
                   items=[[label, "pass" if ok else "fail"] for label, ok, _ in triples],
                   **data)


def _from_statuses(name, rows, **data):
    """``_from_triples`` for (label, status, witness) rows: a skipped row
    counts neither way and is listed under "skipped"."""
    skipped = [label for label, status, _ in rows if status == "skipped"]
    if skipped:
        data["skipped"] = skipped
    return _from_triples(name, [(label, status == "pass", wit)
                                for label, status, wit in rows if status != "skipped"],
                         **data)


def _random_check(name, session, samples, seed, witnesses):
    """Result of a randomized property check drawn from ``seed`` (the
    session's seed when None); ``witnesses(rng)`` yields counterexamples."""
    seed = session.seed if seed is None else seed
    _, ok, witness = first_failure(name, witnesses(random.Random(seed)))
    return _result(name, "pass" if ok else "fail", witness=witness,
                   samples=samples, seed=seed)


def _printable(obj):
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    # exact types: a named tuple (a functional letter ``dual.BF``) prints by repr
    if type(obj) in (list, tuple):
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
            self._ctx = make_slq2_context()
        return self._ctx

    def bicovariant(self, zeta="eps"):
        if zeta not in self._bico:
            self._bico[zeta] = bicovariant_build(self.context(), zeta)
        return self._bico[zeta]


# --------------------------------------------------------------------------
# check implementations
#
# A check takes the session and its scenario parameters as keyword-only
# arguments.  The type of a parameter is its annotation, or else the type of
# its default; list defaults are tuples, so that no call shares a mutable one.
# --------------------------------------------------------------------------


def check_hopf_axioms(session, *, degree=3):
    ctx = session.context()
    return _from_triples("hopf_axioms", hopf_axiom_report(ctx.hopf, degree),
                         degree=degree)


# the name of a builtin presentation (``presentations.builtin_presentation``)
Presentation = typing.Literal["disc", "real_plane", "ext_plane", "slq2"]


def check_confluence(session, *, degree=6, presentation: Presentation | None = None):
    name = session.doc.get("algebra", "slq2") if presentation is None else presentation
    failures = confluence_check(builtin_presentation(name), degree)
    return _result("confluence", "fail" if failures else "pass", degree=degree,
                   witness=_printable(failures[0][0]) if failures else None,
                   presentation=name)


def check_fodc_validate(session, *, degree=3, zeta="eps", file: str | None = None):
    if file is not None:
        with open(file) as fh:
            doc = json.load(fh)
        fodc = fodc_from_doc(session.context(), doc)
        return _from_triples("fodc_validate", fodc_validate(fodc, degree),
                             degree=degree, source=file)
    B = session.bicovariant(zeta)
    return _from_triples("fodc_validate", fodc_validate(B.fodc, degree),
                         degree=degree, zeta=B.zeta_name)


def check_prop1(session, *, degree=2, zeta="eps"):
    B = session.bicovariant(zeta)
    C, Omegas = prop1_build(B.fodc)
    triples = prop1_verify(C, Omegas, B.fodc, degree_a=degree)
    return _from_triples("prop1", triples, degree=degree,
                         note="tuples exercised componentwise (the action is "
                              "slotwise linear)")


def check_prop4(session, *, degree=2, zeta="eps"):
    B = session.bicovariant(zeta)
    return _from_triples("prop4", prop4_verify(B, degree), degree=degree)


def check_centrality(session, *, degree=3, zeta="eps"):
    B = session.bicovariant(zeta)
    return _from_triples("centrality", centrality_check(B, degree), degree=degree)


def check_hermiticity(session, *, degree=3, zeta="eps"):
    B = session.bicovariant(zeta)
    return _from_triples("hermiticity", hermiticity_check(B, degree), degree=degree)


def check_faithfulness(session, *, degrees: list[int] = (1, 2), zeta="eps"):
    B = session.bicovariant(zeta)
    reports = [faithfulness_rank(B, degree=d) for d in degrees]
    ranks = [r["tau_rank"] for r in reports]
    ok = all(r["faithful_on_corpus"] for r in reports)
    monotone = all(a <= b for a, b in zip(ranks, ranks[1:]))
    status = "pass" if ok and monotone else "fail"
    return _result("faithfulness", status, degree=degrees[-1],
                   witness=None if status == "pass" else _printable(reports),
                   ranks=ranks, monotone=monotone,
                   detail=reports)


# the name of a builtin calculus (``fodc.builtin_calculus``)
Calculus = typing.Literal["disc", "pw-a", "pw-b", "ext-consistent", "ext-literal"]


def check_calculus_consistency(session, *, variant: Calculus,
                               expect: typing.Literal["pass", "fail"] = "pass"):
    out = _from_statuses("calculus_consistency",
                         calculus_consistency_report(builtin_calculus(variant)),
                         variant=variant)
    if expect == "fail":
        flipped = "pass" if out["status"] == "fail" else "fail"
        out["status"] = flipped
        out["note"] = "variant is expected to be inconsistent"
    return out


def check_variant_selection(session, *, variants: list[Calculus] = ("pw-a", "pw-b")):
    passing = []
    for v in variants:
        report = calculus_consistency_report(builtin_calculus(v))
        if all(status != "fail" for _, status, _ in report):
            passing.append(v)
    ok = len(passing) == 1
    return _result("variant_selection", "pass" if ok else "fail",
                   witness=None if ok else passing,
                   variants=list(variants), admissible=passing)


def check_star_closure(session, *, variant: Calculus = "disc"):
    rows = star_row_closure_report(builtin_calculus(variant))
    if all(status == "skipped" for _, status, _ in rows):
        return _result("star_closure", "skipped", variant=variant,
                       witness="calculus carries no star data")
    return _from_statuses("star_closure", rows, variant=variant)


def check_disc_numeric(session, *, dim=64, q=0.5, tol=1e-12):
    from .hilbert import disc_commrep, numeric_verify

    rep2, F = disc_commrep(dim, q)
    report = numeric_verify(rep2, F=F, calc=builtin_calculus("disc"), tol=tol)
    report["check"] = "disc_numeric"
    report["q"] = q
    report["mask"] = dim - 1  # disc_commrep keeps dim - 1 indices of each copy
    return report


def check_disc_block_exact(session):
    calc = builtin_calculus("disc")
    C = disc_block_c(calc.pres)
    results, comms = quantum_space_commrep_report(calc, C)
    return _from_statuses("disc_block_exact", results,
                          commutator_comparison=disc_commutator_comparison(
                              calc.pres, comms["dz"]))


def check_weyl_numeric(session, *, m=8, tol=1e-12):
    from .hilbert import weyl_commrep_residuals

    return weyl_commrep_residuals(m, tol=tol)


def check_ex3_symbolic(session, *, M=6,
                       pi_variant: typing.Literal["consistent", "literal"] = "consistent",
                       rows_variant: typing.Literal["consistent", "literal"] = "consistent"):
    from .hilbert import ex3_build, ex3_report

    return ex3_report(ex3_build(M, pi_variant=pi_variant, rows_variant=rows_variant))


def check_summability(session, *, q=0.5, dim=64, tol=1e-12):
    from .hilbert import summability_report

    report = summability_report(q, dim)
    report["status"] = "pass" if report["difference"] <= tol and report["monotone"] \
        else "fail"
    report["tol"] = tol
    return report


def check_leibniz_random(session, *, samples=200, degree=2, zeta="eps",
                         seed: int | None = None):
    B = session.bicovariant(zeta)
    pres = session.context().pres
    F = B.fodc

    def witnesses(rng):
        for _ in range(samples):
            a = random_poly(pres, rng, degree, 2)
            b = random_poly(pres, rng, degree, 2)
            lhs = F.differential(a * b)
            rhs = F.differential(b).left_mul(a) + F.right_mul(F.differential(a), b)
            if lhs != rhs:
                yield {"a": repr(a), "b": repr(b)}

    return _random_check("leibniz_random", session, samples, seed, witnesses)


def check_idempotence_random(session, *, samples=500, seed: int | None = None,
                             presentations: list[Presentation] = typing.get_args(
                                 Presentation)):
    def witnesses(rng):
        # the first samples % n presentations draw one extra polynomial
        n = len(presentations)
        for i, name in enumerate(presentations):
            pres = builtin_presentation(name)
            for _ in range(samples // n + (i < samples % n)):
                p = random_poly(pres, rng, 3, 3)
                if pres.normal_form_terms(p.terms) != p.terms:
                    yield {"presentation": name, "p": repr(p)}

    return _random_check("idempotence_random", session, samples, seed, witnesses)


def check_cross_assoc_random(session, *, samples=20, zeta="eps",
                             seed: int | None = None):
    ctx = session.context()
    B = session.bicovariant(zeta)
    pres = ctx.pres

    def witnesses(rng):
        for _ in range(samples):
            a = random_poly(pres, rng, 1, 2)
            b = random_poly(pres, rng, 1, 2)
            target = random_poly(pres, rng, 2, 2)
            x = mixed_word_to_cross(ctx, [a, B.C])
            y = mixed_word_to_cross(ctx, [B.C, b])
            if (x * y).act(target) != x.act(y.act(target)):
                yield {"a": repr(a), "b": repr(b)}

    return _random_check("cross_assoc_random", session, samples, seed, witnesses)


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

# The checks that run on the numeric models of ``hilbert``, which imports
# numpy.  They import ``hilbert`` when they run, and ``validate_scenario``
# loads it when it binds one of them, so that numpy's import counts as set-up
# and a scenario without them never pays for it.
NUMERIC_CHECKS = frozenset({"disc_numeric", "weyl_numeric", "ex3_symbolic", "summability"})

# The checks that evaluate functionals through ``Session.context`` or
# ``Session.bicovariant``, which are built on the builtin slq2 algebra only.
SLQ2_CHECKS = frozenset({"hopf_axioms", "fodc_validate", "prop1", "prop4", "centrality",
                         "hermiticity", "faithfulness", "leibniz_random",
                         "cross_assoc_random"})


# --------------------------------------------------------------------------
# scenario execution
# --------------------------------------------------------------------------


def load_scenario(path):
    if path.startswith("builtin:"):
        name = path.split(":", 1)[1]
        folder = resources.files("ncgv.data.scenarios")
        names = sorted(p.name[:-5] for p in folder.iterdir() if p.name.endswith(".json"))
        if name not in names:
            raise ScenarioError(f"unknown builtin scenario {name!r}, not one of {names}")
        return json.loads(folder.joinpath(f"{name}.json").read_text())
    with open(path) as fh:
        return json.load(fh)


def _has_type(value, kind):
    """Whether a JSON value has the declared type ``kind``: a class, a union,
    ``list[X]`` or ``Literal[...]``.  A bool is never a number; an int is
    accepted for a float."""
    if typing.get_origin(kind) in (typing.Union, types.UnionType):
        return any(_has_type(value, k) for k in typing.get_args(kind))
    if typing.get_origin(kind) is typing.Literal:
        return any(type(value) is type(v) and value == v for v in typing.get_args(kind))
    if typing.get_origin(kind) is list:
        item, = typing.get_args(kind)
        return isinstance(value, list) and all(_has_type(v, item) for v in value)
    if kind is float:
        return type(value) in (int, float)
    return type(value) is kind


# The smallest value of a parameter, or of each entry of a list parameter,
# keyed by the parameter on every check that declares it, or by (check,
# parameter) on one check.  Below it the check's corpus is empty, and the
# check would pass without testing anything, or its model does not exist,
# and the check would fail only after the checks before it have run.
_AT_LEAST = {"degree": 0, "degrees": 1, "samples": 1,
             ("disc_numeric", "dim"): 2, ("summability", "dim"): 1,
             ("weyl_numeric", "m"): 3, ("ex3_symbolic", "M"): 3}


def _bind(item, overrides, algebra):
    """(check name, keyword arguments) of one scenario item.  Every key must
    be a parameter the check declares, with the declared type and within
    ``_AT_LEAST``, a list must not be empty, and every parameter without a
    default must be given, and a ``zeta`` must name a shipped character
    (and cannot go with the ``file`` of ``fodc_validate``).  An
    override reaches only the checks that declare it.  ``algebra`` is the
    scenario's algebra, which must be slq2 for a check of ``SLQ2_CHECKS``."""
    if not isinstance(item, dict):
        raise ScenarioError(f"a check must be an object, got {item!r}")
    name = item.get("name")
    if type(name) is not str or name not in CHECKS:
        raise ScenarioError(f"unknown check {name!r}")
    if name in SLQ2_CHECKS and algebra != "slq2":
        raise ScenarioError(f"functional checks need the builtin slq2 algebra, got {algebra!r}")
    declared = inspect.signature(CHECKS[name], eval_str=True).parameters
    kwargs = {k: v for k, v in item.items() if k != "name"}
    kwargs.update((k, v) for k, v in overrides.items() if k in declared)
    for key, value in kwargs.items():
        param = declared.get(key)
        if param is None or param.kind is not param.KEYWORD_ONLY:
            raise ScenarioError(f"check {name!r} has no parameter {key!r}")
        kind = type(param.default) if param.annotation is param.empty else param.annotation
        if not _has_type(value, kind):
            shown = kind.__name__ if isinstance(kind, type) else str(kind)
            raise ScenarioError(
                f"check {name!r} parameter {key!r} must be {shown}, got {value!r}")
        values = value if isinstance(value, list) else [value]
        if not values:
            raise ScenarioError(f"check {name!r} parameter {key!r} must not be empty")
        least = _AT_LEAST.get((name, key), _AT_LEAST.get(key))
        if least is not None and min(values) < least:
            raise ScenarioError(f"check {name!r} parameter {key!r} must be at least "
                                f"{least}, got {value!r}")
    for param in declared.values():
        if param.kind is param.KEYWORD_ONLY and param.default is param.empty \
                and param.name not in kwargs:
            raise ScenarioError(f"check {name!r} needs a {param.name!r} parameter")
    if "zeta" in kwargs:
        names = sorted(shipped_characters())
        if kwargs["zeta"] not in names:
            raise ScenarioError(f"check {name!r} parameter 'zeta' must be one of "
                                f"{names}, got {kwargs['zeta']!r}")
    if name == "fodc_validate" and "zeta" in kwargs and kwargs.get("file") is not None:
        # a calculus file names its own character
        raise ScenarioError(f"check {name!r} takes 'file' or 'zeta', not both")
    if name == "confluence":
        # below the lightest ambiguity the check resolves nothing
        pres_name = kwargs.get("presentation")
        pres = builtin_presentation(algebra if pres_name is None else pres_name)
        least = min((pres.word_weight(w) for w, *_ in ambiguities(pres)), default=0)
        degree = kwargs.get("degree", declared["degree"].default)
        if degree < least:
            raise ScenarioError(
                f"check {name!r} parameter 'degree' must be at least {least}, the "
                f"smallest ambiguity weight of {pres.name!r}, got {degree!r}")
    if name in ("disc_numeric", "summability"):
        q = kwargs.get("q", declared["q"].default)
        if not 0 < q < 1:
            raise ScenarioError(f"check {name!r} parameter 'q' must be in (0, 1), got {q!r}")
    if name == "idempotence_random":
        samples = kwargs.get("samples", declared["samples"].default)
        n = len(kwargs.get("presentations", declared["presentations"].default))
        if samples < n:
            raise ScenarioError(
                f"check {name!r} parameter 'samples' must be at least the number of "
                f"'presentations' ({n}), got {samples!r}")
    return name, kwargs


def validate_scenario(doc, overrides=None):
    """Bind every check of the scenario to its parameters, before any check
    runs, in an algebra that names a builtin presentation; returns
    [(check name, keyword arguments)]."""
    checks = doc.get("checks") if isinstance(doc, dict) else None
    if not isinstance(checks, list) or not checks:
        raise ScenarioError("scenario needs a non-empty 'checks' list")
    algebra = doc.get("algebra", "slq2")
    if not _has_type(algebra, Presentation):
        raise ScenarioError(f"scenario 'algebra' must be {Presentation}, got {algebra!r}")
    bound = [_bind(item, overrides or {}, algebra) for item in checks]
    if any(name in NUMERIC_CHECKS for name, _ in bound):
        importlib.import_module(".hilbert", __package__)
    return bound


def run_scenario(doc, seed=0, overrides=None):
    return run_bound(doc, validate_scenario(doc, overrides), seed)


def _run_check(session, name, kwargs):
    """The result of one bound check; a check that raises gets status
    "error", with the exception as its witness and the traceback on
    stderr."""
    try:
        return CHECKS[name](session, **kwargs)
    except Exception as e:  # a crash belongs to its check alone
        sys.stderr.write(f"check {name!r} raised:\n{traceback.format_exc()}")
        return _result(name, "error", witness=f"{type(e).__name__}: {e}")


def run_bound(doc, bound, seed=0):
    """The report of the checks of ``doc`` bound by ``validate_scenario``:
    status "error" if a check raised, else "fail" if one failed."""
    session = Session(doc, seed)
    results = [_run_check(session, name, kwargs) for name, kwargs in bound]
    statuses = {r["status"] for r in results}
    return {
        "scenario": doc.get("name", "unnamed"),
        "tool": {"name": "ncgv", "version": __version__},
        "seed": seed,
        "status": next((s for s in ("error", "fail") if s in statuses), "pass"),
        "checks": results,
    }


def write_report(report, out, code):
    """Write ``report`` to ``out`` or stdout; ``code``, or 2 if ``out`` fails."""
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if not out:
        sys.stdout.write(text)
        return code
    try:
        with open(out, "w") as fh:
            fh.write(text)
        return code
    except OSError as e:
        sys.stderr.write(f"cannot write report: {e}\n")
        return 2


# --------------------------------------------------------------------------
# entry points
# --------------------------------------------------------------------------


EXIT_CODES = {"pass": 0, "fail": 1, "error": 3}


def cmd_verify(args):
    overrides = {}
    if args.degree is not None:
        overrides["degree"] = args.degree
    if args.tol is not None:
        overrides["tol"] = args.tol
    try:
        doc = load_scenario(args.scenario)
        bound = validate_scenario(doc, overrides)
    except (ScenarioError, OSError, ValueError) as e:  # load and bind errors only
        sys.stderr.write(f"scenario error: {e}\n")
        return 2
    report = run_bound(doc, bound, seed=args.seed)
    return write_report(report, args.out, EXIT_CODES[report["status"]])


def cmd_build_bicovariant(args):
    if args.zeta not in (names := sorted(shipped_characters())):
        sys.stderr.write(f"build error: --zeta must be one of {names}, got {args.zeta!r}\n")
        return 2
    try:
        ctx = make_slq2_context()
        B = bicovariant_build(ctx, args.zeta)
    except Exception as e:  # validation failures carry witnesses
        sys.stderr.write(f"build failed: {e}\n")
        return 1
    return write_report(bicovariant_to_doc(B), args.out, 0)


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
    p.add_argument("--algebra", default="slq2", choices=["slq2"])
    p.add_argument("--zeta", default="eps")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_build_bicovariant)

    p = sub.add_parser("eval", help="normal-form a word in a builtin algebra")
    p.add_argument("--algebra", default="slq2")
    p.add_argument("--coeff", default=None)
    p.add_argument("expr", help="space-separated generator word")
    p.set_defaults(func=cmd_eval)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
