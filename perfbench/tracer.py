"""Span aggregation around the public entry points of each ncgv layer.

The tracer patches functions and methods from outside the package, so that
nothing under ``src/`` changes.  Every call to a patched entry point is a
span; spans are not stored one by one but aggregated per (parent, name)
into a call count, a total time and a self time (total minus the time of
the spans it caused).  Memory therefore stays bounded however many QScalar
operations a run makes.

Two sets of targets exist.  ``CLI_TARGETS`` (with the check functions) is
all an untraced run needs to split set-up from checking.  ``LAYER_TARGETS``
adds the entry points of every layer for a traced run.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from functools import wraps

# Where a count of zero on a workload means the wrapper missed its target.
SLQ2 = ("exact_slq2", "rank_faithfulness", "property_random")
EXACT = ("exact_slq2",)
EXACT_RANDOM = ("exact_slq2", "property_random")
RANK = ("exact_slq2", "rank_faithfulness")
RANDOM = ("property_random",)
NUMERIC = ("numeric_disc",)

# (span name, module, attribute path, workloads on which the count must be
# nonzero).  Layer = the part of the name before the first dot.
LAYER_TARGETS = [
    ("scalars.mul", "scalars", "QScalar.__mul__", EXACT_RANDOM),
    ("scalars.add", "scalars", "QScalar.__add__", EXACT_RANDOM),
    ("scalars.sub", "scalars", "QScalar.__sub__", EXACT_RANDOM),
    ("scalars.rsub", "scalars", "QScalar.__rsub__", ()),
    ("scalars.neg", "scalars", "QScalar.__neg__", EXACT_RANDOM),
    ("scalars.truediv", "scalars", "QScalar.__truediv__", SLQ2),
    ("scalars.inverse", "scalars", "QScalar.inverse", SLQ2),
    ("algebra.nf_word", "algebra", "AlgebraPresentation.normal_form_word", SLQ2),
    ("algebra.nf_terms", "algebra", "AlgebraPresentation.normal_form_terms", SLQ2),
    ("algebra.poly_mul", "algebra", "NCPoly.__mul__", SLQ2),
    ("algebra.confluence_check", "algebra", "confluence_check", EXACT),
    ("algebra.random_poly", "algebra", "random_poly", RANDOM),
    ("presentations.build", "presentations", "slq2_presentation", SLQ2),
    ("presentations.build", "presentations", "disc_presentation", NUMERIC),
    ("presentations.build", "presentations", "real_plane_presentation", RANDOM),
    ("presentations.build", "presentations", "ext_plane_presentation", NUMERIC),
    ("hopf.coproduct", "hopf", "HopfStructure.coproduct", EXACT),
    ("hopf.coproduct_word", "hopf", "HopfStructure.coproduct_word", EXACT_RANDOM),
    ("hopf.iter_coproduct_word", "hopf", "HopfStructure.iterated_coproduct_word",
     EXACT_RANDOM),
    ("hopf.antipode", "hopf", "HopfStructure.antipode", EXACT),
    ("hopf.tensor_mul", "hopf", "Tensor.mul", EXACT_RANDOM),
    ("hopf.axiom_report", "hopf", "hopf_axiom_report", EXACT),
    ("hopf.slq2_hopf", "hopf", "slq2_hopf", SLQ2),
    ("hopf.derive_antipode", "hopf", "derive_antipode", SLQ2),
    ("dual.eval_word", "dual", "DualContext.eval_word_on_word", EXACT_RANDOM),
    ("dual.eval_letter", "dual", "DualContext.eval_letter_word", SLQ2),
    ("dual.eval_letter_poly", "dual", "DualContext.eval_letter_poly", SLQ2),
    ("dual.left_act", "dual", "DualElement.left_act", EXACT_RANDOM),
    ("dual.element_mul", "dual", "DualElement.__mul__", EXACT),
    ("dual.evaluate", "dual", "DualElement.evaluate", EXACT),
    ("dual.element_coproduct", "dual", "DualElement.coproduct", EXACT),
    ("dual.cross_mul", "dual", "CrossElement.__mul__", EXACT_RANDOM),
    ("dual.cross_act", "dual", "CrossElement.act", EXACT_RANDOM),
    ("dual.mixed_word_to_cross", "dual", "mixed_word_to_cross", EXACT_RANDOM),
    ("dual.make_slq2_context", "dual", "make_slq2_context", SLQ2),
    ("fodc.bicovariant_build", "fodc", "bicovariant_build", SLQ2),
    ("fodc.validate", "fodc", "fodc_validate", EXACT),
    ("fodc.differential", "fodc", "FodcData.differential", EXACT_RANDOM),
    ("fodc.right_mul", "fodc", "FodcData.right_mul", EXACT_RANDOM),
    ("fodc.gamma_left_mul", "fodc", "GammaElement.left_mul", EXACT_RANDOM),
    ("fodc.builtin_calculus", "fodc", "builtin_calculus", NUMERIC),
    ("commrep.prop1_build", "commrep", "prop1_build", EXACT),
    ("commrep.prop1_verify", "commrep", "prop1_verify", EXACT),
    ("commrep.prop4_verify", "commrep", "prop4_verify", EXACT),
    ("commrep.centrality_check", "commrep", "centrality_check", EXACT),
    ("commrep.hermiticity_check", "commrep", "hermiticity_check", EXACT),
    ("commrep.faithfulness_rank", "commrep", "faithfulness_rank", RANK),
    ("commrep.gamma_corpus", "commrep", "gamma_corpus", RANK),
    ("commrep.tau_central", "commrep", "tau_central", RANK),
    ("commrep.op_act", "commrep", "BOperator.act", EXACT),
    ("linalg.rank", "linalg", "exact_rank", RANK),
    ("linalg.solve", "linalg", "solve_field", SLQ2),
    ("hilbert.norm", "hilbert", "_norm", NUMERIC),
    ("hilbert.word_matrix", "hilbert", "TruncatedRep.word_matrix", NUMERIC),
    ("hilbert.poly_matrix", "hilbert", "TruncatedRep.poly_matrix", NUMERIC),
    ("hilbert.numeric_verify", "hilbert", "numeric_verify", NUMERIC),
    ("hilbert.disc_commrep", "hilbert", "disc_commrep", NUMERIC),
    ("hilbert.weyl_residuals", "hilbert", "weyl_commrep_residuals", NUMERIC),
    ("hilbert.ex3_build", "hilbert", "ex3_build", NUMERIC),
    ("hilbert.ex3_report", "hilbert", "ex3_report", NUMERIC),
]

CLI_TARGETS = [
    ("cli.context", "cli", "Session.context", SLQ2),
    ("cli.bicovariant", "cli", "Session.bicovariant", SLQ2),
]
SESSION_SPANS = tuple(name for name, *_ in CLI_TARGETS)
CHECK_PREFIX = "cli.check."

LAYERS = ("scalars", "algebra", "presentations", "hopf", "dual", "fodc",
          "commrep", "linalg", "hilbert", "cli")


def _modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "ncgv" or name.startswith("ncgv."))]


def _replace_everywhere(orig, new):
    """Point every module-level name, module-level dict value and class
    attribute of the package that holds ``orig`` at ``new``, so that names
    bound by ``from .x import y`` and aliases such as ``__rmul__ = __mul__``
    are patched where they are looked up."""
    hits = 0
    for mod in _modules():
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, new)
                hits += 1
            elif type(value) is dict:
                for k, v in list(value.items()):
                    if v is orig:
                        value[k] = new
                        hits += 1
            elif inspect.isclass(value) and value.__module__ == mod.__name__:
                for cattr, cvalue in list(vars(value).items()):
                    if cvalue is orig:
                        setattr(value, cattr, new)
                        hits += 1
    return hits


def _lookup(module, path):
    obj = importlib.import_module(f"ncgv.{module}")
    for part in path.split("."):
        obj = vars(obj)[part]
    return obj


class Tracer:
    """Aggregated span statistics for one process."""

    def __init__(self):
        # parent span name -> {span name -> [count, total_s, self_s]}
        self.tables = {"root": {}}
        self.extra = {}          # counters recorded by hooks
        self.max_values = {}     # gauges kept as a maximum
        self.setup_calls = []    # cold Session calls, in order
        self.contexts = []       # DualContext objects built by the session
        self.check_starts = []   # perf_counter at each check's start
        self._root = [0.0, self.tables["root"]]
        self._stack = [self._root]
        self.root_start = self.root_end = None

    # -- patching -------------------------------------------------------------

    def wrap(self, name, fn, before=None, after=None):
        """``fn`` timed as a span ``name``.  ``before(tracer, args, kwargs)``
        and ``after(tracer, args, result)`` read arguments and results to
        keep counters; they run outside the timed interval of the span.

        A frame is [time of child spans, statistics table of its children],
        so that closing a span costs one dict lookup by a string key."""
        if inspect.isgeneratorfunction(fn):
            raise TypeError(f"cannot time generator function {fn!r}")
        stack = self._stack
        push, pop = stack.append, stack.pop
        table = self.tables.setdefault(name, {})
        clock = time.perf_counter

        @wraps(fn)
        def span(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, table]
            push(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                pop()
                parent[0] += dt
                rec = parent[1].get(name)
                if rec is None:
                    rec = parent[1][name] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[0]

        if before is None and after is None:
            return span

        @wraps(fn)
        def hooked(*args, **kwargs):
            if before is not None:
                before(self, args, kwargs)
            result = span(*args, **kwargs)
            if after is not None:
                after(self, args, result)
            return result
        return hooked

    def install(self, targets):
        for name, module, path, _ in targets:
            orig = _lookup(module, path)
            new = self.wrap(name, orig, BEFORE.get(name), AFTER.get(name))
            if not _replace_everywhere(orig, new):
                raise RuntimeError(f"no reference to ncgv.{module}.{path} found")

    def install_checks(self):
        """One span per check function, named after the check."""
        from ncgv import cli

        for check, fn in list(cli.CHECKS.items()):
            new = self.wrap(CHECK_PREFIX + check, fn, _mark_check_start)
            _replace_everywhere(fn, new)

    def count_canonicalizing_inits(self):
        """Count QScalars built with ``canonical=False``, each of which
        reduces its fraction; a count only, since the time is already in the
        scalar operation that builds it."""
        from ncgv.scalars import QScalar

        orig = QScalar.__init__
        extra = self.extra

        def __init__(obj, num, den=(1,), canonical=False):
            if not canonical:
                extra["scalars.canon"] = extra.get("scalars.canon", 0) + 1
            orig(obj, num, den, canonical)
        QScalar.__init__ = __init__

    # -- root span ---------------------------------------------------------------

    def start(self):
        self.root_start = time.perf_counter()

    def stop(self):
        self.root_end = time.perf_counter()

    # -- results -----------------------------------------------------------------

    def dump(self):
        root_s = self.root_end - self.root_start
        return {
            "root_start": self.root_start,
            "root_s": root_s,
            "root_self_s": root_s - self._root[0],
            "spans": sorted([parent, name, *rec]
                            for parent, table in self.tables.items()
                            for name, rec in table.items()),
            "extra": self.extra,
            "max": self.max_values,
            "setup_calls": self.setup_calls,
            "check_starts": self.check_starts,
            "cache_entries": self.cache_entries(),
        }

    def cache_entries(self):
        from ncgv import presentations

        pres = {id(p): p for p in presentations._CACHE.values()}
        for ctx in self.contexts:
            pres[id(ctx.pres)] = ctx.pres
        return {
            "algebra": sum(len(p._nf_cache) for p in pres.values()),
            "hopf": sum(len(c.hopf._cop_cache) + len(c.hopf._iter_cache)
                        for c in self.contexts),
            "dual": sum(len(c._letter_word_cache) + len(c._word_eval_cache)
                        + len(c._act_cache) for c in self.contexts),
        }


# -- hooks: read the arguments or the result of a call, without changing either


def _count(tracer, key, n=1):
    tracer.extra[key] = tracer.extra.get(key, 0) + n


def _gauge(tracer, key, value):
    if value > tracer.max_values.get(key, 0):
        tracer.max_values[key] = value


def _mark_check_start(tracer, args, kwargs):
    tracer.check_starts.append(time.perf_counter())


def _probe_nf_word(tracer, args, kwargs):
    pres, w = args[0], args[1]
    if tuple(w) in pres._nf_cache:
        _count(tracer, "algebra.nf_word_hits")


def _probe_eval_word(tracer, args, kwargs):
    ctx, fword, w = args[0], args[1], args[2]
    if (fword, w) in ctx._word_eval_cache:
        _count(tracer, "dual.eval_word_hits")


def _probe_rank(tracer, args, kwargs):
    rows = args[0]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    _count(tracer, "linalg.rank_entries", nrows * ncols)
    _gauge(tracer, "linalg.rank_max_rows", nrows)


def _after_rank(tracer, args, rank):
    if rank == len(args[0]):
        _count(tracer, "linalg.rank_full")


def _probe_dim(tracer, args, kwargs):
    _gauge(tracer, "hilbert.max_dim", args[0].dim)


def _probe_norm(tracer, args, kwargs):
    _gauge(tracer, "hilbert.max_dim", max(args[0].shape, default=0))


def _probe_context(tracer, args, kwargs):
    if args[0]._ctx is None:
        tracer.setup_calls.append(["context"])


def _after_context(tracer, args, ctx):
    if all(c is not ctx for c in tracer.contexts):
        tracer.contexts.append(ctx)


def _probe_bicovariant(tracer, args, kwargs):
    zeta = args[1] if len(args) > 1 else kwargs.get("zeta", "eps")
    if zeta not in args[0]._bico:
        tracer.setup_calls.append(["bicovariant", zeta])


BEFORE = {
    "algebra.nf_word": _probe_nf_word,
    "dual.eval_word": _probe_eval_word,
    "linalg.rank": _probe_rank,
    "hilbert.word_matrix": _probe_dim,
    "hilbert.norm": _probe_norm,
    "cli.context": _probe_context,
    "cli.bicovariant": _probe_bicovariant,
}
AFTER = {
    "linalg.rank": _after_rank,
    "cli.context": _after_context,
}
