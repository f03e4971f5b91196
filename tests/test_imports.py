"""Imports of the package: every name a module imports is used in that module,
every private module-level name is read somewhere in the package, every
public function and method is reached from the package or is part of its
named API, and the numeric layer (``hilbert``, with numpy) is loaded only by a
process that binds a numeric check, and scipy by none."""

import ast
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ncgv
from ncgv import cli

MODULES = sorted(Path(ncgv.__file__).parent.glob("*.py"))


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_detects_an_unused_name():
    assert unused_imports("from os import path, sep\nprint(sep)\n") == [(1, "path")]
    assert unused_imports("import os.path\nos.getcwd()\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_imported_name(path):
    assert unused_imports(path.read_text()) == []


def private_names(source):
    """Private (single-underscore) names a module binds at its top level, other
    than by import, with their lines."""
    out = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            found = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [n.id for t in found for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                out.setdefault(name, node.lineno)
    return out


def unread_private_names(sources):
    """(module, line, name) of every private module-level name that is neither
    read in its own module nor imported by another module of ``sources``
    ({module name: source})."""
    imported = set()
    for source in sources.values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom):
                imported.update(alias.name for alias in node.names)
    out = []
    for module, source in sources.items():
        read = {node.id for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        out += [(module, line, name) for name, line in private_names(source).items()
                if name not in read and name not in imported]
    return sorted(out)


def test_detects_an_unread_private_name():
    sources = {"a": "_KINDS = {}\n_used = 1\nprint(_used)\ndef _helper(): pass\n",
               "b": "from .a import _helper\n"}
    assert unread_private_names(sources) == [("a", 1, "_KINDS")]


def test_every_private_name_is_read():
    sources = {path.stem: path.read_text() for path in MODULES}
    assert unread_private_names(sources) == []


# Public names that nothing in the package reaches, each with its reason.
API = {
    "run_scenario": "the in-process entry point of ncgv verify",
}


def unreached_public_names(sources):
    """(module, line, name) of every public function and method of
    ``sources`` ({module name: source}) that no module reaches: a
    module-level function that is neither loaded by name nor imported, a
    method whose name is never read as an attribute."""
    loaded, read = set(), set()
    for source in sources.values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                loaded.update(alias.name for alias in node.names)
    out = []
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, ast.FunctionDef):
                found = [(node, node.name, loaded)]
            elif isinstance(node, ast.ClassDef):
                found = [(item, f"{node.name}.{item.name}", read) for item in node.body
                         if isinstance(item, ast.FunctionDef)]
            else:
                continue
            out += [(module, item.lineno, name) for item, name, reached in found
                    if not item.name.startswith("_") and item.name not in reached]
    return sorted(out)


def test_detects_an_unreached_public_name():
    sources = {"a": ("def load(): pass\ndef used(): pass\nclass K:\n"
                     "    def run(self): pass\n    def walk(self): pass\n"
                     "    def _step(self): pass\n    def __len__(self): return 0\n"
                     "used()\nK().walk\n"),
               "b": "from .a import load\n"}
    assert unreached_public_names(sources) == [("a", 4, "K.run")]


def test_every_public_name_is_reached_or_listed_api():
    sources = {path.stem: path.read_text() for path in MODULES}
    unreached = unreached_public_names(sources)
    assert [name for _, _, name in unreached if name not in API] == []
    # an API entry that the package reaches, or that is gone, is stale
    assert sorted(name for _, _, name in unreached) == sorted(API)


def rule_readers(sources):
    """(module, line) of every read of an attribute ``rules`` outside
    ``algebra``: other modules reach the relations through
    ``AlgebraPresentation.relation_residuals``, the one relation test."""
    return sorted((module, node.lineno) for module, source in sources.items()
                  if module != "algebra" for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr == "rules"
                  and isinstance(node.ctx, ast.Load))


def test_detects_a_rule_reader():
    sources = {"algebra": "for lhs, rhs in pres.rules: pass\n",
               "a": "x = 1\nfor lhs, rhs in self.pres.rules: pass\n",
               "b": "self.rules = []\nrules = pres.relation_residuals(f)\n"}
    assert rule_readers(sources) == [("a", 2)]


def test_only_algebra_reads_the_rules():
    assert rule_readers({path.stem: path.read_text() for path in MODULES}) == []


def star_readers(sources):
    """(module, line) of every read of an attribute ``star_mode``, and of every
    subscript of an attribute ``star``, outside ``algebra``: other modules
    star a scalar through ``AlgebraPresentation.conj`` and a word through
    ``AlgebraPresentation.star_word``.  Testing ``pres.star is None`` is not
    a read of the star."""
    return sorted((module, node.lineno) for module, source in sources.items()
                  if module != "algebra" for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                  and node.attr == "star_mode"
                  or isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute)
                  and node.value.attr == "star")


def test_detects_a_star_reader():
    sources = {"algebra": "m = self.star_mode\nh, c = self.star[g]\n",
               "a": "if pres.star is None: pass\nx = c.star(pres.star_mode)\n",
               "b": "p = q.star()\nh, c = ctx.pres.star[g]\nP(star_mode=REAL)\n"}
    assert star_readers(sources) == [("a", 2), ("b", 2)]


def test_only_algebra_reads_the_star():
    assert star_readers({path.stem: path.read_text() for path in MODULES}) == []


def owner_checks(sources):
    """(module, line) of every definition of ``_same`` but the one in the
    body of ``algebra.LinComb``, the one owner check: a value type names only
    its owner (``_owner``) and its error (``_error``)."""
    found = []
    for module, source in sources.items():
        tree = ast.parse(source)
        shared = {id(node) for cls in tree.body if isinstance(cls, ast.ClassDef)
                  and (module, cls.name) == ("algebra", "LinComb") for node in cls.body}
        found += [(module, node.lineno) for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef) and node.name == "_same"
                  and id(node) not in shared]
    return sorted(found)


def test_detects_an_owner_check():
    sources = {"algebra": ("class LinComb:\n    def _same(self, other): pass\n"
                           "class P(LinComb):\n    def _same(self, other): pass\n"),
               "a": "class P:\n    _error = KeyError\n    def _owner(self): pass\n",
               "b": "x = y._same(z)\nclass LinComb:\n    def _same(self, other): pass\n"}
    assert owner_checks(sources) == [("algebra", 4), ("b", 3)]


def test_only_lincomb_checks_owners():
    assert owner_checks({path.stem: path.read_text() for path in MODULES}) == []


def multiplicative_namers(sources):
    """(module, line) of every name, import or attribute ``multiplicative``
    outside ``dual`` and ``fodc``: a calculus's left covariance is its one
    verdict ``FodcData.covariant``, so no other module certifies a structure
    matrix again."""
    return sorted((module, node.lineno) for module, source in sources.items()
                  if module not in ("dual", "fodc") for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Name) and node.id == "multiplicative"
                  or isinstance(node, ast.alias) and node.name == "multiplicative"
                  or isinstance(node, ast.Attribute) and node.attr == "multiplicative")


def test_detects_a_multiplicative_namer():
    sources = {"dual": "def multiplicative(M): pass\nok = multiplicative(M)\n",
               "fodc": "from .dual import multiplicative\nok = multiplicative(M)\n",
               "a": "x = 1\nfrom .dual import DualElement, multiplicative\n",
               "b": "# not multiplicative\nok = F.covariant\nok = dual.multiplicative(M)\n"}
    assert multiplicative_namers(sources) == [("a", 2), ("b", 3)]


def test_only_fodc_certifies_a_structure_matrix():
    assert multiplicative_namers({path.stem: path.read_text() for path in MODULES}) == []


def character_writers(sources):
    """(module, line) of every write into an attribute ``characters`` outside
    ``dual``: an item set or deleted, a mutating method called, or the
    attribute rebound.  Characters enter only through
    ``DualContext.add_character``, which checks them."""
    mutators = {"update", "setdefault", "pop", "popitem", "clear", "__setitem__"}

    def named(node):
        return isinstance(node, ast.Attribute) and node.attr == "characters"

    return sorted((module, node.lineno) for module, source in sources.items()
                  if module != "dual" for node in ast.walk(ast.parse(source))
                  if named(node) and isinstance(node.ctx, (ast.Store, ast.Del))
                  or isinstance(node, ast.Subscript) and named(node.value)
                  and isinstance(node.ctx, (ast.Store, ast.Del))
                  or isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr in mutators and named(node.func.value))


def test_detects_a_character_writer():
    sources = {"dual": "self.characters[name] = vals\n",
               "a": "v = ctx.characters['eps']\nctx.characters['x'] = v\n",
               "b": "ctx.characters.update(d)\nnames = sorted(ctx.characters)\n",
               "c": "del ctx.characters['x']\nctx.characters = {}\n"}
    assert character_writers(sources) == [("a", 2), ("b", 1), ("c", 1), ("c", 2)]


def test_only_dual_registers_characters():
    assert character_writers({path.stem: path.read_text() for path in MODULES}) == []


def json_importers(sources):
    """The modules of ``sources`` that import ``json`` anywhere, at the top
    or inside a function."""
    return sorted(module for module, source in sources.items()
                  if any(isinstance(node, ast.Import)
                         and any(alias.name == "json" for alias in node.names)
                         or isinstance(node, ast.ImportFrom) and node.module == "json"
                         for node in ast.walk(ast.parse(source))))


def test_detects_a_json_importer():
    sources = {"a": "import json\n",
               "b": "def load(path):\n    import json as _json\n",
               "c": "from json import loads\n",
               "d": "import jsonschema\nx = doc.json\n# import json\n"}
    assert json_importers(sources) == ["a", "b", "c"]


def test_only_the_document_readers_import_json():
    # cli reads scenarios and writes reports and calculi, dual reads the
    # characters, rmatrix the shipped R-matrix; no other module has a file
    # format
    sources = {path.stem: path.read_text() for path in MODULES}
    assert json_importers(sources) == ["cli", "dual", "rmatrix"]


def dense_matrix_namers(sources):
    """(module, line) of every attribute ``eye``, ``diag``, ``block`` or
    ``ndarray`` of numpy (``np``) in ``sources``: every matrix of the
    numeric models is a ``hilbert.Diagonals``, one format, so no module
    builds a dense matrix or tests for one."""
    dense = {"eye", "diag", "block", "ndarray"}
    return sorted((module, node.lineno) for module, source in sources.items()
                  for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr in dense
                  and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"))


def test_detects_a_dense_matrix_namer():
    sources = {"a": "one = np.eye(n)\nx = np.diag(v)\n",
               "b": "# np.block\nok = isinstance(m, np.ndarray)\nB = numpy.block(g)\n",
               "c": "d = np.diagonal(m)\nB = Diagonals.block(g)\nz = np.zeros(3)\n"}
    assert dense_matrix_namers(sources) == [("a", 1), ("a", 2), ("b", 2), ("b", 3)]


def test_numeric_models_have_one_matrix_format():
    assert dense_matrix_namers({path.stem: path.read_text() for path in MODULES}) == []


def scalar_evaluators(source):
    """Lines of every call of a method ``evaluate`` in ``source`` outside the
    methods of ``TruncatedRep``: a numeric model evaluates exact scalars only
    where it maps the algebra (its words, polynomials and relations), so no
    model types an exact scalar in by hand."""
    tree = ast.parse(source)
    owned = {id(node) for cls in tree.body if isinstance(cls, ast.ClassDef)
             and cls.name == "TruncatedRep" for node in ast.walk(cls)}
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "evaluate" and id(node) not in owned)


def test_detects_a_scalar_evaluator():
    source = ("class TruncatedRep:\n"
              "    def poly_matrix(self, p):\n"
              "        return [c.evaluate(self.s) for c in p]\n"
              "    def relations(self):\n"
              "        return f(lambda c: c.evaluate(self.s))\n"
              "def weyl(rep):\n"
              "    return _Q(1).evaluate(rep.s_value)\n"
              "class Other:\n"
              "    def run(self):\n"
              "        evaluate = self.evaluate\n"
              "        return self.c.evaluate(1j)\n")
    assert scalar_evaluators(source) == [7, 11]


def test_only_truncated_rep_evaluates_scalars_in_hilbert():
    path = Path(ncgv.__file__).parent / "hilbert.py"
    assert scalar_evaluators(path.read_text()) == []


NUMERIC = ("ncgv.hilbert", "numpy", "scipy")


def numeric_modules_after(code):
    """The modules of ``NUMERIC`` loaded in a fresh interpreter that has run
    ``code``."""
    root = str(Path(ncgv.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    probe = (f"{code}\nimport json, sys\n"
             f"print(json.dumps([m for m in {NUMERIC!r} if m in sys.modules]))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": path})
    return json.loads(proc.stdout)


def test_cli_import_leaves_numpy_unloaded():
    # numpy costs about 0.15 s to import, so only the numeric checks load it
    assert numeric_modules_after("import ncgv.cli") == []


def test_exact_verify_leaves_numpy_unloaded(tmp_path):
    out = tmp_path / "report.json"
    code = ("from ncgv import cli\n"
            f"assert cli.main(['verify', 'builtin:slq2_full', '--out', {str(out)!r}]) == 0")
    assert numeric_modules_after(code) == []
    assert json.loads(out.read_text())["status"] == "pass"


def test_numeric_check_loads_hilbert_when_bound():
    # binding loads numpy, so that its import is set-up time of a numeric
    # scenario and not time of its first check
    code = ("from ncgv import cli\n"
            "cli.validate_scenario({'checks': [{'name': 'weyl_numeric'}]})")
    assert numeric_modules_after(code) == ["ncgv.hilbert", "numpy"]


def test_disc_model_leaves_scipy_unloaded(tmp_path):
    # the disc model is kept as numpy diagonals; importing scipy.sparse would
    # cost about 0.15 s and 20 MB of a numeric run
    out = tmp_path / "report.json"
    code = ("from ncgv import cli\n"
            f"assert cli.main(['verify', 'builtin:disc_m64', '--out', {str(out)!r}]) == 0")
    assert numeric_modules_after(code) == ["ncgv.hilbert", "numpy"]
    assert json.loads(out.read_text())["status"] == "pass"


def hilbert_readers(sources):
    """The names in ``sources`` ({name: function source}) whose function
    imports from ``hilbert``."""
    return {name for name, source in sources.items()
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom)
            and (node.module == "hilbert"
                 or any(alias.name == "hilbert" for alias in node.names))}


def test_detects_a_hilbert_reader():
    sources = {"a": "def a():\n    from .hilbert import x\n    return x()\n",
               "b": "def b():\n    from . import hilbert\n",
               "c": "def c():\n    from .hopf import hilbert_space\n"}
    assert hilbert_readers(sources) == {"a", "b"}


def test_numeric_checks_are_the_hilbert_readers():
    # a check missing from NUMERIC_CHECKS would load numpy inside its own time
    sources = {name: inspect.getsource(fn) for name, fn in cli.CHECKS.items()}
    assert hilbert_readers(sources) == cli.NUMERIC_CHECKS
