"""Built-in algebra presentations.

The quantum SL(2) relations are not typed in: they are generated from the
R-matrix data file as the entries of R T1 T2 - T2 T1 R, a product of
``linalg.MatrixOverAlgebra`` over the free algebra on the matrix
generators, oriented by degree-lex, and completed with the quantum
determinant rule.  The quantum space presentations (disc, real plane,
extended plane) are entered directly and confluence-checked.
"""

from __future__ import annotations

from .algebra import AlgebraPresentation, PresentationError
from .linalg import MatrixOverAlgebra
from .rmatrix import builtin_rmatrix
from .scalars import ONE, REAL, UNIT, QScalar

_Q = QScalar.q_power


def rtt_relations(R, gen_name):
    """Quadratic relations from R T1 T2 = T2 T1 R: the term maps of the
    nonzero entries of R T1 T2 - T2 T1 R in row-major order, over the free
    algebra on the matrix generators gen_name(i, j)."""
    n = R.n
    rng = range(1, n + 1)
    free = AlgebraPresentation("free", [gen_name(i, j) for i in rng for j in rng], [])
    zero = free.zero()

    def matrix(entry):
        return MatrixOverAlgebra.from_index(n, 2, entry)

    Rm = matrix(lambda i, k, j, l: free.one().scale(R.entry(i, k, j, l)))
    T1 = matrix(lambda i, k, j, l: free.gen(gen_name(i, j)) if k == l else zero)
    T2 = matrix(lambda i, k, j, l: free.gen(gen_name(k, l)) if i == j else zero)
    rtt = Rm @ T1 @ T2 - T2 @ T1 @ Rm
    return [e.terms for row in rtt.entries for e in row if not e.is_zero()]


def slq2_presentation():
    """O(SL_q(2)) as a *-algebra (compact form), derived from the R-matrix."""
    R = builtin_rmatrix("slq2")
    n = R.n

    def gen_name(i, j):
        return f"v{i}{j}"

    order = [gen_name(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    # interreduce: a derived relation already implied by the accepted ones
    # (e.g. restated through b c = c b) is dropped; the others are oriented
    # as leading word -> rest
    rules = []
    for rel in rtt_relations(R, gen_name):
        probe = AlgebraPresentation("slq2-partial", order, rules)
        reduced = probe.normal_form_terms(rel)
        if reduced:
            lead = max(reduced, key=probe.word_key)
            c = reduced[lead]
            rules.append((lead, {w: -(cv / c) for w, cv in reduced.items() if w != lead}))
    # quantum determinant = 1; leading term under degree-lex is v12 v21
    det_lead = (gen_name(1, 2), gen_name(2, 1))
    rules.append((det_lead, {(gen_name(1, 1), gen_name(2, 2)): _Q(-1), (): -_Q(-1)}))
    star = {
        "v11": ("v22", ONE),
        "v22": ("v11", ONE),
        "v12": ("v21", -_Q(1)),
        "v21": ("v12", -_Q(-1)),
    }
    return AlgebraPresentation("slq2", order, rules, star=star, star_mode=REAL)


def disc_presentation(gamma=ONE):
    """Quantum disc / complex plane: z* z - q^2 z z* = gamma (1 - q^2)."""
    rules = [((("z*", "z")), {("z", "z*"): _Q(2), (): gamma * (ONE - _Q(2))})]
    star = {"z": ("z*", ONE), "z*": ("z", ONE)}
    return AlgebraPresentation("disc", ["z", "z*"], rules, star=star, star_mode=REAL)


def real_plane_presentation():
    """Hermitean x, y with x y = q y x, extended by the inverse of y.

    |q| = 1, so the star mode conjugates q to q^{-1}.  The rule for yinv x
    is the rewrite closure of the defining relations; without it the system
    is not confluent.
    """
    rules = [
        (("y", "x"), {("x", "y"): _Q(-1)}),
        (("yinv", "x"), {("x", "yinv"): _Q(1)}),
        (("y", "yinv"), {(): ONE}),
        (("yinv", "y"), {(): ONE}),
    ]
    star = {"x": ("x", ONE), "y": ("y", ONE), "yinv": ("yinv", ONE)}
    return AlgebraPresentation("real_plane", ["x", "y", "yinv"], rules,
                               star=star, star_mode=UNIT)


def ext_plane_presentation():
    """Realified quantum plane: x y = q y x plus the starred consequences
    and y* y - y y* = (q^{-2} - 1) x* x, for real q."""
    rules = [
        (("y", "x"), {("x", "y"): _Q(-1)}),
        (("y*", "x"), {("x", "y*"): _Q(1)}),
        (("x*", "x"), {("x", "x*"): ONE}),
        (("x*", "y"), {("y", "x*"): _Q(1)}),
        (("y*", "x*"), {("x*", "y*"): _Q(1)}),
        (("y*", "y"), {("y", "y*"): ONE, ("x", "x*"): _Q(-2) - ONE}),
    ]
    star = {"x": ("x*", ONE), "x*": ("x", ONE), "y": ("y*", ONE), "y*": ("y", ONE)}
    return AlgebraPresentation("ext_plane", ["x", "y", "x*", "y*"], rules,
                               star=star, star_mode=REAL)


_BUILTINS = {
    "disc": disc_presentation,
    "real_plane": real_plane_presentation,
    "ext_plane": ext_plane_presentation,
    "slq2": slq2_presentation,
}

# presentations are immutable after construction, so instances are shared;
# this also keeps polynomial parents identical across modules
_CACHE = {}


def builtin_presentation(name):
    if name not in _BUILTINS:
        raise PresentationError(f"unknown builtin presentation {name!r}")
    if name not in _CACHE:
        _CACHE[name] = _BUILTINS[name]()
    return _CACHE[name]
