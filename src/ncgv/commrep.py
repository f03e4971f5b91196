"""Algebraic commutator representations and their exact verification.

Two constructions are covered: the bordered block-matrix operators
(C, Omega_k) acting on (n+1)-tuples of algebra elements, and the single
central functional C = sum X_kj A^j_k acting inside the cross product.
The block operators are the rows of the structure matrix M = (eps X; 0 f)
of the calculus written into bordered blocks, and Prop. 1 is the one
identity Omega_j rho(a) = sum_k (M_jk |> a) Omega_k, with Omega_0 = C.
The complex unit in front of [C, rho(a)] and of each Omega_k multiplies
both sides of every identity and is left out, so every entry lies over Q(s).
"""

from __future__ import annotations

from functools import cache

from .algebra import NCPoly, first_failure, first_failures, random_poly
from .dual import BF, CHAR, LM, LP, CrossElement, DualElement, mixed_word_to_cross
from .fodc import GammaElement
from .linalg import MatrixOverAlgebra, exact_rank
from .scalars import ONE, QScalar, ZERO


class CommRepError(ValueError):
    pass


class BOperator(MatrixOverAlgebra):
    """Matrix over the cross product acting on tuples of algebra elements."""

    __slots__ = ("ctx",)

    def __init__(self, ctx, entries):
        super().__init__(entries)
        self.ctx = ctx

    @classmethod
    def zero(cls, ctx, size):
        empty = CrossElement(ctx, {})
        return cls(ctx, [[empty for _ in range(size)] for _ in range(size)])

    @classmethod
    def diagonal(cls, ctx, size, poly):
        out = cls.zero(ctx, size)
        cell = CrossElement.from_poly(ctx, poly)
        for i in range(size):
            out.entries[i][i] = cell
        return out

    def _new(self, entries):
        return BOperator(self.ctx, entries)

    def _cell(self, p):
        return CrossElement.from_poly(self.ctx, p)

    def act(self, tup):
        """Apply to a tuple of algebra elements."""
        if len(tup) != self.size:
            raise CommRepError("tuple size mismatch")
        out = [self.ctx.pres.zero() for _ in range(self.size)]
        for j, x in enumerate(tup):
            if not x.is_zero():
                for i, row in enumerate(self.entries):
                    out[i] = out[i] + row[j].act(x)
        return out

# ---------------------------------------------------------------------------
# bordered block construction
# ---------------------------------------------------------------------------


def prop1_build(F):
    """C and Omega_1..Omega_n of size n+1: Omega_j is bordered (first row and
    first column) by row j of the structure matrix M without its first
    entry, and C = Omega_0; rho embeds the algebra diagonally."""
    ctx = F.ctx
    size = F.n + 1
    ops = []
    for row in F.structure_matrix():
        op = BOperator.zero(ctx, size)
        for k in range(1, size):
            cell = CrossElement.from_dual(ctx, row[k])
            op.entries[0][k] = op.entries[k][0] = cell
        ops.append(op)

    def rho(a):
        return BOperator.diagonal(ctx, size, a)
    return ops[0], ops[1:], rho


def _mul_by_algebra_right(op, a):
    """op * rho(a): multiply every entry by a on the right (straightened)."""
    cell = CrossElement.from_poly(op.ctx, a)
    return BOperator(op.ctx, [[e * cell for e in row] for row in op.entries])


def prop1_verify(C, Omegas, F, degree_a=2, degree_b=1):
    """Exact check of Prop. 1 on corpus data, one identity for every row j
    of the structure matrix M, with Omega_0 = C and eps |> a = a:

      Omega_j a . b = sum_k (M_jk |> a) Omega_k . b.

    Row 0 is (r1) (Ca - aC) . b = sum_k (X_k |> a) Omega_k . b, and row k+1
    is (r2) Omega_k a . b = sum_l (f^k_l |> a) Omega_l . b.  Both sides act
    as one operator, their difference.  Tuples are exercised through their
    single-slot components (the action is componentwise linear, so this is
    exhaustive for the stated degree)."""
    ctx = F.ctx
    pres = ctx.pres
    size = F.n + 1
    ops = [C, *Omegas]
    M = F.structure_matrix()
    words_b = ctx.corpus(degree_b)

    def tuples():
        for slot in range(size):
            for wb in words_b:
                tup = [pres.zero()] * size
                tup[slot] = NCPoly(pres, {wb: ONE})
                yield slot, wb, tup

    def witnesses():
        for wa in ctx.corpus(degree_a):
            a = NCPoly(pres, {wa: ONE})
            for j, row in enumerate(M):
                rhs = BOperator.zero(ctx, size)
                for op, m in zip(ops, row):
                    if m.terms:
                        acted = m.left_act(a)
                        if not acted.is_zero():
                            rhs = rhs + op.scale_poly(acted)
                delta = _mul_by_algebra_right(ops[j], a) - rhs
                for slot, wb, tup in tuples():
                    if all(x.is_zero() for x in delta.act(tup)):
                        continue
                    if j == 0:
                        yield 0, {"identity": "r1", "a": wa, "slot": slot, "b": wb}
                    else:
                        yield 1, {"identity": "r2", "a": wa, "k": j - 1,
                                  "slot": slot, "b": wb}

    return first_failures(["prop1_r1", "prop1_r2"], witnesses())


def tau_block(pairs, C, rho):
    """tau(sum_i a_i d b_i) = sum_i rho(a_i)(C rho(b_i) - rho(b_i) C); the
    complex unit in front of the paper's formula is left out."""
    out = None
    for a, b in pairs:
        piece = (_mul_by_algebra_right(C, b) - C.scale_poly(b)).scale_poly(a)
        out = piece if out is None else out + piece
    if out is None:
        raise CommRepError("empty presentation of a calculus element")
    return out


# ---------------------------------------------------------------------------
# central-element construction
# ---------------------------------------------------------------------------


def tau_central(pairs, B):
    """tau(sum_i a_i d b_i) = sum_i a_i (C b_i - b_i C) in the cross product."""
    ctx = B.ctx
    out = CrossElement(ctx, {})
    for a, b in pairs:
        cb = mixed_word_to_cross(ctx, [a, B.C, b])
        bc = mixed_word_to_cross(ctx, [a, b, B.C])
        out = out + cb - bc
    return out


def prop4_verify(B, degree=2):
    """Exact checks of the central-element commutator representation:
    the Omega straightening identity, the bimodule-map property against the
    theta-row table, the tau formula on corpus pairs, and the biinvariant
    image tau(theta) = C + Tr(A) eps."""
    ctx = B.ctx
    pres = ctx.pres
    n2 = len(B.labels)
    words = ctx.corpus(degree)

    def tau_gamma(gamma):
        """tau of a calculus element sum_l a_l theta_l: sum_l a_l Omega_l."""
        out = CrossElement(ctx, {})
        for lab, coeff in gamma.terms.items():
            out = out + mixed_word_to_cross(ctx, [coeff, B.Omega[B.labels.index(lab)]])
        return out

    # Omega_kj a = sum_il (f^{kj}_{il} |> a) Omega_il, exactly in the cross product
    def omega_rows():
        for idx in range(n2):
            omega = B.Omega[idx]
            for wa in words:
                a = NCPoly(pres, {wa: ONE})
                lhs = mixed_word_to_cross(ctx, [omega, a])
                rhs = CrossElement(ctx, {})
                for idx2 in range(n2):
                    acted = B.fodc.f[idx][idx2].left_act(a)
                    if not acted.is_zero():
                        rhs = rhs + mixed_word_to_cross(ctx, [acted, B.Omega[idx2]])
                if lhs != rhs:
                    yield {"identity": "omega_rows", "label": B.labels[idx], "a": wa}

    # bimodule map: tau(theta_kj . a) = Omega_kj a and tau(a . theta_kj) = a Omega_kj
    def bimodule_map():
        for idx in range(n2):
            for wa in words:
                if len(wa) > 1:
                    continue
                a = NCPoly(pres, {wa: ONE})
                g = GammaElement.basis(pres, B.labels[idx])
                lhs = tau_gamma(B.fodc.right_mul(g, a))
                if lhs != mixed_word_to_cross(ctx, [B.Omega[idx], a]):
                    yield {"identity": "bimodule", "label": B.labels[idx], "a": wa}

    # tau(a db) = a(Cb - bC)
    def tau_formula():
        for wa in words:
            a = NCPoly(pres, {wa: ONE})
            for wb in words:
                b = NCPoly(pres, {wb: ONE})
                lhs = tau_gamma(B.fodc.differential(b).left_mul(a))
                if lhs != tau_central([(a, b)], B):
                    yield {"identity": "tau_formula", "a": wa, "b": wb}

    checks = [first_failure("prop4_omega_rows", omega_rows()),
              first_failure("prop4_bimodule_map", bimodule_map()),
              first_failure("prop4_tau_formula", tau_formula())]

    # tau(theta) = C + Tr(A) eps, extensionally on the corpus
    theta_image = CrossElement(ctx, {})
    n = int(n2 ** 0.5)
    for k in range(1, n + 1):
        theta_image = theta_image + CrossElement.from_dual(
            ctx, B.Omega[B.labels.index(f"theta{k}{k}")])
    target = CrossElement.from_dual(ctx, B.C + ctx.unit().scale(B.TrA))
    ok = theta_image.ext_equal(target, degree)
    checks.append(("prop4_theta_image", ok,
                   None if ok else {"identity": "theta_image", "degree": degree}))
    return checks


def centrality_check(B, degree=3):
    """<Cg - gC, a> = 0 for every structural generator functional g and every
    corpus word a."""
    ctx = B.ctx
    letters = [BF(LP, i, j) for i in range(1, ctx.n + 1) for j in range(1, ctx.n + 1)]
    letters += [BF(LM, i, j) for i in range(1, ctx.n + 1) for j in range(1, ctx.n + 1)]
    letters.append(BF(CHAR, name=B.zeta_name))
    return dual_centrality(B.C, letters, degree)


def dual_centrality(C, letters, degree=3):
    ctx = C.ctx

    def witnesses():
        for bf in letters:
            g = DualElement(ctx, {ctx.canonical_word((bf,)): ONE})
            comm = C * g - g * C
            if not comm.terms:
                continue
            for w in ctx.corpus(degree):
                if not comm.evaluate(w).is_zero():
                    yield {"letter": repr(bf), "word": w}

    return [first_failure("centrality", witnesses())]


def hermiticity_check(B, degree=3):
    """C* = C extensionally, plus the twist-matrix ingredient
    conj(A^j_k) = A^k_j (entrywise, in the REAL star mode)."""
    ctx = B.ctx
    mode = ctx.pres.star_mode
    n = len(B.A)
    twist = first_failure("twist_matrix_conjugate_transpose",
                          ({"entry": (j + 1, k + 1)} for j in range(n) for k in range(n)
                           if B.A[j][k].star(mode) != B.A[k][j]))
    ok = B.C.star().ext_equal(B.C, degree)
    return [twist, ("central_element_hermitean", ok, None if ok else {"degree": degree})]


# ---------------------------------------------------------------------------
# faithfulness as an exact rank statement
# ---------------------------------------------------------------------------


def gamma_corpus(B, degree):
    """Pairs (a, g) with a a normal word of degree < degree and g a
    generator: the calculus elements a d(g) of total degree <= degree."""
    pres = B.ctx.pres
    pairs = []
    for w in pres.normal_words(degree - 1):
        a = NCPoly(pres, {w: ONE})
        for g in pres.generators:
            pairs.append((a, pres.gen(g)))
    return pairs


def _flatten(vectors):
    keys = sorted({k for vec in vectors for k in vec}, key=repr)
    index = {k: i for i, k in enumerate(keys)}
    rows = []
    for vec in vectors:
        row = [ZERO] * len(keys)
        for k, c in vec.items():
            row[index[k]] = c
        rows.append(row)
    return rows


def faithfulness_rank(B, degree=1, pairs=None):
    """Exact rank of tau on the span of the corpus calculus elements versus
    the dimension of that span (coefficient matrices over Q(s), fraction-free
    elimination).  Equality certifies injectivity on the span; a statement
    exact over Q(s) holds at every transcendental numeric q."""
    ctx = B.ctx
    if pairs is None:
        pairs = gamma_corpus(B, degree)
    gamma_vecs = []
    image_vecs = []
    for a, b in pairs:
        g = B.fodc.differential(b).left_mul(a)
        gamma_vecs.append({(lab, w): c
                           for lab, poly in g.terms.items()
                           for w, c in poly.terms.items()})
        t = tau_central([(a, b)], B)
        image_vecs.append(dict(t.terms))
    dim_gamma = exact_rank(_flatten(gamma_vecs)) if gamma_vecs else 0
    rank_tau = exact_rank(_flatten(image_vecs)) if image_vecs else 0
    return {
        "check": "faithfulness_rank",
        "degree": degree,
        "corpus_size": len(pairs),
        "gamma_span_dim": dim_gamma,
        "tau_rank": rank_tau,
        "faithful_on_corpus": rank_tau == dim_gamma,
        "note": ("rank computed exactly over Q(s); equality certifies "
                 "injectivity on the span for every transcendental q"),
    }


# ---------------------------------------------------------------------------
# quantum-space block representations (explicit C matrices over the algebra)
# ---------------------------------------------------------------------------


def disc_block_c(pres):
    """(1-q^2)^{-1} (0 z; z* 0) over the quantum disc algebra."""
    inv = (ONE - QScalar.q_power(2)).inverse()
    z = pres.gen("z").scale(inv)
    zs = pres.gen("z*").scale(inv)
    zero = pres.zero()
    return MatrixOverAlgebra([[zero, z], [zs, zero]])


def plane_block_c(pres):
    """(q^2-1)^{-1} diag(q^2 x^2 yinv^2, yinv^2) over the extended plane."""
    inv = (QScalar.q_power(2) - ONE).inverse()
    x = pres.gen("x")
    yinv = pres.gen("yinv")
    upper = (x * x * yinv * yinv).scale(inv * QScalar.q_power(2))
    lower = (yinv * yinv).scale(inv)
    zero = pres.zero()
    return MatrixOverAlgebra([[upper, zero], [zero, lower]])


def block_commutator(C, p):
    rho = MatrixOverAlgebra.diagonal([p] * C.size)
    return C * rho - rho * C


def row_transport(calc, rho, F):
    """Every bimodule row (omega_gamma g -> sum c h omega_gamma') transported
    to commutators under rho (algebra element -> operator with @, + and -):

        [F, rho(gamma)] rho(g) - sum rho(c h) [F, rho(gamma')],

    with [F, rho(g)] = F @ rho(g) - rho(g) @ F for each unit differential
    d g = omega_gamma.  Returns (rows, comms): comms maps labels to their
    commutators, and rows yields, in sorted row order and one residual at a
    time, (label, generator, residual, skip reason), where exactly one of
    residual and reason is None."""
    pres = calc.pres
    rho_gen = cache(lambda g: rho(pres.gen(g)))
    comms = {}
    for gen, dg in calc.dmap.items():
        if len(dg.terms) == 1:
            (label, coeff), = dg.terms.items()
            if coeff == pres.one():
                pm = rho_gen(gen)
                comms[label] = F @ pm - pm @ F

    def residual(label, gen, row):
        # its own frame, so that only the residual outlives the row: dense
        # operands of a large model are freed before the next row
        lhs = comms[label] @ rho_gen(gen)
        rhs = None
        for lab2, h in row.terms.items():
            piece = rho(h) @ comms[lab2]
            rhs = piece if rhs is None else rhs + piece
        return lhs if rhs is None else lhs - rhs

    def rows():
        for (label, gen), row in sorted(calc.rows.items()):
            missing = [lab for lab in (label, *row.terms) if lab not in comms]
            if not missing:
                yield label, gen, residual(label, gen, row), None
            elif missing[0] == label:
                yield label, gen, None, "label without generator"
            else:
                yield label, gen, None, f"no commutator image for {missing[0]}"

    return rows(), comms


def quantum_space_commrep_report(calc, C):
    """Exact row transport for a block C: for every bimodule row
    (omega_gamma g -> sum c h omega_gamma'),
        [C, rho(gamma)] rho(g) = sum c rho(h) [C, rho(gamma')].
    Also reports the derived generator commutators."""
    rows, comms = row_transport(
        calc, lambda p: MatrixOverAlgebra.diagonal([p] * C.size), C)
    return row_statuses(
        rows, lambda delta: None if delta.is_zero() else repr(delta)), comms


def row_statuses(rows, witness):
    """(row, status, witness) for each transported row; ``witness(residual)``
    is None exactly when the residual vanishes, and a skipped row carries
    its reason."""
    out = []
    for label, gen, delta, skip in rows:
        wit = skip or witness(delta)
        status = "skipped" if skip else "pass" if wit is None else "fail"
        out.append((f"{label}.{gen}", status, wit))
    return out


def disc_commutator_comparison(calc, C):
    """The derived commutator corner next to its common alternative
    normalization 1 - z* z; the two differ by the exact factor recorded in
    the report."""
    pres = calc.pres
    derived = block_commutator(C, pres.gen("z")).entries[1][0]
    alt = pres.one() - pres.gen("z*") * pres.gen("z")
    diff = alt - derived
    # derived corner = q^{-2} (gamma - z* z); alt form = q^2 times it
    ratio_holds = alt == derived.scale(QScalar.q_power(2))
    return {
        "derived_corner": repr(derived),
        "alt_normalization_corner": repr(alt),
        "difference": repr(diff),
        "alt_equals_q2_times_derived": ratio_holds,
    }


def direct_sum_central(outputs, degree=2):
    """Central element for a direct sum of tangent spaces: the sum of the
    per-summand central elements.  Each summand is verified on its own and
    the sum is checked to act linearly and stay central."""
    if not outputs:
        raise CommRepError("empty direct sum")
    ctx = outputs[0].ctx
    total = DualElement(ctx, {})
    checks = []
    for idx, B in enumerate(outputs):
        if B.ctx is not ctx:
            raise CommRepError("summands live over different contexts")
        summand = prop4_verify(B, degree)
        checks.append((f"summand_{idx}_prop4",
                       all(ok for _, ok, _ in summand),
                       [name for name, ok, _ in summand if not ok] or None))
        total = total + B.C
    # linearity of the commutator against the sum, on corpus pairs
    pres = ctx.pres

    def nonlinear_pairs():
        for wa in ctx.corpus(1):
            a = NCPoly(pres, {wa: ONE})
            for wb in ctx.corpus(1):
                b = NCPoly(pres, {wb: ONE})
                lhs = (mixed_word_to_cross(ctx, [a, total, b])
                       - mixed_word_to_cross(ctx, [a, b, total]))
                rhs = CrossElement(ctx, {})
                for B in outputs:
                    rhs = rhs + tau_central([(a, b)], B)
                if lhs != rhs:
                    yield {"a": wa, "b": wb}

    checks.append(first_failure("sum_linearity", nonlinear_pairs()))
    return total, checks


def leibniz_coherence_check(B, rng, samples=40, degree=2):
    """tau(d(ab)) = tau(a db) + tau(da) b, exactly, randomized."""
    ctx = B.ctx
    pres = ctx.pres
    for _ in range(samples):
        a = random_poly(pres, rng, degree, 2)
        b = random_poly(pres, rng, degree, 2)
        lhs = tau_central([(pres.one(), a * b)], B)
        rhs = tau_central([(a, b)], B)
        tail = tau_central([(pres.one(), a)], B) * CrossElement.from_poly(ctx, b)
        if lhs != rhs + tail:
            return False, {"a": repr(a), "b": repr(b)}
    return True, None
