"""Algebraic commutator representations and their exact verification.

Two constructions are covered: the bordered block-matrix operators
(C, Omega_k) acting on (n+1)-tuples of algebra elements, and the single
central functional C = sum X_kj A^j_k acting inside the cross product.
The block operators are the rows of the structure matrix M = (eps X; 0 f)
of the calculus written into bordered blocks, and Prop. 1 is the one
identity Omega_j rho(a) = sum_k (M_jk |> a) Omega_k, with Omega_0 = C,
decided for every a from the unit and the generators when the calculus's
one covariance verdict (``FodcData.covariant``) certifies M.
The complex unit in front of [C, rho(a)] and of each Omega_k multiplies
both sides of every identity and is left out, so every entry lies over Q(s).
"""

from __future__ import annotations

from functools import cache

from .algebra import (NCPoly, first_failure, first_failures, nonzero_repr, row_statuses,
                      search_until_certified)
from .dual import BF, CHAR, LM, LP, CrossElement, DualElement, mixed_word_to_cross
from .fodc import GammaElement
from .linalg import MatrixOverAlgebra, exact_rank
from .scalars import ONE, QScalar, ZERO


class CommRepError(ValueError):
    pass


class BOperator(MatrixOverAlgebra):
    """Matrix over the cross product acting on tuples of algebra elements."""

    __slots__ = ()

    def act(self, tup):
        """Apply to a tuple of algebra elements."""
        if len(tup) != self.size:
            raise CommRepError("tuple size mismatch")
        out = [tup[0].pres.zero() for _ in range(self.size)]
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
    entry, and C = Omega_0."""
    ctx = F.ctx
    empty = CrossElement(ctx, {})
    ops = []
    for row in F.structure_matrix:
        border = [empty] + [CrossElement.from_dual(ctx, m) for m in row[1:]]
        ops.append(BOperator([border] + [[b] + [empty] * F.n for b in border[1:]]))
    return ops[0], ops[1:]


def _mul_by_algebra_right(op, cell):
    """op * rho(a): multiply every entry on the right by the cross-product
    cell of a (straightened)."""
    return BOperator([[e * cell for e in row] for row in op.entries])


def prop1_verify(C, Omegas, F, degree_a=2):
    """Exact check of Prop. 1 on corpus data, one identity for every row j
    of the structure matrix M, with Omega_0 = C and eps |> a = a:

      Omega_j a . b = sum_k (M_jk |> a) Omega_k . b.

    Row 0 is (r1) (Ca - aC) . b = sum_k (X_k |> a) Omega_k . b, and row k+1
    is (r2) Omega_k a . b = sum_l (f^k_l |> a) Omega_l . b.  Both sides act
    as one operator, their difference P_j(a), on the tuples whose one
    nonzero slot holds a word b of degree <= 1 (the action is componentwise
    linear).

    When M is multiplicative (``F.covariant``), M_jk |> ab =
    sum_l (M_jl |> a)(M_lk |> b), so P_j(ab) = P_j(a) b + sum_k (M_jk |> a)
    P_k(b), and P vanishes on every a once it vanishes on the unit and the
    generators.  So when every P_j(a) of the words a of degree <= 1 is the
    zero operator term by term (no term left in any entry) and M is
    multiplicative, the identity holds for every a and the corpus search
    stops there; otherwise it runs through the words of degree <= degree_a,
    and each identity's first failing (a, slot, b) is its witness."""
    ctx = F.ctx
    pres = ctx.pres
    size = F.n + 1
    ops = [C, *Omegas]
    M = F.structure_matrix
    words_b = ctx.corpus(1)

    tuples = [(slot, wb, [NCPoly(pres, {wb: ONE}) if s == slot else pres.zero()
                          for s in range(size)])
              for slot in range(size) for wb in words_b]

    zero = BOperator([[CrossElement(ctx, {})] * size for _ in range(size)])
    zero_so_far = True  # every P_j(a) visited so far without a term

    def certificate():
        return zero_so_far and F.covariant

    def witnesses():
        nonlocal zero_so_far
        for wa in search_until_certified(ctx.corpus(degree_a), words_b, certificate):
            a = NCPoly(pres, {wa: ONE})
            a_cell = CrossElement.from_poly(ctx, a)
            for j, row in enumerate(M):
                rhs = zero
                for op, m in zip(ops, row):
                    if m.terms:
                        acted = m.left_act(a)
                        if not acted.is_zero():
                            rhs = rhs + op.scale_poly(CrossElement.from_poly(ctx, acted))
                delta = _mul_by_algebra_right(ops[j], a_cell) - rhs
                zero_so_far = zero_so_far and delta.is_zero()
                for slot, wb, tup in tuples:
                    if all(x.is_zero() for x in delta.act(tup)):
                        continue
                    if j == 0:
                        yield 0, {"identity": "r1", "a": wa, "slot": slot, "b": wb}
                    else:
                        yield 1, {"identity": "r2", "a": wa, "k": j - 1,
                                  "slot": slot, "b": wb}

    return first_failures(["prop1_r1", "prop1_r2"], witnesses())


# ---------------------------------------------------------------------------
# central-element construction
# ---------------------------------------------------------------------------


def tau_central(a, b, B):
    """tau(a db) = a (C b - b C) in the cross product."""
    ctx = B.ctx
    return mixed_word_to_cross(ctx, [a, B.C, b]) - mixed_word_to_cross(ctx, [a, b, B.C])


def prop4_verify(B, degree=2):
    """Exact checks of the central-element commutator representation:
    the Omega straightening identity, the bimodule-map property against the
    theta-row table, the tau formula on corpus words, and the biinvariant
    image tau(theta) = C + Tr(A) eps.

    tau is a left-module map, so the tau formula tau(a db) = a(Cb - bC) is
    decided on its row a = 1: both sides at (a, b) are L_a of their values
    at (1, b), term by term, where L_a maps c (w, f) to c NF(a w) f."""
    ctx = B.ctx
    pres = ctx.pres
    words = ctx.corpus(degree)

    def tau_gamma(gamma):
        """tau of a calculus element sum_l a_l theta_l: sum_l a_l Omega_l."""
        out = CrossElement(ctx, {})
        for lab, coeff in gamma.terms.items():
            out = out + mixed_word_to_cross(ctx, [coeff, B.Omega[B.labels.index(lab)]])
        return out

    # Omega_l a = tau(theta_l a) = sum_m (f^l_m |> a) Omega_m, exactly in the
    # cross product; the bimodule map tau(theta_l a) = Omega_l a is the same
    # comparison, read on the words of length <= 1
    def omega_rows():
        for idx, label in enumerate(B.labels):
            theta = GammaElement.basis(pres, label)
            for wa in words:
                a = NCPoly(pres, {wa: ONE})
                lhs = mixed_word_to_cross(ctx, [B.Omega[idx], a])
                if lhs != tau_gamma(B.fodc.right_mul(theta, a)):
                    yield 0, {"identity": "omega_rows", "label": label, "a": wa}
                    if len(wa) <= 1:
                        yield 1, {"identity": "bimodule", "label": label, "a": wa}

    # tau(db) = Cb - bC, the row a = 1 of tau(a db) = a(Cb - bC)
    def tau_formula():
        for wb in words:
            b = NCPoly(pres, {wb: ONE})
            if tau_gamma(B.fodc.differential(b)) != tau_central(pres.one(), b, B):
                yield {"identity": "tau_formula", "a": (), "b": wb}

    checks = [*first_failures(["prop4_omega_rows", "prop4_bimodule_map"], omega_rows()),
              first_failure("prop4_tau_formula", tau_formula())]

    # tau(theta) = sum_k Omega_kk has no algebra part, and a functional g
    # acts as zero on every corpus word w exactly when g(w) = 0 there:
    # g(w) = eps(g |> w), and the legs of Delta(w) are normal words no
    # longer than w.  So tau(theta) = C + Tr(A) eps is a comparison of
    # functionals (``ext_equal``).
    theta_image = sum((B.Omega[B.labels.index(lab)] for lab in B.theta().terms),
                      DualElement(ctx, {}))
    ok = theta_image.ext_equal(B.C + ctx.unit().scale(B.TrA), degree)
    checks.append(("prop4_theta_image", ok,
                   None if ok else {"identity": "theta_image", "degree": degree}))
    return checks


def centrality_check(B, degree=3):
    """<Cg - gC, a> = 0 for every structural generator functional g and every
    word a (``dual_centrality``)."""
    ctx = B.ctx
    letters = [BF(LP, i, j) for i in range(1, ctx.n + 1) for j in range(1, ctx.n + 1)]
    letters += [BF(LM, i, j) for i in range(1, ctx.n + 1) for j in range(1, ctx.n + 1)]
    letters.append(BF(CHAR, name=B.zeta_name))
    return dual_centrality(B.C, letters, degree)


def dual_centrality(C, letters, degree=3):
    """Cg - gC = 0 for each letter g, by the one zero test
    (``DualElement.nonzero_words``): zero on every word when certified, else
    searched over the corpus of ``degree``, the first nonzero word the
    witness."""
    ctx = C.ctx

    def witnesses():
        for bf in letters:
            g = DualElement(ctx, {ctx.canonical_word((bf,)): ONE})
            for w in (C * g - g * C).nonzero_words(degree):
                yield {"letter": repr(bf), "word": w}

    return [first_failure("centrality", witnesses())]


def hermiticity_check(B, degree=3):
    """C* = C as functionals (``ext_equal``), plus the twist-matrix ingredient
    conj(A^j_k) = A^k_j (entrywise, through the presentation's ``conj``)."""
    conj = B.ctx.pres.conj
    n = len(B.A)
    twist = first_failure("twist_matrix_conjugate_transpose",
                          ({"entry": (j + 1, k + 1)} for j in range(n) for k in range(n)
                           if conj(B.A[j][k]) != B.A[k][j]))
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


def faithfulness_rank(B, degree=1):
    """Exact rank of tau on the span of the corpus calculus elements versus
    the dimension of that span (coefficient matrices over Q(s), fraction-free
    elimination).  Equality certifies injectivity on the span; a statement
    exact over Q(s) holds at every transcendental numeric q."""
    pairs = gamma_corpus(B, degree)
    gamma_vecs = []
    image_vecs = []
    for a, b in pairs:
        g = B.fodc.differential(b).left_mul(a)
        gamma_vecs.append({(lab, w): c
                           for lab, poly in g.terms.items()
                           for w, c in poly.terms.items()})
        t = tau_central(a, b, B)
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
        # its own frame, so that only the residual outlives the row: the
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
    return row_statuses(((f"{label}.{gen}", delta, skip) for label, gen, delta, skip in rows),
                        nonzero_repr), comms


def disc_commutator_comparison(pres, comm_z):
    """The corner of the derived commutator ``comm_z`` = [C, rho(z)] next to
    its common alternative normalization 1 - z* z; the two differ by the
    exact factor recorded in the report."""
    derived = comm_z.entries[1][0]
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
