"""Yang-Baxter machinery: the associative and classical YBE tensors, the
relative Poisson YBE, coboundary comultiplications, the full coboundary
condition sweep, and O-operators.

Tensors are swept as sparse terms: lists of (index tuple, value) pairs of a
2- or 3-tensor, where repeated indices add up.  A linear map acts on one
slot through its sparse column table (:func:`_on_slot`); the columns of
L(x) and ad(x) are the rows ``dot._sparse[x]`` and ``bracket._sparse[x]``
of the products' sparse views.  The three contraction patterns

    r12 * r13 = sum a_i * a_j (x) b_i (x) b_j
    r12 * r23 = sum a_i (x) b_i * a_j (x) b_j
    r13 * r23 = sum a_i (x) a_j (x) b_i * b_j

are written once, in :func:`_pairings`; they are the most sign-sensitive
spot in the whole package.  A defect is reported only when its terms do
not cancel, as the dense vector flattened to i*n + j or (a*n + b)*n + c.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (
    DEFAULT_VIOLATION_LIMIT,
    AxiomReport,
    BilinearOp,
    Collector,
    PreconditionError,
    RelPoissonAlgebra,
    _check_hits,
    _sparse_columns,
)
from .coalgebra import Comultiplication
from .linalg import (
    ZERO,
    LinearMap,
    Matrix,
    Tensor2,
    Tensor3,
    block_diagonal,
    mat_mul,
    mat_neg,
    mat_transpose,
)
from .representations import (
    CompatibleStructure,
    RepData,
    _combo,
    _tables,
    _times,
    check_dual_rep_conditions,
    check_dually_represents,
    check_representation,
    semidirect_structure,
)


def is_antisymmetric(r: Tensor2) -> bool:
    return r.coeffs == mat_neg(mat_transpose(r.coeffs))


def _terms(r: Tensor2):
    """The nonzero coefficients of a 2-tensor as ((i, j), value) terms."""
    return [((i, j), x) for i, row in enumerate(r.coeffs) for j, x in enumerate(row) if x]


def _on_slot(cols, terms, slot: int, scale=1):
    """Terms of scale * M applied to one slot of a tensor, for M given by
    its sparse column table: ``cols[j]`` lists the nonzero (i, M[i][j])."""
    return [
        (idx[:slot] + (p,) + idx[slot + 1 :], scale * x * v)
        for idx, x in terms
        for p, v in cols[idx[slot]]
    ]


def _mult_on_slot(sp, coeffs, terms, slot: int, scale=1):
    """Terms of scale * L(u) applied to one slot, L the left multiplication
    of a product with sparse view sp and u given by sparse (t, u_t)."""
    return [h for t, c in coeffs for h in _on_slot(sp[t], terms, slot, scale * c)]


def _pairings(r: Tensor2, op: BilinearOp):
    """The terms of r12.r13, r12.r23 and r13.r23 through a product."""
    sp = op._sparse
    pairs = [(u, v, w, z, x * y) for (u, v), x in _terms(r) for (w, z), y in _terms(r)]
    return (
        [((k, v, z), c * p) for u, v, w, z, c in pairs for k, p in sp[u][w]],
        [((u, k, z), c * p) for u, v, w, z, c in pairs for k, p in sp[v][w]],
        [((u, w, k), c * p) for u, v, w, z, c in pairs for k, p in sp[v][z]],
    )


def _aybe_terms(r: Tensor2, dot: BilinearOp):
    t12_13, t12_23, t13_23 = _pairings(r, dot)
    return t12_13 + [(idx, -v) for idx, v in t12_23] + t13_23


def _cybe_terms(r: Tensor2, bracket: BilinearOp):
    t12_13, t12_23, t13_23 = _pairings(r, bracket)
    return t12_13 + t12_23 + t13_23


def _check(coll: Collector, axiom: str, where, terms, n: int) -> None:
    """Report the dense sum of tensor terms, flattened, unless it is zero."""
    hits = []
    for idx, v in terms:
        flat = 0
        for i in idx:
            flat = flat * n + i
        hits.append((flat, v))
    if hits:
        _check_hits(coll, axiom, where, hits, n ** len(terms[0][0]))


def _require_on(alg: RelPoissonAlgebra, r: Tensor2, codrv: LinearMap | None = None):
    if r.left != alg.space or r.right != alg.space:
        raise ValueError("tensor does not live on the algebra's space")
    if codrv is not None and (codrv.domain != alg.space or codrv.codomain != alg.space):
        raise ValueError("dual map is not an endomorphism of the algebra's space")


def aybe_tensor(r: Tensor2, dot: BilinearOp) -> Tensor3:
    """A(r) = r12.r13 - r12.r23 + r13.r23."""
    if r.left != dot.space or r.right != dot.space:
        raise ValueError("tensor and multiplication live on different spaces")
    return _tensor3(_aybe_terms(r, dot), dot.space)


def cybe_tensor(r: Tensor2, bracket: BilinearOp) -> Tensor3:
    """C(r) = [r12, r13] + [r12, r23] + [r13, r23]."""
    if r.left != bracket.space or r.right != bracket.space:
        raise ValueError("tensor and bracket live on different spaces")
    return _tensor3(_cybe_terms(r, bracket), bracket.space)


def _tensor3(terms, sp) -> Tensor3:
    n = sp.dim
    coeffs = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    for (a, b, c), v in terms:
        coeffs[a][b][c] += v
    return Tensor3((sp, sp, sp), coeffs)


def check_rpybe(
    alg: RelPoissonAlgebra,
    codrv: LinearMap,
    r: Tensor2,
    limit: int = DEFAULT_VIOLATION_LIMIT,
) -> AxiomReport:
    """Solution test for the relative Poisson YBE associated to a map Q:
    A(r) = 0, C(r) = 0, (P (x) id - id (x) Q) r = 0 and
    (Q (x) id - id (x) P) r = 0."""
    _require_on(alg, r, codrv)
    n = alg.dim
    p, q = _sparse_columns(alg.derivation.entries), _sparse_columns(codrv.entries)
    ent = _terms(r)
    coll = Collector(limit)
    _check(coll, "aybe", (), _aybe_terms(r, alg.dot), n)
    _check(coll, "cybe", (), _cybe_terms(r, alg.bracket), n)
    _check(coll, "intertwine-derivation", (), _on_slot(p, ent, 0) + _on_slot(q, ent, 1, -1), n)
    _check(coll, "intertwine-coderivation", (), _on_slot(q, ent, 0) + _on_slot(p, ent, 1, -1), n)
    return coll.report()


def check_rpybe_via_maps(
    alg: RelPoissonAlgebra,
    codrv: LinearMap,
    r: Tensor2,
    limit: int = DEFAULT_VIOLATION_LIMIT,
) -> AxiomReport:
    """Operator form of the RPYBE test for antisymmetric r, through the
    induced map A* -> A:

        [r(a*), r(b*)] = r(ad*(r a*) b* - ad*(r b*) a*)
        r(a*).r(b*)    = -r(L*(r a*) b* + L*(r b*) a*)
        P r            = r Q*

    At (a, b, s) the left-hand sides are r13.r23 and each r(op*(r a*) b*)
    is -r12.r23 with its first two slots read as (a, b)."""
    _require_on(alg, r, codrv)
    if not is_antisymmetric(r):
        raise PreconditionError("tensor is not antisymmetric")
    n = alg.dim
    coll = Collector(limit)
    families = []
    for axiom, op, sign in (("operator-cybe", alg.bracket, 1), ("operator-aybe", alg.dot, -1)):
        _t12_13, t12_23, t13_23 = _pairings(r, op)
        terms = t13_23 + [(idx, sign * v) for idx, v in t12_23]
        terms += [((b, a, s), -v) for (a, b, s), v in t12_23]
        by_pair = {}
        for (a, b, s), v in terms:
            by_pair.setdefault((a, b), []).append((s, v))
        families.append((axiom, by_pair))
    for where in sorted(set().union(*(by_pair for _, by_pair in families))):
        for axiom, by_pair in families:
            _check_hits(coll, axiom, where, by_pair.get(where), n)
    p, q = _sparse_columns(alg.derivation.entries), _sparse_columns(codrv.entries)
    rm = [((j, i), x) for (i, j), x in _terms(r)]  # the map A* -> A
    _check(coll, "operator-intertwine", (), _on_slot(p, rm, 0) + _on_slot(q, rm, 1, -1), n)
    return coll.report()


def coboundary_comults(
    alg: RelPoissonAlgebra, r: Tensor2
) -> tuple[Comultiplication, Comultiplication]:
    """The coboundary comultiplications of an element r:

        Delta(x) = (id (x) L(x) - L(x) (x) id) r
        delta(x) = (ad(x) (x) id + id (x) ad(x)) r
    """
    _require_on(alg, r)
    ent = _terms(r)
    dot_entries, br_entries = [], []
    for k in range(alg.dim):
        lx, adx = alg.dot._sparse[k], alg.bracket._sparse[k]
        delta = _on_slot(lx, ent, 1) + _on_slot(lx, ent, 0, -1)
        dot_entries += [(i, j, k, v) for (i, j), v in delta]
        delta = _on_slot(adx, ent, 0) + _on_slot(adx, ent, 1)
        br_entries += [(i, j, k, v) for (i, j), v in delta]
    return (
        Comultiplication.from_entries(alg.space, dot_entries),
        Comultiplication.from_entries(alg.space, br_entries),
    )


def check_coboundary_conditions(
    alg: RelPoissonAlgebra,
    codrv: LinearMap,
    r: Tensor2,
    limit: int = DEFAULT_VIOLATION_LIMIT,
) -> AxiomReport:
    """The eleven condition families under which the coboundary
    comultiplications of a general (not necessarily antisymmetric) r make
    the algebra a coboundary bialgebra.  Requires that the given map
    dually represents the algebra."""
    _require_on(alg, r, codrv)
    pre = check_dually_represents(alg, codrv)
    if not pre.ok:
        raise PreconditionError(
            f"map does not dually represent the algebra: "
            f"{', '.join(pre.axioms_failed())}",
            pre,
        )
    n = alg.dim
    dot, br = alg.dot._sparse, alg.bracket._sparse
    p, q = _sparse_columns(alg.derivation.entries), _sparse_columns(codrv.entries)
    ent = _terms(r)
    sym = ent + [((j, i), x) for (i, j), x in ent]  # r + tau(r)
    a3, c3 = _aybe_terms(r, alg.dot), _cybe_terms(r, alg.bracket)
    s_pq = _on_slot(p, ent, 1) + _on_slot(q, ent, 0, -1)  # (id(x)P - Q(x)id) r
    s_qp = _on_slot(q, ent, 1) + _on_slot(p, ent, 0, -1)  # (id(x)Q - P(x)id) r
    qa3 = _on_slot(q, a3, 0)  # (Q (x) id (x) id) A
    coll = Collector(limit)
    for x in range(n):
        lx, adx = dot[x], br[x]
        # mixed co-Leibniz, with S_x = (L(x) (x) id - id (x) L(x))(r + tau(r)):
        #   (ad(x) (x) id (x) id) A + (id (x) id (x) L(x)) ((Q (x) id (x) id) A + C)
        #   - (id (x) L(x) (x) id) C + sum r_uv (id (x) e_u (x) L(x.v)) s_pq
        #   + sum r_uv [(ad(u) (x) id) S_x - (id (x) L(x.u)) s_pq] (x) e_v
        co_leibniz = _on_slot(adx, a3, 0) + _on_slot(lx, qa3 + c3, 2) + _on_slot(lx, c3, 1, -1)
        sym_x = _on_slot(lx, sym, 0) + _on_slot(lx, sym, 1, -1)
        for (u, v), c in ent:
            terms = _mult_on_slot(dot, dot[x][v], s_pq, 1)
            co_leibniz += [((i, u, t), c * w) for (i, t), w in terms]
            terms = _on_slot(br[u], sym_x, 0) + _mult_on_slot(dot, dot[x][u], s_pq, 1, -1)
            co_leibniz += [((i, j, v), c * w) for (i, j), w in terms]
        families = (
            ("aybe-symmetric-part", _on_slot(lx, sym, 1) + _on_slot(lx, sym, 0, -1)),
            ("aybe-cocycle", _on_slot(lx, a3, 2) + _on_slot(lx, a3, 0, -1)),
            ("cybe-symmetric-part", _on_slot(adx, sym, 0) + _on_slot(adx, sym, 1)),
            ("cybe-cocycle", _on_slot(adx, c3, 0) + _on_slot(adx, c3, 1) + _on_slot(adx, c3, 2)),
            # the seven mixed conditions
            ("mixed-coderivation-dot", _on_slot(lx, s_pq, 1) + _on_slot(lx, s_qp, 0)),
            ("mixed-coderivation-bracket", _on_slot(adx, s_pq, 1) + _on_slot(adx, s_qp, 0, -1)),
            ("mixed-co-leibniz", co_leibniz),
            ("mixed-comult-intertwine-dot", _on_slot(lx, s_qp, 1) + _on_slot(lx, s_qp, 0, -1)),
            ("mixed-comult-intertwine-bracket", _on_slot(adx, s_qp, 0) + _on_slot(adx, s_qp, 1)),
            ("mixed-triple-product", _mult_on_slot(dot, p[x] + q[x], a3, 2)),  # L((P+Q) x)
        )
        for axiom, terms in families:
            _check(coll, axiom, (x,), terms, n)
    for x in range(n):
        for y in range(n):
            _check(coll, "mixed-unit-compat", (x, y), _mult_on_slot(dot, dot[x][y], s_qp, 0), n)
    return coll.report()


# ---------------------------------------------------------------------------
# O-operators


@dataclass(frozen=True)
class OOperator:
    """A verified operator V -> A intertwining a representation."""

    rep: RepData
    operator: LinearMap


def check_weak_o_operator(
    alg: RelPoissonAlgebra,
    cs: CompatibleStructure,
    endo: Matrix,
    operator: LinearMap,
    limit: int = DEFAULT_VIOLATION_LIMIT,
) -> AxiomReport:
    """Weak O-operator conditions for T: V -> A:

        T(u).T(v)  = T(mu(T u) v + mu(T v) u)
        [T u, T v] = T(rho(T u) v - rho(T v) u)
        D T        = T alpha
    """
    if operator.codomain != alg.space or operator.domain != cs.space:
        raise ValueError("operator does not map the module into the algebra")
    n, m = alg.dim, cs.space.dim
    if len(endo) != m or any(len(row) != m for row in endo):
        raise ValueError("endo is not an endomorphism of the module")
    tcols = _sparse_columns(operator.entries, m)
    mu = tuple(map(_sparse_columns, cs.dot_action))
    rho = tuple(map(_sparse_columns, cs.bracket_action))

    def product(sp, a, b):
        """Hits of T(e_a) T(e_b) through a product with sparse view sp."""
        return [(k, c * d * p) for t, c in tcols[a] for s, d in tcols[b] for k, p in sp[t][s]]

    def pulled(act, a, b, scale):
        """Hits of scale * T(act(T e_a) e_b)."""
        return [
            (k, scale * c * y * z) for t, c in tcols[a] for s, y in act[t][b] for k, z in tcols[s]
        ]

    coll = Collector(limit)
    for a in range(m):
        for b in range(m):
            hits = product(alg.dot._sparse, a, b) + pulled(mu, a, b, -1) + pulled(mu, b, a, -1)
            _check_hits(coll, "operator-dot", (a, b), hits, n)
            hits = product(alg.bracket._sparse, a, b) + pulled(rho, a, b, -1)
            hits += pulled(rho, b, a, 1)
            _check_hits(coll, "operator-bracket", (a, b), hits, n)
    # D T - T endo, flattened to i*m + j
    dcols, ecols = _sparse_columns(alg.derivation.entries), _sparse_columns(endo)
    hits = [(i * m + j, x * y) for j, col in enumerate(tcols) for t, x in col for i, y in dcols[t]]
    hits += [
        (i * m + j, -x * y) for j, col in enumerate(ecols) for t, x in col for i, y in tcols[t]
    ]
    _check_hits(coll, "operator-intertwine", (), hits, n * m)
    return coll.report()


def check_semidirect_dual_conditions(
    rep: RepData,
    beta: Matrix,
    codrv: LinearMap,
    limit: int = DEFAULT_VIOLATION_LIMIT,
) -> AxiomReport:
    """The four-part condition package under which the semi-direct products
    on A + V and A + V* are dually represented: rep validity, beta dually
    representing on (mu, rho, V), Q dually representing the algebra, and
    the two mixed action conditions

        mu(Q x) - mu(x) alpha - beta mu(x) = 0
        rho(Q x) - rho(x) alpha - beta rho(x) = 0.
    """
    alg = rep.algebra
    n, m = alg.dim, rep.space.dim
    coll = Collector(limit)
    coll.merge(check_representation(rep, limit), "rep:")
    coll.merge(check_dual_rep_conditions(rep, beta, limit), "beta:")
    coll.merge(check_dually_represents(alg, codrv, limit), "codrv:")
    mu, rho = _tables(rep.dot_action, m), _tables(rep.bracket_action, m)
    alpha, beta_c = _sparse_columns(rep.der_action), _sparse_columns(beta)
    qcols = _sparse_columns(codrv.entries)
    for x in range(n):
        for axiom, (act_c, act_f) in (("mixed-action-dot", mu), ("mixed-action-bracket", rho)):
            # act(Q x) - act(x) alpha - beta act(x)
            hits = _combo(act_f, qcols[x]) + _times(act_c[x], alpha, m, -1)
            hits += _times(beta_c, act_c[x], m, -1)
            _check_hits(coll, axiom, (x,), hits, m * m)
    return coll.report()


def o_operator_to_rmatrix(
    rep: RepData,
    beta: Matrix,
    codrv: LinearMap,
    operator: LinearMap,
) -> tuple[RelPoissonAlgebra, Tensor2]:
    """From an O-operator T to an antisymmetric YBE solution:

    builds the semi-direct algebra on A + V* along (-mu*, rho*, beta*) with
    derivation D + beta^T, embeds T as sum T(v_i) (x) v_i*, and returns
    r = T - tau(T), a solution of the RPYBE associated to Q + alpha^T.
    """
    alg = rep.algebra
    rep_report = check_representation(rep)
    if not rep_report.ok:
        raise PreconditionError(
            f"not a representation: {', '.join(rep_report.axioms_failed())}", rep_report
        )
    beta_report = check_dual_rep_conditions(rep, beta)
    if not beta_report.ok:
        raise PreconditionError(
            f"beta does not dually represent on the module: "
            f"{', '.join(beta_report.axioms_failed())}",
            beta_report,
        )
    op_report = check_weak_o_operator(alg, rep, rep.der_action, operator)
    if not op_report.ok:
        raise PreconditionError(
            f"not an O-operator: {', '.join(op_report.axioms_failed())}", op_report
        )
    if mat_mul(operator.entries, beta) != mat_mul(codrv.entries, operator.entries):
        raise PreconditionError("operator does not intertwine beta with the dual map")
    n, m = alg.dim, rep.space.dim
    semidirect = semidirect_structure(
        alg,
        rep.space.dual,
        tuple(mat_transpose(mat_) for mat_ in rep.dot_action),
        tuple(mat_neg(mat_transpose(mat_)) for mat_ in rep.bracket_action),
        mat_transpose(beta),
    )
    size = n + m
    coeffs = [[ZERO] * size for _ in range(size)]
    for i in range(m):
        col = operator.column(i)
        for t, x in enumerate(col):
            if x:
                coeffs[t][n + i] += x
                coeffs[n + i][t] -= x
    r = Tensor2(semidirect.space, semidirect.space, tuple(tuple(row) for row in coeffs))
    return semidirect, r


def semidirect_codrv(
    rep: RepData, codrv: LinearMap, semidirect: RelPoissonAlgebra
) -> LinearMap:
    """The map Q + alpha^T on A + V* accompanying
    :func:`o_operator_to_rmatrix`."""
    entries = block_diagonal(codrv.entries, mat_transpose(rep.der_action))
    return LinearMap(semidirect.space, semidirect.space, entries)


__all__ = [
    "is_antisymmetric",
    "aybe_tensor",
    "cybe_tensor",
    "check_rpybe",
    "check_rpybe_via_maps",
    "coboundary_comults",
    "check_coboundary_conditions",
    "OOperator",
    "check_weak_o_operator",
    "check_semidirect_dual_conditions",
    "o_operator_to_rmatrix",
    "semidirect_codrv",
]
