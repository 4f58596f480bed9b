"""Yang-Baxter machinery: the associative and classical YBE tensors, the
relative Poisson YBE, coboundary comultiplications, the full coboundary
condition sweep, and O-operators.

Tensors are swept as sparse hits in the flat-index convention of
:mod:`relpoisson.algebra`; the columns of L(x) and ad(x) are the rows
``dot._sparse[x]`` and ``bracket._sparse[x]`` of the products' stored
forms.  The three contraction patterns

    r12 * r13 = sum a_i * a_j (x) b_i (x) b_j
    r12 * r23 = sum a_i (x) b_i * a_j (x) b_j
    r13 * r23 = sum a_i (x) a_j (x) b_i * b_j

are written once, in :func:`_pairings`; they are the most sign-sensitive
spot in the whole package.
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
    _apply,
    _check_hits,
    _dense,
    _flat,
    _on_slot,
    _swap,
)
from .coalgebra import Comultiplication
from .linalg import (
    LinearMap,
    Matrix,
    Tensor2,
    Tensor3,
    _columns,
    block_diagonal,
    mat_mul,
    mat_neg,
    mat_transpose,
)
from .representations import (
    CompatibleStructure,
    RepData,
    _beta_columns,
    _semidirect,
    _with_flats,
    check_dual_rep_conditions,
    check_dually_represents,
    check_representation,
    dual_rep,
)


def is_antisymmetric(r: Tensor2) -> bool:
    return r.coeffs == mat_neg(mat_transpose(r.coeffs))


def _pairings(r: Tensor2, op: BilinearOp):
    """The hits of r12.r13, r12.r23 and r13.r23 through a product."""
    n, sp = op.space.dim, op._sparse
    ent = r._hits
    pairs = [(*divmod(f, n), *divmod(g, n), x * y) for f, x in ent for g, y in ent]
    return (
        [((k * n + v) * n + z, c * p) for u, v, w, z, c in pairs for k, p in sp[u][w]],
        [((u * n + k) * n + z, c * p) for u, v, w, z, c in pairs for k, p in sp[v][w]],
        [((u * n + w) * n + k, c * p) for u, v, w, z, c in pairs for k, p in sp[v][z]],
    )


def _aybe_terms(r: Tensor2, dot: BilinearOp):
    t12_13, t12_23, t13_23 = _pairings(r, dot)
    return t12_13 + [(f, -v) for f, v in t12_23] + t13_23


def _cybe_terms(r: Tensor2, bracket: BilinearOp):
    t12_13, t12_23, t13_23 = _pairings(r, bracket)
    return t12_13 + t12_23 + t13_23


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


def _tensor3(hits, sp) -> Tensor3:
    return Tensor3((sp, sp, sp), _dense(hits, sp.dim, sp.dim, sp.dim))


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
    p, q, ent = alg.derivation._cols, codrv._cols, r._hits
    coll = Collector(limit)
    _check_hits(coll, "aybe", (), _aybe_terms(r, alg.dot), n**3)
    _check_hits(coll, "cybe", (), _cybe_terms(r, alg.bracket), n**3)
    hits = _on_slot(p, ent, n, n) + _on_slot(q, ent, n, 1, -1)
    _check_hits(coll, "intertwine-derivation", (), hits, n * n)
    hits = _on_slot(q, ent, n, n) + _on_slot(p, ent, n, 1, -1)
    _check_hits(coll, "intertwine-coderivation", (), hits, n * n)
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
        hits = t13_23 + [(f, sign * v) for f, v in t12_23] + _swap(t12_23, n, n, -1)
        by_pair = {}
        for f, v in hits:
            by_pair.setdefault(f // n, []).append((f % n, v))
        families.append((axiom, by_pair))
    for pair in sorted(set().union(*(by_pair for _, by_pair in families))):
        for axiom, by_pair in families:
            _check_hits(coll, axiom, divmod(pair, n), by_pair.get(pair), n)
    p, q = alg.derivation._cols, codrv._cols
    rm = _swap(r._hits, n, 1)  # the map A* -> A
    hits = _on_slot(p, rm, n, n) + _on_slot(q, rm, n, 1, -1)
    _check_hits(coll, "operator-intertwine", (), hits, n * n)
    return coll.report()


def coboundary_comults(
    alg: RelPoissonAlgebra, r: Tensor2
) -> tuple[Comultiplication, Comultiplication]:
    """The coboundary comultiplications of an element r:

        Delta(x) = (id (x) L(x) - L(x) (x) id) r
        delta(x) = (ad(x) (x) id + id (x) ad(x)) r
    """
    _require_on(alg, r)
    n = alg.dim
    ent = r._hits
    dot_entries, br_entries = [], []
    for k in range(n):
        lx, adx = alg.dot._sparse[k], alg.bracket._sparse[k]
        delta = _on_slot(lx, ent, n, 1) + _on_slot(lx, ent, n, n, -1)
        dot_entries += [(f // n, f % n, k, v) for f, v in delta]
        delta = _on_slot(adx, ent, n, n) + _on_slot(adx, ent, n, 1)
        br_entries += [(f // n, f % n, k, v) for f, v in delta]
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
    n, n2, n3 = alg.dim, alg.dim**2, alg.dim**3
    dot, br = alg.dot._sparse, alg.bracket._sparse
    p, q, ent = alg.derivation._cols, codrv._cols, r._hits
    sym = [*ent, *_swap(ent, n, 1)]  # r + tau(r)
    a3, c3 = _aybe_terms(r, alg.dot), _cybe_terms(r, alg.bracket)
    s_pq = _on_slot(p, ent, n, 1) + _on_slot(q, ent, n, n, -1)  # (id(x)P - Q(x)id) r
    s_qp = _on_slot(q, ent, n, 1) + _on_slot(p, ent, n, n, -1)  # (id(x)Q - P(x)id) r
    qa3 = _on_slot(q, a3, n, n2)  # (Q (x) id (x) id) A
    # L(u) on a slot is the sum of u_t L(e_t) on it
    coll = Collector(limit)
    for x in range(n):
        lx, adx = dot[x], br[x]
        # mixed co-Leibniz, with S_x = (L(x) (x) id - id (x) L(x))(r + tau(r)):
        #   (ad(x) (x) id (x) id) A + (id (x) id (x) L(x)) ((Q (x) id (x) id) A + C)
        #   - (id (x) L(x) (x) id) C + sum r_uv (id (x) e_u (x) L(x.v)) s_pq
        #   + sum r_uv [(ad(u) (x) id) S_x - (id (x) L(x.u)) s_pq] (x) e_v
        co_leibniz = _on_slot(adx, a3, n, n2) + _on_slot(lx, qa3 + c3, n, 1)
        co_leibniz += _on_slot(lx, c3, n, n, -1)
        sym_x = _on_slot(lx, sym, n, n) + _on_slot(lx, sym, n, 1, -1)
        for f, c in ent:
            u, v = divmod(f, n)
            hits = [h for t, d in dot[x][v] for h in _on_slot(dot[t], s_pq, n, 1, d)]
            co_leibniz += [((g // n * n + u) * n + g % n, c * w) for g, w in hits]
            hits = _on_slot(br[u], sym_x, n, n)
            hits += [h for t, d in dot[x][u] for h in _on_slot(dot[t], s_pq, n, 1, -d)]
            co_leibniz += [(g * n + v, c * w) for g, w in hits]
        cybe_cocycle = _on_slot(adx, c3, n, n2) + _on_slot(adx, c3, n, n) + _on_slot(adx, c3, n, 1)
        coder_bracket = _on_slot(adx, s_pq, n, 1) + _on_slot(adx, s_qp, n, n, -1)
        intertwine_dot = _on_slot(lx, s_qp, n, 1) + _on_slot(lx, s_qp, n, n, -1)
        intertwine_bracket = _on_slot(adx, s_qp, n, n) + _on_slot(adx, s_qp, n, 1)
        # L((P + Q) x) on the last slot of A
        triple = [h for t, d in p[x] + q[x] for h in _on_slot(dot[t], a3, n, 1, d)]
        families = (
            ("aybe-symmetric-part", n2, _on_slot(lx, sym, n, 1) + _on_slot(lx, sym, n, n, -1)),
            ("aybe-cocycle", n3, _on_slot(lx, a3, n, 1) + _on_slot(lx, a3, n, n2, -1)),
            ("cybe-symmetric-part", n2, _on_slot(adx, sym, n, n) + _on_slot(adx, sym, n, 1)),
            ("cybe-cocycle", n3, cybe_cocycle),
            # the seven mixed conditions
            ("mixed-coderivation-dot", n2, _on_slot(lx, s_pq, n, 1) + _on_slot(lx, s_qp, n, n)),
            ("mixed-coderivation-bracket", n2, coder_bracket),
            ("mixed-co-leibniz", n3, co_leibniz),
            ("mixed-comult-intertwine-dot", n2, intertwine_dot),
            ("mixed-comult-intertwine-bracket", n2, intertwine_bracket),
            ("mixed-triple-product", n3, triple),
        )
        for axiom, size, hits in families:
            _check_hits(coll, axiom, (x,), hits, size)
    for x in range(n):
        for y in range(n):
            hits = [h for t, d in dot[x][y] for h in _on_slot(dot[t], s_qp, n, n, d)]
            _check_hits(coll, "mixed-unit-compat", (x, y), hits, n2)
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
    if cs.algebra.space != alg.space:
        raise ValueError("representation does not act for the given algebra")
    n, m = alg.dim, cs.space.dim
    endo_hits = _flat(_columns(endo, m, m, "endo is not an endomorphism of the module"))
    tcols, mu, rho = operator._cols, cs._mu, cs._rho

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
    # D T - T endo, on the flat hits of the n-by-m matrix T and of endo
    hits = _on_slot(alg.derivation._cols, _flat(tcols), n, m)
    hits += _on_slot(tcols, endo_hits, m, m, -1, n)
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
    mu, rho = _with_flats(rep._mu, rep._rho)
    alpha_f, qcols = _flat(rep._alpha), codrv._cols
    beta_c = _beta_columns(beta, m)
    for x in range(n):
        for axiom, (act_c, act_f) in (("mixed-action-dot", mu), ("mixed-action-bracket", rho)):
            # act(Q x) - act(x) alpha - beta act(x)
            hits = _apply(act_f, qcols[x]) + _on_slot(act_c[x], alpha_f, m, m, -1)
            hits += _on_slot(beta_c, act_f[x], m, m, -1)
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
    semidirect = _semidirect(dual_rep(rep, beta))
    # T(v_i) (x) v_i* - v_i* (x) T(v_i), with v_i* at index n + i
    size = n + m
    hits = [
        hit
        for i, col in enumerate(operator._cols)
        for t, x in col
        for hit in ((t * size + n + i, x), ((n + i) * size + t, -x))
    ]
    return semidirect, Tensor2(semidirect.space, semidirect.space, _dense(hits, size, size))


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
