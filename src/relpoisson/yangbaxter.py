"""Yang-Baxter machinery: the associative and classical YBE tensors, the
relative Poisson YBE, coboundary comultiplications, the full coboundary
condition sweep, and O-operators.

The three contraction patterns

    r12 * r13 = sum a_i * a_j (x) b_i (x) b_j
    r12 * r23 = sum a_i (x) b_i * a_j (x) b_j
    r13 * r23 = sum a_i (x) a_j (x) b_i * b_j

are implemented once, as index formulas over Tensor2 coefficients, and
every higher check reuses them; they are the most sign-sensitive spot in
the whole package.
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
)
from .coalgebra import Comultiplication
from .linalg import (
    ZERO,
    LinearMap,
    Matrix,
    Tensor2,
    Tensor3,
    basis_vector,
    block_diagonal,
    mat_add,
    mat_apply,
    mat_mul,
    mat_neg,
    mat_sub,
    mat_transpose,
    vec_add,
    vec_sub,
)
from .representations import (
    CompatibleStructure,
    RepData,
    check_dual_rep_conditions,
    check_dually_represents,
    check_representation,
    semidirect_structure,
)


def is_antisymmetric(r: Tensor2) -> bool:
    return r.coeffs == mat_neg(mat_transpose(r.coeffs))


def _contract(rc, sc, op: BilinearOp, pattern: str):
    """One of the three pairing contractions on coefficient matrices."""
    n = op.space.dim
    out = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    for u in range(n):
        for v in range(n):
            x = rc[u][v]
            if not x:
                continue
            for w in range(n):
                for z in range(n):
                    y = sc[w][z]
                    if not y:
                        continue
                    c = x * y
                    if pattern == "12.13":
                        prod = op.product(u, w)
                        for k in range(n):
                            p = prod[k]
                            if p:
                                out[k][v][z] += c * p
                    elif pattern == "12.23":
                        prod = op.product(v, w)
                        for k in range(n):
                            p = prod[k]
                            if p:
                                out[u][k][z] += c * p
                    else:  # "13.23"
                        prod = op.product(v, z)
                        for k in range(n):
                            p = prod[k]
                            if p:
                                out[u][w][k] += c * p
    return out


def _t3_add(a, b, sign=1):
    n = len(a)
    for i in range(n):
        for j in range(n):
            ra, rb = a[i][j], b[i][j]
            for k in range(n):
                if rb[k]:
                    ra[k] += sign * rb[k]
    return a


def _t3_zero(n):
    return [[[ZERO] * n for _ in range(n)] for _ in range(n)]


def _t3_apply(t3, slot: int, m: Matrix):
    """Apply a matrix to one tensor slot of a rank-3 coefficient array."""
    n = len(t3)
    out = _t3_zero(n)
    for i in range(n):
        for j in range(n):
            row = t3[i][j]
            for k in range(n):
                c = row[k]
                if not c:
                    continue
                if slot == 0:
                    for p in range(n):
                        x = m[p][i]
                        if x:
                            out[p][j][k] += c * x
                elif slot == 1:
                    for p in range(n):
                        x = m[p][j]
                        if x:
                            out[i][p][k] += c * x
                else:
                    for p in range(n):
                        x = m[p][k]
                        if x:
                            out[i][j][p] += c * x
    return out


def _t3_flat(t3):
    return tuple(x for plane in t3 for row in plane for x in row)


def aybe_tensor(r: Tensor2, dot: BilinearOp) -> Tensor3:
    """A(r) = r12.r13 - r12.r23 + r13.r23."""
    if r.left != dot.space or r.right != dot.space:
        raise ValueError("tensor and multiplication live on different spaces")
    rc = r.coeffs
    acc = _contract(rc, rc, dot, "12.13")
    acc = _t3_add(acc, _contract(rc, rc, dot, "12.23"), -1)
    acc = _t3_add(acc, _contract(rc, rc, dot, "13.23"), 1)
    sp = dot.space
    return Tensor3((sp, sp, sp), tuple(tuple(tuple(row) for row in plane) for plane in acc))


def cybe_tensor(r: Tensor2, bracket: BilinearOp) -> Tensor3:
    """C(r) = [r12, r13] + [r12, r23] + [r13, r23]."""
    if r.left != bracket.space or r.right != bracket.space:
        raise ValueError("tensor and bracket live on different spaces")
    rc = r.coeffs
    acc = _contract(rc, rc, bracket, "12.13")
    acc = _t3_add(acc, _contract(rc, rc, bracket, "12.23"), 1)
    acc = _t3_add(acc, _contract(rc, rc, bracket, "13.23"), 1)
    sp = bracket.space
    return Tensor3((sp, sp, sp), tuple(tuple(tuple(row) for row in plane) for plane in acc))


def check_rpybe(
    alg: RelPoissonAlgebra,
    codrv: LinearMap,
    r: Tensor2,
    limit: int = DEFAULT_VIOLATION_LIMIT,
) -> AxiomReport:
    """Solution test for the relative Poisson YBE associated to a map Q:
    A(r) = 0, C(r) = 0, (P (x) id - id (x) Q) r = 0 and
    (Q (x) id - id (x) P) r = 0."""
    coll = Collector(limit)
    coll.check("aybe", (), _t3_flat(aybe_tensor(r, alg.dot).coeffs))
    coll.check("cybe", (), _t3_flat(cybe_tensor(r, alg.bracket).coeffs))
    p, q = alg.derivation.entries, codrv.entries
    rc = r.coeffs
    coll.check(
        "intertwine-derivation",
        (),
        tuple(x for row in mat_sub(mat_mul(p, rc), mat_mul(rc, mat_transpose(q))) for x in row),
    )
    coll.check(
        "intertwine-coderivation",
        (),
        tuple(x for row in mat_sub(mat_mul(q, rc), mat_mul(rc, mat_transpose(p))) for x in row),
    )
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
    """
    if not is_antisymmetric(r):
        raise PreconditionError("tensor is not antisymmetric")
    n = alg.dim
    rm = mat_transpose(r.coeffs)  # the map A* -> A
    dot, bracket = alg.dot, alg.bracket
    coll = Collector(limit)
    rcols = [tuple(rm[t][a] for t in range(n)) for a in range(n)]
    # ad*(u) e_b* reads off minus the b-th row of ad(u); same for L*(u)
    ad_rows = [bracket.left_matrix_of(ra) for ra in rcols]
    dot_rows = [dot.left_matrix_of(ra) for ra in rcols]
    for a in range(n):
        ra = rcols[a]
        for b in range(n):
            rb = rcols[b]
            lhs = bracket.apply(ra, rb)
            arg = vec_sub(
                tuple(-ad_rows[a][b][t] for t in range(n)),
                tuple(-ad_rows[b][a][t] for t in range(n)),
            )
            coll.check("operator-cybe", (a, b), vec_sub(lhs, mat_apply(rm, arg)))
            lhs = dot.apply(ra, rb)
            arg = vec_add(
                tuple(-dot_rows[a][b][t] for t in range(n)),
                tuple(-dot_rows[b][a][t] for t in range(n)),
            )
            coll.check("operator-aybe", (a, b), vec_add(lhs, mat_apply(rm, arg)))
    defect = mat_sub(
        mat_mul(alg.derivation.entries, rm), mat_mul(rm, mat_transpose(codrv.entries))
    )
    coll.check("operator-intertwine", (), tuple(x for row in defect for x in row))
    return coll.report()


def coboundary_comults(
    alg: RelPoissonAlgebra, r: Tensor2
) -> tuple[Comultiplication, Comultiplication]:
    """The coboundary comultiplications of an element r:

        Delta(x) = (id (x) L(x) - L(x) (x) id) r
        delta(x) = (ad(x) (x) id + id (x) ad(x)) r
    """
    n = alg.dim
    rc = r.coeffs
    dot_cols = []
    br_cols = []
    for k in range(n):
        lx = alg.dot.left_matrix(k)
        adx = alg.bracket.left_matrix(k)
        dcol = mat_sub(mat_mul(rc, mat_transpose(lx)), mat_mul(lx, rc))
        bcol = mat_add(mat_mul(adx, rc), mat_mul(rc, mat_transpose(adx)))
        dot_cols.append(dcol)
        br_cols.append(bcol)
    return (
        Comultiplication(alg.space, tuple(dot_cols)),
        Comultiplication(alg.space, tuple(br_cols)),
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
    pre = check_dually_represents(alg, codrv)
    if not pre.ok:
        raise PreconditionError(
            f"map does not dually represent the algebra: "
            f"{', '.join(pre.axioms_failed())}",
            pre,
        )
    n = alg.dim
    dot, bracket = alg.dot, alg.bracket
    p, q = alg.derivation.entries, codrv.entries
    rc = r.coeffs
    sym = mat_add(rc, mat_transpose(rc))  # r + tau(r)
    a_tensor = aybe_tensor(r, dot).coeffs
    c_tensor = cybe_tensor(r, bracket).coeffs
    s_pq = mat_sub(mat_mul(rc, mat_transpose(p)), mat_mul(q, rc))  # (id(x)P - Q(x)id) r
    s_qp = mat_sub(mat_mul(rc, mat_transpose(q)), mat_mul(p, rc))  # (id(x)Q - P(x)id) r
    w_qp = mat_neg(s_pq)  # (Q(x)id - id(x)P) r
    coll = Collector(limit)
    a3 = a_tensor
    c3 = c_tensor
    for x in range(n):
        lx = dot.left_matrix(x)
        adx = bracket.left_matrix(x)
        lx_t = mat_transpose(lx)
        adx_t = mat_transpose(adx)
        coll.check(
            "aybe-symmetric-part",
            (x,),
            tuple(
                v
                for row in mat_sub(mat_mul(sym, lx_t), mat_mul(lx, sym))
                for v in row
            ),
        )
        coll.check(
            "aybe-cocycle",
            (x,),
            _t3_flat(_t3_add(_t3_apply(a3, 2, lx), _t3_apply(a3, 0, lx), -1)),
        )
        coll.check(
            "cybe-symmetric-part",
            (x,),
            tuple(
                v
                for row in mat_add(mat_mul(adx, sym), mat_mul(sym, adx_t))
                for v in row
            ),
        )
        acc = _t3_apply(c3, 0, adx)
        acc = _t3_add(acc, _t3_apply(c3, 1, adx))
        acc = _t3_add(acc, _t3_apply(c3, 2, adx))
        coll.check("cybe-cocycle", (x,), _t3_flat(acc))

        # the seven mixed conditions
        coll.check(
            "mixed-coderivation-dot",
            (x,),
            tuple(
                v
                for row in mat_add(mat_mul(s_pq, lx_t), mat_mul(lx, s_qp))
                for v in row
            ),
        )
        coll.check(
            "mixed-coderivation-bracket",
            (x,),
            tuple(
                v
                for row in mat_sub(mat_mul(s_pq, adx_t), mat_mul(adx, s_qp))
                for v in row
            ),
        )
        acc = _t3_apply(a3, 0, adx)
        acc = _t3_add(acc, _t3_apply(_t3_apply(a3, 0, q), 2, lx))
        acc = _t3_add(acc, _t3_apply(c3, 2, lx))
        acc = _t3_add(acc, _t3_apply(c3, 1, lx), -1)
        sym_x = mat_sub(mat_mul(lx, sym), mat_mul(sym, lx_t))  # (L(x)(x)id - id(x)L(x)) sym
        for u in range(n):
            for v in range(n):
                c = rc[u][v]
                if not c:
                    continue
                adu = bracket.left_matrix(u)
                contrib = mat_mul(adu, sym_x)
                for i in range(n):
                    for j in range(n):
                        w = contrib[i][j]
                        if w:
                            acc[i][j][v] += c * w
                lxu = dot.left_matrix_of(dot.product(x, u))
                contrib = mat_mul(w_qp, mat_transpose(lxu))  # (id (x) L(x.a_j)) on w_qp
                for i in range(n):
                    for j in range(n):
                        w = contrib[i][j]
                        if w:
                            acc[i][j][v] += c * w
                lxv = dot.left_matrix_of(dot.product(x, v))
                for i in range(n):
                    for j in range(n):
                        w = s_pq[i][j]
                        if not w:
                            continue
                        cw = c * w
                        for t in range(n):
                            y = lxv[t][j]
                            if y:
                                acc[i][u][t] += cw * y
        coll.check("mixed-co-leibniz", (x,), _t3_flat(acc))
        coll.check(
            "mixed-comult-intertwine-dot",
            (x,),
            tuple(
                v
                for row in mat_sub(mat_mul(s_qp, lx_t), mat_mul(lx, s_qp))
                for v in row
            ),
        )
        coll.check(
            "mixed-comult-intertwine-bracket",
            (x,),
            tuple(
                v
                for row in mat_add(mat_mul(adx, s_qp), mat_mul(s_qp, adx_t))
                for v in row
            ),
        )
        pq_x = mat_apply(mat_add(p, q), basis_vector(n, x))
        l_pq_x = dot.left_matrix_of(pq_x)
        coll.check(
            "mixed-triple-product", (x,), _t3_flat(_t3_apply(a3, 2, l_pq_x))
        )
    for x in range(n):
        for y in range(n):
            l_xy = dot.left_matrix_of(dot.product(x, y))
            coll.check(
                "mixed-unit-compat",
                (x, y),
                tuple(v for row in mat_mul(l_xy, s_qp) for v in row),
            )
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
    m = cs.space.dim
    tm = operator.entries
    coll = Collector(limit)
    tcols = [operator.column(a) for a in range(m)]
    for a in range(m):
        ta = tcols[a]
        mu_ta = cs.dot_action_of(ta)
        rho_ta = cs.bracket_action_of(ta)
        for b in range(m):
            tb = tcols[b]
            mu_tb = cs.dot_action_of(tb)
            rho_tb = cs.bracket_action_of(tb)
            arg = vec_add(
                tuple(mu_ta[t][b] for t in range(m)),
                tuple(mu_tb[t][a] for t in range(m)),
            )
            defect = vec_sub(alg.dot.apply(ta, tb), mat_apply(tm, arg))
            coll.check("operator-dot", (a, b), defect)
            arg = vec_sub(
                tuple(rho_ta[t][b] for t in range(m)),
                tuple(rho_tb[t][a] for t in range(m)),
            )
            defect = vec_sub(alg.bracket.apply(ta, tb), mat_apply(tm, arg))
            coll.check("operator-bracket", (a, b), defect)
    defect = mat_sub(mat_mul(alg.derivation.entries, tm), mat_mul(tm, endo))
    coll.check("operator-intertwine", (), tuple(x for row in defect for x in row))
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
    n = alg.dim
    coll = Collector(limit)
    coll.merge(check_representation(rep, limit), "rep:")
    coll.merge(check_dual_rep_conditions(rep, beta, limit), "beta:")
    coll.merge(check_dually_represents(alg, codrv, limit), "codrv:")
    alpha = rep.der_action
    for x in range(n):
        qx = codrv.column(x)
        defect = mat_sub(rep.dot_action_of(qx), mat_mul(rep.dot_action[x], alpha))
        defect = mat_sub(defect, mat_mul(beta, rep.dot_action[x]))
        coll.check("mixed-action-dot", (x,), tuple(v for row in defect for v in row))
        defect = mat_sub(rep.bracket_action_of(qx), mat_mul(rep.bracket_action[x], alpha))
        defect = mat_sub(defect, mat_mul(beta, rep.bracket_action[x]))
        coll.check("mixed-action-bracket", (x,), tuple(v for row in defect for v in row))
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
