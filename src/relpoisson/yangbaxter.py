"""Yang-Baxter machinery: the associative and classical YBE tensors, the
relative Poisson YBE, coboundary comultiplications, the full coboundary
condition sweep, and O-operators.

Every condition family is a term spec, contracted with the others of its
checker (:class:`relpoisson.algebra._Checker`) in one call: a signed sum
of products of the stored tables of r, the products and the maps.  The
three contraction patterns

    r12 * r13 = sum a_i * a_j (x) b_i (x) b_j
    r12 * r23 = sum a_i (x) b_i * a_j (x) b_j
    r13 * r23 = sum a_i (x) a_j (x) b_i * b_j

are written once, as the three terms of ``_AYBE`` and ``_CYBE``; they are
the most sign-sensitive spot in the whole package.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (
    DEFAULT_VIOLATION_LIMIT,
    AxiomReport,
    BilinearOp,
    PreconditionError,
    RelPoissonAlgebra,
    _check,
    _Checker,
    _contract,
    _require,
    _require_endomorphism,
    _Use,
)
from .coalgebra import Comultiplication
from .linalg import (
    LinearMap,
    Matrix,
    Tensor2,
    Tensor3,
    _blocks,
    _make,
    _permuted,
    _scaled,
    _summed,
)
from .representations import (
    _DUAL_REP_CONDITIONS,
    _DUALLY_REPRESENTS,
    _REL_POISSON_REP,
    _REPRESENTATION,
    CompatibleStructure,
    RepData,
    _beta_columns,
    _module_map,
    _rep_tables,
    _semidirect,
    check_dually_represents,
    dual_rep,
)


def is_antisymmetric(r: Tensor2) -> bool:
    return r._sparse == _scaled(_permuted(r._sparse, (1, 0)), -1)


# R is the tensor r, M the dot, B the bracket, D the derivation P, Q the
# dual map; a defect "abc" is the coefficient of e_a (x) e_b (x) e_c.  The
# three terms of A(r) and C(r) are r12.r13, r12.r23 and r13.r23, the most
# sign-sensitive spot in the whole package.
_AYBE = "R:ub,R:wc,M:uwa - R:av,R:wc,M:vwb + R:av,R:bz,M:vzc"
_CYBE = "R:ub,R:wc,B:uwa + R:av,R:wc,B:vwb + R:av,R:bz,B:vzc"
_RPYBE = (
    ("aybe", "", "abc", _AYBE),
    ("cybe", "", "abc", _CYBE),
    # (P (x) id - id (x) Q) r and (Q (x) id - id (x) P) r
    ("intertwine-derivation", "", "ab", "R:tb,D:ta - R:at,Q:tb"),
    ("intertwine-coderivation", "", "ab", "R:tb,Q:ta - R:at,D:tb"),
)
# r13.r23 + sign r12.r23 - r12.r23 with its first two slots swapped, at
# (a, b, s), for sign 1 through the bracket and -1 through the dot
_OPERATOR = (
    ("operator-cybe", "ab", "s", "R:av,R:bz,B:vzs + R:av,R:ws,B:vwb - R:bv,R:ws,B:vwa"),
    ("operator-aybe", "ab", "s", "R:av,R:bz,M:vzs - R:av,R:ws,M:vwb - R:bv,R:ws,M:vwa"),
)
# P r - r Q* for the map r: A* -> A
_OPERATOR_INTERTWINE = (("operator-intertwine", "", "ab", "R:bt,D:ta - R:ta,Q:tb"),)
_RPYBE_VIA_MAPS = _Checker(_OPERATOR, _OPERATOR_INTERTWINE)
_COBOUNDARY = (
    # Delta(x) = (id (x) L(x) - L(x) (x) id) r
    ("dot", "k", "ij", "R:it,M:ktj - R:tj,M:kti"),
    # delta(x) = (ad(x) (x) id + id (x) ad(x)) r
    ("bracket", "k", "ij", "R:tj,B:kti + R:it,B:ktj"),
)


def _require_on(alg: RelPoissonAlgebra, r: Tensor2, codrv: LinearMap | None = None):
    if r.left != alg.space or r.right != alg.space:
        raise ValueError("tensor does not live on the algebra's space")
    if codrv is not None:
        _require_endomorphism(alg.space, codrv, "dual map")


def aybe_tensor(r: Tensor2, dot: BilinearOp) -> Tensor3:
    """A(r) = r12.r13 - r12.r23 + r13.r23."""
    if r.left != dot.space or r.right != dot.space:
        raise ValueError("tensor and multiplication live on different spaces")
    return _tensor3(_AYBE, r, M=dot)


def cybe_tensor(r: Tensor2, bracket: BilinearOp) -> Tensor3:
    """C(r) = [r12, r13] + [r12, r23] + [r13, r23]."""
    if r.left != bracket.space or r.right != bracket.space:
        raise ValueError("tensor and bracket live on different spaces")
    return _tensor3(_CYBE, r, B=bracket)


def _tensor3(terms: str, r: Tensor2, **tables) -> Tensor3:
    sp, n = r.left, r.left.dim
    (out,) = _contract((("", "", "abc", terms),), dict(R=r, **tables))
    return _make(Tensor3, spaces=(sp, sp, sp), _sparse=_summed(out.items(), (n, n, n)))


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
    return _check(_RPYBE, limit, R=r, M=alg.dot, B=alg.bracket, D=alg.derivation, Q=codrv)


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
    return _check(_RPYBE_VIA_MAPS, limit, R=r, M=alg.dot, B=alg.bracket, D=alg.derivation, Q=codrv)


def coboundary_comults(
    alg: RelPoissonAlgebra, r: Tensor2
) -> tuple[Comultiplication, Comultiplication]:
    """The coboundary comultiplications of an element r:

        Delta(x) = (id (x) L(x) - L(x) (x) id) r
        delta(x) = (ad(x) (x) id + id (x) ad(x)) r
    """
    _require_on(alg, r)
    sums = _contract(_COBOUNDARY, dict(R=r, M=alg.dot, B=alg.bracket))
    # each sum is keyed (k, i, j), a comultiplication's stored order
    return tuple(_make(Comultiplication, space=alg.space, _sparse=_summed(s.items(), (alg.dim,) * 3)) for s in sums)


# The coboundary condition families at x, in the terms above and with
#   A = A(r), C = C(r), S = r + tau(r),
#   s_pq = (id (x) P - Q (x) id) r = "R:au,D:ub - R:ub,Q:ua",
#   s_qp = (id (x) Q - P (x) id) r = "R:au,Q:ub - R:ub,D:ua".
_COBOUNDARY_CONDITIONS = (
    # (L(x) (x) id - id (x) L(x)) S, with the signs of the slots swapped
    ("aybe-symmetric-part", "x", "ab", "R:at,M:xtb + R:ta,M:xtb - R:tb,M:xta - R:bt,M:xta"),
    # (id (x) id (x) L(x) - L(x) (x) id (x) id) A
    ("aybe-cocycle", "x", "abc", "R:ub,R:wt,M:uwa,M:xtc - R:av,R:wt,M:vwb,M:xtc"
     " + R:av,R:bz,M:vzt,M:xtc - R:ub,R:wc,M:uwt,M:xta + R:tv,R:wc,M:vwb,M:xta"
     " - R:tv,R:bz,M:vzc,M:xta"),
    # (ad(x) (x) id + id (x) ad(x)) S
    ("cybe-symmetric-part", "x", "ab", "R:tb,B:xta + R:bt,B:xta + R:at,B:xtb + R:ta,B:xtb"),
    # ad(x) on each slot of C
    ("cybe-cocycle", "x", "abc", "R:ub,R:wc,B:uwt,B:xta + R:tv,R:wc,B:vwb,B:xta"
     " + R:tv,R:bz,B:vzc,B:xta + R:ut,R:wc,B:uwa,B:xtb + R:av,R:wc,B:vwt,B:xtb"
     " + R:av,R:tz,B:vzc,B:xtb + R:ub,R:wt,B:uwa,B:xtc + R:av,R:wt,B:vwb,B:xtc"
     " + R:av,R:bz,B:vzt,B:xtc"),
    # the seven mixed conditions; (id (x) L(x)) s_pq + (L(x) (x) id) s_qp
    ("mixed-coderivation-dot", "x", "ab", "R:au,D:ut,M:xtb - R:ut,Q:ua,M:xtb"
     " + R:tu,Q:ub,M:xta - R:ub,D:ut,M:xta"),
    # (id (x) ad(x)) s_pq - (ad(x) (x) id) s_qp
    ("mixed-coderivation-bracket", "x", "ab", "R:au,D:ut,B:xtb - R:ut,Q:ua,B:xtb"
     " - R:tu,Q:ub,B:xta + R:ub,D:ut,B:xta"),
    # (ad(x) (x) id (x) id) A + (id (x) id (x) L(x)) ((Q (x) id (x) id) A + C)
    # - (id (x) L(x) (x) id) C + sum r_bv (id (x) e_b (x) L(x.v)) s_pq
    # + sum r_uc [(ad(u) (x) id)(L(x) (x) id - id (x) L(x)) S - (id (x) L(x.u)) s_pq] (x) e_c
    ("mixed-co-leibniz", "x", "abc", "R:ub,R:wc,M:uwt,B:xta - R:tv,R:wc,M:vwb,B:xta"
     " + R:tv,R:bz,M:vzc,B:xta + R:ub,R:wt,M:uwp,Q:pa,M:xtc - R:pv,R:wt,M:vwb,Q:pa,M:xtc"
     " + R:pv,R:bz,M:vzt,Q:pa,M:xtc + R:ub,R:wt,B:uwa,M:xtc + R:av,R:wt,B:vwb,M:xtc"
     " + R:av,R:bz,B:vzt,M:xtc - R:ut,R:wc,B:uwa,M:xtb - R:av,R:wc,B:vwt,M:xtb"
     " - R:av,R:tz,B:vzc,M:xtb + R:bv,M:xvt,R:ap,D:pw,M:twc - R:bv,M:xvt,R:pw,Q:pa,M:twc"
     " + R:uc,B:uwa,R:tb,M:xtw + R:uc,B:uwa,R:bt,M:xtw - R:uc,B:uwa,R:wt,M:xtb"
     " - R:uc,B:uwa,R:tw,M:xtb - R:uc,M:xut,R:ap,D:pw,M:twb + R:uc,M:xut,R:pw,Q:pa,M:twb"),
    # (id (x) L(x) - L(x) (x) id) s_qp
    ("mixed-comult-intertwine-dot", "x", "ab", "R:au,Q:ut,M:xtb - R:ut,D:ua,M:xtb"
     " - R:tu,Q:ub,M:xta + R:ub,D:ut,M:xta"),
    # (ad(x) (x) id + id (x) ad(x)) s_qp
    ("mixed-comult-intertwine-bracket", "x", "ab", "R:tu,Q:ub,B:xta - R:ub,D:ut,B:xta"
     " + R:au,Q:ut,B:xtb - R:ut,D:ua,B:xtb"),
    # L((P + Q) x) on the last slot of A
    ("mixed-triple-product", "x", "abc", "R:ub,R:wp,M:uwa,D:xt,M:tpc"
     " - R:av,R:wp,M:vwb,D:xt,M:tpc + R:av,R:bz,M:vzp,D:xt,M:tpc + R:ub,R:wp,M:uwa,Q:xt,M:tpc"
     " - R:av,R:wp,M:vwb,Q:xt,M:tpc + R:av,R:bz,M:vzp,Q:xt,M:tpc"),
)
# L(x.y) on the first slot of s_qp
_UNIT_COMPAT = (
    ("mixed-unit-compat", "xy", "ab", "M:xyt,R:wu,Q:ub,M:twa - M:xyt,R:ub,D:uw,M:twa"),
)
_COBOUNDARY_CHECK = _Checker(_COBOUNDARY_CONDITIONS, _UNIT_COMPAT)


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
    _require(check_dually_represents(alg, codrv), "map does not dually represent the algebra")
    return _check(_COBOUNDARY_CHECK, limit, R=r, M=alg.dot, B=alg.bracket, D=alg.derivation, Q=codrv)


# ---------------------------------------------------------------------------
# O-operators


@dataclass(frozen=True)
class OOperator:
    """A verified operator V -> A intertwining a representation."""

    rep: RepData
    operator: LinearMap


# T is the operator, MU, RHO the actions, E the endomorphism of the module
_O_OPERATOR = (
    # T(u).T(v) - T(mu(T u) v + mu(T v) u)
    ("operator-dot", "ab", "k", "T:at,T:bs,M:tsk - T:at,MU:tbs,T:sk - T:bt,MU:tas,T:sk"),
    # [T u, T v] - T(rho(T u) v - rho(T v) u)
    ("operator-bracket", "ab", "k", "T:at,T:bs,B:tsk - T:at,RHO:tbs,T:sk + T:bt,RHO:tas,T:sk"),
)
# D T - T endo, row p and column c of an n-by-m matrix
_O_INTERTWINE = (("operator-intertwine", "", "pc", "T:cr,D:rp - E:cr,T:rp"),)
_WEAK_O_OPERATOR = _Checker(_O_OPERATOR, _O_INTERTWINE)
_REP_O_OPERATOR = _Checker(_Use("", _REPRESENTATION), _Use("", _WEAK_O_OPERATOR, E="AL"))
# what an OOperator holds: a relative Poisson algebra, then a representation and T's weak conditions
_O_OPERATOR_CHECK = _Checker(_Use("", _REL_POISSON_REP), _Use("", _WEAK_O_OPERATOR, E="AL"))


def check_weak_o_operator(
    alg: RelPoissonAlgebra,
    cs: CompatibleStructure,
    endo: Matrix | LinearMap,
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
    m = cs.space.dim
    endo = _module_map(endo, m, "endo is not an endomorphism of the module")
    tables = dict(M=alg.dot, B=alg.bracket, D=alg.derivation, T=operator, E=endo)
    return _check(_WEAK_O_OPERATOR, limit, MU=cs._mu, RHO=cs._rho, **tables)


# act(Q x) - act(x) alpha - beta act(x)
_MIXED_ACTION = (
    ("mixed-action-dot", "x", "rc", "Q:xt,MU:tcr - AL:ct,MU:xtr - MU:xct,BE:tr"),
    ("mixed-action-bracket", "x", "rc", "Q:xt,RHO:tcr - AL:ct,RHO:xtr - RHO:xct,BE:tr"),
)


_SEMIDIRECT_DUAL = _Checker(
    _Use("rep:", _REPRESENTATION),
    _Use("beta:", _DUAL_REP_CONDITIONS),
    _Use("codrv:", _DUALLY_REPRESENTS),
    _MIXED_ACTION,
)


def check_semidirect_dual_conditions(
    rep: RepData,
    beta: Matrix | LinearMap,
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
    beta = _beta_columns(beta, rep.space.dim)
    _require_endomorphism(rep.algebra.space, codrv, "candidate")
    return _check(_SEMIDIRECT_DUAL, limit, Q=codrv, BE=beta, **_rep_tables(rep))


# the r-matrix's hypotheses: rep with T's weak conditions, beta dually
# representing on the module, and T intertwining beta with Q: Q T - T beta
_O_OPERATOR_RMATRIX = _Checker(
    _Use("", _REP_O_OPERATOR), _Use("", _DUAL_REP_CONDITIONS), _Use("dual-", _O_INTERTWINE, D="Q", E="BE")
)


def o_operator_to_rmatrix(
    rep: RepData,
    beta: Matrix | LinearMap,
    codrv: LinearMap,
    operator: LinearMap,
) -> tuple[RelPoissonAlgebra, Tensor2]:
    """From an O-operator T to an antisymmetric YBE solution:

    builds the semi-direct algebra on A + V* along (-mu*, rho*, beta*) with
    derivation D + beta^T, embeds T as sum T(v_i) (x) v_i*, and returns
    r = T - tau(T), a solution of the RPYBE associated to Q + alpha^T.
    """
    alg = rep.algebra
    n, m = alg.dim, rep.space.dim
    if operator.codomain != alg.space or operator.domain != rep.space:
        raise ValueError("operator does not map the module into the algebra")
    if codrv.domain.dim != n or codrv.codomain.dim != n:
        raise ValueError("dual map is not an endomorphism of the algebra's space")
    tables = dict(T=operator, Q=codrv, BE=_beta_columns(beta, m), **_rep_tables(rep))
    _require(_check(_O_OPERATOR_RMATRIX, DEFAULT_VIOLATION_LIMIT, **tables), "not an O-operator")
    semidirect = _semidirect(dual_rep(rep, beta))
    # T(v_i) (x) v_i* - v_i* (x) T(v_i), with v_i* at index n + i: row t < n
    # holds T's row t at the columns n + i, row n + i holds -T(v_i)
    sp, table = semidirect.space, operator._sparse
    blocks = ((0, n), _permuted(table, (1, 0))), ((n, 0), _scaled(table, -1))
    return semidirect, _make(Tensor2, left=sp, right=sp, _sparse=_blocks((n + m, n + m), *blocks))


def semidirect_codrv(
    rep: RepData, codrv: LinearMap, semidirect: RelPoissonAlgebra
) -> LinearMap:
    """The map Q + alpha^T on A + V* accompanying
    :func:`o_operator_to_rmatrix`."""
    n, sp = codrv.codomain.dim, semidirect.space
    blocks = ((0, 0), codrv._sparse), ((n, n), _permuted(rep._alpha._sparse, (1, 0)))
    return _make(LinearMap, domain=sp, codomain=sp, _sparse=_blocks((sp.dim, sp.dim), *blocks))


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
