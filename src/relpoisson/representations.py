"""Representations of relative Poisson algebras and dual representations.

A representation is a quadruple (mu, rho, alpha, V): an action mu of the
commutative product, an action rho of the bracket, and an endomorphism
alpha of V, subject to five condition families checked on basis tuples.
Each action is stored as one table keyed (x, j, r), an entry holding
row r of mu(e_x) e_j, and alpha as a linear map, itself stored keyed
(column, row).  The dense attributes, one V-endomorphism matrix per basis element
and the matrix of alpha, are views derived on first read; the action of a
general element is the matching linear combination.  Library functions
take an endomorphism beta or alpha either dense or as a linear map, and
pass linear maps between themselves.

Dual-space conventions (fixed in :mod:`relpoisson.linalg`): for an action
``phi`` the dual action is ``phi*(x) = -phi(x)^T`` on V*, while the dual
of a plain endomorphism ``beta: V -> V`` is the transpose ``beta^T``.

Every condition family is a term spec, contracted with the others of its
checker (:class:`relpoisson.algebra._Checker`) in one call: an action
family is the labelled table
"xjr", and a matrix-valued defect "rc" is a module matrix, row r and
column c, so a product A B reads "B:ct,A:tr".
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .algebra import (
    DEFAULT_VIOLATION_LIMIT,
    _REL_POISSON,
    AxiomReport,
    BilinearOp,
    NoUnitError,
    RelPoissonAlgebra,
    _block_sum,
    _check,
    _Checker,
    _families,
    _matrices,
    _require,
    _require_endomorphism,
    _Use,
    ad_map,
    find_unit,
)
from .linalg import (
    LinearMap,
    Matrix,
    Space,
    Vector,
    _act,
    _determinant,
    _from_dense,
    _identity,
    _make,
    _permuted,
    _row_dicts,
    _scaled,
    _Stored,
    _Table,
    _table,
    _view,
)


def _action_of(family, u: Vector) -> Matrix:
    """The dense matrix of sum_k u[k] family[k]."""
    return _view(_act(family, u), (1, 0))


@dataclass(frozen=True, init=False, eq=False, repr=False)
class CompatibleStructure(_Stored):
    """Actions (mu, rho, V) of both products, without the endomorphism.
    The constructor takes the dense families ``dot_action`` and
    ``bracket_action``, one V-matrix per algebra basis element."""

    algebra: RelPoissonAlgebra
    space: Space
    dot_action: tuple = cached_property(lambda self: _matrices(self._mu))
    bracket_action: tuple = cached_property(lambda self: _matrices(self._rho))
    _stored = ("algebra", "space", "_mu", "_rho")

    def __init__(self, algebra: RelPoissonAlgebra, space: Space, dot_action, bracket_action):
        n, m = algebra.dim, space.dim
        mu, rho = _families(n, m, dot_action, bracket_action)
        self.__dict__.update(algebra=algebra, space=space, _mu=mu, _rho=rho)

    def dot_action_of(self, u: Vector) -> Matrix:
        return _action_of(self._mu, u)

    def bracket_action_of(self, u: Vector) -> Matrix:
        return _action_of(self._rho, u)


@dataclass(frozen=True, init=False, eq=False, repr=False)
class RepData(CompatibleStructure):
    """A compatible structure together with the endomorphism alpha of V,
    stored as the linear map ``_alpha`` and given dense as ``der_action``."""

    der_action: Matrix = cached_property(lambda self: self._alpha.entries)
    _stored = CompatibleStructure._stored + ("_alpha",)

    def __init__(self, algebra, space, dot_action, bracket_action, der_action: Matrix = ()):
        super().__init__(algebra, space, dot_action, bracket_action)
        m = space.dim
        error = "action matrix does not match the module dimension"
        cols = _from_dense(der_action, (m, m), error, (1, 0))
        self.__dict__["_alpha"] = _make(LinearMap, domain=space, codomain=space, _sparse=cols)

    def compatible_structure(self) -> CompatibleStructure:
        fields = dict(algebra=self.algebra, space=self.space, _mu=self._mu, _rho=self._rho)
        return _make(CompatibleStructure, **fields)


def _rep(algebra, space, mu, rho, alpha: LinearMap) -> RepData:
    """A candidate representation holding the given action families, as
    tables, and endomorphism."""
    return _make(RepData, algebra=algebra, space=space, _mu=mu, _rho=rho, _alpha=alpha)


# ---------------------------------------------------------------------------
# checkers


# M is the dot, B the bracket and D the derivation of the algebra; MU and
# RHO are the action families, AL the endomorphism alpha, BE a map beta and
# I the identity of the module.  A defect "rc" is row r, column c of a
# module matrix.
_ACTIONS = (
    # mu(x.y) - mu(x) mu(y)
    ("dot-action", "ij", "rc", "M:ijt,MU:tcr - MU:jct,MU:itr"),
    # rho([x,y]) - [rho(x), rho(y)]
    ("bracket-action", "ij", "rc", "B:ijt,RHO:tcr + RHO:ict,RHO:jtr - RHO:jct,RHO:itr"),
)
# rho(y) mu(x) - mu(x) rho(y) + mu([x,y]) - mu(x . W(y)), W = D or ad(1)
_COMPATIBILITY = "MU:ict,RHO:jtr - RHO:jct,MU:itr + B:ijt,MU:tcr - W:ju,M:iut,MU:tcr"
_COMPATIBLE = _ACTIONS + (("compatibility", "ij", "rc", _COMPATIBILITY),)
# alpha act(x) - act(D x) - act(x) alpha
_ENDO = (
    ("endo-dot", "i", "rc", "MU:ict,AL:tr - AL:ct,MU:itr - D:it,MU:tcr"),
    ("endo-bracket", "i", "rc", "RHO:ict,AL:tr - AL:ct,RHO:itr - D:it,RHO:tcr"),
)
# rho(x.y) - mu(x) rho(y) - mu(y) rho(x) + mu(x.y) R, R = alpha or rho(1)
_ACTION_LEIBNIZ = "M:ijt,RHO:tcr - RHO:jct,MU:itr - RHO:ict,MU:jtr"
_REP_LEIBNIZ = (("action-leibniz", "ij", "rc", _ACTION_LEIBNIZ + " + M:ijt,AL:cu,MU:tur"),)
# act(x) beta - act(D x) - beta act(x)
_DUAL_REP = (
    ("dual-rep-dot", "i", "rc", "BE:ct,MU:itr - MU:ict,BE:tr - D:it,MU:tcr"),
    ("dual-rep-bracket", "i", "rc", "BE:ct,RHO:itr - RHO:ict,BE:tr - D:it,RHO:tcr"),
)
# -rho(x.y) + rho(y) mu(x) + rho(x) mu(y) + beta mu(x.y)
_DUAL_REP_LEIBNIZ = (
    ("dual-rep-leibniz", "ij", "rc", "MU:ict,RHO:jtr - M:ijt,RHO:tcr + MU:jct,RHO:itr"
     " + M:ijt,MU:tcu,BE:ur"),
)
# mu(1) - id, with U the unit
_UNITAL = (("dot-action-unital", "", "rc", "U:t,MU:tcr - I:cr"),)
_JACOBI_ACTIONS = _ACTIONS + (
    ("unital-action-leibniz", "ij", "rc", _ACTION_LEIBNIZ + " + M:ijt,U:v,RHO:vcq,MU:tqr"),
    ("unital-compatibility", "ij", "rc", _COMPATIBILITY),
)


def check_compatible_structure(
    cs: CompatibleStructure, limit: int = DEFAULT_VIOLATION_LIMIT
) -> AxiomReport:
    """Action axioms for both products plus their compatibility condition."""
    alg = cs.algebra
    return _check(_COMPATIBLE, limit, M=alg.dot, B=alg.bracket, W=alg.derivation, MU=cs._mu, RHO=cs._rho)


_REPRESENTATION = _Checker(_Use("", _COMPATIBLE, W="D"), _ENDO, _REP_LEIBNIZ)
# what the unit extension of a representation needs
_REL_POISSON_REP = _Checker(_Use("", _REL_POISSON), _Use("", _REPRESENTATION))


def _rep_tables(rep: RepData) -> dict:
    """The tables of a representation and its algebra, by the names above."""
    alg = rep.algebra
    return dict(M=alg.dot, B=alg.bracket, D=alg.derivation, MU=rep._mu, RHO=rep._rho, AL=rep._alpha)


def check_representation(rep: RepData, limit: int = DEFAULT_VIOLATION_LIMIT) -> AxiomReport:
    """All five condition families of a representation."""
    return _check(_REPRESENTATION, limit, **_rep_tables(rep))


def adjoint_rep(alg: RelPoissonAlgebra) -> RepData:
    """The adjoint representation (left multiplications, ad, derivation);
    a product's table, keyed (i, j, k), is the action family of L."""
    return _rep(alg, alg.space, alg.dot._sparse, alg.bracket._sparse, alg.derivation)


def _module_map(endo: Matrix | LinearMap, m: int, error: str):
    """The table of an endomorphism of an m-dimensional module, keyed
    (column, row), given as a linear map or a dense matrix; a mis-sized one
    raises ValueError(error)."""
    if not isinstance(endo, LinearMap):
        return _from_dense(endo, (m, m), error, (1, 0))
    if endo.domain.dim != m or endo.codomain.dim != m:
        raise ValueError(error)
    return endo._sparse


def _beta_columns(beta: Matrix | LinearMap, m: int):
    return _module_map(beta, m, "beta is not an endomorphism of the module")


def dual_rep(cs: CompatibleStructure, beta: Matrix | LinearMap) -> RepData:
    """The dual-space candidate (-mu*, rho*, beta*, V*), built by
    transposing the stored matrices.

    Validity is not assumed; run :func:`check_representation` on the result
    or test the defining conditions with :func:`check_dual_rep_conditions`.
    """
    m, dual = cs.space.dim, cs.space.dual
    mu = _permuted(cs._mu, (0, 2, 1))
    rho = _scaled(_permuted(cs._rho, (0, 2, 1)), -1)
    alpha = _make(LinearMap, domain=dual, codomain=dual, _sparse=_permuted(_beta_columns(beta, m), (1, 0)))
    return _rep(cs.algebra, dual, mu, rho, alpha)


_DUAL_REP_CONDITIONS = _Checker(_DUAL_REP, _DUAL_REP_LEIBNIZ)


def check_dual_rep_conditions(
    cs: CompatibleStructure,
    beta: Matrix | LinearMap,
    limit: int = DEFAULT_VIOLATION_LIMIT,
) -> AxiomReport:
    """The conditions under which beta dually represents the algebra on
    (mu, rho, V), i.e. (-mu*, rho*, beta*, V*) is a representation:

        mu(x) beta - mu(D x) - beta mu(x) = 0
        rho(x) beta - rho(D x) - beta rho(x) = 0
        -rho(x.y) + rho(y) mu(x) + rho(x) mu(y) + beta mu(x.y) = 0
    """
    alg = cs.algebra
    beta = _beta_columns(beta, cs.space.dim)
    tables = dict(M=alg.dot, D=alg.derivation, MU=cs._mu, RHO=cs._rho, BE=beta)
    return _check(_DUAL_REP_CONDITIONS, limit, **tables)


# M is the dot, B the bracket, D the derivation and Q the candidate
_DUAL_ADJOINT = (
    # x.Q(y) - D(x).y - Q(x.y), and the same through the bracket
    ("dual-adjoint-dot", "xy", "s", "Q:yt,M:xts - D:xt,M:tys - M:xyt,Q:ts"),
    ("dual-adjoint-bracket", "xy", "s", "Q:yt,B:xts - D:xt,B:tys - B:xyt,Q:ts"),
)
_DUAL_ADJOINT_CYCLIC = (
    ("dual-adjoint-cyclic", "xyz", "s", "M:yzt,B:xts + M:zxt,B:yts + M:xyt,B:zts + M:xyt,M:tzu,Q:us"),
)
_DUALLY_REPRESENTS = _Checker(_DUAL_ADJOINT, _DUAL_ADJOINT_CYCLIC)


def check_dually_represents(
    alg: RelPoissonAlgebra, candidate: LinearMap, limit: int = DEFAULT_VIOLATION_LIMIT
) -> AxiomReport:
    """Whether a map Q dually represents the algebra (adjoint-case test):

        x.Q(y) - D(x).y - Q(x.y) = 0
        [x, Q(y)] - [D(x), y] - Q([x, y]) = 0
        [x, y.z] + [y, z.x] + [z, x.y] + Q(x.y.z) = 0
    """
    _require_endomorphism(alg.space, candidate, "candidate")
    return _check(_DUALLY_REPRESENTS, limit, M=alg.dot, B=alg.bracket, D=alg.derivation, Q=candidate)


# ---------------------------------------------------------------------------
# semi-direct products


def semidirect_structure(
    alg: RelPoissonAlgebra,
    module: Space,
    dot_action,
    bracket_action,
    endo: Matrix,
) -> RelPoissonAlgebra:
    """The candidate semi-direct quadruple on A + V (A basis first):

        (x+u).(y+v)  = x.y + mu(x)v + mu(y)u
        [x+u, y+v]   = [x,y] + rho(x)v - rho(y)u
        D(x+u)       = D(x) + alpha(u)

    Built structurally (:func:`relpoisson.algebra.block_sum`), with no
    validity assumption on the actions: V is the zero-product algebra with
    derivation alpha and does not act back on A.
    """
    return _semidirect(RepData(alg, module, dot_action, bracket_action, endo))


def _semidirect(rep: RepData) -> RelPoissonAlgebra:
    """:func:`semidirect_structure` on a candidate's stored actions."""
    module = rep.space
    zero = BilinearOp.zero(module)
    right = RelPoissonAlgebra(module, zero, zero, rep._alpha)
    back = _Table((), (module.dim, rep.algebra.dim, rep.algebra.dim))
    return _block_sum(rep.algebra, right, rep._mu, rep._rho, back, back)


def semidirect_product(alg: RelPoissonAlgebra, rep: RepData) -> RelPoissonAlgebra:
    """Semi-direct product along a verified representation; rejects
    candidates that fail :func:`check_representation`."""
    if rep.algebra is not alg and rep.algebra != alg:
        raise ValueError("representation does not act for the given algebra")
    _require(check_representation(rep), "not a representation")
    return _semidirect(rep)


# phi a - b phi for each pair (a, b) of matrices rep1 and rep2 assign alike
_INTERTWINE = (
    ("dot", "k", "rc", "MU:kct,P:tr - P:ct,NU:ktr"),
    ("bracket", "k", "rc", "RHO:kct,P:tr - P:ct,SIGMA:ktr"),
    ("endo", "", "rc", "AL:ct,P:tr - P:ct,BE:tr"),
)


def check_rep_equivalence(rep1: RepData, rep2: RepData, phi: LinearMap) -> bool:
    """True iff phi is invertible and intertwines mu, rho and alpha."""
    if rep1.algebra.space != rep2.algebra.space:
        raise ValueError("representations of algebras on different spaces")
    if phi.domain.dim != rep1.space.dim or phi.codomain.dim != rep2.space.dim:
        raise ValueError("phi does not map between the module spaces")
    if phi.domain.dim != phi.codomain.dim:
        return False
    if not _determinant(_row_dicts(phi._sparse, phi.domain.dim)):
        return False
    tables = dict(MU=rep1._mu, NU=rep2._mu, RHO=rep1._rho, SIGMA=rep2._rho, P=phi)
    return _check(_INTERTWINE, 0, AL=rep1._alpha, BE=rep2._alpha, **tables).ok


_JACOBI_REPRESENTATION = _Checker(_UNITAL, _JACOBI_ACTIONS)


def check_jacobi_representation(
    dot: BilinearOp,
    bracket: BilinearOp,
    dot_action,
    bracket_action,
    module: Space,
    limit: int = DEFAULT_VIOLATION_LIMIT,
) -> AxiomReport:
    """Representation axioms for a unital (Jacobi-type) pair of products:
    a unital action of the dot, a Lie action of the bracket, and the two
    mixed conditions tying them together through the unit's adjoint map.

    Raises :class:`NoUnitError` when dot has no unit.
    """
    if dot.space != bracket.space:
        raise ValueError("dot and bracket live on different spaces")
    mu, rho = _families(dot.space.dim, module.dim, dot_action, bracket_action)
    return _jacobi_representation(dot, bracket, mu, rho, module.dim, limit)


def _jacobi_representation(dot, bracket, mu, rho, m: int, limit: int = DEFAULT_VIOLATION_LIMIT):
    """:func:`check_jacobi_representation` on stored action families."""
    unit = find_unit(dot)
    if unit is None:
        raise NoUnitError("multiplication has no two-sided unit")
    hits = _table([(k, u) for k, u in enumerate(unit) if u], "k", (len(unit),))
    tables = dict(M=dot, B=bracket, U=hits, W=ad_map(bracket, unit), MU=mu, RHO=rho)
    return _check(_JACOBI_REPRESENTATION, limit, I=_identity(m), **tables)


__all__ = [
    "CompatibleStructure",
    "RepData",
    "check_compatible_structure",
    "check_representation",
    "adjoint_rep",
    "dual_rep",
    "check_dual_rep_conditions",
    "check_dually_represents",
    "semidirect_structure",
    "semidirect_product",
    "check_rep_equivalence",
    "check_jacobi_representation",
]
