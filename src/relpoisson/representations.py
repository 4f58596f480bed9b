"""Representations of relative Poisson algebras and dual representations.

A representation is a quadruple (mu, rho, alpha, V): an action mu of the
commutative product, an action rho of the bracket, and an endomorphism
alpha of V, subject to five condition families checked on basis tuples.
Actions are stored as one V-endomorphism matrix per basis element of the
algebra; the action of a general element is the matching linear
combination.

Dual-space conventions (fixed in :mod:`relpoisson.linalg`): for an action
``phi`` the dual action is ``phi*(x) = -phi(x)^T`` on V*, while the dual
of a plain endomorphism ``beta: V -> V`` is the transpose ``beta^T``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (
    DEFAULT_VIOLATION_LIMIT,
    AxiomReport,
    BilinearOp,
    Collector,
    NoUnitError,
    PreconditionError,
    RelPoissonAlgebra,
    block_sum,
    find_unit,
)
from .linalg import (
    LinearMap,
    Matrix,
    Space,
    Vector,
    basis_vector,
    determinant,
    identity_matrix,
    mat_add,
    mat_apply,
    mat_combination,
    mat_mul,
    mat_neg,
    mat_sub,
    mat_transpose,
    scalar,
    vec_add,
    vec_sub,
    zero_matrix,
)


def _as_matrices(mats, dim: int):
    out = tuple(tuple(tuple(scalar(x) for x in row) for row in m) for m in mats)
    for m in out:
        if len(m) != dim or any(len(r) != dim for r in m):
            raise ValueError("action matrix does not match the module dimension")
    return out


def _flatten(m: Matrix):
    return tuple(x for row in m for x in row)


def _act(mats, u: Vector, dim: int) -> Matrix:
    """The action sum_k u[k] mats[k] of a general element on a dim-dim module;
    zero when the algebra is 0-dimensional."""
    if not mats:
        return zero_matrix(dim, dim)
    return mat_combination(u, mats)


def _action_defects(dot, bracket, mu, rho, cols, i, j, dim):
    """The dot-action, bracket-action and compatibility defects at (i, j):

        mu(x.y) - mu(x) mu(y)
        rho([x,y]) - [rho(x), rho(y)]
        rho(y) mu(x) - mu(x) rho(y) + mu([x,y]) - mu(x . c(y))

    where c(y) = cols[j] is D(y) for a representation and [1, y] for a
    unital one."""
    dot_defect = mat_sub(_act(mu, dot.product(i, j), dim), mat_mul(mu[i], mu[j]))
    commutator = mat_sub(mat_mul(rho[i], rho[j]), mat_mul(rho[j], rho[i]))
    bracket_defect = mat_sub(_act(rho, bracket.product(i, j), dim), commutator)
    compat = mat_sub(mat_mul(rho[j], mu[i]), mat_mul(mu[i], rho[j]))
    compat = mat_add(compat, _act(mu, bracket.product(i, j), dim))
    compat = mat_sub(compat, _act(mu, dot.apply_basis_left(i, cols[j]), dim))
    return _flatten(dot_defect), _flatten(bracket_defect), _flatten(compat)


@dataclass(frozen=True)
class CompatibleStructure:
    """Actions (mu, rho, V) of both products, without the endomorphism."""

    algebra: RelPoissonAlgebra
    space: Space
    dot_action: tuple  # one V-matrix per algebra basis element
    bracket_action: tuple

    def __post_init__(self):
        n, m = self.algebra.dim, self.space.dim
        if len(self.dot_action) != n or len(self.bracket_action) != n:
            raise ValueError("need one action matrix per algebra basis element")
        object.__setattr__(self, "dot_action", _as_matrices(self.dot_action, m))
        object.__setattr__(self, "bracket_action", _as_matrices(self.bracket_action, m))

    def dot_action_of(self, u: Vector) -> Matrix:
        return _act(self.dot_action, u, self.space.dim)

    def bracket_action_of(self, u: Vector) -> Matrix:
        return _act(self.bracket_action, u, self.space.dim)


@dataclass(frozen=True)
class RepData(CompatibleStructure):
    """A compatible structure together with the endomorphism alpha of V."""

    der_action: Matrix = ()

    def __post_init__(self):
        super().__post_init__()
        acts = _as_matrices((self.der_action,), self.space.dim)
        object.__setattr__(self, "der_action", acts[0])

    def compatible_structure(self) -> CompatibleStructure:
        return CompatibleStructure(
            self.algebra, self.space, self.dot_action, self.bracket_action
        )


# ---------------------------------------------------------------------------
# checkers


def check_compatible_structure(
    cs: CompatibleStructure, limit: int = DEFAULT_VIOLATION_LIMIT
) -> AxiomReport:
    """Action axioms for both products plus their compatibility condition."""
    alg = cs.algebra
    n = alg.dim
    coll = Collector(limit)
    dcols = [alg.derivation.column(j) for j in range(n)]
    for i in range(n):
        for j in range(n):
            dot_defect, bracket_defect, compat = _action_defects(
                alg.dot, alg.bracket, cs.dot_action, cs.bracket_action, dcols, i, j, cs.space.dim
            )
            coll.check("dot-action", (i, j), dot_defect)
            coll.check("bracket-action", (i, j), bracket_defect)
            coll.check("compatibility", (i, j), compat)
    return coll.report()


def check_representation(rep: RepData, limit: int = DEFAULT_VIOLATION_LIMIT) -> AxiomReport:
    """All five condition families of a representation."""
    coll = Collector(limit)
    coll.merge(check_compatible_structure(rep, limit))
    alg = rep.algebra
    n = alg.dim
    mu, rho, alpha = rep.dot_action, rep.bracket_action, rep.der_action
    dcols = [alg.derivation.column(j) for j in range(n)]
    for i in range(n):
        defect = mat_sub(mat_mul(alpha, mu[i]), rep.dot_action_of(dcols[i]))
        defect = mat_sub(defect, mat_mul(mu[i], alpha))
        coll.check("endo-dot", (i,), _flatten(defect))
        defect = mat_sub(mat_mul(alpha, rho[i]), rep.bracket_action_of(dcols[i]))
        defect = mat_sub(defect, mat_mul(rho[i], alpha))
        coll.check("endo-bracket", (i,), _flatten(defect))
    for i in range(n):
        for j in range(n):
            xy = alg.dot.product(i, j)
            defect = mat_sub(rep.bracket_action_of(xy), mat_mul(mu[i], rho[j]))
            defect = mat_sub(defect, mat_mul(mu[j], rho[i]))
            defect = mat_add(defect, mat_mul(rep.dot_action_of(xy), alpha))
            coll.check("action-leibniz", (i, j), _flatten(defect))
    return coll.report()


def adjoint_rep(alg: RelPoissonAlgebra) -> RepData:
    """The adjoint representation (left multiplications, ad, derivation)."""
    n = alg.dim
    return RepData(
        algebra=alg,
        space=alg.space,
        dot_action=tuple(alg.dot.left_matrix(i) for i in range(n)),
        bracket_action=tuple(alg.bracket.left_matrix(i) for i in range(n)),
        der_action=alg.derivation.entries,
    )


def dual_rep(cs: CompatibleStructure, beta: Matrix | LinearMap) -> RepData:
    """The dual-space candidate (-mu*, rho*, beta*, V*).

    Validity is not assumed; run :func:`check_representation` on the result
    or test the defining conditions with :func:`check_dual_rep_conditions`.
    """
    beta_m = beta.entries if isinstance(beta, LinearMap) else beta
    return RepData(
        algebra=cs.algebra,
        space=cs.space.dual,
        dot_action=tuple(mat_transpose(m) for m in cs.dot_action),
        bracket_action=tuple(mat_neg(mat_transpose(m)) for m in cs.bracket_action),
        der_action=mat_transpose(beta_m),
    )


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
    beta_m = beta.entries if isinstance(beta, LinearMap) else beta
    alg = cs.algebra
    n = alg.dim
    mu, rho = cs.dot_action, cs.bracket_action
    dcols = [alg.derivation.column(j) for j in range(n)]
    coll = Collector(limit)
    for i in range(n):
        defect = mat_sub(mat_mul(mu[i], beta_m), cs.dot_action_of(dcols[i]))
        defect = mat_sub(defect, mat_mul(beta_m, mu[i]))
        coll.check("dual-rep-dot", (i,), _flatten(defect))
        defect = mat_sub(mat_mul(rho[i], beta_m), cs.bracket_action_of(dcols[i]))
        defect = mat_sub(defect, mat_mul(beta_m, rho[i]))
        coll.check("dual-rep-bracket", (i,), _flatten(defect))
    for i in range(n):
        for j in range(n):
            xy = alg.dot.product(i, j)
            defect = mat_sub(mat_mul(rho[j], mu[i]), cs.bracket_action_of(xy))
            defect = mat_add(defect, mat_mul(rho[i], mu[j]))
            defect = mat_add(defect, mat_mul(beta_m, cs.dot_action_of(xy)))
            coll.check("dual-rep-leibniz", (i, j), _flatten(defect))
    return coll.report()


def check_dually_represents(
    alg: RelPoissonAlgebra, candidate: LinearMap, limit: int = DEFAULT_VIOLATION_LIMIT
) -> AxiomReport:
    """Whether a map Q dually represents the algebra (adjoint-case test):

        x.Q(y) - D(x).y - Q(x.y) = 0
        [x, Q(y)] - [D(x), y] - Q([x, y]) = 0
        [x, y.z] + [y, z.x] + [z, x.y] + Q(x.y.z) = 0
    """
    if candidate.domain != alg.space or candidate.codomain != alg.space:
        raise ValueError("candidate is not an endomorphism of the algebra's space")
    n = alg.dim
    dot, bracket, der = alg.dot, alg.bracket, alg.derivation
    qm = candidate.entries
    qcols = [candidate.column(j) for j in range(n)]
    dcols = [der.column(j) for j in range(n)]
    coll = Collector(limit)
    for x in range(n):
        for y in range(n):
            defect = vec_sub(
                dot.apply_basis_left(x, qcols[y]), dot.apply_basis_right(dcols[x], y)
            )
            defect = vec_sub(defect, mat_apply(qm, dot.product(x, y)))
            coll.check("dual-adjoint-dot", (x, y), defect)
            defect = vec_sub(
                bracket.apply_basis_left(x, qcols[y]),
                bracket.apply_basis_right(dcols[x], y),
            )
            defect = vec_sub(defect, mat_apply(qm, bracket.product(x, y)))
            coll.check("dual-adjoint-bracket", (x, y), defect)
    for x in range(n):
        for y in range(n):
            xy = dot.product(x, y)
            for z in range(n):
                acc = bracket.apply_basis_left(x, dot.product(y, z))
                acc = vec_add(acc, bracket.apply_basis_left(y, dot.product(z, x)))
                acc = vec_add(acc, bracket.apply_basis_left(z, xy))
                acc = vec_add(acc, mat_apply(qm, dot.apply_basis_right(xy, z)))
                coll.check("dual-adjoint-cyclic", (x, y, z), acc)
    return coll.report()


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
    n, m = alg.dim, module.dim
    right = RelPoissonAlgebra(
        module, BilinearOp.zero(module), BilinearOp.zero(module), LinearMap(module, module, endo)
    )
    back = (zero_matrix(n, n),) * m
    return block_sum(alg, right, dot_action, bracket_action, back, back)


def semidirect_product(alg: RelPoissonAlgebra, rep: RepData) -> RelPoissonAlgebra:
    """Semi-direct product along a verified representation; rejects
    candidates that fail :func:`check_representation`."""
    if rep.algebra is not alg and rep.algebra != alg:
        raise ValueError("representation does not act for the given algebra")
    report = check_representation(rep)
    if not report.ok:
        raise PreconditionError(
            f"not a representation: {', '.join(report.axioms_failed())}", report
        )
    return semidirect_structure(
        alg, rep.space, rep.dot_action, rep.bracket_action, rep.der_action
    )


def check_rep_equivalence(rep1: RepData, rep2: RepData, phi: LinearMap) -> bool:
    """True iff phi is invertible and intertwines mu, rho and alpha."""
    if phi.domain.dim != rep1.space.dim or phi.codomain.dim != rep2.space.dim:
        raise ValueError("phi does not map between the module spaces")
    if phi.domain.dim != phi.codomain.dim:
        return False
    if not determinant(phi.entries):
        return False
    pm = phi.entries
    n = rep1.algebra.dim
    for i in range(n):
        if mat_mul(pm, rep1.dot_action[i]) != mat_mul(rep2.dot_action[i], pm):
            return False
        if mat_mul(pm, rep1.bracket_action[i]) != mat_mul(rep2.bracket_action[i], pm):
            return False
    return mat_mul(pm, rep1.der_action) == mat_mul(rep2.der_action, pm)


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
    unit = find_unit(dot)
    if unit is None:
        raise NoUnitError("multiplication has no two-sided unit")
    n = dot.space.dim
    m = module.dim
    mu = _as_matrices(dot_action, m)
    rho = _as_matrices(bracket_action, m)
    coll = Collector(limit)
    coll.check("dot-action-unital", (), _flatten(mat_sub(_act(mu, unit, m), identity_matrix(m))))
    rho_unit = _act(rho, unit, m)
    ad_unit_cols = [bracket.apply(unit, basis_vector(n, j)) for j in range(n)]
    for i in range(n):
        for j in range(n):
            dot_defect, bracket_defect, compat = _action_defects(
                dot, bracket, mu, rho, ad_unit_cols, i, j, m
            )
            coll.check("dot-action", (i, j), dot_defect)
            coll.check("bracket-action", (i, j), bracket_defect)
            xy = dot.product(i, j)
            defect = mat_sub(_act(rho, xy, m), mat_mul(mu[i], rho[j]))
            defect = mat_sub(defect, mat_mul(mu[j], rho[i]))
            defect = mat_add(defect, mat_mul(_act(mu, xy, m), rho_unit))
            coll.check("unital-action-leibniz", (i, j), _flatten(defect))
            coll.check("unital-compatibility", (i, j), compat)
    return coll.report()


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
