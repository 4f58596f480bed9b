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

Matrix-valued defects are swept in the flat-index convention of
:mod:`relpoisson.algebra`, over a module of dim m.
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
    _apply,
    _check_hits,
    _flip,
    _on_slot,
    _sparse_columns,
    block_sum,
    find_unit,
)
from .linalg import (
    ONE,
    LinearMap,
    Matrix,
    Space,
    Vector,
    determinant,
    mat_combination,
    mat_mul,
    mat_neg,
    mat_transpose,
    scalar,
    zero_matrix,
)


def _as_matrices(mats, dim: int):
    out = tuple(tuple(tuple(scalar(x) for x in row) for row in m) for m in mats)
    for m in out:
        if len(m) != dim or any(len(r) != dim for r in m):
            raise ValueError("action matrix does not match the module dimension")
    return out


def _act(mats, u: Vector, dim: int) -> Matrix:
    """The action sum_k u[k] mats[k] of a general element on a dim-dim module;
    zero when the algebra is 0-dimensional."""
    if not mats:
        return zero_matrix(dim, dim)
    return mat_combination(u, mats)


def _tables(mats, m: int):
    """Each matrix's sparse columns and its flat hits, as two tuples: a
    product A B applies A's columns to the row slot of B's hits."""
    cols = tuple(map(_sparse_columns, mats))
    return cols, tuple(
        tuple((r * m + c, x) for c, col in enumerate(a) for r, x in col) for a in cols
    )


def _action_defects(dot, bracket, mu, rho, cols, i, j, m):
    """Hits of the dot-action, bracket-action and compatibility defects at
    (i, j):

        mu(x.y) - mu(x) mu(y)
        rho([x,y]) - [rho(x), rho(y)]
        rho(y) mu(x) - mu(x) rho(y) + mu([x,y]) - mu(x . c(y))

    where c(y) = cols[j] is D(y) for a representation and [1, y] for a
    unital one; mu and rho are :func:`_tables`."""
    (mu_c, mu_f), (rho_c, rho_f) = mu, rho
    xy, br = dot._sparse[i][j], bracket._sparse[i][j]
    x_cy = _apply(dot._sparse[i], cols[j])
    dot_hits = _apply(mu_f, xy) + _on_slot(mu_c[i], mu_f[j], m, m, -1)
    bracket_hits = _apply(rho_f, br) + _on_slot(rho_c[j], rho_f[i], m, m)
    bracket_hits += _on_slot(rho_c[i], rho_f[j], m, m, -1)
    compat = _on_slot(rho_c[j], mu_f[i], m, m) + _on_slot(mu_c[i], rho_f[j], m, m, -1)
    compat += _apply(mu_f, br) + _apply(mu_f, x_cy, -1)
    return dot_hits, bracket_hits, compat


def _leibniz(mu, rho, xy, i, j, right, m):
    """Hits of rho(x.y) - mu(x) rho(y) - mu(y) rho(x) + mu(x.y) R, where R
    is given by its flat hits."""
    (mu_c, _), (rho_c, rho_f) = mu, rho
    hits = _apply(rho_f, xy) + _on_slot(mu_c[i], rho_f[j], m, m, -1)
    hits += _on_slot(mu_c[j], rho_f[i], m, m, -1)
    for t, c in xy:
        hits += _on_slot(mu_c[t], right, m, m, c)
    return hits


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
    n, m = alg.dim, cs.space.dim
    coll = Collector(limit)
    mu, rho = _tables(cs.dot_action, m), _tables(cs.bracket_action, m)
    dcols = _sparse_columns(alg.derivation.entries)
    for i in range(n):
        for j in range(n):
            dot_hits, bracket_hits, compat = _action_defects(
                alg.dot, alg.bracket, mu, rho, dcols, i, j, m
            )
            _check_hits(coll, "dot-action", (i, j), dot_hits, m * m)
            _check_hits(coll, "bracket-action", (i, j), bracket_hits, m * m)
            _check_hits(coll, "compatibility", (i, j), compat, m * m)
    return coll.report()


def check_representation(rep: RepData, limit: int = DEFAULT_VIOLATION_LIMIT) -> AxiomReport:
    """All five condition families of a representation."""
    coll = Collector(limit)
    coll.merge(check_compatible_structure(rep, limit))
    alg = rep.algebra
    n, m = alg.dim, rep.space.dim
    mu, rho = _tables(rep.dot_action, m), _tables(rep.bracket_action, m)
    (alpha_c,), (alpha_f,) = _tables((rep.der_action,), m)
    dcols = _sparse_columns(alg.derivation.entries)
    for i in range(n):
        for axiom, (act_c, act_f) in (("endo-dot", mu), ("endo-bracket", rho)):
            # alpha act(x) - act(D x) - act(x) alpha
            hits = _on_slot(alpha_c, act_f[i], m, m) + _on_slot(act_c[i], alpha_f, m, m, -1)
            hits += _apply(act_f, dcols[i], -1)
            _check_hits(coll, axiom, (i,), hits, m * m)
    dot = alg.dot._sparse
    for i in range(n):
        for j in range(n):
            hits = _leibniz(mu, rho, dot[i][j], i, j, alpha_f, m)
            _check_hits(coll, "action-leibniz", (i, j), hits, m * m)
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
    n, m = alg.dim, cs.space.dim
    if len(beta_m) != m or any(len(row) != m for row in beta_m):
        raise ValueError("beta is not an endomorphism of the module")
    mu, rho = _tables(cs.dot_action, m), _tables(cs.bracket_action, m)
    (_, mu_f), (rho_c, rho_f) = mu, rho
    (beta_c,), (beta_f,) = _tables((beta_m,), m)
    dcols = _sparse_columns(alg.derivation.entries)
    coll = Collector(limit)
    for i in range(n):
        for axiom, (act_c, act_f) in (("dual-rep-dot", mu), ("dual-rep-bracket", rho)):
            # act(x) beta - act(D x) - beta act(x)
            hits = _on_slot(act_c[i], beta_f, m, m) + _on_slot(beta_c, act_f[i], m, m, -1)
            hits += _apply(act_f, dcols[i], -1)
            _check_hits(coll, axiom, (i,), hits, m * m)
    dot = alg.dot._sparse
    for i in range(n):
        for j in range(n):
            xy = dot[i][j]
            hits = _on_slot(rho_c[j], mu_f[i], m, m) + _apply(rho_f, xy, -1)
            hits += _on_slot(rho_c[i], mu_f[j], m, m)
            for t, c in xy:
                hits += _on_slot(beta_c, mu_f[t], m, m, c)
            _check_hits(coll, "dual-rep-leibniz", (i, j), hits, m * m)
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
    dot, br = alg.dot._sparse, alg.bracket._sparse
    fdot, fbr = _flip(dot, n), _flip(br, n)
    qcols = _sparse_columns(candidate.entries)
    dcols = _sparse_columns(alg.derivation.entries)
    coll = Collector(limit)
    for x in range(n):
        for y in range(n):
            for axiom, op, flipped in (
                ("dual-adjoint-dot", dot, fdot),
                ("dual-adjoint-bracket", br, fbr),
            ):
                # x.Q(y) - D(x).y - Q(x.y), and the same through the bracket
                hits = _apply(op[x], qcols[y]) + _apply(flipped[y], dcols[x], -1)
                hits += _apply(qcols, op[x][y], -1)
                _check_hits(coll, axiom, (x, y), hits, n)
    for x in range(n):
        for y in range(n):
            xy = dot[x][y]
            for z in range(n):
                hits = _apply(br[x], dot[y][z]) + _apply(br[y], dot[z][x]) + _apply(br[z], xy)
                hits += _apply(qcols, _apply(fdot[z], xy))
                _check_hits(coll, "dual-adjoint-cyclic", (x, y, z), hits, n)
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
    if dot.space != bracket.space:
        raise ValueError("dot and bracket live on different spaces")
    n, m = dot.space.dim, module.dim
    if len(dot_action) != n or len(bracket_action) != n:
        raise ValueError("need one action matrix per algebra basis element")
    unit = find_unit(dot)
    if unit is None:
        raise NoUnitError("multiplication has no two-sided unit")
    mu_m, rho_m = _as_matrices(dot_action, m), _as_matrices(bracket_action, m)
    mu, rho = _tables(mu_m, m), _tables(rho_m, m)
    (_,), (rho_unit,) = _tables((_act(rho_m, unit, m),), m)
    ad_unit = _sparse_columns(bracket.left_matrix_of(unit))
    coll = Collector(limit)
    unit_sp = [(k, u) for k, u in enumerate(unit) if u]
    hits = _apply(mu[1], unit_sp) + [(r * m + r, -ONE) for r in range(m)]
    _check_hits(coll, "dot-action-unital", (), hits, m * m)
    for i in range(n):
        for j in range(n):
            dot_hits, bracket_hits, compat = _action_defects(
                dot, bracket, mu, rho, ad_unit, i, j, m
            )
            _check_hits(coll, "dot-action", (i, j), dot_hits, m * m)
            _check_hits(coll, "bracket-action", (i, j), bracket_hits, m * m)
            hits = _leibniz(mu, rho, dot._sparse[i][j], i, j, rho_unit, m)
            _check_hits(coll, "unital-action-leibniz", (i, j), hits, m * m)
            _check_hits(coll, "unital-compatibility", (i, j), compat, m * m)
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
