"""Representations of relative Poisson algebras and dual representations.

A representation is a quadruple (mu, rho, alpha, V): an action mu of the
commutative product, an action rho of the bracket, and an endomorphism
alpha of V, subject to five condition families checked on basis tuples.
Each action is stored as one sparse column table per basis element of the
algebra (``_mu[x][j]`` lists the nonzero (row, value) entries of
mu(e_x) e_j), and alpha as its column table.  The dense attributes, one
V-endomorphism matrix per basis element, are views derived on first read;
the action of a general element is the matching linear combination.

Dual-space conventions (fixed in :mod:`relpoisson.linalg`): for an action
``phi`` the dual action is ``phi*(x) = -phi(x)^T`` on V*, while the dual
of a plain endomorphism ``beta: V -> V`` is the transpose ``beta^T``.

Matrix-valued defects are swept in the flat-index convention of
:mod:`relpoisson.algebra`, over a module of dim m: a product A B applies
A's column table to the row slot of B's flat hits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .algebra import (
    DEFAULT_VIOLATION_LIMIT,
    AxiomReport,
    BilinearOp,
    Collector,
    NoUnitError,
    PreconditionError,
    RelPoissonAlgebra,
    _apply,
    _block_sum,
    _check_hits,
    _dense,
    _families,
    _flat,
    _flip,
    _matrices,
    _make,
    _on_slot,
    _Stored,
    _transpose,
    ad_map,
    find_unit,
)
from .linalg import ONE, LinearMap, Matrix, Space, Vector, _columns, determinant


def _with_flats(*families):
    """Each action family as (column tables, flat hits of each matrix)."""
    return [(fam, tuple(map(_flat, fam))) for fam in families]


def _action_of(family, u: Vector, m: int) -> Matrix:
    """The dense matrix of sum_k u[k] family[k] on a module of dim m."""
    return _dense([(f, c * x) for k, c in enumerate(u) if c for f, x in _flat(family[k])], m, m)


def _action_defects(dot, bracket, mu, rho, cols, i, j, m):
    """Hits of the dot-action, bracket-action and compatibility defects at
    (i, j):

        mu(x.y) - mu(x) mu(y)
        rho([x,y]) - [rho(x), rho(y)]
        rho(y) mu(x) - mu(x) rho(y) + mu([x,y]) - mu(x . c(y))

    where c(y) = cols[j] is D(y) for a representation and [1, y] for a
    unital one; mu and rho are :func:`_with_flats` pairs."""
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


@dataclass(frozen=True, init=False, eq=False)
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
        return _action_of(self._mu, u, self.space.dim)

    def bracket_action_of(self, u: Vector) -> Matrix:
        return _action_of(self._rho, u, self.space.dim)


@dataclass(frozen=True, init=False, eq=False)
class RepData(CompatibleStructure):
    """A compatible structure together with the endomorphism alpha of V,
    given dense as ``der_action``."""

    der_action: Matrix = cached_property(lambda self: _matrices((self._alpha,))[0])
    _stored = CompatibleStructure._stored + ("_alpha",)

    def __init__(self, algebra, space, dot_action, bracket_action, der_action: Matrix = ()):
        super().__init__(algebra, space, dot_action, bracket_action)
        m = space.dim
        error = "action matrix does not match the module dimension"
        self.__dict__["_alpha"] = _columns(der_action, m, m, error)

    def compatible_structure(self) -> CompatibleStructure:
        fields = dict(algebra=self.algebra, space=self.space, _mu=self._mu, _rho=self._rho)
        return _make(CompatibleStructure, **fields)


def _rep(algebra, space, mu, rho, alpha) -> RepData:
    """A candidate representation holding the given stored column tables."""
    return _make(RepData, algebra=algebra, space=space, _mu=mu, _rho=rho, _alpha=alpha)


# ---------------------------------------------------------------------------
# checkers


def check_compatible_structure(
    cs: CompatibleStructure, limit: int = DEFAULT_VIOLATION_LIMIT
) -> AxiomReport:
    """Action axioms for both products plus their compatibility condition."""
    alg = cs.algebra
    n, m = alg.dim, cs.space.dim
    coll = Collector(limit)
    mu, rho = _with_flats(cs._mu, cs._rho)
    dcols = alg.derivation._cols
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
    mu, rho = _with_flats(rep._mu, rep._rho)
    alpha_c, alpha_f, dcols = rep._alpha, _flat(rep._alpha), alg.derivation._cols
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
    """The adjoint representation (left multiplications, ad, derivation);
    the column table of L(e_i) is the row ``_sparse[i]`` of the product."""
    return _rep(alg, alg.space, alg.dot._sparse, alg.bracket._sparse, alg.derivation._cols)


def _beta_columns(beta: Matrix | LinearMap, m: int):
    beta_m = beta.entries if isinstance(beta, LinearMap) else beta
    return _columns(beta_m, m, m, "beta is not an endomorphism of the module")


def dual_rep(cs: CompatibleStructure, beta: Matrix | LinearMap) -> RepData:
    """The dual-space candidate (-mu*, rho*, beta*, V*), built by
    transposing the stored column tables.

    Validity is not assumed; run :func:`check_representation` on the result
    or test the defining conditions with :func:`check_dual_rep_conditions`.
    """
    m = cs.space.dim
    mu = tuple(_transpose(cols, m) for cols in cs._mu)
    rho = tuple(_transpose(cols, m, -1) for cols in cs._rho)
    return _rep(cs.algebra, cs.space.dual, mu, rho, _transpose(_beta_columns(beta, m), m))


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
    n, m = alg.dim, cs.space.dim
    beta_c = _beta_columns(beta, m)
    beta_f, dcols = _flat(beta_c), alg.derivation._cols
    mu, rho = _with_flats(cs._mu, cs._rho)
    (_, mu_f), (rho_c, rho_f) = mu, rho
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
    qcols, dcols = candidate._cols, alg.derivation._cols
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
    return _semidirect(RepData(alg, module, dot_action, bracket_action, endo))


def _semidirect(rep: RepData) -> RelPoissonAlgebra:
    """:func:`semidirect_structure` on a candidate's stored actions."""
    module = rep.space
    zero = BilinearOp.zero(module)
    right = RelPoissonAlgebra(module, zero, zero, LinearMap(module, module, rep.der_action))
    back = (((),) * rep.algebra.dim,) * module.dim
    return _block_sum(rep.algebra, right, rep._mu, rep._rho, back, back)


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
    return _semidirect(rep)


def check_rep_equivalence(rep1: RepData, rep2: RepData, phi: LinearMap) -> bool:
    """True iff phi is invertible and intertwines mu, rho and alpha."""
    if rep1.algebra.space != rep2.algebra.space:
        raise ValueError("representations of algebras on different spaces")
    if phi.domain.dim != rep1.space.dim or phi.codomain.dim != rep2.space.dim:
        raise ValueError("phi does not map between the module spaces")
    if phi.domain.dim != phi.codomain.dim:
        return False
    if not determinant(phi.entries):
        return False
    m, pc, pf = phi.domain.dim, phi._cols, _flat(phi._cols)
    pairs = [*zip(rep1._mu, rep2._mu), *zip(rep1._rho, rep2._rho), (rep1._alpha, rep2._alpha)]
    # phi a - b phi, with phi applied to the row slot of a's flat hits
    return not any(
        any(_dense(_on_slot(pc, _flat(a), m, m) + _on_slot(b, pf, m, m, -1), m * m))
        for a, b in pairs
    )


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
    mu, rho = _with_flats(*_families(n, m, dot_action, bracket_action))
    unit = find_unit(dot)
    if unit is None:
        raise NoUnitError("multiplication has no two-sided unit")
    unit_sp = [(k, u) for k, u in enumerate(unit) if u]
    rho_unit = _apply(rho[1], unit_sp)
    ad_unit = ad_map(bracket, unit)._cols
    coll = Collector(limit)
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
