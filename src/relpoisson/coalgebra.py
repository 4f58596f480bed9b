"""Comultiplications, relative Poisson coalgebras and bialgebras.

A comultiplication is stored column-wise: ``columns[k][i][j]`` is the
coefficient of e_i (x) e_j in the image of e_k, so that dualizing a
comultiplication into a product on the dual space is a pure index
transposition with no signs.  The dual comultiplications of an algebra's
own products carry the explicit minus signs of the dualization rules; they
are load-bearing and implemented literally.  Tensor-valued defects are
swept in the flat-index convention of :mod:`relpoisson.algebra`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .algebra import (
    DEFAULT_VIOLATION_LIMIT,
    AxiomReport,
    BilinearOp,
    Collector,
    PreconditionError,
    RelPoissonAlgebra,
    _apply,
    _check_hits,
    _flip,
    _on_slot,
    _sparse_columns,
    _swap,
    check_rel_poisson,
)
from .linalg import (
    ZERO,
    LinearMap,
    Matrix,
    Space,
    Vector,
    mat_add,
    mat_neg,
    mat_transpose,
    scalar,
)
from .pairing import MatchedPairData
from .representations import check_dually_represents


@dataclass(frozen=True)
class Comultiplication:
    """A linear map A -> A (x) A; ``columns[k]`` is the image of e_k."""

    space: Space
    columns: tuple  # columns[k][i][j]

    def __post_init__(self):
        n = self.space.dim
        cols = tuple(
            tuple(tuple(scalar(x) for x in row) for row in col) for col in self.columns
        )
        object.__setattr__(self, "columns", cols)
        ok = len(cols) == n and all(
            len(col) == n and all(len(row) == n for row in col) for col in cols
        )
        if not ok:
            raise ValueError("comultiplication coefficients do not match the dimension")

    @staticmethod
    def zero(space: Space) -> Comultiplication:
        return Comultiplication.from_entries(space, ())

    @staticmethod
    def from_entries(space: Space, entries) -> Comultiplication:
        """Build from sparse (i, j, k, value): e_k gains value * e_i (x) e_j."""
        n = space.dim
        cols = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
        for i, j, k, value in entries:
            if not (0 <= i < n and 0 <= j < n and 0 <= k < n):
                raise IndexError(f"comultiplication index out of range: {(i, j, k)}")
            cols[k][i][j] += scalar(value)
        return Comultiplication(
            space, tuple(tuple(tuple(r) for r in col) for col in cols)
        )

    def coeff(self, i: int, j: int, k: int):
        return self.columns[k][i][j]

    @cached_property
    def _hits(self):
        """Each image Delta(e_k) as the sparse hits of a 2-tensor."""
        n = self.space.dim
        return tuple(
            tuple((i * n + j, x) for i, row in enumerate(col) for j, x in enumerate(row) if x)
            for col in self.columns
        )

    def of(self, u: Vector) -> Matrix:
        """Image of a general element as a 2-tensor coefficient matrix."""
        n = self.space.dim
        acc = [[ZERO] * n for _ in range(n)]
        for f, x in _apply(self._hits, [(k, c) for k, c in enumerate(u) if c]):
            acc[f // n][f % n] += x
        return tuple(tuple(r) for r in acc)

    def is_zero(self) -> bool:
        return not any(self._hits)

    def nonzero_entries(self):
        n = self.space.dim
        return [(f // n, f % n, k, x) for k, hits in enumerate(self._hits) for f, x in hits]


@dataclass(frozen=True)
class BialgebraData:
    """Algebra + comultiplications + the coderivation candidate."""

    algebra: RelPoissonAlgebra
    dot_comult: Comultiplication
    bracket_comult: Comultiplication
    dual_derivation: LinearMap

    def __post_init__(self):
        sp = self.algebra.space
        if not (
            self.dot_comult.space == sp
            and self.bracket_comult.space == sp
            and self.dual_derivation.domain == sp
            and self.dual_derivation.codomain == sp
        ):
            raise ValueError("bialgebra components live on different spaces")


# ---------------------------------------------------------------------------
# coalgebra checkers


def check_cocomm_coassoc(
    comult: Comultiplication, limit: int = DEFAULT_VIOLATION_LIMIT
) -> AxiomReport:
    """Cocommutativity (tau after Delta = Delta) and coassociativity."""
    n = comult.space.dim
    ent = comult._hits
    coll = Collector(limit)
    for k in range(n):
        hits = [*ent[k], *_swap(ent[k], n, 1, -1)]
        _check_hits(coll, "cocommutative", (k,), hits, n * n)
    for k in range(n):
        # (id (x) Delta) Delta - (Delta (x) id) Delta
        hits = _on_slot(ent, ent[k], n, 1, width=n * n)
        hits += _on_slot(ent, ent[k], n, n, -1, n * n)
        _check_hits(coll, "coassociative", (k,), hits, n**3)
    return coll.report()


def check_lie_coalgebra(
    comult: Comultiplication, limit: int = DEFAULT_VIOLATION_LIMIT
) -> AxiomReport:
    """Anticocommutativity (tau after delta = -delta) and the co-Jacobi
    identity (id + rotation + rotation^2)(id (x) delta) delta = 0."""
    n, n2 = comult.space.dim, comult.space.dim**2
    ent = comult._hits
    coll = Collector(limit)
    for k in range(n):
        hits = [*ent[k], *_swap(ent[k], n, 1)]
        _check_hits(coll, "anticocommutative", (k,), hits, n2)
    for k in range(n):
        # a term at (i, p, q) of (id (x) delta) delta is summed at (i, p, q),
        # (p, q, i) and (q, i, p)
        cup = _on_slot(ent, ent[k], n, 1, width=n2)
        hits = [(g, w) for f, w in cup for g in (f, f % n2 * n + f // n2, f % n * n2 + f // n)]
        _check_hits(coll, "co-jacobi", (k,), hits, n**3)
    return coll.report()


def check_rel_poisson_coalgebra(
    dot_comult: Comultiplication,
    bracket_comult: Comultiplication,
    codrv: LinearMap,
    limit: int = DEFAULT_VIOLATION_LIMIT,
) -> AxiomReport:
    """Full relative Poisson coalgebra package: cocommutative coassociative
    part, Lie coalgebra part, the two coderivation conditions, and the
    co-Leibniz condition.  Equivalent to the dual-space quadruple being a
    relative Poisson algebra."""
    if dot_comult.space != bracket_comult.space:
        raise ValueError("comultiplications live on different spaces")
    n = dot_comult.space.dim
    if codrv.domain.dim != n or codrv.codomain.dim != n:
        raise ValueError("coderivation does not match the comultiplications")
    n2 = n * n
    q = _sparse_columns(codrv.entries)
    dots, brs = dot_comult._hits, bracket_comult._hits
    coll = Collector(limit)
    coll.merge(check_cocomm_coassoc(dot_comult, limit), "dot:")
    coll.merge(check_lie_coalgebra(bracket_comult, limit), "bracket:")
    for k in range(n):
        for axiom, ent in (("coderivation-dot", dots), ("coderivation-bracket", brs)):
            # Delta(Q e_k) - (Q (x) id) Delta(e_k) - (id (x) Q) Delta(e_k)
            hits = _apply(ent, q[k]) + _on_slot(q, ent[k], n, n, -1)
            hits += _on_slot(q, ent[k], n, 1, -1)
            _check_hits(coll, axiom, (k,), hits, n2)
    for k in range(n):
        # (id (x) Delta) delta - (delta (x) id) Delta
        # - (tau (x) id)(id (x) delta) Delta - (Q (x) id (x) id)(Delta (x) id) Delta
        hits = _on_slot(dots, brs[k], n, 1, width=n2) + _on_slot(brs, dots[k], n, n, -1, n2)
        hits += _swap(_on_slot(brs, dots[k], n, 1, width=n2), n, n, -1)
        hits += _on_slot(q, _on_slot(dots, dots[k], n, n, width=n2), n, n2, -1)
        _check_hits(coll, "co-leibniz", (k,), hits, n**3)
    return coll.report()


# ---------------------------------------------------------------------------
# algebra <-> coalgebra dualization


def comult_to_dual_algebra(comult: Comultiplication) -> BilinearOp:
    """The product on the dual space with structure constants equal to the
    comultiplication coefficients: (e_i* e_j*) on e_k* is coeff(i, j, k)."""
    return BilinearOp.from_entries(comult.space.dual, comult.nonzero_entries())


def _product_comult(op: BilinearOp, primal: Space, sign) -> Comultiplication:
    """The comultiplication on ``primal`` with coefficients sign * op's."""
    if op.space.dim != primal.dim:
        raise ValueError("dimension mismatch")
    entries = [(i, j, k, sign * x) for i, j, k, x in op.nonzero_entries()]
    return Comultiplication.from_entries(primal, entries)


def dual_algebra_to_comult(op: BilinearOp, primal: Space) -> Comultiplication:
    """Inverse transposition: a product on the dual space as a
    comultiplication on the given primal space."""
    return _product_comult(op, primal, 1)


def negated_product_comult(op: BilinearOp, primal: Space) -> Comultiplication:
    """Comultiplication on the dual space induced by a product, with the
    dualization minus sign: <D(a*), x (x) y> = -<a*, x y>."""
    return _product_comult(op, primal, -1)


def dual_rel_poisson_algebra(data: BialgebraData) -> RelPoissonAlgebra:
    """The relative Poisson structure induced on the dual space: products
    dualize the comultiplications, the derivation is the coderivation's
    transpose."""
    dual_space = data.algebra.space.dual
    dot = comult_to_dual_algebra(data.dot_comult)
    bracket = comult_to_dual_algebra(data.bracket_comult)
    der = LinearMap(dual_space, dual_space, mat_transpose(data.dual_derivation.entries))
    return RelPoissonAlgebra(dual_space, dot, bracket, der)


# ---------------------------------------------------------------------------
# bialgebra checker


def check_bialgebra(data: BialgebraData, limit: int = DEFAULT_VIOLATION_LIMIT) -> AxiomReport:
    """All seven condition groups of a relative Poisson bialgebra.

    The dual-representation group is evaluated through both equivalent
    packages (the pointwise form and the triple-product form), so a
    divergence would surface both defects.
    """
    alg = data.algebra
    n, n2 = alg.dim, alg.dim**2
    dot, br = alg.dot._sparse, alg.bracket._sparse
    flipped = _flip(dot, n)
    dcom, bcom = data.dot_comult._hits, data.bracket_comult._hits
    q = data.dual_derivation
    der = _sparse_columns(alg.derivation.entries)
    qcols = _sparse_columns(q.entries)
    pq = _sparse_columns(mat_add(alg.derivation.entries, q.entries))
    coll = Collector(limit)
    coll.merge(check_rel_poisson(alg, limit), "algebra:")
    coll.merge(
        check_rel_poisson_coalgebra(data.dot_comult, data.bracket_comult, q, limit),
        "coalgebra:",
    )
    # the left multiplication L_i and ad_i have dot[i] and br[i] as sparse
    # column tables

    # cocycle condition for the dot comultiplication
    for i in range(n):
        for j in range(n):
            hits = _apply(dcom, dot[i][j]) + _on_slot(dot[i], dcom[j], n, n, -1)
            hits += _on_slot(dot[j], dcom[i], n, 1, -1)
            _check_hits(coll, "dot-cocycle", (i, j), hits, n2)

    # cocycle condition for the bracket comultiplication
    for i in range(n):
        for j in range(n):
            hits = _apply(bcom, br[i][j])
            hits += _on_slot(br[i], bcom[j], n, n, -1) + _on_slot(br[i], bcom[j], n, 1, -1)
            hits += _on_slot(br[j], bcom[i], n, n) + _on_slot(br[j], bcom[i], n, 1)
            _check_hits(coll, "bracket-cocycle", (i, j), hits, n2)

    # the coderivation dually represents the algebra (both packages)
    coll.merge(check_dually_represents(alg, q, limit), "dual:")
    for x in range(n):
        for y in range(n):
            xy = dot[x][y]
            for z in range(n):
                # (D + Q)((x.y).z)
                hits = _apply(pq, _apply(flipped[z], xy))
                _check_hits(coll, "dual-triple-product", (x, y, z), hits, n)

    # the derivation's transpose dually represents the dual algebra
    for k in range(n):
        for axiom, ent in (("comult-intertwine-dot", dcom), ("comult-intertwine-bracket", bcom)):
            # Delta(D e_k) - (D (x) id) Delta(e_k) + (id (x) Q) Delta(e_k)
            hits = _apply(ent, der[k]) + _on_slot(der, ent[k], n, n, -1)
            hits += _on_slot(qcols, ent[k], n, 1)
            _check_hits(coll, axiom, (k,), hits, n2)
    for k in range(n):
        # (Delta (x) id) Delta((D + Q) e_k)
        hits = _on_slot(dcom, _apply(dcom, pq[k]), n, n, width=n2)
        _check_hits(coll, "comult-triple-product", (k,), hits, n**3)

    # the two mixed compatibility conditions
    for i in range(n):
        for j in range(n):
            xy = dot[i][j]
            hits = _apply(bcom, xy) + _on_slot(br[j], dcom[i], n, 1, -1)
            hits += _on_slot(dot[i], bcom[j], n, n, -1) + _on_slot(br[i], dcom[j], n, 1, -1)
            hits += _on_slot(dot[j], bcom[i], n, n, -1)
            hits += _on_slot(qcols, _apply(dcom, xy), n, 1, -1)
            _check_hits(coll, "mixed-dot-bracket", (i, j), hits, n2)

            hits = _apply(dcom, br[i][j]) + _on_slot(dot[j], bcom[i], n, n, -1)
            hits += _on_slot(br[i], dcom[j], n, 1, -1) + _on_slot(dot[j], bcom[i], n, 1)
            hits += _on_slot(br[i], dcom[j], n, n, -1)
            hits += _apply(dcom, _apply(flipped[j], der[i]))  # Delta(D(x).y)
            _check_hits(coll, "mixed-bracket-dot", (i, j), hits, n2)
    return coll.report()


# ---------------------------------------------------------------------------
# constructions


def dualize_bialgebra(data: BialgebraData) -> BialgebraData:
    """The dual bialgebra on A*: products dualize the comultiplications,
    comultiplications dualize the products with minus signs, and the two
    derivations trade places (transposed)."""
    report = check_bialgebra(data)
    if not report.ok:
        raise PreconditionError(
            f"not a relative Poisson bialgebra: {', '.join(report.axioms_failed())}",
            report,
        )
    alg = data.algebra
    dual_alg = dual_rel_poisson_algebra(data)
    dual_space = dual_alg.space
    return BialgebraData(
        algebra=dual_alg,
        dot_comult=negated_product_comult(alg.dot, dual_space),
        bracket_comult=negated_product_comult(alg.bracket, dual_space),
        dual_derivation=LinearMap(
            dual_space, dual_space, mat_transpose(alg.derivation.entries)
        ),
    )


def induced_matched_pair(data: BialgebraData) -> MatchedPairData:
    """The matched-pair data ((A, D), (A*, Q^T), -L*, ad*, -L*, ad*) built
    structurally from a bialgebra candidate (no validity assumption)."""
    alg = data.algebra
    n = alg.dim
    dual_alg = dual_rel_poisson_algebra(data)
    mu1 = tuple(mat_transpose(alg.dot.left_matrix(i)) for i in range(n))
    rho1 = tuple(mat_neg(mat_transpose(alg.bracket.left_matrix(i))) for i in range(n))
    mu2 = tuple(mat_transpose(dual_alg.dot.left_matrix(a)) for a in range(n))
    rho2 = tuple(
        mat_neg(mat_transpose(dual_alg.bracket.left_matrix(a))) for a in range(n)
    )
    return MatchedPairData(
        left=alg,
        right=dual_alg,
        dot_action_on_right=mu1,
        bracket_action_on_right=rho1,
        dot_action_on_left=mu2,
        bracket_action_on_left=rho2,
    )


def bialgebra_to_matched_pair(data: BialgebraData) -> MatchedPairData:
    """Verified version of :func:`induced_matched_pair`."""
    report = check_bialgebra(data)
    if not report.ok:
        raise PreconditionError(
            f"not a relative Poisson bialgebra: {', '.join(report.axioms_failed())}",
            report,
        )
    return induced_matched_pair(data)


__all__ = [
    "Comultiplication",
    "BialgebraData",
    "check_cocomm_coassoc",
    "check_lie_coalgebra",
    "check_rel_poisson_coalgebra",
    "comult_to_dual_algebra",
    "dual_algebra_to_comult",
    "negated_product_comult",
    "dual_rel_poisson_algebra",
    "check_bialgebra",
    "dualize_bialgebra",
    "induced_matched_pair",
    "bialgebra_to_matched_pair",
]
