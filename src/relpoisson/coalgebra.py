"""Comultiplications, relative Poisson coalgebras and bialgebras.

A comultiplication is stored sparse, as the flat hits of each image
Delta(e_k): the coefficient of e_i (x) e_j sits at index i*n + j.  Its
dense view ``columns[k][i][j]``, derived on first read, holds the same
coefficient, so that dualizing a comultiplication into a product on the
dual space is a pure index transposition with no signs.  The dual
comultiplications of an algebra's own products carry the explicit minus
signs of the dualization rules; they are load-bearing and implemented
literally.  Tensor-valued defects are swept in the flat-index convention
of :mod:`relpoisson.algebra`.
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
    _dense,
    _flat,
    _flip,
    _make,
    _on_slot,
    _Stored,
    _swap,
    _transpose,
    check_rel_poisson,
)
from .linalg import ZERO, LinearMap, Matrix, Space, Vector, _columns, dual_map, scalar
from .pairing import MatchedPairData
from .representations import check_dually_represents


@dataclass(frozen=True, init=False, eq=False)
class Comultiplication(_Stored):
    """A linear map A -> A (x) A, stored as ``_hits[k]``, the nonzero
    (i * n + j, value) coefficients of e_i (x) e_j in the image of e_k by
    increasing index.  ``Comultiplication(space, columns)`` takes the dense
    coefficients ``columns[k][i][j]``."""

    space: Space
    columns: tuple = cached_property(
        lambda self: tuple(_dense(h, self.space.dim, self.space.dim) for h in self._hits)
    )
    _stored = ("space", "_hits")

    def __init__(self, space: Space, columns):
        n, error = space.dim, "comultiplication coefficients do not match the dimension"
        if len(columns) != n:
            raise ValueError(error)
        hits = tuple(tuple(sorted(_flat(_columns(col, n, n, error)))) for col in columns)
        self.__dict__.update(space=space, _hits=hits)

    @staticmethod
    def zero(space: Space) -> Comultiplication:
        return Comultiplication.from_entries(space, ())

    @staticmethod
    def from_entries(space: Space, entries) -> Comultiplication:
        """Build from sparse (i, j, k, value): e_k gains value * e_i (x) e_j."""
        n = space.dim
        cells = [{} for _ in range(n)]
        for i, j, k, value in entries:
            if not (0 <= i < n and 0 <= j < n and 0 <= k < n):
                raise IndexError(f"comultiplication index out of range: {(i, j, k)}")
            cell, f = cells[k], i * n + j
            cell[f] = scalar(cell.get(f, ZERO) + scalar(value))
        hits = tuple(tuple(sorted((f, x) for f, x in cell.items() if x)) for cell in cells)
        return _make(Comultiplication, space=space, _hits=hits)

    def coeff(self, i: int, j: int, k: int):
        return self.columns[k][i][j]

    def of(self, u: Vector) -> Matrix:
        """Image of a general element as a 2-tensor coefficient matrix."""
        n = self.space.dim
        return _dense(_apply(self._hits, [(k, c) for k, c in enumerate(u) if c]), n, n)

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
    q = codrv._cols
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
    return RelPoissonAlgebra(dual_space, dot, bracket, dual_map(data.dual_derivation))


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
    der, qcols, pq = alg.derivation._cols, q._cols, alg.derivation.add(q)._cols
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
        dual_derivation=dual_map(alg.derivation),
    )


def induced_matched_pair(data: BialgebraData) -> MatchedPairData:
    """The matched-pair data ((A, D), (A*, Q^T), -L*, ad*, -L*, ad*) built
    structurally from a bialgebra candidate (no validity assumption)."""
    alg = data.algebra
    n = alg.dim
    dual_alg = dual_rel_poisson_algebra(data)
    # the column tables of L(x) and ad(x) are the rows of the sparse
    # products, so each action is a transposed row, negated for ad*
    return _make(
        MatchedPairData,
        left=alg,
        right=dual_alg,
        _mu1=tuple(_transpose(cols, n) for cols in alg.dot._sparse),
        _rho1=tuple(_transpose(cols, n, -1) for cols in alg.bracket._sparse),
        _mu2=tuple(_transpose(cols, n) for cols in dual_alg.dot._sparse),
        _rho2=tuple(_transpose(cols, n, -1) for cols in dual_alg.bracket._sparse),
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
