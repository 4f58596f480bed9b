"""Comultiplications, relative Poisson coalgebras and bialgebras.

A comultiplication is a rank-3 table like a product, stored by the same
code in its own index order: an entry ((k, i, j), value) is the nonzero
coefficient of e_i (x) e_j in the image Delta(e_k).  Its dense
view ``columns[k][i][j]``, derived on first read, holds the same
coefficient, so that dualizing a comultiplication into a product on the
dual space is a pure index transposition with no signs.  The dual
comultiplications of an algebra's own products carry the explicit minus
signs of the dualization rules; they are load-bearing and implemented
literally.  Every condition family is a term spec, and each checker is a
:class:`relpoisson.algebra._Checker` of them, contracted in one call,
which reads a comultiplication's stored table as the labelled entries
"kij".
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .algebra import (
    DEFAULT_VIOLATION_LIMIT,
    _REL_POISSON,
    AxiomReport,
    BilinearOp,
    RelPoissonAlgebra,
    _check,
    _Checker,
    _Rank3,
    _require,
    _Use,
)
from .linalg import LinearMap, Matrix, Space, Vector, _act, _make, _permuted, _scaled, _view, dual_map
from .pairing import MatchedPairData
from .representations import _DUALLY_REPRESENTS


@dataclass(frozen=True, init=False, eq=False, repr=False)
class Comultiplication(_Rank3):
    """A linear map A -> A (x) A, stored as the table ``_sparse`` of the
    nonzero coefficients of e_i (x) e_j in the image of e_k, keyed
    (k, i, j).  ``Comultiplication(space, columns)`` takes the dense
    coefficients ``columns[k][i][j]``, and an entry (i, j, k, value) gives
    e_k value * e_i (x) e_j."""

    space: Space
    columns: tuple = cached_property(lambda self: _view(self._sparse))
    _axes = "kij"

    def coeff(self, i: int, j: int, k: int):
        return self.columns[k][i][j]

    def of(self, u: Vector) -> Matrix:
        """Image of a general element as a 2-tensor coefficient matrix."""
        return _view(_act(self._sparse, u))


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


# C is a comultiplication, CM and CB those of the dot and the bracket, Q the
# coderivation; a defect "abc" is the coefficient of e_a (x) e_b (x) e_c
_COCOMMUTATIVE = (("cocommutative", "k", "ab", "C:kab - C:kba"),)
# (id (x) Delta) Delta - (Delta (x) id) Delta
_COASSOCIATIVE = (("coassociative", "k", "abc", "C:kat,C:tbc - C:ktc,C:tab"),)
_ANTICOCOMMUTATIVE = (("anticocommutative", "k", "ab", "C:kab + C:kba"),)
# (id + rotation + rotation^2)(id (x) delta) delta
_CO_JACOBI = (("co-jacobi", "k", "abc", "C:kat,C:tbc + C:kct,C:tab + C:kbt,C:tca"),)
# Delta(Q e_k) - (Q (x) id) Delta(e_k) - (id (x) Q) Delta(e_k)
_CODERIVATION = (
    ("coderivation-dot", "k", "ab", "Q:kt,CM:tab - CM:ktb,Q:ta - CM:kat,Q:tb"),
    ("coderivation-bracket", "k", "ab", "Q:kt,CB:tab - CB:ktb,Q:ta - CB:kat,Q:tb"),
)
# (id (x) Delta) delta - (delta (x) id) Delta
# - (tau (x) id)(id (x) delta) Delta - (Q (x) id (x) id)(Delta (x) id) Delta
_CO_LEIBNIZ = (
    ("co-leibniz", "k", "abc", "CB:kat,CM:tbc - CM:ktc,CB:tab - CM:kbt,CB:tac - CM:ktc,CM:tub,Q:ua"),
)


_COCOMM_COASSOC = _Checker(_COCOMMUTATIVE, _COASSOCIATIVE)
_LIE_COALGEBRA = _Checker(_ANTICOCOMMUTATIVE, _CO_JACOBI)


def check_cocomm_coassoc(
    comult: Comultiplication, limit: int = DEFAULT_VIOLATION_LIMIT
) -> AxiomReport:
    """Cocommutativity (tau after Delta = Delta) and coassociativity."""
    return _check(_COCOMM_COASSOC, limit, C=comult)


def check_lie_coalgebra(
    comult: Comultiplication, limit: int = DEFAULT_VIOLATION_LIMIT
) -> AxiomReport:
    """Anticocommutativity (tau after delta = -delta) and the co-Jacobi
    identity (id + rotation + rotation^2)(id (x) delta) delta = 0."""
    return _check(_LIE_COALGEBRA, limit, C=comult)


_REL_POISSON_COALGEBRA = _Checker(
    _Use("dot:", _COCOMM_COASSOC, C="CM"),
    _Use("bracket:", _LIE_COALGEBRA, C="CB"),
    _CODERIVATION,
    _CO_LEIBNIZ,
)


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
    return _check(_REL_POISSON_COALGEBRA, limit, CM=dot_comult, CB=bracket_comult, Q=codrv)


# ---------------------------------------------------------------------------
# algebra <-> coalgebra dualization


def comult_to_dual_algebra(comult: Comultiplication) -> BilinearOp:
    """The product on the dual space with structure constants equal to the
    comultiplication coefficients: (e_i* e_j*) on e_k* is coeff(i, j, k)."""
    return _make(BilinearOp, space=comult.space.dual, _sparse=_permuted(comult._sparse, (1, 2, 0)))


def _product_comult(op: BilinearOp, primal: Space, sign) -> Comultiplication:
    """The comultiplication on ``primal`` with coefficients sign * op's."""
    if op.space.dim != primal.dim:
        raise ValueError("dimension mismatch")
    return _make(Comultiplication, space=primal, _sparse=_scaled(_permuted(op._sparse, (2, 0, 1)), sign))


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


# M is the dot, B the bracket, D the derivation, Q the dual derivation and
# CM, CB the comultiplications Delta of the dot and delta of the bracket
_DOT_COCYCLE = (("dot-cocycle", "ij", "ab", "M:ijt,CM:tab - CM:jtb,M:ita - CM:iat,M:jtb"),)
_BRACKET_COCYCLE = (
    ("bracket-cocycle", "ij", "ab", "B:ijt,CB:tab - CB:jtb,B:ita - CB:jat,B:itb"
     " + CB:itb,B:jta + CB:iat,B:jtb"),
)
# (D + Q)((x.y).z)
_DUAL_TRIPLE = (("dual-triple-product", "xyz", "s", "M:xyt,M:tzu,D:us + M:xyt,M:tzu,Q:us"),)
_COMULT_INTERTWINE = (
    # Delta(D e_k) - (D (x) id) Delta(e_k) + (id (x) Q) Delta(e_k)
    ("comult-intertwine-dot", "k", "ab", "D:kt,CM:tab - CM:ktb,D:ta + CM:kat,Q:tb"),
    ("comult-intertwine-bracket", "k", "ab", "D:kt,CB:tab - CB:ktb,D:ta + CB:kat,Q:tb"),
)
# (Delta (x) id) Delta((D + Q) e_k)
_COMULT_TRIPLE = (("comult-triple-product", "k", "abc", "D:kt,CM:tuc,CM:uab + Q:kt,CM:tuc,CM:uab"),)
# the two mixed compatibility conditions
_MIXED = (
    ("mixed-dot-bracket", "ij", "ab", "M:ijt,CB:tab - CM:iat,B:jtb - CB:jtb,M:ita"
     " - CM:jat,B:itb - CB:itb,M:jta - M:ijt,CM:tau,Q:ub"),
    ("mixed-bracket-dot", "ij", "ab", "B:ijt,CM:tab - CB:itb,M:jta - CM:jat,B:itb"
     " + CB:iat,M:jtb - CM:jtb,B:ita + D:iu,M:ujt,CM:tab"),
)


_BIALGEBRA = _Checker(
    _Use("algebra:", _REL_POISSON),
    _Use("coalgebra:", _REL_POISSON_COALGEBRA),
    _DOT_COCYCLE,
    _BRACKET_COCYCLE,
    # the coderivation dually represents the algebra (both packages)
    _Use("dual:", _DUALLY_REPRESENTS),
    _DUAL_TRIPLE,
    # the derivation's transpose dually represents the dual algebra
    _COMULT_INTERTWINE,
    _COMULT_TRIPLE,
    _MIXED,
)


def check_bialgebra(data: BialgebraData, limit: int = DEFAULT_VIOLATION_LIMIT) -> AxiomReport:
    """All seven condition groups of a relative Poisson bialgebra.

    The dual-representation group is evaluated through both equivalent
    packages (the pointwise form and the triple-product form), so a
    divergence would surface both defects.
    """
    alg = data.algebra
    tables = dict(M=alg.dot, B=alg.bracket, D=alg.derivation, Q=data.dual_derivation)
    return _check(_BIALGEBRA, limit, CM=data.dot_comult, CB=data.bracket_comult, **tables)


# ---------------------------------------------------------------------------
# constructions


def dualize_bialgebra(data: BialgebraData) -> BialgebraData:
    """The dual bialgebra on A*: products dualize the comultiplications,
    comultiplications dualize the products with minus signs, and the two
    derivations trade places (transposed)."""
    _require(check_bialgebra(data), "not a relative Poisson bialgebra")
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
    dual_alg = dual_rel_poisson_algebra(data)
    # a product (x, j, k) is the action family of L(x), so L* transposes
    # each matrix of the family, and ad* negates the transpose too
    ops = (alg.dot, alg.bracket, dual_alg.dot, dual_alg.bracket)
    mu1, rho1, mu2, rho2 = (_permuted(op._sparse, (0, 2, 1)) for op in ops)
    return _make(
        MatchedPairData,
        left=alg,
        right=dual_alg,
        _mu1=mu1,
        _rho1=_scaled(rho1, -1),
        _mu2=mu2,
        _rho2=_scaled(rho2, -1),
    )


def bialgebra_to_matched_pair(data: BialgebraData) -> MatchedPairData:
    """Verified version of :func:`induced_matched_pair`."""
    _require(check_bialgebra(data), "not a relative Poisson bialgebra")
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
