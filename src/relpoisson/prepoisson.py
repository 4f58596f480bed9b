"""Zinbiel and pre-Lie algebras, relative pre-Poisson algebras, and their
sub-adjacent relative Poisson structure with its tautological O-operator.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (
    DEFAULT_VIOLATION_LIMIT,
    _DERIVATION,
    AxiomReport,
    BilinearOp,
    RelPoissonAlgebra,
    _check,
    _Checker,
    _derived_product,
    _require,
    _require_endomorphism,
    _Use,
)
from .linalg import LinearMap, Space, Tensor2, _add, _permuted, _scaled, _with
from .representations import RepData, _rep
from .yangbaxter import o_operator_to_rmatrix


@dataclass(frozen=True)
class RelPrePoissonAlgebra:
    """Candidate quadruple (space, star, circ, derivation); verified by
    :func:`check_rel_pre_poisson`."""

    space: Space
    star: BilinearOp
    circ: BilinearOp
    derivation: LinearMap

    def __post_init__(self):
        if not (
            self.star.space == self.space
            and self.circ.space == self.space
            and self.derivation.domain == self.space
            and self.derivation.codomain == self.space
        ):
            raise ValueError("algebra components live on different spaces")

    @property
    def dim(self) -> int:
        return self.space.dim


# S is the star product, C the circ product and D the derivation
_ZINBIEL = (("zinbiel", "xyz", "s", "S:yzt,S:xts - S:yxt,S:tzs - S:xyt,S:tzs"),)
_PRELIE = (("pre-lie", "xyz", "s", "C:xyt,C:tzs - C:yzt,C:xts - C:yxt,C:tzs + C:xzt,C:yts"),)
_MIXED = (
    # (x*y + y*x) o z - x*(y o z) - y*(x o z) + (x*y + y*x)*D(z)
    ("mixed-dot-side", "xyz", "s", "S:xyt,C:tzs + S:yxt,C:tzs - C:yzt,S:xts - C:xzt,S:yts"
     " + S:xyt,D:zu,S:tus + S:yxt,D:zu,S:tus"),
    # y o (x*z) - x*(y o z) + (x o y - y o x)*z - (x*D(y) + D(y)*x)*z
    ("mixed-bracket-side", "xyz", "s", "S:xzt,C:yts - C:yzt,S:xts + C:xyt,S:tzs - C:yxt,S:tzs"
     " - D:yu,S:xut,S:tzs - D:yu,S:uxt,S:tzs"),
)
_DERIVATION_OF_ZINBIEL = _Checker(_Use("", _ZINBIEL, S="M"), _DERIVATION)


def check_zinbiel(m: BilinearOp, limit: int = DEFAULT_VIOLATION_LIMIT) -> AxiomReport:
    """x*(y*z) = (y*x)*z + (x*y)*z on basis triples."""
    return _check(_ZINBIEL, limit, S=m)


def check_prelie(m: BilinearOp, limit: int = DEFAULT_VIOLATION_LIMIT) -> AxiomReport:
    """(x o y) o z - x o (y o z) is symmetric in x and y on basis triples."""
    return _check(_PRELIE, limit, C=m)


_REL_PRE_POISSON = _Checker(
    _ZINBIEL,
    _PRELIE,
    _Use("star:", _DERIVATION, M="S"),
    _Use("circ:", _DERIVATION, M="C"),
    _MIXED,
)


def check_rel_pre_poisson(
    pp: RelPrePoissonAlgebra, limit: int = DEFAULT_VIOLATION_LIMIT
) -> AxiomReport:
    """Zinbiel + pre-Lie + derivation of both + the two mixed conditions."""
    return _check(_REL_PRE_POISSON, limit, S=pp.star, C=pp.circ, D=pp.derivation)


def circ_from_derivation(star: BilinearOp, der: LinearMap) -> BilinearOp:
    """The pre-Lie product x o y = x*D(y) - D(x)*y of a Zinbiel algebra
    with derivation; the quadruple is then relative pre-Poisson."""
    _require_endomorphism(star.space, der, "derivation")
    pre = _check(_DERIVATION_OF_ZINBIEL, DEFAULT_VIOLATION_LIMIT, M=star, D=der)
    _require(pre, "input is not a Zinbiel algebra with derivation")
    return _derived_product(star, der)


def subadjacent(pp: RelPrePoissonAlgebra) -> tuple[RelPoissonAlgebra, RepData]:
    """The sub-adjacent relative Poisson algebra (x.y = x*y + y*x,
    [x,y] = x o y - y o x) together with the left-multiplication
    representation for which the identity map is an O-operator."""
    _require(check_rel_pre_poisson(pp), "not a relative pre-Poisson algebra")
    # x*y + y*x and x o y - y o x, each product's table plus its (j, i, k) transpose
    star, circ = pp.star._sparse, pp.circ._sparse
    dot = _with(pp.star, _sparse=_add(star, _permuted(star, (1, 0, 2))))
    bracket = _with(pp.circ, _sparse=_add(circ, _scaled(_permuted(circ, (1, 0, 2)), -1)))
    alg = RelPoissonAlgebra(pp.space, dot, bracket, pp.derivation)
    # a product's table, keyed (i, j, k), is the action family of L
    return alg, _rep(alg, pp.space, star, circ, pp.derivation)


def prepoisson_to_rmatrix(
    pp: RelPrePoissonAlgebra,
) -> tuple[RelPoissonAlgebra, Tensor2]:
    """The canonical antisymmetric YBE solution of a relative pre-Poisson
    algebra: the identity O-operator on the sub-adjacent algebra, embedded
    in the semi-direct double on A + A* with derivation D - D^T."""
    alg, rep = subadjacent(pp)
    codrv = pp.derivation.neg()
    return o_operator_to_rmatrix(rep, codrv, codrv, LinearMap.identity(pp.space))
