"""Shared fixture corpus: small exactly-known algebras, their bialgebras,
and deterministic single-constant perturbations."""

from __future__ import annotations

from fractions import Fraction as F
from math import comb
from pathlib import Path

import pytest

from relpoisson import (
    BialgebraData,
    BilinearOp,
    Comultiplication,
    LinearMap,
    RelPoissonAlgebra,
    RelPrePoissonAlgebra,
    Space,
    Tensor2,
    bracket_from_derivation,
    circ_from_derivation,
    frobenius_jacobi_pipeline,
    subadjacent,
)
from relpoisson.algebra import _derived_product
from dense_matrices import mat_neg

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def is_normal(x) -> bool:
    """A scalar in normal form: an int, or a Fraction that is not integral."""
    return type(x) is int or (type(x) is F and x.denominator != 1)


def neg_map(m: LinearMap) -> LinearMap:
    return LinearMap(m.domain, m.codomain, mat_neg(m.entries))


def tensor(space: Space, entries) -> Tensor2:
    n = space.dim
    rows = [[F(0)] * n for _ in range(n)]
    for i, j, v in entries:
        rows[i][j] += F(v)
    return Tensor2(space, space, tuple(tuple(r) for r in rows))


def op(space: Space, entries) -> BilinearOp:
    return BilinearOp.from_entries(space, entries)


def linmap(space: Space, rows) -> LinearMap:
    return LinearMap(space, space, rows)


# ---------------------------------------------------------------------------
# named building blocks


def zinbiel3(a=1, b=1, f=0, g=0):
    """The 3-dim Zinbiel algebra e1*e1 = e1*e2 = e3 with its derivation
    family [[a,0,0],[b,a+b,0],[f,g,2a+b]]."""
    sp = Space.of_dim(3)
    star = op(sp, [(0, 0, 2, 1), (0, 1, 2, 1)])
    der = linmap(sp, ((F(a), 0, 0), (F(b), F(a) + F(b), 0), (F(f), F(g), 2 * F(a) + F(b))))
    return star, der


def zinbiel2():
    """e1*e1 = e2 with derivation diag-style [[1,0],[1,2]]."""
    sp = Space.of_dim(2)
    star = op(sp, [(0, 0, 1, 1)])
    der = linmap(sp, ((1, 0), (1, 2)))
    return star, der


def free_zinbiel(m, lower=False):
    """The truncated free Zinbiel algebra on one generator, x_i * x_j =
    C(i+j-1, i) x_(i+j) for i + j <= m, with D(x_i) = i x_i.  With
    ``lower`` the binomial is C(i+j-1, i-1), which breaks the Zinbiel
    identity.  Every product with i + j <= m is nonzero, so this is far
    denser than the worked input."""
    sp = Space.of_dim(m)
    entries = [
        (i - 1, j - 1, i + j - 1, comb(i + j - 1, i - 1 if lower else i))
        for i in range(1, m + 1)
        for j in range(1, m + 1 - i)
    ]
    der = linmap(sp, [[k + 1 if r == k else 0 for k in range(m)] for r in range(m)])
    return op(sp, entries), der


def free_zinbiel_prepoisson(m, lower=False) -> RelPrePoissonAlgebra:
    """The relative pre-Poisson quadruple of :func:`free_zinbiel`, with
    circ x*D(y) - D(x)*y built without the Zinbiel precondition."""
    star, der = free_zinbiel(m, lower)
    return RelPrePoissonAlgebra(star.space, star, _derived_product(star, der), der)


def prepoisson_from_zinbiel(star, der) -> RelPrePoissonAlgebra:
    return RelPrePoissonAlgebra(
        star.space, star, circ_from_derivation(star, der), der
    )


def worked_prepoisson() -> RelPrePoissonAlgebra:
    return prepoisson_from_zinbiel(*zinbiel3())


def zero_prepoisson(n=1) -> RelPrePoissonAlgebra:
    sp = Space.of_dim(n)
    z = BilinearOp.zero(sp)
    return RelPrePoissonAlgebra(sp, z, z, LinearMap.zero(sp))


def zero_algebra(n) -> RelPoissonAlgebra:
    sp = Space.of_dim(n)
    z = BilinearOp.zero(sp)
    return RelPoissonAlgebra(sp, z, z, LinearMap.zero(sp))


def unital1() -> RelPoissonAlgebra:
    sp = Space.of_dim(1)
    dot = op(sp, [(0, 0, 0, 1)])
    return RelPoissonAlgebra(sp, dot, BilinearOp.zero(sp), LinearMap.zero(sp))


def truncated2(a=1, b=0) -> RelPoissonAlgebra:
    """Square-zero element algebra e1.e1 = e2 with derivation [[a,0],[b,2a]]."""
    sp = Space.of_dim(2)
    dot = op(sp, [(0, 0, 1, 1)])
    der = linmap(sp, ((F(a), 0), (F(b), 2 * F(a))))
    return RelPoissonAlgebra(sp, dot, bracket_from_derivation(dot, der), der)


def unital2(c=1) -> RelPoissonAlgebra:
    """Dual numbers 1, x with x.x = 0 and derivation diag(0, c)."""
    sp = Space.of_dim(2)
    dot = op(sp, [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1)])
    der = linmap(sp, ((0, 0), (0, F(c))))
    return RelPoissonAlgebra(sp, dot, bracket_from_derivation(dot, der), der)


def heisenberg_poisson() -> RelPoissonAlgebra:
    """Nonzero dot and bracket, zero derivation: e1.e2 = [e1,e2] = e3."""
    sp = Space.of_dim(3)
    dot = op(sp, [(0, 1, 2, 1), (1, 0, 2, 1)])
    bracket = op(sp, [(0, 1, 2, 1), (1, 0, 2, -1)])
    return RelPoissonAlgebra(sp, dot, bracket, LinearMap.zero(sp))


def heisenberg_lie(with_derivation=True) -> RelPoissonAlgebra:
    """Trivial dot, Heisenberg bracket, optionally the diag(1,1,2) derivation."""
    sp = Space.of_dim(3)
    bracket = op(sp, [(0, 1, 2, 1), (1, 0, 2, -1)])
    der = linmap(sp, ((1, 0, 0), (0, 1, 0), (0, 0, 2))) if with_derivation else LinearMap.zero(sp)
    return RelPoissonAlgebra(sp, BilinearOp.zero(sp), bracket, der)


def worked_subadjacent() -> RelPoissonAlgebra:
    alg, _rep = subadjacent(worked_prepoisson())
    return alg


def broken_subadjacent() -> RelPoissonAlgebra:
    """The worked sub-adjacent algebra with (0, 1, 2, 1) added to its dot,
    which breaks its commutativity and derivation rule; its adjoint
    representation fails endo-dot."""
    alg = worked_subadjacent()
    dot = op(alg.space, alg.dot.nonzero_entries() + [(0, 1, 2, 1)])
    return RelPoissonAlgebra(alg.space, dot, alg.bracket, alg.derivation)


def rel_poisson_corpus():
    """Verified relative Poisson algebras of dims 1-3 plus friends."""
    star, der = zinbiel3(1, 0)
    variant, _ = subadjacent(prepoisson_from_zinbiel(star, der))
    return [
        ("zero-1", zero_algebra(1)),
        ("zero-2", zero_algebra(2)),
        ("zero-3", zero_algebra(3)),
        ("unital-1", unital1()),
        ("truncated-2", truncated2(1, 0)),
        ("truncated-2b", truncated2(1, 1)),
        ("unital-2", unital2(1)),
        ("unital-2-abelian", unital2(0)),
        ("heisenberg-poisson", heisenberg_poisson()),
        ("heisenberg-lie", heisenberg_lie(True)),
        ("heisenberg-lie-flat", heisenberg_lie(False)),
        ("worked-3", worked_subadjacent()),
        ("worked-3-variant", variant),
    ]


def trivial_bialgebra(alg: RelPoissonAlgebra) -> BialgebraData:
    """Zero comultiplications with the negated derivation; always valid."""
    return BialgebraData(
        alg,
        Comultiplication.zero(alg.space),
        Comultiplication.zero(alg.space),
        neg_map(alg.derivation),
    )


@pytest.fixture(scope="session")
def worked_pipeline():
    """The full pipeline on the worked 3-dim input, computed once."""
    return frobenius_jacobi_pipeline(worked_prepoisson())


@pytest.fixture(scope="session")
def worked_bialgebra(worked_pipeline):
    return worked_pipeline[0]


@pytest.fixture(scope="session")
def worked_double(worked_pipeline):
    return worked_pipeline[1]


@pytest.fixture(scope="session")
def free_zinbiel_pipeline():
    """The full pipeline on the truncated free Zinbiel algebra at m = 6."""
    return frobenius_jacobi_pipeline(free_zinbiel_prepoisson(6))
