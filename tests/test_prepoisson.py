"""Zinbiel, pre-Lie, relative pre-Poisson structures and their doubles."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relpoisson import (
    BilinearOp,
    LinearMap,
    PreconditionError,
    RelPrePoissonAlgebra,
    Space,
    bracket_from_derivation,
    check_bialgebra,
    check_derivation,
    check_prelie,
    check_rel_poisson,
    check_rel_pre_poisson,
    check_representation,
    check_rpybe,
    check_zinbiel,
    circ_from_derivation,
    coboundary_comults,
    combine_reports,
    find_unit,
    is_antisymmetric,
    prepoisson_to_rmatrix,
    subadjacent,
)
from relpoisson.coalgebra import BialgebraData

from conftest import (
    linmap,
    neg_map,
    op,
    prepoisson_from_zinbiel,
    worked_prepoisson,
    zero_prepoisson,
    zinbiel2,
    zinbiel3,
)


def test_check_zinbiel_cases():
    star, _ = zinbiel3()
    assert check_zinbiel(star).ok
    assert check_zinbiel(BilinearOp.zero(Space.of_dim(2))).ok
    # adding e2 * e1 = e3 must be re-verified: it happens to stay Zinbiel
    sp = Space.of_dim(3)
    extended = op(sp, [(0, 0, 2, 1), (0, 1, 2, 1), (1, 0, 2, 1)])
    assert check_zinbiel(extended).ok
    # a product violating the identity is rejected
    bad = op(sp, [(0, 0, 1, 1), (1, 1, 2, 1), (0, 1, 2, 1)])
    report = check_zinbiel(bad)
    assert not report.ok and report.axioms_failed() == ("zinbiel",)


def test_check_prelie_cases():
    _, der = zinbiel3()
    star, _ = zinbiel3()
    circ = circ_from_derivation(star, der)
    assert check_prelie(circ).ok
    assert check_prelie(BilinearOp.zero(Space.of_dim(2))).ok
    # any associative multiplication is pre-Lie
    sp = Space.of_dim(2)
    assoc = op(sp, [(0, 0, 1, 1)])
    assert check_prelie(assoc).ok
    bad = op(sp, [(0, 1, 0, 1)])  # e1 o e2 = e1, rest zero
    assert not check_prelie(bad).ok


def test_check_rel_pre_poisson_worked_example():
    assert check_rel_pre_poisson(worked_prepoisson()).ok
    assert check_rel_pre_poisson(zero_prepoisson(2)).ok


def test_pre_poisson_without_derivation_is_relative():
    # P = 0 with compatible products satisfies all conditions
    sp = Space.of_dim(2)
    star = op(sp, [(0, 0, 1, 1)])
    pp = RelPrePoissonAlgebra(
        sp, star, BilinearOp.zero(sp), LinearMap.zero(sp)
    )
    assert check_rel_pre_poisson(pp).ok


def test_rel_pre_poisson_rejects_wrong_derivation_weight():
    star, _ = zinbiel3()
    bad_der = linmap(star.space, ((1, 0, 0), (1, 2, 0), (0, 0, 4)))
    pp = RelPrePoissonAlgebra(
        star.space, star, circ_from_derivation(star, linmap(star.space, ((1, 0, 0), (1, 2, 0), (0, 0, 3)))), bad_der
    )
    report = check_rel_pre_poisson(pp)
    assert not report.ok
    assert any(a.startswith("star:") for a in report.axioms_failed())


def test_circ_from_derivation_worked_values():
    star, der = zinbiel3()
    circ = circ_from_derivation(star, der)
    e3 = (F(0), F(0), F(1))
    assert circ.product(0, 0) == e3  # e1 o e1 = e3
    assert circ.product(0, 1) == e3  # e1 o e2 = e3
    assert circ.product(1, 0) == (F(0), F(0), F(0))
    assert circ_from_derivation(star, LinearMap.zero(star.space)).is_zero()
    assert circ_from_derivation(BilinearOp.zero(star.space), der).is_zero()


def test_circ_from_derivation_rejects_non_zinbiel():
    sp = Space.of_dim(2)
    not_zinbiel = op(sp, [(0, 0, 1, 1), (1, 0, 0, 1)])
    assert not check_zinbiel(not_zinbiel).ok
    # the identity is no derivation of a nonzero product either
    for der in (LinearMap.zero(sp), LinearMap.identity(sp)):
        with pytest.raises(PreconditionError) as failed:
            circ_from_derivation(not_zinbiel, der)
        # swept in one contraction, reported as the two checkers merged
        assert failed.value.report == combine_reports(check_zinbiel(not_zinbiel), check_derivation(not_zinbiel, der))


derivation_params = st.tuples(
    st.fractions(min_value=-2, max_value=2, max_denominator=2),
    st.fractions(min_value=-2, max_value=2, max_denominator=2),
    st.fractions(min_value=-1, max_value=1, max_denominator=2),
    st.fractions(min_value=-1, max_value=1, max_denominator=2),
)


@settings(max_examples=50, deadline=None)
@given(params=derivation_params)
def test_zinbiel_with_derivation_always_gives_pre_poisson(params):
    a, b, f, g = params
    star, der = zinbiel3(a, b, f, g)
    assert check_zinbiel(star).ok
    circ = circ_from_derivation(star, der)
    assert check_prelie(circ).ok
    pp = RelPrePoissonAlgebra(star.space, star, circ, der)
    assert check_rel_pre_poisson(pp).ok


@settings(max_examples=50, deadline=None)
@given(params=derivation_params)
def test_two_derivation_constructions_are_compatible(params):
    # the sub-adjacent bracket of (star, circ-from-derivation, D) equals
    # the bracket the commutative product derives: both are x.D(y) - D(x).y
    a, b, f, g = params
    star, der = zinbiel3(a, b, f, g)
    pp = prepoisson_from_zinbiel(star, der)
    alg, _rep = subadjacent(pp)
    assert alg.bracket.table == bracket_from_derivation(alg.dot, der).table


def test_subadjacent_worked_values():
    alg, rep = subadjacent(worked_prepoisson())
    assert alg.dot.product(0, 0) == (F(0), F(0), F(2))
    assert alg.dot.product(0, 1) == (F(0), F(0), F(1))
    assert alg.bracket.product(0, 1) == (F(0), F(0), F(1))
    assert check_rel_poisson(alg).ok
    assert check_representation(rep).ok


def test_subadjacent_degenerate_cases():
    alg, _ = subadjacent(zero_prepoisson(2))
    assert alg.dot.is_zero() and alg.bracket.is_zero()
    # P = 0 pre-Poisson becomes an honest Poisson algebra
    sp = Space.of_dim(2)
    star = op(sp, [(0, 0, 1, 1)])
    pp = RelPrePoissonAlgebra(sp, star, BilinearOp.zero(sp), LinearMap.zero(sp))
    alg, _ = subadjacent(pp)
    assert alg.derivation.is_zero() and check_rel_poisson(alg).ok


def test_subadjacent_rejects_invalid_input():
    star, _ = zinbiel3()
    bad = RelPrePoissonAlgebra(
        star.space, star, BilinearOp.zero(star.space), linmap(star.space, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    )
    with pytest.raises(PreconditionError):
        subadjacent(bad)


@pytest.mark.parametrize(
    "pp",
    [worked_prepoisson(), prepoisson_from_zinbiel(*zinbiel2()), zero_prepoisson(1), zero_prepoisson(3)],
)
def test_subadjacent_dot_is_never_unital(pp):
    alg, _ = subadjacent(pp)
    assert find_unit(alg.dot) is None


@pytest.mark.parametrize(
    "pp",
    [worked_prepoisson(), prepoisson_from_zinbiel(*zinbiel2()), zero_prepoisson(1)],
)
def test_prepoisson_to_rmatrix(pp):
    semidirect, r = prepoisson_to_rmatrix(pp)
    n = pp.dim
    assert semidirect.dim == 2 * n
    assert is_antisymmetric(r)
    for i in range(n):
        assert r.coeffs[i][n + i] == 1 and r.coeffs[n + i][i] == -1
    assert check_rel_poisson(semidirect).ok
    codrv = neg_map(semidirect.derivation)
    assert check_rpybe(semidirect, codrv, r).ok
    dot_comult, bracket_comult = coboundary_comults(semidirect, r)
    assert check_bialgebra(
        BialgebraData(semidirect, dot_comult, bracket_comult, codrv)
    ).ok
