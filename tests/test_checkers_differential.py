"""The sparse checkers against the dense reference they replaced: full
reports (verdict, violation names, where tuples, defect vectors, order,
truncation) must agree on valid and on invalid data."""

from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import relpoisson as rp
from relpoisson import (
    BialgebraData,
    BilinearForm,
    BilinearOp,
    Comultiplication,
    LinearMap,
    MatchedPairData,
    RelPoissonAlgebra,
    RepData,
    Space,
    adjoint_rep,
    combine_matched_pair,
    dual_rel_poisson_algebra,
    induced_matched_pair,
)
from relpoisson.linalg import mat_neg

import dense_reference as ref

LIMITS = (16, 10**6)

# an all-zero pool yields valid structures; the others mostly not
POOLS = ((0,), (0, 0, 0, 1, -1), (0, 1, -1, 2, -3))


def _outcome(checker, args, limit):
    try:
        return checker(*args, limit=limit)
    except ValueError as exc:  # NoUnitError and other rejected inputs
        return type(exc)


def assert_same(name, *args):
    """The library checker and its dense reference agree at every limit."""
    for limit in LIMITS:
        new = _outcome(getattr(rp, name), args, limit)
        assert new == _outcome(getattr(ref, name), args, limit), name


@st.composite
def cases(draw):
    """Random small-integer structures: an algebra of dim n, a module of dim
    m, actions, comultiplications, maps and a Gram matrix."""

    def mats(count, rows, cols=None):
        entry = st.sampled_from(draw(st.sampled_from(POOLS)))
        cols = rows if cols is None else cols
        return tuple(
            tuple(tuple(draw(entry) for _ in range(cols)) for _ in range(rows))
            for _ in range(count)
        )

    n, m = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    sp = Space.of_dim(n)

    def alg(space=sp):
        k = space.dim
        dot, bracket = BilinearOp(space, mats(k, k)), BilinearOp(space, mats(k, k))
        return RelPoissonAlgebra(space, dot, bracket, LinearMap(space, space, mats(1, k)[0]))

    def endo():
        return LinearMap(sp, sp, mats(1, n)[0])

    a = alg()
    if n and draw(st.booleans()):
        # make e1 a two-sided unit of the dot, so unital checkers run
        table = [list(map(list, plane)) for plane in a.dot.table]
        for k in range(n):
            table[0][k] = table[k][0] = [int(r == k) for r in range(n)]
        a = replace(a, dot=BilinearOp(sp, table))
    rep = RepData(a, Space.of_dim(m, "v"), mats(n, m), mats(n, m), mats(1, m)[0])
    dual = alg(sp.dual)
    if draw(st.booleans()):
        pair = MatchedPairData(a, dual, mats(n, n), mats(n, n), mats(n, n), mats(n, n))
        double = combine_matched_pair(pair)
    else:
        double = alg(Space.of_dim(2 * n, "d"))
    comults = Comultiplication(sp, mats(n, n)), Comultiplication(sp, mats(n, n))
    bialgebra = BialgebraData(a, *comults, endo())
    return {
        "alg": a,
        "endo": endo(),
        "gram": mats(1, n)[0],
        "rep": rep,
        "beta": mats(1, m)[0],
        "dual": dual,
        "double": double,
        "bialgebra": bialgebra,
    }


@settings(max_examples=120, deadline=None)
@given(case=cases())
def test_algebra_checkers_match_reference(case):
    alg = case["alg"]
    assert_same("check_derivation", alg.dot, case["endo"])
    assert_same("check_derivation", alg.bracket, alg.derivation)
    assert_same("check_rel_poisson", alg)
    assert_same("check_invariant_form", alg, BilinearForm(alg.space, case["gram"]))
    assert_same("check_dually_represents", alg, case["endo"])
    assert_same("check_manin_triple", alg, case["dual"], case["double"])


@settings(max_examples=120, deadline=None)
@given(case=cases())
def test_representation_checkers_match_reference(case):
    rep, alg = case["rep"], case["alg"]
    assert_same("check_compatible_structure", rep.compatible_structure())
    assert_same("check_representation", rep)
    assert_same("check_dual_rep_conditions", rep, case["beta"])
    assert_same(
        "check_jacobi_representation",
        alg.dot,
        alg.bracket,
        rep.dot_action,
        rep.bracket_action,
        rep.space,
    )


@settings(max_examples=120, deadline=None)
@given(case=cases())
def test_coalgebra_checkers_match_reference(case):
    data = case["bialgebra"]
    assert_same("check_cocomm_coassoc", data.dot_comult)
    assert_same("check_lie_coalgebra", data.bracket_comult)
    assert_same(
        "check_rel_poisson_coalgebra", data.dot_comult, data.bracket_comult, data.dual_derivation
    )
    assert_same("check_bialgebra", data)


# ---------------------------------------------------------------------------
# the worked 7-dim bialgebra, with one constant bumped at a time


def _bump(value):
    """Add 1 at a fixed position of a matrix, a tuple of matrices or a
    comultiplication."""
    if isinstance(value, Comultiplication):
        return Comultiplication(value.space, _bump(value.columns))
    if isinstance(value, LinearMap):
        return LinearMap(value.domain, value.codomain, _bump(value.entries))
    if isinstance(value[0][0], tuple):
        return (value[0], _bump(value[1])) + tuple(value[2:])
    rows = [list(r) for r in value]
    rows[2][3] += F(1)
    return tuple(map(tuple, rows))


def _with_derivation(alg, der):
    return RelPoissonAlgebra(alg.space, alg.dot, alg.bracket, der)


BIALGEBRA_BUMPS = (None, "dot_comult", "bracket_comult", "dual_derivation", "derivation")


@pytest.mark.parametrize("field", BIALGEBRA_BUMPS)
def test_bialgebra_checkers_match_reference_on_worked(worked_bialgebra, field):
    data = worked_bialgebra
    if field == "derivation":
        alg = data.algebra
        data = replace(data, algebra=_with_derivation(alg, _bump(alg.derivation)))
    elif field is not None:
        data = replace(data, **{field: _bump(getattr(data, field))})
    assert_same("check_bialgebra", data)
    assert_same("check_dually_represents", data.algebra, data.dual_derivation)
    assert_same("check_derivation", data.algebra.dot, data.algebra.derivation)
    assert_same("check_cocomm_coassoc", data.dot_comult)
    assert_same("check_lie_coalgebra", data.bracket_comult)
    assert rp.check_bialgebra(data).ok == (field is None)


REP_BUMPS = (None, "dot_action", "bracket_action", "der_action")


@pytest.mark.parametrize("field", REP_BUMPS)
def test_representation_checkers_match_reference_on_worked(worked_bialgebra, field):
    alg = worked_bialgebra.algebra
    rep = adjoint_rep(alg)
    if field is not None:
        rep = replace(rep, **{field: _bump(getattr(rep, field))})
    assert_same("check_representation", rep)
    assert_same("check_dual_rep_conditions", rep, mat_neg(rep.der_action))
    assert_same(
        "check_jacobi_representation",
        alg.dot,
        alg.bracket,
        rep.dot_action,
        rep.bracket_action,
        rep.space,
    )
    assert rp.check_representation(rep).ok == (field is None)


PAIR_BUMPS = (
    None,
    "dot_action_on_right",
    "bracket_action_on_right",
    "dot_action_on_left",
    "bracket_action_on_left",
    "derivation",
)


@pytest.mark.parametrize("field", PAIR_BUMPS)
def test_manin_triple_matches_reference_on_worked(worked_bialgebra, field):
    alg, dual = worked_bialgebra.algebra, dual_rel_poisson_algebra(worked_bialgebra)
    pair = induced_matched_pair(worked_bialgebra)
    if field not in (None, "derivation"):
        pair = replace(pair, **{field: _bump(getattr(pair, field))})
    double = combine_matched_pair(pair)
    if field == "derivation":
        double = _with_derivation(double, _bump(double.derivation))
    assert_same("check_manin_triple", alg, dual, double)
    assert_same("check_invariant_form", double, rp.canonical_pairing(double.space))
    assert rp.check_manin_triple(alg, dual, double).ok == (field is None)
