"""The sparse checkers against the dense reference they replaced: full
reports (verdict, violation names, where tuples, defect vectors, order,
truncation) must agree on valid and on invalid data."""

import random
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
    RelPrePoissonAlgebra,
    RepData,
    Space,
    Tensor2,
    adjoint_rep,
    circ_from_derivation,
    combine_matched_pair,
    dual_rel_poisson_algebra,
    dual_rep,
    induced_matched_pair,
    lift_o_operator,
    o_operator_to_rmatrix,
    subadjacent,
    tensor_as_map,
)
from dense_matrices import mat_neg

import dense_reference as ref
from conftest import (
    free_zinbiel_prepoisson,
    neg_map,
    rel_poisson_corpus,
    tensor,
    worked_prepoisson,
)
from test_acceptance import coboundary_corpus

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
def rmatrices(draw, space):
    """A random small-integer 2-tensor on a space, antisymmetric half the
    time."""
    n = space.dim
    entry = st.sampled_from(draw(st.sampled_from(POOLS)))
    rows = [[draw(entry) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        rows = [[rows[i][j] - rows[j][i] for j in range(n)] for i in range(n)]
    return Tensor2(space, space, rows)


@st.composite
def cases(draw):
    """Random small-integer structures: an algebra of dim n, a module of dim
    m, actions, comultiplications, maps, a Gram matrix, a 2-tensor, an
    operator from the module into the algebra, and the algebra's two
    products read as a star/circ pair."""

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
        "r": draw(rmatrices(sp)),
        "operator": LinearMap(rep.space, sp, mats(1, n, m)[0]),
        "prepoisson": RelPrePoissonAlgebra(sp, a.dot, a.bracket, a.derivation),
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
    """Add 1 at a fixed position, (2, 3) clamped to the shape, of a matrix,
    a tuple of matrices or a comultiplication."""
    if isinstance(value, Comultiplication):
        return Comultiplication(value.space, _bump(value.columns))
    if isinstance(value, LinearMap):
        return LinearMap(value.domain, value.codomain, _bump(value.entries))
    if isinstance(value[0][0], tuple):
        return (value[0], _bump(value[1])) + tuple(value[2:])
    rows = [list(r) for r in value]
    rows[min(2, len(rows) - 1)][min(3, len(rows[0]) - 1)] += F(1)
    return tuple(map(tuple, rows))


def _with_derivation(alg, der):
    return RelPoissonAlgebra(alg.space, alg.dot, alg.bracket, der)


def with_free_zinbiel(bumps):
    """(pipeline fixture, bump) cases: every bump of the worked pipeline's
    output under its old id, then every bump of the denser truncated free
    Zinbiel pipeline at m = 6."""
    worked = [pytest.param("worked_pipeline", field, id=str(field)) for field in bumps]
    free = [
        pytest.param("free_zinbiel_pipeline", field, id=f"free-zinbiel-6-{field}")
        for field in bumps
    ]
    return worked + free


BIALGEBRA_BUMPS = (None, "dot_comult", "bracket_comult", "dual_derivation", "derivation")


@pytest.mark.parametrize("source, field", with_free_zinbiel(BIALGEBRA_BUMPS))
def test_bialgebra_checkers_match_reference_on_worked(request, source, field):
    data = request.getfixturevalue(source)[0]
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


@pytest.mark.parametrize("source, field", with_free_zinbiel(REP_BUMPS))
def test_representation_checkers_match_reference_on_worked(request, source, field):
    alg = request.getfixturevalue(source)[0].algebra
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


@pytest.mark.parametrize("source, field", with_free_zinbiel(PAIR_BUMPS))
def test_manin_triple_matches_reference_on_worked(request, source, field):
    bialgebra = request.getfixturevalue(source)[0]
    alg, dual = bialgebra.algebra, dual_rel_poisson_algebra(bialgebra)
    pair = induced_matched_pair(bialgebra)
    if field not in (None, "derivation"):
        pair = replace(pair, **{field: _bump(getattr(pair, field))})
    double = combine_matched_pair(pair)
    if field == "derivation":
        double = _with_derivation(double, _bump(double.derivation))
    assert_same("check_manin_triple", alg, dual, double)
    assert_same("check_invariant_form", double, rp.canonical_pairing(double.space))
    assert rp.check_manin_triple(alg, dual, double).ok == (field is None)


# ---------------------------------------------------------------------------
# Yang-Baxter, O-operator and pre-Poisson checkers


def assert_same_yangbaxter(alg, codrv, r):
    """Every Yang-Baxter checker and construction on one (algebra, dual map,
    tensor) agrees with the dense reference."""
    assert_same("check_rpybe", alg, codrv, r)
    assert_same("check_rpybe_via_maps", alg, codrv, r)
    assert_same("check_coboundary_conditions", alg, codrv, r)
    assert rp.aybe_tensor(r, alg.dot) == ref.aybe_tensor(r, alg.dot)
    assert rp.cybe_tensor(r, alg.bracket) == ref.cybe_tensor(r, alg.bracket)
    assert rp.coboundary_comults(alg, r) == ref.coboundary_comults(alg, r)


def assert_same_o_operator(rep, operator, beta, codrv):
    assert_same("check_weak_o_operator", rep.algebra, rep, rep.der_action, operator)
    assert_same("check_semidirect_dual_conditions", rep, beta, codrv)


@settings(max_examples=120, deadline=None)
@given(case=cases())
def test_yangbaxter_checkers_match_reference(case):
    assert_same_yangbaxter(case["alg"], case["endo"], case["r"])
    assert_same_o_operator(case["rep"], case["operator"], case["beta"], case["endo"])


CORPUS = [alg for _name, alg in rel_poisson_corpus()]


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_yangbaxter_checkers_match_reference_on_corpus(data):
    # verified algebras with the negated derivation as the dual map, so that
    # the coboundary sweep gets past its precondition
    alg = data.draw(st.sampled_from(CORPUS))
    assert_same_yangbaxter(alg, neg_map(alg.derivation), data.draw(rmatrices(alg.space)))


def seeded_yangbaxter_cases(seed=3, per_algebra=6):
    """Nonzero 2-tensors against the verified corpus algebras, with the
    negated derivation as the dual map.  Entries come from pools with few or
    no zeros, and two of every three tensors are made antisymmetric, so the
    Yang-Baxter checkers see both solutions and failures."""
    rng = random.Random(seed)
    pools = ((0, 1, -1), (1, -1, 2, -2, F(1, 2)))
    for alg in CORPUS:
        n = alg.dim
        for t in range(per_algebra):
            rows = [[F(rng.choice(pools[t % 2])) for _ in range(n)] for _ in range(n)]
            if t % 3 != 2:
                rows = [[rows[i][j] - rows[j][i] for j in range(n)] for i in range(n)]
            yield alg, neg_map(alg.derivation), Tensor2(alg.space, alg.space, rows)


YBE_CHECKERS = ("check_rpybe", "check_rpybe_via_maps", "check_coboundary_conditions")


def test_yangbaxter_checkers_pass_and_fail_on_seeded_tensors():
    seen = {name: set() for name in YBE_CHECKERS}
    for alg, codrv, r in seeded_yangbaxter_cases():
        assert_same_yangbaxter(alg, codrv, r)
        for name in YBE_CHECKERS:
            outcome = _outcome(getattr(rp, name), (alg, codrv, r), 16)
            seen[name].add(getattr(outcome, "ok", outcome))
    for name, outcomes in seen.items():
        assert {True, False} <= outcomes, name


@settings(max_examples=120, deadline=None)
@given(case=cases())
def test_prepoisson_checkers_match_reference(case):
    pp = case["prepoisson"]
    assert_same("check_zinbiel", pp.star)
    assert_same("check_prelie", pp.circ)
    assert_same("check_rel_pre_poisson", pp)


def test_yangbaxter_checkers_match_reference_on_criterion_3(worked_bialgebra):
    for alg, codrv, r in coboundary_corpus(worked_bialgebra):
        assert_same_yangbaxter(alg, codrv, r)


YBE_BUMPS = (
    None,
    "r",
    "r-antisymmetric",
    "codrv",
    "derivation",
    "dot_action",
    "bracket_action",
    "der_action",
)


@pytest.mark.parametrize("field", YBE_BUMPS)
def test_yangbaxter_checkers_match_reference_on_worked(worked_bialgebra, field):
    # the pipeline's solution r = sum e_i (x) e_i* - e_i* (x) e_i, and r as
    # an O-operator of the coadjoint representation
    alg, codrv = worked_bialgebra.algebra, worked_bialgebra.dual_derivation
    half = [(i, i + 3, 1) for i in range(1, 4)]
    r = tensor(alg.space, half + [(j, i, -v) for i, j, v in half])
    if field == "r":
        r = tensor(alg.space, half + [(j, i, -v) for i, j, v in half] + [(2, 3, 1)])
    elif field == "r-antisymmetric":
        r = tensor(alg.space, half + [(j, i, -v) for i, j, v in half] + [(2, 3, 1), (3, 2, -1)])
    elif field == "codrv":
        codrv = _bump(codrv)
    elif field == "derivation":
        alg = _with_derivation(alg, _bump(alg.derivation))
    coadjoint = dual_rep(adjoint_rep(alg), codrv)
    if field in ("dot_action", "bracket_action", "der_action"):
        coadjoint = replace(coadjoint, **{field: _bump(getattr(coadjoint, field))})
    assert_same_yangbaxter(alg, codrv, r)
    assert_same_o_operator(coadjoint, tensor_as_map(r), mat_neg(codrv.entries), codrv)
    # bumping a coadjoint action leaves the algebra, codrv and r as they were
    assert rp.check_rpybe(alg, codrv, r).ok == (field in REP_BUMPS)


def _pipeline_o_operator(pp):
    """The pipeline's lifted identity O-operator on the unit extension of
    the sub-adjacent algebra, with its beta and dual map."""
    _alg, rep = subadjacent(pp)
    lift = lift_o_operator(rep, LinearMap.identity(rep.space))
    ext = lift.rep
    return ext, lift.operator, mat_neg(ext.der_action), ext.algebra.derivation.neg()


O_BUMPS = (None, "dot_action", "bracket_action", "der_action", "operator", "beta", "codrv")


@pytest.mark.parametrize("field", O_BUMPS)
def test_o_operator_checkers_match_reference_on_worked(field):
    rep, operator, beta, codrv = _pipeline_o_operator(worked_prepoisson())
    if field in REP_BUMPS[1:]:
        rep = replace(rep, **{field: _bump(getattr(rep, field))})
    elif field == "operator":
        operator = _bump(operator)
    elif field == "beta":
        beta = _bump(beta)
    elif field == "codrv":
        codrv = _bump(codrv)
    assert_same_o_operator(rep, operator, beta, codrv)
    report = rp.check_weak_o_operator(rep.algebra, rep, rep.der_action, operator)
    dual = rp.check_semidirect_dual_conditions(rep, beta, codrv)
    assert (report.ok and dual.ok) == (field is None)


def padded_prepoisson(n):
    """The worked Zinbiel algebra e1*e1 = e1*e2 = e3, D(e1) = e1+e2,
    D(e2) = 2e2, D(e3) = 3e3, padded to dim n by basis vectors that
    multiply to zero and on which D is diagonal."""
    sp = Space.of_dim(n)
    star = BilinearOp.from_entries(sp, [(0, 0, 2, 1), (0, 1, 2, 1)])
    rows = [[0] * n for _ in range(n)]
    rows[0][0] = rows[1][0] = 1
    rows[1][1], rows[2][2] = 2, 3
    for k in range(3, n):
        rows[k][k] = k - 2
    der = LinearMap(sp, sp, rows)
    return RelPrePoissonAlgebra(sp, star, circ_from_derivation(star, der), der)


def test_checkers_match_reference_on_pipeline_semidirect():
    # the dim-13 semi-direct algebra the pipeline builds from padded dim 6
    pp = padded_prepoisson(6)
    rep, operator, beta, codrv = _pipeline_o_operator(pp)
    semidirect, r = o_operator_to_rmatrix(rep, beta, codrv, operator)
    assert semidirect.dim == 13
    assert_same("check_rel_pre_poisson", pp)
    assert_same_o_operator(rep, operator, beta, codrv)
    assert_same_yangbaxter(semidirect, semidirect.derivation.neg(), r)
    assert rp.check_coboundary_conditions(semidirect, semidirect.derivation.neg(), r).ok


PP_BUMPS = (None, "star", "circ", "derivation")
PP_CASES = (
    [pytest.param(worked_prepoisson, field, id=str(field)) for field in PP_BUMPS]
    + [
        pytest.param(lambda: free_zinbiel_prepoisson(6), field, id=f"free-zinbiel-6-{field}")
        for field in PP_BUMPS
    ]
    # the binomial C(i+j-1, i-1) breaks the Zinbiel identity
    + [pytest.param(lambda: free_zinbiel_prepoisson(6, lower=True), "broken", id="free-zinbiel-6-lower")]
)


@pytest.mark.parametrize("source, field", PP_CASES)
def test_prepoisson_checkers_match_reference_on_worked(source, field):
    pp = source()
    if field in ("star", "circ"):
        op = getattr(pp, field)
        pp = replace(pp, **{field: BilinearOp(op.space, _bump(op.table))})
    elif field == "derivation":
        pp = replace(pp, derivation=_bump(pp.derivation))
    assert_same("check_zinbiel", pp.star)
    assert_same("check_prelie", pp.circ)
    assert_same("check_rel_pre_poisson", pp)
    assert rp.check_rel_pre_poisson(pp).ok == (field is None)
    assert field != "broken" or not rp.check_zinbiel(pp.star).ok
