"""The output-sensitive triple sweeps, the sparse unit solver and the
sparse-first builders against the dense copies they replaced in
``dense_reference``: full reports (verdict, violation names, where tuples,
defect vectors, order, truncation) must agree at every limit."""

import random
from dataclasses import replace
from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

import relpoisson as rp
from relpoisson import (
    BilinearOp,
    LinearMap,
    MatchedPairData,
    RelPoissonAlgebra,
    Space,
    check_matched_pair,
    find_unit,
)
from relpoisson.algebra import _derived_product, block_sum, bracket_from_derivation
from relpoisson.coalgebra import (
    comult_to_dual_algebra,
    dual_algebra_to_comult,
    negated_product_comult,
)
from relpoisson.prepoisson import circ_from_derivation, subadjacent
from relpoisson.linalg import basis_vector, mat_inverse
from dense_matrices import mat_apply

import dense_reference as ref
from matched_pair_reference import reference_check_matched_pair
from conftest import (
    free_zinbiel,
    free_zinbiel_prepoisson,
    prepoisson_from_zinbiel,
    rel_poisson_corpus,
    zinbiel2,
    zinbiel3,
)
from test_checkers_differential import LIMITS, POOLS, assert_same, cases


def with_unit(op, unit=0):
    """The operation with e_unit made a two-sided unit."""
    n = op.space.dim
    table = [list(map(list, row)) for row in op.table]
    for k in range(n):
        table[unit][k] = table[k][unit] = [int(r == k) for r in range(n)]
    return BilinearOp(op.space, table)


@st.composite
def ops(draw, space):
    n = space.dim
    entry = st.sampled_from(draw(st.sampled_from(POOLS)))
    table = [[[draw(entry) for _ in range(n)] for _ in range(n)] for _ in range(n)]
    op = BilinearOp(space, table)
    if n and draw(st.booleans()):
        op = with_unit(op, draw(st.integers(0, n - 1)))
    return op


@st.composite
def algebras(draw, max_dim=4):
    sp = Space.of_dim(draw(st.integers(0, max_dim)))
    n = sp.dim
    entry = st.sampled_from(draw(st.sampled_from(POOLS)))
    der = LinearMap(sp, sp, [[draw(entry) for _ in range(n)] for _ in range(n)])
    return RelPoissonAlgebra(sp, draw(ops(sp)), draw(ops(sp)), der)


@settings(max_examples=200, deadline=None)
@given(alg=algebras())
def test_triple_sweeps_match_dense_reference(alg):
    assert_same("check_comm_assoc", alg.dot)
    assert_same("check_comm_assoc", alg.bracket)
    assert_same("check_lie", alg.bracket)
    assert_same("check_lie", alg.dot)
    assert_same("check_relative_leibniz", alg.dot, alg.bracket, alg.derivation)
    assert_same("check_jacobi_algebra", alg.dot, alg.bracket)
    assert_same("check_rel_poisson", alg)


def _random_op(rng, n, pool):
    table = [[[rng.choice(pool) for _ in range(n)] for _ in range(n)] for _ in range(n)]
    return BilinearOp(Space.of_dim(n), table)


def test_triple_sweeps_truncate_like_dense_reference():
    rng = random.Random(7)
    dot, bracket = (_random_op(rng, 4, POOLS[2]) for _ in range(2))
    sp = dot.space
    der = LinearMap(sp, sp, [[rng.choice(POOLS[2]) for _ in range(4)] for _ in range(4)])
    unital = with_unit(dot)
    for name, args in (
        ("check_comm_assoc", (dot,)),
        ("check_lie", (bracket,)),
        ("check_relative_leibniz", (dot, bracket, der)),
        ("check_jacobi_algebra", (unital, bracket)),
    ):
        assert_same(name, *args)
        assert getattr(rp, name)(*args).truncated, name
        assert not getattr(rp, name)(*args, limit=10**6).truncated, name


def test_triple_sweeps_match_dense_reference_on_pipeline_doubles(
    worked_double, free_zinbiel_pipeline
):
    # the worked 14-dim double and the denser 26-dim one of the truncated
    # free Zinbiel algebra at m = 6
    for double in (worked_double.algebra, free_zinbiel_pipeline[1].algebra):
        assert_same("check_rel_poisson", double)
        assert_same("check_jacobi_algebra", double.dot, double.bracket)
        entries = double.bracket.nonzero_entries() + [(3, 5, 7, 1)]
        bumped = replace(double, bracket=BilinearOp.from_entries(double.space, entries))
        assert_same("check_rel_poisson", bumped)
        assert_same("check_jacobi_algebra", bumped.dot, bumped.bracket)
        assert not rp.check_rel_poisson(bumped).ok


# ---------------------------------------------------------------------------
# the unit solver


def _change_basis(op, p):
    """The operation transported along the basis change x -> p x:
    x *' y = p^-1 ((p x) * (p y)); its unit is p^-1 of the old one."""
    n = op.space.dim
    q = mat_inverse(p)
    cols = [tuple(row[j] for row in p) for j in range(n)]
    table = [[mat_apply(q, op.apply(cols[i], cols[j])) for j in range(n)] for i in range(n)]
    return BilinearOp(op.space, table)


def _unimodular(rng, n):
    """A random integer matrix of determinant +-1: unit upper triangular
    times a random row permutation."""
    rows = [
        [F(int(i == j)) if j >= i else F(rng.choice((0, 1, -1, 2))) for j in range(n)]
        for i in range(n)
    ]
    shuffled = rng.sample(range(n), n)
    return tuple(tuple(rows[r][c] for c in range(n)) for r in shuffled)


def test_find_unit_matches_dense_solver():
    rng = random.Random(11)
    unital = off_basis = 0
    for trial in range(400):
        n = rng.randint(0, 4)
        op = _random_op(rng, n, POOLS[trial % 3])
        if n and trial % 2:
            op = with_unit(op, rng.randrange(n))
            if trial % 4 == 1:
                op = _change_basis(op, _unimodular(rng, n))
            if trial % 8 == 3:
                i, j, k = (rng.randrange(n) for _ in range(3))
                op = BilinearOp.from_entries(op.space, op.nonzero_entries() + [(i, j, k, 1)])
        unit = find_unit(op)
        assert unit == ref.find_unit(op)
        if unit is not None and n:
            unital += 1
            off_basis += unit not in [basis_vector(n, i) for i in range(n)]
    assert 0 < unital < 400
    assert off_basis > 10


def test_find_unit_on_pipeline_double(worked_double, free_zinbiel_pipeline):
    for double in (worked_double, free_zinbiel_pipeline[1]):
        dot = double.algebra.dot
        assert find_unit(dot) == ref.find_unit(dot) == basis_vector(dot.space.dim, 0)


# ---------------------------------------------------------------------------
# the four matched-pair families, truncating


def test_matched_pair_families_truncate_like_dense_reference():
    rng = random.Random(5)
    n1, n2 = 3, 2

    def mats(count, n):
        return tuple(
            tuple(tuple(rng.choice(POOLS[1]) for _ in range(n)) for _ in range(n))
            for _ in range(count)
        )

    def alg(n):
        sp = Space.of_dim(n)
        zero = BilinearOp.zero(sp)
        return RelPoissonAlgebra(sp, zero, zero, LinearMap(sp, sp, mats(1, n)[0]))

    # zero products make both factors valid, so the violations come from the
    # representation and mixed families
    data = MatchedPairData(alg(n1), alg(n2), mats(n1, n2), mats(n1, n2), mats(n2, n1), mats(n2, n1))
    for limit in LIMITS:
        report = check_matched_pair(data, limit)
        assert report == reference_check_matched_pair(data, limit)
    assert check_matched_pair(data).truncated
    families = {v.axiom.rsplit("-", 1)[0] for v in check_matched_pair(data, 10**6).violations}
    assert {"dot-matched", "bracket-matched", "cross-leibniz", "cross-compatibility"} <= families


# ---------------------------------------------------------------------------
# sparse-first builders


@st.composite
def block_sum_args(draw):
    left, right = draw(algebras(3)), draw(algebras(3))
    n1, n2 = left.dim, right.dim
    entry = st.sampled_from(draw(st.sampled_from(POOLS)))

    def mats(count, n):
        return tuple(
            tuple(tuple(draw(entry) for _ in range(n)) for _ in range(n)) for _ in range(count)
        )

    return left, right, mats(n1, n2), mats(n1, n2), mats(n2, n1), mats(n2, n1)


@settings(max_examples=150, deadline=None)
@given(args=block_sum_args())
def test_block_sum_matches_dense_builder(args):
    new, old = block_sum(*args), ref.block_sum(*args)
    assert new == old
    for op in (new.dot, new.bracket):
        assert op._sparse == ref._sparse_of(op)
    assert find_unit(new.dot) == ref.find_unit(new.dot)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(0, 4),
    raw=st.lists(st.tuples(*[st.integers(0, 3)] * 3, st.sampled_from((0, 1, -1, "1/2", "-1/2")))),
)
def test_from_entries_matches_dense_builder(n, raw):
    sp = Space.of_dim(n)
    entries = [(i, j, k, v) for i, j, k, v in raw if max(i, j, k) < n]
    op, dense = BilinearOp.from_entries(sp, entries), ref.from_entries(sp, entries)
    assert op == dense
    assert op._sparse == ref._sparse_of(op)
    table = dense.table
    nonzero = [
        (i, j, k, x)
        for i, row in enumerate(table)
        for j, vec in enumerate(row)
        for k, x in enumerate(vec)
        if x
    ]
    assert op.nonzero_entries() == nonzero
    assert op.is_zero() == (not nonzero)
    for i in range(n):
        assert op.left_matrix(i) == tuple(
            tuple(table[i][j][k] for j in range(n)) for k in range(n)
        )


def _built(build, *args):
    """A builder's result, or the type and message of its rejection."""
    try:
        return build(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def assert_same_build(build, *args):
    """The library builder and its dense reference give equal results, or
    reject alike; every operation returned has a sparse view that matches
    its table, and every comultiplication entries that match its columns."""
    new, old = _built(build, *args), _built(getattr(ref, build.__name__), *args)
    assert new == old, build.__name__
    if isinstance(new, tuple) and isinstance(new[0], type):
        return
    if build is subadjacent:
        assert new[0].dot.table == old[0].dot.table
        assert new[0].bracket.table == old[0].bracket.table
        built = (new[0].dot, new[0].bracket)
    elif isinstance(new, BilinearOp):
        assert new.table == old.table
        built = (new,)
    else:
        assert new.columns == old.columns
        entries = [
            (i, j, k, x)
            for k, col in enumerate(new.columns)
            for i, row in enumerate(col)
            for j, x in enumerate(row)
            if x
        ]
        assert new.nonzero_entries() == entries
        built = ()
    for op in built:
        assert op._sparse == ref._sparse_of(op)


@settings(max_examples=120, deadline=None)
@given(case=cases())
def test_structure_constant_builders_match_dense_builders(case):
    data = case["bialgebra"]
    alg, space = data.algebra, data.algebra.space
    for comult in (data.dot_comult, data.bracket_comult):
        assert_same_build(comult_to_dual_algebra, comult)
    for op in (alg.dot, alg.bracket, case["dual"].dot):
        assert_same_build(dual_algebra_to_comult, op, space)
        assert_same_build(negated_product_comult, op, space.dual)
        new, old = _derived_product(op, alg.derivation), ref._derived_table(op, alg.derivation)
        assert new == old and new._sparse == ref._sparse_of(old)
    assert_same_build(bracket_from_derivation, alg.dot, alg.derivation)
    assert_same_build(circ_from_derivation, alg.dot, alg.derivation)
    assert_same_build(subadjacent, case["prepoisson"])


def test_structure_constant_builders_match_dense_builders_on_worked(worked_bialgebra):
    for _name, alg in rel_poisson_corpus():
        assert_same_build(bracket_from_derivation, alg.dot, alg.derivation)
    for star, der in (zinbiel2(), zinbiel3(), zinbiel3(1, 0), zinbiel3(2, -1, 3, 1)):
        assert_same_build(circ_from_derivation, star, der)
        assert_same_build(subadjacent, prepoisson_from_zinbiel(star, der))
    # the dense truncated free Zinbiel algebra, and its variant that both
    # builders reject
    for lower in (False, True):
        assert_same_build(circ_from_derivation, *free_zinbiel(6, lower))
        assert_same_build(subadjacent, free_zinbiel_prepoisson(6, lower))
    data = worked_bialgebra
    dual_alg = rp.dual_rel_poisson_algebra(data)
    for comult in (data.dot_comult, data.bracket_comult):
        assert_same_build(comult_to_dual_algebra, comult)
    for op in (dual_alg.dot, dual_alg.bracket):
        assert_same_build(dual_algebra_to_comult, op, data.algebra.space)
    for op in (data.algebra.dot, data.algebra.bracket):
        assert_same_build(negated_product_comult, op, dual_alg.space)
