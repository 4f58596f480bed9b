"""Comultiplications, coalgebra axioms, and bialgebra conditions."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relpoisson import (
    BialgebraData,
    Comultiplication,
    LinearMap,
    PreconditionError,
    RelPoissonAlgebra,
    Space,
    check_bialgebra,
    check_cocomm_coassoc,
    check_lie_coalgebra,
    check_rel_poisson,
    check_rel_poisson_coalgebra,
    comult_to_dual_algebra,
    dual_algebra_to_comult,
    dual_rel_poisson_algebra,
    dualize_bialgebra,
)
from relpoisson.algebra import BilinearOp
from dense_matrices import mat_transpose

from conftest import rel_poisson_corpus, trivial_bialgebra, worked_subadjacent


def comult(space, entries):
    return Comultiplication.from_entries(space, entries)


@pytest.mark.parametrize("bad", [-1, 3])
@pytest.mark.parametrize("slot", range(3))
def test_from_entries_rejects_out_of_range_index(bad, slot):
    # -1 must not wrap to the last basis element, and n must not reach a
    # bare IndexError from the dense table
    entry = [0, 1, 2, 1]
    entry[slot] = bad
    with pytest.raises(IndexError, match=rf"out of range: .*{bad}"):
        comult(Space.of_dim(3), [tuple(entry)])


def test_from_entries_names_the_indices_in_entry_order():
    # stored as _sparse[k][i], a comultiplication still reports (i, j, k)
    with pytest.raises(IndexError, match=r"out of range: \(0, 1, 5\)"):
        comult(Space.of_dim(3), [(0, 1, 5, 1)])


def test_cocomm_coassoc_on_worked_comult(worked_bialgebra):
    assert check_cocomm_coassoc(worked_bialgebra.dot_comult).ok
    assert check_cocomm_coassoc(Comultiplication.zero(Space.of_dim(3))).ok


def test_cocomm_fails_on_half_of_a_symmetric_pair(worked_bialgebra):
    # keep only the -E3 (x) E4 half of the image of E1
    sp = worked_bialgebra.algebra.space
    half = comult(sp, [(3, 4, 1, -1)])
    report = check_cocomm_coassoc(half)
    assert not report.ok and "cocommutative" in report.axioms_failed()
    assert report.violations[0].where == (1,)


def test_lie_coalgebra_on_worked_comult(worked_bialgebra):
    assert check_lie_coalgebra(worked_bialgebra.bracket_comult).ok
    assert check_lie_coalgebra(Comultiplication.zero(Space.of_dim(2))).ok


def test_lie_coalgebra_fails_on_symmetric_leftover(worked_bialgebra):
    sp = worked_bialgebra.algebra.space
    half = comult(sp, [(4, 5, 6, 1)])
    report = check_lie_coalgebra(half)
    assert not report.ok and "anticocommutative" in report.axioms_failed()


def test_rel_poisson_coalgebra_of_worked_example(worked_bialgebra):
    assert check_rel_poisson_coalgebra(
        worked_bialgebra.dot_comult,
        worked_bialgebra.bracket_comult,
        worked_bialgebra.dual_derivation,
    ).ok


def test_rel_poisson_coalgebra_zero_case():
    sp = Space.of_dim(3)
    any_map = LinearMap(sp, sp, ((1, 2, 0), (0, 1, 0), (0, 0, 5)))
    assert check_rel_poisson_coalgebra(
        Comultiplication.zero(sp), Comultiplication.zero(sp), any_map
    ).ok
    # a coderivation of another dimension is rejected
    for dim in (0, 2):
        small = LinearMap.zero(Space.of_dim(dim))
        with pytest.raises(ValueError):
            check_rel_poisson_coalgebra(Comultiplication.zero(sp), Comultiplication.zero(sp), small)


def test_rel_poisson_coalgebra_rejects_shifted_coderivation(worked_bialgebra):
    shifted = LinearMap(
        worked_bialgebra.algebra.space,
        worked_bialgebra.algebra.space,
        tuple(
            tuple(x + (1 if i == j else 0) for j, x in enumerate(row))
            for i, row in enumerate(worked_bialgebra.dual_derivation.entries)
        ),
    )
    report = check_rel_poisson_coalgebra(
        worked_bialgebra.dot_comult, worked_bialgebra.bracket_comult, shifted
    )
    assert not report.ok
    assert "coderivation-dot" in report.axioms_failed()


def test_comult_to_dual_algebra_worked_values(worked_bialgebra):
    dual_dot = comult_to_dual_algebra(worked_bialgebra.dot_comult)
    # E4*.E4* = -2 E6*, E4*.E5* = -E6*, E3*.E4* = -E1* - E2*
    assert dual_dot.product(4, 4) == tuple(F(-2) if k == 6 else F(0) for k in range(7))
    assert dual_dot.product(4, 5) == tuple(F(-1) if k == 6 else F(0) for k in range(7))
    e3e4 = dual_dot.product(3, 4)
    assert e3e4[1] == -1 and e3e4[2] == -1
    dual_bracket = comult_to_dual_algebra(worked_bialgebra.bracket_comult)
    assert dual_bracket.product(4, 5) == tuple(
        F(-1) if k == 6 else F(0) for k in range(7)
    )
    assert comult_to_dual_algebra(Comultiplication.zero(Space.of_dim(2))).is_zero()


def test_dual_algebra_comult_round_trip(worked_bialgebra):
    com = worked_bialgebra.dot_comult
    back = dual_algebra_to_comult(comult_to_dual_algebra(com), com.space)
    assert back.columns == com.columns


coeff = st.fractions(min_value=-2, max_value=2, max_denominator=2)


@st.composite
def comult_pair(draw, n=2):
    def tens():
        return tuple(
            tuple(tuple(draw(coeff) for _ in range(n)) for _ in range(n))
            for _ in range(n)
        )

    sp = Space.of_dim(n)
    cols_d = tens()
    cols_b = tens()
    q = tuple(tuple(draw(coeff) for _ in range(n)) for _ in range(n))
    return (
        Comultiplication(sp, cols_d),
        Comultiplication(sp, cols_b),
        LinearMap(sp, sp, q),
    )


_FAMILY_DUALITY = {
    "dot:cocommutative": "dot:commutative",
    "dot:coassociative": "dot:associative",
    "bracket:anticocommutative": "bracket:antisymmetric",
    "bracket:co-jacobi": "bracket:jacobi",
    "coderivation-dot": "dot:derivation",
    "coderivation-bracket": "bracket:derivation",
    "co-leibniz": "relative-leibniz",
}


@settings(max_examples=60, deadline=None)
@given(data=comult_pair())
def test_coalgebra_iff_dual_algebra(data):
    # the coalgebra package holds exactly when the dual-space quadruple is
    # a relative Poisson algebra, family by family
    dot_comult, bracket_comult, codrv = data
    lhs = check_rel_poisson_coalgebra(dot_comult, bracket_comult, codrv, limit=3000)
    dual_space = dot_comult.space.dual
    dual = RelPoissonAlgebra(
        dual_space,
        comult_to_dual_algebra(dot_comult),
        comult_to_dual_algebra(bracket_comult),
        LinearMap(dual_space, dual_space, mat_transpose(codrv.entries)),
    )
    rhs = check_rel_poisson(dual, limit=3000)
    assert lhs.ok == rhs.ok
    lhs_failed = set(lhs.axioms_failed())
    rhs_failed = set(rhs.axioms_failed())
    for co_family, family in _FAMILY_DUALITY.items():
        assert (co_family in lhs_failed) == (family in rhs_failed)


def test_check_bialgebra_on_worked_example(worked_bialgebra):
    assert check_bialgebra(worked_bialgebra).ok


@pytest.mark.parametrize("name,alg", rel_poisson_corpus())
def test_trivial_bialgebras_verify(name, alg):
    assert check_bialgebra(trivial_bialgebra(alg)).ok, name


def test_flipping_a_resonant_comult_column_is_inert(worked_bialgebra):
    # flipping the sign of the whole image of E6 commutes with every
    # condition here: E6 is a common eigenvector of both derivations and
    # the support of its image is annihilated by all the actions involved
    cols = list(worked_bialgebra.bracket_comult.columns)
    cols[6] = tuple(tuple(-x for x in row) for row in cols[6])
    flipped = Comultiplication(worked_bialgebra.algebra.space, cols)
    data = BialgebraData(
        worked_bialgebra.algebra,
        worked_bialgebra.dot_comult,
        flipped,
        worked_bialgebra.dual_derivation,
    )
    assert check_bialgebra(data).ok


def test_bialgebra_rejects_nonresonant_comult_edit(worked_bialgebra):
    # adding E1 (x) E2 - E2 (x) E1 to the image of E1 breaks the bracket
    # cocycle condition (the extra term triples under the unit's action)
    cols = [
        [list(row) for row in col] for col in worked_bialgebra.bracket_comult.columns
    ]
    cols[1][1][2] += F(1)
    cols[1][2][1] -= F(1)
    edited = Comultiplication(worked_bialgebra.algebra.space, cols)
    data = BialgebraData(
        worked_bialgebra.algebra,
        worked_bialgebra.dot_comult,
        edited,
        worked_bialgebra.dual_derivation,
    )
    report = check_bialgebra(data, limit=400)
    assert not report.ok
    assert "bracket-cocycle" in report.axioms_failed()


def test_bialgebra_rejects_dropped_comult_term(worked_bialgebra):
    # keeping only the -E4 (x) E5 half of the image of E6 breaks
    # anticocommutativity
    cols = [
        [list(row) for row in col] for col in worked_bialgebra.bracket_comult.columns
    ]
    cols[6][5][4] = F(0)
    edited = Comultiplication(worked_bialgebra.algebra.space, cols)
    data = BialgebraData(
        worked_bialgebra.algebra,
        worked_bialgebra.dot_comult,
        edited,
        worked_bialgebra.dual_derivation,
    )
    report = check_bialgebra(data, limit=400)
    assert not report.ok
    assert any("anticocommutative" in a for a in report.axioms_failed())


def test_dualize_bialgebra_worked_example(worked_bialgebra):
    dual = dualize_bialgebra(worked_bialgebra)
    assert check_bialgebra(dual).ok
    assert dual.algebra.dim == 7
    # dual comultiplications carry the negated products of the original
    alg = worked_bialgebra.algebra
    for i, j, k, v in alg.dot.nonzero_entries():
        assert dual.dot_comult.coeff(i, j, k) == -v
    for i, j, k, v in alg.bracket.nonzero_entries():
        assert dual.bracket_comult.coeff(i, j, k) == -v


def test_dualize_trivial_bialgebra_gives_negated_product_comults():
    alg = worked_subadjacent()
    dual = dualize_bialgebra(trivial_bialgebra(alg))
    assert check_bialgebra(dual).ok
    assert dual.algebra.dot.is_zero() and dual.algebra.bracket.is_zero()
    for i, j, k, v in alg.dot.nonzero_entries():
        assert dual.dot_comult.coeff(i, j, k) == -v


def negate_op(op):
    return BilinearOp(
        op.space, tuple(tuple(tuple(-x for x in vec) for vec in row) for row in op.table)
    )


def transport_along_negated_evaluation(data, primal_space):
    """Carry a bialgebra on A** back to A along minus the canonical
    evaluation map: bilinear structures pick up one net sign, linear maps
    none."""
    alg = data.algebra
    back = RelPoissonAlgebra(
        primal_space,
        BilinearOp(primal_space, negate_op(alg.dot).table),
        BilinearOp(primal_space, negate_op(alg.bracket).table),
        LinearMap(primal_space, primal_space, alg.derivation.entries),
    )
    def negate_cols(com):
        return Comultiplication(
            primal_space,
            tuple(tuple(tuple(-x for x in row) for row in col) for col in com.columns),
        )
    return BialgebraData(
        back,
        negate_cols(data.dot_comult),
        negate_cols(data.bracket_comult),
        LinearMap(primal_space, primal_space, data.dual_derivation.entries),
    )


def test_dualize_twice_is_identity_up_to_double_dual(worked_bialgebra):
    # dualizing twice negates both products and both comultiplications and
    # keeps the derivations; transporting along minus the evaluation map
    # recovers the original coefficientwise
    for data in (worked_bialgebra, trivial_bialgebra(worked_subadjacent())):
        double_dual = dualize_bialgebra(dualize_bialgebra(data))
        assert double_dual.algebra.dot.table == negate_op(data.algebra.dot).table
        assert double_dual.algebra.bracket.table == negate_op(data.algebra.bracket).table
        assert double_dual.algebra.derivation.entries == data.algebra.derivation.entries
        assert double_dual.dual_derivation.entries == data.dual_derivation.entries
        back = transport_along_negated_evaluation(double_dual, data.algebra.space)
        assert back.algebra.dot.table == data.algebra.dot.table
        assert back.algebra.bracket.table == data.algebra.bracket.table
        assert back.dot_comult.columns == data.dot_comult.columns
        assert back.bracket_comult.columns == data.bracket_comult.columns
        assert back.dual_derivation.entries == data.dual_derivation.entries


def test_dualize_rejects_invalid_input(worked_bialgebra):
    bad = BialgebraData(
        worked_bialgebra.algebra,
        worked_bialgebra.dot_comult,
        worked_bialgebra.bracket_comult,
        LinearMap.zero(worked_bialgebra.algebra.space),
    )
    with pytest.raises(PreconditionError):
        dualize_bialgebra(bad)


def test_dual_rel_poisson_algebra_is_verified(worked_bialgebra):
    assert check_rel_poisson(dual_rel_poisson_algebra(worked_bialgebra)).ok
