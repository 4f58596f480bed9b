"""Representations, dual representations, and semi-direct products."""

from fractions import Fraction as F

import pytest

from relpoisson import (
    BilinearOp,
    LinearMap,
    NoUnitError,
    PreconditionError,
    RelPoissonAlgebra,
    RepData,
    Space,
    adjoint_rep,
    check_dual_rep_conditions,
    check_dually_represents,
    check_jacobi_representation,
    check_rel_poisson,
    check_rep_equivalence,
    check_representation,
    dual_rep,
    semidirect_product,
    semidirect_structure,
)
from dense_matrices import (
    identity_matrix,
    mat_add,
    mat_combination,
    mat_mul,
    mat_neg,
    mat_sub,
    mat_transpose,
    zero_matrix,
)

from conftest import (
    heisenberg_poisson,
    neg_map,
    rel_poisson_corpus,
    unital1,
    unital2,
    worked_subadjacent,
    zero_algebra,
)


def rep_instances():
    """Adjoint representations across the corpus, plus duals."""
    out = []
    for name, alg in rel_poisson_corpus():
        rep = adjoint_rep(alg)
        out.append((f"adjoint:{name}", rep))
        out.append((f"dual-adjoint:{name}", dual_rep(rep, mat_neg(rep.der_action))))
    return out


@pytest.mark.parametrize("name,rep", rep_instances())
def test_reps_verify(name, rep):
    assert check_representation(rep).ok, name


def test_zero_module_is_a_representation():
    alg = worked_subadjacent()
    rep = RepData(
        algebra=alg, space=Space(()), dot_action=((),) * 3, bracket_action=((),) * 3,
        der_action=(),
    )
    assert check_representation(rep).ok


def test_adjoint_rep_matrices():
    alg = worked_subadjacent()
    rep = adjoint_rep(alg)
    # left multiplication by e1 sends e1 to 2 e3 and e2 to e3
    assert rep.dot_action[0][2][0] == 2 and rep.dot_action[0][2][1] == 1
    # ad(e1) sends e2 to e3
    assert rep.bracket_action[0][2][1] == 1
    assert rep.der_action == alg.derivation.entries


def test_adjoint_rep_degenerate_cases():
    rep = adjoint_rep(zero_algebra(2))
    assert all(m == zero_matrix(2, 2) for m in rep.dot_action)
    one = RelPoissonAlgebra(
        Space.of_dim(1),
        unital2().dot.__class__.from_entries(Space.of_dim(1), [(0, 0, 0, 1)]),
        unital2().bracket.__class__.zero(Space.of_dim(1)),
        LinearMap.zero(Space.of_dim(1)),
    )
    rep = adjoint_rep(one)
    assert rep.dot_action[0] == ((1,),) and rep.bracket_action[0] == ((0,),)


def test_rep_rejects_scaled_endomorphism():
    alg = worked_subadjacent()
    rep = adjoint_rep(alg)
    doubled = RepData(
        algebra=alg,
        space=rep.space,
        dot_action=rep.dot_action,
        bracket_action=rep.bracket_action,
        der_action=mat_add(rep.der_action, rep.der_action),
    )
    report = check_representation(doubled)
    assert not report.ok and "endo-dot" in report.axioms_failed()


def test_dual_rep_with_negated_endo_always_verifies():
    for name, alg in rel_poisson_corpus():
        rep = adjoint_rep(alg)
        cand = dual_rep(rep, mat_neg(rep.der_action))
        assert check_representation(cand).ok, name
        assert check_dual_rep_conditions(rep, mat_neg(rep.der_action)).ok, name


def test_dual_rep_of_extended_algebra():
    # the adjoint representation of the unit extension dualizes along the
    # negated derivation into (-L*, ad*, -D*, A*)
    from relpoisson import extend_jacobi
    from dense_matrices import mat_transpose

    extended = extend_jacobi(worked_subadjacent())
    rep = adjoint_rep(extended)
    cand = dual_rep(rep, mat_neg(rep.der_action))
    assert check_representation(cand).ok
    assert cand.der_action == mat_neg(mat_transpose(extended.derivation.entries))


def test_dual_rep_positive_endo_fails_where_expected():
    # beta = +alpha fails when mu(x.y)(alpha + beta) is nonzero; the unital
    # two-dimensional algebra is such an instance (mu(1.1) is the identity)
    alg = unital2()
    rep = adjoint_rep(alg)
    report = check_dual_rep_conditions(rep, rep.der_action)
    assert not report.ok
    assert "dual-rep-leibniz" in report.axioms_failed()
    two_alpha = mat_add(rep.der_action, rep.der_action)
    assert mat_mul(rep.dot_action_of(alg.dot.product(0, 0)), two_alpha) != zero_matrix(2, 2)
    # beta must be an endomorphism of the module
    with pytest.raises(ValueError, match="endomorphism"):
        check_dual_rep_conditions(rep, identity_matrix(3))


def test_equivalent_conditions_families():
    # for a representation and arbitrary beta, each dual-rep condition is
    # equivalent to the corresponding (alpha+beta)-form, computed here
    # independently as the oracle
    betas = [
        lambda m: mat_neg(m),  # -alpha
        lambda m: m,  # +alpha
        lambda m: identity_matrix(len(m)) if m else (),
        lambda m: zero_matrix(len(m), len(m)) if m else (),
    ]
    for name, alg in rel_poisson_corpus():
        rep = adjoint_rep(alg)
        n = alg.dim
        if not n:
            continue
        for make in betas:
            beta = make(rep.der_action)
            report = check_dual_rep_conditions(rep, beta)
            failed = report.axioms_failed()
            alpha_beta = mat_add(rep.der_action, beta)
            cond1 = all(
                mat_sub(
                    mat_mul(alpha_beta, rep.dot_action[i]),
                    mat_mul(rep.dot_action[i], alpha_beta),
                )
                == zero_matrix(n, n)
                for i in range(n)
            )
            cond2 = all(
                mat_sub(
                    mat_mul(alpha_beta, rep.bracket_action[i]),
                    mat_mul(rep.bracket_action[i], alpha_beta),
                )
                == zero_matrix(n, n)
                for i in range(n)
            )
            cond3 = all(
                mat_mul(alpha_beta, rep.dot_action_of(alg.dot.product(i, j)))
                == zero_matrix(n, n)
                for i in range(n)
                for j in range(n)
            )
            assert ("dual-rep-dot" not in failed) == cond1, name
            assert ("dual-rep-bracket" not in failed) == cond2, name
            assert ("dual-rep-leibniz" not in failed) == cond3, name
            if cond1:
                cond4 = all(
                    mat_mul(rep.dot_action_of(alg.dot.product(i, j)), alpha_beta)
                    == zero_matrix(n, n)
                    for i in range(n)
                    for j in range(n)
                )
                assert cond3 == cond4, name


def test_dually_represents_negated_derivation():
    for name, alg in rel_poisson_corpus():
        assert check_dually_represents(alg, neg_map(alg.derivation)).ok, name


def test_dually_represents_zero_map_on_poisson():
    alg = heisenberg_poisson()
    assert check_dually_represents(alg, LinearMap.zero(alg.space)).ok


def test_dually_represents_fails_for_zero_on_worked_example():
    alg = worked_subadjacent()
    report = check_dually_represents(alg, LinearMap.zero(alg.space))
    assert not report.ok


def test_dually_representing_map_is_unique_on_unital_algebras(worked_bialgebra):
    # with a unit, (D+Q) of the triple product forces Q = -ad(unit):
    # any other candidate fails
    j = worked_bialgebra.algebra
    q = worked_bialgebra.dual_derivation
    assert check_dually_represents(j, q).ok
    rows = [list(r) for r in q.entries]
    rows[0][0] += F(1)
    shifted = LinearMap(j.space, j.space, tuple(tuple(r) for r in rows))
    assert not check_dually_represents(j, shifted).ok
    assert not check_dually_represents(j, LinearMap.zero(j.space)).ok


def test_dual_triple_annihilation():
    # whenever Q dually represents, x.y.(D+Q)(z) vanishes
    for name, alg in rel_poisson_corpus():
        q = neg_map(alg.derivation)
        assert check_dually_represents(alg, q).ok
        pq = mat_add(alg.derivation.entries, q.entries)
        n = alg.dim
        for x in range(n):
            for y in range(n):
                xy = alg.dot.product(x, y)
                for z in range(n):
                    col = tuple(pq[t][z] for t in range(n))
                    assert not any(alg.dot.apply(xy, col)), name


def test_semidirect_product_and_biconditional():
    alg = worked_subadjacent()
    rep = adjoint_rep(alg)
    double = semidirect_product(alg, rep)
    assert double.dim == 6
    assert check_rel_poisson(double).ok
    # perturbing the representation breaks the semidirect quadruple, and
    # the builder rejects it; the structural build fails verification
    bad = RepData(
        algebra=alg,
        space=rep.space,
        dot_action=rep.dot_action,
        bracket_action=rep.bracket_action,
        der_action=mat_add(rep.der_action, rep.der_action),
    )
    assert not check_representation(bad).ok
    with pytest.raises(PreconditionError):
        semidirect_product(alg, bad)
    structural = semidirect_structure(
        alg, bad.space, bad.dot_action, bad.bracket_action, bad.der_action
    )
    assert not check_rel_poisson(structural).ok


def test_semidirect_zero_rep_gives_square_zero_ideal():
    alg = unital2()
    v = Space.of_dim(2, prefix="v")
    rep = RepData(
        algebra=alg,
        space=v,
        dot_action=(zero_matrix(2, 2),) * 2,
        bracket_action=(zero_matrix(2, 2),) * 2,
        der_action=zero_matrix(2, 2),
    )
    assert check_representation(rep).ok
    double = semidirect_product(alg, rep)
    assert check_rel_poisson(double).ok
    # V sits inside as a square-zero ideal
    for a in range(2, 4):
        for b in range(2, 4):
            assert not any(double.dot.product(a, b))
            assert not any(double.bracket.product(a, b))


def test_rep_equivalence():
    alg = worked_subadjacent()
    rep = adjoint_rep(alg)
    assert check_rep_equivalence(rep, rep, LinearMap.identity(rep.space))
    zero = LinearMap.zero(rep.space)
    assert not check_rep_equivalence(rep, rep, zero)


def test_rep_equivalence_rejects_representations_of_different_algebras():
    # zero representations of a 2-dim and a 3-dim algebra on one module used
    # to compare equal one way round and raise IndexError the other
    module, zero = Space.of_dim(2, "v"), zero_matrix(2, 2)
    rep2, rep3 = (RepData(zero_algebra(n), module, (zero,) * n, (zero,) * n, zero) for n in (2, 3))
    for rep1, rep2_ in ((rep2, rep3), (rep3, rep2)):
        with pytest.raises(ValueError, match="different spaces"):
            check_rep_equivalence(rep1, rep2_, LinearMap.identity(module))


def test_jacobi_representation(worked_bialgebra):
    j = worked_bialgebra.algebra
    rep = adjoint_rep(j)
    assert check_jacobi_representation(
        j.dot, j.bracket, rep.dot_action, rep.bracket_action, rep.space
    ).ok
    # dropping unitality of the dot action fails
    broken = (zero_matrix(7, 7),) + rep.dot_action[1:]
    report = check_jacobi_representation(j.dot, j.bracket, broken, rep.bracket_action, rep.space)
    assert not report.ok and "dot-action-unital" in report.axioms_failed()
    with pytest.raises(NoUnitError):
        alg = worked_subadjacent()
        r2 = adjoint_rep(alg)
        check_jacobi_representation(alg.dot, alg.bracket, r2.dot_action, r2.bracket_action, r2.space)


def test_jacobi_representation_needs_one_action_per_basis_element():
    # no action matrices at all for the 1-dim unital algebra
    alg = unital1()
    with pytest.raises(ValueError, match="one action matrix"):
        check_jacobi_representation(alg.dot, alg.bracket, (), (), Space.of_dim(1, "v"))
    mats = ((F(1),),)
    with pytest.raises(ValueError, match="one action matrix"):
        check_jacobi_representation(alg.dot, alg.bracket, mats, mats * 2, Space.of_dim(1, "v"))


def test_jacobi_representation_needs_one_space():
    # a 1-dim unital dot with a 2-dim zero bracket: only a sub-block of the
    # bracket would be read
    alg = unital1()
    bracket = BilinearOp.zero(Space.of_dim(2))
    mats = ((F(1),),)
    with pytest.raises(ValueError, match="different spaces"):
        check_jacobi_representation(alg.dot, bracket, mats, mats, Space.of_dim(1, "v"))


def test_jacobi_rep_matches_unital_rel_poisson_rep(worked_bialgebra):
    # a Jacobi representation is exactly a representation of the unital
    # quadruple with the bracket action of the unit as the endomorphism
    j = worked_bialgebra.algebra
    rep = adjoint_rep(j)
    unit_vec = tuple(F(1) if i == 0 else F(0) for i in range(7))
    rho_unit = mat_combination(unit_vec, rep.bracket_action)
    as_rep = RepData(
        algebra=j,
        space=rep.space,
        dot_action=rep.dot_action,
        bracket_action=rep.bracket_action,
        der_action=rho_unit,
    )
    jac = check_jacobi_representation(
        j.dot, j.bracket, rep.dot_action, rep.bracket_action, rep.space
    )
    assert jac.ok == check_representation(as_rep).ok == True


def test_dual_of_jacobi_rep_is_jacobi_rep(worked_bialgebra):
    j = worked_bialgebra.algebra
    rep = adjoint_rep(j)
    mu_dual = tuple(mat_transpose(m) for m in rep.dot_action)
    rho_dual = tuple(mat_neg(mat_transpose(m)) for m in rep.bracket_action)
    assert check_jacobi_representation(
        j.dot, j.bracket, mu_dual, rho_dual, rep.space.dual
    ).ok
    # the extra condition stated for dual Jacobi representations holds too
    n = j.dim
    unit_vec = tuple(F(1) if i == 0 else F(0) for i in range(n))
    rho1 = mat_combination(unit_vec, rep.bracket_action)
    for i in range(n):
        for jdx in range(n):
            xy = j.dot.product(i, jdx)
            defect = mat_sub(
                mat_add(
                    mat_mul(rep.bracket_action[jdx], rep.dot_action[i]),
                    mat_mul(rep.bracket_action[i], rep.dot_action[jdx]),
                ),
                mat_combination(xy, rep.bracket_action),
            )
            defect = mat_sub(defect, mat_mul(rho1, mat_combination(xy, rep.dot_action)))
            assert all(not x for row in defect for x in row)
