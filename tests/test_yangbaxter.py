"""YBE tensors, RPYBE solutions, coboundary comultiplications, O-operators."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relpoisson import (
    BialgebraData,
    LinearMap,
    PreconditionError,
    RepData,
    Space,
    Tensor2,
    Violation,
    adjoint_rep,
    aybe_tensor,
    check_bialgebra,
    check_coboundary_conditions,
    check_dual_rep_conditions,
    check_representation,
    check_rpybe,
    check_rpybe_via_maps,
    check_semidirect_dual_conditions,
    check_weak_o_operator,
    coboundary_comults,
    combine_reports,
    cybe_tensor,
    is_antisymmetric,
    o_operator_to_rmatrix,
    semidirect_codrv,
    subadjacent,
)
from relpoisson import algebra, yangbaxter
from relpoisson.algebra import Collector
from dense_matrices import mat_neg, zero_matrix

from conftest import (
    broken_subadjacent,
    heisenberg_poisson,
    neg_map,
    tensor,
    truncated2,
    unital1,
    unital2,
    worked_prepoisson,
    worked_subadjacent,
    zero_algebra,
)


def brute_force_pair_product(rc, mult, pattern):
    """Reference contraction, written with full index generality."""
    n = len(rc)
    out = [[[F(0)] * n for _ in range(n)] for _ in range(n)]
    for u in range(n):
        for v in range(n):
            for w in range(n):
                for z in range(n):
                    c = rc[u][v] * rc[w][z]
                    if not c:
                        continue
                    if pattern == "12.13":
                        for k in range(n):
                            out[k][v][z] += c * mult.entry(u, w, k)
                    elif pattern == "12.23":
                        for k in range(n):
                            out[u][k][z] += c * mult.entry(v, w, k)
                    else:
                        for k in range(n):
                            out[u][w][k] += c * mult.entry(v, z, k)
    return out


def brute_force_aybe(r, dot):
    n = len(r.coeffs)
    t12_13 = brute_force_pair_product(r.coeffs, dot, "12.13")
    t12_23 = brute_force_pair_product(r.coeffs, dot, "12.23")
    t13_23 = brute_force_pair_product(r.coeffs, dot, "13.23")
    return [
        [
            [t12_13[i][j][k] - t12_23[i][j][k] + t13_23[i][j][k] for k in range(n)]
            for j in range(n)
        ]
        for i in range(n)
    ]


def brute_force_cybe(r, bracket):
    n = len(r.coeffs)
    t12_13 = brute_force_pair_product(r.coeffs, bracket, "12.13")
    t12_23 = brute_force_pair_product(r.coeffs, bracket, "12.23")
    t13_23 = brute_force_pair_product(r.coeffs, bracket, "13.23")
    return [
        [
            [t12_13[i][j][k] + t12_23[i][j][k] + t13_23[i][j][k] for k in range(n)]
            for j in range(n)
        ]
        for i in range(n)
    ]


small = st.fractions(min_value=-2, max_value=2, max_denominator=2)


@settings(max_examples=40, deadline=None)
@given(flat=st.lists(small, min_size=9, max_size=9))
def test_aybe_cybe_match_brute_force(flat):
    alg = worked_subadjacent()
    rc = tuple(tuple(flat[3 * i + j] for j in range(3)) for i in range(3))
    r = Tensor2(alg.space, alg.space, rc)
    assert [list(map(list, p)) for p in aybe_tensor(r, alg.dot).coeffs] == [
        [list(row) for row in plane] for plane in brute_force_aybe(r, alg.dot)
    ]
    assert [list(map(list, p)) for p in cybe_tensor(r, alg.bracket).coeffs] == [
        [list(row) for row in plane] for plane in brute_force_cybe(r, alg.bracket)
    ]


def test_aybe_zero_and_unit_cases():
    alg = worked_subadjacent()
    zero = Tensor2.zero(alg.space, alg.space)
    assert aybe_tensor(zero, alg.dot).is_zero()
    assert cybe_tensor(zero, alg.bracket).is_zero()
    one = unital1()
    r = tensor(one.space, [(0, 0, 1)])
    a = aybe_tensor(r, one.dot)
    assert a.coeffs == (((F(1),),),)  # e (x) e (x) e survives: 1 - 1 + 1


def test_cybe_vanishes_on_abelian_bracket():
    alg = zero_algebra(3)
    r = tensor(alg.space, [(0, 1, 2), (2, 0, F(1, 3))])
    assert cybe_tensor(r, alg.bracket).is_zero()


def worked_seven_dim(worked_bialgebra):
    j = worked_bialgebra.algebra
    rc = [[F(0)] * 7 for _ in range(7)]
    for i in range(1, 4):
        rc[i][i + 3] = F(1)
        rc[i + 3][i] = F(-1)
    return j, Tensor2(j.space, j.space, tuple(tuple(r) for r in rc))


def test_worked_rmatrix_solves_rpybe(worked_bialgebra):
    j, r = worked_seven_dim(worked_bialgebra)
    assert aybe_tensor(r, j.dot).is_zero()
    assert cybe_tensor(r, j.bracket).is_zero()
    codrv = worked_bialgebra.dual_derivation
    assert check_rpybe(j, codrv, r).ok
    assert check_rpybe(j, codrv, Tensor2.zero(j.space, j.space)).ok
    # the wrong accompanying map fails the intertwining family
    report = check_rpybe(j, LinearMap.zero(j.space), r)
    assert not report.ok
    assert "intertwine-derivation" in report.axioms_failed()


def test_rpybe_via_maps_agrees(worked_bialgebra):
    j, r = worked_seven_dim(worked_bialgebra)
    codrv = worked_bialgebra.dual_derivation
    assert check_rpybe_via_maps(j, codrv, r).ok
    with pytest.raises(PreconditionError):
        check_rpybe_via_maps(j, codrv, tensor(j.space, [(0, 1, 1)]))


@settings(max_examples=30, deadline=None)
@given(entries=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2), small), max_size=4))
def test_rpybe_forms_agree_on_antisymmetric_tensors(entries):
    alg = worked_subadjacent()
    rc = [[F(0)] * 3 for _ in range(3)]
    for i, j, v in entries:
        rc[i][j] += v
        rc[j][i] -= v
    r = Tensor2(alg.space, alg.space, tuple(tuple(row) for row in rc))
    codrv = neg_map(alg.derivation)
    assert check_rpybe(alg, codrv, r).ok == check_rpybe_via_maps(alg, codrv, r).ok


@settings(max_examples=30, deadline=None)
@given(entries=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2), small), max_size=4))
def test_intertwining_families_agree_for_antisymmetric_tensors(entries):
    # for antisymmetric r the two intertwining conditions are equivalent
    alg = worked_subadjacent()
    rc = [[F(0)] * 3 for _ in range(3)]
    for i, j, v in entries:
        rc[i][j] += v
        rc[j][i] -= v
    r = Tensor2(alg.space, alg.space, tuple(tuple(row) for row in rc))
    codrv = neg_map(alg.derivation)
    report = check_rpybe(alg, codrv, r)
    failed = report.axioms_failed()
    assert ("intertwine-derivation" in failed) == ("intertwine-coderivation" in failed)
    # and the symmetric-part families of the coboundary sweep vanish
    sweep = check_coboundary_conditions(alg, codrv, r)
    sweep_failed = sweep.axioms_failed()
    assert "aybe-symmetric-part" not in sweep_failed
    assert "cybe-symmetric-part" not in sweep_failed


def test_coboundary_comults_worked_values(worked_bialgebra):
    j, r = worked_seven_dim(worked_bialgebra)
    dot_comult, bracket_comult = coboundary_comults(j, r)
    assert dot_comult.columns == worked_bialgebra.dot_comult.columns
    assert bracket_comult.columns == worked_bialgebra.bracket_comult.columns
    # spelled-out golden values
    assert dot_comult.coeff(4, 4, 6) == -2
    assert dot_comult.coeff(4, 5, 6) == -1
    assert dot_comult.coeff(5, 4, 6) == -1
    assert bracket_comult.coeff(3, 4, 1) == -1
    assert bracket_comult.coeff(4, 3, 1) == 1
    zero_d, zero_b = coboundary_comults(j, Tensor2.zero(j.space, j.space))
    assert zero_d.is_zero() and zero_b.is_zero()


def test_coboundary_conditions_requires_dual_representing():
    alg = worked_subadjacent()
    with pytest.raises(PreconditionError):
        check_coboundary_conditions(
            alg, LinearMap.zero(alg.space), Tensor2.zero(alg.space, alg.space)
        )


def coboundary_cases():
    cases = []
    for alg in (worked_subadjacent(), unital2(), heisenberg_poisson()):
        sp = alg.space
        n = alg.dim
        rs = [
            tensor(sp, []),
            tensor(sp, [(0, 0, 1)]),
            tensor(sp, [(0, 1, 1)]),
            tensor(sp, [(0, 1, 1), (1, 0, -1)]),
            tensor(sp, [(0, 1, 1), (1, 0, 1)]),
            tensor(sp, [(0, n - 1, F(1, 2)), (n - 1, 0, F(-1, 2))]),
            tensor(sp, [(0, 0, 1), (0, 1, 2), (1, 1, -1)]),
        ]
        cases.extend((alg, neg_map(alg.derivation), r) for r in rs)
    return cases


@pytest.mark.parametrize("alg,codrv,r", coboundary_cases())
def test_coboundary_conditions_match_bialgebra_checker(alg, codrv, r):
    sweep = check_coboundary_conditions(alg, codrv, r)
    dot_comult, bracket_comult = coboundary_comults(alg, r)
    induced = BialgebraData(alg, dot_comult, bracket_comult, codrv)
    assert sweep.ok == check_bialgebra(induced).ok


def test_weak_o_operator_cases():
    pp = worked_prepoisson()
    alg, rep = subadjacent(pp)
    ident = LinearMap.identity(alg.space)
    assert check_weak_o_operator(alg, rep, rep.der_action, ident).ok
    assert check_weak_o_operator(
        alg, rep, rep.der_action, LinearMap.zero(alg.space)
    ).ok
    doubled_rho = rep.__class__(
        algebra=rep.algebra,
        space=rep.space,
        dot_action=rep.dot_action,
        bracket_action=tuple(
            tuple(tuple(2 * x for x in row) for row in m) for m in rep.bracket_action
        ),
        der_action=rep.der_action,
    )
    report = check_weak_o_operator(alg, doubled_rho, rep.der_action, ident)
    assert not report.ok and "operator-bracket" in report.axioms_failed()


def test_weak_o_operator_rejects_mis_sized_endo():
    # the endomorphism must be square of the module's dimension; a 2x1 one
    # used to be zipped against D T and read in one column only
    alg = truncated2()
    rep = adjoint_rep(alg)
    ident = LinearMap.identity(alg.space)
    for endo in (((1,), (1,)), ((1, 0), (1,)), ((1, 0, 0),) * 3, ()):
        with pytest.raises(ValueError, match="endo"):
            check_weak_o_operator(alg, rep, endo, ident)


def test_weak_o_operator_rejects_representation_of_another_algebra():
    # with zero products, a 2-dim algebra's representation checked against a
    # 3-dim algebra, and the reverse, used to sweep a sub-block and pass
    module, endo = Space.of_dim(2, "v"), zero_matrix(2, 2)
    for n_rep, n_alg in ((2, 3), (3, 2)):
        rep = RepData(zero_algebra(n_rep), module, (endo,) * n_rep, (endo,) * n_rep, endo)
        alg = zero_algebra(n_alg)
        with pytest.raises(ValueError, match="does not act for the given algebra"):
            check_weak_o_operator(alg, rep, endo, LinearMap.zero(module, alg.space))


def mis_sized_inputs():
    """The worked 3-dim algebra with a good (codrv, r) pair, then pairs where
    r or codrv lives on a smaller, a larger or a relabelled space."""
    alg = worked_subadjacent()
    codrv, r = neg_map(alg.derivation), tensor(alg.space, [(0, 1, 1), (1, 0, -1)])
    bad = []
    for sp in (Space.of_dim(2), Space.of_dim(4), Space.of_dim(3, "f")):
        bad += [(codrv, Tensor2.zero(sp, sp)), (LinearMap.zero(sp), r)]
    bad.append((codrv, Tensor2.zero(alg.space, Space.of_dim(3, "f"))))
    return alg, (codrv, r), bad


@pytest.mark.parametrize(
    "checker", [check_rpybe, check_rpybe_via_maps, check_coboundary_conditions]
)
def test_tensor_checkers_reject_mis_sized_input(checker):
    alg, good, bad = mis_sized_inputs()
    checker(alg, *good)
    for codrv, r in bad:
        with pytest.raises(ValueError, match="space") as exc:
            checker(alg, codrv, r)
        assert type(exc.value) is ValueError


def test_coboundary_comults_reject_mis_sized_tensor():
    alg, (_codrv, r), bad = mis_sized_inputs()
    coboundary_comults(alg, r)
    for _codrv, r in bad[::2] + bad[-1:]:
        with pytest.raises(ValueError, match="space"):
            coboundary_comults(alg, r)


def test_o_operator_to_rmatrix_worked_case():
    pp = worked_prepoisson()
    alg, rep = subadjacent(pp)
    beta = mat_neg(rep.der_action)
    codrv = neg_map(alg.derivation)
    semidirect, r = o_operator_to_rmatrix(rep, beta, codrv, LinearMap.identity(alg.space))
    assert semidirect.dim == 6
    assert is_antisymmetric(r)
    # r = sum e_i (x) e_i* - e_i* (x) e_i
    for i in range(3):
        assert r.coeffs[i][3 + i] == 1 and r.coeffs[3 + i][i] == -1
    accompanying = semidirect_codrv(rep, codrv, semidirect)
    assert check_rpybe(semidirect, accompanying, r).ok


def test_o_operator_to_rmatrix_zero_operator():
    pp = worked_prepoisson()
    alg, rep = subadjacent(pp)
    beta = mat_neg(rep.der_action)
    codrv = neg_map(alg.derivation)
    semidirect, r = o_operator_to_rmatrix(rep, beta, codrv, LinearMap.zero(alg.space))
    assert r.is_zero()
    assert check_rpybe(semidirect, semidirect_codrv(rep, codrv, semidirect), r).ok


def test_o_operator_to_rmatrix_rejects_tampered_operator():
    pp = worked_prepoisson()
    alg, rep = subadjacent(pp)
    beta = mat_neg(rep.der_action)
    codrv = neg_map(alg.derivation)
    tampered = LinearMap(alg.space, alg.space, ((1, 1, 0), (0, 1, 0), (0, 0, 1)))
    with pytest.raises(PreconditionError):
        o_operator_to_rmatrix(rep, beta, codrv, tampered)


def test_o_operator_to_rmatrix_guards_run_before_its_sweep():
    # whatever the axioms say, a mis-sized input is a ValueError, never the
    # failing representation's PreconditionError
    rep = adjoint_rep(broken_subadjacent())
    sp = rep.algebra.space
    assert not check_representation(rep).ok
    beta, ident = rep._alpha.neg(), LinearMap.identity(sp)
    larger, module = Space.of_dim(sp.dim + 1), Space.of_dim(sp.dim, "v")
    cases = [
        ("dual map", (beta, LinearMap.zero(larger), ident)),
        ("operator", (beta, ident, LinearMap.zero(module, sp))),
        ("beta", (LinearMap.zero(larger), ident, ident)),
    ]
    for match, args in cases:
        with pytest.raises(ValueError, match=match) as exc:
            o_operator_to_rmatrix(rep, *args)
        assert type(exc.value) is ValueError


def test_o_operator_to_rmatrix_intertwining_failure_carries_its_report():
    # with Q = T = id and beta = -alpha only Q T - T beta = id + alpha fails
    _alg, rep = subadjacent(worked_prepoisson())
    ident = LinearMap.identity(rep.space)
    with pytest.raises(PreconditionError) as failed:
        o_operator_to_rmatrix(rep, rep._alpha.neg(), ident, ident)
    alpha = rep.der_action
    defect = tuple(alpha[p][c] + (p == c) for p in range(3) for c in range(3))
    assert failed.value.report.violations == (Violation("dual-operator-intertwine", (), defect),)
    assert str(failed.value) == "not an O-operator: dual-operator-intertwine"


@pytest.mark.parametrize("rows", [((1, 1, 0), (0, 1, 0), (0, 0, 1)), ((1, 1, 1),) * 3], ids=["whole", "truncated"])
def test_o_operator_to_rmatrix_sweeps_its_hypotheses_in_one_contraction(monkeypatch, rows):
    """A failing representation, an operator that is not an O-operator, a
    beta that does not dually represent and a dual map that T does not
    intertwine with beta fail all four parts; the constructor sweeps them
    in one contraction and reports what they report, merged in order and
    cut at the limit (the second operator fails past it)."""
    rep = adjoint_rep(broken_subadjacent())
    sp = rep.algebra.space
    operator, beta, codrv = LinearMap(sp, sp, rows), LinearMap.identity(sp), LinearMap.zero(sp)
    # Q T - T beta, by the intertwining family of D T - T alpha, named dual-
    intertwine = Collector()
    intertwine.merge(algebra._check(yangbaxter._O_INTERTWINE, 16, T=operator, D=codrv, E=beta), prefix="dual-")
    reports = (
        check_representation(rep),
        check_weak_o_operator(rep.algebra, rep, rep._alpha, operator),
        check_dual_rep_conditions(rep, beta),
        intertwine.report(),
    )
    assert not any(r.ok for r in reports)
    calls, contract = [], algebra._contract
    monkeypatch.setattr(algebra, "_contract", lambda *args: calls.append(args) or contract(*args))
    with pytest.raises(PreconditionError) as failed:
        o_operator_to_rmatrix(rep, beta, codrv, operator)
    assert len(calls) == 1
    assert failed.value.report == combine_reports(*reports)
    assert failed.value.report.truncated == (rows[0] == (1, 1, 1))


def test_semidirect_dual_conditions():
    pp = worked_prepoisson()
    alg, rep = subadjacent(pp)
    beta = mat_neg(rep.der_action)
    codrv = neg_map(alg.derivation)
    assert check_semidirect_dual_conditions(rep, beta, codrv).ok
    # shifting the endomorphism breaks the first mixed action condition
    shifted = rep.__class__(
        algebra=rep.algebra,
        space=rep.space,
        dot_action=rep.dot_action,
        bracket_action=rep.bracket_action,
        der_action=tuple(
            tuple(x + (2 if i == j else 0) for j, x in enumerate(row))
            for i, row in enumerate(rep.der_action)
        ),
    )
    report = check_semidirect_dual_conditions(shifted, beta, codrv)
    assert not report.ok and "mixed-action-dot" in report.axioms_failed()


def test_semidirect_dual_conditions_extended_case():
    # the pipeline's choice on the unit extension: beta = -alpha, the dual
    # map the negated extended derivation
    from relpoisson import lift_o_operator

    pp = worked_prepoisson()
    _alg, rep = subadjacent(pp)
    lift = lift_o_operator(rep, LinearMap.identity(rep.space))
    ext_rep = lift.rep
    beta = mat_neg(ext_rep.der_action)
    codrv = neg_map(ext_rep.algebra.derivation)
    assert check_semidirect_dual_conditions(ext_rep, beta, codrv).ok


def test_sub_bialgebra_structure_of_the_double(worked_bialgebra, worked_double):
    # the pairing tensor in the double solves both YBEs, intertwines the
    # two derivations, and its coboundary comultiplications restrict to
    # the original ones on the first factor
    double = worked_double.algebra
    n = worked_bialgebra.algebra.dim
    rc = [[F(0)] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        rc[i][n + i] = F(1)
    r = Tensor2(double.space, double.space, tuple(tuple(row) for row in rc))
    assert aybe_tensor(r, double.dot).is_zero()
    assert cybe_tensor(r, double.bracket).is_zero()
    from dense_matrices import mat_mul, mat_sub, mat_transpose

    p_double = double.derivation.entries
    q_double = adjoint_of_pairing(worked_bialgebra)
    defect = mat_sub(mat_mul(p_double, r.coeffs), mat_mul(r.coeffs, mat_transpose(q_double)))
    assert all(not x for row in defect for x in row)
    dot_comult, bracket_comult = coboundary_comults(double, r)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                assert dot_comult.coeff(i, j, k) == worked_bialgebra.dot_comult.coeff(i, j, k)
                assert bracket_comult.coeff(i, j, k) == worked_bialgebra.bracket_comult.coeff(i, j, k)


def adjoint_of_pairing(bialgebra):
    """Q + P^T on the double, blockwise."""
    from dense_matrices import mat_transpose

    n = bialgebra.algebra.dim
    q = bialgebra.dual_derivation.entries
    pt = mat_transpose(bialgebra.algebra.derivation.entries)
    rows = []
    for i in range(n):
        rows.append(tuple(q[i]) + (F(0),) * n)
    for i in range(n):
        rows.append((F(0),) * n + tuple(pt[i]))
    return tuple(rows)
