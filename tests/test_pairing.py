"""Bilinear forms, matched pairs, the bowtie double, Manin triples."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relpoisson import (
    BilinearForm,
    LinearMap,
    MatchedPairData,
    PreconditionError,
    RelPoissonAlgebra,
    Space,
    adjoint_of,
    adjoint_rep,
    bowtie,
    canonical_pairing,
    check_dually_represents,
    check_invariant_form,
    check_manin_triple,
    check_matched_pair,
    check_rep_equivalence,
    combine_matched_pair,
    dual_rel_poisson_algebra,
    dual_rep,
    find_unit,
    induced_matched_pair,
    is_nondegenerate,
)
from relpoisson.algebra import BilinearOp
from relpoisson.linalg import determinant
from dense_matrices import identity_matrix, mat_mul, mat_neg, mat_transpose, zero_matrix

from conftest import (
    rel_poisson_corpus,
    trivial_bialgebra,
    unital1,
    unital2,
    worked_subadjacent,
    zero_algebra,
)


def pairing_form(n: int) -> BilinearForm:
    sp = Space.of_dim(2 * n)
    return canonical_pairing(sp)


def test_canonical_pairing_gram():
    form = pairing_form(2)
    assert form.gram == (
        (0, 0, 1, 0),
        (0, 0, 0, 1),
        (1, 0, 0, 0),
        (0, 1, 0, 0),
    )
    assert form.is_symmetric() and is_nondegenerate(form)


def test_nondegeneracy_cases():
    sp = Space.of_dim(2)
    assert not is_nondegenerate(BilinearForm(sp, zero_matrix(2, 2)))
    assert not is_nondegenerate(BilinearForm(sp, ((1, 0), (0, 0))))
    assert is_nondegenerate(BilinearForm(sp, identity_matrix(2)))


def test_invariant_form_zero_form_is_invariant():
    alg = worked_subadjacent()
    assert check_invariant_form(alg, BilinearForm(alg.space, zero_matrix(3, 3))).ok


def test_invariant_form_on_worked_double(worked_double):
    alg, form = worked_double.algebra, worked_double.form
    assert check_invariant_form(alg, form).ok
    # zeroing one pairing entry breaks invariance
    gram = [list(r) for r in form.gram]
    gram[0][7] = F(0)
    broken = BilinearForm(alg.space, tuple(tuple(r) for r in gram))
    report = check_invariant_form(alg, broken)
    assert not report.ok or not is_nondegenerate(broken)


def test_adjoint_of_symmetric_case():
    sp = Space.of_dim(2)
    form = BilinearForm(sp, identity_matrix(2))
    p = LinearMap(sp, sp, ((1, 2), (2, 5)))
    assert adjoint_of(p, form).entries == p.entries


def test_adjoint_of_solves_defining_equation():
    sp = Space.of_dim(2)
    form = BilinearForm(sp, ((0, 1), (1, 0)))
    p = LinearMap(sp, sp, ((0, 1), (0, 0)))  # nilpotent Jordan block
    adj = adjoint_of(p, form)
    for i in range(2):
        ei = tuple(F(1) if t == i else F(0) for t in range(2))
        for j in range(2):
            ej = tuple(F(1) if t == j else F(0) for t in range(2))
            assert form.value(p(ei), ej) == form.value(ei, adj(ej))
    with pytest.raises(PreconditionError):
        adjoint_of(p, BilinearForm(sp, zero_matrix(2, 2)))


def test_adjoint_of_rejects_maps_off_the_form_space():
    sp = Space.of_dim(2)
    form = BilinearForm(sp, identity_matrix(2))
    relabelled = Space.of_dim(2, "f")
    for domain, codomain in ((relabelled, relabelled), (sp, relabelled), (Space.of_dim(3), sp)):
        with pytest.raises(ValueError) as exc:
            adjoint_of(LinearMap.zero(domain, codomain), form)
        assert not isinstance(exc.value, PreconditionError)


# many zeros, so degenerate forms are common
_entries = st.sampled_from((0, 0, 0, 1, -1, 2, F(1, 2)))


@settings(deadline=None)
@given(n=st.integers(1, 3), cols=st.integers(1, 3), data=st.data())
def test_adjoint_of_on_random_forms_and_maps(n, cols, data):
    """A square map on the form's space gets the adjoint G P^ = P^T G when
    the form is nondegenerate and a PreconditionError otherwise; a map of
    another shape is a ValueError."""
    sp = Space.of_dim(n)
    gram = tuple(tuple(data.draw(_entries) for _ in range(n)) for _ in range(n))
    entries = tuple(tuple(data.draw(_entries) for _ in range(cols)) for _ in range(n))
    form = BilinearForm(sp, gram)
    op = LinearMap(Space.of_dim(cols), sp, entries)
    if cols != n:
        with pytest.raises(ValueError):
            adjoint_of(op, form)
        return
    if not determinant(gram):
        with pytest.raises(PreconditionError):
            adjoint_of(op, form)
        return
    adj = adjoint_of(op, form)
    assert mat_mul(form.gram, adj.entries) == mat_mul(mat_transpose(op.entries), form.gram)


def test_adjoint_of_double_derivation(worked_double, worked_bialgebra):
    # adjoint of the double's derivation under the pairing form swaps the
    # two blocks: it equals Q on the algebra side and D^T on the dual side
    double, form = worked_double.algebra, worked_double.form
    adj = adjoint_of(double.derivation, form)
    j = worked_bialgebra.algebra
    n = j.dim
    q = worked_bialgebra.dual_derivation.entries
    dt = mat_transpose(j.derivation.entries)
    for i in range(n):
        for t in range(n):
            assert adj.entries[i][t] == q[i][t]
            assert adj.entries[n + i][n + t] == dt[i][t]
            assert adj.entries[i][n + t] == 0
            assert adj.entries[n + i][t] == 0
    assert check_dually_represents(double, adj).ok


def test_frobenius_adjoint_representation_equivalence(worked_double):
    # for a Frobenius algebra, pairing with the form interleaves the adjoint
    # representation with its dual built on the form-adjoint of D
    alg, form = worked_double.algebra, worked_double.form
    rep = adjoint_rep(alg)
    adj = adjoint_of(alg.derivation, form)
    cand = dual_rep(rep, adj.entries)
    from relpoisson import check_representation

    assert check_representation(cand).ok
    phi = LinearMap(alg.space, alg.space.dual, mat_transpose(form.gram))
    assert check_rep_equivalence(rep, cand, phi)


def matched_pairs_from_bialgebras():
    out = []
    for name, alg in rel_poisson_corpus():
        data = trivial_bialgebra(alg)
        out.append((name, induced_matched_pair(data)))
    return out


@pytest.mark.parametrize("name,pair", matched_pairs_from_bialgebras())
def test_induced_matched_pairs_verify(name, pair):
    assert check_matched_pair(pair).ok, name


def test_matched_pair_zero_right_factor_reduces_to_representation():
    # right factor = module with zero products carrying the endomorphism as
    # its derivation: the matched-pair check reduces to the representation
    # conditions of the semi-direct product
    alg = worked_subadjacent()
    rep = adjoint_rep(alg)
    vsp = Space.of_dim(3, prefix="v")
    v = RelPoissonAlgebra(
        vsp,
        BilinearOp.zero(vsp),
        BilinearOp.zero(vsp),
        LinearMap(vsp, vsp, rep.der_action),
    )
    pair = MatchedPairData(
        left=alg,
        right=v,
        dot_action_on_right=rep.dot_action,
        bracket_action_on_right=rep.bracket_action,
        dot_action_on_left=(zero_matrix(3, 3),) * 3,
        bracket_action_on_left=(zero_matrix(3, 3),) * 3,
    )
    assert check_matched_pair(pair).ok
    doubled = RelPoissonAlgebra(
        vsp,
        BilinearOp.zero(vsp),
        BilinearOp.zero(vsp),
        LinearMap(vsp, vsp, tuple(tuple(2 * x for x in row) for row in rep.der_action)),
    )
    bad = MatchedPairData(
        left=alg,
        right=doubled,
        dot_action_on_right=rep.dot_action,
        bracket_action_on_right=rep.bracket_action,
        dot_action_on_left=(zero_matrix(3, 3),) * 3,
        bracket_action_on_left=(zero_matrix(3, 3),) * 3,
    )
    report = check_matched_pair(bad)
    assert not report.ok
    assert any(a.startswith("rep-on-right:") for a in report.axioms_failed())


def test_matched_pair_rejects_zeroed_action(worked_bialgebra):
    pair = induced_matched_pair(worked_bialgebra)
    assert check_matched_pair(pair).ok
    n = worked_bialgebra.algebra.dim
    broken = MatchedPairData(
        left=pair.left,
        right=pair.right,
        dot_action_on_right=pair.dot_action_on_right,
        bracket_action_on_right=(zero_matrix(n, n),) * n,
        dot_action_on_left=pair.dot_action_on_left,
        bracket_action_on_left=pair.bracket_action_on_left,
    )
    assert not check_matched_pair(broken).ok


def test_bowtie_on_worked_example(worked_bialgebra, worked_double):
    pair = induced_matched_pair(worked_bialgebra)
    double = bowtie(pair)
    assert double.dot.table == worked_double.algebra.dot.table
    assert double.bracket.table == worked_double.algebra.bracket.table
    # golden entries of the double
    lab = double.space.labels
    assert lab[:8] == ("E", "E1", "E2", "E3", "E4", "E5", "E6", "E*")
    assert double.bracket.product(4, 11) == tuple(
        F(-1) if i == 7 else F(0) for i in range(14)
    )  # [E4, E4*] = -E*
    e6_e4s = double.dot.product(6, 11)
    assert e6_e4s[4] == -2 and e6_e4s[5] == -1 and e6_e4s[8] == 1  # -2E4 - E5 + E1*


def test_bowtie_of_zero_factors():
    pair = induced_matched_pair(trivial_bialgebra(zero_algebra(2)))
    double = bowtie(pair)
    assert double.dot.is_zero() and double.bracket.is_zero()


def test_bowtie_rejects_invalid_data(worked_bialgebra):
    pair = induced_matched_pair(worked_bialgebra)
    n = worked_bialgebra.algebra.dim
    broken = MatchedPairData(
        left=pair.left,
        right=pair.right,
        dot_action_on_right=pair.dot_action_on_right,
        bracket_action_on_right=(zero_matrix(n, n),) * n,
        dot_action_on_left=pair.dot_action_on_left,
        bracket_action_on_left=pair.bracket_action_on_left,
    )
    with pytest.raises(PreconditionError):
        bowtie(broken)


def test_manin_triple_on_worked_double(worked_bialgebra, worked_double):
    j = worked_bialgebra.algebra
    dual = dual_rel_poisson_algebra(worked_bialgebra)
    assert check_manin_triple(j, dual, worked_double.algebra).ok


def test_manin_triple_semidirect_construction():
    # zero dual products: the double is the semidirect product along the
    # dual of the adjoint representation, with the negated derivation
    for name, alg in rel_poisson_corpus():
        data = trivial_bialgebra(alg)
        dual = dual_rel_poisson_algebra(data)
        double = combine_matched_pair(induced_matched_pair(data))
        assert check_manin_triple(alg, dual, double).ok, name


def test_manin_triple_detects_broken_closure(worked_bialgebra, worked_double):
    j = worked_bialgebra.algebra
    dual = dual_rel_poisson_algebra(worked_bialgebra)
    double = worked_double.algebra
    table = [list(row) for row in double.dot.table]
    # a spurious algebra component inside a dual-side product
    vec = list(table[7 + 3][7 + 4])
    vec[1] += F(1)
    table[7 + 3][7 + 4] = tuple(vec)
    broken = RelPoissonAlgebra(
        double.space,
        BilinearOp(double.space, tuple(tuple(r) for r in table)),
        double.bracket,
        double.derivation,
    )
    report = check_manin_triple(j, dual, broken)
    assert not report.ok
    assert any("right-subalgebra" in a for a in report.axioms_failed())


def test_manin_triple_dimension_mismatch(worked_bialgebra, worked_double):
    with pytest.raises(ValueError):
        check_manin_triple(
            worked_bialgebra.algebra, unital2(), worked_double.algebra
        )


def test_manin_factors_dually_represented(worked_bialgebra):
    # inside a Manin triple, the coderivation dually represents the algebra
    # and the derivation's transpose dually represents the dual algebra
    j = worked_bialgebra.algebra
    assert check_dually_represents(j, worked_bialgebra.dual_derivation).ok
    dual = dual_rel_poisson_algebra(worked_bialgebra)
    p_dual = LinearMap(dual.space, dual.space, mat_transpose(j.derivation.entries))
    assert check_dually_represents(dual, p_dual).ok


def test_units_in_doubles_never_leave_the_factors():
    # a double's unit, when it exists, has support inside one factor
    for name, alg in rel_poisson_corpus():
        data = trivial_bialgebra(alg)
        double = combine_matched_pair(induced_matched_pair(data))
        unit = find_unit(double.dot)
        if unit is None:
            continue
        n = alg.dim
        left = any(unit[:n])
        right = any(unit[n:])
        assert not (left and right), name


def unital_candidate_pairs():
    """Matched-pair candidates with both dots unital and unit-preserving
    actions (besides the identity action there is little choice)."""
    out = []
    for left in (unital1(), unital2()):
        for right in (unital1(), unital2()):
            n1, n2 = left.dim, right.dim
            mu1 = tuple(identity_matrix(n2) if find_unit(left.dot)[i] else zero_matrix(n2, n2) for i in range(n1))
            mu2 = tuple(identity_matrix(n1) if find_unit(right.dot)[a] else zero_matrix(n1, n1) for a in range(n2))
            out.append(
                MatchedPairData(
                    left=left,
                    right=right,
                    dot_action_on_right=mu1,
                    bracket_action_on_right=(zero_matrix(n2, n2),) * n1,
                    dot_action_on_left=mu2,
                    bracket_action_on_left=(zero_matrix(n1, n1),) * n2,
                )
            )
    return out


def test_no_unital_double_from_unital_factors():
    # honoring the convention that actions of unital algebras are unital,
    # no candidate with two unital factors yields a unital double
    for pair in unital_candidate_pairs():
        report = check_matched_pair(pair)
        if report.ok:
            double = combine_matched_pair(pair)
            assert find_unit(double.dot) is None
    # and at least the diagonal candidate is rejected outright
    assert not check_matched_pair(unital_candidate_pairs()[0]).ok
