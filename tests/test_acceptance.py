"""Acceptance suite: one test per criterion, each printing a PASS line.

All comparisons are bit-exact; scalars are exact rationals throughout, so
there are no tolerances anywhere.
"""

import time
from fractions import Fraction as F

import pytest

from relpoisson import (
    BialgebraData,
    BilinearOp,
    Comultiplication,
    LinearMap,
    PreconditionError,
    RelPoissonAlgebra,
    RelPrePoissonAlgebra,
    Space,
    bracket_from_derivation,
    check_bialgebra,
    check_coboundary_conditions,
    check_invariant_form,
    check_jacobi_algebra,
    check_manin_triple,
    check_matched_pair,
    check_rel_poisson,
    check_rel_pre_poisson,
    check_rpybe,
    circ_from_derivation,
    coboundary_comults,
    combine_matched_pair,
    comult_to_dual_algebra,
    dual_rel_poisson_algebra,
    dualize_bialgebra,
    extend_jacobi,
    find_unit,
    frobenius_jacobi_pipeline,
    induced_matched_pair,
    is_nondegenerate,
    o_operator_to_rmatrix,
    prepoisson_to_rmatrix,
    semidirect_codrv,
    subadjacent,
)
from relpoisson.algebra import ad_map
from relpoisson.cli import main
from relpoisson.linalg import basis_vector
from dense_matrices import mat_neg

from conftest import (
    FIXTURES,
    heisenberg_poisson,
    neg_map,
    prepoisson_from_zinbiel,
    rel_poisson_corpus,
    tensor,
    trivial_bialgebra,
    unital1,
    unital2,
    worked_prepoisson,
    worked_subadjacent,
    zero_algebra,
    zero_prepoisson,
    zinbiel2,
    zinbiel3,
)


def vec_components(vec):
    return {k: v for k, v in enumerate(vec) if v}


# ---------------------------------------------------------------------------
# criterion 1: golden reproduction of the 14-dimensional example


def test_criterion_1_golden_reproduction(tmp_path, capsys):
    start = time.monotonic()
    pp = worked_prepoisson()
    sub, _rep = subadjacent(pp)
    bialgebra, frobenius = frobenius_jacobi_pipeline(pp)
    elapsed = time.monotonic() - start

    # (a) sub-adjacent products
    assert vec_components(sub.dot.product(0, 0)) == {2: F(2)}
    assert vec_components(sub.dot.product(0, 1)) == {2: F(1)}
    assert vec_components(sub.bracket.product(0, 1)) == {2: F(1)}

    # (b) the seven-dimensional table, completely
    j = bialgebra.algebra
    assert j.space.labels == ("E", "E1", "E2", "E3", "E4", "E5", "E6")
    expected_dot = {
        (1, 1): {3: F(2)},
        (1, 2): {3: F(1)},
        (1, 6): {4: F(1), 5: F(1)},
    }
    expected_bracket = {
        (0, 1): {1: F(1), 2: F(1)},
        (0, 2): {2: F(2)},
        (0, 3): {3: F(3)},
        (0, 4): {4: F(-1)},
        (0, 5): {4: F(-1), 5: F(-2)},
        (0, 6): {6: F(-3)},
        (1, 2): {3: F(1)},
        (1, 6): {4: F(-1), 5: F(-1)},
    }
    for x in range(7):
        for y in range(7):
            if x == 0 or y == 0:
                assert j.dot.product(x, y) == basis_vector(7, max(x, y))
            else:
                want = expected_dot.get((x, y)) or expected_dot.get((y, x)) or {}
                assert vec_components(j.dot.product(x, y)) == want, (x, y)
            if x < y:
                want = expected_bracket.get((x, y), {})
                assert vec_components(j.bracket.product(x, y)) == want, (x, y)

    # (c) comultiplications
    dcom, bcom = bialgebra.dot_comult, bialgebra.bracket_comult
    assert {(i, jj): v for i, jj, k, v in dcom.nonzero_entries() if k == 6} == {
        (4, 4): F(-2),
        (4, 5): F(-1),
        (5, 4): F(-1),
    }
    assert {(i, jj): v for i, jj, k, v in bcom.nonzero_entries() if k == 6} == {
        (4, 5): F(-1),
        (5, 4): F(1),
    }
    for com in (dcom, bcom):
        assert all(not x for row in com.columns[0] for x in row)  # unit column
        assert com.columns[1] == com.columns[2]
    assert {(i, jj): v for i, jj, k, v in dcom.nonzero_entries() if k == 1} == {
        (3, 4): F(-1),
        (4, 3): F(-1),
    }
    assert {(i, jj): v for i, jj, k, v in bcom.nonzero_entries() if k == 1} == {
        (3, 4): F(-1),
        (4, 3): F(1),
    }

    # (d) dual products
    dual_dot = comult_to_dual_algebra(dcom)
    dual_bracket = comult_to_dual_algebra(bcom)
    assert vec_components(dual_dot.product(3, 4)) == {1: F(-1), 2: F(-1)}
    assert vec_components(dual_dot.product(4, 4)) == {6: F(-2)}
    assert vec_components(dual_bracket.product(4, 5)) == {6: F(-1)}

    # (e) the complete mixed block of the fourteen-dimensional double
    double = frobenius.algebra
    assert double.dim == 14
    mixed_dot = {
        (1, 1): {7: F(1)},
        (1, 3): {4: F(-1), 8: F(2), 9: F(1)},
        (1, 4): {3: F(-1), 13: F(1)},
        (1, 5): {13: F(1)},
        (2, 2): {7: F(1)},
        (2, 3): {4: F(-1), 8: F(1)},
        (2, 4): {3: F(-1)},
        (3, 3): {7: F(1)},
        (4, 4): {7: F(1)},
        (5, 5): {7: F(1)},
        (6, 4): {4: F(-2), 5: F(-1), 8: F(1)},
        (6, 5): {4: F(-1), 8: F(1)},
        (6, 6): {7: F(1)},
    }
    mixed_bracket = {
        (0, 1): {8: F(-1)},
        (0, 2): {8: F(-1), 9: F(-2)},
        (0, 3): {10: F(-3)},
        (0, 4): {11: F(1), 12: F(1)},
        (0, 5): {12: F(2)},
        (0, 6): {13: F(3)},
        (1, 1): {7: F(1)},
        (1, 2): {7: F(1)},
        (1, 3): {4: F(-1), 9: F(-1)},
        (1, 4): {3: F(1), 13: F(1)},
        (1, 5): {13: F(1)},
        (2, 2): {7: F(2)},
        (2, 3): {4: F(-1), 8: F(1)},
        (2, 4): {3: F(1)},
        (3, 3): {7: F(3)},
        (4, 4): {7: F(-1)},
        (5, 4): {7: F(-1)},
        (5, 5): {7: F(-2)},
        (6, 4): {5: F(-1), 8: F(-1)},
        (6, 5): {4: F(1), 8: F(-1)},
        (6, 6): {7: F(-3)},
    }
    for x in range(7):
        for a in range(7):
            if x == 0:
                # the unit acts as the identity through the dot
                assert double.dot.product(x, 7 + a) == basis_vector(14, 7 + a)
            else:
                assert vec_components(double.dot.product(x, 7 + a)) == mixed_dot.get(
                    (x, a), {}
                ), ("dot", x, a)
            assert vec_components(double.bracket.product(x, 7 + a)) == mixed_bracket.get(
                (x, a), {}
            ), ("bracket", x, a)
    # the dual factor keeps its own products inside the double
    assert vec_components(double.dot.product(7 + 3, 7 + 4)) == {8: F(-1), 9: F(-1)}
    assert vec_components(double.bracket.product(7 + 4, 7 + 5)) == {13: F(-1)}
    assert find_unit(double.dot) == basis_vector(14, 0)

    # (f) the pairing form
    form = frobenius.form
    assert form.is_symmetric()
    assert is_nondegenerate(form)
    assert check_invariant_form(double, form).ok

    # CLI output is byte-identical to the golden file
    out = tmp_path / "double.json"
    assert main(["pipeline", str(FIXTURES / "prepoisson_3d.json"), "-o", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == (FIXTURES / "golden_double_14d.json").read_bytes()

    assert elapsed < 1.0, f"pipeline took {elapsed:.3f}s"
    print(f"ACCEPTANCE 1 golden-reproduction: PASS ({elapsed:.3f}s)")


# ---------------------------------------------------------------------------
# criterion 2: three-way equivalence on instances and perturbations


def three_way(data: BialgebraData):
    bial = check_bialgebra(data).ok
    pair = induced_matched_pair(data)
    matched = check_matched_pair(pair).ok
    double = combine_matched_pair(pair)
    manin = check_manin_triple(data.algebra, dual_rel_poisson_algebra(data), double).ok
    return bial, matched, manin


def bialgebra_instances():
    out = [("worked-7", None)]  # placeholder replaced in the test (session fixture)
    out = []
    for name, alg in rel_poisson_corpus():
        data = trivial_bialgebra(alg)
        out.append((f"trivial:{name}", data))
        out.append((f"dual:{name}", dualize_bialgebra(data)))
    for tag, pp in (
        ("coboundary-6", worked_prepoisson()),
        ("coboundary-2", zero_prepoisson(1)),
    ):
        semidirect, r = prepoisson_to_rmatrix(pp)
        dcom, bcom = coboundary_comults(semidirect, r)
        out.append(
            (tag, BialgebraData(semidirect, dcom, bcom, neg_map(semidirect.derivation)))
        )
    return out


def perturbations(data: BialgebraData):
    """Deterministic single-constant edits of a bialgebra candidate."""
    n = data.algebra.dim
    if n == 0:
        return
    alg = data.algebra

    def with_op(field, table):
        parts = {
            "dot": alg.dot,
            "bracket": alg.bracket,
        }
        parts[field] = BilinearOp(alg.space, table)
        new_alg = RelPoissonAlgebra(alg.space, parts["dot"], parts["bracket"], alg.derivation)
        return BialgebraData(new_alg, data.dot_comult, data.bracket_comult, data.dual_derivation)

    def bumped(op, i, j, k):
        table = [[list(vec) for vec in row] for row in op.table]
        table[i][j][k] += F(1)
        return tuple(tuple(tuple(vec) for vec in row) for row in table)

    yield "bracket-diagonal", with_op("bracket", bumped(alg.bracket, 0, 0, 0))
    if n > 1:
        yield "dot-asymmetric", with_op("dot", bumped(alg.dot, 0, 1, 0))
        yield "bracket-offdiag", with_op("bracket", bumped(alg.bracket, 0, 1, n - 1))

    def bump_comult(com, i, j, k):
        cols = [[list(row) for row in col] for col in com.columns]
        cols[k][i][j] += F(1)
        return Comultiplication(com.space, cols)

    yield "bracket-comult-diagonal", BialgebraData(
        alg, data.dot_comult, bump_comult(data.bracket_comult, 0, 0, 0), data.dual_derivation
    )
    if n > 1:
        yield "dot-comult-asymmetric", BialgebraData(
            alg, bump_comult(data.dot_comult, 0, 1, 0), data.bracket_comult, data.dual_derivation
        )
    q = [list(row) for row in data.dual_derivation.entries]
    q[0][0] += F(1)
    yield "coderivation-shift", BialgebraData(
        alg,
        data.dot_comult,
        data.bracket_comult,
        LinearMap(alg.space, alg.space, tuple(tuple(r) for r in q)),
    )


def test_criterion_2_equivalence_suite(worked_bialgebra):
    start = time.monotonic()
    instances = bialgebra_instances() + [("worked-7", worked_bialgebra)]
    assert len(instances) >= 21
    for name, data in instances:
        bial, matched, manin = three_way(data)
        assert bial and matched and manin, name

    broken = 0
    for name, data in instances:
        if data.algebra.dim > 6 or broken >= 30:
            continue
        for tag, bad in perturbations(data):
            if not check_bialgebra(bad).ok:
                b, m, n = three_way(bad)
                assert not b and not m and not n, (name, tag)
                broken += 1
    # the worked example gets its own perturbation sweep
    for tag, bad in perturbations(worked_bialgebra):
        b, m, n = three_way(bad)
        assert not b and not m and not n, ("worked-7", tag)
        broken += 1
    assert broken >= 20
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"equivalence suite took {elapsed:.3f}s"
    print(f"ACCEPTANCE 2 equivalence-suite: PASS ({len(instances)} instances, {broken} perturbations, {elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# criterion 3: coboundary conditions agree with the bialgebra checker


def coboundary_corpus(worked_bialgebra):
    """The (algebra, dual map, r) cases of criterion 3."""
    cases = []
    for alg in (
        worked_subadjacent(),
        unital2(),
        heisenberg_poisson(),
        unital1(),
        zero_algebra(2),
    ):
        sp, n = alg.space, alg.dim
        rs = [
            tensor(sp, []),
            tensor(sp, [(0, 0, 1)]),
            tensor(sp, [(0, n - 1, 1)]),
            tensor(sp, [(0, n - 1, 1), (n - 1, 0, -1)]),
            tensor(sp, [(0, n - 1, 1), (n - 1, 0, 1)]),
            tensor(sp, [(0, n - 1, F(1, 2)), (n - 1, 0, F(-1, 2))]),
            tensor(sp, [(0, 0, 1), (0, n - 1, 2), (n - 1, n - 1, -1)]),
        ]
        cases.extend((alg, neg_map(alg.derivation), r) for r in rs)
    # the worked seven-dimensional algebra with its genuine solution and a
    # tampered variant
    j = worked_bialgebra.algebra
    entries = [(i, i + 3, 1) for i in range(1, 4)] + [(i + 3, i, -1) for i in range(1, 4)]
    cases.append((j, worked_bialgebra.dual_derivation, tensor(j.space, entries)))
    cases.append((j, worked_bialgebra.dual_derivation, tensor(j.space, entries[:-1])))
    return cases


def test_criterion_3_coboundary_equivalence(worked_bialgebra):
    cases = coboundary_corpus(worked_bialgebra)
    outcomes = set()
    for alg, codrv, r in cases:
        sweep = check_coboundary_conditions(alg, codrv, r)
        dcom, bcom = coboundary_comults(alg, r)
        induced = BialgebraData(alg, dcom, bcom, codrv)
        assert sweep.ok == check_bialgebra(induced).ok
        outcomes.add(sweep.ok)
    assert outcomes == {True, False}
    print(f"ACCEPTANCE 3 coboundary-equivalence: PASS ({len(cases)} cases)")


# ---------------------------------------------------------------------------
# criterion 4: O-operators give RPYBE solutions; tampering fails


def prepoisson_fixtures():
    star, der = zinbiel3(1, 0)
    return [
        ("worked-3", worked_prepoisson()),
        ("variant-3", prepoisson_from_zinbiel(star, der)),
        ("square-2", prepoisson_from_zinbiel(*zinbiel2())),
        ("zero-1", zero_prepoisson(1)),
        ("zero-2", zero_prepoisson(2)),
    ]


def test_criterion_4_o_operator_suite():
    for name, pp in prepoisson_fixtures():
        alg, rep = subadjacent(pp)
        n = alg.dim
        beta = mat_neg(rep.der_action)
        codrv = neg_map(alg.derivation)
        for operator in (LinearMap.identity(alg.space), LinearMap.zero(alg.space)):
            semidirect, r = o_operator_to_rmatrix(rep, beta, codrv, operator)
            accompanying = semidirect_codrv(rep, codrv, semidirect)
            assert check_rpybe(semidirect, accompanying, r).ok, name
        # the identity embeds as sum e_i (x) e_i* - e_i* (x) e_i
        _semi, r = o_operator_to_rmatrix(rep, beta, codrv, LinearMap.identity(alg.space))
        for i in range(n):
            assert r.coeffs[i][n + i] == 1 and r.coeffs[n + i][i] == -1
        # tampering the operator fails
        rows = [list(row) for row in LinearMap.identity(alg.space).entries]
        rows[0][n - 1] += F(1)
        tampered = LinearMap(alg.space, alg.space, tuple(tuple(r_) for r_ in rows))
        if name.startswith("zero"):
            # everything multiplies to zero, so any map intertwining the
            # derivation stays an O-operator; tamper the intertwining
            bad_beta = [list(row) for row in beta]
            bad_beta[0][0] += F(1)
            with pytest.raises(PreconditionError):
                o_operator_to_rmatrix(
                    rep, tuple(tuple(r_) for r_ in bad_beta), codrv, tampered
                )
        else:
            with pytest.raises(PreconditionError):
                o_operator_to_rmatrix(rep, beta, codrv, tampered)
    print(f"ACCEPTANCE 4 o-operator-suite: PASS ({len(prepoisson_fixtures())} fixtures)")


# ---------------------------------------------------------------------------
# criterion 5: construction theorems over the corpus


def test_criterion_5_construction_theorems(worked_bialgebra):
    # bracket-from-derivation always lands in verified relative Poisson
    checked = 0
    for name, alg in rel_poisson_corpus():
        bracket = bracket_from_derivation(alg.dot, alg.derivation)
        rebuilt = RelPoissonAlgebra(alg.space, alg.dot, bracket, alg.derivation)
        assert check_rel_poisson(rebuilt).ok, name
        checked += 1

    # circ-from-derivation always lands in verified relative pre-Poisson
    zinbiel_corpus = [
        zinbiel3(),
        zinbiel3(1, 0),
        zinbiel3(0, 1, F(1, 2), 0),
        zinbiel3(-1, 2, 0, F(1, 3)),
        zinbiel2(),
        (BilinearOp.zero(Space.of_dim(2)), LinearMap(Space.of_dim(2), Space.of_dim(2), ((1, 2), (0, 1)))),
    ]
    for star, der in zinbiel_corpus:
        circ = circ_from_derivation(star, der)
        pp = RelPrePoissonAlgebra(star.space, star, circ, der)
        assert check_rel_pre_poisson(pp).ok
        checked += 1

    # the unit extension is always a Jacobi algebra with adjoint derivation
    for name, alg in rel_poisson_corpus():
        extended = extend_jacobi(alg)
        assert check_jacobi_algebra(extended.dot, extended.bracket).ok, name
        unit = find_unit(extended.dot)
        assert ad_map(extended.bracket, unit).entries == extended.derivation.entries
        checked += 1

    # coboundary comultiplications kill the unit on every unital fixture,
    # whether or not the tensor solves anything
    unital_fixtures = [unital1(), unital2(), worked_bialgebra.algebra]
    unital_fixtures += [extend_jacobi(alg) for _n, alg in rel_poisson_corpus()[:4]]
    for alg in unital_fixtures:
        unit = find_unit(alg.dot)
        n = alg.dim
        for r in (
            tensor(alg.space, [(0, n - 1, 1)]),
            tensor(alg.space, [(0, 0, F(2, 3)), (n - 1, 0, -1)]),
        ):
            dcom, _b = coboundary_comults(alg, r)
            assert all(not x for row in dcom.of(unit) for x in row)
            checked += 1
    print(f"ACCEPTANCE 5 construction-theorems: PASS ({checked} constructions)")


# ---------------------------------------------------------------------------
# criterion 6: units never appear where the theory forbids them


def test_criterion_6_no_unit_properties():
    zinbiel_corpus = [
        zinbiel3(),
        zinbiel3(1, 0),
        zinbiel3(0, 1),
        zinbiel2(),
        (BilinearOp.zero(Space.of_dim(1)), LinearMap.zero(Space.of_dim(1))),
        (BilinearOp.zero(Space.of_dim(3)), LinearMap.zero(Space.of_dim(3))),
    ]
    for star, der in zinbiel_corpus:
        pp = prepoisson_from_zinbiel(star, der)
        alg, _rep = subadjacent(pp)
        assert find_unit(alg.dot) is None

    # candidate matched pairs with two unital factors and unit-preserving
    # actions never produce a unital double
    from test_pairing import unital_candidate_pairs

    rejected = 0
    for pair in unital_candidate_pairs():
        report = check_matched_pair(pair)
        if report.ok:
            assert find_unit(combine_matched_pair(pair).dot) is None
        else:
            rejected += 1
    assert rejected > 0

    # units of corpus doubles always live inside one factor
    for name, alg in rel_poisson_corpus():
        data = trivial_bialgebra(alg)
        double = combine_matched_pair(induced_matched_pair(data))
        unit = find_unit(double.dot)
        if unit is not None:
            n = alg.dim
            assert not (any(unit[:n]) and any(unit[n:])), name
    print("ACCEPTANCE 6 no-unit-properties: PASS")


# ---------------------------------------------------------------------------
# criterion 7: dualizing twice is the identity up to double-dual


def test_criterion_7_duality_involution(worked_bialgebra):
    from test_coalgebra import transport_along_negated_evaluation

    instances = [data for _n, data in bialgebra_instances()] + [worked_bialgebra]
    for data in instances:
        double_dual = dualize_bialgebra(dualize_bialgebra(data))
        back = transport_along_negated_evaluation(double_dual, data.algebra.space)
        assert back.algebra.dot.table == data.algebra.dot.table
        assert back.algebra.bracket.table == data.algebra.bracket.table
        assert back.algebra.derivation.entries == data.algebra.derivation.entries
        assert back.dual_derivation.entries == data.dual_derivation.entries
        assert back.dot_comult.columns == data.dot_comult.columns
        assert back.bracket_comult.columns == data.bracket_comult.columns
    print(f"ACCEPTANCE 7 duality-involution: PASS ({len(instances)} bialgebras)")
