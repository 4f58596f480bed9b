"""Unit extension, representation extension, O-operator lift, pipeline."""

import ast
import dataclasses
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

import pytest

from relpoisson import (
    BialgebraData,
    Comultiplication,
    LinearMap,
    PipelineError,
    PreconditionError,
    RelPoissonAlgebra,
    RelPrePoissonAlgebra,
    RepData,
    adjoint_rep,
    bialgebra_to_matched_pair,
    bowtie,
    bracket_from_derivation,
    check_bialgebra,
    check_jacobi_algebra,
    check_jacobi_representation,
    check_matched_pair,
    check_rel_poisson,
    check_representation,
    check_weak_o_operator,
    circ_from_derivation,
    combine_reports,
    dualize_bialgebra,
    extend_jacobi,
    extend_representation,
    find_unit,
    frobenius_jacobi_pipeline,
    induced_matched_pair,
    lift_o_operator,
    o_operator_to_rmatrix,
    semidirect_product,
    subadjacent,
)
from relpoisson import algebra, coalgebra, documents, jacobi, yangbaxter
from relpoisson.algebra import BilinearOp, ad_map
from relpoisson.linalg import Space, basis_vector
from dense_matrices import identity_matrix

from conftest import (
    FIXTURES,
    broken_subadjacent,
    heisenberg_poisson,
    linmap,
    rel_poisson_corpus,
    worked_prepoisson,
    worked_subadjacent,
    zero_algebra,
    zero_prepoisson,
    zinbiel3,
)


def test_extend_jacobi_worked_example():
    extended = extend_jacobi(worked_subadjacent())
    assert extended.dim == 4
    lab = extended.space.labels
    assert lab[0] == "e"
    # [e, e1] = e1 + e2, [e, e2] = 2 e2, [e, e3] = 3 e3
    assert extended.bracket.product(0, 1) == (F(0), F(1), F(1), F(0))
    assert extended.bracket.product(0, 2) == (F(0), F(0), F(2), F(0))
    assert extended.bracket.product(0, 3) == (F(0), F(0), F(0), F(3))
    assert find_unit(extended.dot) == (1, 0, 0, 0)
    assert check_jacobi_algebra(extended.dot, extended.bracket).ok


def test_extend_jacobi_zero_algebra():
    extended = extend_jacobi(zero_algebra(2))
    assert extended.dim == 3
    assert find_unit(extended.dot) == (1, 0, 0)
    assert extended.bracket.is_zero()


def test_extend_jacobi_poisson_input_has_central_unit():
    extended = extend_jacobi(heisenberg_poisson())
    unit = find_unit(extended.dot)
    assert unit == (1, 0, 0, 0)
    for j in range(4):
        assert not any(extended.bracket.apply(unit, basis_vector(4, j)))


@pytest.mark.parametrize("name,alg", rel_poisson_corpus())
def test_extend_jacobi_always_jacobi_with_adjoint_derivation(name, alg):
    extended = extend_jacobi(alg)
    assert check_jacobi_algebra(extended.dot, extended.bracket).ok, name
    unit = find_unit(extended.dot)
    assert unit is not None, name
    assert ad_map(extended.bracket, unit).entries == extended.derivation.entries, name


def test_extend_jacobi_primes_a_taken_unit_label():
    sp = Space(("e", "e'", "x"))
    alg = RelPoissonAlgebra(
        sp, BilinearOp.zero(sp), BilinearOp.zero(sp), linmap(sp, ((1, 0, 0), (0, 2, 0), (0, 0, 3)))
    )
    extended = extend_jacobi(alg)
    assert extended.space.labels == ("e''", "e", "e'", "x")
    unit = find_unit(extended.dot)
    assert unit == basis_vector(4, 0)
    assert ad_map(extended.bracket, unit).entries == extended.derivation.entries


def test_extend_jacobi_rejects_invalid_input():
    alg = worked_subadjacent()
    broken = alg.__class__(
        alg.space, alg.dot, alg.bracket, linmap(alg.space, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    )
    with pytest.raises(PreconditionError):
        extend_jacobi(broken)


def test_extend_representation_worked_example():
    _alg, rep = subadjacent(worked_prepoisson())
    extended, ext_rep = extend_representation(rep)
    assert ext_rep.dot_action[0] == identity_matrix(3)
    assert ext_rep.bracket_action[0] == rep.der_action
    assert check_representation(ext_rep).ok
    assert check_jacobi_representation(
        extended.dot, extended.bracket, ext_rep.dot_action, ext_rep.bracket_action, ext_rep.space
    ).ok


def test_extend_representation_zero_module():
    alg = zero_algebra(2)
    rep = adjoint_rep(alg)
    extended, ext_rep = extend_representation(rep)
    assert ext_rep.dot_action[0] == identity_matrix(2)
    assert all(not x for row in ext_rep.bracket_action[0] for x in row)
    assert check_representation(ext_rep).ok


def test_extend_representation_tampered_unit_action_fails():
    _alg, rep = subadjacent(worked_prepoisson())
    extended, ext_rep = extend_representation(rep)
    doubled = ext_rep.__class__(
        algebra=ext_rep.algebra,
        space=ext_rep.space,
        dot_action=(tuple(tuple(2 * x for x in row) for row in identity_matrix(3)),)
        + ext_rep.dot_action[1:],
        bracket_action=ext_rep.bracket_action,
        der_action=ext_rep.der_action,
    )
    assert not check_representation(doubled).ok
    report = check_jacobi_representation(
        extended.dot, extended.bracket, doubled.dot_action, doubled.bracket_action, doubled.space
    )
    assert not report.ok and "dot-action-unital" in report.axioms_failed()


@pytest.mark.parametrize("ones", [False, True], ids=["whole", "truncated"])
def test_extend_representation_sweeps_its_hypotheses_in_one_contraction(monkeypatch, ones):
    """A failing algebra and a failing representation of it, its adjoint
    one or one with all-ones actions on a plane (which fails past the
    limit): the extension sweeps both in one contraction and reports what
    the two checkers report, merged and cut at the limit."""
    broken = broken_subadjacent()
    full = ((1, 1), (1, 1))
    rep = RepData(broken, Space.of_dim(2, "v"), (full,) * 3, (full,) * 3, full) if ones else adjoint_rep(broken)
    reports = check_rel_poisson(broken), check_representation(rep)
    assert not any(r.ok for r in reports)
    calls, contract = [], algebra._contract
    monkeypatch.setattr(algebra, "_contract", lambda *args: calls.append(args) or contract(*args))
    with pytest.raises(PreconditionError) as failed:
        extend_representation(rep)
    assert len(calls) == 1
    assert failed.value.report == combine_reports(*reports)
    assert failed.value.report.truncated == ones
    assert str(failed.value).startswith("not a representation of a relative Poisson algebra: dot:commutative")


def test_lift_o_operator():
    _alg, rep = subadjacent(worked_prepoisson())
    lift = lift_o_operator(rep, LinearMap.identity(rep.space))
    extended = lift.rep.algebra
    assert extended.dim == 4
    assert check_weak_o_operator(
        extended, lift.rep, lift.rep.der_action, lift.operator
    ).ok
    zero_lift = lift_o_operator(rep, LinearMap.zero(rep.space))
    assert zero_lift.operator.is_zero()


def test_lift_o_operator_rejects_broken_intertwining():
    _alg, rep = subadjacent(worked_prepoisson())
    bad = LinearMap(rep.space, rep.algebra.space, ((1, 1, 0), (0, 1, 0), (0, 0, 1)))
    with pytest.raises(PreconditionError):
        lift_o_operator(rep, bad)


@pytest.mark.parametrize("rows", [((1, 1, 0), (0, 1, 0), (0, 0, 1)), ((1, 1, 1),) * 3], ids=["whole", "truncated"])
def test_lift_sweeps_its_preconditions_in_one_contraction(monkeypatch, rows):
    """A non-commutative dot, its adjoint representation and an operator
    that is not an O-operator fail all three checkers; the lift sweeps
    them in one contraction and reports what they report, merged and cut
    at the limit (the second operator fails past it)."""
    broken = broken_subadjacent()
    sp = broken.space
    rep, operator = adjoint_rep(broken), LinearMap(sp, sp, rows)
    reports = check_rel_poisson(broken), check_representation(rep), check_weak_o_operator(broken, rep, rep._alpha, operator)
    assert not any(r.ok for r in reports)
    _alg, valid = subadjacent(worked_prepoisson())
    calls, contract = [], algebra._contract
    monkeypatch.setattr(algebra, "_contract", lambda *args: calls.append(args) or contract(*args))
    with pytest.raises(PreconditionError) as failed:
        lift_o_operator(rep, operator)
    assert len(calls) == 1
    assert failed.value.report == combine_reports(*reports)
    lift_o_operator(valid, LinearMap.identity(valid.space))
    assert len(calls) == 2


def test_pipeline_zero_input_gives_six_dimensional_output():
    bialgebra, frobenius = frobenius_jacobi_pipeline(zero_prepoisson(1))
    assert frobenius.algebra.dim == 6
    assert find_unit(frobenius.algebra.dot) == frobenius.unit
    assert check_jacobi_algebra(frobenius.algebra.dot, frobenius.algebra.bracket).ok
    assert frobenius.form.is_symmetric()


def test_pipeline_degenerate_and_small_inputs():
    # dimension zero extends to the ground field and doubles to dim 2
    _bia, frob = frobenius_jacobi_pipeline(zero_prepoisson(0))
    assert frob.algebra.dim == 2
    assert find_unit(frob.algebra.dot) == basis_vector(2, 0)
    # a genuine 2-dimensional input runs the whole chain to dim 10
    from conftest import prepoisson_from_zinbiel, zinbiel2

    _bia, frob = frobenius_jacobi_pipeline(prepoisson_from_zinbiel(*zinbiel2()))
    assert frob.algebra.dim == 10
    assert check_jacobi_algebra(frob.algebra.dot, frob.algebra.bracket).ok


def test_pipeline_rejects_invalid_input():
    star, _ = (BilinearOp.from_entries(Space.of_dim(2), [(0, 0, 1, 1), (1, 0, 0, 1)]), None)
    bad = RelPrePoissonAlgebra(
        star.space, star, BilinearOp.zero(star.space), LinearMap.zero(star.space)
    )
    with pytest.raises(PipelineError) as err:
        frobenius_jacobi_pipeline(bad)
    assert err.value.stage == "pre-poisson"


def test_pipeline_bialgebra_stage_failure_names_its_constructor(monkeypatch):
    # e2 -> e2 (x) e2 added to the coboundary dot comultiplication: the unit
    # e1 is still killed, so the coboundary stage passes and the bialgebra
    # stage is the first to fail
    built, coboundary = [], jacobi.coboundary_comults

    def perturbed(alg, r):
        dot, bracket = coboundary(alg, r)
        dot = Comultiplication.from_entries(alg.space, dot.nonzero_entries() + [(1, 1, 1, 1)])
        built.append(BialgebraData(alg, dot, bracket, alg.derivation.neg()))
        return dot, bracket

    monkeypatch.setattr(jacobi, "coboundary_comults", perturbed)
    with pytest.raises(PipelineError) as err:
        frobenius_jacobi_pipeline(worked_prepoisson())
    (bialgebra,) = built
    report = check_bialgebra(bialgebra)
    assert not report.ok and err.value.report == report
    failed = ", ".join(report.axioms_failed())
    assert (err.value.stage, str(err.value)) == (
        "bialgebra",
        f"stage bialgebra: not a relative Poisson bialgebra: {failed}",
    )


def test_pipeline_matched_pair_stage_failure_names_its_constructor(monkeypatch):
    # the valid bialgebra's matched pair with the left factor's dot action
    # doubled: the bialgebra stage passes and the matched-pair stage fails
    built, induced = [], coalgebra.induced_matched_pair

    def perturbed(data):
        pair = induced(data)
        doubled = tuple(tuple(tuple(2 * x for x in row) for row in mat) for mat in pair.dot_action_on_right)
        built.append(dataclasses.replace(pair, dot_action_on_right=doubled))
        return built[-1]

    monkeypatch.setattr(coalgebra, "induced_matched_pair", perturbed)
    with pytest.raises(PipelineError) as err:
        frobenius_jacobi_pipeline(worked_prepoisson())
    (pair,) = built
    report = check_matched_pair(pair)
    assert not report.ok and err.value.report == report
    failed = ", ".join(report.axioms_failed())
    assert str(err.value) == f"stage matched-pair: not a matched pair: {failed}"


# The families one pipeline call sweeps, by axiom name without prefixes,
# each as often as it is swept: each stage's facts once, as written when
# every checker swept its families one sweep at a time.  relative-leibniz
# and the comm-assoc and Lie families run once for each relative Poisson
# algebra checked (the sub-adjacent algebra, the bialgebra's, the two
# factors of the matched pair and the double); derivation twice more, for
# the pre-Poisson products; the representation families once each for the
# O-operator lift, its rmatrix and the matched pair's two sides.
PIPELINE_FAMILIES = {
    "action-leibniz": 4, "anticocommutative": 1, "associative": 6, "aybe": 1,
    "bracket-action": 5, "bracket-cocycle": 1, "bracket-invariance": 1,
    "bracket-matched-left": 1, "bracket-matched-right": 1, "co-jacobi": 1, "co-leibniz": 1,
    "coassociative": 1, "cocommutative": 1, "coderivation-bracket": 1, "coderivation-dot": 1,
    "commutative": 6, "compatibility": 4, "comult-intertwine-bracket": 1,
    "comult-intertwine-dot": 1, "comult-triple-product": 1, "cross-compatibility-left": 1,
    "cross-compatibility-right": 1, "cross-leibniz-left": 1, "cross-leibniz-right": 1,
    "cybe": 1, "derivation": 12, "derivation-left-block": 1, "derivation-right-block": 1,
    "dot-action": 5, "dot-action-unital": 1, "dot-cocycle": 1, "dot-invariance": 1,
    "dot-matched-left": 1, "dot-matched-right": 1, "dual-adjoint-bracket": 1,
    "dual-adjoint-cyclic": 1, "dual-adjoint-dot": 1, "dual-rep-bracket": 1, "dual-rep-dot": 1,
    "dual-rep-leibniz": 1, "dual-triple-product": 1, "endo-bracket": 4, "endo-dot": 4,
    "intertwine-coderivation": 1, "intertwine-derivation": 1, "jacobi": 6,
    "left-subalgebra-bracket": 1, "left-subalgebra-dot": 1, "mixed-bracket-dot": 1,
    "mixed-bracket-side": 1, "mixed-dot-bracket": 1, "mixed-dot-side": 1,
    "operator-bracket": 2, "operator-dot": 2, "operator-intertwine": 3, "pre-lie": 1,
    "relative-leibniz": 5, "right-subalgebra-bracket": 1, "right-subalgebra-dot": 1,
    "unital-action-leibniz": 1, "unital-compatibility": 1, "unital-leibniz": 1, "zinbiel": 1,
}


def _families(checker):
    """Every family a checker's one contraction sweeps, in order."""
    for section in checker.sections if isinstance(checker, algebra._Checker) else (checker,):
        if isinstance(section, algebra._Use):
            yield from _families(section.checker)
        elif not callable(section[0]):  # a hand loop sweeps no family
            yield from section


def test_pipeline_verifies_each_fact_once(monkeypatch):
    pp = worked_prepoisson()
    swept = Counter()
    contract = algebra._contract

    def counted(checker, tables):
        swept.update(axiom for axiom, _, _, _ in _families(checker))
        return contract(checker, tables)

    monkeypatch.setattr(algebra, "_contract", counted)
    frobenius_jacobi_pipeline(pp)
    assert dict(swept) == PIPELINE_FAMILIES


def _checker_contractions(monkeypatch) -> list:
    """The checkers contracted from now on; the construction specs
    _DERIVED_PRODUCT and _COBOUNDARY, which build an output, are left out."""
    calls, contract = [], algebra._contract
    builds = (algebra._DERIVED_PRODUCT, yangbaxter._COBOUNDARY)

    def counted(checker, tables):
        if not any(checker is spec for spec in builds):
            calls.append(checker)
        return contract(checker, tables)

    monkeypatch.setattr(algebra, "_contract", counted)
    return calls


def test_every_verified_constructor_sweeps_its_hypotheses_in_one_contraction(monkeypatch, worked_bialgebra):
    # prepoisson_to_rmatrix, which chains subadjacent and o_operator_to_rmatrix, makes two
    pp = worked_prepoisson()
    alg, rep = subadjacent(pp)
    codrv, ident = pp.derivation.neg(), LinearMap.identity(rep.space)
    constructors = {
        bracket_from_derivation: (alg.dot, alg.derivation),
        circ_from_derivation: zinbiel3(),
        subadjacent: (pp,),
        semidirect_product: (alg, rep),
        extend_jacobi: (alg,),
        extend_representation: (rep,),
        lift_o_operator: (rep, ident),
        o_operator_to_rmatrix: (rep, codrv, codrv, ident),
        dualize_bialgebra: (worked_bialgebra,),
        bialgebra_to_matched_pair: (worked_bialgebra,),
        bowtie: (induced_matched_pair(worked_bialgebra),),
    }
    calls, counts = _checker_contractions(monkeypatch), {}
    for construct, args in constructors.items():
        calls.clear()
        construct(*args)
        counts[construct.__name__] = len(calls)
    assert counts == {construct.__name__: 1 for construct in constructors}


def test_a_pipeline_call_makes_one_contraction_per_stage_that_sweeps(monkeypatch):
    # every stage but coboundary sweeps, and each sweeps its facts as one checker
    doc = documents.parse_document((FIXTURES / "prepoisson_3d.json").read_text())
    pp = documents.doc_to_rel_pre_poisson(doc)
    calls = _checker_contractions(monkeypatch)
    frobenius_jacobi_pipeline(pp)
    assert len(calls) == 9 == len(jacobi._STAGES) - 1


def test_pipeline_builds_the_dual_algebra_once(monkeypatch):
    """The matched pair's right algebra is the dual the Manin triple check reads."""
    built, dual = [], coalgebra.dual_rel_poisson_algebra

    def counted(data):
        built.append(data)
        return dual(data)

    monkeypatch.setattr(coalgebra, "dual_rel_poisson_algebra", counted)
    monkeypatch.setattr(jacobi, "dual_rel_poisson_algebra", counted, raising=False)
    frobenius_jacobi_pipeline(worked_prepoisson())
    assert len(built) == 1


# ---------------------------------------------------------------------------
# set-up cost: nothing is planned at import, and a first pipeline call
# plans each term of the families it sweeps once


def _fresh_process(code: str) -> str:
    """The standard output of ``code`` run in a fresh interpreter that
    imports the package from this checkout."""
    root = Path(__file__).resolve().parent.parent
    src = str(root / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], cwd=root, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_plans_and_flattens_nothing():
    out = _fresh_process(
        "import importlib, pkgutil, relpoisson\n"
        "for info in pkgutil.iter_modules(relpoisson.__path__):\n"
        "    module = importlib.import_module(f'relpoisson.{info.name}')\n"
        "    for name, value in vars(module).items():\n"
        "        if hasattr(value, 'cache_info'):\n"
        "            print(f'{info.name}.{name}', value.cache_info().currsize)\n"
    )
    caches = dict(line.split() for line in out.splitlines())
    assert {"algebra._compile", "algebra._sections"} <= set(caches)
    assert set(caches.values()) == {"0"}, caches


def test_a_first_pipeline_call_plans_each_term_once():
    # 218 is the number of terms of the families the pipeline sweeps, each
    # planned once however many checkers use it
    out = _fresh_process(
        "from relpoisson import algebra, documents, frobenius_jacobi_pipeline\n"
        "plans, plan = [], algebra._plan\n"
        "algebra._plan = lambda *args: plans.append(args) or plan(*args)\n"
        "doc = documents.parse_document(open('fixtures/prepoisson_zero_1d.json').read())\n"
        "frobenius_jacobi_pipeline(documents.doc_to_rel_pre_poisson(doc))\n"
        "print(len(plans))\n"
    )
    assert int(out) <= 218


def test_pipeline_unit_biconditional(worked_bialgebra, worked_double):
    # the double's multiplication is unital exactly when the dot
    # comultiplication kills the unit; coboundary comultiplications always do
    unit_vec = basis_vector(7, 0)
    assert all(not x for row in worked_bialgebra.dot_comult.of(unit_vec) for x in row)
    assert find_unit(worked_double.algebra.dot) == basis_vector(14, 0)


def test_unit_biconditional_on_structural_doubles():
    # the unit survives into the double exactly when the comultiplication
    # kills it, tested on structural doubles of the dual-number algebra
    from relpoisson.coalgebra import (
        BialgebraData,
        Comultiplication,
        induced_matched_pair,
    )
    from relpoisson.pairing import combine_matched_pair
    from conftest import neg_map, unital2

    alg = unital2()
    cases = [
        (Comultiplication.zero(alg.space), True),
        # image of the non-unit generator only: still kills the unit
        (Comultiplication.from_entries(alg.space, [(1, 1, 1, 1)]), True),
        # image of the unit nonzero: the double loses the unit
        (Comultiplication.from_entries(alg.space, [(0, 0, 0, 1), (1, 1, 0, -1)]), False),
    ]
    for comult, expect_unit in cases:
        data = BialgebraData(
            alg, comult, Comultiplication.zero(alg.space), neg_map(alg.derivation)
        )
        double = combine_matched_pair(induced_matched_pair(data))
        unit = find_unit(double.dot)
        if expect_unit:
            assert unit == basis_vector(4, 0)
        else:
            assert unit is None


def test_pipeline_intermediate_matches_golden_table(worked_bialgebra):
    j = worked_bialgebra.algebra
    assert j.space.labels == ("E", "E1", "E2", "E3", "E4", "E5", "E6")
    expected_dot = {
        (1, 1): {3: F(2)},
        (1, 2): {3: F(1)},
        (1, 6): {4: F(1), 5: F(1)},
    }
    for (i, jdx), comps in expected_dot.items():
        vec = j.dot.product(i, jdx)
        assert {k: v for k, v in enumerate(vec) if v} == comps
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
    for (i, jdx), comps in expected_bracket.items():
        vec = j.bracket.product(i, jdx)
        assert {k: v for k, v in enumerate(vec) if v} == comps
    # the table above is the complete list: everything else vanishes
    for i in range(7):
        for jdx in range(i + 1, 7):
            if (i, jdx) not in expected_bracket:
                assert not any(j.bracket.product(i, jdx))
            if (i, jdx) not in expected_dot and i != 0:
                assert not any(j.dot.product(i, jdx))


def test_pipeline_derivation_is_adjoint_of_unit(worked_double):
    double = worked_double.algebra
    unit = worked_double.unit
    assert ad_map(double.bracket, unit).entries == double.derivation.entries


def test_every_stage_the_pipeline_names_is_in_its_stage_tuple():
    """The stage names the CLI prints come from ``jacobi._STAGES``; every
    name the pipeline reports a stage by is one of them, and each of them
    is used."""
    tree = ast.parse(Path(jacobi.__file__).read_text())
    named = {
        node.args[0].value
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", None) in ("stage", "verified", "PipelineError")
        and node.args
        and isinstance(node.args[0], ast.Constant)
    }
    assert named == set(jacobi._STAGES)
    assert len(jacobi._STAGES) == len(set(jacobi._STAGES)) == 10
