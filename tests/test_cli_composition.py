"""`check` and `report` sweep each document kind with one composite checker.
Before that, the CLI merged the reports of the public checkers, and of a
whole-form test, with `combine_reports`; that merge is kept here as the
reference.  On seeded documents of dim at most 4, of every kind the CLI
composes, with and without its optional field, `check --json` and
`report`'s failed axioms equal the reference's."""

import json
import random

import pytest

from relpoisson import (
    AxiomReport,
    Violation,
    check_comm_assoc,
    check_derivation,
    check_invariant_form,
    check_lie,
    check_rel_poisson,
    check_representation,
    check_weak_o_operator,
    check_zinbiel,
    combine_reports,
    is_nondegenerate,
)
from relpoisson.cli import _report_json, main
from relpoisson.documents import _Reader, parse_document
from relpoisson.linalg import ONE
from relpoisson.prepoisson import check_prelie

LIMIT, SEEDS = 16, 40
SINGLE_OP = {"comm-assoc": check_comm_assoc, "lie": check_lie, "zinbiel": check_zinbiel, "pre-lie": check_prelie}


def _whole_form(form, symmetric: bool) -> AxiomReport:
    fails = {
        "form-symmetric": symmetric and not form.is_symmetric(),
        "form-nondegenerate": not is_nondegenerate(form),
    }
    violations = tuple(Violation(axiom, (), (ONE,)) for axiom, failed in fails.items() if failed)
    return AxiomReport(not violations, violations)


def reference(kind, structures):
    """The reports the CLI merged, in its order: the kind's own axioms, then
    those its optional field adds."""
    if kind in SINGLE_OP:
        op, der = structures
        return [SINGLE_OP[kind](op)] + ([] if der is None else [check_derivation(op, der)])
    if kind == "rel-poisson":
        alg, form = structures
        with_form = [] if form is None else [check_invariant_form(alg, form), _whole_form(form, True)]
        return [check_rel_poisson(alg)] + with_form
    if kind == "representation":
        rep, extras = structures
        operator = extras.get("operator")
        with_operator = [] if operator is None else [check_weak_o_operator(rep.algebra, rep, rep._alpha, operator)]
        return [check_representation(rep)] + with_operator
    form, alg = structures
    return [_whole_form(form, False)] + ([] if alg is None else [check_invariant_form(alg, form)])


VALUES = ("1", "-1", "2", "1/2")


def _entries(rng, shape, most):
    """Distinct random entries over the shape, at most `most` of them."""
    cells = [()]
    for size in shape:
        cells = [cell + (i,) for cell in cells for i in range(size)]
    picked = rng.sample(cells, rng.randint(0, min(most, len(cells))))
    return [[*cell, rng.choice(VALUES)] for cell in sorted(picked)]


def _algebra(rng, n, most):
    return {
        "kind": "rel-poisson",
        "dim": n,
        "dot": _entries(rng, (n, n, n), most),
        "bracket": _entries(rng, (n, n, n), most),
        "derivation": _entries(rng, (n, n), most),
    }


def document(kind, optional: bool, seed: int):
    """A seeded document of the kind, with its optional field or without.
    Its own entries are at most 2 or 12 by the seed's parity, so that some
    documents fail little before the optional field's part and some fail
    past the limit in it.  With 2, a single product is the diagonal
    e_i e_i = e_i and e_0 e_(n-1) = e_0, on which a dense derivation fails
    at most pairs."""
    rng = random.Random(f"{kind}-{optional}-{seed}")
    n, most = rng.randint(1, 4), 2 if seed % 2 else 12
    if kind in SINGLE_OP:
        diagonal = sorted({(i, i, i) for i in range(n)} | {(0, n - 1, 0)})
        product = [[*cell, "1"] for cell in diagonal] if seed % 2 else _entries(rng, (n, n, n), most)
        doc = {"kind": kind, "dim": n, "product": product}
        return {**doc, "derivation": _entries(rng, (n, n), n * n)} if optional else doc
    if kind == "rel-poisson":
        doc = _algebra(rng, n, most)
        return {**doc, "form": _entries(rng, (n, n), 12)} if optional else doc
    if kind == "representation":
        m = rng.randint(1, 4)
        doc = {"kind": kind, "dim": m, "algebra": _algebra(rng, n, most)}
        for name in ("dot_action", "bracket_action"):
            doc[name] = _entries(rng, (n, m, m), most)
        doc["der_action"] = _entries(rng, (m, m), most)
        return {**doc, "operator": _entries(rng, (n, m), 12)} if optional else doc
    doc = {"kind": kind, "gram": _entries(rng, (n, n), 12)}
    return {**doc, "algebra": _algebra(rng, n, 12)} if optional else {**doc, "dim": n}


KINDS = (*SINGLE_OP, "rel-poisson", "representation", "bilinear-form")
CASES = [(kind, optional) for kind in KINDS for optional in (False, True)]


@pytest.mark.parametrize("kind, optional", CASES)
def test_check_and_report_equal_the_merged_reports(tmp_path, capsys, kind, optional):
    cut_late, seen = 0, set()
    for seed in range(SEEDS):
        path = tmp_path / f"{seed}.json"
        doc = document(kind, optional, seed)
        path.write_text(json.dumps(doc))
        parts = reference(kind, _Reader(parse_document(path.read_text())).structures())
        expected = combine_reports(*parts, limit=LIMIT)
        code = 0 if expected.ok else 1
        assert main(["check", "--json", str(path)]) == code
        assert capsys.readouterr().out == json.dumps(_report_json(expected), indent=1) + "\n"
        assert main(["report", "--json", str(path)]) == code
        assert json.loads(capsys.readouterr().out).get("axioms_failed", []) == list(expected.axioms_failed())
        cut_late += len(parts[0].violations) < LIMIT <= len(expected.violations)
        seen.add((expected.ok, expected.truncated))
    # the corpus holds valid and failing documents, and, with the optional
    # field, some whose 16th violation is one that field adds
    assert {(True, False), (False, False)} <= seen
    assert cut_late or not optional
