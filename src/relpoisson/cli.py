"""Command-line interface: check structures, run constructions, and run
the full pipeline from a relative pre-Poisson algebra to a Frobenius
Jacobi algebra.

Exit codes: 0 ok, 1 axiom failure, 2 precondition/stage failure,
3 parse or I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .algebra import (
    AxiomReport,
    NoUnitError,
    PreconditionError,
    RelPoissonAlgebra,
    Violation,
    bracket_from_derivation,
    check_comm_assoc,
    check_derivation,
    check_lie,
    check_rel_poisson,
    combine_reports,
    find_unit,
)
from .coalgebra import (
    BialgebraData,
    check_bialgebra,
    check_rel_poisson_coalgebra,
    bialgebra_to_matched_pair,
    dualize_bialgebra,
)
from .documents import (
    DocumentError,
    _normalize,
    bialgebra_doc,
    doc_to_bialgebra,
    doc_to_bilinear_form,
    doc_to_coalgebra,
    doc_to_rel_poisson,
    doc_to_rel_pre_poisson,
    doc_to_representation,
    doc_to_rmatrix,
    doc_to_single_op,
    parse_document,
    rel_poisson_doc,
    rel_pre_poisson_doc,
    rmatrix_doc,
    serialize_document,
    validate_document,
)
from .jacobi import _STAGES, PipelineError, extend_jacobi, frobenius_jacobi_pipeline
from .linalg import ONE
from .pairing import bowtie, check_invariant_form, is_nondegenerate
from .prepoisson import (
    RelPrePoissonAlgebra,
    check_prelie,
    check_rel_pre_poisson,
    check_zinbiel,
    circ_from_derivation,
    subadjacent,
)
from .representations import check_representation, semidirect_product
from .yangbaxter import check_rpybe, check_weak_o_operator, coboundary_comults, o_operator_to_rmatrix, semidirect_codrv

OK, AXIOM_FAILURE, PRECONDITION_FAILURE, PARSE_FAILURE = 0, 1, 2, 3


def _read_document(path: str):
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from None
    return parse_document(text)


def _report_json(report: AxiomReport):
    return {
        "ok": report.ok,
        "violations": [
            {
                "axiom": v.axiom,
                "where": list(v.where),
                "defect": [str(x) for x in v.defect],
            }
            for v in report.violations
        ],
        "truncated": report.truncated,
    }


def _print_report(report: AxiomReport, as_json: bool):
    if as_json:
        print(json.dumps(_report_json(report), indent=1))
        return
    if report.ok:
        print("ok")
        return
    print(f"FAILED ({len(report.violations)} violation(s) shown)")
    for v in report.violations:
        print(f"  {v}")
    if report.truncated:
        print("  ... further violations suppressed")


_SINGLE_OP_CHECKERS = {
    "comm-assoc": check_comm_assoc,
    "lie": check_lie,
    "zinbiel": check_zinbiel,
    "pre-lie": check_prelie,
}


def _check_dispatch(doc, kind: str) -> AxiomReport:
    if kind in _SINGLE_OP_CHECKERS:
        op, der = doc_to_single_op(doc)
        report = _SINGLE_OP_CHECKERS[kind](op)
        if der is not None:
            report = combine_reports(report, check_derivation(op, der))
        return report
    if kind == "rel-poisson":
        alg, form = doc_to_rel_poisson(doc)
        report = check_rel_poisson(alg)
        if form is not None:
            extra = check_invariant_form(alg, form)
            report = combine_reports(report, extra)
            if not form.is_symmetric():
                report = combine_reports(
                    report, _single_violation("form-symmetric")
                )
            if not is_nondegenerate(form):
                report = combine_reports(
                    report, _single_violation("form-nondegenerate")
                )
        return report
    if kind == "rel-pre-poisson":
        return check_rel_pre_poisson(doc_to_rel_pre_poisson(doc))
    if kind == "representation":
        rep, extras = doc_to_representation(doc)
        report = check_representation(rep)
        if "operator" in extras:
            report = combine_reports(
                report,
                check_weak_o_operator(
                    rep.algebra, rep, rep._alpha, extras["operator"]
                ),
            )
        return report
    if kind == "comultiplication":
        dot_comult, bracket_comult, codrv = doc_to_coalgebra(doc)
        return check_rel_poisson_coalgebra(dot_comult, bracket_comult, codrv)
    if kind == "bialgebra":
        return check_bialgebra(doc_to_bialgebra(doc))
    if kind == "rmatrix":
        alg, tensor, codrv = doc_to_rmatrix(doc)
        return check_rpybe(alg, codrv, tensor)
    if kind == "bilinear-form":
        form, alg = doc_to_bilinear_form(doc)
        report = AxiomReport(True, ())
        if not is_nondegenerate(form):
            report = combine_reports(report, _single_violation("form-nondegenerate"))
        if alg is not None:
            report = combine_reports(report, check_invariant_form(alg, form))
        return report
    raise DocumentError(f"unknown kind: {kind!r}")


def _single_violation(axiom: str) -> AxiomReport:
    return AxiomReport(False, (Violation(axiom, (), (ONE,)),))


def cmd_check(args) -> int:
    doc = _read_document(args.file)
    if args.as_kind:
        doc = dict(doc, kind=args.as_kind)
        validate_document(doc)
    report = _check_dispatch(doc, doc["kind"])
    _print_report(report, args.json)
    return OK if report.ok else AXIOM_FAILURE


def _write_output(doc, out_path):
    text = serialize_document(doc)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


_RECIPE_KINDS = {
    "bracket-from-derivation": ("comm-assoc",),
    "circ-from-derivation": ("zinbiel",),
    "subadjacent": ("rel-pre-poisson", "zinbiel"),
    "semidirect": ("representation",),
    "dualize": ("bialgebra",),
    "extend-jacobi": ("rel-poisson",),
    "coboundary": ("rmatrix",),
    "o-operator-rmatrix": ("representation",),
    "bowtie": ("bialgebra",),
}


def _derived_op(doc):
    """The product of a single-operation document and its derivation."""
    op, der = doc_to_single_op(doc)
    if der is None:
        raise DocumentError("document carries no derivation")
    return op, der


def _zinbiel_pre_poisson(doc):
    """The relative pre-Poisson algebra of a Zinbiel algebra with derivation."""
    op, der = _derived_op(doc)
    return RelPrePoissonAlgebra(op.space, op, circ_from_derivation(op, der), der)


def cmd_construct(args) -> int:
    doc = _read_document(args.file)
    recipe = args.recipe
    kind = doc["kind"]
    if kind not in _RECIPE_KINDS[recipe]:
        expected = " or ".join(_RECIPE_KINDS[recipe])
        raise DocumentError(f"recipe {recipe} expects a {expected} document, got {kind}")
    if recipe == "bracket-from-derivation":
        op, der = _derived_op(doc)
        bracket = bracket_from_derivation(op, der)
        alg = RelPoissonAlgebra(op.space, op, bracket, der)
        out = rel_poisson_doc(alg)
    elif recipe == "circ-from-derivation":
        out = rel_pre_poisson_doc(_zinbiel_pre_poisson(doc))
    elif recipe == "subadjacent":
        pp = _zinbiel_pre_poisson(doc) if kind == "zinbiel" else doc_to_rel_pre_poisson(doc)
        alg, _rep = subadjacent(pp)
        out = rel_poisson_doc(alg)
    elif recipe == "semidirect":
        rep, _extras = doc_to_representation(doc)
        out = rel_poisson_doc(semidirect_product(rep.algebra, rep))
    elif recipe == "extend-jacobi":
        alg, _form = doc_to_rel_poisson(doc)
        out = rel_poisson_doc(extend_jacobi(alg))
    elif recipe == "dualize":
        out = bialgebra_doc(dualize_bialgebra(doc_to_bialgebra(doc)))
    elif recipe == "coboundary":
        alg, tensor, codrv = doc_to_rmatrix(doc)
        dot_comult, bracket_comult = coboundary_comults(alg, tensor)
        out = bialgebra_doc(BialgebraData(alg, dot_comult, bracket_comult, codrv))
    elif recipe == "o-operator-rmatrix":
        rep, extras = doc_to_representation(doc)
        if "operator" not in extras:
            raise DocumentError("o-operator-rmatrix needs an operator field")
        beta = extras.get("beta", rep._alpha.neg())
        codrv = extras.get("dual_derivation", rep.algebra.derivation.neg())
        semidirect, tensor = o_operator_to_rmatrix(
            rep, beta, codrv, extras["operator"]
        )
        out = rmatrix_doc(semidirect, tensor, semidirect_codrv(rep, codrv, semidirect))
    else:  # bowtie
        out = rel_poisson_doc(bowtie(bialgebra_to_matched_pair(doc_to_bialgebra(doc))))
    _write_output(out, args.output)
    return OK


def cmd_pipeline(args) -> int:
    doc = _read_document(args.file)
    if doc["kind"] != "rel-pre-poisson":
        raise DocumentError("pipeline expects a rel-pre-poisson document")
    pp = doc_to_rel_pre_poisson(doc)
    bialgebra, frobenius = frobenius_jacobi_pipeline(pp)
    out = rel_poisson_doc(frobenius.algebra, form=frobenius.form)
    if args.json:
        print(
            json.dumps(
                {
                    "stages": [{"stage": s, "ok": True} for s in _STAGES],
                    "document": _normalize(out),
                },
                indent=1,
            )
        )
        return OK
    for stage in _STAGES:
        print(f"stage {stage}: ok", file=sys.stderr)
    _write_output(out, args.output)
    return OK


def cmd_report(args) -> int:
    doc = _read_document(args.file)
    kind = doc["kind"]
    info = {"kind": kind}
    if "dim" in doc:
        info["dim"] = doc["dim"]
    # every entry is validated first; a field listing none is left out
    norm = _normalize(doc)
    info["nonzero_entries"] = {
        key: len(norm[key])
        for key, value in doc.items()
        if isinstance(value, list) and value and isinstance(value[0], list)
    }
    op = None
    if kind in ("comm-assoc", "zinbiel", "pre-lie"):
        op = doc_to_single_op(doc)[0]
    elif kind == "rel-poisson":
        op = doc_to_rel_poisson(doc)[0].dot
    elif kind == "bialgebra":
        op = doc_to_bialgebra(doc).algebra.dot
    unit = find_unit(op) if op is not None else None
    if unit is not None:
        terms = [f"{c}*{op.space.labels[i]}" for i, c in enumerate(unit) if c]
        info["unit"] = " + ".join(terms) if terms else "0"
    report = _check_dispatch(doc, kind)
    info["ok"] = report.ok
    if not report.ok:
        info["axioms_failed"] = list(report.axioms_failed())
    if args.json:
        print(json.dumps(info, indent=1))
    else:
        for key, value in info.items():
            print(f"{key}: {value}")
    return OK if report.ok else AXIOM_FAILURE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relpoisson",
        description="Exact checkers and constructions for relative Poisson "
        "algebras, bialgebras, Yang-Baxter solutions, and Frobenius Jacobi algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="verify the axioms of a structure document")
    p.add_argument("file")
    p.add_argument("--as", dest="as_kind", metavar="KIND", help="reinterpret the document kind")
    p.add_argument("--json", action="store_true", help="emit the report as JSON")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("construct", help="run a construction recipe")
    p.add_argument("recipe", choices=_RECIPE_KINDS)
    p.add_argument("file")
    p.add_argument("-o", "--output", help="write the result here instead of stdout")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser(
        "pipeline",
        help="full construction from a relative pre-Poisson algebra to a "
        "Frobenius Jacobi algebra",
    )
    p.add_argument("file")
    p.add_argument("-o", "--output", help="write the final document here")
    p.add_argument("--json", action="store_true", help="emit stages and document as JSON")
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("report", help="summarize a structure document")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DocumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return PARSE_FAILURE
    except (PreconditionError, NoUnitError) as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return PRECONDITION_FAILURE
    except PipelineError as exc:
        print(f"pipeline failed: {exc}", file=sys.stderr)
        return PRECONDITION_FAILURE


if __name__ == "__main__":
    sys.exit(main())
