"""Command-line interface: check structures, run constructions, and run
the full pipeline from a relative pre-Poisson algebra to a Frobenius
Jacobi algebra.

Exit codes: 0 ok, 1 axiom failure, 2 precondition/stage failure,
3 parse or I/O error, 4 internal error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .algebra import (
    _COMM_ASSOC,
    _DERIVATION,
    _DERIVATION_OF_COMM_ASSOC,
    _LIE,
    _REL_POISSON,
    DEFAULT_VIOLATION_LIMIT,
    AxiomReport,
    PreconditionError,
    RelPoissonAlgebra,
    _check,
    _Checker,
    _Use,
    bracket_from_derivation,
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
    _Reader,
    bialgebra_doc,
    parse_document,
    rel_poisson_doc,
    rel_pre_poisson_doc,
    rmatrix_doc,
    serialize_document,
    validate_document,
)
from .jacobi import _STAGES, PipelineError, extend_jacobi, frobenius_jacobi_pipeline
from .pairing import _INVARIANCE, _nondegenerate, _symmetric, bowtie
from .prepoisson import (
    _DERIVATION_OF_ZINBIEL,
    _PRELIE,
    _ZINBIEL,
    RelPrePoissonAlgebra,
    check_rel_pre_poisson,
    circ_from_derivation,
    subadjacent,
)
from .representations import _REPRESENTATION, semidirect_product
from .yangbaxter import _REP_O_OPERATOR, check_rpybe, coboundary_comults, o_operator_to_rmatrix, semidirect_codrv

OK, AXIOM_FAILURE, PRECONDITION_FAILURE, PARSE_FAILURE, INTERNAL_ERROR = 0, 1, 2, 3, 4


def _read_document(path: str, as_kind=None) -> _Reader:
    """The one read of the document at `path`, its shape checked; with
    `as_kind`, checked again as a document of that kind."""
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from None
    doc = parse_document(text)
    if as_kind:
        doc = dict(doc, kind=as_kind)
        validate_document(doc)
    return _Reader(doc)


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


def _sweep(checker, alg=None, **tables) -> AxiomReport:
    """The checker's report on the tables, an algebra's dot, bracket and derivation named M, B and D."""
    if alg is not None:
        tables.update(M=alg.dot, B=alg.bracket, D=alg.derivation)
    return _check(checker, DEFAULT_VIOLATION_LIMIT, **tables)


def _single_op(plain, derived=None):
    """The check of a single product M: the kind's axioms, then the Leibniz
    rule of the derivation D when the document gives one."""
    derived = derived or _Checker(plain, _DERIVATION)
    return lambda s: _sweep(plain if s[1] is None else derived, M=s[0], D=s[1])


# G is a form, whose whole-form facts are reported as form-symmetric and form-nondegenerate
_FORM = _Use("form-", _Checker((_symmetric, "G"), (_nondegenerate, "G")))
_REL_POISSON_FORM = _Checker(_Use("", _REL_POISSON), _INVARIANCE, _FORM)
_NONDEGENERATE_FORM = _Use("form-", (_nondegenerate, "G"))
_INVARIANT_FORM = _Checker(_NONDEGENERATE_FORM, _INVARIANCE)


def _check_representation(structures):
    """A representation's conditions, then its operator T's weak O-operator conditions, if given."""
    rep, extras = structures
    checker = _REP_O_OPERATOR if "operator" in extras else _REPRESENTATION
    tables = dict(MU=rep._mu, RHO=rep._rho, AL=rep._alpha, T=extras.get("operator"))
    return _sweep(checker, rep.algebra, **tables)


# kind -> (the check of the structures its document reads, the product whose
# unit `report` prints or None)
_KINDS = {
    "comm-assoc": (_single_op(_COMM_ASSOC, _DERIVATION_OF_COMM_ASSOC), lambda s: s[0]),
    "lie": (_single_op(_Use("", _LIE, B="M")), None),
    "rel-poisson": (
        lambda s: _sweep(_REL_POISSON if s[1] is None else _REL_POISSON_FORM, s[0], G=s[1]), lambda s: s[0].dot
    ),
    "zinbiel": (_single_op(_Use("", _ZINBIEL, S="M"), _DERIVATION_OF_ZINBIEL), lambda s: s[0]),
    "pre-lie": (_single_op(_Use("", _PRELIE, C="M")), lambda s: s[0]),
    "rel-pre-poisson": (check_rel_pre_poisson, None),
    "representation": (_check_representation, None),
    "comultiplication": (lambda s: check_rel_poisson_coalgebra(*s), None),
    "bialgebra": (check_bialgebra, lambda data: data.algebra.dot),
    "rmatrix": (lambda s: check_rpybe(s[0], r=s[1], codrv=s[2]), None),
    "bilinear-form": (
        lambda s: _sweep(_NONDEGENERATE_FORM if s[1] is None else _INVARIANT_FORM, s[1], G=s[0]), None
    ),
}


def cmd_check(args) -> int:
    reader = _read_document(args.file, args.as_kind)
    report = _KINDS[reader.kind][0](reader.structures())
    _print_report(report, args.json)
    return OK if report.ok else AXIOM_FAILURE


def _write_output(doc, out_path):
    text = serialize_document(doc)
    if not out_path:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise DocumentError(f"cannot write {out_path}: {exc}") from None


def _derived_op(structures):
    """The product and derivation of a single-operation document."""
    op, der = structures
    if der is None:
        raise DocumentError("document carries no derivation")
    return op, der


def _zinbiel_pre_poisson(structures):
    """The relative pre-Poisson algebra of a Zinbiel algebra with derivation."""
    op, der = _derived_op(structures)
    return RelPrePoissonAlgebra(op.space, op, circ_from_derivation(op, der), der)


def _bracket_from_derivation(structures):
    op, der = _derived_op(structures)
    return rel_poisson_doc(RelPoissonAlgebra(op.space, op, bracket_from_derivation(op, der), der))


def _coboundary(structures):
    alg, tensor, codrv = structures
    return bialgebra_doc(BialgebraData(alg, *coboundary_comults(alg, tensor), codrv))


def _o_operator_rmatrix(structures):
    rep, extras = structures
    if "operator" not in extras:
        raise DocumentError("o-operator-rmatrix needs an operator field")
    beta = extras.get("beta", rep._alpha.neg())
    codrv = extras.get("dual_derivation", rep.algebra.derivation.neg())
    semidirect, tensor = o_operator_to_rmatrix(rep, beta, codrv, extras["operator"])
    return rmatrix_doc(semidirect, tensor, semidirect_codrv(rep, codrv, semidirect))


# recipe -> {a document kind it reads: the output document it builds from
# the structures read}
_RECIPE_KINDS = {
    "bracket-from-derivation": {"comm-assoc": _bracket_from_derivation},
    "circ-from-derivation": {"zinbiel": lambda s: rel_pre_poisson_doc(_zinbiel_pre_poisson(s))},
    "subadjacent": {
        "rel-pre-poisson": lambda pp: rel_poisson_doc(subadjacent(pp)[0]),
        "zinbiel": lambda s: rel_poisson_doc(subadjacent(_zinbiel_pre_poisson(s))[0]),
    },
    "semidirect": {"representation": lambda s: rel_poisson_doc(semidirect_product(s[0].algebra, s[0]))},
    "dualize": {"bialgebra": lambda data: bialgebra_doc(dualize_bialgebra(data))},
    "extend-jacobi": {"rel-poisson": lambda s: rel_poisson_doc(extend_jacobi(s[0]))},
    "coboundary": {"rmatrix": _coboundary},
    "o-operator-rmatrix": {"representation": _o_operator_rmatrix},
    "bowtie": {"bialgebra": lambda data: rel_poisson_doc(bowtie(bialgebra_to_matched_pair(data)))},
}


def cmd_construct(args) -> int:
    reader = _read_document(args.file)
    builds = _RECIPE_KINDS[args.recipe]
    if reader.kind not in builds:
        expected = " or ".join(builds)
        raise DocumentError(f"recipe {args.recipe} expects a {expected} document, got {reader.kind}")
    _write_output(builds[reader.kind](reader.structures()), args.output)
    return OK


def cmd_pipeline(args) -> int:
    reader = _read_document(args.file)
    if reader.kind != "rel-pre-poisson":
        raise DocumentError("pipeline expects a rel-pre-poisson document")
    _bialgebra, frobenius = frobenius_jacobi_pipeline(reader.structures())
    out = rel_poisson_doc(frobenius.algebra, form=frobenius.form)
    if args.json:
        stages = [{"stage": s, "ok": True} for s in _STAGES]
        print(json.dumps({"stages": stages, "document": _Reader(out).canonical()}, indent=1))
    else:
        for stage in _STAGES:
            print(f"stage {stage}: ok", file=sys.stderr)
    if args.output or not args.json:
        _write_output(out, args.output)
    return OK


def cmd_report(args) -> int:
    reader = _read_document(args.file)
    doc, kind = reader.doc, reader.kind
    info = {"kind": kind}
    if "dim" in doc:
        info["dim"] = doc["dim"]
    # every entry is validated before any structure is built; a field
    # listing none is left out
    norm = reader.canonical()
    info["nonzero_entries"] = {
        key: len(norm[key])
        for key, value in doc.items()
        if isinstance(value, list) and value and isinstance(value[0], list)
    }
    structures = reader.structures()
    check, product = _KINDS[kind]
    op = product(structures) if product else None
    unit = find_unit(op) if op is not None else None
    if unit is not None:
        terms = [f"{c}*{op.space.labels[i]}" for i, c in enumerate(unit) if c]
        info["unit"] = " + ".join(terms) if terms else "0"
    report = check(structures)
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
    except PreconditionError as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return PRECONDITION_FAILURE
    except PipelineError as exc:
        print(f"pipeline failed: {exc}", file=sys.stderr)
        return PRECONDITION_FAILURE
    except Exception as exc:  # a fault of the program, never an axiom verdict
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
