"""Structure document parsing, serialization, and canonical form."""

import json
import re
from fractions import Fraction as F

import pytest

from relpoisson import BilinearForm, LinearMap, documents, subadjacent
from relpoisson.documents import (
    KINDS,
    DocumentError,
    doc_to_bialgebra,
    doc_to_bilinear_form,
    doc_to_rel_pre_poisson,
    doc_to_representation,
    doc_to_rel_poisson,
    doc_to_single_op,
    format_scalar,
    parse_document,
    parse_scalar_string,
    rel_poisson_doc,
    rel_pre_poisson_doc,
    serialize_document,
)

from conftest import FIXTURES, tensor, worked_prepoisson, zinbiel3


def test_scalar_strings():
    assert format_scalar(parse_scalar_string("6/8")) == "3/4"
    assert format_scalar(parse_scalar_string("-2/1")) == "-2"
    with pytest.raises(DocumentError):
        parse_scalar_string("1/0")
    with pytest.raises(DocumentError):
        parse_scalar_string("x")
    with pytest.raises(DocumentError):
        parse_scalar_string(0.5)


@pytest.mark.parametrize("text", ["1e3", "1.5", " 1_0 ", "+2", "1e100000", "", "1/", "/2", "1\n"])
def test_scalar_grammar_is_strict(text):
    # the documented grammar -?digits(/digits)?, not Fraction's
    with pytest.raises(DocumentError):
        parse_scalar_string(text)


def test_scalar_grammar_accepts_integers_and_fractions():
    assert [parse_scalar_string(t) for t in ("0", "-0", "007", "-6/8")] == [0, 0, 7, F(-3, 4)]


def _representation_doc(dot_action):
    return {
        "kind": "representation",
        "dim": 1,
        "algebra": {"kind": "rel-poisson", "dim": 1, "dot": [], "bracket": [], "derivation": []},
        "dot_action": dot_action,
        "bracket_action": [],
        "der_action": [],
    }


def test_booleans_are_not_integers():
    with pytest.raises(DocumentError):
        doc_to_single_op(parse_document('{"kind": "comm-assoc", "dim": true, "product": []}'))
    with pytest.raises(DocumentError):
        doc_to_single_op(
            parse_document('{"kind": "comm-assoc", "dim": 1, "product": [[false, 0, 0, "1"]]}')
        )
    valid = parse_document(json.dumps(_representation_doc([[0, 0, 0, "1"]])))
    assert doc_to_representation(valid)[0].dot_action == (((1,),),)
    for entry in ([False, 0, 0, "1"], [0, False, 0, "1"], [0, 0, False, "1"]):
        with pytest.raises(DocumentError):
            doc_to_representation(parse_document(json.dumps(_representation_doc([entry]))))


def test_deep_nesting_is_a_document_error():
    with pytest.raises(DocumentError):
        parse_document("[" * 100_000 + "]" * 100_000)


def test_zinbiel_fixture_round_trips():
    text = (FIXTURES / "zinbiel_3d.json").read_text()
    doc = parse_document(text)
    assert serialize_document(doc) == text
    op, der = doc_to_single_op(doc)
    assert op.product(0, 0) == op.product(0, 1)
    assert der is not None and der.column(0)[1] == 1


def test_object_document_round_trip():
    pp = worked_prepoisson()
    doc = rel_pre_poisson_doc(pp)
    text = serialize_document(doc)
    again = doc_to_rel_pre_poisson(parse_document(text))
    assert again.star.table == pp.star.table
    assert again.circ.table == pp.circ.table
    assert again.derivation.entries == pp.derivation.entries


def test_canonicalization_sorts_and_reduces():
    doc = {
        "kind": "zinbiel",
        "dim": 2,
        "basis": ["e1", "e2"],
        "product": [[1, 0, 1, "2/4"], [0, 0, 1, "1"], [0, 1, 0, "0/5"]],
    }
    text = serialize_document(doc)
    parsed = json.loads(text)
    assert parsed["product"] == [[0, 0, 1, "1"], [1, 0, 1, "1/2"]]
    # canonical text is a fixed point
    assert serialize_document(parsed) == text


@pytest.mark.parametrize(
    "product",
    [
        [[]],  # an entry with no scalar
        [[0, 0, 0, "1"], ["a", 0, 0, "1"]],  # an index that is not an integer
        [[0, 0, 5, "1"], [0, 0, 5, "2"]],  # out of range, and repeated
    ],
)
def test_serializer_checks_every_entry(product):
    doc = {"kind": "comm-assoc", "dim": 1, "product": product}
    with pytest.raises(DocumentError):
        serialize_document(doc)


def test_empty_entry_list_is_zero_structure():
    doc = parse_document('{"kind": "comm-assoc", "dim": 2, "basis": ["a", "b"], "product": []}')
    op, der = doc_to_single_op(doc)
    assert op.is_zero() and der is None


def test_parse_rejects_malformed_documents():
    with pytest.raises(DocumentError):
        parse_document("{")
    with pytest.raises(DocumentError):
        parse_document('{"kind": "frobnicator", "dim": 1}')
    with pytest.raises(DocumentError):
        parse_document('{"kind": "comm-assoc", "dim": 1}')  # missing product
    bad_index = {"kind": "comm-assoc", "dim": 1, "basis": ["e1"], "product": [[0, 0, 5, "1"]]}
    with pytest.raises(DocumentError):
        doc_to_single_op(parse_document(json.dumps(bad_index)))
    dup = {
        "kind": "comm-assoc",
        "dim": 1,
        "basis": ["e1"],
        "product": [[0, 0, 0, "1"], [0, 0, 0, "2"]],
    }
    with pytest.raises(DocumentError):
        doc_to_single_op(parse_document(json.dumps(dup)))
    bad_scalar = {"kind": "comm-assoc", "dim": 1, "basis": ["e1"], "product": [[0, 0, 0, "1/0"]]}
    with pytest.raises(DocumentError):
        doc_to_single_op(parse_document(json.dumps(bad_scalar)))
    with pytest.raises(DocumentError):
        parse_document('{"kind": "comm-assoc", "dim": 1, "basis": ["e1"], "product": [], "bogus": 1}')


def test_rel_poisson_document_with_form():
    text = (FIXTURES / "golden_double_14d.json").read_text()
    alg, form = doc_to_rel_poisson(parse_document(text))
    assert alg.dim == 14 and form is not None
    assert form.is_symmetric()


def test_basis_defaults_when_absent():
    doc = parse_document('{"kind": "comm-assoc", "dim": 2, "product": []}')
    op, _ = doc_to_single_op(doc)
    assert op.space.labels == ("e1", "e2")


def _bilinear_form_doc(form, alg, description=None):
    """No library writer exists for this kind; the reader's inverse."""
    gram = [[i, j, x] for i, row in enumerate(form.gram) for j, x in enumerate(row) if x]
    doc = {"kind": "bilinear-form", "gram": [[i, j, format_scalar(x)] for i, j, x in gram]}
    if alg is None:
        doc.update(dim=form.space.dim, basis=list(form.space.labels))
    else:
        doc["algebra"] = rel_poisson_doc(alg)
    if description:
        doc["description"] = description
    return doc


# kind -> (reader, writer fed a module, the kind, the reader's result and a
# description)
READ_WRITE = {
    **{
        kind: ("doc_to_single_op", lambda m, k, out, d: m.single_op_doc(k, *out, description=d))
        for kind in ("comm-assoc", "lie", "zinbiel", "pre-lie")
    },
    "rel-poisson": ("doc_to_rel_poisson", lambda m, k, out, d: m.rel_poisson_doc(*out, d)),
    "rel-pre-poisson": ("doc_to_rel_pre_poisson", lambda m, k, pp, d: m.rel_pre_poisson_doc(pp, d)),
    "representation": (
        "doc_to_representation",
        lambda m, k, out, d: m.representation_doc(out[0], out[1].get("operator"), d),
    ),
    "comultiplication": ("doc_to_coalgebra", lambda m, k, out, d: m.coalgebra_doc(*out, d)),
    "bialgebra": ("doc_to_bialgebra", lambda m, k, data, d: m.bialgebra_doc(data, d)),
    "rmatrix": ("doc_to_rmatrix", lambda m, k, out, d: m.rmatrix_doc(*out, d)),
    "bilinear-form": ("doc_to_bilinear_form", lambda m, k, out, d: _bilinear_form_doc(*out, d)),
}


def _worked_cases():
    """(kind, a reader's result) for every kind, from the worked examples."""
    pp = worked_prepoisson()
    alg, rep = subadjacent(pp)
    star, der = zinbiel3()
    data = doc_to_bialgebra(parse_document((FIXTURES / "bialgebra_7d.json").read_text()))
    golden_text = (FIXTURES / "golden_double_14d.json").read_text()
    golden, form = doc_to_rel_poisson(parse_document(golden_text))
    r = tensor(alg.space, [(0, 1, 1), (1, 0, -1), (2, 2, "1/2")])
    return [
        ("comm-assoc", (alg.dot, alg.derivation)),
        ("lie", (alg.bracket, None)),
        ("zinbiel", (star, der)),
        ("pre-lie", (pp.circ, pp.derivation)),
        ("rel-poisson", (golden, form)),
        ("rel-pre-poisson", pp),
        ("representation", (rep, {"operator": LinearMap.identity(rep.space)})),
        ("comultiplication", (data.dot_comult, data.bracket_comult, data.dual_derivation)),
        ("bialgebra", data),
        ("rmatrix", (alg, r, alg.derivation.neg())),
        ("bilinear-form", (form, golden)),
        ("bilinear-form", (BilinearForm(pp.space, pp.derivation.entries), None)),
    ]


def test_worked_cases_cover_every_kind():
    assert {kind for kind, _ in _worked_cases()} == set(KINDS) == set(READ_WRITE)


@pytest.mark.parametrize("index", range(len(_worked_cases())))
def test_every_kind_round_trips(index):
    # writer, serialize, parse, reader, writer again: the same bytes
    kind, worked = _worked_cases()[index]
    reader, writer = READ_WRITE[kind]
    text = serialize_document(writer(documents, kind, worked, "worked example"))
    again = getattr(documents, reader)(parse_document(text))
    assert serialize_document(writer(documents, kind, again, "worked example")) == text
    assert json.loads(text)["description"] == "worked example"


_ALGEBRA_1D = {"kind": "rel-poisson", "dim": 1, "dot": [], "bracket": [], "derivation": []}


@pytest.mark.parametrize(
    "doc",
    [
        # a document whose space comes from its embedded algebra has no dim
        # or basis of its own
        {"kind": "rmatrix", "algebra": _ALGEBRA_1D, "r": [], "dim": 99, "basis": "zzz"},
        {"kind": "rmatrix", "algebra": _ALGEBRA_1D, "r": [], "dim": "abc"},
        {"kind": "bilinear-form", "algebra": _ALGEBRA_1D, "gram": [], "dim": 7},
        {"kind": "comm-assoc", "dim": 1, "product": [], "description": {"text": "x"}},
        # the embedded algebra is checked when the document is parsed
        {"kind": "rmatrix", "algebra": dict(_ALGEBRA_1D, bogus=1), "r": []},
        {"kind": "rmatrix", "algebra": {"kind": "comm-assoc", "dim": 1, "product": []}, "r": []},
        {"kind": "rmatrix", "r": []},
    ],
)
def test_fields_outside_the_grammar_are_rejected(doc):
    with pytest.raises(DocumentError):
        parse_document(json.dumps(doc))
    with pytest.raises(DocumentError):
        serialize_document(doc)


@pytest.mark.parametrize("index", range(len(_worked_cases())))
def test_every_reader_rejects_an_unknown_top_level_field(index):
    # a reader checks the document's own fields as it checks its embedded
    # algebra's, so it rejects what parse_document rejects
    kind, worked = _worked_cases()[index]
    reader, writer = READ_WRITE[kind]
    doc = dict(writer(documents, kind, worked, None), junk=1)
    for read in (parse_document, getattr(documents, reader)):
        with pytest.raises(DocumentError, match="unknown field 'junk'"):
            read(json.dumps(doc) if read is parse_document else doc)


def test_a_reader_rejects_another_kind():
    doc = parse_document((FIXTURES / "zinbiel_3d.json").read_text())
    assert doc_to_single_op(doc)[0].space.dim == 3
    with pytest.raises(DocumentError, match="expected a rel-poisson document, got zinbiel"):
        doc_to_rel_poisson(doc)


def test_bilinear_form_reads_its_space_from_the_algebra_or_its_own():
    embedded = {"kind": "bilinear-form", "algebra": _ALGEBRA_1D, "gram": [[0, 0, "2"]]}
    form, alg = doc_to_bilinear_form(parse_document(json.dumps(embedded)))
    assert form.space == alg.space and form.gram == ((2,),)
    own = {"kind": "bilinear-form", "dim": 2, "basis": ["x", "y"], "gram": [[1, 0, "1"]]}
    form, alg = doc_to_bilinear_form(parse_document(json.dumps(own)))
    assert alg is None and form.space.labels == ("x", "y")
    assert form.gram == ((0, 0), (1, 0))


def test_readme_kinds_paragraph_names_exactly_the_kinds():
    readme = (FIXTURES.parent / "README.md").read_text()
    paragraph = readme[readme.index("\nKinds: ") :].split("\n\n")[0]
    names = re.findall(r"`([^`]+)`", paragraph)
    assert sorted(names) == sorted(KINDS)
