"""Structure document parsing, serialization, and canonical form."""

import json
from fractions import Fraction as F

import pytest

from relpoisson.documents import (
    DocumentError,
    doc_to_rel_pre_poisson,
    doc_to_representation,
    doc_to_rel_poisson,
    doc_to_single_op,
    format_scalar,
    parse_document,
    parse_scalar_string,
    rel_pre_poisson_doc,
    serialize_document,
)

from conftest import FIXTURES, worked_prepoisson


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
