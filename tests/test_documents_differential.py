"""The table-driven document validator, readers, writers and serializer
against the hand-written ones they replaced: on documents of every kind,
malformed entries included, both sides return equal domain objects or
both reject, and both give the same canonical bytes.

Left out by construction are the inputs the library now rejects and the
reference accepted: `dim` or `basis` on a document whose space comes from
its embedded algebra, a `description` that is not a string, and an
embedded algebra without its required fields or with unknown ones.  The
serializer is compared with the reference only on documents that read;
on the others it must reject as reading does.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relpoisson import documents as lib

import documents_reference as ref
from test_documents import READ_WRITE

SCALARS = ("0", "1", "-1", "2/4", "-3/2", "0/7")
BAD_SCALARS = ("1/0", "x", "1.5", "", 1, None, True)
ENTRY_FAULTS = (
    "short",
    "long",
    "too-large",
    "negative",
    "boolean",
    "duplicate",
    "scalar",
    "not-a-list",
    "field",
)


def _bounds(kind, name, n, m, embeds):
    """The bound of each index of a field, as the reference readers apply
    them: n is the embedded algebra's dim, m the document's own."""
    arity = ref._FIELDS[kind][name]
    if kind == "representation":
        mixed = {"dot_action": (n, m, m), "bracket_action": (n, m, m), "operator": (n, m)}
        return mixed.get(name, (n, n) if name == "dual_derivation" else (m, m))
    return ((n,) if embeds else (m,)) * arity


@st.composite
def entry_lists(draw, bounds, fault=None):
    """A sparse entry list within bounds, or with one fault: a wrong arity,
    an index out of range or boolean at a drawn position, a duplicate, a
    bad scalar, an entry or a field that is not a list."""
    cells = st.tuples(*(st.integers(0, max(b - 1, 0)) for b in bounds))
    indices = draw(st.lists(cells, max_size=4, unique=True))
    out = [list(idx) + [draw(st.sampled_from(SCALARS))] for idx in indices if all(bounds)]
    if fault is None:
        return out
    if fault == "field":
        return draw(st.sampled_from(("oops", 0)))
    pos = draw(st.integers(0, len(bounds) - 1))
    bad = list(draw(cells)) + [draw(st.sampled_from(SCALARS))]
    if fault == "short":
        del bad[pos]
    elif fault == "long":  # an extra index, or a second scalar
        bad.insert(draw(st.integers(0, len(bad))), draw(st.sampled_from((0, "1"))))
    elif fault == "too-large":
        bad[pos] = bounds[pos]
    elif fault == "negative":
        bad[pos] = -1
    elif fault == "boolean":
        bad[pos] = draw(st.booleans())
    elif fault == "duplicate":
        bad = (out[0][:-1] if out else bad[:-1]) + ["1"]
        out.insert(0, bad[:-1] + ["-1"])
    elif fault == "scalar":
        bad[-1] = draw(st.sampled_from(BAD_SCALARS))
    elif fault == "not-a-list":
        bad = 0
    out.insert(draw(st.integers(0, len(out))), bad)
    return out


@st.composite
def documents(draw, kind, dim=None):
    """A document of `kind` on a space of dim 0-3 (or `dim`), with an
    embedded algebra where the kind reads one; half of them carry one
    fault, in the header, the fields present or one field's entries."""
    embedded = dim is not None
    n, m = draw(st.integers(0, 3)), dim if embedded else draw(st.integers(0, 3))
    embeds = kind in ("representation", "rmatrix") or (
        kind == "bilinear-form" and draw(st.booleans())
    )
    fields = list(ref._FIELDS[kind])
    sites = ["dim", "basis"] if kind == "representation" or not embeds else []
    # an embedded algebra always carries exactly its own fields
    sites += [] if embedded else ["missing", "bogus"]
    sites += fields
    fault = draw(st.sampled_from(sites)) if draw(st.booleans()) else None
    doc = {"kind": kind}
    if draw(st.booleans()):
        doc["description"] = draw(st.sampled_from(("", "a structure")))
    if "dim" in sites:
        doc["dim"] = draw(st.sampled_from((-1, True, "2"))) if fault == "dim" else m
        labels = [f"b{i}" for i in range(m)]
        if fault == "basis":
            doc["basis"] = draw(st.sampled_from((labels[1:], ["b"] * m, list(range(m)), "b")))
        elif draw(st.booleans()):
            doc["basis"] = labels
    if embeds:
        doc["algebra"] = draw(documents("rel-poisson", n))
    for name in fields:
        if name in ref._REQUIRED[kind] or draw(st.booleans()):
            bounds = _bounds(kind, name, n, m, embeds)
            entry_fault = draw(st.sampled_from(ENTRY_FAULTS)) if fault == name else None
            doc[name] = draw(entry_lists(bounds, entry_fault))
    if fault == "missing":
        doc.pop(draw(st.sampled_from(ref._REQUIRED[kind])))
    if fault == "bogus":
        unknown = [k for k in ("bogus", "Dot", "form", "r", "product") if k not in fields]
        doc[draw(st.sampled_from(unknown))] = []
    return doc


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # compared by type on both sides
        return type(exc)


def test_reference_has_the_same_kinds():
    assert lib.KINDS == ref.KINDS


@pytest.mark.parametrize("kind", lib.KINDS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_documents_match_reference(kind, data):
    doc = data.draw(documents(kind))
    text = json.dumps(doc)
    parsed = _outcome(lib.parse_document, text)
    assert parsed == _outcome(ref.parse_document, text)
    reader, writer = READ_WRITE[kind]
    read = _outcome(getattr(lib, reader), parsed) if isinstance(parsed, dict) else parsed
    # the serializer reads every entry field, so it rejects what reading
    # rejects; the reference serializer checked scalars only
    serialized = _outcome(lib.serialize_document, doc)
    assert serialized == (read if isinstance(read, type) else ref.serialize_document(doc))
    if not isinstance(parsed, dict):
        return
    assert read == _outcome(getattr(ref, reader), parsed)
    if isinstance(read, type):
        return
    description = doc.get("description")
    written = writer(lib, kind, read, description)
    assert written == writer(ref, kind, read, description)
    assert lib.serialize_document(written) == ref.serialize_document(written)
