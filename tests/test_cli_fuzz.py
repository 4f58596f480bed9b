"""Malformed documents end in a documented exit code, never a traceback:
the shipped fixtures, mutated, go through every command of the CLI, and
through ``check --as KIND`` for every kind."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from relpoisson.cli import _RECIPE_KINDS, main
from relpoisson.documents import KINDS

from conftest import FIXTURES

SOURCES = {path.name: json.loads(path.read_text()) for path in sorted(FIXTURES.glob("*.json"))}
COMMANDS = [["check"], ["report"], ["pipeline"]] + [["construct", recipe] for recipe in _RECIPE_KINDS]
COMMANDS += [["check", "--as", kind] for kind in KINDS]
EXIT_CODES = {0, 1, 2, 3}

JUNK = st.sampled_from([None, True, 5, -1, 1.5, "x", "1", [], {}, [[]], {"a": 1}])
INDEX = st.one_of(st.integers(-2, 20), st.sampled_from([True, 2**64, "0", None, 0.0]))
SCALAR = st.one_of(
    st.sampled_from(["1", "-1", "0", "1/2", "1/0", "0/5", "1.5", "1e3", " 1", "", "٣"]),
    JUNK,
)
# junk, a list of any length, or indices followed by a scalar
ENTRY = st.one_of(
    JUNK,
    st.lists(st.one_of(INDEX, SCALAR), max_size=6),
    st.builds(lambda idx, x: [*idx, x], st.lists(INDEX, min_size=1, max_size=4), SCALAR),
)


def _entry_fields(doc):
    return [k for k, v in doc.items() if k != "basis" and isinstance(v, list)]


@st.composite
def mutated_documents(draw):
    doc = json.loads(json.dumps(SOURCES[draw(st.sampled_from(sorted(SOURCES)))]))
    fields = _entry_fields(doc)
    mutation = draw(st.sampled_from(["replace", "append", "field-type", "dim", "basis"]))
    if mutation in ("replace", "append") and fields:
        entries = doc[draw(st.sampled_from(fields))]
        if mutation == "replace" and entries:
            entries[draw(st.integers(0, len(entries) - 1))] = draw(ENTRY)
        else:
            entries.append(draw(ENTRY))
    elif mutation == "field-type" and fields:
        doc[draw(st.sampled_from(fields))] = draw(JUNK)
    elif mutation == "dim":
        dim = doc.get("dim", 0)
        doc["dim"] = draw(st.one_of(st.integers(-2, dim + 3), JUNK))
        if draw(st.booleans()):
            doc.pop("basis", None)
    else:
        basis = doc.get("basis", [])
        doc["basis"] = draw(
            st.one_of(
                JUNK,
                st.just(basis[:-1]),
                st.just(basis + ["extra"]),
                st.just(basis[:1] * len(basis)),
                st.just([5] * len(basis)),
            )
        )
    return doc


@settings(max_examples=200, deadline=None, derandomize=True)
@given(doc=mutated_documents())
def test_every_command_on_a_mutated_fixture_exits_with_a_documented_code(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(json.dumps(doc))
        for command in COMMANDS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([*command, str(path)])
            assert code in EXIT_CODES, (command, code)
