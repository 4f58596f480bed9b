"""Command-line interface: exit codes, recipes, determinism."""

import json
import shutil
import subprocess
from pathlib import Path

import pytest

from relpoisson import algebra, cli, documents
from relpoisson.cli import _RECIPE_KINDS, main

from conftest import FIXTURES


def run_cli(*args, capsys=None):
    code = main(list(args))
    return code


def test_check_fixture_ok(capsys):
    assert main(["check", str(FIXTURES / "prepoisson_3d.json")]) == 0
    assert capsys.readouterr().out.strip() == "ok"


def test_check_json_report(capsys):
    assert main(["check", "--json", str(FIXTURES / "bialgebra_7d.json")]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"ok": True, "violations": [], "truncated": False}


def test_check_corrupted_fixture(tmp_path, capsys):
    doc = json.loads((FIXTURES / "bialgebra_7d.json").read_text())
    doc["bracket"] = [e for e in doc["bracket"] if e[:3] != [1, 2, 3]]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["check", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "FAILED" in out and "antisymmetric" in out


def test_check_json_locates_defect(tmp_path, capsys):
    doc = json.loads((FIXTURES / "zinbiel_3d.json").read_text())
    doc["product"].append([1, 1, 1, "1"])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["check", "--json", str(bad)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert not payload["ok"]
    assert payload["violations"][0]["axiom"] == "zinbiel"


def test_check_zero_dimensional_structure(tmp_path, capsys):
    doc = tmp_path / "zero.json"
    doc.write_text('{"kind": "rel-poisson", "dim": 0, "basis": [], "dot": [], "bracket": [], "derivation": []}')
    assert main(["check", str(doc)]) == 0


def test_check_as_reinterprets_kind(capsys):
    # the Zinbiel table is not commutative, so it fails as a comm-assoc one
    assert main(["check", str(FIXTURES / "zinbiel_3d.json")]) == 0
    capsys.readouterr()
    assert main(["check", "--as", "comm-assoc", str(FIXTURES / "zinbiel_3d.json")]) == 1
    assert "commutative" in capsys.readouterr().out


def test_parse_error_exit_codes(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert main(["check", str(missing)]) == 3
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert main(["check", str(garbled)]) == 3
    bad_scalar = tmp_path / "scalar.json"
    bad_scalar.write_text('{"kind": "comm-assoc", "dim": 1, "basis": ["e1"], "product": [[0, 0, 0, "1/0"]]}')
    assert main(["check", str(bad_scalar)]) == 3
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    assert main(["check", str(deep)]) == 3
    assert "nested too deeply" in capsys.readouterr().err


def test_construct_chain(tmp_path, capsys):
    sub = tmp_path / "subadjacent.json"
    assert main(["construct", "subadjacent", str(FIXTURES / "prepoisson_3d.json"), "-o", str(sub)]) == 0
    doc = json.loads(sub.read_text())
    assert doc["kind"] == "rel-poisson"
    assert [0, 0, 2, "2"] in doc["dot"]  # e1.e1 = 2 e3
    extended = tmp_path / "extended.json"
    assert main(["construct", "extend-jacobi", str(sub), "-o", str(extended)]) == 0
    edoc = json.loads(extended.read_text())
    assert edoc["dim"] == 4 and edoc["basis"][0] == "e"
    assert [0, 0, 0, "1"] in edoc["dot"]  # the unit row
    assert main(["check", str(extended)]) == 0


def test_construct_subadjacent_accepts_zinbiel(tmp_path):
    out = tmp_path / "sub.json"
    assert main(["construct", "subadjacent", str(FIXTURES / "zinbiel_3d.json"), "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["kind"] == "rel-poisson" and [0, 0, 2, "2"] in doc["dot"]


def test_construct_bracket_from_derivation(tmp_path):
    source = tmp_path / "commassoc.json"
    source.write_text(
        json.dumps(
            {
                "kind": "comm-assoc",
                "dim": 2,
                "basis": ["x", "x2"],
                "product": [[0, 0, 1, "1"]],
                "derivation": [[0, 0, "1"], [1, 1, "2"]],
            }
        )
    )
    out = tmp_path / "poisson.json"
    assert main(["construct", "bracket-from-derivation", str(source), "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["kind"] == "rel-poisson" and doc["bracket"] == []
    assert main(["check", str(out)]) == 0


def test_construct_semidirect_and_o_operator_rmatrix(tmp_path):
    from relpoisson import subadjacent
    from relpoisson.documents import (
        doc_to_rel_pre_poisson,
        parse_document,
        representation_doc,
        serialize_document,
    )
    from relpoisson.linalg import LinearMap

    pp = doc_to_rel_pre_poisson(parse_document((FIXTURES / "prepoisson_3d.json").read_text()))
    _alg, rep = subadjacent(pp)
    rep_doc = representation_doc(rep, operator=LinearMap.identity(rep.space))
    source = tmp_path / "rep.json"
    source.write_text(serialize_document(rep_doc))
    assert main(["check", str(source)]) == 0

    semi = tmp_path / "semi.json"
    assert main(["construct", "semidirect", str(source), "-o", str(semi)]) == 0
    assert json.loads(semi.read_text())["dim"] == 6
    assert main(["check", str(semi)]) == 0

    rmat = tmp_path / "rmatrix.json"
    assert main(["construct", "o-operator-rmatrix", str(source), "-o", str(rmat)]) == 0
    doc = json.loads(rmat.read_text())
    assert doc["kind"] == "rmatrix" and doc["algebra"]["dim"] == 6
    assert main(["check", str(rmat)]) == 0


def test_construct_circ_from_derivation(tmp_path):
    out = tmp_path / "prepoisson.json"
    assert main(["construct", "circ-from-derivation", str(FIXTURES / "zinbiel_3d.json"), "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["kind"] == "rel-pre-poisson"
    golden = json.loads((FIXTURES / "prepoisson_3d.json").read_text())
    assert doc["circ"] == golden["circ"] and doc["star"] == golden["star"]


def test_construct_coboundary_zero_tensor(tmp_path):
    sub = tmp_path / "subadjacent.json"
    main(["construct", "subadjacent", str(FIXTURES / "prepoisson_3d.json"), "-o", str(sub)])
    rdoc = tmp_path / "rmatrix.json"
    rdoc.write_text(
        json.dumps({"kind": "rmatrix", "algebra": json.loads(sub.read_text()), "r": []})
    )
    out = tmp_path / "bialgebra.json"
    assert main(["construct", "coboundary", str(rdoc), "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["kind"] == "bialgebra"
    assert doc["dot_comult"] == [] and doc["bracket_comult"] == []
    assert main(["check", str(out)]) == 0


def test_construct_bowtie_and_dualize(tmp_path):
    out = tmp_path / "double.json"
    assert main(["construct", "bowtie", str(FIXTURES / "bialgebra_7d.json"), "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["dim"] == 14
    assert main(["check", str(out)]) == 0
    dual = tmp_path / "dual.json"
    assert main(["construct", "dualize", str(FIXTURES / "bialgebra_7d.json"), "-o", str(dual)]) == 0
    assert main(["check", str(dual)]) == 0


def test_construct_precondition_failure_exit_code(tmp_path, capsys):
    doc = json.loads((FIXTURES / "zinbiel_3d.json").read_text())
    doc["product"].append([1, 0, 2, "1"])  # still zinbiel but breaks the derivation
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["construct", "circ-from-derivation", str(bad)]) == 2


def test_pipeline_byte_identical_to_golden(tmp_path, capsys):
    out = tmp_path / "double.json"
    assert main(["pipeline", str(FIXTURES / "prepoisson_3d.json"), "-o", str(out)]) == 0
    stderr = capsys.readouterr().err
    assert "stage double: ok" in stderr
    assert out.read_bytes() == (FIXTURES / "golden_double_14d.json").read_bytes()
    # a second run produces identical bytes
    out2 = tmp_path / "double2.json"
    main(["pipeline", str(FIXTURES / "prepoisson_3d.json"), "-o", str(out2)])
    assert out2.read_bytes() == out.read_bytes()


def test_pipeline_byte_identical_to_fractional_golden(tmp_path):
    # every other shipped fixture is integral; this one carries Fraction
    # scalars through every stage, and its golden bytes were written by
    # the Fraction-only scalar code
    out = tmp_path / "double.json"
    src = FIXTURES / "prepoisson_3d_fractional.json"
    assert main(["pipeline", str(src), "-o", str(out)]) == 0
    assert out.read_bytes() == (FIXTURES / "golden_double_14d_fractional.json").read_bytes()
    assert "/" in out.read_text()


def test_pipeline_byte_identical_to_dense_golden(tmp_path):
    # the truncated free Zinbiel algebra at m = 4 has a nonzero product for
    # every i + j <= 4, denser than the worked input; its golden bytes were
    # written before the axiom families became term specs
    out = tmp_path / "double.json"
    src = FIXTURES / "prepoisson_free_zinbiel_4.json"
    assert main(["pipeline", str(src), "-o", str(out)]) == 0
    assert out.read_bytes() == (FIXTURES / "golden_double_18d_free_zinbiel.json").read_bytes()


def test_pipeline_zero_fixture(tmp_path):
    out = tmp_path / "six.json"
    assert main(["pipeline", str(FIXTURES / "prepoisson_zero_1d.json"), "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["dim"] == 6
    assert main(["check", str(out)]) == 0


PIPELINE_STAGES = [
    "pre-poisson",
    "sub-adjacent",
    "extend-jacobi",
    "extend-representation",
    "lift-o-operator",
    "yang-baxter",
    "coboundary",
    "bialgebra",
    "matched-pair",
    "double",
]


def test_pipeline_prints_every_stage_in_order(tmp_path, capsys):
    src = str(FIXTURES / "prepoisson_3d.json")
    assert main(["pipeline", src, "-o", str(tmp_path / "double.json")]) == 0
    assert capsys.readouterr().err == "".join(f"stage {s}: ok\n" for s in PIPELINE_STAGES)
    assert main(["pipeline", "--json", src]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["stages"] == [{"stage": s, "ok": True} for s in PIPELINE_STAGES]


# one golden output per recipe.  The sub-adjacent representation of the
# worked input with the identity operator, and the first three outputs,
# were written before these structures were stored sparse; the other six
# were written before each command read its document once
RECIPE_GOLDENS = [
    ("semidirect", "representation_subadjacent_3d.json", "golden_semidirect_6d.json"),
    ("o-operator-rmatrix", "representation_subadjacent_3d.json", "golden_rmatrix_6d.json"),
    ("coboundary", "golden_rmatrix_6d.json", "golden_coboundary_6d.json"),
    ("bracket-from-derivation", "comm_assoc_3d.json", "golden_bracket_from_derivation_3d.json"),
    ("circ-from-derivation", "zinbiel_3d.json", "golden_circ_from_derivation_3d.json"),
    ("subadjacent", "zinbiel_3d.json", "golden_subadjacent_3d.json"),
    ("extend-jacobi", "golden_double_14d.json", "golden_extend_jacobi_15d.json"),
    ("dualize", "bialgebra_7d.json", "golden_dualize_7d.json"),
    ("bowtie", "bialgebra_7d.json", "golden_bowtie_14d.json"),
]


def test_recipe_goldens_cover_every_recipe():
    assert sorted(recipe for recipe, _, _ in RECIPE_GOLDENS) == sorted(_RECIPE_KINDS)


@pytest.mark.parametrize("recipe, source, golden", RECIPE_GOLDENS, ids=[r for r, _, _ in RECIPE_GOLDENS])
def test_recipe_byte_identical_to_golden(tmp_path, recipe, source, golden):
    out = tmp_path / golden
    assert main(["construct", recipe, str(FIXTURES / source), "-o", str(out)]) == 0
    assert out.read_bytes() == (FIXTURES / golden).read_bytes()
    assert main(["check", str(out)]) == 0


# the stdout and exit code of `check --json` and `report --json` on every
# shipped fixture, as written before each command read its document once
FIXTURE_OUTPUTS = json.loads((Path(__file__).parent / "cli_fixture_outputs.json").read_text())


def test_fixture_outputs_cover_every_fixture():
    assert sorted(FIXTURE_OUTPUTS) == sorted(path.name for path in FIXTURES.glob("*.json"))


@pytest.mark.parametrize("fixture", sorted(FIXTURE_OUTPUTS))
@pytest.mark.parametrize("command", ["check", "report"])
def test_json_output_on_every_fixture_is_pinned(capsys, fixture, command):
    code = main([command, "--json", str(FIXTURES / fixture)])
    expected = FIXTURE_OUTPUTS[fixture][command]
    assert (code, capsys.readouterr().out) == (expected["exit"], expected["stdout"])


def test_truncated_nested_report_byte_identical_to_golden(capsys):
    # 18 violations across the algebra:, coalgebra: and dual: sections, cut
    # at 16 inside the dual: one
    reports = FIXTURES / "reports"
    assert main(["check", "--json", str(reports / "bialgebra_2d_failing.json")]) == 1
    out = capsys.readouterr().out
    assert out.encode() == (reports / "golden_check_bialgebra_2d_failing.json").read_bytes()
    assert json.loads(out)["truncated"]


def test_mixed_dimension_operator_report_byte_identical_to_golden(capsys):
    # an operator from a 3-dim module into a 2-dim algebra: operator-dot's
    # defect has the algebra's length, operator-intertwine's the 2-by-3 cells
    reports = FIXTURES / "reports"
    assert main(["check", "--json", str(reports / "representation_operator_failing.json")]) == 1
    out = capsys.readouterr().out
    assert out.encode() == (reports / "golden_check_representation_operator_failing.json").read_bytes()
    found = {v["axiom"]: len(v["defect"]) for v in json.loads(out)["violations"]}
    assert found == {"operator-dot": 2, "operator-intertwine": 6}


def test_o_operator_rmatrix_reject_names_every_failed_hypothesis(capsys):
    # the recipe's hypotheses are one checker, so its one line names the
    # operator's failed weak conditions, then dual-operator-intertwine:
    # T does not intertwine the default beta = -alpha with the dual map -D
    path = FIXTURES / "reports" / "representation_operator_failing.json"
    assert main(["construct", "o-operator-rmatrix", str(path)]) == 2
    out, err = capsys.readouterr()
    failed = "operator-dot, operator-intertwine, dual-operator-intertwine"
    assert (out, err) == ("", f"precondition failed: not an O-operator: {failed}\n")


def test_failing_pipeline_exits_2_and_writes_no_output(tmp_path, capsys):
    # the worked pre-Poisson algebra with e3 * e3 = e3 added to its star
    # fails at the first stage, which names every failed family
    out_path = tmp_path / "out.json"
    path = FIXTURES / "reports" / "prepoisson_3d_failing.json"
    assert main(["pipeline", str(path), "-o", str(out_path)]) == 2
    failed = "zinbiel, star:derivation, mixed-dot-side, mixed-bracket-side"
    line = f"pipeline failed: stage pre-poisson: not a relative pre-Poisson algebra: {failed}\n"
    assert capsys.readouterr() == ("", line)
    assert not out_path.exists()


def test_report_cut_at_the_form_facts_byte_identical_to_golden(capsys):
    # 15 violations of the algebra and of the form's invariance, then
    # form-symmetric as the 16th; the degenerate form's form-nondegenerate
    # is cut
    reports = FIXTURES / "reports"
    assert main(["check", "--json", str(reports / "rel_poisson_form_failing.json")]) == 1
    out = capsys.readouterr().out
    assert out.encode() == (reports / "golden_check_rel_poisson_form_failing.json").read_bytes()
    report = json.loads(out)
    assert report["truncated"] and report["violations"][-1]["axiom"] == "form-symmetric"


STRUCTURE_DOCUMENTS = sorted(FIXTURES.glob("*.json")) + sorted(
    path for path in (FIXTURES / "reports").glob("*.json") if not path.name.startswith("golden_check_")
)


@pytest.mark.parametrize("path", STRUCTURE_DOCUMENTS, ids=lambda path: path.name)
@pytest.mark.parametrize("command", ["check", "report"])
def test_each_command_sweeps_its_document_in_one_contraction(monkeypatch, capsys, path, command):
    # every kind's axioms, its optional fields' included, are one checker
    calls, contract = [], algebra._contract
    monkeypatch.setattr(algebra, "_contract", lambda *args: calls.append(args) or contract(*args))
    assert main([command, str(path)]) in (0, 1)
    assert len(calls) == 1


def _entry_count(doc):
    """The entries of a document, its embedded algebra's included."""
    nested = (_entry_count(value) for value in doc.values() if isinstance(value, dict))
    lists = (len(value) for key, value in doc.items() if key != "basis" and isinstance(value, list))
    return sum(nested) + sum(lists)


@pytest.mark.parametrize(
    "fixture", ["representation_subadjacent_3d.json", "golden_rmatrix_6d.json", "bialgebra_7d.json"]
)
@pytest.mark.parametrize("command", ["check", "report"])
def test_each_command_reads_its_document_once(monkeypatch, capsys, fixture, command):
    # every scalar is parsed once, and the (embedded or own) relative
    # Poisson algebra is built once
    calls = {"scalars": 0, "algebras": 0}
    parse = documents.parse_scalar_string

    def counted_parse(text):
        calls["scalars"] += 1
        return parse(text)

    class CountedAlgebra(documents.RelPoissonAlgebra):
        def __init__(self, *args):
            calls["algebras"] += 1
            super().__init__(*args)

    monkeypatch.setattr(documents, "parse_scalar_string", counted_parse)
    monkeypatch.setattr(documents, "RelPoissonAlgebra", CountedAlgebra)
    path = FIXTURES / fixture
    assert main([command, str(path)]) == 0
    assert calls == {"scalars": _entry_count(json.loads(path.read_text())), "algebras": 1}


def test_construct_write_failure_is_an_io_error(tmp_path, capsys):
    # the output path is a directory
    assert main(["construct", "subadjacent", str(FIXTURES / "zinbiel_3d.json"), "-o", str(tmp_path)]) == 3
    assert capsys.readouterr().err.startswith(f"error: cannot write {tmp_path}: ")


def test_pipeline_json_also_writes_the_document_to_output(tmp_path, capsys):
    src = str(FIXTURES / "prepoisson_3d.json")
    assert main(["pipeline", "--json", src]) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "double.json"
    assert main(["pipeline", "--json", "-o", str(out), src]) == 0
    assert capsys.readouterr().out == printed
    assert out.read_bytes() == (FIXTURES / "golden_double_14d.json").read_bytes()


def test_pipeline_write_failure_is_an_io_error(tmp_path, capsys):
    # the output directory does not exist; every stage ran before the write
    target = tmp_path / "missing" / "double.json"
    assert main(["pipeline", str(FIXTURES / "prepoisson_3d.json"), "-o", str(target)]) == 3
    last = capsys.readouterr().err.splitlines()[-1]
    assert last.startswith(f"error: cannot write {target}: ")


def test_an_unexpected_exception_is_an_internal_error(monkeypatch, capsys):
    # a fault of the program exits 4, never 1, which reads as an axiom failure
    def broken(args):
        raise KeyError("lost")

    monkeypatch.setattr(cli, "cmd_check", broken)
    assert main(["check", str(FIXTURES / "zinbiel_3d.json")]) == 4
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "internal error: KeyError: 'lost'\n")


def test_representation_fixture_is_the_subadjacent_representation():
    from relpoisson import LinearMap, subadjacent
    from relpoisson.documents import (
        doc_to_rel_pre_poisson,
        doc_to_representation,
        parse_document,
        representation_doc,
        serialize_document,
    )

    pp = doc_to_rel_pre_poisson(parse_document((FIXTURES / "prepoisson_3d.json").read_text()))
    alg, rep = subadjacent(pp)
    text = (FIXTURES / "representation_subadjacent_3d.json").read_text()
    doc = parse_document(text)
    written = representation_doc(rep, LinearMap.identity(alg.space), doc["description"])
    assert serialize_document(written) == text
    read, extras = doc_to_representation(doc)
    assert read == rep and extras == {"operator": LinearMap.identity(alg.space)}


def test_pipeline_json_mode(capsys):
    assert main(["pipeline", "--json", str(FIXTURES / "prepoisson_3d.json")]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert all(stage["ok"] for stage in payload["stages"])
    assert payload["document"]["dim"] == 14


def test_pipeline_malformed_input_exit_code(tmp_path):
    garbled = tmp_path / "garbled.json"
    garbled.write_text("]")
    assert main(["pipeline", str(garbled)]) == 3


def test_report_command(capsys):
    assert main(["report", str(FIXTURES / "bialgebra_7d.json")]) == 0
    out = capsys.readouterr().out
    assert "kind: bialgebra" in out and "unit" in out
    assert main(["report", "--json", str(FIXTURES / "prepoisson_3d.json")]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] and payload["dim"] == 3


def test_console_script_entry_point():
    exe = shutil.which("relpoisson")
    if exe is None:
        pytest.skip("console script not installed")
    proc = subprocess.run(
        [exe, "check", str(FIXTURES / "prepoisson_3d.json")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0 and proc.stdout.strip() == "ok"


def test_construct_rejects_mismatched_kind(tmp_path, capsys):
    # a recipe fed the wrong document kind must not silently read the
    # missing fields as zeros
    assert main(["construct", "bowtie", str(FIXTURES / "zinbiel_3d.json")]) == 3
    assert "expects a bialgebra document" in capsys.readouterr().err
    assert main(["construct", "extend-jacobi", str(FIXTURES / "prepoisson_3d.json")]) == 3
    assert main(["construct", "subadjacent", str(FIXTURES / "bialgebra_7d.json")]) == 3


def test_o_operator_rmatrix_with_explicit_maps(tmp_path):
    # writing beta and the dual map explicitly (equal to their defaults)
    # produces byte-identical output
    from relpoisson import subadjacent
    from relpoisson.documents import (
        doc_to_rel_pre_poisson,
        parse_document,
        representation_doc,
        serialize_document,
    )
    from relpoisson.documents import _sparse_entries
    from relpoisson.linalg import LinearMap

    pp = doc_to_rel_pre_poisson(parse_document((FIXTURES / "prepoisson_3d.json").read_text()))
    _alg, rep = subadjacent(pp)
    base = representation_doc(rep, operator=LinearMap.identity(rep.space))
    explicit = dict(base)
    explicit["beta"] = _sparse_entries(rep._alpha.neg()._sparse, "ji")
    explicit["dual_derivation"] = _sparse_entries(rep.algebra.derivation.neg()._sparse, "ji")
    out = {}
    for tag, doc in (("default", base), ("explicit", explicit)):
        source = tmp_path / f"{tag}.json"
        source.write_text(serialize_document(doc))
        target = tmp_path / f"{tag}_r.json"
        assert main(["construct", "o-operator-rmatrix", str(source), "-o", str(target)]) == 0
        out[tag] = target.read_bytes()
    assert out["default"] == out["explicit"]


def _coalgebra_7d_doc():
    from relpoisson.documents import coalgebra_doc, doc_to_bialgebra, parse_document

    data = doc_to_bialgebra(parse_document((FIXTURES / "bialgebra_7d.json").read_text()))
    return coalgebra_doc(data.dot_comult, data.bracket_comult, data.dual_derivation)


def _bilinear_form_14d_doc():
    golden = json.loads((FIXTURES / "golden_double_14d.json").read_text())
    algebra = {key: value for key, value in golden.items() if key != "form"}
    return {"kind": "bilinear-form", "algebra": algebra, "gram": golden["form"]}


def test_check_comultiplication_document(tmp_path, capsys):
    doc = _coalgebra_7d_doc()
    good = tmp_path / "coalgebra.json"
    good.write_text(json.dumps(doc))
    assert main(["check", str(good)]) == 0
    doc["dot_comult"].append([0, 1, 0, "1"])  # e1 -> e1 (x) e2 alone: not cocommutative
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["check", str(bad)]) == 1
    assert "dot:cocommutative" in capsys.readouterr().out


def test_check_bilinear_form_document(tmp_path, capsys):
    doc = _bilinear_form_14d_doc()
    good = tmp_path / "form.json"
    good.write_text(json.dumps(doc))
    assert main(["check", str(good)]) == 0
    doc["gram"] = doc["gram"][1:]  # drops a pairing: degenerate and not invariant
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["check", str(bad)]) == 1
    assert "form-nondegenerate" in capsys.readouterr().out


def test_check_as_unknown_kind_is_a_parse_error(capsys):
    assert main(["check", "--as", "frobnicator", str(FIXTURES / "zinbiel_3d.json")]) == 3
    assert "unknown kind" in capsys.readouterr().err


@pytest.mark.parametrize(
    "extra",
    [{"dim": 99, "basis": "zzz"}, {"dim": "abc"}, {"description": {"text": "x"}}],
)
def test_check_rejects_fields_outside_the_grammar(tmp_path, capsys, extra):
    sub = tmp_path / "subadjacent.json"
    main(["construct", "subadjacent", str(FIXTURES / "prepoisson_3d.json"), "-o", str(sub)])
    rdoc = tmp_path / "rmatrix.json"
    rmatrix = {"kind": "rmatrix", "algebra": json.loads(sub.read_text()), "r": []}
    rdoc.write_text(json.dumps({**rmatrix, **extra}))
    assert main(["check", str(rdoc)]) == 3
    algebra = {"kind": "rel-poisson", "dim": 1, "dot": [], "bracket": [], "derivation": []}
    bilinear = {"kind": "bilinear-form", "algebra": algebra, "gram": [[0, 0, "1"]]}
    form = tmp_path / "form.json"
    form.write_text(json.dumps({**bilinear, **extra}))
    assert main(["check", str(form)]) == 3
    form.write_text(json.dumps(bilinear))
    assert main(["check", str(form)]) == 0


def test_report_unit_uses_default_basis_labels(tmp_path, capsys):
    doc = tmp_path / "nobasis.json"
    product = [[0, 0, 0, "1"], [0, 1, 1, "1"], [1, 0, 1, "1"]]  # e1 is the unit
    doc.write_text(json.dumps({"kind": "comm-assoc", "dim": 2, "product": product}))
    assert main(["report", str(doc)]) == 0
    assert "unit: 1*e1\n" in capsys.readouterr().out


def test_report_counts_only_nonzero_entries(tmp_path, capsys):
    doc = tmp_path / "zeros.json"
    product = [[0, 0, 0, "0"]]
    doc.write_text(json.dumps({"kind": "comm-assoc", "dim": 1, "product": product}))
    assert main(["report", str(doc)]) == 0
    assert "nonzero_entries: {'product': 0}\n" in capsys.readouterr().out
    product = [[0, 0, 0, "1"], [0, 0, 1, "0"], [1, 1, 1, "-1/2"], [1, 0, 0, "0"]]
    doc.write_text(json.dumps({"kind": "comm-assoc", "dim": 2, "product": product}))
    main(["report", "--json", str(doc)])
    assert json.loads(capsys.readouterr().out)["nonzero_entries"] == {"product": 2}


@pytest.mark.parametrize("entry", [[], 5, {}], ids=["empty-list", "number", "object"])
def test_report_rejects_a_malformed_entry_as_check_does(tmp_path, capsys, entry):
    # report once counted the raw entries before validating any, so these
    # raised IndexError, TypeError or KeyError and exited 1
    doc = json.loads((FIXTURES / "zinbiel_3d.json").read_text())
    doc["product"].append(entry)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    for command in (["report"], ["report", "--json"], ["check"]):
        assert main([*command, str(bad)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: entry in 'product' must be 3 indices plus a scalar")
