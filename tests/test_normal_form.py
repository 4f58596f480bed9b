"""The scalar normal form: an int when the value is integral, a Fraction
only when its denominator is not 1, and never a float."""

import ast
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import pytest

from relpoisson import (
    BilinearForm,
    BilinearOp,
    CompatibleStructure,
    Comultiplication,
    LinearMap,
    RelPoissonAlgebra,
    Space,
    Tensor2,
    check_bialgebra,
    check_manin_triple,
    check_matched_pair,
    check_rel_poisson,
    combine_matched_pair,
    dual_rel_poisson_algebra,
    frobenius_jacobi_pipeline,
    induced_matched_pair,
)
from relpoisson.algebra import ad_map
from relpoisson.documents import doc_to_rel_pre_poisson, parse_document, parse_scalar_string
from relpoisson.linalg import div, scalar

from conftest import FIXTURES, is_normal, rel_poisson_corpus, trivial_bialgebra

SRC = Path(__file__).resolve().parent.parent / "src" / "relpoisson"


def leaves(value):
    """Every non-tuple leaf of a nested tuple."""
    if isinstance(value, tuple):
        for item in value:
            yield from leaves(item)
    else:
        yield value


def test_scalar_normal_form():
    assert type(scalar(F(3))) is int and scalar(F(6, 2)) == 3
    assert type(scalar(True)) is int and scalar(True) == 1
    assert type(scalar("4/2")) is int and scalar("-7") == -7
    assert scalar("2/4") == F(1, 2) and type(scalar("2/4")) is F
    assert scalar(5) == 5
    for bad in (1.0, None, [1]):
        with pytest.raises(TypeError):
            scalar(bad)


def test_div_is_exact_and_normal():
    assert div(1, 2) == F(1, 2) and type(div(1, 2)) is F
    assert div(4, 2) == 2 and type(div(4, 2)) is int
    assert div(F(1, 2), F(1, 4)) == 2 and type(div(F(1, 2), F(1, 4))) is int
    with pytest.raises(ZeroDivisionError):
        div(1, 0)


def test_parse_scalar_string_normal_form():
    assert type(parse_scalar_string("6/3")) is int
    assert type(parse_scalar_string("-12")) is int
    assert parse_scalar_string("-2/6") == F(-1, 3)


def _outside_linalg(function: str, match) -> list:
    """file:line of every AST node of the package that ``match`` accepts,
    except those inside the function of that name in ``linalg.py``."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = set()
        if path.name == "linalg.py":
            (body,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == function]
            allowed = {id(node) for node in ast.walk(body)}
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if match(node) and id(node) not in allowed
        ]
    return found


def test_true_division_only_inside_linalg_div():
    """``int / int`` is a float, so the only ``/`` in the package is the
    one in ``linalg.div``, which divides a Fraction."""
    found = _outside_linalg(
        "div", lambda node: isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)
    )
    assert not found, f"true division outside linalg.div: {found}"


def _calls_div(node) -> bool:
    func = getattr(node, "func", None) if isinstance(node, ast.Call) else None
    return getattr(func, "id", None) == "div" or getattr(func, "attr", None) == "div"


def test_div_called_only_inside_the_eliminator():
    """Every exact solve goes through one elimination: ``div`` is called
    only inside ``linalg._gauss_jordan``."""
    found = _outside_linalg("_gauss_jordan", _calls_div)
    assert not found, f"div called outside linalg._gauss_jordan: {found}"


def test_no_module_runs_generated_code():
    """The sweep interprets its specs: no module calls exec, eval or
    compile.  Sweep code generated from the specs ran about 30% faster
    per operation in a prototype, but compiling the 53 specs took about
    57 ms, against under 10 ms to plan them (Python 3.11 on a 2-vCPU VM),
    and every process pays that."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in {"exec", "eval", "compile"}
    ]
    assert not found, f"exec, eval or compile called: {found}"


def test_constructors_store_the_normal_form():
    sp = Space.of_dim(2)
    checks = [
        LinearMap(sp, sp, ((F(3), F(1, 2)), (F(0), "4/2"))).entries,
        Tensor2(sp, sp, ((F(-2), 0), (F(2, 3), F(9, 3)))).coeffs,
        BilinearOp.from_entries(sp, [(0, 1, 0, F(3)), (1, 1, 1, F(1, 2)), (1, 1, 1, F(1, 2))]).table,
        BilinearOp(sp, (((F(2), 0), (0, 0)), ((0, 0), (0, F(5, 5))))).table,
        Comultiplication.from_entries(sp, [(0, 1, 0, F(3)), (1, 1, 1, F(1, 3)), (1, 1, 1, F(2, 3))]).columns,
    ]
    for stored in checks:
        assert all(is_normal(x) for x in leaves(stored)), stored
    # repeated positions summing to an integer are stored as an int
    op = BilinearOp.from_entries(sp, [(1, 1, 1, F(1, 2)), (1, 1, 1, F(1, 2))])
    assert type(op.entry(1, 1, 1)) is int and op.nonzero_entries() == [(1, 1, 1, 1)]


def test_evaluators_return_the_normal_form():
    # fractional constants whose evaluations at u = (4, 4) are integral
    sp, u, v = Space.of_dim(2), (4, 4), (1, 1)
    entries = [(0, 0, 0, F(1, 2)), (0, 1, 1, F(3, 2)), (1, 0, 1, F(1, 2)), (1, 1, 0, F(1, 4))]
    op, comult = BilinearOp.from_entries(sp, entries), Comultiplication.from_entries(sp, entries)
    f = LinearMap(sp, sp, ((F(1, 2), F(3, 2)), (F(1, 4), F(1, 4))))
    form = BilinearForm(sp, ((F(1, 2), F(1, 4)), (F(1, 4), 0)))
    family = (((F(1, 2), 0), (0, F(1, 4))), ((F(1, 2), F(1, 4)), (0, 0)))
    alg = RelPoissonAlgebra(sp, op, BilinearOp.zero(sp), LinearMap.zero(sp))
    cs = CompatibleStructure(alg, Space.of_dim(2, "v"), family, family)
    outputs = {
        "apply": op.apply(u, v),
        "left_matrix_of": op.left_matrix_of(u),
        "ad_map": ad_map(op, u).entries,
        "LinearMap.__call__": f(u),
        "column": f.column(1),
        "Comultiplication.of": comult.of(u),
        "dot_action_of": cs.dot_action_of(u),
        "bracket_action_of": cs.bracket_action_of(u),
        "BilinearForm.value": form.value(u, v),
    }
    for name, out in outputs.items():
        assert all(is_normal(x) for x in leaves(out)), (name, out)
        if name != "column":
            assert all(type(x) is int for x in leaves(out)) and any(leaves(out)), (name, out)


def _pipeline_scalars(pp):
    bialgebra, frob = frobenius_jacobi_pipeline(pp)
    alg = frob.algebra
    yield from leaves(alg.dot.table)
    yield from leaves(alg.bracket.table)
    # the stored tables of the products hold (indices, value) pairs
    yield from leaves(alg.dot._sparse.entries)
    yield from leaves(alg.bracket._sparse.entries)
    yield from leaves(alg.derivation.entries)
    yield from leaves(frob.form.gram)
    yield from leaves(frob.unit)
    yield from leaves(bialgebra.dot_comult.columns)
    yield from leaves(bialgebra.bracket_comult.columns)
    yield from leaves(bialgebra.dual_derivation.entries)


@pytest.mark.parametrize("fixture", ["prepoisson_3d.json", "prepoisson_3d_fractional.json"])
def test_pipeline_output_double_is_in_normal_form(fixture):
    pp = doc_to_rel_pre_poisson(parse_document((FIXTURES / fixture).read_text()))
    scalars = list(_pipeline_scalars(pp))
    assert all(is_normal(x) for x in scalars)
    if "fractional" in fixture:
        assert any(type(x) is F for x in scalars)
    else:
        assert all(type(x) is int for x in scalars)


def _bumped(alg: RelPoissonAlgebra, field: str, k: int, delta) -> RelPoissonAlgebra:
    """alg with delta added to the structure constant e_0 * e_1 -> e_k (or
    e_0 * e_0 in dimension 1) of its dot or bracket."""
    j = min(1, alg.dim - 1)
    parts = {"dot": alg.dot, "bracket": alg.bracket}
    parts[field] = BilinearOp.from_entries(
        alg.space, parts[field].nonzero_entries() + [(0, j, k, delta)]
    )
    return RelPoissonAlgebra(alg.space, parts["dot"], parts["bracket"], alg.derivation)


def test_failing_corpus_defects_hold_no_float():
    """Integral and fractional single-constant edits of every corpus algebra
    break its trivial bialgebra; every defect the checkers report is exact."""
    reports = []
    for _name, alg in rel_poisson_corpus():
        for field in ("dot", "bracket"):
            for delta in (1, F(-1, 2), F(2, 3)):
                bad = _bumped(alg, field, alg.dim - 1, delta)
                data = replace(trivial_bialgebra(alg), algebra=bad)
                pair = induced_matched_pair(data)
                reports += [
                    check_rel_poisson(bad),
                    check_bialgebra(data),
                    check_matched_pair(pair),
                    check_manin_triple(bad, dual_rel_poisson_algebra(data), combine_matched_pair(pair)),
                ]
    failing = [r for r in reports if not r.ok]
    assert len(failing) > 50
    defects = [x for r in failing for v in r.violations for x in v.defect]
    assert defects and not any(isinstance(x, float) for x in defects)
    assert all(isinstance(x, (int, F)) for x in defects)
    assert any(type(x) is F for x in defects) and any(type(x) is int for x in defects)
