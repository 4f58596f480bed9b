"""One stored form per structure: products, comultiplications, action
families, linear maps, 2-tensors and bilinear forms keep only their sparse
form, and every dense attribute is a view derived from it.  Rebuilding a
structure from its dense view gives an equal structure with identical
checker reports, and the pipeline and the document reader run without
reading any dense view."""

import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relpoisson import (
    BialgebraData,
    BilinearForm,
    BilinearOp,
    CompatibleStructure,
    Comultiplication,
    LinearMap,
    MatchedPairData,
    RelPoissonAlgebra,
    RepData,
    Space,
    Tensor2,
    Tensor3,
    adjoint_rep,
    check_cocomm_coassoc,
    check_comm_assoc,
    check_dual_rep_conditions,
    check_lie,
    check_lie_coalgebra,
    check_matched_pair,
    check_rep_equivalence,
    check_representation,
    combine_matched_pair,
    dual_rep,
    induced_matched_pair,
    semidirect_structure,
)
from relpoisson.algebra import block_sum
from relpoisson.cli import main
from relpoisson.linalg import _view, mat_inverse
from dense_matrices import identity_matrix, mat_mul, zero_matrix

from conftest import FIXTURES, worked_subadjacent, zero_algebra

VALUES = st.sampled_from((1, -1, 2, F(1, 2), F(-3, 2)))


@st.composite
def entries(draw, n, size=6):
    if not n:
        return []
    index = st.integers(0, n - 1)
    return draw(st.lists(st.tuples(index, index, index, VALUES), max_size=size))


@st.composite
def algebras(draw, n):
    sp = Space.of_dim(n)
    der = LinearMap(sp, sp, draw(matrices(n)))
    dot, bracket = (BilinearOp.from_entries(sp, draw(entries(n))) for _ in range(2))
    return RelPoissonAlgebra(sp, dot, bracket, der)


@st.composite
def matrices(draw, n):
    cell = st.sampled_from((0, 0, 0, 1, -1, F(1, 2)))
    return tuple(tuple(draw(cell) for _ in range(n)) for _ in range(n))


@st.composite
def bialgebras(draw):
    n = draw(st.integers(0, 3))
    alg = draw(algebras(n))
    dot_comult, bracket_comult = (
        Comultiplication.from_entries(alg.space, draw(entries(n))) for _ in range(2)
    )
    codrv = LinearMap(alg.space, alg.space, draw(matrices(n)))
    return BialgebraData(alg, dot_comult, bracket_comult, codrv)


@settings(max_examples=60, deadline=None)
@given(data=bialgebras(), beta_seed=st.data())
def test_dense_round_trip_gives_equal_structures_and_reports(data, beta_seed):
    alg, n = data.algebra, data.algebra.dim
    for op in (alg.dot, alg.bracket):
        rebuilt = BilinearOp(op.space, op.table)
        assert rebuilt == op and hash(rebuilt) == hash(op)
        assert check_comm_assoc(rebuilt) == check_comm_assoc(op)
        assert check_lie(rebuilt) == check_lie(op)
    for comult in (data.dot_comult, data.bracket_comult):
        rebuilt = Comultiplication(comult.space, comult.columns)
        assert rebuilt == comult and hash(rebuilt) == hash(comult)
        assert check_cocomm_coassoc(rebuilt) == check_cocomm_coassoc(comult)
        assert check_lie_coalgebra(rebuilt) == check_lie_coalgebra(comult)
    # representations built sparse: the adjoint one and its dual along beta
    beta = beta_seed.draw(matrices(n))
    for rep in (adjoint_rep(alg), dual_rep(adjoint_rep(alg), beta)):
        dense = (rep.dot_action, rep.bracket_action, rep.der_action)
        rebuilt = RepData(rep.algebra, rep.space, *dense)
        assert rebuilt == rep and hash(rebuilt) == hash(rep)
        assert check_representation(rebuilt) == check_representation(rep)
        assert check_dual_rep_conditions(rebuilt, beta) == check_dual_rep_conditions(rep, beta)
        cs = rep.compatible_structure()
        assert CompatibleStructure(cs.algebra, cs.space, cs.dot_action, cs.bracket_action) == cs
    pair = induced_matched_pair(data)
    rebuilt = MatchedPairData(
        pair.left,
        pair.right,
        pair.dot_action_on_right,
        pair.bracket_action_on_right,
        pair.dot_action_on_left,
        pair.bracket_action_on_left,
    )
    assert rebuilt == pair and hash(rebuilt) == hash(pair)
    assert check_matched_pair(rebuilt) == check_matched_pair(pair)
    assert combine_matched_pair(rebuilt) == combine_matched_pair(pair)


def test_same_coefficients_compare_equal_whichever_path_built_them():
    sp = Space.of_dim(2)
    entries_ = [(0, 1, 1, F(1, 2)), (1, 0, 1, 1), (0, 1, 1, F(1, 2))]
    table = (((0, 0), (0, 1)), ((0, 1), (0, 0)))
    assert BilinearOp.from_entries(sp, entries_) == BilinearOp(sp, table)
    assert BilinearOp.from_entries(sp, [(0, 0, 0, 1), (0, 0, 0, -1)]) == BilinearOp.zero(sp)
    columns = (((0, 0), (0, 0)), ((0, 1), (2, 0)))
    assert Comultiplication.from_entries(sp, [(0, 1, 1, 1), (1, 0, 1, 2)]) == Comultiplication(
        sp, columns
    )
    alg = RelPoissonAlgebra(sp, BilinearOp(sp, table), BilinearOp.zero(sp), LinearMap.zero(sp))
    dense = RepData(
        alg,
        sp,
        tuple(alg.dot.left_matrix(i) for i in range(2)),
        tuple(alg.bracket.left_matrix(i) for i in range(2)),
        zero_matrix(2, 2),
    )
    assert adjoint_rep(alg) == dense and adjoint_rep(alg) != dense.compatible_structure()


@settings(max_examples=40, deadline=None)
@given(alg=algebras(2), data=st.data())
def test_rep_equivalence_matches_its_dense_definition(alg, data):
    rep = adjoint_rep(alg)
    phi = data.draw(matrices(2))
    phi_map = LinearMap(alg.space, alg.space, phi)
    try:
        inv = mat_inverse(phi)
    except ValueError:
        inv = None
    if inv is not None:
        # conjugating by an invertible phi gives an equivalent representation
        conj = [
            tuple(mat_mul(mat_mul(phi, m), inv) for m in fam)
            for fam in (rep.dot_action, rep.bracket_action)
        ]
        other = RepData(alg, alg.space, *conj, mat_mul(mat_mul(phi, rep.der_action), inv))
        assert check_rep_equivalence(rep, other, phi_map)
    other = dual_rep(rep, data.draw(matrices(2)))
    other = RepData(alg, alg.space, other.dot_action, other.bracket_action, other.der_action)
    intertwines = all(
        mat_mul(phi, a) == mat_mul(b, phi)
        for a, b in zip(
            rep.dot_action + rep.bracket_action + (rep.der_action,),
            other.dot_action + other.bracket_action + (other.der_action,),
        )
    )
    assert check_rep_equivalence(rep, other, phi_map) == (inv is not None and intertwines)


# ---------------------------------------------------------------------------
# mis-sized action families raise ValueError at the one dense-to-sparse
# conversion, for every construction that takes them


A2, A3 = zero_algebra(2), zero_algebra(3)
I2, I3 = identity_matrix(2), identity_matrix(3)
V3 = Space.of_dim(3, "v")

MIS_SIZED_CONSTRUCTIONS = {
    "block_sum-family-length": lambda: block_sum(A2, A3, (I3,), (I3, I3), (I2,) * 3, (I2,) * 3),
    "block_sum-matrix-size": lambda: block_sum(A2, A3, (I3, I2), (I3, I3), (I2,) * 3, (I2,) * 3),
    "block_sum-back-length": lambda: block_sum(A2, A3, (I3, I3), (I3, I3), (I2,) * 2, (I2,) * 3),
    "semidirect-family-length": lambda: semidirect_structure(A2, V3, (I3,), (I3,), I3),
    "semidirect-matrix-size": lambda: semidirect_structure(A2, V3, (I3, I3), (I3, I2), I3),
    "semidirect-endo-size": lambda: semidirect_structure(A2, V3, (I3, I3), (I3, I3), I2),
    "matched-pair-family-length": lambda: combine_matched_pair(
        MatchedPairData(A2, A3, (I3,) * 2, (I3,) * 2, (I2,) * 3, (I2,) * 2)
    ),
    "matched-pair-matrix-size": lambda: combine_matched_pair(
        MatchedPairData(A2, A3, (I3,) * 2, (I3,) * 2, (I2,) * 3, (I2, I2, I3))
    ),
}


@pytest.mark.parametrize("name", sorted(MIS_SIZED_CONSTRUCTIONS))
def test_constructions_reject_mis_sized_action_families(name):
    with pytest.raises(ValueError) as exc:
        MIS_SIZED_CONSTRUCTIONS[name]()
    assert "action matrix" in str(exc.value)


# ---------------------------------------------------------------------------
# the pipeline on the stored forms


CUBIC_VIEWS = (
    (BilinearOp, "table"),
    (BilinearOp, "product"),
    (BilinearOp, "entry"),
    (Comultiplication, "columns"),
    (Comultiplication, "coeff"),
    (MatchedPairData, "dot_action_on_right"),
    (MatchedPairData, "bracket_action_on_right"),
    (MatchedPairData, "dot_action_on_left"),
    (MatchedPairData, "bracket_action_on_left"),
)


# the dense views of the square structures, which are read by no builder
SQUARE_VIEWS = (
    (LinearMap, "entries"),
    (LinearMap, "column"),
    (Tensor2, "coeffs"),
    (BilinearForm, "gram"),
    (RepData, "der_action"),
)


def _forbid_dense_views(monkeypatch):
    """Make every dense view of a sparse-stored structure raise, and return
    the list that records each read of a dense action family."""

    def forbidden(self, *args):
        raise AssertionError(f"dense view of {type(self).__name__} read")

    for cls, name in CUBIC_VIEWS + SQUARE_VIEWS:
        monkeypatch.setattr(cls, name, property(forbidden))
    reads = []
    for name in ("dot_action", "bracket_action"):
        view = CompatibleStructure.__dict__[name]

        def recorded(self, _view=view, _name=name):
            reads.append((_name, self.algebra.dim, self.space.dim))
            return _view.func(self)

        monkeypatch.setattr(CompatibleStructure, name, property(recorded))
    return reads


@pytest.mark.parametrize(
    "source, golden",
    [
        ("prepoisson_3d.json", "golden_double_14d.json"),
        ("prepoisson_3d_fractional.json", "golden_double_14d_fractional.json"),
    ],
)
def test_pipeline_reads_no_cubic_dense_view(tmp_path, monkeypatch, capsys, source, golden):
    # no dense action family, map, tensor or form is read either
    reads = _forbid_dense_views(monkeypatch)
    out = tmp_path / "double.json"
    assert main(["pipeline", str(FIXTURES / source), "-o", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == (FIXTURES / golden).read_bytes()
    assert reads == []


def sparse_representation_doc(d: int) -> dict:
    """A representation document with algebra and module of dim d and d
    nonzero entries: e_i e_i = e_i and mu(e_i) = E_ii for i < d/3, and
    alpha = E_ii for d/3 <= i < 2d/3."""
    k = d // 3
    algebra = {"kind": "rel-poisson", "dim": d, "dot": [[i, i, i, "1"] for i in range(k)]}
    return {
        "kind": "representation",
        "dim": d,
        "algebra": dict(algebra, bracket=[], derivation=[]),
        "dot_action": [[i, i, i, "1"] for i in range(k)],
        "bracket_action": [],
        "der_action": [[i, i, "1"] for i in range(k, 2 * k)],
    }


# the output at the commit before these structures were stored sparse
SPARSE_REPRESENTATION_OUTPUT = {
    "check": "ok\n",
    "report": "kind: representation\ndim: 120\n"
    "nonzero_entries: {'dot_action': 40, 'der_action': 40}\nok: True\n",
    "pipeline": "",
}


@pytest.mark.parametrize("command", sorted(SPARSE_REPRESENTATION_OUTPUT))
def test_reading_a_large_sparse_representation_reads_no_dense_view(
    tmp_path, monkeypatch, capsys, command
):
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(sparse_representation_doc(120)))
    reads = _forbid_dense_views(monkeypatch)
    # pipeline takes only a rel-pre-poisson document
    assert main([command, str(path)]) == (3 if command == "pipeline" else 0)
    assert capsys.readouterr().out == SPARSE_REPRESENTATION_OUTPUT[command]
    assert reads == []


# ---------------------------------------------------------------------------
# an entry-built table is read by its entries, never cell by cell


def sparse_rel_poisson_doc(d: int) -> dict:
    """A relative Poisson algebra of dim d with a few entries: idempotents
    e_0 and e_{d-4}, two Heisenberg brackets [e_1, e_2] = e_3 and
    [e_{d-3}, e_{d-2}] = e_{d-1}, and the derivation fixing e_1, e_3,
    e_{d-3} and e_{d-1} and killing the rest."""
    a, b, c = d - 3, d - 2, d - 1
    return {
        "kind": "rel-poisson",
        "dim": d,
        "dot": [[0, 0, 0, "1"], [d - 4, d - 4, d - 4, "1"]],
        "bracket": [[1, 2, 3, "1"], [2, 1, 3, "-1"], [a, b, c, "1"], [b, a, c, "-1"]],
        "derivation": [[i, i, "1"] for i in (1, 3, a, c)],
    }


# the output at the commit before entry-built tables kept their entries
SPARSE_REL_POISSON_OUTPUT = {
    "check": "ok\n",
    "report": "kind: rel-poisson\ndim: 2000\n"
    "nonzero_entries: {'dot': 2, 'bracket': 4, 'derivation': 4}\nok: True\n",
}


def diagonal_rel_poisson_doc(d: int) -> dict:
    """A relative Poisson algebra of dim d with the d idempotents
    e_i e_i = e_i, one entry in each row of its product."""
    dot = [[i, i, i, "1"] for i in range(d)]
    return {"kind": "rel-poisson", "dim": d, "dot": dot, "bracket": [], "derivation": []}


@pytest.mark.parametrize("command", sorted(SPARSE_REL_POISSON_OUTPUT))
def test_a_large_sparse_document_is_read_without_walking_its_cells(
    tmp_path, monkeypatch, capsys, command
):
    """A table holds only its entries, so a command allocates in
    proportion to the entries and dim, also when they sit in every row:
    one slot per cell of a 2000-dim table would take 32 MB."""
    dim = 2000
    path = tmp_path / "rel_poisson.json"
    outputs = []
    for doc in (sparse_rel_poisson_doc(dim), diagonal_rel_poisson_doc(dim)):
        path.write_text(json.dumps(doc))
        tracemalloc.start()
        try:
            assert main([command, str(path)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000, f"{command} allocated {peak} bytes at dim {dim}"
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == SPARSE_REL_POISSON_OUTPUT[command]


# The launcher spawns the command and prints its exit code and its peak
# resident size, read from os.wait4.  A child's peak starts from its
# parent's size at spawn, because exec keeps the high-water mark of the
# memory it replaces, so only a launcher smaller than the command, not
# the test process itself, reads the command's own peak.
_LAUNCHER = """
import os, sys
argv = [sys.executable, "-m", "relpoisson.cli", *sys.argv[1:]]
_, status, usage = os.wait4(os.posix_spawn(sys.executable, argv, os.environ), 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def test_checking_a_3200_dim_diagonal_document_peaks_under_40_mb(tmp_path):
    """A document linear in dim is checked in memory linear in dim: with
    the 3200 diagonal entries e_i e_i = e_i, the child peaks under 40 MB."""
    path = tmp_path / "diagonal.json"
    path.write_text(json.dumps(diagonal_rel_poisson_doc(3200)))
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", _LAUNCHER, "check", str(path)], env=env, capture_output=True, text=True
    )
    *out, status = proc.stdout.splitlines()
    code, peak = map(int, status.split())
    assert (code, out) == (0, ["ok"]), proc.stderr
    # ru_maxrss counts kilobytes on Linux and bytes on macOS
    peak_mb = peak / (2**20 if sys.platform == "darwin" else 2**10)
    assert peak_mb < 40, f"check peaked at {peak_mb:.1f} MB"


def test_a_one_entry_product_at_dim_120_prints_its_stored_table():
    sp = Space.of_dim(120)
    op = BilinearOp.from_entries(sp, [(0, 1, 2, 1)])
    text = repr(op)
    assert text == f"BilinearOp(space={sp!r}, _sparse=_Table((((0, 1, 2), 1),), (120, 120, 120)))"
    assert len(text) < 2000 and "table" not in vars(op)


def test_every_stored_structure_prints_without_a_dense_view():
    # a structure, and a container of structures, prints as its stored
    # attributes, so printing leaves nothing else on an instance
    alg = worked_subadjacent()
    sp, module = alg.space, Space.of_dim(2, "v")
    family = (((1, 0), (0, F(1, 2))),) * 3
    zero_comult = Comultiplication.zero(sp)
    structures = [
        LinearMap(sp, sp, ((1, 0, 0), (0, 2, 0), (0, 0, 3))),
        Tensor2(sp, sp, ((0, 1, 0), (-1, 0, 0), (0, 0, 0))),
        Tensor3((sp, sp, sp), (((0,) * 3,) * 3,) * 3),
        alg.dot,
        Comultiplication.from_entries(sp, alg.dot.nonzero_entries()),
        CompatibleStructure(alg, module, family, family),
        RepData(alg, module, family, family, ((1, 0), (0, 1))),
        BilinearForm(sp, ((0, 0, 1), (0, 1, 0), (1, 0, 0))),
        induced_matched_pair(BialgebraData(alg, zero_comult, zero_comult, alg.derivation)),
    ]
    for s in structures:
        text = repr(s)
        assert text.startswith(f"{type(s).__name__}(") and "_Table(" in text
        assert set(vars(s)) == set(s._stored), type(s).__name__
    assert "_sparse=_Table(" in repr(alg)
    for part in (alg.dot, alg.bracket, alg.derivation):
        assert set(vars(part)) == set(part._stored)


def test_point_reads_at_dim_120_read_the_stored_table():
    # a coefficient, or one product e_i * e_j, is read from the stored
    # entries: no dense view is left on the instance, where one would hold
    # 120**3 cells, and every read equals the stored table's view
    sp = Space.of_dim(120)
    op = BilinearOp.from_entries(sp, [(0, 1, 2, F(1, 2))])
    comult = Comultiplication.from_entries(sp, [(0, 1, 2, -3)])
    table, columns = _view(op._sparse), _view(comult._sparse)
    indices = (0, 1, 2, 119)
    for i in indices:
        for j in range(120):
            assert op.product(i, j) == table[i][j] and op.product(j, i) == table[j][i]
        for j in indices:
            for k in indices:
                assert op.entry(i, j, k) == table[i][j][k]
                assert comult.coeff(i, j, k) == columns[k][i][j]
    for s in (op, comult):
        assert set(vars(s)) == set(s._stored), type(s).__name__
