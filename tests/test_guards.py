"""The argument guards: each rejects inputs of mismatched spaces or sizes
with ValueError (or, at the command line, exit code 3) before any sweep
or construction runs."""

import json

import pytest

from relpoisson import (
    BialgebraData,
    BilinearForm,
    BilinearOp,
    Comultiplication,
    LinearMap,
    RelPoissonAlgebra,
    RelPrePoissonAlgebra,
    RepData,
    Space,
    Tensor2,
    adjoint_rep,
    aybe_tensor,
    canonical_pairing,
    check_invariant_form,
    check_jacobi_algebra,
    check_jacobi_representation,
    check_manin_triple,
    check_rel_poisson_coalgebra,
    check_relative_leibniz,
    check_rep_equivalence,
    check_rpybe,
    check_weak_o_operator,
    cybe_tensor,
    dual_algebra_to_comult,
    lift_o_operator,
    o_operator_to_rmatrix,
    semidirect_product,
    tensor_as_map,
)
from relpoisson.cli import main
from relpoisson.documents import validate_document

from conftest import FIXTURES, worked_subadjacent, zero_algebra

SP2, SP3 = Space.of_dim(2), Space.of_dim(3)
OP2, OP3 = BilinearOp.zero(SP2), BilinearOp.zero(SP3)
ID3 = LinearMap.identity(SP3)


def _rep3(m=None):
    """The adjoint representation of the worked 3-dim algebra, or its zero
    representation on an m-dim module."""
    alg = worked_subadjacent()
    if m is None:
        return adjoint_rep(alg)
    zero = ((0,) * m,) * m
    return RepData(alg, Space.of_dim(m, "v"), (zero,) * 3, (zero,) * 3, zero)


def _zero_x3():
    """The zero algebra on a 3-dim space other than the worked algebra's."""
    sp = Space.of_dim(3, "x")
    return RelPoissonAlgebra(sp, BilinearOp.zero(sp), BilinearOp.zero(sp), LinearMap.zero(sp))


def _fixture(name):
    return json.loads((FIXTURES / name).read_text())


def _cli_exit(tmp_path, recipe, fixture, drop):
    """The exit code of ``construct recipe`` on a fixture without the field ``drop``."""
    doc = _fixture(fixture)
    del doc[drop]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    return main(["construct", recipe, str(path)])


# name -> (a call that reaches the guard, given tmp_path; the start of
# the ValueError's message, or of the command's stderr after "error: ",
# or the value the call returns)
GUARDS = {
    "check_relative_leibniz": (
        lambda _: check_relative_leibniz(OP2, OP3, ID3),
        "dot and bracket live on different spaces",
    ),
    "check_jacobi_algebra": (lambda _: check_jacobi_algebra(OP2, OP3), "dot and bracket live on different spaces"),
    "RelPoissonAlgebra": (
        lambda _: RelPoissonAlgebra(SP3, OP2, OP3, ID3),
        "algebra components live on different spaces",
    ),
    "RelPrePoissonAlgebra": (
        lambda _: RelPrePoissonAlgebra(SP3, OP3, OP2, ID3),
        "algebra components live on different spaces",
    ),
    "BialgebraData": (
        lambda _: BialgebraData(zero_algebra(3), Comultiplication.zero(SP2), Comultiplication.zero(SP3), ID3),
        "bialgebra components live on different spaces",
    ),
    "check_rel_poisson_coalgebra": (
        lambda _: check_rel_poisson_coalgebra(Comultiplication.zero(SP2), Comultiplication.zero(SP3), ID3),
        "comultiplications live on different spaces",
    ),
    "check_invariant_form": (
        lambda _: check_invariant_form(zero_algebra(3), BilinearForm(SP2, ((1, 0), (0, 1)))),
        "form and algebra live on different spaces",
    ),
    "aybe_tensor": (
        lambda _: aybe_tensor(Tensor2.zero(SP2, SP2), OP3),
        "tensor and multiplication live on different spaces",
    ),
    "cybe_tensor": (
        lambda _: cybe_tensor(Tensor2.zero(SP2, SP2), OP3),
        "tensor and bracket live on different spaces",
    ),
    "dual_algebra_to_comult": (lambda _: dual_algebra_to_comult(OP2, SP3), "dimension mismatch"),
    "tensor_as_map": (lambda _: tensor_as_map(Tensor2.zero(SP2, SP3)), "tensor factor mismatch"),
    "Tensor2.add": (lambda _: Tensor2.zero(SP2, SP2).add(Tensor2.zero(SP2, SP3)), "tensor factor mismatch"),
    "canonical_pairing": (lambda _: canonical_pairing(SP3), "canonical pairing needs an even-dimensional double"),
    "semidirect_product": (
        lambda _: semidirect_product(zero_algebra(3), _rep3()),
        "representation does not act for the given algebra",
    ),
    "check_rep_equivalence-phi": (
        lambda _: check_rep_equivalence(_rep3(), _rep3(), LinearMap.zero(SP2, SP3)),
        "phi does not map between the module spaces",
    ),
    "check_rep_equivalence-non-square": (
        lambda _: check_rep_equivalence(_rep3(2), _rep3(), LinearMap.zero(SP2, SP3)),
        False,
    ),
    "check_rep_equivalence-algebras": (
        lambda _: check_rep_equivalence(adjoint_rep(zero_algebra(2)), _rep3(), LinearMap.zero(SP2, SP3)),
        "representations of algebras on different spaces",
    ),
    "check_jacobi_representation": (
        lambda _: check_jacobi_representation(OP2, OP3, (), (), SP2),
        "dot and bracket live on different spaces",
    ),
    "check_manin_triple": (
        lambda _: check_manin_triple(zero_algebra(2), zero_algebra(2), zero_algebra(3)),
        "Manin triple dimension mismatch",
    ),
    "check_rpybe": (
        lambda _: check_rpybe(zero_algebra(3), ID3, Tensor2.zero(SP2, SP2)),
        "tensor does not live on the algebra's space",
    ),
    "o_operator_to_rmatrix-operator": (
        lambda _: o_operator_to_rmatrix(_rep3(), ID3, ID3, LinearMap.zero(SP2, SP3)),
        "operator does not map the module into the algebra",
    ),
    "o_operator_to_rmatrix-dual-map": (
        lambda _: o_operator_to_rmatrix(_rep3(), ID3, LinearMap.identity(SP2), ID3),
        "dual map is not an endomorphism of the algebra's space",
    ),
    "check_weak_o_operator-operator": (
        lambda _: check_weak_o_operator(worked_subadjacent(), _rep3(), ID3, LinearMap.zero(SP2, SP3)),
        "operator does not map the module into the algebra",
    ),
    "check_weak_o_operator-algebra": (
        lambda _: check_weak_o_operator(_zero_x3(), _rep3(), ID3, LinearMap.zero(SP3, Space.of_dim(3, "x"))),
        "representation does not act for the given algebra",
    ),
    "lift_o_operator": (
        lambda _: lift_o_operator(_rep3(), LinearMap.zero(SP2, SP3)),
        "operator does not map the module into the algebra",
    ),
    "validate_document-document": (
        lambda _: validate_document(["kind", "rel-poisson"]),
        "document must be a JSON object",
    ),
    "validate_document-algebra": (
        lambda _: validate_document(dict(_fixture("representation_subadjacent_3d.json"), algebra=[])),
        "missing embedded algebra object",
    ),
    "construct-bracket-from-derivation": (
        lambda tmp: _cli_exit(tmp, "bracket-from-derivation", "comm_assoc_3d.json", "derivation"),
        "document carries no derivation",
    ),
    "construct-o-operator-rmatrix": (
        lambda tmp: _cli_exit(tmp, "o-operator-rmatrix", "representation_subadjacent_3d.json", "operator"),
        "o-operator-rmatrix needs an operator field",
    ),
}


@pytest.mark.parametrize("name", list(GUARDS))
def test_each_guard_rejects_its_mismatch(tmp_path, capsys, name):
    call, outcome = GUARDS[name]
    if outcome is False:
        assert call(tmp_path) is False
    elif name.startswith("construct-"):
        assert call(tmp_path) == 3
        assert capsys.readouterr() == ("", f"error: {outcome}\n")
    else:
        with pytest.raises(ValueError) as raised:
            call(tmp_path)
        assert str(raised.value).startswith(outcome)


def test_tensor2_add_and_neg():
    r = Tensor2(SP2, SP2, ((0, 1), (2, 0)))
    assert r.add(r).add(r.neg()) == r and r.add(r.neg()).is_zero()
