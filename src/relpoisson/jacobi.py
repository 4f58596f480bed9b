"""Unit extension and the end-to-end pipeline from a relative pre-Poisson
algebra to a Frobenius Jacobi algebra.

The pipeline verifies each stage's facts exactly once, even where a
theorem guarantees them, so each construction doubles as an executable
assertion; a failure raises :class:`PipelineError` naming the stage.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (
    DEFAULT_VIOLATION_LIMIT,
    BilinearOp,
    PreconditionError,
    RelPoissonAlgebra,
    AxiomReport,
    _block_sum,
    _check,
    _require,
    ad_map,
    check_jacobi_algebra,
    check_rel_poisson,
    find_unit,
)
from .coalgebra import BialgebraData, bialgebra_to_matched_pair
from .linalg import ONE, LinearMap, Space, _blocks, _identity, _row, _Table, _with, basis_vector
from .pairing import BilinearForm, bowtie, canonical_pairing, check_manin_triple
from .prepoisson import RelPrePoissonAlgebra, subadjacent
from .representations import _REL_POISSON_REP, RepData, _jacobi_representation, _rep, _rep_tables
from .yangbaxter import (
    _O_OPERATOR_CHECK,
    OOperator,
    check_rpybe,
    coboundary_comults,
    o_operator_to_rmatrix,
)


@dataclass(frozen=True)
class FrobeniusJacobiAlgebra:
    """A unital relative Poisson algebra whose derivation is the adjoint
    action of the unit, carrying a symmetric nondegenerate invariant form."""

    algebra: RelPoissonAlgebra
    form: BilinearForm
    unit: tuple


# the pipeline's stages in order, named as PipelineError names them
_STAGES = ("pre-poisson", "sub-adjacent", "extend-jacobi", "extend-representation", "lift-o-operator")
_STAGES += ("yang-baxter", "coboundary", "bialgebra", "matched-pair", "double")


class PipelineError(RuntimeError):
    """A pipeline stage failed; carries the stage name and its report."""

    def __init__(self, stage: str, detail: str, report: AxiomReport | None = None):
        super().__init__(f"stage {stage}: {detail}")
        self.stage = stage
        self.report = report


def _unit_extension(alg: RelPoissonAlgebra) -> RelPoissonAlgebra:
    """k.e + A as a matched pair: e.e = e, e acts on A as the identity
    through the dot and as D through the bracket, and A does not act back."""
    unit_label = "e"
    while unit_label in alg.space.labels:
        unit_label += "'"
    line = Space((unit_label,))
    dot = BilinearOp.from_entries(line, [(0, 0, 0, ONE)])
    unital = RelPoissonAlgebra(line, dot, BilinearOp.zero(line), LinearMap.zero(line))
    n = alg.dim
    back = _Table((), (n, 1, 1))
    # the families of one matrix, the identity and D, acting for e
    mu, rho = (_blocks((1, n, n), ((0, 0, 0), t)) for t in (_identity(n), alg.derivation._sparse))
    return _block_sum(unital, alg, mu, rho, back, back)


def _extended_rep(rep: RepData, extended: RelPoissonAlgebra) -> RepData:
    """The representation with the new unit acting first: as the identity
    through the dot and as alpha through the bracket."""
    m = rep.space.dim
    mu = _blocks((extended.dim, m, m), ((0, 0, 0), _identity(m)), ((1, 0, 0), rep._mu))
    rho = _blocks((extended.dim, m, m), ((0, 0, 0), rep._alpha._sparse), ((1, 0, 0), rep._rho))
    return _rep(extended, rep.space, mu, rho, rep._alpha)


def extend_jacobi(alg: RelPoissonAlgebra) -> RelPoissonAlgebra:
    """Adjoin a unit e (first basis slot): e.x = x, [e, x] = D(x), and the
    extended derivation kills e.  The result is a Jacobi algebra whose
    derivation is ad(e)."""
    _require(check_rel_poisson(alg), "not a relative Poisson algebra")
    return _unit_extension(alg)


def extend_representation(rep: RepData) -> tuple[RelPoissonAlgebra, RepData]:
    """Extend a representation over the unit extension: the unit acts as
    the identity through the dot and as alpha through the bracket."""
    pre = _check(_REL_POISSON_REP, DEFAULT_VIOLATION_LIMIT, **_rep_tables(rep))
    _require(pre, "not a representation of a relative Poisson algebra")
    extended = _unit_extension(rep.algebra)
    return extended, _extended_rep(rep, extended)


def lift_o_operator(rep: RepData, operator: LinearMap) -> OOperator:
    """Lift an O-operator T: V -> A to the unit extension (zero component
    on the new unit); the lift is again an O-operator.

    Verifies that A is relative Poisson, that rep is a representation and
    that T is an O-operator; the extension and the lift are then built
    structurally."""
    alg = rep.algebra
    if operator.codomain != alg.space or operator.domain != rep.space:
        raise ValueError("operator does not map the module into the algebra")
    pre = _check(_O_OPERATOR_CHECK, DEFAULT_VIOLATION_LIMIT, T=operator, **_rep_tables(rep))
    _require(pre, "not an O-operator on a relative Poisson algebra")
    extended = _unit_extension(alg)
    # the new unit is row 0 of the extension, so every row moves down one
    cols = _blocks((operator.domain.dim, extended.dim), ((0, 1), operator._sparse))
    lifted = _with(operator, codomain=extended.space, _sparse=cols)
    return OOperator(_extended_rep(rep, extended), lifted)


def _relabel_algebra(alg: RelPoissonAlgebra, space: Space) -> RelPoissonAlgebra:
    return RelPoissonAlgebra(
        space,
        _with(alg.dot, space=space),
        _with(alg.bracket, space=space),
        _with(alg.derivation, domain=space, codomain=space),
    )


def frobenius_jacobi_pipeline(
    pp: RelPrePoissonAlgebra,
) -> tuple[BialgebraData, FrobeniusJacobiAlgebra]:
    """End-to-end construction of a Frobenius Jacobi algebra:

    sub-adjacent algebra -> unit extension -> extended representation ->
    identity O-operator lift -> antisymmetric YBE solution in the
    semi-direct algebra -> coboundary bialgebra -> matched pair -> double
    with the canonical pairing form.

    Returns the intermediate bialgebra (on the relabelled semi-direct
    algebra E, E1, ..) and the final Frobenius Jacobi algebra of dimension
    2(2 dim + 1).
    """

    def stage(name: str, report: AxiomReport):
        if not report.ok:
            raise PipelineError(name, ", ".join(report.axioms_failed()), report)

    def verified(name: str, construct, *args):
        # the constructor checks its own preconditions; report them as the stage
        try:
            return construct(*args)
        except PreconditionError as exc:
            raise PipelineError(name, str(exc), exc.report) from exc

    sub, rep = verified("pre-poisson", subadjacent, pp)
    lift = verified("sub-adjacent", lift_o_operator, rep, LinearMap.identity(sub.space))
    extended = lift.rep.algebra
    stage("extend-jacobi", check_jacobi_algebra(extended.dot, extended.bracket))
    # the sweep above solved for this unit; find_unit reads it back
    unit = find_unit(extended.dot)
    if unit is None:
        raise PipelineError("extend-jacobi", "extension has no unit")
    if ad_map(extended.bracket, unit) != extended.derivation:
        raise PipelineError("extend-jacobi", "derivation is not ad(unit)")
    mu, rho, m = lift.rep._mu, lift.rep._rho, lift.rep.space.dim
    stage("extend-representation", _jacobi_representation(extended.dot, extended.bracket, mu, rho, m))

    # beta = -alpha, for alpha = D the endomorphism of rep and of its lift
    semidirect, rmat = verified(
        "lift-o-operator",
        o_operator_to_rmatrix,
        lift.rep,
        pp.derivation.neg(),
        extended.derivation.neg(),
        lift.operator,
    )

    # relabel to E, E1, .., E2n and rebuild r on the relabelled space
    dim = semidirect.dim
    labels = ("E",) + tuple(f"E{i}" for i in range(1, dim))
    space = Space(labels)
    semidirect = _relabel_algebra(semidirect, space)
    rmat = _with(rmat, left=space, right=space)
    codrv = semidirect.derivation.neg()
    stage("yang-baxter", check_rpybe(semidirect, codrv, rmat))

    dot_comult, bracket_comult = coboundary_comults(semidirect, rmat)
    # the unit is e_0, and row 0 of Delta is Delta(e_0)
    if _row(dot_comult._sparse, 0):
        raise PipelineError("coboundary", "comultiplication does not kill the unit")
    bialgebra = BialgebraData(semidirect, dot_comult, bracket_comult, codrv)
    pair = verified("bialgebra", bialgebra_to_matched_pair, bialgebra)
    double = verified("matched-pair", bowtie, pair)
    # sweeps the double's relative Poisson axioms and the invariance and
    # nondegeneracy of its canonical pairing form
    stage("double", check_manin_triple(semidirect, pair.right, double))
    double_unit = find_unit(double.dot)
    if double_unit is None or double_unit != basis_vector(double.dim, 0):
        raise PipelineError("double", "double is not unital with the expected unit")
    # with D = ad(unit) the relative Leibniz rule swept above is the unital
    # one, so the double is a Jacobi algebra
    if ad_map(double.bracket, double_unit) != double.derivation:
        raise PipelineError("double", "derivation of the double is not ad(unit)")
    form = canonical_pairing(double.space)
    if not form.is_symmetric():
        raise PipelineError("double", "pairing form is not symmetric")
    return bialgebra, FrobeniusJacobiAlgebra(double, form, double_unit)


__all__ = [
    "FrobeniusJacobiAlgebra",
    "PipelineError",
    "extend_jacobi",
    "extend_representation",
    "lift_o_operator",
    "frobenius_jacobi_pipeline",
]
