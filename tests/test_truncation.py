"""Truncation of the composite checkers' reports.  A report of limit L keeps
the first L violations of the full stream, in order, and is truncated
exactly when the stream is longer than L.  Each composite checker is run
at small limits on the bialgebra corpus and its seeded single-constant
perturbations, and compared with its dense oracle's unlimited report cut
to L."""

from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

import relpoisson as rp
from relpoisson import (
    AxiomReport,
    BialgebraData,
    BilinearOp,
    Comultiplication,
    LinearMap,
    RelPoissonAlgebra,
    RelPrePoissonAlgebra,
    Tensor2,
    adjoint_rep,
    combine_matched_pair,
    dual_rel_poisson_algebra,
    induced_matched_pair,
)

import dense_reference as ref
from conftest import neg_map
from matched_pair_reference import reference_check_matched_pair
from test_acceptance import bialgebra_instances

LIMITS = (0, 1, 2, 3, 16)
UNLIMITED = 10**6
INSTANCES = [data for _name, data in bialgebra_instances()]
FIELDS = ("dot", "bracket", "derivation", "dot_comult", "bracket_comult", "dual_derivation")


def _bumped(data: BialgebraData, field: str, at: tuple, delta) -> BialgebraData:
    """The candidate with one structure constant of one field moved by delta."""
    alg = data.algebra
    if field in ("dot", "bracket"):
        op = getattr(alg, field)
        entries = op.nonzero_entries() + [(*at, delta)]
        parts = {"dot": alg.dot, "bracket": alg.bracket, field: BilinearOp.from_entries(alg.space, entries)}
        alg = RelPoissonAlgebra(alg.space, parts["dot"], parts["bracket"], alg.derivation)
        return BialgebraData(alg, data.dot_comult, data.bracket_comult, data.dual_derivation)
    if field in ("dot_comult", "bracket_comult"):
        com = getattr(data, field)
        bumped = Comultiplication.from_entries(com.space, com.nonzero_entries() + [(*at, delta)])
        parts = {"dot_comult": data.dot_comult, "bracket_comult": data.bracket_comult, field: bumped}
        return BialgebraData(alg, parts["dot_comult"], parts["bracket_comult"], data.dual_derivation)
    old = alg.derivation if field == "derivation" else data.dual_derivation
    rows = [list(r) for r in old.entries]
    rows[at[0]][at[1]] += delta
    new = LinearMap(old.domain, old.codomain, tuple(map(tuple, rows)))
    if field == "derivation":
        alg = RelPoissonAlgebra(alg.space, alg.dot, alg.bracket, new)
        return BialgebraData(alg, data.dot_comult, data.bracket_comult, data.dual_derivation)
    return BialgebraData(alg, data.dot_comult, data.bracket_comult, new)


@st.composite
def candidates(draw):
    """A corpus bialgebra, unperturbed one time in six, else with one
    constant moved, and a small tensor on its space."""
    data = draw(st.sampled_from(INSTANCES))
    n = data.algebra.dim
    if n and draw(st.integers(0, 5)):
        field = draw(st.sampled_from(FIELDS))
        at = tuple(draw(st.integers(0, n - 1)) for _ in range(2 if "derivation" in field else 3))
        data = _bumped(data, field, at, draw(st.sampled_from((1, -1, 2, F(1, 2)))))
    rows = [[draw(st.sampled_from((0, 0, 1, -1))) for _ in range(n)] for _ in range(n)]
    return data, Tensor2(data.algebra.space, data.algebra.space, rows)


def _calls(data: BialgebraData, r: Tensor2):
    """(name, library checker, oracle, arguments) of every composite checker
    on one candidate."""
    alg, q = data.algebra, data.dual_derivation
    pair = induced_matched_pair(data)
    double = combine_matched_pair(pair)
    pp = RelPrePoissonAlgebra(alg.space, alg.dot, alg.bracket, alg.derivation)
    named = [
        ("check_rel_poisson", (alg,)),
        ("check_jacobi_algebra", (alg.dot, alg.bracket)),
        ("check_rel_poisson_coalgebra", (data.dot_comult, data.bracket_comult, q)),
        ("check_bialgebra", (data,)),
        ("check_representation", (adjoint_rep(alg),)),
        ("check_manin_triple", (alg, dual_rel_poisson_algebra(data), double)),
        ("check_rel_pre_poisson", (pp,)),
        ("check_coboundary_conditions", (alg, neg_map(alg.derivation), r)),
        ("check_semidirect_dual_conditions", (adjoint_rep(alg), neg_map(q).entries, q)),
    ]
    calls = [(name, getattr(rp, name), getattr(ref, name), args) for name, args in named]
    return calls + [("check_matched_pair", rp.check_matched_pair, reference_check_matched_pair, (pair,))]


def _outcome(checker, args, limit):
    try:
        return checker(*args, limit=limit)
    except ValueError as exc:  # NoUnitError and the other rejected inputs
        return type(exc)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=candidates())
def test_composite_reports_are_the_oracle_stream_cut_at_the_limit(case):
    data, r = case
    for name, checker, oracle, args in _calls(data, r):
        full = _outcome(oracle, args, UNLIMITED)
        for limit in LIMITS:
            got = _outcome(checker, args, limit)
            if isinstance(full, type):
                assert got is full, (name, limit)
                continue
            kept = full.violations[:limit]
            assert got == AxiomReport(full.ok, kept, len(full.violations) > limit), (name, limit)
