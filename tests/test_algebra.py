"""Axiom checkers for products, derivations, and the relative Leibniz rule."""

import ast
import importlib
import itertools
import pkgutil
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import relpoisson
from relpoisson import (
    BilinearOp,
    CompatibleStructure,
    Comultiplication,
    LinearMap,
    NoUnitError,
    PreconditionError,
    RelPoissonAlgebra,
    Space,
    Tensor2,
    bracket_from_derivation,
    check_comm_assoc,
    check_derivation,
    check_jacobi_algebra,
    check_lie,
    check_rel_poisson,
    check_relative_leibniz,
    combine_reports,
    find_unit,
)
from relpoisson.algebra import _check, _Checker, _compile, _contract, _sections, _table_of, ad_map, block_sum
from relpoisson.linalg import _Table

from conftest import (
    heisenberg_poisson,
    linmap,
    op,
    rel_poisson_corpus,
    unital2,
    worked_subadjacent,
    zero_algebra,
)


def test_comm_assoc_on_worked_dot():
    alg = worked_subadjacent()
    assert check_comm_assoc(alg.dot).ok


def test_comm_assoc_zero_op():
    assert check_comm_assoc(BilinearOp.zero(Space.of_dim(3))).ok


def test_comm_assoc_rejects_zinbiel_product():
    sp = Space.of_dim(3)
    star = op(sp, [(0, 0, 2, 1), (0, 1, 2, 1)])
    report = check_comm_assoc(star)
    assert not report.ok
    assert "commutative" in report.axioms_failed()
    # the commutativity defect sits at the (e1, e2) pair
    v = next(v for v in report.violations if v.axiom == "commutative")
    assert v.where == (0, 1)


def test_lie_on_heisenberg():
    alg = worked_subadjacent()
    assert check_lie(alg.bracket).ok
    assert check_lie(BilinearOp.zero(Space.of_dim(2))).ok


def test_lie_rejects_broken_antisymmetry():
    sp = Space.of_dim(3)
    broken = op(sp, [(0, 1, 2, 1)])  # [e2,e1] missing
    report = check_lie(broken)
    assert not report.ok
    assert "antisymmetric" in report.axioms_failed()


def test_derivation_of_worked_example():
    alg = worked_subadjacent()
    assert check_derivation(alg.dot, alg.derivation).ok
    assert check_derivation(alg.dot, LinearMap.zero(alg.space)).ok


def test_derivation_rejects_wrong_weight():
    alg = worked_subadjacent()
    bad = linmap(alg.space, ((1, 0, 0), (1, 2, 0), (0, 0, 2)))
    report = check_derivation(alg.dot, bad)
    assert not report.ok
    # D(e1.e1) = 2 D(e3) = 4 e3 while D(e1).e1 + e1.D(e1) = 6 e3
    v = report.violations[0]
    assert v.where == (0, 0) and v.defect == (F(0), F(0), F(-2))


def test_relative_leibniz_on_worked_example():
    alg = worked_subadjacent()
    assert check_relative_leibniz(alg.dot, alg.bracket, alg.derivation).ok


def test_relative_leibniz_reduces_to_poisson_for_zero_derivation():
    alg = heisenberg_poisson()
    assert check_relative_leibniz(alg.dot, alg.bracket, alg.derivation).ok


def test_relative_leibniz_trivial_dot_any_bracket():
    # trivial dot kills every term, so any Lie bracket and derivation pass
    sp = Space.of_dim(3)
    bracket = op(sp, [(0, 1, 2, 1), (1, 0, 2, -1)])
    der = linmap(sp, ((1, 0, 0), (0, 1, 0), (0, 0, 2)))
    assert check_relative_leibniz(BilinearOp.zero(sp), bracket, der).ok


def test_relative_leibniz_rejects_derivation_on_another_space():
    # a 2-dim derivation on a 3-dim algebra, as check_derivation rejects it
    sp = Space.of_dim(3)
    der = LinearMap.zero(Space.of_dim(2))
    with pytest.raises(ValueError, match="endomorphism"):
        check_relative_leibniz(BilinearOp.zero(sp), BilinearOp.zero(sp), der)
    with pytest.raises(ValueError, match="endomorphism"):
        check_derivation(BilinearOp.zero(sp), der)


@pytest.mark.parametrize("name,alg", rel_poisson_corpus())
def test_corpus_is_verified(name, alg):
    assert check_rel_poisson(alg).ok, name


def test_check_rel_poisson_localizes_flipped_constant():
    alg = worked_subadjacent()
    table = [list(row) for row in alg.bracket.table]
    table[0][1] = tuple(-x for x in table[0][1])  # flip [e1,e2]
    broken = RelPoissonAlgebra(
        alg.space, alg.dot, BilinearOp(alg.space, tuple(tuple(r) for r in table)), alg.derivation
    )
    report = check_rel_poisson(broken)
    assert not report.ok
    assert any(v.where[:2] == (0, 1) for v in report.violations)


def test_dim_zero_is_vacuously_ok():
    assert check_rel_poisson(zero_algebra(0)).ok


def test_bracket_from_derivation_small():
    sp = Space.of_dim(2)
    dot = op(sp, [(0, 0, 1, 1)])
    der = linmap(sp, ((1, 0), (0, 2)))
    bracket = bracket_from_derivation(dot, der)
    # [e1,e2] = e1.D(e2) - D(e1).e2 = 2 e1.e2 - e1.e2 = 0 since e1.e2 = 0
    assert bracket.is_zero()
    assert bracket_from_derivation(dot, LinearMap.zero(sp)).is_zero()
    assert bracket_from_derivation(BilinearOp.zero(sp), der).is_zero()


def test_bracket_from_derivation_rejects_bad_input():
    sp = Space.of_dim(3)
    star = op(sp, [(0, 0, 2, 1), (0, 1, 2, 1)])  # not commutative
    # the identity is no derivation of a nonzero product either
    for der in (LinearMap.zero(sp), LinearMap.identity(sp)):
        with pytest.raises(PreconditionError) as failed:
            bracket_from_derivation(star, der)
        # swept in one contraction, reported as the two checkers merged
        assert failed.value.report == combine_reports(check_comm_assoc(star), check_derivation(star, der))


derivation_params = st.tuples(
    st.integers(-2, 2), st.integers(-2, 2),
    st.fractions(min_value=-2, max_value=2, max_denominator=3),
    st.fractions(min_value=-2, max_value=2, max_denominator=3),
)


@given(params=derivation_params)
def test_bracket_from_derivation_always_rel_poisson(params):
    # commutative associative + derivation always yields a verified quadruple
    a, b, f, g = params
    sp = Space.of_dim(3)
    dot = op(sp, [(0, 0, 2, 2), (0, 1, 2, 1), (1, 0, 2, 1)])
    der = linmap(sp, ((F(a), 0, 0), (F(b), F(a) + F(b), 0), (F(f), F(g), 2 * F(a) + F(b))))
    assert check_derivation(dot, der).ok
    bracket = bracket_from_derivation(dot, der)
    assert check_rel_poisson(RelPoissonAlgebra(sp, dot, bracket, der)).ok


def test_cyclic_identity_in_every_verified_algebra():
    # [x, y.z] + [y, z.x] + [z, x.y] = D(x.y.z) follows from the axioms
    for name, alg in rel_poisson_corpus():
        n = alg.dim
        for x in range(n):
            for y in range(n):
                for z in range(n):
                    acc = alg.bracket.apply_basis_left(x, alg.dot.product(y, z))
                    acc = tuple(
                        p + q
                        for p, q in zip(
                            acc, alg.bracket.apply_basis_left(y, alg.dot.product(z, x))
                        )
                    )
                    acc = tuple(
                        p + q
                        for p, q in zip(
                            acc, alg.bracket.apply_basis_left(z, alg.dot.product(x, y))
                        )
                    )
                    triple = alg.dot.apply_basis_right(alg.dot.product(x, y), z)
                    rhs = alg.derivation(triple)
                    assert acc == rhs, name


def test_find_unit_cases():
    sp1 = Space.of_dim(1)
    assert find_unit(op(sp1, [(0, 0, 0, 1)])) == (1,)
    assert find_unit(BilinearOp.zero(Space.of_dim(2))) is None
    assert find_unit(worked_subadjacent().dot) is None  # e3 annihilates
    assert find_unit(BilinearOp.zero(Space(()))) == ()


def test_unit_is_two_sided_and_unique():
    alg = unital2()
    unit = find_unit(alg.dot)
    assert unit == (1, 0)
    n = alg.dim
    for j in range(n):
        ej = tuple(F(1) if t == j else F(0) for t in range(n))
        assert alg.dot.apply(unit, ej) == ej
        assert alg.dot.apply(ej, unit) == ej


def test_check_jacobi_algebra(worked_bialgebra):
    j = worked_bialgebra.algebra
    assert check_jacobi_algebra(j.dot, j.bracket).ok
    alg = unital2()
    assert check_jacobi_algebra(alg.dot, alg.bracket).ok
    noub = worked_subadjacent()
    with pytest.raises(NoUnitError):
        check_jacobi_algebra(noub.dot, noub.bracket)


def test_jacobi_iff_unital_rel_poisson():
    # unital algebras: Jacobi check agrees with the relative Poisson check
    # for the adjoint derivation of the unit
    for alg in (unital2(1), unital2(0)):
        unit = find_unit(alg.dot)
        assert unit is not None
        ad_unit = ad_map(alg.bracket, unit)
        assert check_jacobi_algebra(alg.dot, alg.bracket).ok == check_rel_poisson(
            RelPoissonAlgebra(alg.space, alg.dot, alg.bracket, ad_unit)
        ).ok


# ---------------------------------------------------------------------------
# the block-sum builder against its defining formulas

small = st.integers(-2, 2).map(F)


@st.composite
def block_sum_inputs(draw):
    """Two candidate algebras of dim 0-2 with arbitrary structure constants
    (validity is not assumed), labels that may collide, and arbitrary
    actions in both directions."""

    def matrices(count, n):
        return tuple(
            tuple(tuple(draw(small) for _ in range(n)) for _ in range(n)) for _ in range(count)
        )

    def alg(n, labels):
        sp = Space(labels)
        dot, bracket = BilinearOp(sp, matrices(n, n)), BilinearOp(sp, matrices(n, n))
        return RelPoissonAlgebra(sp, dot, bracket, LinearMap(sp, sp, matrices(1, n)[0]))

    n1, n2 = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    pool = ("e", "e'", "x", "y")
    left = alg(n1, tuple(draw(st.permutations(pool))[:n1]))
    right = alg(n2, tuple(draw(st.permutations(pool))[:n2]))
    return left, right, matrices(n1, n2), matrices(n1, n2), matrices(n2, n1), matrices(n2, n1)


def _mul(op, u, v):
    n = len(u)
    return [
        sum((u[i] * v[j] * op.table[i][j][k] for i in range(n) for j in range(n)), F(0))
        for k in range(n)
    ]


def _act(mats, u, v):
    """(sum_k u_k mats[k]) applied to v."""
    m = len(v)
    return [
        sum((u[k] * mats[k][r][s] * v[s] for k in range(len(u)) for s in range(m)), F(0))
        for r in range(m)
    ]


def _add(*vecs):
    return [sum(xs, F(0)) for xs in zip(*vecs)]


def _neg(v):
    return [-x for x in v]


@settings(max_examples=60, deadline=None)
@given(inputs=block_sum_inputs())
def test_block_sum_matches_defining_formulas(inputs):
    left, right, mu1, rho1, mu2, rho2 = inputs
    total = block_sum(left, right, mu1, rho1, mu2, rho2)
    n1, n2 = left.dim, right.dim
    labels = total.space.labels
    assert labels[:n1] == left.space.labels and len(set(labels)) == n1 + n2
    for lab, orig in zip(labels[n1:], right.space.labels):
        assert lab.startswith(orig) and set(lab[len(orig):]) <= {"'"}

    def split(p):
        e = [F(int(t == p)) for t in range(n1 + n2)]
        return e[:n1], e[n1:]

    for p in range(n1 + n2):
        x, a = split(p)
        assert total.derivation.column(p) == left.derivation(tuple(x)) + right.derivation(tuple(a))
        for q in range(n1 + n2):
            y, b = split(q)
            dot = _add(_mul(left.dot, x, y), _act(mu2, a, y), _act(mu2, b, x))
            dot += _add(_mul(right.dot, a, b), _act(mu1, x, b), _act(mu1, y, a))
            assert list(total.dot.product(p, q)) == dot
            br = _add(_mul(left.bracket, x, y), _act(rho2, a, y), _neg(_act(rho2, b, x)))
            br += _add(_mul(right.bracket, a, b), _act(rho1, x, b), _neg(_act(rho1, y, a)))
            assert list(total.bracket.product(p, q)) == br


# Every axiom family is a term spec reported by algebra._check, except these
# three hand-loop sections, whose reports the term form cannot reproduce:
# check_lie's antisymmetry (algebra._antisymmetric) reports only i <= j and
# counts the diagonal once; a form's nondegeneracy (pairing._nondegenerate,
# a determinant, which check_manin_triple and the CLI share) and its
# symmetry (pairing._symmetric, which the CLI checks) are facts of the whole
# form, reported at no basis index.
HAND_LOOPS = {"algebra.py": {"_check", "_antisymmetric"}, "pairing.py": {"_nondegenerate", "_symmetric"}}
SRC = Path(__file__).resolve().parent.parent / "src" / "relpoisson"


def test_collector_check_only_in_the_sweep_and_the_hand_loops():
    """Only the sweep and the hand loops call Collector.check, and only
    Collector's methods build a Violation or an AxiomReport, so every
    report in src comes out of one collector."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = HAND_LOOPS.get(path.name, set())
        for top in tree.body:
            owner = getattr(top, "name", None)
            for node in ast.walk(top):
                if not isinstance(node, ast.Call):
                    continue
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                checks = isinstance(node.func, ast.Attribute) and name == "check" and owner not in allowed
                builds = name in ("Violation", "AxiomReport") and owner != "Collector"
                if checks or builds:
                    found.append(f"{path.name}:{node.lineno} {name}")
    assert not found, f"Collector.check or a report built outside the sweep and the hand loops: {found}"


# ---------------------------------------------------------------------------
# the sweep engine


@pytest.mark.parametrize(
    "terms, where, message",
    [
        ("M:iis", "i", "repeats a label"),
        ("M:ijs - M:is", "ij", "changes arity"),
        ("M:ijs", "ijk", "leaves a reported label free"),
    ],
    ids=["repeated-label", "arity-change", "free-reported-label"],
)
def test_compile_rejects_malformed_specs(terms, where, message):
    with pytest.raises(ValueError, match=message):
        _compile((("malformed", where, "s", terms),))


def test_a_defect_label_is_as_long_as_the_longest_axis_it_labels():
    """A defect label can label axes of different lengths in different
    terms; its defect is laid out over the longest, not over the axis the
    first term reads, which would be too short for B's entry in "f" and
    would put B's entry (0, 1) of "g" in the cell of (1, 0)."""
    families = (("f", "", "s", "A:s - B:s"), ("g", "", "st", "C:st - D:st"))
    tables = dict(
        A=_Table((((0,), 1),), (1,)),
        B=_Table((((2,), 5),), (3,)),
        C=_Table((((1, 0), 2),), (2, 1)),
        D=_Table((((0, 1), 3),), (2, 2)),
    )
    report = _check(families, 16, **tables)
    assert [(v.axiom, v.where, v.defect) for v in report.violations] == [
        ("f", (), (1, 0, -5)),
        ("g", (), (0, -3, 2, 0)),
    ]


VALUE = st.sampled_from((0, 0, 1, -1, F(1, 2)))


def _square(data, n):
    return tuple(tuple(data.draw(VALUE) for _ in range(n)) for _ in range(n))


def _entries(value, n):
    """The (i, j, k, value) entries of a rank-3 table."""
    return [(i, j, k, value(i, j, k)) for i, j, k in itertools.product(range(n), repeat=3)]


def _product(data, n):
    table = tuple(_square(data, n) for _ in range(n))
    op = BilinearOp.from_entries(Space.of_dim(n), _entries(lambda i, j, k: table[i][j][k], n))
    return op, "ijk", lambda i, j, k: table[i][j][k]


def _comultiplication(data, n):
    columns = tuple(_square(data, n) for _ in range(n))
    comult = Comultiplication.from_entries(Space.of_dim(n), _entries(lambda i, j, k: columns[k][i][j], n))
    return comult, "kij", lambda k, i, j: columns[k][i][j]


def _linear_map(data, n):
    sp, m = Space.of_dim(n), _square(data, n)
    return LinearMap(sp, sp, m), "ji", lambda j, i: m[i][j]


def _tensor(data, n):
    sp, m = Space.of_dim(n), _square(data, n)
    return Tensor2(sp, sp, m), "ij", lambda i, j: m[i][j]


def _action_family(data, n):
    mats = tuple(_square(data, n) for _ in range(n))
    cs = CompatibleStructure(zero_algebra(n), Space.of_dim(n, "v"), mats, mats)
    return cs._mu, "xjr", lambda x, j, r: mats[x][r][j]


def _vector_hits(data, n):
    v = tuple(data.draw(VALUE) for _ in range(n))
    return _Table(tuple(((k,), x) for k, x in enumerate(v) if x), (n,)), "k", lambda k: v[k]


TABLE_KINDS = {
    "product": _product,
    "comultiplication": _comultiplication,
    "linear-map": _linear_map,
    "tensor": _tensor,
    "action-family": _action_family,
    "vector-hits": _vector_hits,
}


@pytest.mark.parametrize("kind", sorted(TABLE_KINDS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_sweep_reads_each_table_kind_as_its_dense_view(kind, data):
    n = data.draw(st.integers(0, 3))
    table, labels, value = TABLE_KINDS[kind](data, n)
    indices = itertools.product(range(n), repeat=len(labels))
    dense = [(idx, value(*idx)) for idx in indices if value(*idx)]
    # the entries come in the label order, first label first
    assert list(_table_of(table).entries) == dense
    (out,) = _contract((("", labels, "", f"T:{labels}"),), {"T": table})
    assert out == dict(dense)


def test_sweep_keeps_its_indexes_on_the_rows_it_reads():
    """Every table the sweep reads carries its memo, so a second sweep of
    the same action family re-keys nothing; a plain tuple of entries, which
    could not keep one, is refused."""
    mats = (((1, 2), (0, 3)), ((0, 0), (4, 0)))
    cs = CompatibleStructure(zero_algebra(2), Space.of_dim(2, "v"), mats, mats)
    families = (("", "xj", "r", "MU:xjt,MU:tjr"),)
    first = _contract(families, {"MU": cs._mu})
    reads = dict(cs._mu._reads)
    assert reads and _contract(families, {"MU": cs._mu}) == first
    assert all(cs._mu._reads[keys] is index for keys, index in reads.items())
    with pytest.raises(TypeError):
        _contract(families, {"MU": cs._mu.entries})


def test_a_term_stops_at_its_first_empty_join():
    """The derivation rule of the zero product: the term that starts with
    the product joins nothing, so the derivation is read only as its
    entries, by the terms that start with it, and never re-keyed for a
    join after the empty product.  A longer term stops before its middle
    joins too."""
    sp = Space.of_dim(3)
    der = LinearMap(sp, sp, ((1, 0, 0), (0, 2, 0), (1, 0, 3)))
    assert check_derivation(BilinearOp.zero(sp), der).ok
    assert not der._sparse._reads
    middle, last = LinearMap.identity(sp), LinearMap.identity(sp)
    tables = dict(M=BilinearOp.zero(sp), P=middle, Q=last)
    assert _contract((("", "ij", "s", "M:ijt,P:tu,Q:us"),), tables) == [{}]
    assert not middle._sparse._reads and not last._sparse._reads


def _strings(value):
    """Every string inside a nest of tuples."""
    if isinstance(value, str):
        yield value
    elif isinstance(value, tuple):
        for part in value:
            yield from _strings(part)


def test_every_checker_shares_the_compiled_plans_of_its_families():
    """A plan names its tables by slot, so each sweep section of every
    checker, under whatever table names its caller uses, holds _compile's
    own plans and no table name."""
    modules = [importlib.import_module(f"relpoisson.{m.name}") for m in pkgutil.iter_modules(relpoisson.__path__)]
    checkers = {id(v): v for m in modules for v in vars(m).values() if isinstance(v, _Checker)}
    swept = 0
    for checker in checkers.values():
        for what, _prefix, groups, _binder in _sections(checker)[0]:
            if not callable(what):  # a hand loop has no plans
                assert groups is _compile(what)[0]
                assert not list(_strings(groups)), what
                swept += 1
    assert len(checkers) >= 20 and swept >= 100
