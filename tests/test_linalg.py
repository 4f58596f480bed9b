"""Exact linear algebra layer: scalars, tensor operators, dual maps."""

import itertools
import sys
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relpoisson import (
    BilinearForm,
    BilinearOp,
    CompatibleStructure,
    Comultiplication,
    LinearMap,
    RelPoissonAlgebra,
    Space,
    Tensor2,
    Tensor3,
    dual_map,
    find_unit,
    rotate_factors,
    swap_factors,
    tensor_as_map,
)
from relpoisson import algebra, linalg
from relpoisson.algebra import ad_map
from relpoisson.documents import _FAMILY
from relpoisson.linalg import determinant, mat_inverse
from dense_matrices import mat_mul, mat_transpose

from conftest import is_normal
from dense_reference import solve_exact

scalars = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@st.composite
def matrices(draw, rows=2, cols=2):
    return tuple(
        tuple(draw(scalars) for _ in range(cols)) for _ in range(rows)
    )


@given(a=scalars, b=scalars, c=scalars)
def test_scalar_field_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + 0 == a and a * 1 == a
    if a:
        assert a * (1 / a) == 1


def test_scalar_normal_form():
    x = F(6, -4)
    assert x.numerator == -3 and x.denominator == 2


def test_space_requires_distinct_labels():
    with pytest.raises(ValueError):
        Space(("e1", "e1"))


def test_a_space_builds_its_dual_once():
    sp, same = Space.of_dim(3), Space.of_dim(3)
    assert sp.dual is sp.dual and sp.dual.labels == ("e1*", "e2*", "e3*")
    # the kept dual changes neither equality nor hashing
    assert sp == same and hash(sp) == hash(same) and sp != sp.dual


def test_swap_on_pure_tensor():
    sp = Space.of_dim(2)
    t = Tensor2(sp, sp, ((0, 1), (0, 0)))  # e1 (x) e2
    assert swap_factors(t).coeffs == ((0, 0), (1, 0))


def test_swap_on_antisymmetric_tensor():
    # E1 (x) E4 - E4 (x) E1 inside a 5-dim ambient space: swapping negates
    sp = Space.of_dim(5)
    coeffs = [[F(0)] * 5 for _ in range(5)]
    coeffs[0][3], coeffs[3][0] = F(1), F(-1)
    t = Tensor2(sp, sp, tuple(tuple(r) for r in coeffs))
    assert swap_factors(t).coeffs == tuple(tuple(-x for x in row) for row in t.coeffs)


def test_swap_zero():
    sp = Space.of_dim(3)
    assert swap_factors(Tensor2.zero(sp, sp)).is_zero()


@given(m=matrices(3, 3))
def test_swap_involution(m):
    sp = Space.of_dim(3)
    t = Tensor2(sp, sp, m)
    assert swap_factors(swap_factors(t)) == t


def test_rotate_pure_tensor():
    sp = Space.of_dim(3)
    coeffs = [[[F(0)] * 3 for _ in range(3)] for _ in range(3)]
    coeffs[0][1][2] = F(1)  # e1 (x) e2 (x) e3
    t = Tensor3((sp, sp, sp), coeffs)
    assert rotate_factors(t).coeffs[1][2][0] == 1


def test_rotate_repeated_index():
    sp = Space.of_dim(2)
    coeffs = [[[F(0)] * 2 for _ in range(2)] for _ in range(2)]
    coeffs[0][0][1] = F(1)  # e1 (x) e1 (x) e2
    t = Tensor3((sp, sp, sp), coeffs)
    assert rotate_factors(t).coeffs[0][1][0] == 1


@given(
    flat=st.lists(scalars, min_size=8, max_size=8)
)
def test_rotate_order_three(flat):
    sp = Space.of_dim(2)
    coeffs = tuple(
        tuple(tuple(flat[4 * i + 2 * j + k] for k in range(2)) for j in range(2))
        for i in range(2)
    )
    t = Tensor3((sp, sp, sp), coeffs)
    assert rotate_factors(rotate_factors(rotate_factors(t))) == t


def test_rotate_rejects_mismatched_spaces():
    a, b = Space.of_dim(2), Space.of_dim(2, prefix="f")
    coeffs = [[[F(0)] * 2] * 2] * 2
    with pytest.raises(ValueError):
        rotate_factors(Tensor3((a, a, b), coeffs))


def test_dual_map_identity():
    sp = Space.of_dim(3)
    assert dual_map(LinearMap.identity(sp)).entries == LinearMap.identity(sp.dual).entries


def test_dual_map_of_worked_derivation():
    # transpose of the 3x3 matrix of P(e1)=e1+e2, P(e2)=2e2, P(e3)=3e3
    sp = Space.of_dim(3)
    p = LinearMap(sp, sp, ((1, 0, 0), (1, 2, 0), (0, 0, 3)))
    d = dual_map(p)
    assert d.column(0) == (F(1), F(0), F(0))  # e1* -> e1*
    assert d.column(1) == (F(1), F(2), F(0))  # e2* -> e1* + 2 e2*
    assert d.column(2) == (F(0), F(0), F(3))  # e3* -> 3 e3*


@given(m=matrices(3, 2))
def test_dual_map_involution(m):
    f = LinearMap(Space.of_dim(2), Space.of_dim(3, prefix="f"), m)
    assert dual_map(dual_map(f)).entries == f.entries


def test_tensor_as_map_examples():
    sp = Space.of_dim(2)
    t = Tensor2(sp, sp, ((0, 2), (0, 0)))  # 2 e1 (x) e2
    m = tensor_as_map(t)
    assert m.column(0) == (F(0), F(2))  # e1* -> 2 e2
    assert m.column(1) == (F(0), F(0))
    assert tensor_as_map(Tensor2.zero(sp, sp)).is_zero()


def test_tensor_as_map_identity_pairing():
    # sum e_i (x) e_i* in (A + A*) corresponds to the identity on A:
    # reading the A (x) A* block of its map form gives the identity matrix
    n = 2
    sp = Space(("e1", "e2", "e1*", "e2*"))
    coeffs = [[F(0)] * 4 for _ in range(4)]
    for i in range(n):
        coeffs[i][n + i] = F(1)
    m = tensor_as_map(Tensor2(sp, sp, tuple(tuple(r) for r in coeffs)))
    block = tuple(tuple(m.entries[n + i][j] for j in range(n)) for i in range(n))
    assert block == ((1, 0), (0, 1))


@given(m=matrices(3, 3))
def test_tensor_as_map_after_swap_is_transpose(m):
    sp = Space.of_dim(3)
    t = Tensor2(sp, sp, m)
    assert tensor_as_map(swap_factors(t)).entries == mat_transpose(
        tensor_as_map(t).entries
    )


@given(m=matrices(2, 2), c=scalars, d=scalars)
def test_operators_are_linear(m, c, d):
    sp = Space.of_dim(2)
    other = tuple(tuple(x + 1 for x in row) for row in m)
    lin = tuple(
        tuple(c * m[i][j] + d * other[i][j] for j in range(2)) for i in range(2)
    )
    lhs = swap_factors(Tensor2(sp, sp, lin)).coeffs
    rhs = tuple(
        tuple(
            c * swap_factors(Tensor2(sp, sp, m)).coeffs[i][j]
            + d * swap_factors(Tensor2(sp, sp, other)).coeffs[i][j]
            for j in range(2)
        )
        for i in range(2)
    )
    assert lhs == rhs


def test_determinant_and_inverse():
    m = ((F(2), F(1)), (F(1), F(1)))
    assert determinant(m) == 1
    assert mat_mul(m, mat_inverse(m)) == ((1, 0), (0, 1))
    assert determinant(((F(1), F(2)), (F(2), F(4)))) == 0
    with pytest.raises(ValueError):
        mat_inverse(((F(0),),))


def test_shape_mismatch_raises_value_error():
    # a 1x1 times a 2x1 matrix, a 1x2 determinant and a 2x3 inverse
    with pytest.raises(ValueError):
        mat_mul(((F(1),),), ((F(1),), (F(2),)))
    with pytest.raises(ValueError):
        determinant(((F(1), F(2)),))
    with pytest.raises(ValueError):
        mat_inverse(((1, 0, 0), (0, 1, 0)))


def test_linear_map_add_rejects_other_spaces():
    two, three = LinearMap.identity(Space.of_dim(2)), LinearMap.identity(Space.of_dim(3))
    relabelled = LinearMap.identity(Space.of_dim(2, "f"))
    for other in (three, relabelled):
        with pytest.raises(ValueError):
            two.add(other)
    assert two.add(two).entries == ((2, 0), (0, 2))


def test_solve_exact():
    a = ((F(1), F(2)), (F(0), F(1)), (F(1), F(3)))
    assert solve_exact(a, (F(5), F(2), F(7))) == (1, 2)
    assert solve_exact(a, (F(5), F(2), F(8))) is None


# ---------------------------------------------------------------------------
# cross-checks against sympy's exact matrices (skipped when sympy is absent)

# many zeros, so singular matrices and inconsistent systems are common
sparse_scalars = st.sampled_from((F(0), F(0), F(0), F(1), F(-1), F(2), F(1, 2), F(-3, 2)))


@st.composite
def systems(draw, square=False):
    rows = draw(st.integers(0 if square else 1, 4))
    cols = rows if square else draw(st.integers(1, 4))
    a = tuple(tuple(draw(sparse_scalars) for _ in range(cols)) for _ in range(rows))
    return a, tuple(draw(sparse_scalars) for _ in range(rows))


def _sympy_matrix(sympy, a, cols):
    entries = [sympy.Rational(x.numerator, x.denominator) for row in a for x in row]
    return sympy.Matrix(len(a), cols, entries)


def _fraction(r):
    return F(int(r.p), int(r.q))


@settings(deadline=None)
@given(system=systems(square=True))
def test_determinant_and_inverse_match_sympy(system):
    sympy = pytest.importorskip("sympy")
    a, _ = system
    m = _sympy_matrix(sympy, a, len(a))
    det = m.det()
    assert determinant(a) == _fraction(det)
    if det == 0:
        with pytest.raises(ValueError):
            mat_inverse(a)
    else:
        inv = m.inv()
        assert mat_inverse(a) == tuple(
            tuple(_fraction(inv[i, j]) for j in range(len(a))) for i in range(len(a))
        )


@settings(deadline=None)
@given(system=systems())
def test_solve_exact_matches_sympy(system):
    sympy = pytest.importorskip("sympy")
    a, b = system
    m = _sympy_matrix(sympy, a, len(a[0]))
    rhs = _sympy_matrix(sympy, tuple((x,) for x in b), 1)
    try:
        m.gauss_jordan_solve(rhs)
        consistent = True
    except ValueError:
        consistent = False
    x = solve_exact(a, b)
    assert (x is not None) == consistent
    if x is not None:
        assert m * _sympy_matrix(sympy, tuple((c,) for c in x), 1) == rhs
        if m.rank() == len(a[0]):
            # full column rank: the solution is unique
            solution = m.solve_least_squares(rhs)
            assert x == tuple(_fraction(solution[i, 0]) for i in range(len(x)))


# int-typed input: the normal form keeps integral values as int, so the
# eliminations must divide through linalg.div and still agree with sympy

int_entries = st.sampled_from((0, 0, 1, -1, 2, 3, -2))


@st.composite
def int_matrices(draw):
    n = draw(st.integers(1, 4))
    return tuple(tuple(draw(int_entries) for _ in range(n)) for _ in range(n))


def test_int_matrix_with_fractional_inverse():
    a = ((2, 1), (1, 3))
    assert determinant(a) == 5 and type(determinant(a)) is int
    assert mat_inverse(a) == ((F(3, 5), F(-1, 5)), (F(-1, 5), F(2, 5)))
    assert mat_inverse(((2, 0), (0, 1))) == ((F(1, 2), 0), (0, 1))
    assert type(mat_inverse(((2, 0), (0, 1)))[1][1]) is int


@settings(deadline=None)
@given(a=int_matrices())
def test_int_determinant_and_inverse_match_sympy(a):
    sympy = pytest.importorskip("sympy")
    m = _sympy_matrix(sympy, a, len(a))
    det = determinant(a)
    assert type(det) is int and det == _fraction(m.det())
    if det:
        inv = mat_inverse(a)
        assert all(is_normal(x) for row in inv for x in row)
        want = m.inv()
        assert inv == tuple(
            tuple(_fraction(want[i, j]) for j in range(len(a))) for i in range(len(a))
        )


@settings(deadline=None)
@given(n=st.integers(1, 3), scale=st.sampled_from((1, 2, 3, -2)), unital=st.booleans(), data=st.data())
def test_find_unit_on_int_constants_matches_sympy(n, scale, unital, data):
    """Scaling the product of an algebra with unit e1 by c moves the unit to
    e1 / c, which is not integral for |c| > 1; without the unit products
    there is mostly no unit at all."""
    sympy = pytest.importorskip("sympy")
    other = st.integers(1 if unital else 0, n - 1)
    entries = []
    if n > 1 or not unital:
        entries = data.draw(
            st.lists(st.tuples(other, other, st.integers(0, n - 1), st.integers(-2, 2)), max_size=4)
        )
    if unital:
        entries += [(0, j, j, 1) for j in range(n)] + [(j, 0, j, 1) for j in range(1, n)]
    dot = BilinearOp.from_entries(Space.of_dim(n), [(i, j, k, scale * v) for i, j, k, v in entries])
    rows, rhs = [], []
    for j in range(n):
        for k in range(n):
            rows += [[dot.entry(i, j, k) for i in range(n)], [dot.entry(j, i, k) for i in range(n)]]
            rhs += [int(j == k)] * 2
    try:
        solution, params = sympy.Matrix(rows).gauss_jordan_solve(sympy.Matrix(rhs))
    except ValueError:
        solution = None  # inconsistent: no unit
    unit = find_unit(dot)
    if solution is None:
        assert unit is None
        return
    assert not params  # a two-sided unit is unique
    assert unit == tuple(_fraction(solution[i, 0]) for i in range(n))
    assert all(is_normal(x) for x in unit)
    if unital:
        assert unit == (F(1, scale),) + (0,) * (n - 1)


# ---------------------------------------------------------------------------
# the eliminator stops where its caller has seen enough


ELIMINATOR = linalg._gauss_jordan


def _read_no_further_than(monkeypatch, module, stops):
    """Give ``module`` an eliminator whose rows come from a generator that
    fails if it is read past the first row whose lead ``stops`` accepts, and
    return the list of rows that generator handed out."""
    real, read = ELIMINATOR, []

    def guarded(rows):
        rows = list(rows)
        steps = real(rows)
        next(steps)
        last = next(r for r, lead in enumerate(steps) if stops(lead))

        def feed():
            for r, row in enumerate(rows):
                assert r <= last, f"row {r} read past the first inconsistent row {last}"
                read.append(row)
                yield row

        return real(feed())

    monkeypatch.setattr(module, "_gauss_jordan", guarded)
    return read


@pytest.mark.parametrize(
    "entries",
    [[], [(0, 0, 1, 1)], [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1)]],
    ids=["zero-product", "nilpotent", "annihilated-vector"],
)
def test_find_unit_stops_at_the_first_equation_reading_0_eq_1(monkeypatch, entries):
    sp = Space.of_dim(3)
    read = _read_no_further_than(monkeypatch, algebra, lambda lead: lead and lead[0] == sp.dim)
    assert find_unit(BilinearOp.from_entries(sp, entries)) is None
    # the product has 2 * 3 equations with right-hand side 1 and more
    assert read and len(read) < 2 * sp.dim


def test_determinant_and_inverse_stop_at_the_first_dependent_row(monkeypatch):
    singular = ((1, 2, 0, 0), (2, 4, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    read = _read_no_further_than(monkeypatch, linalg, lambda lead: lead is None)
    assert determinant(singular) == 0
    assert len(read) == 2
    read = _read_no_further_than(monkeypatch, linalg, lambda lead: lead is None or lead[0] >= 4)
    with pytest.raises(ValueError, match="singular"):
        mat_inverse(singular)
    assert len(read) == 2


def _scanning_gauss_jordan(rows):
    """The eliminator as written before its column index: back-substitution
    scans every earlier pivot row for the new pivot column."""
    pivots = {}
    yield pivots
    for row in map(dict, rows):
        for col in [c for c in row if c in pivots]:
            linalg._axpy(row, -row[col], pivots[col])
        if not row:
            yield None
            continue
        col = min(row)
        lead = (col, linalg.scalar(row[col]))
        row = {c: v * linalg.div(1, lead[1]) for c, v in row.items()}
        for other in pivots.values():
            if col in other:
                linalg._axpy(other, -other[col], row)
        pivots[col] = row
        yield lead


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    st.lists(
        st.dictionaries(st.integers(0, 6), st.sampled_from((1, -1, 2, F(1, 3), F(-3, 2))), max_size=4),
        max_size=8,
    )
)
def test_eliminator_leads_and_pivots_match_the_scanning_eliminator(rows):
    new, old = ELIMINATOR(rows), _scanning_gauss_jordan(rows)
    new_pivots, old_pivots = next(new), next(old)
    assert list(new) == list(old)
    assert list(new_pivots.items()) == list(old_pivots.items())
    assert all(list(new_pivots[c]) == list(old_pivots[c]) for c in old_pivots)


def _lines_run(fn, *args):
    """The lines of ``fn`` run while the generator it returns is drained."""
    count, code = [0], fn.__code__

    def tracer(frame, event, _arg):
        if frame.f_code is not code:
            return None
        count[0] += event == "line"
        return tracer

    sys.settrace(tracer)
    try:
        list(fn(*args))
    finally:
        sys.settrace(None)
    return count[0]


def test_back_substitution_reads_only_the_rows_holding_the_pivot_column():
    # no pivot row of a diagonal system holds a later pivot column, so
    # eliminating it runs a bounded number of lines per row; scanning every
    # earlier pivot row runs n(n-1)/2 inspections
    diagonal = lambda n: [{i: 2} for i in range(n)]
    assert _lines_run(ELIMINATOR, diagonal(400)) <= 2 * _lines_run(ELIMINATOR, diagonal(200))
    assert _lines_run(_scanning_gauss_jordan, diagonal(400)) > 3 * _lines_run(_scanning_gauss_jordan, diagonal(200))


# ---------------------------------------------------------------------------
# a table built from entries holds their sorted nonzero sums, and each of
# its re-keyed indexes groups those entries in order


TABLE_AXES = ("ijk", "kij", "ji", "ij", _FAMILY)


def _naive_table(entries, axes, bounds):
    """The (entries, shape) of a table by the definition: every cell is
    visited in stored order, and a nonzero sum at a cell is an entry
    there, in normal form."""
    labels = sorted(axes)
    sums = {}
    for *at, x in entries:
        sums[tuple(at)] = sums.get(tuple(at), 0) + x
    normal = lambda x: x.numerator if isinstance(x, F) and x.denominator == 1 else x
    shape = tuple(bounds[a] for a in axes)
    found = []
    for cell in itertools.product(*map(range, shape)):
        key = tuple(cell[axes.index(label)] for label in labels)
        if sums.get(key):
            found.append((cell, normal(sums[key])))
    return tuple(found), shape


@st.composite
def table_inputs(draw):
    """(axes, the bound of each label, entries in sorted label order), some
    entries repeated with the opposite sign so that their sums cancel."""
    axes = draw(st.sampled_from(TABLE_AXES))
    bounds = {label: draw(st.integers(0, 3)) for label in sorted(axes)}
    if 0 in bounds.values():
        return axes, bounds, []
    index = st.tuples(*(st.integers(0, bounds[label] - 1) for label in sorted(axes)))
    value = st.sampled_from((1, -1, 2, F(1, 2), F(-3, 2), F(4, 2)))
    entries = [(*at, x) for at, x in draw(st.lists(st.tuples(index, value), max_size=8))]
    cancelled = draw(st.lists(st.sampled_from(entries), max_size=3)) if entries else []
    return axes, bounds, entries + [(*at, -x) for *at, x in cancelled]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=table_inputs())
@example(case=("ijk", {"i": 2, "j": 2, "k": 2}, []))
@example(case=("kij", {"i": 2, "j": 3, "k": 1}, [(1, 2, 0, F(1, 2)), (1, 2, 0, F(-1, 2))]))
def test_table_holds_the_sorted_nonzero_sums_of_its_entries(case):
    axes, bounds, entries = case
    shape = [bounds[a] for a in axes]
    table = linalg._table(entries, axes, shape)
    assert (table.entries, table.shape) == _naive_table(entries, axes, bounds)
    assert all(type(at) is tuple and is_normal(x) for at, x in table.entries)
    # read back in label order, the entries build the same table
    listed = linalg._entries(table, axes)
    assert linalg._table(listed, axes, shape) == table
    for keys in [(p,) for p in range(len(axes))] + [(0, 1)]:
        index = linalg._read(table, keys)
        grouped = {}
        for at, x in table.entries:
            key = at[keys[0]] if len(keys) == 1 else tuple(at[p] for p in keys)
            rest = tuple(i for p, i in enumerate(at) if p not in keys)
            grouped.setdefault(key, []).append((rest, x))
        assert index == grouped and linalg._read(table, keys) is index


def _evaluators():
    """Each evaluator of the dense API on a 3-dim algebra, acting on a
    2-dim module, as a function of the one vector it is given; any other
    vector it reads has the right length."""
    sp, good = Space.of_dim(3), (1, 0, 2)
    op = BilinearOp.from_entries(sp, [(0, 0, 0, 1), (0, 1, 2, F(1, 2)), (2, 2, 1, 3)])
    comult = Comultiplication.from_entries(sp, op.nonzero_entries())
    form = BilinearForm(sp, ((1, 0, 0), (0, 0, 1), (0, 1, 0)))
    alg = RelPoissonAlgebra(sp, op, BilinearOp.zero(sp), LinearMap.zero(sp))
    family = (((1, 0), (0, 1)),) * 3
    cs = CompatibleStructure(alg, Space.of_dim(2, "v"), family, family)
    return {
        "apply-left": lambda w: op.apply(w, good),
        "apply-right": lambda w: op.apply(good, w),
        "left_matrix_of": op.left_matrix_of,
        "ad_map": lambda w: ad_map(op, w),
        "LinearMap.__call__": LinearMap.identity(sp),
        "Comultiplication.of": comult.of,
        "dot_action_of": cs.dot_action_of,
        "bracket_action_of": cs.bracket_action_of,
        "value-left": lambda w: form.value(w, good),
        "value-right": lambda w: form.value(good, w),
    }


@pytest.mark.parametrize("vector", [(1, 0, 2, 5), (1, 0)], ids=["too-long", "too-short"])
@pytest.mark.parametrize("name", list(_evaluators()))
def test_evaluators_reject_a_mis_sized_vector(name, vector):
    # too long by a nonzero coordinate, which a row loop over the vector's
    # coordinates would silently drop
    evaluate = _evaluators()[name]
    with pytest.raises(ValueError, match="vector of length"):
        evaluate(vector)
    evaluate((1, 0, 2))
