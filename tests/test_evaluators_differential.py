"""The evaluators of the dense API against the row loops they replaced:
x * y, L(x), ad(x), f(v), a map's column, Delta(x), mu(x), rho(x) and
B(x, y), each now one action of a vector on a stored table
(``linalg._act``).  On seeded random products, maps, comultiplications,
action families and forms with integer and fractional values at dims 0-5,
and on random vectors of both kinds, each must give what its loop gave.
The loops are kept here as the reference; they read rows through
``linalg._row`` and built their dense output from (flat index, value)
hits."""

import math
import random
from fractions import Fraction as F

import pytest

from relpoisson import (
    BilinearForm,
    BilinearOp,
    CompatibleStructure,
    Comultiplication,
    LinearMap,
    RelPoissonAlgebra,
    Space,
)
from relpoisson.algebra import ad_map
from relpoisson.linalg import ZERO, _make, _row, _table

# ---------------------------------------------------------------------------
# the row loop each evaluator ran before


def _dense(hits, *shape):
    flat = [ZERO] * math.prod(shape)
    for f, x in hits:
        flat[f] += x
    for level in range(len(shape) - 1, 0, -1):
        size = shape[level]
        flat = [tuple(flat[s * size : (s + 1) * size]) for s in range(math.prod(shape[:level]))]
    return tuple(flat)


def reference_apply(op, u, v):
    acc = [ZERO] * op.space.dim
    for i, cu in enumerate(u):
        if cu:
            for (j, k), x in _row(op._sparse, i):
                if v[j]:
                    acc[k] += cu * v[j] * x
    return tuple(acc)


def reference_left_matrix_of(op, u):
    n = op.space.dim
    acc = [[ZERO] * n for _ in range(n)]
    for i, c in enumerate(u):
        if c:
            for (j, k), x in _row(op._sparse, i):
                acc[k][j] += c * x
    return tuple(tuple(r) for r in acc)


def reference_ad_map(bracket, u):
    sp = bracket.space
    entries = [(k, j, c * x) for i, c in enumerate(u) if c for (j, k), x in _row(bracket._sparse, i)]
    return _make(LinearMap, domain=sp, codomain=sp, _sparse=_table(entries, "ji", (sp.dim, sp.dim)))


def reference_call(f, v):
    hits = [(i, v[j] * x) for (j, i), x in f._sparse.entries if v[j]]
    return _dense(hits, f.codomain.dim)


def reference_column(f, j):
    return _dense([(i, x) for (i,), x in _row(f._sparse, j)], f.codomain.dim)


def reference_of(comult, u):
    n = comult.space.dim
    hits = [(i * n + j, c * x) for k, c in enumerate(u) if c for (i, j), x in _row(comult._sparse, k)]
    return _dense(hits, n, n)


def reference_action_of(family, u, m):
    hits = [(r * m + j, c * x) for k, c in enumerate(u) if c for (j, r), x in _row(family, k)]
    return _dense(hits, m, m)


def reference_value(form, u, v):
    terms = (u[i] * v[j] * g for (j, i), g in form._sparse.entries if u[i] and v[j])
    return sum(terms, ZERO)


# ---------------------------------------------------------------------------
# seeded random structures and vectors


def _value(rng):
    return rng.choice([0, rng.randint(-3, 3), F(rng.randint(-5, 5), rng.randint(1, 4))])


def _vector(rng, n):
    return tuple(_value(rng) for _ in range(n))


def _dense_table(rng, *shape):
    """A random dense nested tuple of the given shape, mostly zero."""
    if not shape:
        return _value(rng) if rng.random() < 0.4 else 0
    return tuple(_dense_table(rng, *shape[1:]) for _ in range(shape[0]))


CASES = [(seed, n) for seed in range(6) for n in range(6)]


@pytest.mark.parametrize("seed, n", CASES)
def test_product_evaluators_match_their_row_loops(seed, n):
    rng = random.Random(seed)
    op = BilinearOp(Space.of_dim(n), _dense_table(rng, n, n, n))
    for _ in range(3):
        u, v = _vector(rng, n), _vector(rng, n)
        assert op.apply(u, v) == reference_apply(op, u, v)
        assert op.left_matrix_of(u) == reference_left_matrix_of(op, u)
        assert ad_map(op, u) == reference_ad_map(op, u)


@pytest.mark.parametrize("seed, n", CASES)
def test_map_evaluators_match_their_row_loops(seed, n):
    rng = random.Random(seed)
    m = rng.randrange(6)
    f = LinearMap(Space.of_dim(n), Space.of_dim(m, "f"), _dense_table(rng, m, n))
    for j in range(n):
        assert f.column(j) == reference_column(f, j)
    for _ in range(3):
        v = _vector(rng, n)
        assert f(v) == reference_call(f, v)


@pytest.mark.parametrize("seed, n", CASES)
def test_comultiplication_and_form_evaluators_match_their_row_loops(seed, n):
    rng = random.Random(seed)
    space = Space.of_dim(n)
    comult = Comultiplication(space, _dense_table(rng, n, n, n))
    form = BilinearForm(space, _dense_table(rng, n, n))
    for _ in range(3):
        u, v = _vector(rng, n), _vector(rng, n)
        assert comult.of(u) == reference_of(comult, u)
        assert form.value(u, v) == reference_value(form, u, v)


@pytest.mark.parametrize("seed, n", CASES)
def test_action_evaluators_match_their_row_loops(seed, n):
    rng = random.Random(seed)
    space, m = Space.of_dim(n), rng.randrange(6)
    alg = RelPoissonAlgebra(space, BilinearOp.zero(space), BilinearOp.zero(space), LinearMap.zero(space))
    cs = CompatibleStructure(alg, Space.of_dim(m, "v"), _dense_table(rng, n, m, m), _dense_table(rng, n, m, m))
    for _ in range(3):
        u = _vector(rng, n)
        assert cs.dot_action_of(u) == reference_action_of(cs._mu, u, m)
        assert cs.bracket_action_of(u) == reference_action_of(cs._rho, u, m)
