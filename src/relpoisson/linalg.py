"""Exact rational linear algebra over based vector spaces.

Everything downstream is built on four value types: :class:`Space` (a based
vector space identified by its ordered basis labels), :class:`LinearMap`
(a map between two spaces), and coefficient tensors :class:`Tensor2` /
:class:`Tensor3` for elements of two- and three-fold tensor products.

Structures are stored sparse-first.  A sparse table is nested rows
(:class:`_Rows`), the last level listing its nonzero (index, value)
entries in increasing index order, and a :class:`_Stored` structure keeps
only its table, by which it compares and hashes: a linear map its column
table, a 2-tensor its row table.  Dense constructors convert their matrix
once, in :func:`_columns`; the dense attributes (``entries``, ``coeffs``)
are views derived on first read, and no builder reads them.  Only
:class:`Tensor3` is stored dense.

Scalars are exact rationals in one normal form: a Python ``int`` when the
value is integral, and a ``fractions.Fraction`` (lowest terms, positive
denominator) only when its denominator is not 1.  Mixed ``int`` /
``Fraction`` arithmetic stays exact; the one way out of the rationals,
``int / int``, is never written: every true division goes through
:func:`div`, and only the one exact eliminator, :func:`_gauss_jordan`,
divides.  Determinants, inverses and the unit of a multiplication are all
read from its output, and it stops as soon as its caller has seen enough.
Vectors and dense matrices are plain nested tuples of scalars; all values
are immutable and safe to share.

Conventions fixed here and relied on by every other module:

* dual basis pairing  <e_i*, e_j> = delta_ij;
* the dual of ``f: V -> W`` is the plain transpose acting ``W* -> V*``;
* ``Tensor2`` coefficients mean  r = sum coeffs[i][j] e_i (x) f_j.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import itemgetter

Scalar = int | Fraction
ZERO = 0
ONE = 1

Vector = tuple  # tuple[Scalar, ...]
Matrix = tuple  # tuple[tuple[Scalar, ...], ...]


def scalar(value) -> Scalar:
    """Coerce an int, string ("p/q") or Fraction to the normal form: a plain
    int when the value is integral (a bool too), else a Fraction."""
    if type(value) is int:
        return value
    if isinstance(value, (int, str)):
        value = Fraction(value)
    elif not isinstance(value, Fraction):
        raise TypeError(f"not an exact scalar: {value!r}")
    return value.numerator if value.denominator == 1 else value


def div(a, b) -> Scalar:
    """The exact quotient a / b in normal form; never a float."""
    return scalar(Fraction(a) / b)


# ---------------------------------------------------------------------------
# spaces


@dataclass(frozen=True)
class Space:
    """A based vector space, identified by its ordered tuple of basis labels."""

    labels: tuple

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        if len(set(self.labels)) != len(self.labels):
            raise ValueError(f"basis labels not pairwise distinct: {self.labels}")

    @staticmethod
    def of_dim(n: int, prefix: str = "e") -> Space:
        return Space(tuple(f"{prefix}{i + 1}" for i in range(n)))

    @property
    def dim(self) -> int:
        return len(self.labels)

    @property
    def dual(self) -> Space:
        return Space(tuple(lab + "*" for lab in self.labels))

    def __repr__(self):
        return f"Space({list(self.labels)!r})"


def direct_sum_space(left: Space, right: Space) -> Space:
    """Basis of a direct sum: left labels first, then right labels.

    Colliding right labels are primed until distinct.
    """
    taken = set(left.labels)
    out = []
    for lab in right.labels:
        while lab in taken or lab in out:
            lab = lab + "'"
        out.append(lab)
    return Space(left.labels + tuple(out))


# ---------------------------------------------------------------------------
# vectors


def basis_vector(n: int, i: int) -> Vector:
    return tuple(ONE if j == i else ZERO for j in range(n))


def vec_is_zero(u) -> bool:
    return all(not a for a in u)


# ---------------------------------------------------------------------------
# sparse tables


class _Rows(tuple):
    """The nested rows of a sparse table, the last level listing its
    nonzero (index, value) entries.  Rows never change, so a sweep keeps
    the paths and indexes its joins reach in their ``_reads`` memo, made
    on first read and never for a join after an empty one.  A table built
    by :func:`_nest` has its sorted entries there from construction, as its
    path index ``_reads[None]``, so no reader walks its rows."""

    def __getattr__(self, name):
        if name != "_reads":
            raise AttributeError(name)
        return self.__dict__.setdefault(name, {})


class _Stored:
    """Base of the structures kept in one sparse stored form.  Each is a
    frozen dataclass whose fields are its dense constructor's arguments:
    ``__init__`` converts them to the stored attributes named in
    ``_stored``, by which instances compare, and each field not stored is
    a cached property, derived on first read.  A structure read by a sweep
    stores its table as ``_sparse``, nested rows whose levels are indexed
    in the order ``_axes`` names."""

    _stored = ()

    def __eq__(self, other):
        return type(other) is type(self) and all(
            getattr(self, name) == getattr(other, name) for name in self._stored
        )

    def __hash__(self):
        return hash(tuple(getattr(self, name) for name in self._stored))


def _make(cls, **stored):
    """An instance of a structure holding the given stored attributes."""
    obj = object.__new__(cls)
    obj.__dict__.update(stored)
    return obj


def _with(obj, **changes):
    """A copy of a stored structure with some stored attributes replaced."""
    return _make(type(obj), **{name: changes.get(name, getattr(obj, name)) for name in obj._stored})


def _columns(matrix, height: int, width: int, error: str = "matrix of the wrong shape"):
    """The sparse column table of a height-by-width matrix: ``cols[j]``
    lists the nonzero (row, value) entries of column j.  Every dense matrix
    enters a sparse form here; a mis-shaped one raises ValueError(error)."""
    rows = [tuple(map(scalar, row)) for row in matrix]
    if len(rows) != height or any(len(row) != width for row in rows):
        raise ValueError(error)
    return _Rows(
        tuple((r, row[j]) for r, row in enumerate(rows) if row[j]) for j in range(width)
    )


def _transpose(cols, height: int, scale=1):
    """The column table of scale times the transpose of a matrix with
    ``height`` rows, given by its column table (so, equally, the row table
    of a matrix given by its row table)."""
    out = [[] for _ in range(height)]
    for c, col in enumerate(cols):
        for r, x in col:
            out[r].append((c, scale * x))
    return _Rows(map(tuple, out))


def _paths(rows, depth: int):
    """Every entry of a table nested ``depth`` levels above its entry lists,
    as an (indices, value) path; empty rows are skipped level by level.
    Only a table not built by :func:`_nest` is walked, at no more than its
    building cost; an entry-built table keeps these paths."""
    paths = [((), rows)]
    for _ in range(depth):
        paths = [(v + (i,), row) for v, level in paths for i, row in enumerate(level) if row]
    return [(v + (k,), x) for v, row in paths for k, x in row]


def _entries(rows, axes: str):
    """The (indices..., value) entries of a nested sparse table whose levels
    are indexed in the order ``axes`` names, each with its indices in sorted
    label order, in stored order: read from the path index of an
    entry-built table, walked from the rows of any other."""
    order = itemgetter(*map(axes.index, sorted(axes)))
    paths = rows._reads.get(None)
    paths = _paths(rows, len(axes) - 1) if paths is None else paths
    return [(*order(v), x) for v, x in paths]


def _nest(entries, axes: str, sizes):
    """The nested sparse rows of (indices..., value) entries whose indices
    come in sorted label order, with the levels indexed in the order
    ``axes`` names and ``sizes`` giving the lengths of all but the last;
    repeated positions add up and zero sums are dropped.  The sums, sorted
    once, are kept as the path index ``_reads[None]``: exactly the paths
    :func:`_paths` would walk, in order and with the same values."""
    stored = itemgetter(*(sorted(axes).index(a) for a in axes))
    sums = {}
    for entry in entries:
        key = stored(entry)
        sums[key] = sums.get(key, ZERO) + entry[-1]
    paths = [(key, scalar(sums[key])) for key in sorted(sums) if sums[key]]
    # the entry rows from the sorted run, then each outer level, innermost
    # first, filled from one shared list of absent rows
    table = defaultdict(list)
    for key, x in paths:
        table[key[:-1]].append((key[-1], x))
    empty = ()
    for size in reversed(sizes):
        absent = [empty] * size
        level = defaultdict(absent.copy)
        for outer, row in table.items():
            level[outer[:-1]][outer[-1]] = tuple(row)
        table, empty = level, tuple(absent)
    rows = _Rows(tuple(table[()]) if table else empty)
    rows.__dict__["_reads"] = {None: paths}
    return rows


def _dense(hits, *shape):
    """The nested tuple of the given shape holding the sum of the hits at
    each flat index, zero elsewhere: the dense view of a sparse form."""
    flat = [ZERO] * math.prod(shape)
    for f, x in hits:
        flat[f] += x
    for level in range(len(shape) - 1, 0, -1):
        size = shape[level]
        flat = [tuple(flat[s * size : (s + 1) * size]) for s in range(math.prod(shape[:level]))]
    return tuple(flat)


def _matrix(rows, width: int) -> Matrix:
    """The dense matrix of a row table whose rows have the given width."""
    return _dense([(i * width + j, x) for i, row in enumerate(rows) for j, x in row], len(rows), width)


def _add(a, b):
    """The entrywise sum of two sparse two-level tables of the same shape."""
    return _nest(_entries(a, "ij") + _entries(b, "ij"), "ij", (len(a),))


def _block_diagonal(a, b, height: int):
    """The column table of diag(a, b), given the column tables of a, of
    the given height, and of b."""
    return _Rows((*a, *(tuple((height + r, x) for r, x in col) for col in b)))


def _neg(rows):
    """The negative of a sparse table."""
    return _Rows(tuple((k, -x) for k, x in row) for row in rows)


def _axpy(row: dict, f, other: dict) -> None:
    """row += f * other on sparse {column: value} rows, dropping zeros."""
    for c, v in other.items():
        x = row.get(c, ZERO) + f * v
        if x:
            row[c] = x
        else:
            del row[c]


def _gauss_jordan(rows):
    """Gauss-Jordan elimination of sparse {column: nonzero value} rows, in
    order, run as a generator.  It first yields ``pivots``, which maps each
    pivot column to its reduced row, 1 there and 0 at every other pivot
    column, over the rows read so far.  Then, as it reads each row, it
    yields that row's (column, value) pivot, at the least column left once
    the rows before reduce it, or None if the row reduces to zero.  A
    caller that has seen enough stops, and no further row is read."""
    pivots = {}
    yield pivots
    for row in map(dict, rows):
        for col in [c for c in row if c in pivots]:
            _axpy(row, -row[col], pivots[col])
        if not row:
            yield None
            continue
        col = min(row)
        lead = (col, scalar(row[col]))
        scale = lead[1] if lead[1] in (ONE, -ONE) else div(ONE, lead[1])  # a unit is its own inverse
        row = {c: v * scale for c, v in row.items()}
        for other in pivots.values():
            if col in other:
                _axpy(other, -other[col], row)
        pivots[col] = row
        yield lead


def _determinant(rows) -> Scalar:
    """The determinant of the square matrix with the given sparse rows: the
    product of the pivot values, signed by the parity of the pivot columns;
    0 at the first row that reduces to zero, where elimination stops."""
    steps = _gauss_jordan(rows)
    next(steps)
    det, cols = ONE, []
    for lead in steps:
        if lead is None:
            return ZERO
        det *= lead[1]
        cols.append(lead[0])
    for r in range(len(cols)):
        while cols[r] != r:  # sort the columns by swaps, each flipping the sign
            c = cols[r]
            cols[r], cols[c], det = cols[c], c, -det
    return scalar(det)


def determinant(a: Matrix) -> Scalar:
    """Exact determinant, by elimination of the rows of a."""
    if any(len(r) != len(a) for r in a):
        raise ValueError("determinant of a non-square matrix")
    return _determinant({c: x for c, x in enumerate(row) if x} for row in a)


def _solve(rows, n: int):
    """The rows of the x with a x = b, as {column: value} dicts, given the n
    sparse rows of [a | b] for a square a of size n; None when a is
    singular, at the first row whose pivot falls outside a."""
    steps = _gauss_jordan(rows)
    pivots = next(steps)
    if any(lead is None or lead[0] >= n for lead in steps):
        return None
    # row r of x is the [b] part of the pivot row of column r
    return [{c - n: scalar(x) for c, x in pivots[r].items() if c >= n} for r in range(n)]


def mat_inverse(a: Matrix) -> Matrix:
    """Exact inverse, from [a | I]; raises ValueError on a singular or
    non-square matrix."""
    n = len(a)
    if any(len(r) != n for r in a):
        raise ValueError("elimination of a non-square matrix")
    rows = ({**{c: x for c, x in enumerate(row) if x}, n + r: ONE} for r, row in enumerate(a))
    inverse = _solve(rows, n)
    if inverse is None:
        raise ValueError("matrix is singular")
    return tuple(tuple(row.get(c, ZERO) for c in range(n)) for row in inverse)


# ---------------------------------------------------------------------------
# linear maps


@dataclass(frozen=True, init=False, eq=False)
class LinearMap(_Stored):
    """A linear map, stored as the sparse column table ``_sparse``:
    ``_sparse[j]`` lists the nonzero (row, value) entries of column j.
    ``LinearMap(domain, codomain, entries)`` takes the dense
    (codomain.dim x domain.dim) matrix, its view derived on first read."""

    domain: Space
    codomain: Space
    entries: Matrix = cached_property(
        lambda self: _matrix(_transpose(self._sparse, self.codomain.dim), self.domain.dim)
    )
    _stored = ("domain", "codomain", "_sparse")
    _axes = "ji"

    def __init__(self, domain: Space, codomain: Space, entries: Matrix):
        error = "linear map entries do not match (codomain.dim, domain.dim)"
        cols = _columns(entries, codomain.dim, domain.dim, error)
        self.__dict__.update(domain=domain, codomain=codomain, _sparse=cols)

    @staticmethod
    def identity(space: Space) -> LinearMap:
        cols = _Rows(((j, ONE),) for j in range(space.dim))
        return _make(LinearMap, domain=space, codomain=space, _sparse=cols)

    @staticmethod
    def zero(domain: Space, codomain: Space | None = None) -> LinearMap:
        cols = _Rows(((),) * domain.dim)
        return _make(LinearMap, domain=domain, codomain=codomain or domain, _sparse=cols)

    def __call__(self, v: Vector) -> Vector:
        hits = [(r, c * x) for c, col in zip(v, self._sparse) if c for r, x in col]
        return _dense(hits, self.codomain.dim)

    def column(self, j: int) -> Vector:
        return _dense(self._sparse[j], self.codomain.dim)

    def add(self, other: LinearMap) -> LinearMap:
        if (self.domain, self.codomain) != (other.domain, other.codomain):
            raise ValueError("linear maps between different spaces")
        return _with(self, _sparse=_add(self._sparse, other._sparse))

    def neg(self) -> LinearMap:
        return _with(self, _sparse=_neg(self._sparse))

    def is_zero(self) -> bool:
        return not any(self._sparse)


def dual_map(f: LinearMap) -> LinearMap:
    """The dual of f: V -> W, acting W* -> V* by the transpose matrix."""
    cols = _transpose(f._sparse, f.codomain.dim)
    return _make(LinearMap, domain=f.codomain.dual, codomain=f.domain.dual, _sparse=cols)


# ---------------------------------------------------------------------------
# tensors


@dataclass(frozen=True, init=False, eq=False)
class Tensor2(_Stored):
    """r = sum coeffs[i][j] e_i (x) f_j in left (x) right, stored as the row
    table ``_sparse``: ``_sparse[i]`` lists the nonzero (j, value)
    coefficients of row i.  ``Tensor2(left, right, coeffs)`` takes the dense
    coefficients, their view derived on first read."""

    left: Space
    right: Space
    coeffs: Matrix = cached_property(lambda self: _matrix(self._sparse, self.right.dim))
    _stored = ("left", "right", "_sparse")
    _axes = "ij"

    def __init__(self, left: Space, right: Space, coeffs: Matrix):
        error = "tensor coefficients do not match factor dimensions"
        rows = _transpose(_columns(coeffs, left.dim, right.dim, error), left.dim)
        self.__dict__.update(left=left, right=right, _sparse=rows)

    @staticmethod
    def zero(left: Space, right: Space) -> Tensor2:
        return _make(Tensor2, left=left, right=right, _sparse=_Rows(((),) * left.dim))

    def add(self, other: Tensor2) -> Tensor2:
        if (self.left, self.right) != (other.left, other.right):
            raise ValueError("tensor factor mismatch")
        return _with(self, _sparse=_add(self._sparse, other._sparse))

    def neg(self) -> Tensor2:
        return _with(self, _sparse=_neg(self._sparse))

    def is_zero(self) -> bool:
        return not any(self._sparse)


@dataclass(frozen=True)
class Tensor3:
    """t = sum coeffs[i][j][k] e_i (x) f_j (x) g_k."""

    spaces: tuple  # (Space, Space, Space)
    coeffs: tuple  # rank-3 nested tuple

    def __post_init__(self):
        s1, s2, s3 = self.spaces
        co = tuple(
            tuple(tuple(scalar(x) for x in row) for row in plane) for plane in self.coeffs
        )
        object.__setattr__(self, "coeffs", co)
        ok = len(co) == s1.dim and all(
            len(plane) == s2.dim and all(len(row) == s3.dim for row in plane)
            for plane in co
        )
        if not ok:
            raise ValueError("tensor coefficients do not match factor dimensions")

    def is_zero(self) -> bool:
        return all(not x for plane in self.coeffs for row in plane for x in row)


def swap_factors(t: Tensor2) -> Tensor2:
    """The exchanging operator x (x) y -> y (x) x; an involution."""
    return _make(Tensor2, left=t.right, right=t.left, _sparse=_transpose(t._sparse, t.right.dim))


def rotate_factors(t: Tensor3) -> Tensor3:
    """Cyclic rotation x (x) y (x) z -> y (x) z (x) x; has order 3.

    Requires all three factor spaces to coincide.
    """
    s1, s2, s3 = t.spaces
    if not (s1 == s2 == s3):
        raise ValueError("cyclic rotation needs equal factor spaces")
    n = s1.dim
    co = t.coeffs
    new = tuple(
        tuple(tuple(co[s][p][q] for s in range(n)) for q in range(n)) for p in range(n)
    )
    return Tensor3(t.spaces, new)


def tensor_as_map(t: Tensor2) -> LinearMap:
    """Identify r = sum a_i (x) b_i in A (x) A with the map A* -> A,
    a* -> sum <a*, a_i> b_i.  In coordinates the matrix entry (j, i) is
    coeffs[i][j], so the map's column i is the tensor's row i."""
    if t.left != t.right:
        raise ValueError("tensor factor mismatch")
    return _make(LinearMap, domain=t.left.dual, codomain=t.left, _sparse=t._sparse)


__all__ = [
    "Scalar",
    "ZERO",
    "ONE",
    "scalar",
    "div",
    "Space",
    "direct_sum_space",
    "basis_vector",
    "vec_is_zero",
    "determinant",
    "mat_inverse",
    "LinearMap",
    "dual_map",
    "Tensor2",
    "Tensor3",
    "swap_factors",
    "rotate_factors",
    "tensor_as_map",
]
