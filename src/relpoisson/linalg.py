"""Exact rational linear algebra over based vector spaces.

Everything downstream is built on four value types: :class:`Space` (a based
vector space identified by its ordered basis labels), :class:`LinearMap`
(a map between two spaces), and coefficient tensors :class:`Tensor2` /
:class:`Tensor3` for elements of two- and three-fold tensor products.

Structures are stored sparse-first, in one coordinate form.  A table
(:class:`_Table`) is its nonzero (indices, value) entries, summed and
sorted, and its shape; a :class:`_Stored` structure keeps only its table,
by which it compares and hashes: a linear map its matrix keyed (column,
row), a tensor its coefficients.  Tables are built from entries by
:func:`_table`, from dense values by :func:`_from_dense`, and from other
tables by entry operations that permute, scale or move their indices, so
memory and build time follow the entries, never the dimension.  Every
row, column or join read goes through one index re-keyed from the
entries and memoised beside them (:func:`_read`).  The dense attributes
(``entries``, ``coeffs``) are views derived on first read, and no
builder reads them.  A structure evaluated on dense vectors, a map on a
vector or a product on its left factor, acts through :func:`_act`, which
checks each vector's length and returns a table in normal form.

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

import functools
import math
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
        if n < 0:
            raise ValueError(f"negative dimension: {n}")
        return Space(tuple(f"{prefix}{i + 1}" for i in range(n)))

    @property
    def dim(self) -> int:
        return len(self.labels)

    @cached_property
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


def _index(i, n: int) -> int:
    """i, checked as a basis index: ValueError unless an int in 0..n-1."""
    if isinstance(i, int) and 0 <= i < n:
        return i
    raise ValueError(f"not a basis index of a {n}-dim space: {i!r}")


def basis_vector(n: int, i: int) -> Vector:
    i = _index(i, n)
    return tuple(ONE if j == i else ZERO for j in range(n))


def vec_is_zero(u) -> bool:
    return not any(u)


# ---------------------------------------------------------------------------
# sparse tables


class _Table:
    """A sparse table in coordinate form, the one stored form of every
    structure: ``entries``, its nonzero (indices, value) pairs sorted by
    indices with each position once, and ``shape``, the size of each index
    position.  A table is canonical, so two hold the same coefficients
    exactly when they compare equal, and it never changes, so the indexes
    :func:`_read` re-keys from its entries are kept in its ``_reads`` memo,
    each made on first read.  Row i of a table is its index keyed on
    position 0 at i; no reader outside this module sees the entries'
    layout."""

    __slots__ = ("entries", "shape", "_reads")

    def __init__(self, entries: tuple, shape: tuple):
        self.entries, self.shape, self._reads = entries, shape, {}

    def __eq__(self, other):
        return type(other) is _Table and self.entries == other.entries and self.shape == other.shape

    def __hash__(self):
        return hash((self.entries, self.shape))

    def __repr__(self):
        return f"_Table({self.entries!r}, {self.shape!r})"


class _Stored:
    """Base of the structures kept in one stored table.  Each is a frozen
    dataclass whose fields are its dense constructor's arguments:
    ``__init__`` converts them to the stored attributes named in
    ``_stored``, by which instances compare, and each field not stored is
    a cached property, derived on first read.  A structure read by a sweep
    stores its table as ``_sparse``, its index positions in the order
    ``_axes`` names.  It prints as its stored attributes, so printing never
    builds a dense view."""

    _stored = ()

    def __eq__(self, other):
        return type(other) is type(self) and all(
            getattr(self, name) == getattr(other, name) for name in self._stored
        )

    def __hash__(self):
        return hash(tuple(getattr(self, name) for name in self._stored))

    def __repr__(self):
        stored = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._stored)
        return f"{type(self).__name__}({stored})"


class _Sparse(_Stored):
    """Base of the structures stored as the one table ``_sparse``."""

    def is_zero(self) -> bool:
        return not self._sparse.entries


def _make(cls, **stored):
    """An instance of a structure holding the given stored attributes."""
    obj = object.__new__(cls)
    obj.__dict__.update(stored)
    return obj


def _with(obj, **changes):
    """A copy of a stored structure with some stored attributes replaced."""
    return _make(type(obj), **{name: changes.get(name, getattr(obj, name)) for name in obj._stored})


@functools.cache
def _key(positions: tuple):
    """A shared function reading the given positions of a tuple as a lookup
    key: the index itself at one position, a tuple at several."""
    return itemgetter(*positions) if positions else lambda row: ()


@functools.cache
def _picker(positions: tuple):
    """A shared function reading the given positions of a sequence, as a sequence."""
    if len(positions) == 1:
        return itemgetter(slice(positions[0], positions[0] + 1))
    return _key(positions)


def _summed(pairs, shape) -> _Table:
    """The table of (indices, value) pairs; repeated positions add up and
    zero sums are dropped."""
    sums = {}
    for key, x in pairs:
        sums[key] = sums.get(key, ZERO) + x
    return _Table(tuple((key, scalar(sums[key])) for key in sorted(sums) if sums[key]), tuple(shape))


def _table(entries, axes: str, shape) -> _Table:
    """The table of (indices..., value) entries whose indices come in
    sorted label order, its positions in the order ``axes`` names and
    ``shape`` giving their sizes in that order."""
    stored = _picker(tuple(sorted(axes).index(a) for a in axes))
    return _summed(((stored(entry), entry[-1]) for entry in entries), shape)


def _entries(table: _Table, axes: str):
    """The (indices..., value) entries of a table whose positions are in
    the order ``axes`` names, each with its indices in sorted label order,
    in stored order."""
    order = _picker(tuple(axes.index(a) for a in sorted(axes)))
    return [(*order(at), x) for at, x in table.entries]


def _from_dense(dense, shape, error: str, order=None) -> _Table:
    """The table of a dense nested tuple of the given shape, its positions
    stored in ``order`` (a permutation, the dense order by default).  Every
    dense value enters a table here, in normal form; a mis-shaped one raises
    ValueError(error)."""
    cells = [((), dense)]
    for size in shape:
        cells = [(at, tuple(level)) for at, level in cells]
        if any(len(level) != size for _, level in cells):
            raise ValueError(error)
        cells = [(at + (i,), x) for at, level in cells for i, x in enumerate(level)]
    table = _Table(tuple((at, x) for at, x in ((at, scalar(x)) for at, x in cells) if x), tuple(shape))
    return table if order is None else _permuted(table, order)


def _view(table: _Table, order=None):
    """The dense nested tuple of a table, its positions read in ``order``
    (stored order by default), zero off the entries."""
    pick = _picker(tuple(order)) if order else lambda at: at
    shape = pick(table.shape)
    flat = [ZERO] * math.prod(shape)
    for at, x in table.entries:
        f = 0
        for i, size in zip(pick(at), shape):
            f = f * size + i
        flat[f] = x
    for level in range(len(shape) - 1, 0, -1):
        size = shape[level]
        flat = [tuple(flat[s * size : (s + 1) * size]) for s in range(math.prod(shape[:level]))]
    return tuple(flat)


def _rekey(entries, keys: tuple):
    """(indices, value) entries indexed by the indices at positions
    ``keys``: each key maps to (the other indices, value) pairs, in entry
    order."""
    rest = _picker(tuple(p for p in range(len(entries[0][0])) if p not in keys)) if entries else None
    key, index = _key(keys), {}
    for indices, x in entries:
        index.setdefault(key(indices), []).append((rest(indices), x))
    return index


def _read(table: _Table, keys: tuple):
    """A table's index re-keyed on the positions ``keys``, built once per
    table in its memo."""
    found = table._reads.get(keys)
    if found is None:
        found = table._reads[keys] = _rekey(table.entries, keys)
    return found


def _row(table: _Table, i: int):
    """Row i of a table: the (other indices, value) pairs of its entries
    with index i at position 0."""
    return _read(table, (0,)).get(i, ())


def _act(table: _Table, u) -> _Table:
    """sum_k u[k] table[k, ...]: the table of the other positions, a
    vector acting on position 0; ValueError unless u has one coordinate
    per index there."""
    if len(u) != table.shape[0]:
        raise ValueError(f"vector of length {len(u)} where {table.shape[0]} coordinates are needed")
    return _summed(((at, c * x) for k, c in enumerate(u) if c for at, x in _row(table, k)), table.shape[1:])


def _row_dicts(table: _Table, count: int):
    """Rows 0 .. count - 1 of a two-position table, as {index: value}
    dicts, the sparse rows :func:`_gauss_jordan` eliminates."""
    return ({i: x for (i,), x in _row(table, j)} for j in range(count))


def _permuted(table: _Table, order) -> _Table:
    """The table with each entry's indices read in ``order``: a transpose."""
    pick = _picker(tuple(order))
    moved = sorted(((pick(at), x) for at, x in table.entries), key=itemgetter(0))
    return _Table(tuple(moved), pick(table.shape))


def _scaled(table: _Table, c) -> _Table:
    """c times a table, for a nonzero c."""
    return _Table(tuple((at, c * x) for at, x in table.entries), table.shape)


def _blocks(shape, *blocks) -> _Table:
    """The table of the given shape holding the entries of each (offsets,
    table) block with their indices moved by the offsets; the offsets
    beyond a table's positions come first, as its leading indices.  Blocks
    come in entry order and do not overlap."""
    entries = []
    for offsets, table in blocks:
        lead = len(offsets) - len(table.shape)
        head, tail = tuple(offsets[:lead]), offsets[lead:]
        entries += [(head + tuple(i + o for i, o in zip(at, tail)), x) for at, x in table.entries]
    return _Table(tuple(entries), tuple(shape))


def _identity(n: int) -> _Table:
    """The table of the n-by-n identity."""
    return _Table(tuple(((j, j), ONE) for j in range(n)), (n, n))


def _add(a: _Table, b: _Table) -> _Table:
    """The entrywise sum of two tables of the same shape."""
    return _summed(a.entries + b.entries, a.shape)


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
    pivots, holding = {}, {}  # holding: column -> the pivot rows nonzero there
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
        for p in holding.pop(col, ()):
            other = pivots[p]
            _axpy(other, -other[col], row)
            for c in row:
                if c in other:
                    holding.setdefault(c, set()).add(p)
                elif c in holding:
                    holding[c].discard(p)
        for c in row.keys() - {col}:  # no later pivot falls in column col
            holding.setdefault(c, set()).add(col)
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


@dataclass(frozen=True, init=False, eq=False, repr=False)
class LinearMap(_Sparse):
    """A linear map, stored as the table ``_sparse`` of its matrix keyed
    (column, row): entry ((j, i), x) is row i of column j.
    ``LinearMap(domain, codomain, entries)`` takes the dense
    (codomain.dim x domain.dim) matrix, its view derived on first read."""

    domain: Space
    codomain: Space
    entries: Matrix = cached_property(lambda self: _view(self._sparse, (1, 0)))
    _stored = ("domain", "codomain", "_sparse")
    _axes = "ji"

    def __init__(self, domain: Space, codomain: Space, entries: Matrix):
        error = "linear map entries do not match (codomain.dim, domain.dim)"
        table = _from_dense(entries, (codomain.dim, domain.dim), error, (1, 0))
        self.__dict__.update(domain=domain, codomain=codomain, _sparse=table)

    @staticmethod
    def identity(space: Space) -> LinearMap:
        return _make(LinearMap, domain=space, codomain=space, _sparse=_identity(space.dim))

    @staticmethod
    def zero(domain: Space, codomain: Space | None = None) -> LinearMap:
        codomain = codomain or domain
        table = _Table((), (domain.dim, codomain.dim))
        return _make(LinearMap, domain=domain, codomain=codomain, _sparse=table)

    def __call__(self, v: Vector) -> Vector:
        return _view(_act(self._sparse, v))

    def column(self, j: int) -> Vector:
        return self(basis_vector(self.domain.dim, j))

    def add(self, other: LinearMap) -> LinearMap:
        if (self.domain, self.codomain) != (other.domain, other.codomain):
            raise ValueError("linear maps between different spaces")
        return _with(self, _sparse=_add(self._sparse, other._sparse))

    def neg(self) -> LinearMap:
        return _with(self, _sparse=_scaled(self._sparse, -1))


def dual_map(f: LinearMap) -> LinearMap:
    """The dual of f: V -> W, acting W* -> V* by the transpose matrix."""
    table = _permuted(f._sparse, (1, 0))
    return _make(LinearMap, domain=f.codomain.dual, codomain=f.domain.dual, _sparse=table)


# ---------------------------------------------------------------------------
# tensors


@dataclass(frozen=True, init=False, eq=False, repr=False)
class Tensor2(_Sparse):
    """r = sum coeffs[i][j] e_i (x) f_j in left (x) right, stored as the
    table ``_sparse`` of its nonzero coefficients keyed (i, j).
    ``Tensor2(left, right, coeffs)`` takes the dense coefficients, their
    view derived on first read."""

    left: Space
    right: Space
    coeffs: Matrix = cached_property(lambda self: _view(self._sparse))
    _stored = ("left", "right", "_sparse")
    _axes = "ij"

    def __init__(self, left: Space, right: Space, coeffs: Matrix):
        error = "tensor coefficients do not match factor dimensions"
        table = _from_dense(coeffs, (left.dim, right.dim), error)
        self.__dict__.update(left=left, right=right, _sparse=table)

    @staticmethod
    def zero(left: Space, right: Space) -> Tensor2:
        return _make(Tensor2, left=left, right=right, _sparse=_Table((), (left.dim, right.dim)))

    def add(self, other: Tensor2) -> Tensor2:
        if (self.left, self.right) != (other.left, other.right):
            raise ValueError("tensor factor mismatch")
        return _with(self, _sparse=_add(self._sparse, other._sparse))

    def neg(self) -> Tensor2:
        return _with(self, _sparse=_scaled(self._sparse, -1))


@dataclass(frozen=True, init=False, eq=False, repr=False)
class Tensor3(_Sparse):
    """t = sum coeffs[i][j][k] e_i (x) f_j (x) g_k, stored as the table
    ``_sparse`` of its nonzero coefficients keyed (i, j, k).
    ``Tensor3(spaces, coeffs)`` takes the three factor spaces and the dense
    coefficients, their view derived on first read."""

    spaces: tuple  # (Space, Space, Space)
    coeffs: tuple = cached_property(lambda self: _view(self._sparse))
    _stored = ("spaces", "_sparse")

    def __init__(self, spaces: tuple, coeffs: tuple):
        s1, s2, s3 = spaces
        error = "tensor coefficients do not match factor dimensions"
        table = _from_dense(coeffs, (s1.dim, s2.dim, s3.dim), error)
        self.__dict__.update(spaces=(s1, s2, s3), _sparse=table)


def swap_factors(t: Tensor2) -> Tensor2:
    """The exchanging operator x (x) y -> y (x) x; an involution."""
    return _make(Tensor2, left=t.right, right=t.left, _sparse=_permuted(t._sparse, (1, 0)))


def rotate_factors(t: Tensor3) -> Tensor3:
    """Cyclic rotation x (x) y (x) z -> y (x) z (x) x; has order 3.

    Requires all three factor spaces to coincide.
    """
    s1, s2, s3 = t.spaces
    if not (s1 == s2 == s3):
        raise ValueError("cyclic rotation needs equal factor spaces")
    return _make(Tensor3, spaces=t.spaces, _sparse=_permuted(t._sparse, (1, 2, 0)))


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
