"""Exact rational linear algebra over based vector spaces.

Everything downstream is built on four value types: :class:`Space` (a based
vector space identified by its ordered basis labels), :class:`LinearMap`
(a matrix between two spaces), and coefficient tensors :class:`Tensor2` /
:class:`Tensor3` for elements of two- and three-fold tensor products.

Scalars are exact rationals in one normal form: a Python ``int`` when the
value is integral, and a ``fractions.Fraction`` (lowest terms, positive
denominator) only when its denominator is not 1.  Mixed ``int`` /
``Fraction`` arithmetic stays exact; the one way out of the rationals,
``int / int``, is never written: every true division goes through
:func:`div`, and only the one exact eliminator, :func:`_gauss_jordan`,
divides.  Determinants, inverses and the unit of a multiplication are all
read from its output.  Vectors and matrices are plain nested tuples of
scalars; all values are immutable and safe to share.

Conventions fixed here and relied on by every other module:

* dual basis pairing  <e_i*, e_j> = delta_ij;
* the dual of ``f: V -> W`` is the plain transpose acting ``W* -> V*``;
* ``Tensor2`` coefficients mean  r = sum coeffs[i][j] e_i (x) f_j.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

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


def vec_add(u: Vector, v: Vector) -> Vector:
    # zero operands dominate in practice; skip the arithmetic for them
    return tuple((a + b if b else a) if a else b for a, b in zip(u, v))


def vec_sub(u: Vector, v: Vector) -> Vector:
    return tuple(
        (a - b if b else a) if a else (-b if b else a) for a, b in zip(u, v)
    )


def vec_is_zero(u) -> bool:
    return all(not a for a in u)


# ---------------------------------------------------------------------------
# matrices


def zero_matrix(rows: int, cols: int) -> Matrix:
    return ((ZERO,) * cols,) * rows


def identity_matrix(n: int) -> Matrix:
    return tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))


def block_diagonal(a: Matrix, b: Matrix) -> Matrix:
    """The square matrix diag(a, b) of two square blocks."""
    pad_a, pad_b = (ZERO,) * len(b), (ZERO,) * len(a)
    return tuple(tuple(r) + pad_a for r in a) + tuple(pad_b + tuple(r) for r in b)


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return tuple(vec_add(ra, rb) for ra, rb in zip(a, b))


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return tuple(vec_sub(ra, rb) for ra, rb in zip(a, b))


def mat_neg(a: Matrix) -> Matrix:
    return tuple(tuple(-x for x in r) for r in a)


def mat_transpose(a: Matrix) -> Matrix:
    if not a:
        return ()
    return tuple(zip(*a))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """a (r x m) times b (m x c), skipping zero entries of a."""
    if a and len(a[0]) != len(b):
        raise ValueError("matrix shape mismatch")
    cols = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = [ZERO] * cols
        for k, x in enumerate(row):
            if not x:
                continue
            brow = b[k]
            for j, y in enumerate(brow):
                if y:
                    acc[j] += x * y
        out.append(tuple(acc))
    return tuple(out)


def mat_apply(a: Matrix, v: Vector) -> Vector:
    """Matrix times coordinate vector, skipping zero coordinates."""
    rows = len(a)
    acc = [ZERO] * rows
    for j, c in enumerate(v):
        if not c:
            continue
        for i in range(rows):
            x = a[i][j]
            if x:
                acc[i] += c * x
    return tuple(acc)


class _Rows(tuple):
    """The nested rows of a sparse table, the last level listing its
    nonzero (index, value) entries.  Rows never change, so a sweep keeps
    the paths and indexes it builds from them in their ``_reads`` memo."""

    @cached_property
    def _reads(self):
        return {}


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


def mat_is_zero(a: Matrix) -> bool:
    return all(not x for row in a for x in row)


def mat_combination(coeffs: Vector, mats) -> Matrix:
    """sum_k coeffs[k] * mats[k]; mats nonempty and square of equal shape."""
    rows = len(mats[0])
    cols = len(mats[0][0]) if rows else 0
    acc = [[ZERO] * cols for _ in range(rows)]
    for c, m in zip(coeffs, mats):
        if not c:
            continue
        for i in range(rows):
            mrow = m[i]
            arow = acc[i]
            for j in range(cols):
                x = mrow[j]
                if x:
                    arow[j] += c * x
    return tuple(tuple(r) for r in acc)


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
    order.  Returns (pivots, leads): ``pivots`` maps each pivot column to
    its reduced row, 1 there and 0 at every other pivot column, and
    ``leads[r]`` is the (column, value) pivot of row r, at the least column
    left once the rows before reduce it, or None if it reduces to zero."""
    pivots, leads = {}, []
    for row in map(dict, rows):
        for col in [c for c in row if c in pivots]:
            _axpy(row, -row[col], pivots[col])
        if not row:
            leads.append(None)
            continue
        col = min(row)
        leads.append((col, scalar(row[col])))
        scale = div(ONE, row[col])
        row = {c: v * scale for c, v in row.items()}
        for other in pivots.values():
            if col in other:
                _axpy(other, -other[col], row)
        pivots[col] = row
    return {col: {c: scalar(v) for c, v in row.items()} for col, row in pivots.items()}, leads


def determinant(a: Matrix) -> Scalar:
    """Exact determinant: the product of the rows' pivot values, signed by
    the parity of their pivot columns."""
    if any(len(r) != len(a) for r in a):
        raise ValueError("determinant of a non-square matrix")
    _, leads = _gauss_jordan({c: x for c, x in enumerate(row) if x} for row in a)
    if None in leads:
        return ZERO
    det, cols = ONE, [col for col, _ in leads]
    for r, (_, p) in enumerate(leads):
        det *= p
        while cols[r] != r:  # sort the columns by swaps, each flipping the sign
            c = cols[r]
            cols[r], cols[c], det = cols[c], c, -det
    return scalar(det)


def _solve(a: Matrix, b: Matrix):
    """The x with a x = b for a square a, read off the reduced rows of
    [a | b]; None when a is singular."""
    n = len(a)
    if any(len(r) != n for r in a):
        raise ValueError("elimination of a non-square matrix")
    rows = ({c: x for c, x in enumerate((*ra, *rb)) if x} for ra, rb in zip(a, b))
    pivots, _ = _gauss_jordan(rows)
    if any(c not in pivots for c in range(n)):
        return None
    # row r of x is the [b] part of the pivot row of column r
    return tuple(tuple(pivots[r].get(n + c, ZERO) for c in range(len(rb))) for r, rb in enumerate(b))


def mat_inverse(a: Matrix) -> Matrix:
    """Exact inverse, from [a | I]; raises ValueError on a singular or
    non-square matrix."""
    inverse = _solve(a, identity_matrix(len(a)))
    if inverse is None:
        raise ValueError("matrix is singular")
    return inverse


# ---------------------------------------------------------------------------
# linear maps


@dataclass(frozen=True)
class LinearMap:
    """A linear map as a (codomain.dim x domain.dim) matrix of scalars."""

    domain: Space
    codomain: Space
    entries: Matrix

    def __post_init__(self):
        ent = tuple(tuple(scalar(x) for x in row) for row in self.entries)
        object.__setattr__(self, "entries", ent)
        if len(ent) != self.codomain.dim or any(len(r) != self.domain.dim for r in ent):
            raise ValueError("linear map entries do not match (codomain.dim, domain.dim)")

    @staticmethod
    def identity(space: Space) -> LinearMap:
        return LinearMap(space, space, identity_matrix(space.dim))

    @staticmethod
    def zero(domain: Space, codomain: Space | None = None) -> LinearMap:
        codomain = codomain or domain
        return LinearMap(domain, codomain, zero_matrix(codomain.dim, domain.dim))

    @cached_property
    def _cols(self):
        """The sparse column table of the matrix, built on first read."""
        return _columns(self.entries, self.codomain.dim, self.domain.dim)

    def __call__(self, v: Vector) -> Vector:
        return mat_apply(self.entries, v)

    def column(self, j: int) -> Vector:
        return tuple(row[j] for row in self.entries)

    def add(self, other: LinearMap) -> LinearMap:
        if (self.domain, self.codomain) != (other.domain, other.codomain):
            raise ValueError("linear maps between different spaces")
        return LinearMap(self.domain, self.codomain, mat_add(self.entries, other.entries))

    def neg(self) -> LinearMap:
        return LinearMap(self.domain, self.codomain, mat_neg(self.entries))

    def is_zero(self) -> bool:
        return mat_is_zero(self.entries)


def dual_map(f: LinearMap) -> LinearMap:
    """The dual of f: V -> W, acting W* -> V* by the transpose matrix."""
    return LinearMap(f.codomain.dual, f.domain.dual, mat_transpose(f.entries))


# ---------------------------------------------------------------------------
# tensors


@dataclass(frozen=True)
class Tensor2:
    """r = sum coeffs[i][j] e_i (x) f_j in left (x) right."""

    left: Space
    right: Space
    coeffs: Matrix

    def __post_init__(self):
        co = tuple(tuple(scalar(x) for x in row) for row in self.coeffs)
        object.__setattr__(self, "coeffs", co)
        if len(co) != self.left.dim or any(len(r) != self.right.dim for r in co):
            raise ValueError("tensor coefficients do not match factor dimensions")

    @cached_property
    def _rows(self):
        """The row table of the coefficients, built on first read:
        ``_rows[i]`` lists the nonzero (j, value) entries of row i."""
        return _Rows(tuple((j, x) for j, x in enumerate(row) if x) for row in self.coeffs)

    @staticmethod
    def zero(left: Space, right: Space) -> Tensor2:
        return Tensor2(left, right, zero_matrix(left.dim, right.dim))

    def add(self, other: Tensor2) -> Tensor2:
        if (self.left, self.right) != (other.left, other.right):
            raise ValueError("tensor factor mismatch")
        return Tensor2(self.left, self.right, mat_add(self.coeffs, other.coeffs))

    def neg(self) -> Tensor2:
        return Tensor2(self.left, self.right, mat_neg(self.coeffs))

    def is_zero(self) -> bool:
        return mat_is_zero(self.coeffs)


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
    return Tensor2(t.right, t.left, mat_transpose(t.coeffs))


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
    coeffs[i][j]."""
    if t.left != t.right:
        raise ValueError("tensor factor mismatch")
    return LinearMap(t.left.dual, t.left, mat_transpose(t.coeffs))


__all__ = [
    "Scalar",
    "ZERO",
    "ONE",
    "scalar",
    "div",
    "Space",
    "direct_sum_space",
    "basis_vector",
    "vec_add",
    "vec_sub",
    "vec_is_zero",
    "zero_matrix",
    "identity_matrix",
    "block_diagonal",
    "mat_add",
    "mat_sub",
    "mat_neg",
    "mat_transpose",
    "mat_mul",
    "mat_apply",
    "mat_is_zero",
    "mat_combination",
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
