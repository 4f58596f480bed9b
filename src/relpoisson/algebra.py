"""Algebra structures as structure constants, and decidable axiom checkers.

A bilinear operation on a based space has structure constants ``c[i][j][k]``
with  e_i * e_j = sum_k c[i][j][k] e_k, stored sparse: only the nonzero
constants are kept, and the dense rank-3 array is a view derived on first
read.  Multilinearity makes verification on basis tuples complete, so every
axiom checker enumerates basis tuples and reports exact defect vectors (lhs
minus rhs) for the tuples that fail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter

from .linalg import (
    ONE,
    ZERO,
    LinearMap,
    Matrix,
    Space,
    Vector,
    _columns,
    basis_vector,
    block_diagonal,
    direct_sum_space,
    div,
    scalar,
    vec_is_zero,
)

DEFAULT_VIOLATION_LIMIT = 16


class PreconditionError(ValueError):
    """An operation was called on input violating its stated precondition."""

    def __init__(self, message: str, report: "AxiomReport | None" = None):
        super().__init__(message)
        self.report = report


class NoUnitError(PreconditionError):
    """The multiplication has no two-sided unit."""


@dataclass(frozen=True)
class Violation:
    """One failed axiom instance: name, basis-index tuple, exact defect."""

    axiom: str
    where: tuple
    defect: tuple

    def __str__(self):
        defect = ", ".join(str(x) for x in self.defect)
        return f"{self.axiom} at {self.where}: defect ({defect})"


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of an axiom sweep: ok iff no violations were found."""

    ok: bool
    violations: tuple
    truncated: bool = False

    def axioms_failed(self) -> tuple:
        seen = []
        for v in self.violations:
            if v.axiom not in seen:
                seen.append(v.axiom)
        return tuple(seen)

    def __bool__(self):
        return self.ok


class Collector:
    """Accumulates violations up to a cap, in deterministic sweep order."""

    def __init__(self, limit: int = DEFAULT_VIOLATION_LIMIT):
        self.limit = limit
        self.violations = []
        self.ok = True
        self.truncated = False

    def check(self, axiom: str, where: tuple, defect) -> None:
        if vec_is_zero(defect):
            return
        self.ok = False
        if len(self.violations) < self.limit:
            self.violations.append(Violation(axiom, tuple(where), tuple(defect)))
        else:
            self.truncated = True

    def merge(self, report: AxiomReport, prefix: str = "") -> None:
        if report.ok:
            return
        self.ok = False
        for v in report.violations:
            if len(self.violations) < self.limit:
                name = f"{prefix}{v.axiom}" if prefix else v.axiom
                self.violations.append(Violation(name, v.where, v.defect))
            else:
                self.truncated = True
        self.truncated = self.truncated or report.truncated

    def report(self) -> AxiomReport:
        return AxiomReport(self.ok, tuple(self.violations), self.truncated)


def combine_reports(*reports, limit: int = DEFAULT_VIOLATION_LIMIT) -> AxiomReport:
    coll = Collector(limit)
    for r in reports:
        coll.merge(r)
    return coll.report()


# ---------------------------------------------------------------------------
# bilinear operations


class _Stored:
    """Base of the structures kept in one sparse stored form.  Each is a
    frozen dataclass whose fields are its dense constructor's arguments:
    ``__init__`` converts them to the stored attributes named in
    ``_stored``, by which instances compare, and each field not stored is
    a cached property, derived on first read."""

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


@dataclass(frozen=True, init=False, eq=False)
class BilinearOp(_Stored):
    """A bilinear map on a based space, stored sparse: ``_sparse[i][j]``
    lists the nonzero (k, value) structure constants of e_i * e_j by
    increasing k.  ``BilinearOp(space, table)`` takes the dense table, whose
    ``table[i][j]`` is the coefficient vector of e_i * e_j."""

    space: Space
    table: tuple = cached_property(
        lambda self: tuple(tuple(_dense(p, self.space.dim) for p in row) for row in self._sparse)
    )
    _stored = ("space", "_sparse")

    def __init__(self, space: Space, table):
        # _sparse[i] transposes table[i], whose rows are the products e_i * e_j
        n, error = space.dim, "structure constants do not match the space dimension"
        if len(table) != n:
            raise ValueError(error)
        sparse = tuple(_transpose(_columns(rows, n, n, error), n) for rows in table)
        self.__dict__.update(space=space, _sparse=sparse)

    @staticmethod
    def _from_cells(space: Space, cells) -> BilinearOp:
        """Build from {(i, j): {k: exact value}} cells."""
        n = space.dim
        sparse = [[()] * n for _ in range(n)]
        for (i, j), cell in cells.items():
            sparse[i][j] = tuple(sorted((k, x) for k, x in cell.items() if x))
        return _make(BilinearOp, space=space, _sparse=tuple(map(tuple, sparse)))

    @staticmethod
    def zero(space: Space) -> BilinearOp:
        return BilinearOp._from_cells(space, {})

    @staticmethod
    def from_entries(space: Space, entries) -> BilinearOp:
        """Build from sparse (i, j, k, value) structure-constant entries;
        repeated positions add up."""
        n = space.dim
        cells = {}
        for i, j, k, value in entries:
            if not (0 <= i < n and 0 <= j < n and 0 <= k < n):
                raise IndexError(f"structure constant index out of range: {(i, j, k)}")
            cell = cells.setdefault((i, j), {})
            cell[k] = scalar(cell.get(k, ZERO) + scalar(value))
        return BilinearOp._from_cells(space, cells)

    def entry(self, i: int, j: int, k: int):
        return self.table[i][j][k]

    def product(self, i: int, j: int) -> Vector:
        """e_i * e_j as a coefficient vector."""
        return self.table[i][j]

    def apply_basis_left(self, i: int, v: Vector) -> Vector:
        """e_i * v for a general coefficient vector v."""
        acc = [ZERO] * self.space.dim
        row = self._sparse[i]
        for j, c in enumerate(v):
            if c:
                for k, x in row[j]:
                    acc[k] += c * x
        return tuple(acc)

    def apply_basis_right(self, u: Vector, j: int) -> Vector:
        """u * e_j for a general coefficient vector u."""
        acc = [ZERO] * self.space.dim
        sparse = self._sparse
        for i, c in enumerate(u):
            if c:
                for k, x in sparse[i][j]:
                    acc[k] += c * x
        return tuple(acc)

    def apply(self, u: Vector, v: Vector) -> Vector:
        """u * v for general coefficient vectors, skipping zero coordinates."""
        acc = [ZERO] * self.space.dim
        sparse = self._sparse
        for i, cu in enumerate(u):
            if not cu:
                continue
            row = sparse[i]
            for j, cv in enumerate(v):
                if cv:
                    c = cu * cv
                    for k, x in row[j]:
                        acc[k] += c * x
        return tuple(acc)

    def left_matrix(self, i: int) -> Matrix:
        """Matrix of left multiplication by e_i (columns are e_i * e_j)."""
        return self.left_matrix_of(basis_vector(self.space.dim, i))

    def left_matrix_of(self, u: Vector) -> Matrix:
        """Matrix of left multiplication by a general element u."""
        n = self.space.dim
        acc = [[ZERO] * n for _ in range(n)]
        for i, c in enumerate(u):
            if c:
                for j, prod in enumerate(self._sparse[i]):
                    for k, x in prod:
                        acc[k][j] += c * x
        return tuple(tuple(r) for r in acc)

    def is_zero(self) -> bool:
        return not any(any(row) for row in self._sparse)

    def nonzero_entries(self):
        """Sorted (i, j, k, value) quadruples of nonzero structure constants."""
        return [
            (i, j, k, x)
            for i, row in enumerate(self._sparse)
            for j, prod in enumerate(row)
            for k, x in prod
        ]

    @cached_property
    def _unit(self):
        """The two-sided unit u, or None, by exact elimination over the
        nonzero equations  u * e_j = e_j  and  e_j * u = e_j  (one per
        side and output coordinate k); solved once per operation."""
        n = self.space.dim
        # the equations with right-hand side 1 come first, so that one
        # reading 0 = 1 ends the search at once
        eqs = {(side, j, j): {} for j in range(n) for side in ("left", "right")}
        for i, row in enumerate(self._sparse):
            for j, prod in enumerate(row):
                for k, x in prod:
                    eqs.setdefault(("left", j, k), {})[i] = x  # u_i in (u * e_j)_k
                    eqs.setdefault(("right", i, k), {})[j] = x  # u_j in (e_i * u)_k
        # Gauss-Jordan with the right-hand side as column n: each pivot row
        # has coefficient 1 at its pivot column and no other pivot column
        pivots = {}
        for (_side, j, k), coeffs in eqs.items():
            row = {**coeffs, n: ONE} if j == k else dict(coeffs)
            for col in [c for c in row if c in pivots]:
                _axpy(row, -row[col], pivots[col])
            col = min(row, default=n)
            if col == n:
                if row:
                    return None  # the equation reads 0 = 1
                continue
            p = row[col]
            row = {c: div(v, p) for c, v in row.items()}
            for prow in pivots.values():
                if col in prow:
                    _axpy(prow, -prow[col], row)
            pivots[col] = row
        # a solution is a two-sided unit, hence unique, so every column is a
        # pivot; free variables would be read as zero
        unit = [ZERO] * n
        for col, row in pivots.items():
            unit[col] = row.get(n, ZERO)
        return tuple(map(scalar, unit))


def _axpy(row: dict, f, other: dict) -> None:
    """row += f * other on sparse {column: value} rows, dropping zeros."""
    for c, v in other.items():
        x = row.get(c, ZERO) + f * v
        if x:
            row[c] = x
        else:
            del row[c]


@dataclass(frozen=True)
class RelPoissonAlgebra:
    """Candidate quadruple (space, dot, bracket, derivation).

    The container itself is unverified; :func:`check_rel_poisson` decides
    whether the relative Poisson axioms hold.
    """

    space: Space
    dot: BilinearOp
    bracket: BilinearOp
    derivation: LinearMap

    def __post_init__(self):
        if not (
            self.dot.space == self.space
            and self.bracket.space == self.space
            and self.derivation.domain == self.space
            and self.derivation.codomain == self.space
        ):
            raise ValueError("algebra components live on different spaces")

    @property
    def dim(self) -> int:
        return self.space.dim


def block_sum(
    left: RelPoissonAlgebra,
    right: RelPoissonAlgebra,
    mu1,
    rho1,
    mu2,
    rho2,
) -> RelPoissonAlgebra:
    """The quadruple on A1 + A2 (A1 basis first) built from two algebras
    acting on each other:

        (x+a).(y+b) = x.y + mu2(a)y + mu2(b)x + a.b + mu1(x)b + mu1(y)a
        [x+a, y+b]  = [x,y] + rho2(a)y - rho2(b)x + [a,b] + rho1(x)b - rho1(y)a
        D(x+a)      = D1(x) + D2(a)

    The actions of A1 on A2 (mu1 through the dot, rho1 through the bracket)
    hold one A2-matrix per A1 basis element; those of A2 on A1 (mu2, rho2)
    one A1-matrix per A2 basis element; a family of another length or size
    raises ValueError.  Unit extensions, semi-direct products and
    matched-pair doubles are all of this form.  Built structurally, with no
    validity assumption on the actions.
    """
    n1, n2 = left.dim, right.dim
    actions = _families(n1, n2, mu1, rho1) + _families(n2, n1, mu2, rho2)
    return _block_sum(left, right, *actions)


def _families(count: int, dim: int, *families):
    """Action families given dense, one dim-by-dim matrix per basis element
    of a count-dimensional algebra, as one sparse column table each; every
    family's length is checked before any matrix is read."""
    if any(len(mats) != count for mats in families):
        raise ValueError("need one action matrix per algebra basis element")
    error = "action matrix does not match the module dimension"
    return [tuple(_columns(m, dim, dim, error) for m in mats) for mats in families]


def _matrices(family):
    """The dense matrices of a family of square column tables."""
    return tuple(_dense(_flat(cols), len(cols), len(cols)) for cols in family)


def _block_sum(left, right, mu1, rho1, mu2, rho2) -> RelPoissonAlgebra:
    """:func:`block_sum` on actions given as sparse column tables: mu1[i][b]
    lists the nonzero (row, value) entries of mu1(e_i) e_b."""
    n1, n2 = left.dim, right.dim
    total = direct_sum_space(left.space, right.space)
    dot, br = {}, {}
    for off, alg in ((0, left), (n1, right)):
        for cells, op in ((dot, alg.dot), (br, alg.bracket)):
            for i, row in enumerate(op._sparse):
                for j, prod in enumerate(row):
                    if prod:
                        cells[off + i, off + j] = {off + k: x for k, x in prod}
    # mu1[i] applied to b is column b of mu1[i], and mu2[b] applied to i is
    # column i of mu2[b]
    for i in range(n1):
        for b in range(n2):
            mu = dict(mu2[b][i])
            mu.update((n1 + r, v) for r, v in mu1[i][b])
            dot[i, n1 + b] = dot[n1 + b, i] = mu
            rho = dict(rho2[b][i])
            rho.update((n1 + r, -v) for r, v in rho1[i][b])
            br[n1 + b, i] = rho
            br[i, n1 + b] = {k: -v for k, v in rho.items()}
    derivation = block_diagonal(left.derivation.entries, right.derivation.entries)
    return RelPoissonAlgebra(
        total,
        BilinearOp._from_cells(total, dot),
        BilinearOp._from_cells(total, br),
        LinearMap(total, total, derivation),
    )


# ---------------------------------------------------------------------------
# checkers


# Tensor-valued quantities are swept as sparse (index, value) hits: an entry
# (i1, ..., ik) of a k-tensor over dim n sits at the flat index
# ((i1*n + i2)*n + ...)*n + ik, so a vector is k = 1 and an m-by-m matrix is
# k = 2 over m.  The slot of i_s has stride n**(k - s).  A linear map enters
# as its sparse column table: cols[j] lists the (index, value) hits of its
# image of e_j.  This is also how structures are stored: a product's
# _sparse[i] is the column table of left multiplication by e_i, an action
# family holds one column table per algebra basis element, and a
# comultiplication holds the flat hits of each image.


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


def _flat(cols):
    """The flat hits of the matrix with the given column table."""
    width = len(cols)
    return [(r * width + c, x) for c, col in enumerate(cols) for r, x in col]


def _transpose(cols, height: int, scale=1):
    """The column table of scale times the transpose of a matrix with
    ``height`` rows, given by its column table."""
    out = [[] for _ in range(height)]
    for c, col in enumerate(cols):
        for r, x in col:
            out[r].append((c, scale * x))
    return tuple(map(tuple, out))


def _apply(cols, coeffs, scale=1):
    """Hits of scale * sum_t c_t cols[t], for sparse (t, c_t) coefficients."""
    return [(f, scale * c * x) for t, c in coeffs for f, x in cols[t]]


def _on_slot(cols, hits, n: int, stride: int, scale=1, width=None):
    """Hits of scale * M applied to the slot of the given stride, for M a
    column table into a space of dim ``width`` (n by default); with width
    n*n the slot becomes two, as in (Delta (x) id) Delta."""
    width = n if width is None else width
    block = stride * n
    return [
        ((f // block * width + p) * stride + f % stride, scale * x * v)
        for f, x in hits
        for p, v in cols[f // stride % n]
    ]


def _swap(hits, n: int, stride: int, scale=1):
    """Hits of scale * t with its slots of strides stride*n and stride
    exchanged, e.g. tau(t) for a 2-tensor at stride 1."""
    step = stride * (n - 1)
    return [(f + (f // stride % n - f // (stride * n) % n) * step, scale * x) for f, x in hits]


def _check_hits(coll: Collector, axiom: str, where, hits, n: int) -> None:
    """Fold sparse (index, value) contributions and report a nonzero sum;
    only the touched coordinates are tested, so the cost follows the hits,
    not the length n of the defect vector."""
    if not hits:
        return
    acc = {}
    for k, v in hits:
        acc[k] = acc.get(k, ZERO) + v
    if any(acc.values()):
        defect = [ZERO] * n
        for k, v in acc.items():
            defect[k] = v
        coll.check(axiom, where, defect)


def _candidates(*chains):
    """The sorted index triples at which some term of a sweep can be nonzero.

    A term contracts a sparse table ``inner`` (``inner[p][q]`` lists its
    nonzero (t, value) pairs) with a table ``outer`` at ``outer[t][r]``, so
    it vanishes unless both are nonzero.  Each chain (inner, outer, order)
    yields those (p, q, r), placed in the sweep's triple by ``order``: the
    triple's m-th index is (p, q, r)[order[m]].  Only the truth of the outer
    cells is read.  Sorting keeps the order of a sweep over all triples.
    """
    found = set()
    for inner, outer, order in chains:
        after = [[r for r, cell in enumerate(row) if cell] for row in outer]
        place = itemgetter(*order)
        for p, row in enumerate(inner):
            for q, cell in enumerate(row):
                for t, _ in cell:
                    found.update(place((p, q, r)) for r in after[t])
    return sorted(found)


def _flip(table, width: int):
    """A table indexed [q][p] from one indexed [p][q] with ``width`` columns."""
    return tuple(tuple(row[q] for row in table) for q in range(width))


def _nonzero_pairs(sp):
    return [(i, j) for i, row in enumerate(sp) for j, prod in enumerate(row) if prod]


def check_comm_assoc(m: BilinearOp, limit: int = DEFAULT_VIOLATION_LIMIT) -> AxiomReport:
    """Commutativity x*y = y*x and associativity (x*y)*z = x*(y*z)."""
    n = m.space.dim
    sp = m._sparse
    coll = Collector(limit)
    pairs = {pair for i, j in _nonzero_pairs(sp) for pair in ((i, j), (j, i)) if i != j}
    for i, j in sorted(pairs):
        hits = list(sp[i][j]) + [(s, -x) for s, x in sp[j][i]]
        _check_hits(coll, "commutative", (i, j), hits, n)
    # (x*y)*z needs t in x*y with t*z nonzero; x*(y*z) needs t in y*z with x*t
    for i, j, k in _candidates((sp, sp, (0, 1, 2)), (sp, _flip(sp, n), (2, 0, 1))):
        hits = [(s, c * x) for t, c in sp[i][j] for s, x in sp[t][k]]
        hits += [(s, -c * x) for t, c in sp[j][k] for s, x in sp[i][t]]
        _check_hits(coll, "associative", (i, j, k), hits, n)
    return coll.report()


def check_lie(m: BilinearOp, limit: int = DEFAULT_VIOLATION_LIMIT) -> AxiomReport:
    """Antisymmetry [x,x] = 0 and the Jacobi identity on basis triples."""
    n = m.space.dim
    sp = m._sparse
    coll = Collector(limit)
    for i, j in sorted({(min(pair), max(pair)) for pair in _nonzero_pairs(sp)}):
        hits = list(sp[i][j]) + (list(sp[j][i]) if i != j else [])
        _check_hits(coll, "antisymmetric", (i, j), hits, n)
    # [x,[y,z]], [y,[z,x]] and [z,[x,y]]: an inner bracket holding t and [-, t]
    flipped = _flip(sp, n)
    for i, j, k in _candidates(
        (sp, flipped, (2, 0, 1)), (sp, flipped, (1, 2, 0)), (sp, flipped, (0, 1, 2))
    ):
        hits = [(s, c * x) for t, c in sp[j][k] for s, x in sp[i][t]]
        hits += [(s, c * x) for t, c in sp[k][i] for s, x in sp[j][t]]
        hits += [(s, c * x) for t, c in sp[i][j] for s, x in sp[k][t]]
        _check_hits(coll, "jacobi", (i, j, k), hits, n)
    return coll.report()


def check_derivation(
    m: BilinearOp, der: LinearMap, limit: int = DEFAULT_VIOLATION_LIMIT
) -> AxiomReport:
    """Leibniz rule  D(x*y) = D(x)*y + x*D(y)  on basis pairs."""
    if der.domain != m.space or der.codomain != m.space:
        raise ValueError("derivation is not an endomorphism of the algebra's space")
    n = m.space.dim
    sp, cols = m._sparse, der._cols
    coll = Collector(limit)
    for i in range(n):
        for j in range(n):
            hits = [(s, c * x) for t, c in sp[i][j] for s, x in cols[t]]
            hits += [(s, -c * x) for t, c in cols[i] for s, x in sp[t][j]]
            hits += [(s, -c * x) for t, c in cols[j] for s, x in sp[i][t]]
            _check_hits(coll, "derivation", (i, j), hits, n)
    return coll.report()


def _relative_leibniz_sweep(
    axiom: str,
    dot: BilinearOp,
    bracket: BilinearOp,
    weight_cols,
    coll: Collector,
) -> None:
    """[z, x.y] - [z,x].y - x.[z,y] - x.y.w(z) = 0 on basis triples, where
    w(z) is given as sparse column (index, value) lists."""
    n = dot.space.dim
    dsp, bsp = dot._sparse, bracket._sparse
    # weighted[t][z]: t.w(z) is nonzero somewhere
    weighted = [[any(dt[m] for m, _ in wz) for wz in weight_cols] for dt in dsp]
    triples = _candidates(
        (dsp, _flip(bsp, n), (0, 1, 2)),
        (bsp, dsp, (1, 2, 0)),
        (bsp, _flip(dsp, n), (2, 1, 0)),
        (dsp, weighted, (0, 1, 2)),
    )
    for x, y, z in triples:
        xy = dsp[x][y]
        hits = [(s, c * x_) for t, c in xy for s, x_ in bsp[z][t]]
        hits += [(s, -c * x_) for t, c in bsp[z][x] for s, x_ in dsp[t][y]]
        hits += [(s, -c * x_) for t, c in bsp[z][y] for s, x_ in dsp[x][t]]
        for t, c in xy:
            for m_, w in weight_cols[z]:
                hits += [(s, -c * w * x_) for s, x_ in dsp[t][m_]]
        _check_hits(coll, axiom, (x, y, z), hits, n)


def check_relative_leibniz(
    dot: BilinearOp,
    bracket: BilinearOp,
    der: LinearMap,
    limit: int = DEFAULT_VIOLATION_LIMIT,
) -> AxiomReport:
    """[z, x.y] = [z,x].y + x.[z,y] + x.y.D(z) on basis triples (x, y, z)."""
    if dot.space != bracket.space:
        raise ValueError("dot and bracket live on different spaces")
    if der.domain != dot.space or der.codomain != dot.space:
        raise ValueError("derivation is not an endomorphism of the algebra's space")
    coll = Collector(limit)
    _relative_leibniz_sweep("relative-leibniz", dot, bracket, der._cols, coll)
    return coll.report()


def check_rel_poisson(
    alg: RelPoissonAlgebra, limit: int = DEFAULT_VIOLATION_LIMIT
) -> AxiomReport:
    """Full relative Poisson axiom sweep for a candidate quadruple."""
    coll = Collector(limit)
    coll.merge(check_comm_assoc(alg.dot, limit), "dot:")
    coll.merge(check_lie(alg.bracket, limit), "bracket:")
    coll.merge(check_derivation(alg.dot, alg.derivation, limit), "dot:")
    coll.merge(check_derivation(alg.bracket, alg.derivation, limit), "bracket:")
    coll.merge(check_relative_leibniz(alg.dot, alg.bracket, alg.derivation, limit))
    return coll.report()


def _derived_product(op: BilinearOp, der: LinearMap) -> BilinearOp:
    """The product x.D(y) - D(x).y, built from its sparse entries."""
    n = op.space.dim
    sp, cols = op._sparse, der._cols
    flipped = _flip(sp, n)
    entries = [
        (i, j, k, v)
        for i in range(n)
        for j in range(n)
        for k, v in _apply(sp[i], cols[j]) + _apply(flipped[j], cols[i], -1)
    ]
    return BilinearOp.from_entries(op.space, entries)


def bracket_from_derivation(dot: BilinearOp, der: LinearMap) -> BilinearOp:
    """The bracket [x,y] = x.D(y) - D(x).y of a commutative associative
    algebra with derivation; the resulting quadruple is relative Poisson."""
    pre = combine_reports(check_comm_assoc(dot), check_derivation(dot, der))
    if not pre.ok:
        raise PreconditionError(
            f"input is not a commutative associative algebra with derivation: "
            f"{', '.join(pre.axioms_failed())}",
            pre,
        )
    return _derived_product(dot, der)


def find_unit(dot: BilinearOp):
    """The unique two-sided unit of a multiplication, or None.

    Solves u * e_j = e_j and e_j * u = e_j for all j; a two-sided unit is
    automatically unique, so any consistent solution is the answer.
    """
    return dot._unit


def check_jacobi_algebra(
    dot: BilinearOp, bracket: BilinearOp, limit: int = DEFAULT_VIOLATION_LIMIT
) -> AxiomReport:
    """Jacobi algebra axioms: unital comm. assoc. + Lie + the unital
    Leibniz rule [z, x.y] = [z,x].y + x.[z,y] + x.y.[1,z].

    Raises :class:`NoUnitError` when the multiplication has no unit.
    """
    if dot.space != bracket.space:
        raise ValueError("dot and bracket live on different spaces")
    unit = find_unit(dot)
    if unit is None:
        raise NoUnitError("multiplication has no two-sided unit")
    coll = Collector(limit)
    coll.merge(check_comm_assoc(dot, limit), "dot:")
    coll.merge(check_lie(bracket, limit), "bracket:")
    ad_unit = ad_map(bracket, unit)._cols
    _relative_leibniz_sweep("unital-leibniz", dot, bracket, ad_unit, coll)
    return coll.report()


def ad_map(bracket: BilinearOp, u: Vector) -> LinearMap:
    """The adjoint action [u, -] of an element as a linear map."""
    return LinearMap(bracket.space, bracket.space, bracket.left_matrix_of(u))


__all__ = [
    "DEFAULT_VIOLATION_LIMIT",
    "PreconditionError",
    "NoUnitError",
    "Violation",
    "AxiomReport",
    "Collector",
    "combine_reports",
    "BilinearOp",
    "RelPoissonAlgebra",
    "block_sum",
    "check_comm_assoc",
    "check_lie",
    "check_derivation",
    "check_relative_leibniz",
    "check_rel_poisson",
    "bracket_from_derivation",
    "find_unit",
    "check_jacobi_algebra",
    "ad_map",
]
