"""Algebra structures as structure constants, and decidable axiom checkers.

A bilinear operation on a based space has structure constants ``c[i][j][k]``
with  e_i * e_j = sum_k c[i][j][k] e_k, stored sparse: only the nonzero
constants are kept, and the dense rank-3 array is a view derived on first
read.  Multilinearity makes verification on basis tuples complete, so every
axiom checker reports exact defect vectors (lhs minus rhs) for the basis
tuples that fail.  Each axiom family is data, a signed sum of index
contractions of stored tables, and one sparse sweep runs them all.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from functools import cached_property

from .linalg import (
    ONE,
    ZERO,
    LinearMap,
    Matrix,
    Space,
    Vector,
    _act,
    _blocks,
    _entries,
    _from_dense,
    _gauss_jordan,
    _index,
    _key,
    _make,
    _picker,
    _read,
    _Sparse,
    _summed,
    _Table,
    _table,
    _view,
    basis_vector,
    direct_sum_space,
    scalar,
    vec_is_zero,
)

DEFAULT_VIOLATION_LIMIT = 16


class PreconditionError(ValueError):
    """An operation was called on input violating its stated precondition."""

    def __init__(self, message: str, report: "AxiomReport | None" = None):
        super().__init__(message)
        self.report = report


def _require(report: "AxiomReport", what: str) -> None:
    """Raise PreconditionError("what: the failed axioms"), carrying the
    report, unless the report is ok."""
    if not report.ok:
        raise PreconditionError(f"{what}: {', '.join(report.axioms_failed())}", report)


def _require_endomorphism(space: Space, m: LinearMap, what: str) -> None:
    if m.domain != space or m.codomain != space:
        raise ValueError(f"{what} is not an endomorphism of the algebra's space")


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
        self.truncated = False

    ok = property(lambda self: not (self.violations or self.truncated))

    def check(self, axiom: str, where: tuple, defect) -> None:
        if vec_is_zero(defect):
            return
        if len(self.violations) < self.limit:
            self.violations.append(Violation(axiom, tuple(where), tuple(defect)))
        else:
            self.truncated = True

    def merge(self, report: AxiomReport, prefix: str = "") -> None:
        if report.ok:
            return
        room = max(self.limit - len(self.violations), 0)
        taken = report.violations[:room]
        if prefix:
            taken = [Violation(prefix + v.axiom, v.where, v.defect) for v in taken]
        self.violations += taken
        self.truncated = self.truncated or report.truncated or len(report.violations) > room

    def report(self) -> AxiomReport:
        return AxiomReport(self.ok, tuple(self.violations), self.truncated)


def combine_reports(*reports, limit: int = DEFAULT_VIOLATION_LIMIT) -> AxiomReport:
    coll = Collector(limit)
    for r in reports:
        coll.merge(r)
    return coll.report()


# ---------------------------------------------------------------------------
# bilinear operations


class _Rank3(_Sparse):
    """Base of the rank-3 tables, stored keyed in the index order ``_axes``
    names: for axes "abc", an entry ((a, b, c), value).  The dense
    constructor takes the nested table of the same order, its dense view
    is derived on first read, and entries are (i, j, k, value) whatever
    the order."""

    _stored = ("space", "_sparse")
    _axes = "ijk"

    def __init__(self, space: Space, dense):
        n, error = space.dim, "structure constants do not match the space dimension"
        self.__dict__.update(space=space, _sparse=_from_dense(dense, (n, n, n), error))

    @classmethod
    def zero(cls, space: Space):
        return cls.from_entries(space, ())

    @classmethod
    def from_entries(cls, space: Space, entries):
        """Build from sparse (i, j, k, value) entries; repeated positions add up."""
        n, checked = space.dim, []
        for i, j, k, value in entries:
            if not (0 <= i < n and 0 <= j < n and 0 <= k < n):
                raise IndexError(f"structure constant index out of range: {(i, j, k)}")
            checked.append((i, j, k, scalar(value)))
        return _make(cls, space=space, _sparse=_table(checked, cls._axes, (n, n, n)))

    def nonzero_entries(self):
        """(i, j, k, value) quadruples of the nonzero entries, in stored order."""
        return _entries(self._sparse, self._axes)

    def _point(self, i: int, j: int):
        """The ((k,), value) pairs of the entries at the checked basis indices (i, j)."""
        n, keys = self.space.dim, tuple(map(self._axes.index, "ij"))
        return _read(self._sparse, keys).get((_index(i, n), _index(j, n)), ())


@dataclass(frozen=True, init=False, eq=False, repr=False)
class BilinearOp(_Rank3):
    """A bilinear map on a based space, stored sparse: an entry ((i, j, k),
    value) is the nonzero e_k-coefficient of e_i * e_j.
    ``BilinearOp(space, table)`` takes the dense table, whose
    ``table[i][j]`` is the coefficient vector of e_i * e_j."""

    space: Space
    table: tuple = cached_property(lambda self: _view(self._sparse))

    def entry(self, i: int, j: int, k: int):
        return dict(self._point(i, j)).get((_index(k, self.space.dim),), ZERO)

    def product(self, i: int, j: int) -> Vector:
        """e_i * e_j as a coefficient vector."""
        return _view(_Table(tuple(self._point(i, j)), (self.space.dim,)))

    def apply_basis_left(self, i: int, v: Vector) -> Vector:
        """e_i * v for a general coefficient vector v."""
        return self.apply(basis_vector(self.space.dim, i), v)

    def apply_basis_right(self, u: Vector, j: int) -> Vector:
        """u * e_j for a general coefficient vector u."""
        return self.apply(u, basis_vector(self.space.dim, j))

    def apply(self, u: Vector, v: Vector) -> Vector:
        """u * v for general coefficient vectors."""
        return ad_map(self, u)(v)

    def left_matrix(self, i: int) -> Matrix:
        """Matrix of left multiplication by e_i (columns are e_i * e_j)."""
        return self.left_matrix_of(basis_vector(self.space.dim, i))

    def left_matrix_of(self, u: Vector) -> Matrix:
        """Matrix of left multiplication by a general element u."""
        return ad_map(self, u).entries

    @cached_property
    def _unit(self):
        """The two-sided unit u, or None, by exact elimination over the
        nonzero equations  u * e_j = e_j  and  e_j * u = e_j  (one per
        side and output coordinate k); solved once per operation."""
        n = self.space.dim
        # every equation with right-hand side 1 is kept, even with no unknown
        eqs = {(side, j, j): {} for j in range(n) for side in ("left", "right")}
        for i, j, k, x in self.nonzero_entries():
            eqs.setdefault(("left", j, k), {})[i] = x  # u_i in (u * e_j)_k
            eqs.setdefault(("right", i, k), {})[j] = x  # u_j in (e_i * u)_k
        # the right-hand side is column n, so a pivot there reads 0 = 1, and
        # elimination stops at the first such equation
        rows = ({**coeffs, n: ONE} if j == k else coeffs for (_, j, k), coeffs in eqs.items())
        steps = _gauss_jordan(rows)
        pivots = next(steps)
        if any(lead and lead[0] == n for lead in steps):
            return None
        # a solution is a two-sided unit, hence unique, so every column is a
        # pivot; free variables would be read as zero
        return tuple(scalar(pivots[c].get(n, ZERO)) if c in pivots else ZERO for c in range(n))


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
    of a count-dimensional algebra, as one table each, keyed (x, j, r) for
    row r of column j of the matrix of e_x; every family's length is
    checked before any matrix is read."""
    if any(len(mats) != count for mats in families):
        raise ValueError("need one action matrix per algebra basis element")
    error = "action matrix does not match the module dimension"
    return [_from_dense(mats, (count, dim, dim), error, (0, 2, 1)) for mats in families]


def _matrices(family):
    """The dense matrices of an action family."""
    return _view(family, (0, 2, 1))


def _block_sum(left, right, mu1, rho1, mu2, rho2) -> RelPoissonAlgebra:
    """:func:`block_sum` on action families given as tables, read by their
    entries: (i, b, r, value) is row r of mu1(e_i) e_b."""
    n1, n2 = left.dim, right.dim
    total = direct_sum_space(left.space, right.space)
    dot, br = [], []
    for off, alg in ((0, left), (n1, right)):
        for out, op in ((dot, alg.dot), (br, alg.bracket)):
            out += [(off + i, off + j, off + k, x) for i, j, k, x in op.nonzero_entries()]
    # for x = e_i in A1 and a = e_b in A2, x.a = a.x = mu1(x)a + mu2(a)x and
    # [x,a] = -[a,x] = rho1(x)a - rho2(a)x; families are read in stored order
    for out, one, two, sign in ((dot, mu1, mu2, 1), (br, rho1, rho2, -1)):
        for i, b, r, x in _entries(one, "ijk"):
            out += [(i, n1 + b, n1 + r, x), (n1 + b, i, n1 + r, sign * x)]
        for b, i, k, x in _entries(two, "ijk"):
            out += [(i, n1 + b, k, sign * x), (n1 + b, i, k, x)]
    size = (total.dim,) * 3
    blocks = ((0, 0), left.derivation._sparse), ((n1, n1), right.derivation._sparse)
    derivation = _blocks(size[1:], *blocks)
    return RelPoissonAlgebra(
        total,
        _make(BilinearOp, space=total, _sparse=_table(dot, "ijk", size)),
        _make(BilinearOp, space=total, _sparse=_table(br, "ijk", size)),
        _make(LinearMap, domain=total, codomain=total, _sparse=derivation),
    )


# ---------------------------------------------------------------------------
# checkers


# An axiom family is data: (axiom, where, defect, terms).  ``where`` labels
# the basis tuple a violation is reported at, ``defect`` the indices of its
# defect vector, flattened row-major, and ``terms`` is a signed sum of
# products of stored tables.  Every table is read by its entries, and a
# factor "NAME:labels" labels the index positions of its entries in
# order.  A structure is read as its stored _sparse table, in the order
# its _axes names: a BilinearOp as "ijk" (e_k in e_i * e_j), a
# Comultiplication as "kij" (e_i (x) e_j in the image of e_k), a LinearMap
# as "ji" (row i of column j), a Tensor2 as "ij" and a BilinearForm as
# "ji" (B(e_i, e_j) in column j).  Tables are read as given: an action
# family as "xjr" (row r of column j of the matrix of e_x) and a vector's
# nonzero coordinates as "k".  A label in neither ``where`` nor
# ``defect`` is summed over, so associativity reads
#
#     ("associative", "ijk", "s", "M:ijt,M:tks - M:jkt,M:its")
#
# Only nonzero products are enumerated, so the terms themselves are the
# tuples at which a family can fail.  Each term's reads, sign and last join
# are planned once per process, each table named by its slot (its position
# among the tables the families name), so every caller shares one plan; a
# term stops at its first empty join, and its last join adds straight into
# the family's sums.
#
# A checker is data too: a _Checker of sections in report order, each the
# families of one sweep (reported in sorted ``where`` order, in their own
# order inside one tuple), a hand loop (fn, table) reporting through
# fn(coll, prefix, table), or a _Use of another checker.  Flattening it binds
# each section's slots to the caller's table names.  A checker makes one
# contraction over all its families, then reports its sections in turn into
# one collector until it is full and truncated.


class _Checker:
    """A checker's sections, in report order."""

    def __init__(self, *sections):
        self.sections = sections


class _Use:
    """A checker used inside another: its axioms are named with ``prefix``
    and its table NAME is the caller's ``names[NAME]``, if given, else NAME."""

    def __init__(self, prefix: str, checker, **names):
        self.prefix, self.checker, self.names = prefix, checker, names


def _table_of(table) -> _Table:
    """The table a sweep reads: a table given as such (an action family,
    say, or a vector's nonzero coordinates), or a structure's stored
    ``_sparse`` table."""
    found = table if isinstance(table, _Table) else getattr(table, "_sparse", None)
    if not isinstance(found, _Table):
        raise TypeError(f"not a sweep table: {type(table).__name__}")
    return found


def _plan(term: str, where: str, defect: str, arities: dict, axes: set):
    """The join plan of one term: its first factor's slot, one (slot, keys,
    key reader) step per later factor but the last, the last (None for a
    one-factor term), and the positions of the reported labels in a path's
    indices; records each table's number of labels in ``arities``, in slot
    order, and each (label, slot, axis) in ``axes``.

    Factors are joined greedily, the one with the most bound labels next.
    A step reads its table through the index re-keyed on the positions
    ``keys`` of its bound labels, at the key its reader takes from a path."""
    factors = [tuple(f.split(":")) for f in term.split(",")]
    bound, steps = [], []
    while factors:
        ranked = [(len(set(bound) & set(labels)), -pos) for pos, (_, labels) in enumerate(factors)]
        name, labels = factors.pop(ranked.index(max(ranked)))
        if len(set(labels)) != len(labels) or arities.setdefault(name, len(labels)) != len(labels):
            raise ValueError(f"factor {name}:{labels} repeats a label or changes arity")
        slot = list(arities).index(name)
        axes.update((l, slot, p) for p, l in enumerate(labels))
        keys = tuple(p for p, l in enumerate(labels) if l in bound)
        steps.append((slot, keys, _key(tuple(bound.index(labels[p]) for p in keys))))
        bound += [l for l in labels if l not in bound]
    if not set(where + defect) <= set(bound):
        raise ValueError(f"term {term} leaves a reported label free")
    (first, _, _), *steps = steps
    last = steps.pop() if steps else None
    return first, tuple(steps), last, _picker(tuple(bound.index(l) for l in where + defect))


@functools.cache
def _compile(families: tuple):
    """Per family, the join plans of its terms, with their signs, and the
    (slot, axis) pairs each defect label labels in any term; and the
    tables the families name, in slot order.  Planned once per process."""
    groups, arities = [], {}
    for _axiom, where, defect, terms in families:
        found, axes = re.findall(r"(-?)\s*([\w:,]+)", terms.replace("+", "")), set()
        plans = tuple((sign == "-", *_plan(term, where, defect, arities, axes)) for sign, term in found)
        groups.append((plans, tuple(tuple((s, a) for l, s, a in axes if l == d) for d in defect)))
    return tuple(groups), tuple(arities)


@functools.cache
def _sections(checker) -> tuple:
    """A checker, or one sweep's families, flattened once: its sections in
    report order, (families, prefix, _compile's plans, binder) or (hand loop,
    prefix, (), binder); and the caller's table names.  Given those names, or
    a call's tables listed in their order, a binder picks a section's by slot."""
    sections, names = [], {}

    def walk(checker, prefix, bind):
        for section in checker.sections if isinstance(checker, _Checker) else (checker,):
            if isinstance(section, _Use):
                inner = {**bind, **{own: bind.get(name, name) for own, name in section.names.items()}}
                walk(section.checker, prefix + section.prefix, inner)
                continue
            loop = callable(section[0])
            what, groups, own = (section[0], (), section[1:]) if loop else (section, *_compile(section))
            slots = tuple(names.setdefault(bind.get(name, name), len(names)) for name in own)
            sections.append((what, prefix, groups, _picker(slots)))

    walk(checker, "", {})
    return sections, tuple(names)


def _contract(checker, tables: dict):
    """Every term of a checker's families, or one sweep's, summed over the
    named tables, as one {(*where, *defect): nonzero value} dict per
    family; a family's cancelled sums are dropped once its last term is
    folded."""
    sections, names = _sections(checker)
    listed = [_table_of(tables[name]) for name in names]
    acc = []
    for _what, _prefix, groups, binder in sections:
        bound = binder(listed)
        for plans, _axes in groups:  # a hand loop has none
            out = {}
            for negate, first, steps, last, project in plans:
                rows = bound[first].entries
                for slot, keys, at in steps:
                    if not rows:
                        break
                    found = _read(bound[slot], keys)
                    rows = [(v + free, p * x) for v, p in rows for free, x in found.get(at(v), ())]
                if not rows:
                    continue
                if last is None:
                    for v, p in rows:
                        key = project(v)
                        out[key] = out.get(key, ZERO) + (-p if negate else p)
                    continue
                slot, keys, at = last
                found = _read(bound[slot], keys)
                for v, p in rows:
                    for free, x in found.get(at(v), ()):
                        key = project(v + free)
                        out[key] = out.get(key, ZERO) + (-p * x if negate else p * x)
            acc.append({key: value for key, value in out.items() if value} if out else out)
    return acc


def _check(checker, limit: int, **tables) -> AxiomReport:
    """A checker's report, in one collector of the given limit: one
    contraction, then its sections in turn until the collector is full and
    truncated, each failing instance under its prefixed axiom with its
    dense defect, each defect label as long as the longest axis it labels."""
    coll, outs = Collector(limit), iter(_contract(checker, tables))
    sections, names = _sections(checker)
    for what, prefix, groups, binder in sections:
        if coll.truncated:
            break
        if callable(what):
            what(coll, prefix, tables[binder(names)[0]])  # a hand loop on its one table
            continue
        cells, shapes = {}, {}
        # zip reads one sum per family of the section, and no more
        for fam, ((_plans, axes), out) in enumerate(zip(groups, outs)):
            if out:
                bound = binder(names)  # the caller's name of each slot
                shape = shapes[fam] = [max(_table_of(tables[bound[s]]).shape[a] for s, a in pairs) for pairs in axes]
                w = len(what[fam][1])
                for key, value in out.items():
                    f = 0
                    for i, size in zip(key[w:], shape):
                        f = f * size + i
                    cells.setdefault((key[:w], fam), {})[f] = value
        for where, fam in sorted(cells):
            if len(coll.violations) >= coll.limit:
                # every cell left fails, and a full collector keeps none of them
                coll.truncated = True
                break
            vector = [ZERO] * math.prod(shapes[fam])
            for f, value in cells[where, fam].items():
                vector[f] = value
            coll.check(prefix + what[fam][0], where, vector)
    return coll.report()


# M is the product (the dot of a Leibniz rule), B the bracket, D the
# derivation and W the weight w of the relative Leibniz rule
_COMMUTATIVE = (("commutative", "ij", "s", "M:ijs - M:jis"),)
_ASSOCIATIVE = (("associative", "ijk", "s", "M:ijt,M:tks - M:jkt,M:its"),)
# [x,[y,z]] + [y,[z,x]] + [z,[x,y]]
_JACOBI = (("jacobi", "ijk", "s", "B:jkt,B:its + B:kit,B:jts + B:ijt,B:kts"),)
_DERIVATION = (("derivation", "ij", "s", "M:ijt,D:ts - D:it,M:tjs - D:jt,M:its"),)
# [z, x.y] - [z,x].y - x.[z,y] - x.y.w(z)
_LEIBNIZ = "M:xyt,B:zts - B:zxt,M:tys - B:zyt,M:xts - M:xyt,W:zu,M:tus"
_RELATIVE_LEIBNIZ = (("relative-leibniz", "xyz", "s", _LEIBNIZ),)
_UNITAL_LEIBNIZ = (("unital-leibniz", "xyz", "s", _LEIBNIZ),)
# x.D(y) - D(x).y
_DERIVED_PRODUCT = (("derived", "ij", "k", "D:jt,M:itk - D:it,M:tjk"),)


_COMM_ASSOC = _Checker(_COMMUTATIVE, _ASSOCIATIVE)
_DERIVATION_OF_COMM_ASSOC = _Checker(_Use("", _COMM_ASSOC), _DERIVATION)


def check_comm_assoc(m: BilinearOp, limit: int = DEFAULT_VIOLATION_LIMIT) -> AxiomReport:
    """Commutativity x*y = y*x and associativity (x*y)*z = x*(y*z)."""
    return _check(_COMM_ASSOC, limit, M=m)


def _antisymmetric(coll: Collector, prefix: str, bracket) -> None:
    """Antisymmetry, [x,y] + [y,x] once per unordered pair, the diagonal once."""
    table = _table_of(bracket)
    products = _read(table, (0, 1))
    pairs = {(min(i, j), max(i, j)) for (i, j, _), _ in table.entries}
    for i, j in sorted(pairs):
        defect = [ZERO] * table.shape[2]
        for (k,), x in products.get((i, j), []) + (products.get((j, i), []) if i != j else []):
            defect[k] += x
        coll.check(prefix + "antisymmetric", (i, j), defect)


_LIE = _Checker((_antisymmetric, "B"), _JACOBI)


def check_lie(m: BilinearOp, limit: int = DEFAULT_VIOLATION_LIMIT) -> AxiomReport:
    """Antisymmetry [x,x] = 0 and the Jacobi identity on basis triples."""
    return _check(_LIE, limit, B=m)


def check_derivation(
    m: BilinearOp, der: LinearMap, limit: int = DEFAULT_VIOLATION_LIMIT
) -> AxiomReport:
    """Leibniz rule  D(x*y) = D(x)*y + x*D(y)  on basis pairs."""
    _require_endomorphism(m.space, der, "derivation")
    return _check(_DERIVATION, limit, M=m, D=der)


def check_relative_leibniz(
    dot: BilinearOp,
    bracket: BilinearOp,
    der: LinearMap,
    limit: int = DEFAULT_VIOLATION_LIMIT,
) -> AxiomReport:
    """[z, x.y] = [z,x].y + x.[z,y] + x.y.D(z) on basis triples (x, y, z)."""
    if dot.space != bracket.space:
        raise ValueError("dot and bracket live on different spaces")
    _require_endomorphism(dot.space, der, "derivation")
    return _check(_RELATIVE_LEIBNIZ, limit, M=dot, B=bracket, W=der)


_REL_POISSON = _Checker(
    _Use("dot:", _COMM_ASSOC),
    _Use("bracket:", _LIE),
    _Use("dot:", _DERIVATION),
    _Use("bracket:", _DERIVATION, M="B"),
    _Use("", _RELATIVE_LEIBNIZ, W="D"),
)


def check_rel_poisson(
    alg: RelPoissonAlgebra, limit: int = DEFAULT_VIOLATION_LIMIT
) -> AxiomReport:
    """Full relative Poisson axiom sweep for a candidate quadruple."""
    return _check(_REL_POISSON, limit, M=alg.dot, B=alg.bracket, D=alg.derivation)


def _derived_product(op: BilinearOp, der: LinearMap) -> BilinearOp:
    """The product x.D(y) - D(x).y, built from its sums keyed (i, j, k)."""
    (out,) = _contract(_DERIVED_PRODUCT, dict(M=op, D=der))
    return _make(BilinearOp, space=op.space, _sparse=_summed(out.items(), op._sparse.shape))


def bracket_from_derivation(dot: BilinearOp, der: LinearMap) -> BilinearOp:
    """The bracket [x,y] = x.D(y) - D(x).y of a commutative associative
    algebra with derivation; the resulting quadruple is relative Poisson."""
    _require_endomorphism(dot.space, der, "derivation")
    pre = _check(_DERIVATION_OF_COMM_ASSOC, DEFAULT_VIOLATION_LIMIT, M=dot, D=der)
    _require(pre, "input is not a commutative associative algebra with derivation")
    return _derived_product(dot, der)


def find_unit(dot: BilinearOp):
    """The unique two-sided unit of a multiplication, or None.

    Solves u * e_j = e_j and e_j * u = e_j for all j; a two-sided unit is
    automatically unique, so any consistent solution is the answer.
    """
    return dot._unit


# W is the adjoint action of the unit
_JACOBI_ALGEBRA = _Checker(_Use("dot:", _COMM_ASSOC), _Use("bracket:", _LIE), _UNITAL_LEIBNIZ)


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
    return _check(_JACOBI_ALGEBRA, limit, M=dot, B=bracket, W=ad_map(bracket, unit))


def ad_map(bracket: BilinearOp, u: Vector) -> LinearMap:
    """The adjoint action [u, -] of an element as a linear map: column j
    is [u, e_j]."""
    sp = bracket.space
    return _make(LinearMap, domain=sp, codomain=sp, _sparse=_act(bracket._sparse, u))


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
