"""Algebra structures as structure constants, and decidable axiom checkers.

A bilinear operation on a based space is a rank-3 structure-constant array
``c[i][j][k]`` with  e_i * e_j = sum_k c[i][j][k] e_k.  Multilinearity makes
verification on basis tuples complete, so every axiom checker enumerates
basis tuples and reports exact defect vectors (lhs minus rhs) for the
tuples that fail.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import (
    ONE,
    ZERO,
    LinearMap,
    Matrix,
    Space,
    Vector,
    basis_vector,
    block_diagonal,
    direct_sum_space,
    scalar,
    solve_exact,
    vec_add,
    vec_is_zero,
    vec_sub,
    zero_vector,
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


@dataclass(frozen=True)
class BilinearOp:
    """A bilinear map on a based space, stored as e_i * e_j product vectors."""

    space: Space
    table: tuple  # table[i][j] = coefficient vector of e_i * e_j

    def __post_init__(self):
        n = self.space.dim
        tab = tuple(
            tuple(tuple(scalar(x) for x in vec) for vec in row) for row in self.table
        )
        object.__setattr__(self, "table", tab)
        ok = len(tab) == n and all(
            len(row) == n and all(len(vec) == n for vec in row) for row in tab
        )
        if not ok:
            raise ValueError("structure constants do not match the space dimension")
        # sparse view of each product vector; products are mostly zero
        sparse = tuple(
            tuple(tuple((k, x) for k, x in enumerate(vec) if x) for vec in row)
            for row in tab
        )
        object.__setattr__(self, "_sparse", sparse)

    @staticmethod
    def zero(space: Space) -> BilinearOp:
        n = space.dim
        z = zero_vector(n)
        return BilinearOp(space, tuple(tuple(z for _ in range(n)) for _ in range(n)))

    @staticmethod
    def from_entries(space: Space, entries) -> BilinearOp:
        """Build from sparse (i, j, k, value) structure-constant entries."""
        n = space.dim
        tab = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
        for i, j, k, value in entries:
            tab[i][j][k] += scalar(value)
        return BilinearOp(
            space, tuple(tuple(tuple(v) for v in row) for row in tab)
        )

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
        n = self.space.dim
        row = self.table[i]
        return tuple(tuple(row[j][k] for j in range(n)) for k in range(n))

    def left_matrix_of(self, u: Vector) -> Matrix:
        """Matrix of left multiplication by a general element u."""
        n = self.space.dim
        acc = [[ZERO] * n for _ in range(n)]
        for i, c in enumerate(u):
            if not c:
                continue
            row = self.table[i]
            for j in range(n):
                prod = row[j]
                for k in range(n):
                    x = prod[k]
                    if x:
                        acc[k][j] += c * x
        return tuple(tuple(r) for r in acc)

    def is_zero(self) -> bool:
        return all(vec_is_zero(vec) for row in self.table for vec in row)

    def nonzero_entries(self):
        """Sorted (i, j, k, value) quadruples of nonzero structure constants."""
        out = []
        for i, row in enumerate(self.table):
            for j, vec in enumerate(row):
                for k, x in enumerate(vec):
                    if x:
                        out.append((i, j, k, x))
        return out


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
    one A1-matrix per A2 basis element.  Unit extensions, semi-direct products
    and matched-pair doubles are all of this form.  Built structurally,
    with no validity assumption on the actions.
    """
    n1, n2 = left.dim, right.dim
    total = direct_sum_space(left.space, right.space)
    zero1, zero2 = (ZERO,) * n1, (ZERO,) * n2
    dot_table = [[None] * (n1 + n2) for _ in range(n1 + n2)]
    br_table = [[None] * (n1 + n2) for _ in range(n1 + n2)]
    for i in range(n1):
        for j in range(n1):
            dot_table[i][j] = left.dot.product(i, j) + zero2
            br_table[i][j] = left.bracket.product(i, j) + zero2
    for a in range(n2):
        for b in range(n2):
            dot_table[n1 + a][n1 + b] = zero1 + right.dot.product(a, b)
            br_table[n1 + a][n1 + b] = zero1 + right.bracket.product(a, b)
    for i in range(n1):
        for b in range(n2):
            mu2b_i = tuple(mu2[b][r][i] for r in range(n1))
            mu1i_b = tuple(mu1[i][r][b] for r in range(n2))
            rho2b_i = tuple(rho2[b][r][i] for r in range(n1))
            rho1i_b = tuple(rho1[i][r][b] for r in range(n2))
            dot_table[i][n1 + b] = dot_table[n1 + b][i] = mu2b_i + mu1i_b
            br_table[i][n1 + b] = tuple(-x for x in rho2b_i) + rho1i_b
            br_table[n1 + b][i] = rho2b_i + tuple(-x for x in rho1i_b)
    derivation = block_diagonal(left.derivation.entries, right.derivation.entries)
    return RelPoissonAlgebra(
        total,
        BilinearOp(total, dot_table),
        BilinearOp(total, br_table),
        LinearMap(total, total, derivation),
    )


# ---------------------------------------------------------------------------
# checkers


def _check_hits(coll: Collector, axiom: str, where, hits, n: int) -> None:
    """Fold sparse (index, value) contributions and report a nonzero sum."""
    if not hits:
        return
    acc = [ZERO] * n
    for k, v in hits:
        acc[k] += v
    if any(acc):
        coll.check(axiom, where, acc)


def _sparse_columns(m: Matrix, width: int | None = None):
    """Each column of a matrix as its nonzero (row, value) entries; the
    width of a matrix that is not square must be given."""
    return tuple(
        tuple((r, row[j]) for r, row in enumerate(m) if row[j])
        for j in range(len(m) if width is None else width)
    )


def check_comm_assoc(m: BilinearOp, limit: int = DEFAULT_VIOLATION_LIMIT) -> AxiomReport:
    """Commutativity x*y = y*x and associativity (x*y)*z = x*(y*z)."""
    n = m.space.dim
    sp = m._sparse
    coll = Collector(limit)
    for i in range(n):
        for j in range(n):
            coll.check("commutative", (i, j), vec_sub(m.product(i, j), m.product(j, i)))
    for i in range(n):
        spi = sp[i]
        for j in range(n):
            left = spi[j]
            for k in range(n):
                hits = [(s, c * x) for t, c in left for s, x in sp[t][k]]
                hits += [(s, -c * x) for t, c in sp[j][k] for s, x in spi[t]]
                _check_hits(coll, "associative", (i, j, k), hits, n)
    return coll.report()


def check_lie(m: BilinearOp, limit: int = DEFAULT_VIOLATION_LIMIT) -> AxiomReport:
    """Antisymmetry [x,x] = 0 and the Jacobi identity on basis triples."""
    n = m.space.dim
    sp = m._sparse
    coll = Collector(limit)
    for i in range(n):
        coll.check("antisymmetric", (i, i), m.product(i, i))
        for j in range(i + 1, n):
            coll.check(
                "antisymmetric", (i, j), vec_add(m.product(i, j), m.product(j, i))
            )
    for i in range(n):
        for j in range(n):
            for k in range(n):
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
    sp = m._sparse
    cols = _sparse_columns(der.entries)
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
    for x in range(n):
        dspx = dsp[x]
        for y in range(n):
            xy = dsp[x][y]
            for z in range(n):
                hits = [(s, c * x_) for t, c in xy for s, x_ in bsp[z][t]]
                hits += [(s, -c * x_) for t, c in bsp[z][x] for s, x_ in dsp[t][y]]
                hits += [(s, -c * x_) for t, c in bsp[z][y] for s, x_ in dspx[t]]
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
    dcols = _sparse_columns(der.entries)
    _relative_leibniz_sweep("relative-leibniz", dot, bracket, dcols, coll)
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
    n = dot.space.dim
    cols = [der.column(j) for j in range(n)]
    table = tuple(
        tuple(
            vec_sub(dot.apply_basis_left(i, cols[j]), dot.apply_basis_right(cols[i], j))
            for j in range(n)
        )
        for i in range(n)
    )
    return BilinearOp(dot.space, table)


def find_unit(dot: BilinearOp):
    """The unique two-sided unit of a multiplication, or None.

    Solves u * e_j = e_j and e_j * u = e_j for all j; a two-sided unit is
    automatically unique, so any consistent solution is the answer.
    """
    n = dot.space.dim
    if n == 0:
        return ()
    rows = []
    rhs = []
    for j in range(n):
        for k in range(n):
            rows.append(tuple(dot.entry(i, j, k) for i in range(n)))
            rhs.append(ONE if j == k else ZERO)
            rows.append(tuple(dot.entry(j, i, k) for i in range(n)))
            rhs.append(ONE if j == k else ZERO)
    sol = solve_exact(tuple(rows), tuple(rhs))
    return sol


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
    n = dot.space.dim
    coll = Collector(limit)
    coll.merge(check_comm_assoc(dot, limit), "dot:")
    coll.merge(check_lie(bracket, limit), "bracket:")
    ad_unit = [
        tuple(
            (m, v)
            for m, v in enumerate(bracket.apply(unit, basis_vector(n, z)))
            if v
        )
        for z in range(n)
    ]
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
