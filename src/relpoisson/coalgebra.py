"""Comultiplications, relative Poisson coalgebras and bialgebras.

A comultiplication is stored column-wise: ``columns[k][i][j]`` is the
coefficient of e_i (x) e_j in the image of e_k, so that dualizing a
comultiplication into a product on the dual space is a pure index
transposition with no signs.  The dual comultiplications of an algebra's
own products carry the explicit minus signs of the dualization rules; they
are load-bearing and implemented literally.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (
    DEFAULT_VIOLATION_LIMIT,
    AxiomReport,
    BilinearOp,
    Collector,
    PreconditionError,
    RelPoissonAlgebra,
    check_rel_poisson,
)
from .linalg import (
    ZERO,
    LinearMap,
    Matrix,
    Space,
    Vector,
    basis_vector,
    mat_add,
    mat_apply,
    mat_is_zero,
    mat_mul,
    mat_neg,
    mat_sub,
    mat_transpose,
    scalar,
    zero_matrix,
)
from .pairing import MatchedPairData
from .representations import check_dually_represents


@dataclass(frozen=True)
class Comultiplication:
    """A linear map A -> A (x) A; ``columns[k]`` is the image of e_k."""

    space: Space
    columns: tuple  # columns[k][i][j]

    def __post_init__(self):
        n = self.space.dim
        cols = tuple(
            tuple(tuple(scalar(x) for x in row) for row in col) for col in self.columns
        )
        object.__setattr__(self, "columns", cols)
        ok = len(cols) == n and all(
            len(col) == n and all(len(row) == n for row in col) for col in cols
        )
        if not ok:
            raise ValueError("comultiplication coefficients do not match the dimension")

    @staticmethod
    def zero(space: Space) -> Comultiplication:
        n = space.dim
        return Comultiplication(space, tuple(zero_matrix(n, n) for _ in range(n)))

    @staticmethod
    def from_entries(space: Space, entries) -> Comultiplication:
        """Build from sparse (i, j, k, value): e_k gains value * e_i (x) e_j."""
        n = space.dim
        cols = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
        for i, j, k, value in entries:
            cols[k][i][j] += scalar(value)
        return Comultiplication(
            space, tuple(tuple(tuple(r) for r in col) for col in cols)
        )

    def coeff(self, i: int, j: int, k: int):
        return self.columns[k][i][j]

    def of(self, u: Vector) -> Matrix:
        """Image of a general element as a 2-tensor coefficient matrix."""
        n = self.space.dim
        acc = [[ZERO] * n for _ in range(n)]
        for k, c in enumerate(u):
            if not c:
                continue
            col = self.columns[k]
            for i in range(n):
                row = col[i]
                for j in range(n):
                    x = row[j]
                    if x:
                        acc[i][j] += c * x
        return tuple(tuple(r) for r in acc)

    def is_zero(self) -> bool:
        return all(mat_is_zero(col) for col in self.columns)

    def nonzero_entries(self):
        out = []
        for k, col in enumerate(self.columns):
            for i, row in enumerate(col):
                for j, x in enumerate(row):
                    if x:
                        out.append((i, j, k, x))
        return out


@dataclass(frozen=True)
class BialgebraData:
    """Algebra + comultiplications + the coderivation candidate."""

    algebra: RelPoissonAlgebra
    dot_comult: Comultiplication
    bracket_comult: Comultiplication
    dual_derivation: LinearMap

    def __post_init__(self):
        sp = self.algebra.space
        if not (
            self.dot_comult.space == sp
            and self.bracket_comult.space == sp
            and self.dual_derivation.domain == sp
            and self.dual_derivation.codomain == sp
        ):
            raise ValueError("bialgebra components live on different spaces")


def _flatten2(m):
    return tuple(x for row in m for x in row)


def _flatten3(t):
    return tuple(x for plane in t for row in plane for x in row)


def _slot1(mapm, t2):
    """(M (x) id) on a 2-tensor coefficient matrix."""
    return mat_mul(mapm, t2)


def _slot2(mapm, t2):
    """(id (x) M) on a 2-tensor coefficient matrix."""
    return mat_mul(t2, mat_transpose(mapm))


# ---------------------------------------------------------------------------
# coalgebra checkers


def check_cocomm_coassoc(
    comult: Comultiplication, limit: int = DEFAULT_VIOLATION_LIMIT
) -> AxiomReport:
    """Cocommutativity (tau after Delta = Delta) and coassociativity."""
    n = comult.space.dim
    coll = Collector(limit)
    for k in range(n):
        col = comult.columns[k]
        coll.check("cocommutative", (k,), _flatten2(mat_sub(col, mat_transpose(col))))
    for k in range(n):
        col = comult.columns[k]
        left = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
        right = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(n):
                c = col[i][j]
                if not c:
                    continue
                inner = comult.columns[j]
                for p in range(n):
                    for q in range(n):
                        x = inner[p][q]
                        if x:
                            left[i][p][q] += c * x
                inner = comult.columns[i]
                for p in range(n):
                    for q in range(n):
                        x = inner[p][q]
                        if x:
                            right[p][q][j] += c * x
        defect = tuple(
            left[a][b][c] - right[a][b][c]
            for a in range(n)
            for b in range(n)
            for c in range(n)
        )
        coll.check("coassociative", (k,), defect)
    return coll.report()


def check_lie_coalgebra(
    comult: Comultiplication, limit: int = DEFAULT_VIOLATION_LIMIT
) -> AxiomReport:
    """Anticocommutativity (tau after delta = -delta) and the co-Jacobi
    identity (id + rotation + rotation^2)(id (x) delta) delta = 0."""
    n = comult.space.dim
    coll = Collector(limit)
    for k in range(n):
        col = comult.columns[k]
        coll.check(
            "anticocommutative", (k,), _flatten2(mat_add(col, mat_transpose(col)))
        )
    for k in range(n):
        col = comult.columns[k]
        cup = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(n):
                c = col[i][j]
                if not c:
                    continue
                inner = comult.columns[j]
                for p in range(n):
                    for q in range(n):
                        x = inner[p][q]
                        if x:
                            cup[i][p][q] += c * x
        defect = tuple(
            cup[a][b][c] + cup[c][a][b] + cup[b][c][a]
            for a in range(n)
            for b in range(n)
            for c in range(n)
        )
        coll.check("co-jacobi", (k,), defect)
    return coll.report()


def check_rel_poisson_coalgebra(
    dot_comult: Comultiplication,
    bracket_comult: Comultiplication,
    codrv: LinearMap,
    limit: int = DEFAULT_VIOLATION_LIMIT,
) -> AxiomReport:
    """Full relative Poisson coalgebra package: cocommutative coassociative
    part, Lie coalgebra part, the two coderivation conditions, and the
    co-Leibniz condition.  Equivalent to the dual-space quadruple being a
    relative Poisson algebra."""
    if dot_comult.space != bracket_comult.space:
        raise ValueError("comultiplications live on different spaces")
    n = dot_comult.space.dim
    q = codrv.entries
    coll = Collector(limit)
    coll.merge(check_cocomm_coassoc(dot_comult, limit), "dot:")
    coll.merge(check_lie_coalgebra(bracket_comult, limit), "bracket:")

    def coder_defect(comult, k):
        lhs = comult.of(codrv.column(k))
        col = comult.columns[k]
        rhs = mat_add(_slot1(q, col), _slot2(q, col))
        return mat_sub(lhs, rhs)

    for k in range(n):
        coll.check("coderivation-dot", (k,), _flatten2(coder_defect(dot_comult, k)))
        coll.check(
            "coderivation-bracket", (k,), _flatten2(coder_defect(bracket_comult, k))
        )

    dcols = dot_comult.columns
    bcols = bracket_comult.columns
    for k in range(n):
        acc = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
        # (id (x) Delta) delta
        col = bcols[k]
        for i in range(n):
            for j in range(n):
                c = col[i][j]
                if not c:
                    continue
                inner = dcols[j]
                for p in range(n):
                    for q2 in range(n):
                        x = inner[p][q2]
                        if x:
                            acc[i][p][q2] += c * x
        # - (delta (x) id) Delta
        col = dcols[k]
        for i in range(n):
            for j in range(n):
                c = col[i][j]
                if not c:
                    continue
                inner = bcols[i]
                for p in range(n):
                    for q2 in range(n):
                        x = inner[p][q2]
                        if x:
                            acc[p][q2][j] -= c * x
        # - (tau (x) id)(id (x) delta) Delta
        for i in range(n):
            for j in range(n):
                c = col[i][j]
                if not c:
                    continue
                inner = bcols[j]
                for p in range(n):
                    for q2 in range(n):
                        x = inner[p][q2]
                        if x:
                            acc[p][i][q2] -= c * x
        # - (Q (x) id (x) id)(Delta (x) id) Delta
        for i in range(n):
            for j in range(n):
                c = col[i][j]
                if not c:
                    continue
                inner = dcols[i]
                for p in range(n):
                    for q2 in range(n):
                        x = inner[p][q2]
                        if not x:
                            continue
                        cx = c * x
                        for m in range(n):
                            y = q[m][p]
                            if y:
                                acc[m][q2][j] -= cx * y
        coll.check("co-leibniz", (k,), _flatten3(acc))
    return coll.report()


# ---------------------------------------------------------------------------
# algebra <-> coalgebra dualization


def comult_to_dual_algebra(comult: Comultiplication) -> BilinearOp:
    """The product on the dual space with structure constants equal to the
    comultiplication coefficients: (e_i* e_j*) on e_k* is coeff(i, j, k)."""
    n = comult.space.dim
    table = tuple(
        tuple(
            tuple(comult.columns[k][i][j] for k in range(n)) for j in range(n)
        )
        for i in range(n)
    )
    return BilinearOp(comult.space.dual, table)


def dual_algebra_to_comult(op: BilinearOp, primal: Space) -> Comultiplication:
    """Inverse transposition: a product on the dual space as a
    comultiplication on the given primal space."""
    if op.space.dim != primal.dim:
        raise ValueError("dimension mismatch")
    n = primal.dim
    cols = tuple(
        tuple(tuple(op.entry(i, j, k) for j in range(n)) for i in range(n))
        for k in range(n)
    )
    return Comultiplication(primal, cols)


def negated_product_comult(op: BilinearOp, primal: Space) -> Comultiplication:
    """Comultiplication on the dual space induced by a product, with the
    dualization minus sign: <D(a*), x (x) y> = -<a*, x y>."""
    n = primal.dim
    cols = tuple(
        tuple(tuple(-op.entry(i, j, k) for j in range(n)) for i in range(n))
        for k in range(n)
    )
    return Comultiplication(primal, cols)


def dual_rel_poisson_algebra(data: BialgebraData) -> RelPoissonAlgebra:
    """The relative Poisson structure induced on the dual space: products
    dualize the comultiplications, the derivation is the coderivation's
    transpose."""
    dual_space = data.algebra.space.dual
    dot = comult_to_dual_algebra(data.dot_comult)
    bracket = comult_to_dual_algebra(data.bracket_comult)
    der = LinearMap(dual_space, dual_space, mat_transpose(data.dual_derivation.entries))
    return RelPoissonAlgebra(dual_space, dot, bracket, der)


# ---------------------------------------------------------------------------
# bialgebra checker


def check_bialgebra(data: BialgebraData, limit: int = DEFAULT_VIOLATION_LIMIT) -> AxiomReport:
    """All seven condition groups of a relative Poisson bialgebra.

    The dual-representation group is evaluated through both equivalent
    packages (the pointwise form and the triple-product form), so a
    divergence would surface both defects.
    """
    alg = data.algebra
    n = alg.dim
    dot, bracket, der = alg.dot, alg.bracket, alg.derivation
    dcom, bcom = data.dot_comult, data.bracket_comult
    q = data.dual_derivation
    coll = Collector(limit)
    coll.merge(check_rel_poisson(alg, limit), "algebra:")
    coll.merge(
        check_rel_poisson_coalgebra(dcom, bcom, q, limit), "coalgebra:"
    )

    dot_left = [dot.left_matrix(i) for i in range(n)]
    ad = [bracket.left_matrix(i) for i in range(n)]

    # cocycle condition for the dot comultiplication
    for i in range(n):
        for j in range(n):
            lhs = dcom.of(dot.product(i, j))
            rhs = mat_add(_slot1(dot_left[i], dcom.columns[j]), _slot2(dot_left[j], dcom.columns[i]))
            coll.check("dot-cocycle", (i, j), _flatten2(mat_sub(lhs, rhs)))

    # cocycle condition for the bracket comultiplication
    for i in range(n):
        for j in range(n):
            lhs = bcom.of(bracket.product(i, j))
            rhs = mat_add(_slot1(ad[i], bcom.columns[j]), _slot2(ad[i], bcom.columns[j]))
            rhs = mat_sub(rhs, mat_add(_slot1(ad[j], bcom.columns[i]), _slot2(ad[j], bcom.columns[i])))
            coll.check("bracket-cocycle", (i, j), _flatten2(mat_sub(lhs, rhs)))

    # the coderivation dually represents the algebra (both packages)
    coll.merge(check_dually_represents(alg, q, limit), "dual:")
    pq = mat_add(der.entries, q.entries)
    for x in range(n):
        for y in range(n):
            xy = dot.product(x, y)
            for z in range(n):
                triple = dot.apply_basis_right(xy, z)
                coll.check("dual-triple-product", (x, y, z), mat_apply(pq, triple))

    # the derivation's transpose dually represents the dual algebra
    for k in range(n):
        lhs = dcom.of(der.column(k))
        rhs = mat_sub(_slot1(der.entries, dcom.columns[k]), _slot2(q.entries, dcom.columns[k]))
        coll.check("comult-intertwine-dot", (k,), _flatten2(mat_sub(lhs, rhs)))
        lhs = bcom.of(der.column(k))
        rhs = mat_sub(_slot1(der.entries, bcom.columns[k]), _slot2(q.entries, bcom.columns[k]))
        coll.check("comult-intertwine-bracket", (k,), _flatten2(mat_sub(lhs, rhs)))
    for k in range(n):
        target = dcom.of(mat_apply(pq, basis_vector(n, k)))
        acc = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(n):
                c = target[i][j]
                if not c:
                    continue
                inner = dcom.columns[i]
                for p in range(n):
                    for q2 in range(n):
                        x = inner[p][q2]
                        if x:
                            acc[p][q2][j] += c * x
        coll.check("comult-triple-product", (k,), _flatten3(acc))

    # the two mixed compatibility conditions
    for i in range(n):
        for j in range(n):
            xy = dot.product(i, j)
            defect = bcom.of(xy)
            defect = mat_sub(defect, _slot2(ad[j], dcom.columns[i]))
            defect = mat_sub(defect, _slot1(dot_left[i], bcom.columns[j]))
            defect = mat_sub(defect, _slot2(ad[i], dcom.columns[j]))
            defect = mat_sub(defect, _slot1(dot_left[j], bcom.columns[i]))
            defect = mat_sub(defect, _slot2(q.entries, dcom.of(xy)))
            coll.check("mixed-dot-bracket", (i, j), _flatten2(defect))

            defect = dcom.of(bracket.product(i, j))
            defect = mat_sub(defect, _slot1(dot_left[j], bcom.columns[i]))
            defect = mat_sub(defect, _slot2(ad[i], dcom.columns[j]))
            defect = mat_add(defect, _slot2(dot_left[j], bcom.columns[i]))
            defect = mat_sub(defect, _slot1(ad[i], dcom.columns[j]))
            defect = mat_add(defect, dcom.of(dot.apply_basis_right(der.column(i), j)))
            coll.check("mixed-bracket-dot", (i, j), _flatten2(defect))
    return coll.report()


# ---------------------------------------------------------------------------
# constructions


def dualize_bialgebra(data: BialgebraData) -> BialgebraData:
    """The dual bialgebra on A*: products dualize the comultiplications,
    comultiplications dualize the products with minus signs, and the two
    derivations trade places (transposed)."""
    report = check_bialgebra(data)
    if not report.ok:
        raise PreconditionError(
            f"not a relative Poisson bialgebra: {', '.join(report.axioms_failed())}",
            report,
        )
    alg = data.algebra
    dual_alg = dual_rel_poisson_algebra(data)
    dual_space = dual_alg.space
    return BialgebraData(
        algebra=dual_alg,
        dot_comult=negated_product_comult(alg.dot, dual_space),
        bracket_comult=negated_product_comult(alg.bracket, dual_space),
        dual_derivation=LinearMap(
            dual_space, dual_space, mat_transpose(alg.derivation.entries)
        ),
    )


def induced_matched_pair(data: BialgebraData) -> MatchedPairData:
    """The matched-pair data ((A, D), (A*, Q^T), -L*, ad*, -L*, ad*) built
    structurally from a bialgebra candidate (no validity assumption)."""
    alg = data.algebra
    n = alg.dim
    dual_alg = dual_rel_poisson_algebra(data)
    mu1 = tuple(mat_transpose(alg.dot.left_matrix(i)) for i in range(n))
    rho1 = tuple(mat_neg(mat_transpose(alg.bracket.left_matrix(i))) for i in range(n))
    mu2 = tuple(mat_transpose(dual_alg.dot.left_matrix(a)) for a in range(n))
    rho2 = tuple(
        mat_neg(mat_transpose(dual_alg.bracket.left_matrix(a))) for a in range(n)
    )
    return MatchedPairData(
        left=alg,
        right=dual_alg,
        dot_action_on_right=mu1,
        bracket_action_on_right=rho1,
        dot_action_on_left=mu2,
        bracket_action_on_left=rho2,
    )


def bialgebra_to_matched_pair(data: BialgebraData) -> MatchedPairData:
    """Verified version of :func:`induced_matched_pair`."""
    report = check_bialgebra(data)
    if not report.ok:
        raise PreconditionError(
            f"not a relative Poisson bialgebra: {', '.join(report.axioms_failed())}",
            report,
        )
    return induced_matched_pair(data)


__all__ = [
    "Comultiplication",
    "BialgebraData",
    "check_cocomm_coassoc",
    "check_lie_coalgebra",
    "check_rel_poisson_coalgebra",
    "comult_to_dual_algebra",
    "dual_algebra_to_comult",
    "negated_product_comult",
    "dual_rel_poisson_algebra",
    "check_bialgebra",
    "dualize_bialgebra",
    "induced_matched_pair",
    "bialgebra_to_matched_pair",
]
