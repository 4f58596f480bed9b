"""Bilinear forms, matched pairs, the bowtie double, and Manin triples.

The canonical pairing form on A + A* (A basis first, dual basis second)
has the block anti-identity Gram matrix and is generated programmatically,
never entered by hand.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (
    DEFAULT_VIOLATION_LIMIT,
    AxiomReport,
    Collector,
    PreconditionError,
    RelPoissonAlgebra,
    block_sum,
    check_rel_poisson,
)
from .linalg import (
    ONE,
    ZERO,
    LinearMap,
    Matrix,
    Space,
    Vector,
    combination_column,
    determinant,
    mat_apply,
    mat_combination,
    mat_inverse,
    mat_mul,
    mat_transpose,
    scalar,
    vec_add,
    vec_sub,
)
from .representations import RepData, check_representation


@dataclass(frozen=True)
class BilinearForm:
    """B(e_i, e_j) = gram[i][j]; symmetry and nondegeneracy are predicates."""

    space: Space
    gram: Matrix

    def __post_init__(self):
        n = self.space.dim
        g = tuple(tuple(scalar(x) for x in row) for row in self.gram)
        object.__setattr__(self, "gram", g)
        if len(g) != n or any(len(r) != n for r in g):
            raise ValueError("Gram matrix does not match the space dimension")

    def value(self, u: Vector, v: Vector):
        acc = ZERO
        for i, cu in enumerate(u):
            if not cu:
                continue
            row = self.gram[i]
            for j, cv in enumerate(v):
                if cv and row[j]:
                    acc += cu * cv * row[j]
        return acc

    def is_symmetric(self) -> bool:
        return self.gram == mat_transpose(self.gram)


def canonical_pairing(space: Space) -> BilinearForm:
    """The pairing form on a double A + A*: B(x + a*, y + b*) = <x, b*> + <a*, y>.

    The space must have even dimension 2n ordered (A basis, dual basis);
    the Gram matrix is the block anti-identity.
    """
    dim = space.dim
    if dim % 2:
        raise ValueError("canonical pairing needs an even-dimensional double")
    n = dim // 2
    gram = tuple(
        tuple(
            ONE if (j == i + n or i == j + n) else ZERO for j in range(dim)
        )
        for i in range(dim)
    )
    return BilinearForm(space, gram)


def is_nondegenerate(form: BilinearForm) -> bool:
    return bool(determinant(form.gram))


def check_invariant_form(
    alg: RelPoissonAlgebra, form: BilinearForm, limit: int = DEFAULT_VIOLATION_LIMIT
) -> AxiomReport:
    """Invariance for both products:  B(x.y, z) = B(x, y.z)  and
    B([x,y], z) = B(x, [y,z])  on all basis triples."""
    if form.space != alg.space:
        raise ValueError("form and algebra live on different spaces")
    n = alg.dim
    g = form.gram
    coll = Collector(limit)

    def pair_basis(u: Vector, k: int):
        return sum((c * g[i][k] for i, c in enumerate(u) if c and g[i][k]), ZERO)

    def basis_pair(i: int, v: Vector):
        return sum((c * g[i][k] for k, c in enumerate(v) if c and g[i][k]), ZERO)

    for x in range(n):
        for y in range(n):
            for z in range(n):
                lhs = pair_basis(alg.dot.product(x, y), z)
                rhs = basis_pair(x, alg.dot.product(y, z))
                coll.check("dot-invariance", (x, y, z), (lhs - rhs,))
                lhs = pair_basis(alg.bracket.product(x, y), z)
                rhs = basis_pair(x, alg.bracket.product(y, z))
                coll.check("bracket-invariance", (x, y, z), (lhs - rhs,))
    return coll.report()


def adjoint_of(op: LinearMap, form: BilinearForm) -> LinearMap:
    """The adjoint P^ of a map under a nondegenerate form:
    B(P(x), y) = B(x, P^(y)); in matrices P^ = G^-1 P^T G."""
    if not is_nondegenerate(form):
        raise PreconditionError("bilinear form is degenerate")
    g = form.gram
    entries = mat_mul(mat_inverse(g), mat_mul(mat_transpose(op.entries), g))
    return LinearMap(op.domain, op.codomain, entries)


# ---------------------------------------------------------------------------
# matched pairs


@dataclass(frozen=True)
class MatchedPairData:
    """Two algebras acting on each other.

    ``dot_action_on_right[i]`` is the matrix on the right factor of the dot
    action of the i-th left basis element (mu_1), and symmetrically for the
    other three action families.
    """

    left: RelPoissonAlgebra
    right: RelPoissonAlgebra
    dot_action_on_right: tuple
    bracket_action_on_right: tuple
    dot_action_on_left: tuple
    bracket_action_on_left: tuple

    def as_rep_on_right(self) -> RepData:
        """(mu_1, rho_1, P_2, A_2) as a candidate representation of the left."""
        return RepData(
            algebra=self.left,
            space=self.right.space,
            dot_action=self.dot_action_on_right,
            bracket_action=self.bracket_action_on_right,
            der_action=self.right.derivation.entries,
        )

    def as_rep_on_left(self) -> RepData:
        return RepData(
            algebra=self.right,
            space=self.left.space,
            dot_action=self.dot_action_on_left,
            bracket_action=self.bracket_action_on_left,
            der_action=self.left.derivation.entries,
        )


def check_matched_pair(
    data: MatchedPairData, limit: int = DEFAULT_VIOLATION_LIMIT
) -> AxiomReport:
    """All condition families of a matched pair, including the validity of
    both factors (so the predicate is a genuine biconditional against the
    bowtie being relative Poisson)."""
    a1, a2 = data.left, data.right
    n1, n2 = a1.dim, a2.dim
    mu1, rho1 = data.dot_action_on_right, data.bracket_action_on_right
    mu2, rho2 = data.dot_action_on_left, data.bracket_action_on_left
    coll = Collector(limit)
    coll.merge(check_rel_poisson(a1, limit), "left-factor:")
    coll.merge(check_rel_poisson(a2, limit), "right-factor:")
    coll.merge(check_representation(data.as_rep_on_right(), limit), "rep-on-right:")
    coll.merge(check_representation(data.as_rep_on_left(), limit), "rep-on-left:")

    def comb(mats, u, dim):
        if not len(mats):
            return tuple((ZERO,) * dim for _ in range(dim))
        return mat_combination(u, mats)

    p1cols = [a1.derivation.column(i) for i in range(n1)]
    p2cols = [a2.derivation.column(a) for a in range(n2)]

    # matched pair of commutative associative algebras
    for x in range(n1):
        m1x = mu1[x]
        for a in range(n2):
            m1x_a = tuple(m1x[r][a] for r in range(n2))
            for b in range(n2):
                lhs = mat_apply(m1x, a2.dot.product(a, b))
                rhs = a2.dot.apply_basis_right(m1x_a, b)
                m2a_x = tuple(mu2[a][r][x] for r in range(n1))
                rhs = vec_add(rhs, combination_column(m2a_x, mu1, b, n2))
                coll.check("dot-matched-left", (x, a, b), vec_sub(lhs, rhs))
    for a in range(n2):
        m2a = mu2[a]
        for x in range(n1):
            m2a_x = tuple(m2a[r][x] for r in range(n1))
            for y in range(n1):
                lhs = mat_apply(m2a, a1.dot.product(x, y))
                rhs = a1.dot.apply_basis_right(m2a_x, y)
                m1x_a = tuple(mu1[x][r][a] for r in range(n2))
                rhs = vec_add(rhs, combination_column(m1x_a, mu2, y, n1))
                coll.check("dot-matched-right", (a, x, y), vec_sub(lhs, rhs))

    # matched pair of Lie algebras
    for x in range(n1):
        r1x = rho1[x]
        for a in range(n2):
            r1x_a = tuple(r1x[r][a] for r in range(n2))
            for b in range(n2):
                r1x_b = tuple(r1x[r][b] for r in range(n2))
                defect = mat_apply(r1x, a2.bracket.product(a, b))
                defect = vec_sub(defect, a2.bracket.apply_basis_right(r1x_a, b))
                defect = vec_sub(defect, a2.bracket.apply_basis_left(a, r1x_b))
                r2a_x = tuple(rho2[a][r][x] for r in range(n1))
                r2b_x = tuple(rho2[b][r][x] for r in range(n1))
                defect = vec_add(
                    defect, combination_column(r2a_x, rho1, b, n2)
                )
                defect = vec_sub(
                    defect, combination_column(r2b_x, rho1, a, n2)
                )
                coll.check("bracket-matched-left", (x, a, b), defect)
    for a in range(n2):
        r2a = rho2[a]
        for x in range(n1):
            r2a_x = tuple(r2a[r][x] for r in range(n1))
            for y in range(n1):
                r2a_y = tuple(r2a[r][y] for r in range(n1))
                defect = mat_apply(r2a, a1.bracket.product(x, y))
                defect = vec_sub(defect, a1.bracket.apply_basis_right(r2a_x, y))
                defect = vec_sub(defect, a1.bracket.apply_basis_left(x, r2a_y))
                r1x_a = tuple(rho1[x][r][a] for r in range(n2))
                r1y_a = tuple(rho1[y][r][a] for r in range(n2))
                defect = vec_add(
                    defect, combination_column(r1x_a, rho2, y, n1)
                )
                defect = vec_sub(
                    defect, combination_column(r1y_a, rho2, x, n1)
                )
                coll.check("bracket-matched-right", (a, x, y), defect)

    # the four mixed cross conditions
    for a in range(n2):
        r2a, m2a = rho2[a], mu2[a]
        p2a = p2cols[a]
        for x in range(n1):
            r2a_x = tuple(r2a[r][x] for r in range(n1))
            for y in range(n1):
                r2a_y = tuple(r2a[r][y] for r in range(n1))
                xy = a1.dot.product(x, y)
                r1y_a = tuple(rho1[y][r][a] for r in range(n2))
                r1x_a = tuple(rho1[x][r][a] for r in range(n2))
                defect = mat_apply(r2a, xy)
                defect = vec_add(defect, combination_column(r1y_a, mu2, x, n1))
                defect = vec_sub(defect, a1.dot.apply_basis_left(x, r2a_y))
                defect = vec_add(defect, combination_column(r1x_a, mu2, y, n1))
                defect = vec_sub(defect, a1.dot.apply_basis_left(y, r2a_x))
                defect = vec_sub(defect, mat_apply(comb(mu2, p2a, n1), xy))
                coll.check("cross-leibniz-right", (a, x, y), defect)
    for x in range(n1):
        r1x, m1x = rho1[x], mu1[x]
        p1x = p1cols[x]
        for a in range(n2):
            r1x_a = tuple(r1x[r][a] for r in range(n2))
            for b in range(n2):
                r1x_b = tuple(r1x[r][b] for r in range(n2))
                ab = a2.dot.product(a, b)
                r2b_x = tuple(rho2[b][r][x] for r in range(n1))
                r2a_x = tuple(rho2[a][r][x] for r in range(n1))
                defect = mat_apply(r1x, ab)
                defect = vec_add(defect, combination_column(r2b_x, mu1, a, n2))
                defect = vec_sub(defect, a2.dot.apply_basis_left(a, r1x_b))
                defect = vec_add(defect, combination_column(r2a_x, mu1, b, n2))
                defect = vec_sub(defect, a2.dot.apply_basis_left(b, r1x_a))
                defect = vec_sub(defect, mat_apply(comb(mu1, p1x, n2), ab))
                coll.check("cross-leibniz-left", (x, a, b), defect)
    for x in range(n1):
        m1x = mu1[x]
        for a in range(n2):
            r2a = rho2[a]
            m1x_a = tuple(m1x[r][a] for r in range(n2))
            for y in range(n1):
                r2a_y = tuple(r2a[r][y] for r in range(n1))
                m2a_x = tuple(mu2[a][r][x] for r in range(n1))
                defect = combination_column(m1x_a, rho2, y, n1)
                defect = vec_add(defect, a1.bracket.apply_basis_right(m2a_x, y))
                defect = vec_sub(defect, a1.dot.apply_basis_left(x, r2a_y))
                r1y_a = tuple(rho1[y][r][a] for r in range(n2))
                defect = vec_add(defect, combination_column(r1y_a, mu2, x, n1))
                defect = vec_sub(defect, mat_apply(mu2[a], a1.bracket.product(x, y)))
                defect = vec_add(
                    defect,
                    mat_apply(mu2[a], a1.dot.apply_basis_left(x, p1cols[y])),
                )
                coll.check("cross-compatibility-right", (x, a, y), defect)
    for a in range(n2):
        m2a = mu2[a]
        for x in range(n1):
            r1x = rho1[x]
            m2a_x = tuple(m2a[r][x] for r in range(n1))
            for b in range(n2):
                r1x_b = tuple(r1x[r][b] for r in range(n2))
                m1x_a = tuple(mu1[x][r][a] for r in range(n2))
                defect = combination_column(m2a_x, rho1, b, n2)
                defect = vec_add(defect, a2.bracket.apply_basis_right(m1x_a, b))
                defect = vec_sub(defect, a2.dot.apply_basis_left(a, r1x_b))
                r2b_x = tuple(rho2[b][r][x] for r in range(n1))
                defect = vec_add(defect, combination_column(r2b_x, mu1, a, n2))
                defect = vec_sub(defect, mat_apply(mu1[x], a2.bracket.product(a, b)))
                defect = vec_add(
                    defect,
                    mat_apply(mu1[x], a2.dot.apply_basis_left(a, p2cols[b])),
                )
                coll.check("cross-compatibility-left", (a, x, b), defect)
    return coll.report()


def combine_matched_pair(data: MatchedPairData) -> RelPoissonAlgebra:
    """The double algebra on A1 + A2 built structurally from the actions
    (:func:`relpoisson.algebra.block_sum`), with the block-diagonal
    derivation."""
    return block_sum(
        data.left,
        data.right,
        data.dot_action_on_right,
        data.bracket_action_on_right,
        data.dot_action_on_left,
        data.bracket_action_on_left,
    )


def bowtie(data: MatchedPairData) -> RelPoissonAlgebra:
    """The double of a matched pair; rejects data failing
    :func:`check_matched_pair`."""
    report = check_matched_pair(data)
    if not report.ok:
        raise PreconditionError(
            f"not a matched pair: {', '.join(report.axioms_failed())}", report
        )
    return combine_matched_pair(data)


# ---------------------------------------------------------------------------
# Manin triples


def check_manin_triple(
    alg: RelPoissonAlgebra,
    dual_alg: RelPoissonAlgebra,
    double: RelPoissonAlgebra,
    limit: int = DEFAULT_VIOLATION_LIMIT,
) -> AxiomReport:
    """Manin-triple axioms for (double; A, A*):

    the double is relative Poisson, both factors sit inside it as
    subalgebras carrying exactly their own structure (including the
    block-diagonal derivation), and the canonical pairing form is
    invariant and nondegenerate.
    """
    n = alg.dim
    if dual_alg.dim != n or double.dim != 2 * n:
        raise ValueError("Manin triple dimension mismatch")
    coll = Collector(limit)

    def embed(vec, offset):
        out = [ZERO] * (2 * n)
        for t, x in enumerate(vec):
            out[offset + t] = x
        return tuple(out)

    for i in range(n):
        for j in range(n):
            coll.check(
                "left-subalgebra-dot",
                (i, j),
                vec_sub(double.dot.product(i, j), embed(alg.dot.product(i, j), 0)),
            )
            coll.check(
                "left-subalgebra-bracket",
                (i, j),
                vec_sub(double.bracket.product(i, j), embed(alg.bracket.product(i, j), 0)),
            )
            coll.check(
                "right-subalgebra-dot",
                (i, j),
                vec_sub(
                    double.dot.product(n + i, n + j), embed(dual_alg.dot.product(i, j), n)
                ),
            )
            coll.check(
                "right-subalgebra-bracket",
                (i, j),
                vec_sub(
                    double.bracket.product(n + i, n + j),
                    embed(dual_alg.bracket.product(i, j), n),
                ),
            )
    for j in range(n):
        coll.check(
            "derivation-left-block",
            (j,),
            vec_sub(double.derivation.column(j), embed(alg.derivation.column(j), 0)),
        )
        coll.check(
            "derivation-right-block",
            (j,),
            vec_sub(
                double.derivation.column(n + j), embed(dual_alg.derivation.column(j), n)
            ),
        )
    coll.merge(check_rel_poisson(double, limit), "double:")
    form = canonical_pairing(double.space)
    coll.merge(check_invariant_form(double, form, limit), "pairing:")
    if not is_nondegenerate(form):
        coll.check("pairing-nondegenerate", (), (ONE,))
    return coll.report()


__all__ = [
    "BilinearForm",
    "canonical_pairing",
    "is_nondegenerate",
    "check_invariant_form",
    "adjoint_of",
    "MatchedPairData",
    "check_matched_pair",
    "combine_matched_pair",
    "bowtie",
    "check_manin_triple",
]
