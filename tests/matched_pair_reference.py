"""Reference oracle: ``check_matched_pair`` as written before the mixed
condition families moved to sparse tables, with its own copy of the dense
``combination_column`` helper; the factors and the two representations
are checked by the dense ``check_rel_poisson`` and ``check_representation``
of :mod:`dense_reference`.  Tests compare the library's reports against
this one; delete it together with the differential test once the sparse
code has been trusted long enough.
"""

from __future__ import annotations

from relpoisson.algebra import DEFAULT_VIOLATION_LIMIT, AxiomReport, Collector
from relpoisson.linalg import ZERO
from dense_matrices import mat_apply, mat_combination, vec_add, vec_sub
from relpoisson.pairing import MatchedPairData

from dense_reference import check_rel_poisson, check_representation


def combination_column(coeffs, mats, col: int, dim: int):
    """Column ``col`` of sum_k coeffs[k] * mats[k], without building the sum."""
    acc = [ZERO] * dim
    for c, m in zip(coeffs, mats):
        if not c:
            continue
        for i in range(dim):
            x = m[i][col]
            if x:
                acc[i] += c * x
    return tuple(acc)


def reference_check_matched_pair(
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
