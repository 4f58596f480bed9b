"""Reference oracle: the dense checkers as written before they moved to
sparse tables, with their own copies of the private dense helpers they
used.  Every function keeps its library name; calls between them stay
inside this module, so e.g. ``check_bialgebra`` here runs the dense
``check_rel_poisson``, ``check_rel_poisson_coalgebra`` and
``check_dually_represents``, and ``check_coboundary_conditions`` runs the
dense ``aybe_tensor``, ``cybe_tensor`` and ``_t3_apply``.  Tests compare
the library's reports against these; delete this module together with the differential tests once the
sparse code has been trusted long enough.
"""

from __future__ import annotations

from relpoisson.algebra import (
    DEFAULT_VIOLATION_LIMIT,
    AxiomReport,
    BilinearOp,
    Collector,
    NoUnitError,
    PreconditionError,
    RelPoissonAlgebra,
    combine_reports,
)
from relpoisson.coalgebra import BialgebraData, Comultiplication
from relpoisson.linalg import (
    ONE,
    ZERO,
    LinearMap,
    Matrix,
    Space,
    Tensor2,
    Tensor3,
    Vector,
    _Table,
    basis_vector,
    direct_sum_space,
    div,
    scalar,
    vec_is_zero,
)
from dense_matrices import (
    block_diagonal,
    identity_matrix,
    mat_add,
    mat_apply,
    mat_combination,
    mat_mul,
    mat_neg,
    mat_sub,
    mat_transpose,
    vec_add,
    vec_sub,
    zero_matrix,
)
from relpoisson.pairing import BilinearForm, canonical_pairing, is_nondegenerate
from relpoisson.prepoisson import RelPrePoissonAlgebra
from relpoisson.representations import CompatibleStructure, RepData
from relpoisson.yangbaxter import is_antisymmetric


def _sparse_of(m: BilinearOp):
    """The stored table a product's dense table defines: its nonzero
    constants keyed (i, j, k), in increasing order."""
    entries = tuple(
        ((i, j, k), x)
        for i, row in enumerate(m.table)
        for j, vec in enumerate(row)
        for k, x in enumerate(vec)
        if x
    )
    return _Table(entries, (m.space.dim,) * 3)


def _rows_of(m: BilinearOp):
    """Every product's nonzero (k, value) terms, read from the dense table."""
    return tuple(
        tuple(tuple((k, x) for k, x in enumerate(vec) if x) for vec in row)
        for row in m.table
    )


def _check_hits(coll: Collector, axiom: str, where, hits, n: int) -> None:
    """Fold sparse (index, value) contributions and report a nonzero sum."""
    if not hits:
        return
    acc = [ZERO] * n
    for k, v in hits:
        acc[k] += v
    if any(acc):
        coll.check(axiom, where, acc)


def _as_matrices(mats, dim: int):
    out = tuple(tuple(tuple(scalar(x) for x in row) for row in m) for m in mats)
    for m in out:
        if len(m) != dim or any(len(r) != dim for r in m):
            raise ValueError("action matrix does not match the module dimension")
    return out


def _sparse_columns(m: Matrix):
    return tuple(
        tuple((r, row[j]) for r, row in enumerate(m) if row[j]) for j in range(len(m))
    )


def from_entries(space: Space, entries) -> BilinearOp:
    """Build from sparse (i, j, k, value) structure-constant entries."""
    n = space.dim
    tab = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    for i, j, k, value in entries:
        tab[i][j][k] += scalar(value)
    return BilinearOp(space, tuple(tuple(tuple(v) for v in row) for row in tab))


def block_sum(
    left: RelPoissonAlgebra,
    right: RelPoissonAlgebra,
    mu1,
    rho1,
    mu2,
    rho2,
) -> RelPoissonAlgebra:
    """The quadruple on A1 + A2 (A1 basis first) from two algebras acting on
    each other, through dense tables."""
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


def check_comm_assoc(m: BilinearOp, limit: int = DEFAULT_VIOLATION_LIMIT) -> AxiomReport:
    """Commutativity x*y = y*x and associativity (x*y)*z = x*(y*z)."""
    n = m.space.dim
    sp = _rows_of(m)
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
    sp = _rows_of(m)
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
    dsp, bsp = _rows_of(dot), _rows_of(bracket)
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


def solve_exact(a: Matrix, b: Vector):
    """Solve a x = b exactly (a may be rectangular / overdetermined).

    Returns a particular solution with free variables set to zero, or
    ``None`` when the system is inconsistent.
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    m = [list(r) + [bv] for r, bv in zip(a, b)]
    pivots = []
    row = 0
    for col in range(cols):
        pr = next((r for r in range(row, rows) if m[r][col]), None)
        if pr is None:
            continue
        m[row], m[pr] = m[pr], m[row]
        p = m[row][col]
        m[row] = [div(x, p) for x in m[row]]
        for r in range(rows):
            if r == row:
                continue
            f = m[r][col]
            if not f:
                continue
            m[r] = [x - f * y for x, y in zip(m[r], m[row])]
        pivots.append(col)
        row += 1
        if row == rows:
            break
    for r in range(row, rows):
        if m[r][cols]:
            return None
    x = [ZERO] * cols
    for r, col in enumerate(pivots):
        x[col] = m[r][cols]
    # free variables are zero; verify in case of a rank-deficient system
    check = mat_apply(a, tuple(x)) if rows else ()
    if not vec_is_zero(vec_sub(check, b)):
        return None
    return tuple(x)


def find_unit(dot: BilinearOp):
    """The unique two-sided unit of a multiplication, or None, from the dense
    2N^2 x N system."""
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
    return solve_exact(tuple(rows), tuple(rhs))


def check_jacobi_algebra(
    dot: BilinearOp, bracket: BilinearOp, limit: int = DEFAULT_VIOLATION_LIMIT
) -> AxiomReport:
    """Jacobi algebra axioms: unital comm. assoc. + Lie + the unital
    Leibniz rule [z, x.y] = [z,x].y + x.[z,y] + x.y.[1,z]."""
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


def check_derivation(
    m: BilinearOp, der: LinearMap, limit: int = DEFAULT_VIOLATION_LIMIT
) -> AxiomReport:
    """Leibniz rule  D(x*y) = D(x)*y + x*D(y)  on basis pairs."""
    if der.domain != m.space or der.codomain != m.space:
        raise ValueError("derivation is not an endomorphism of the algebra's space")
    n = m.space.dim
    coll = Collector(limit)
    cols = [der.column(j) for j in range(n)]
    for i in range(n):
        for j in range(n):
            lhs = mat_apply(der.entries, m.product(i, j))
            rhs = vec_add(m.apply_basis_right(cols[i], j), m.apply_basis_left(i, cols[j]))
            coll.check("derivation", (i, j), vec_sub(lhs, rhs))
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

    sides = (("left", alg, 0), ("right", dual_alg, n))
    for i in range(n):
        for j in range(n):
            for side, sub, off in sides:
                for name, whole, part in (
                    ("dot", double.dot, sub.dot),
                    ("bracket", double.bracket, sub.bracket),
                ):
                    defect = vec_sub(
                        whole.product(off + i, off + j), embed(part.product(i, j), off)
                    )
                    coll.check(f"{side}-subalgebra-{name}", (i, j), defect)
    for j in range(n):
        for side, sub, off in sides:
            column = embed(sub.derivation.column(j), off)
            defect = vec_sub(double.derivation.column(off + j), column)
            coll.check(f"derivation-{side}-block", (j,), defect)
    coll.merge(check_rel_poisson(double, limit), "double:")
    form = canonical_pairing(double.space)
    coll.merge(check_invariant_form(double, form, limit), "pairing:")
    if not is_nondegenerate(form):
        coll.check("pairing-nondegenerate", (), (ONE,))
    return coll.report()


def _flatten(m: Matrix):
    return tuple(x for row in m for x in row)


def _act(mats, u: Vector, dim: int) -> Matrix:
    """The action sum_k u[k] mats[k] of a general element on a dim-dim module;
    zero when the algebra is 0-dimensional."""
    if not mats:
        return zero_matrix(dim, dim)
    return mat_combination(u, mats)


def _action_defects(dot, bracket, mu, rho, cols, i, j, dim):
    """The dot-action, bracket-action and compatibility defects at (i, j):

        mu(x.y) - mu(x) mu(y)
        rho([x,y]) - [rho(x), rho(y)]
        rho(y) mu(x) - mu(x) rho(y) + mu([x,y]) - mu(x . c(y))

    where c(y) = cols[j] is D(y) for a representation and [1, y] for a
    unital one."""
    dot_defect = mat_sub(_act(mu, dot.product(i, j), dim), mat_mul(mu[i], mu[j]))
    commutator = mat_sub(mat_mul(rho[i], rho[j]), mat_mul(rho[j], rho[i]))
    bracket_defect = mat_sub(_act(rho, bracket.product(i, j), dim), commutator)
    compat = mat_sub(mat_mul(rho[j], mu[i]), mat_mul(mu[i], rho[j]))
    compat = mat_add(compat, _act(mu, bracket.product(i, j), dim))
    compat = mat_sub(compat, _act(mu, dot.apply_basis_left(i, cols[j]), dim))
    return _flatten(dot_defect), _flatten(bracket_defect), _flatten(compat)


def check_compatible_structure(
    cs: CompatibleStructure, limit: int = DEFAULT_VIOLATION_LIMIT
) -> AxiomReport:
    """Action axioms for both products plus their compatibility condition."""
    alg = cs.algebra
    n = alg.dim
    coll = Collector(limit)
    dcols = [alg.derivation.column(j) for j in range(n)]
    for i in range(n):
        for j in range(n):
            dot_defect, bracket_defect, compat = _action_defects(
                alg.dot, alg.bracket, cs.dot_action, cs.bracket_action, dcols, i, j, cs.space.dim
            )
            coll.check("dot-action", (i, j), dot_defect)
            coll.check("bracket-action", (i, j), bracket_defect)
            coll.check("compatibility", (i, j), compat)
    return coll.report()


def check_representation(rep: RepData, limit: int = DEFAULT_VIOLATION_LIMIT) -> AxiomReport:
    """All five condition families of a representation."""
    coll = Collector(limit)
    coll.merge(check_compatible_structure(rep, limit))
    alg = rep.algebra
    n = alg.dim
    mu, rho, alpha = rep.dot_action, rep.bracket_action, rep.der_action
    dcols = [alg.derivation.column(j) for j in range(n)]
    for i in range(n):
        defect = mat_sub(mat_mul(alpha, mu[i]), rep.dot_action_of(dcols[i]))
        defect = mat_sub(defect, mat_mul(mu[i], alpha))
        coll.check("endo-dot", (i,), _flatten(defect))
        defect = mat_sub(mat_mul(alpha, rho[i]), rep.bracket_action_of(dcols[i]))
        defect = mat_sub(defect, mat_mul(rho[i], alpha))
        coll.check("endo-bracket", (i,), _flatten(defect))
    for i in range(n):
        for j in range(n):
            xy = alg.dot.product(i, j)
            defect = mat_sub(rep.bracket_action_of(xy), mat_mul(mu[i], rho[j]))
            defect = mat_sub(defect, mat_mul(mu[j], rho[i]))
            defect = mat_add(defect, mat_mul(rep.dot_action_of(xy), alpha))
            coll.check("action-leibniz", (i, j), _flatten(defect))
    return coll.report()


def check_dual_rep_conditions(
    cs: CompatibleStructure,
    beta: Matrix | LinearMap,
    limit: int = DEFAULT_VIOLATION_LIMIT,
) -> AxiomReport:
    """The conditions under which beta dually represents the algebra on
    (mu, rho, V), i.e. (-mu*, rho*, beta*, V*) is a representation:

        mu(x) beta - mu(D x) - beta mu(x) = 0
        rho(x) beta - rho(D x) - beta rho(x) = 0
        -rho(x.y) + rho(y) mu(x) + rho(x) mu(y) + beta mu(x.y) = 0
    """
    beta_m = beta.entries if isinstance(beta, LinearMap) else beta
    alg = cs.algebra
    n = alg.dim
    mu, rho = cs.dot_action, cs.bracket_action
    dcols = [alg.derivation.column(j) for j in range(n)]
    coll = Collector(limit)
    for i in range(n):
        defect = mat_sub(mat_mul(mu[i], beta_m), cs.dot_action_of(dcols[i]))
        defect = mat_sub(defect, mat_mul(beta_m, mu[i]))
        coll.check("dual-rep-dot", (i,), _flatten(defect))
        defect = mat_sub(mat_mul(rho[i], beta_m), cs.bracket_action_of(dcols[i]))
        defect = mat_sub(defect, mat_mul(beta_m, rho[i]))
        coll.check("dual-rep-bracket", (i,), _flatten(defect))
    for i in range(n):
        for j in range(n):
            xy = alg.dot.product(i, j)
            defect = mat_sub(mat_mul(rho[j], mu[i]), cs.bracket_action_of(xy))
            defect = mat_add(defect, mat_mul(rho[i], mu[j]))
            defect = mat_add(defect, mat_mul(beta_m, cs.dot_action_of(xy)))
            coll.check("dual-rep-leibniz", (i, j), _flatten(defect))
    return coll.report()


def check_dually_represents(
    alg: RelPoissonAlgebra, candidate: LinearMap, limit: int = DEFAULT_VIOLATION_LIMIT
) -> AxiomReport:
    """Whether a map Q dually represents the algebra (adjoint-case test):

        x.Q(y) - D(x).y - Q(x.y) = 0
        [x, Q(y)] - [D(x), y] - Q([x, y]) = 0
        [x, y.z] + [y, z.x] + [z, x.y] + Q(x.y.z) = 0
    """
    if candidate.domain != alg.space or candidate.codomain != alg.space:
        raise ValueError("candidate is not an endomorphism of the algebra's space")
    n = alg.dim
    dot, bracket, der = alg.dot, alg.bracket, alg.derivation
    qm = candidate.entries
    qcols = [candidate.column(j) for j in range(n)]
    dcols = [der.column(j) for j in range(n)]
    coll = Collector(limit)
    for x in range(n):
        for y in range(n):
            defect = vec_sub(
                dot.apply_basis_left(x, qcols[y]), dot.apply_basis_right(dcols[x], y)
            )
            defect = vec_sub(defect, mat_apply(qm, dot.product(x, y)))
            coll.check("dual-adjoint-dot", (x, y), defect)
            defect = vec_sub(
                bracket.apply_basis_left(x, qcols[y]),
                bracket.apply_basis_right(dcols[x], y),
            )
            defect = vec_sub(defect, mat_apply(qm, bracket.product(x, y)))
            coll.check("dual-adjoint-bracket", (x, y), defect)
    for x in range(n):
        for y in range(n):
            xy = dot.product(x, y)
            for z in range(n):
                acc = bracket.apply_basis_left(x, dot.product(y, z))
                acc = vec_add(acc, bracket.apply_basis_left(y, dot.product(z, x)))
                acc = vec_add(acc, bracket.apply_basis_left(z, xy))
                acc = vec_add(acc, mat_apply(qm, dot.apply_basis_right(xy, z)))
                coll.check("dual-adjoint-cyclic", (x, y, z), acc)
    return coll.report()


def check_jacobi_representation(
    dot: BilinearOp,
    bracket: BilinearOp,
    dot_action,
    bracket_action,
    module: Space,
    limit: int = DEFAULT_VIOLATION_LIMIT,
) -> AxiomReport:
    """Representation axioms for a unital (Jacobi-type) pair of products:
    a unital action of the dot, a Lie action of the bracket, and the two
    mixed conditions tying them together through the unit's adjoint map.

    Raises :class:`NoUnitError` when dot has no unit.
    """
    unit = find_unit(dot)
    if unit is None:
        raise NoUnitError("multiplication has no two-sided unit")
    n = dot.space.dim
    m = module.dim
    mu = _as_matrices(dot_action, m)
    rho = _as_matrices(bracket_action, m)
    coll = Collector(limit)
    coll.check("dot-action-unital", (), _flatten(mat_sub(_act(mu, unit, m), identity_matrix(m))))
    rho_unit = _act(rho, unit, m)
    ad_unit_cols = [bracket.apply(unit, basis_vector(n, j)) for j in range(n)]
    for i in range(n):
        for j in range(n):
            dot_defect, bracket_defect, compat = _action_defects(
                dot, bracket, mu, rho, ad_unit_cols, i, j, m
            )
            coll.check("dot-action", (i, j), dot_defect)
            coll.check("bracket-action", (i, j), bracket_defect)
            xy = dot.product(i, j)
            defect = mat_sub(_act(rho, xy, m), mat_mul(mu[i], rho[j]))
            defect = mat_sub(defect, mat_mul(mu[j], rho[i]))
            defect = mat_add(defect, mat_mul(_act(mu, xy, m), rho_unit))
            coll.check("unital-action-leibniz", (i, j), _flatten(defect))
            coll.check("unital-compatibility", (i, j), compat)
    return coll.report()


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
# Yang-Baxter and O-operator checkers, with their dense 3-tensor helpers


def _contract(rc, sc, op: BilinearOp, pattern: str):
    """One of the three pairing contractions on coefficient matrices."""
    n = op.space.dim
    out = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    for u in range(n):
        for v in range(n):
            x = rc[u][v]
            if not x:
                continue
            for w in range(n):
                for z in range(n):
                    y = sc[w][z]
                    if not y:
                        continue
                    c = x * y
                    if pattern == "12.13":
                        prod = op.product(u, w)
                        for k in range(n):
                            p = prod[k]
                            if p:
                                out[k][v][z] += c * p
                    elif pattern == "12.23":
                        prod = op.product(v, w)
                        for k in range(n):
                            p = prod[k]
                            if p:
                                out[u][k][z] += c * p
                    else:  # "13.23"
                        prod = op.product(v, z)
                        for k in range(n):
                            p = prod[k]
                            if p:
                                out[u][w][k] += c * p
    return out


def _t3_add(a, b, sign=1):
    n = len(a)
    for i in range(n):
        for j in range(n):
            ra, rb = a[i][j], b[i][j]
            for k in range(n):
                if rb[k]:
                    ra[k] += sign * rb[k]
    return a


def _t3_zero(n):
    return [[[ZERO] * n for _ in range(n)] for _ in range(n)]


def _t3_apply(t3, slot: int, m: Matrix):
    """Apply a matrix to one tensor slot of a rank-3 coefficient array."""
    n = len(t3)
    out = _t3_zero(n)
    for i in range(n):
        for j in range(n):
            row = t3[i][j]
            for k in range(n):
                c = row[k]
                if not c:
                    continue
                if slot == 0:
                    for p in range(n):
                        x = m[p][i]
                        if x:
                            out[p][j][k] += c * x
                elif slot == 1:
                    for p in range(n):
                        x = m[p][j]
                        if x:
                            out[i][p][k] += c * x
                else:
                    for p in range(n):
                        x = m[p][k]
                        if x:
                            out[i][j][p] += c * x
    return out


def _t3_flat(t3):
    return tuple(x for plane in t3 for row in plane for x in row)


def aybe_tensor(r: Tensor2, dot: BilinearOp) -> Tensor3:
    """A(r) = r12.r13 - r12.r23 + r13.r23."""
    if r.left != dot.space or r.right != dot.space:
        raise ValueError("tensor and multiplication live on different spaces")
    rc = r.coeffs
    acc = _contract(rc, rc, dot, "12.13")
    acc = _t3_add(acc, _contract(rc, rc, dot, "12.23"), -1)
    acc = _t3_add(acc, _contract(rc, rc, dot, "13.23"), 1)
    sp = dot.space
    return Tensor3((sp, sp, sp), tuple(tuple(tuple(row) for row in plane) for plane in acc))


def cybe_tensor(r: Tensor2, bracket: BilinearOp) -> Tensor3:
    """C(r) = [r12, r13] + [r12, r23] + [r13, r23]."""
    if r.left != bracket.space or r.right != bracket.space:
        raise ValueError("tensor and bracket live on different spaces")
    rc = r.coeffs
    acc = _contract(rc, rc, bracket, "12.13")
    acc = _t3_add(acc, _contract(rc, rc, bracket, "12.23"), 1)
    acc = _t3_add(acc, _contract(rc, rc, bracket, "13.23"), 1)
    sp = bracket.space
    return Tensor3((sp, sp, sp), tuple(tuple(tuple(row) for row in plane) for plane in acc))


def check_rpybe(
    alg: RelPoissonAlgebra,
    codrv: LinearMap,
    r: Tensor2,
    limit: int = DEFAULT_VIOLATION_LIMIT,
) -> AxiomReport:
    """Solution test for the relative Poisson YBE associated to a map Q:
    A(r) = 0, C(r) = 0, (P (x) id - id (x) Q) r = 0 and
    (Q (x) id - id (x) P) r = 0."""
    coll = Collector(limit)
    coll.check("aybe", (), _t3_flat(aybe_tensor(r, alg.dot).coeffs))
    coll.check("cybe", (), _t3_flat(cybe_tensor(r, alg.bracket).coeffs))
    p, q = alg.derivation.entries, codrv.entries
    rc = r.coeffs
    coll.check(
        "intertwine-derivation",
        (),
        tuple(x for row in mat_sub(mat_mul(p, rc), mat_mul(rc, mat_transpose(q))) for x in row),
    )
    coll.check(
        "intertwine-coderivation",
        (),
        tuple(x for row in mat_sub(mat_mul(q, rc), mat_mul(rc, mat_transpose(p))) for x in row),
    )
    return coll.report()


def check_rpybe_via_maps(
    alg: RelPoissonAlgebra,
    codrv: LinearMap,
    r: Tensor2,
    limit: int = DEFAULT_VIOLATION_LIMIT,
) -> AxiomReport:
    """Operator form of the RPYBE test for antisymmetric r, through the
    induced map A* -> A:

        [r(a*), r(b*)] = r(ad*(r a*) b* - ad*(r b*) a*)
        r(a*).r(b*)    = -r(L*(r a*) b* + L*(r b*) a*)
        P r            = r Q*
    """
    if not is_antisymmetric(r):
        raise PreconditionError("tensor is not antisymmetric")
    n = alg.dim
    rm = mat_transpose(r.coeffs)  # the map A* -> A
    dot, bracket = alg.dot, alg.bracket
    coll = Collector(limit)
    rcols = [tuple(rm[t][a] for t in range(n)) for a in range(n)]
    # ad*(u) e_b* reads off minus the b-th row of ad(u); same for L*(u)
    ad_rows = [bracket.left_matrix_of(ra) for ra in rcols]
    dot_rows = [dot.left_matrix_of(ra) for ra in rcols]
    for a in range(n):
        ra = rcols[a]
        for b in range(n):
            rb = rcols[b]
            lhs = bracket.apply(ra, rb)
            arg = vec_sub(
                tuple(-ad_rows[a][b][t] for t in range(n)),
                tuple(-ad_rows[b][a][t] for t in range(n)),
            )
            coll.check("operator-cybe", (a, b), vec_sub(lhs, mat_apply(rm, arg)))
            lhs = dot.apply(ra, rb)
            arg = vec_add(
                tuple(-dot_rows[a][b][t] for t in range(n)),
                tuple(-dot_rows[b][a][t] for t in range(n)),
            )
            coll.check("operator-aybe", (a, b), vec_add(lhs, mat_apply(rm, arg)))
    defect = mat_sub(
        mat_mul(alg.derivation.entries, rm), mat_mul(rm, mat_transpose(codrv.entries))
    )
    coll.check("operator-intertwine", (), tuple(x for row in defect for x in row))
    return coll.report()


def coboundary_comults(
    alg: RelPoissonAlgebra, r: Tensor2
) -> tuple[Comultiplication, Comultiplication]:
    """The coboundary comultiplications of an element r:

        Delta(x) = (id (x) L(x) - L(x) (x) id) r
        delta(x) = (ad(x) (x) id + id (x) ad(x)) r
    """
    n = alg.dim
    rc = r.coeffs
    dot_cols = []
    br_cols = []
    for k in range(n):
        lx = alg.dot.left_matrix(k)
        adx = alg.bracket.left_matrix(k)
        dcol = mat_sub(mat_mul(rc, mat_transpose(lx)), mat_mul(lx, rc))
        bcol = mat_add(mat_mul(adx, rc), mat_mul(rc, mat_transpose(adx)))
        dot_cols.append(dcol)
        br_cols.append(bcol)
    return (
        Comultiplication(alg.space, tuple(dot_cols)),
        Comultiplication(alg.space, tuple(br_cols)),
    )


def check_coboundary_conditions(
    alg: RelPoissonAlgebra,
    codrv: LinearMap,
    r: Tensor2,
    limit: int = DEFAULT_VIOLATION_LIMIT,
) -> AxiomReport:
    """The eleven condition families under which the coboundary
    comultiplications of a general (not necessarily antisymmetric) r make
    the algebra a coboundary bialgebra.  Requires that the given map
    dually represents the algebra."""
    pre = check_dually_represents(alg, codrv)
    if not pre.ok:
        raise PreconditionError(
            f"map does not dually represent the algebra: "
            f"{', '.join(pre.axioms_failed())}",
            pre,
        )
    n = alg.dim
    dot, bracket = alg.dot, alg.bracket
    p, q = alg.derivation.entries, codrv.entries
    rc = r.coeffs
    sym = mat_add(rc, mat_transpose(rc))  # r + tau(r)
    a_tensor = aybe_tensor(r, dot).coeffs
    c_tensor = cybe_tensor(r, bracket).coeffs
    s_pq = mat_sub(mat_mul(rc, mat_transpose(p)), mat_mul(q, rc))  # (id(x)P - Q(x)id) r
    s_qp = mat_sub(mat_mul(rc, mat_transpose(q)), mat_mul(p, rc))  # (id(x)Q - P(x)id) r
    w_qp = mat_neg(s_pq)  # (Q(x)id - id(x)P) r
    coll = Collector(limit)
    a3 = a_tensor
    c3 = c_tensor
    for x in range(n):
        lx = dot.left_matrix(x)
        adx = bracket.left_matrix(x)
        lx_t = mat_transpose(lx)
        adx_t = mat_transpose(adx)
        coll.check(
            "aybe-symmetric-part",
            (x,),
            tuple(
                v
                for row in mat_sub(mat_mul(sym, lx_t), mat_mul(lx, sym))
                for v in row
            ),
        )
        coll.check(
            "aybe-cocycle",
            (x,),
            _t3_flat(_t3_add(_t3_apply(a3, 2, lx), _t3_apply(a3, 0, lx), -1)),
        )
        coll.check(
            "cybe-symmetric-part",
            (x,),
            tuple(
                v
                for row in mat_add(mat_mul(adx, sym), mat_mul(sym, adx_t))
                for v in row
            ),
        )
        acc = _t3_apply(c3, 0, adx)
        acc = _t3_add(acc, _t3_apply(c3, 1, adx))
        acc = _t3_add(acc, _t3_apply(c3, 2, adx))
        coll.check("cybe-cocycle", (x,), _t3_flat(acc))

        # the seven mixed conditions
        coll.check(
            "mixed-coderivation-dot",
            (x,),
            tuple(
                v
                for row in mat_add(mat_mul(s_pq, lx_t), mat_mul(lx, s_qp))
                for v in row
            ),
        )
        coll.check(
            "mixed-coderivation-bracket",
            (x,),
            tuple(
                v
                for row in mat_sub(mat_mul(s_pq, adx_t), mat_mul(adx, s_qp))
                for v in row
            ),
        )
        acc = _t3_apply(a3, 0, adx)
        acc = _t3_add(acc, _t3_apply(_t3_apply(a3, 0, q), 2, lx))
        acc = _t3_add(acc, _t3_apply(c3, 2, lx))
        acc = _t3_add(acc, _t3_apply(c3, 1, lx), -1)
        sym_x = mat_sub(mat_mul(lx, sym), mat_mul(sym, lx_t))  # (L(x)(x)id - id(x)L(x)) sym
        for u in range(n):
            for v in range(n):
                c = rc[u][v]
                if not c:
                    continue
                adu = bracket.left_matrix(u)
                contrib = mat_mul(adu, sym_x)
                for i in range(n):
                    for j in range(n):
                        w = contrib[i][j]
                        if w:
                            acc[i][j][v] += c * w
                lxu = dot.left_matrix_of(dot.product(x, u))
                contrib = mat_mul(w_qp, mat_transpose(lxu))  # (id (x) L(x.a_j)) on w_qp
                for i in range(n):
                    for j in range(n):
                        w = contrib[i][j]
                        if w:
                            acc[i][j][v] += c * w
                lxv = dot.left_matrix_of(dot.product(x, v))
                for i in range(n):
                    for j in range(n):
                        w = s_pq[i][j]
                        if not w:
                            continue
                        cw = c * w
                        for t in range(n):
                            y = lxv[t][j]
                            if y:
                                acc[i][u][t] += cw * y
        coll.check("mixed-co-leibniz", (x,), _t3_flat(acc))
        coll.check(
            "mixed-comult-intertwine-dot",
            (x,),
            tuple(
                v
                for row in mat_sub(mat_mul(s_qp, lx_t), mat_mul(lx, s_qp))
                for v in row
            ),
        )
        coll.check(
            "mixed-comult-intertwine-bracket",
            (x,),
            tuple(
                v
                for row in mat_add(mat_mul(adx, s_qp), mat_mul(s_qp, adx_t))
                for v in row
            ),
        )
        pq_x = mat_apply(mat_add(p, q), basis_vector(n, x))
        l_pq_x = dot.left_matrix_of(pq_x)
        coll.check(
            "mixed-triple-product", (x,), _t3_flat(_t3_apply(a3, 2, l_pq_x))
        )
    for x in range(n):
        for y in range(n):
            l_xy = dot.left_matrix_of(dot.product(x, y))
            coll.check(
                "mixed-unit-compat",
                (x, y),
                tuple(v for row in mat_mul(l_xy, s_qp) for v in row),
            )
    return coll.report()


def check_weak_o_operator(
    alg: RelPoissonAlgebra,
    cs: CompatibleStructure,
    endo: Matrix,
    operator: LinearMap,
    limit: int = DEFAULT_VIOLATION_LIMIT,
) -> AxiomReport:
    """Weak O-operator conditions for T: V -> A:

        T(u).T(v)  = T(mu(T u) v + mu(T v) u)
        [T u, T v] = T(rho(T u) v - rho(T v) u)
        D T        = T alpha
    """
    if operator.codomain != alg.space or operator.domain != cs.space:
        raise ValueError("operator does not map the module into the algebra")
    m = cs.space.dim
    tm = operator.entries
    coll = Collector(limit)
    tcols = [operator.column(a) for a in range(m)]
    for a in range(m):
        ta = tcols[a]
        mu_ta = cs.dot_action_of(ta)
        rho_ta = cs.bracket_action_of(ta)
        for b in range(m):
            tb = tcols[b]
            mu_tb = cs.dot_action_of(tb)
            rho_tb = cs.bracket_action_of(tb)
            arg = vec_add(
                tuple(mu_ta[t][b] for t in range(m)),
                tuple(mu_tb[t][a] for t in range(m)),
            )
            defect = vec_sub(alg.dot.apply(ta, tb), mat_apply(tm, arg))
            coll.check("operator-dot", (a, b), defect)
            arg = vec_sub(
                tuple(rho_ta[t][b] for t in range(m)),
                tuple(rho_tb[t][a] for t in range(m)),
            )
            defect = vec_sub(alg.bracket.apply(ta, tb), mat_apply(tm, arg))
            coll.check("operator-bracket", (a, b), defect)
    defect = mat_sub(mat_mul(alg.derivation.entries, tm), mat_mul(tm, endo))
    coll.check("operator-intertwine", (), tuple(x for row in defect for x in row))
    return coll.report()


def check_semidirect_dual_conditions(
    rep: RepData,
    beta: Matrix,
    codrv: LinearMap,
    limit: int = DEFAULT_VIOLATION_LIMIT,
) -> AxiomReport:
    """The four-part condition package under which the semi-direct products
    on A + V and A + V* are dually represented: rep validity, beta dually
    representing on (mu, rho, V), Q dually representing the algebra, and
    the two mixed action conditions

        mu(Q x) - mu(x) alpha - beta mu(x) = 0
        rho(Q x) - rho(x) alpha - beta rho(x) = 0.
    """
    alg = rep.algebra
    n = alg.dim
    coll = Collector(limit)
    coll.merge(check_representation(rep, limit), "rep:")
    coll.merge(check_dual_rep_conditions(rep, beta, limit), "beta:")
    coll.merge(check_dually_represents(alg, codrv, limit), "codrv:")
    alpha = rep.der_action
    for x in range(n):
        qx = codrv.column(x)
        defect = mat_sub(rep.dot_action_of(qx), mat_mul(rep.dot_action[x], alpha))
        defect = mat_sub(defect, mat_mul(beta, rep.dot_action[x]))
        coll.check("mixed-action-dot", (x,), tuple(v for row in defect for v in row))
        defect = mat_sub(rep.bracket_action_of(qx), mat_mul(rep.bracket_action[x], alpha))
        defect = mat_sub(defect, mat_mul(beta, rep.bracket_action[x]))
        coll.check("mixed-action-bracket", (x,), tuple(v for row in defect for v in row))
    return coll.report()


# ---------------------------------------------------------------------------
# pre-Poisson checkers


def check_zinbiel(m: BilinearOp, limit: int = DEFAULT_VIOLATION_LIMIT) -> AxiomReport:
    """x*(y*z) = (y*x)*z + (x*y)*z on basis triples."""
    n = m.space.dim
    coll = Collector(limit)
    for x in range(n):
        for y in range(n):
            for z in range(n):
                lhs = m.apply_basis_left(x, m.product(y, z))
                rhs = vec_add(
                    m.apply_basis_right(m.product(y, x), z),
                    m.apply_basis_right(m.product(x, y), z),
                )
                coll.check("zinbiel", (x, y, z), vec_sub(lhs, rhs))
    return coll.report()


def check_prelie(m: BilinearOp, limit: int = DEFAULT_VIOLATION_LIMIT) -> AxiomReport:
    """(x o y) o z - x o (y o z) is symmetric in x and y on basis triples."""
    n = m.space.dim
    coll = Collector(limit)
    for x in range(n):
        for y in range(n):
            for z in range(n):
                lhs = vec_sub(
                    m.apply_basis_right(m.product(x, y), z),
                    m.apply_basis_left(x, m.product(y, z)),
                )
                rhs = vec_sub(
                    m.apply_basis_right(m.product(y, x), z),
                    m.apply_basis_left(y, m.product(x, z)),
                )
                coll.check("pre-lie", (x, y, z), vec_sub(lhs, rhs))
    return coll.report()


def check_rel_pre_poisson(
    pp: RelPrePoissonAlgebra, limit: int = DEFAULT_VIOLATION_LIMIT
) -> AxiomReport:
    """Zinbiel + pre-Lie + derivation of both + the two mixed conditions."""
    star, circ, der = pp.star, pp.circ, pp.derivation
    n = pp.dim
    coll = Collector(limit)
    coll.merge(check_zinbiel(star, limit))
    coll.merge(check_prelie(circ, limit))
    coll.merge(check_derivation(star, der, limit), "star:")
    coll.merge(check_derivation(circ, der, limit), "circ:")
    dcols = [der.column(z) for z in range(n)]
    for x in range(n):
        for y in range(n):
            sym = vec_add(star.product(x, y), star.product(y, x))
            for z in range(n):
                # (x*y + y*x) o z - x*(y o z) - y*(x o z) + (x*y + y*x)*D(z)
                defect = circ.apply_basis_right(sym, z)
                defect = vec_sub(defect, star.apply_basis_left(x, circ.product(y, z)))
                defect = vec_sub(defect, star.apply_basis_left(y, circ.product(x, z)))
                defect = vec_add(defect, star.apply(sym, dcols[z]))
                coll.check("mixed-dot-side", (x, y, z), defect)
                # y o (x*z) - x*(y o z) + (x o y - y o x)*z - (x*D(y) + D(y)*x)*z
                defect = circ.apply_basis_left(y, star.product(x, z))
                defect = vec_sub(defect, star.apply_basis_left(x, circ.product(y, z)))
                anti = vec_sub(circ.product(x, y), circ.product(y, x))
                defect = vec_add(defect, star.apply_basis_right(anti, z))
                mixed = vec_add(
                    star.apply_basis_left(x, dcols[y]),
                    star.apply_basis_right(dcols[y], x),
                )
                defect = vec_sub(defect, star.apply_basis_right(mixed, z))
                coll.check("mixed-bracket-side", (x, y, z), defect)
    return coll.report()


# ---------------------------------------------------------------------------
# the structure-constant builders as written before they moved to sparse
# entries: each fills a dense table (or comultiplication) and coerces it
# through the constructor


def comult_to_dual_algebra(comult: Comultiplication) -> BilinearOp:
    n = comult.space.dim
    table = tuple(
        tuple(
            tuple(comult.columns[k][i][j] for k in range(n)) for j in range(n)
        )
        for i in range(n)
    )
    return BilinearOp(comult.space.dual, table)


def dual_algebra_to_comult(op: BilinearOp, primal: Space) -> Comultiplication:
    if op.space.dim != primal.dim:
        raise ValueError("dimension mismatch")
    n = primal.dim
    cols = tuple(
        tuple(tuple(op.entry(i, j, k) for j in range(n)) for i in range(n))
        for k in range(n)
    )
    return Comultiplication(primal, cols)


def negated_product_comult(op: BilinearOp, primal: Space) -> Comultiplication:
    n = primal.dim
    cols = tuple(
        tuple(tuple(-op.entry(i, j, k) for j in range(n)) for i in range(n))
        for k in range(n)
    )
    return Comultiplication(primal, cols)


def _derived_table(op: BilinearOp, der: LinearMap) -> BilinearOp:
    """x.D(y) - D(x).y, the table shared by the two builders below."""
    n = op.space.dim
    cols = [der.column(j) for j in range(n)]
    table = tuple(
        tuple(
            vec_sub(op.apply_basis_left(i, cols[j]), op.apply_basis_right(cols[i], j))
            for j in range(n)
        )
        for i in range(n)
    )
    return BilinearOp(op.space, table)


def bracket_from_derivation(dot: BilinearOp, der: LinearMap) -> BilinearOp:
    pre = combine_reports(check_comm_assoc(dot), check_derivation(dot, der))
    if not pre.ok:
        raise PreconditionError(
            f"input is not a commutative associative algebra with derivation: "
            f"{', '.join(pre.axioms_failed())}",
            pre,
        )
    return _derived_table(dot, der)


def circ_from_derivation(star: BilinearOp, der: LinearMap) -> BilinearOp:
    pre = combine_reports(check_zinbiel(star), check_derivation(star, der))
    if not pre.ok:
        raise PreconditionError(
            f"input is not a Zinbiel algebra with derivation: "
            f"{', '.join(pre.axioms_failed())}",
            pre,
        )
    return _derived_table(star, der)


def subadjacent(pp: RelPrePoissonAlgebra) -> tuple[RelPoissonAlgebra, RepData]:
    report = check_rel_pre_poisson(pp)
    if not report.ok:
        raise PreconditionError(
            f"not a relative pre-Poisson algebra: {', '.join(report.axioms_failed())}",
            report,
        )
    n = pp.dim
    dot_table = tuple(
        tuple(vec_add(pp.star.product(i, j), pp.star.product(j, i)) for j in range(n))
        for i in range(n)
    )
    br_table = tuple(
        tuple(vec_sub(pp.circ.product(i, j), pp.circ.product(j, i)) for j in range(n))
        for i in range(n)
    )
    alg = RelPoissonAlgebra(
        pp.space,
        BilinearOp(pp.space, dot_table),
        BilinearOp(pp.space, br_table),
        pp.derivation,
    )
    rep = RepData(
        algebra=alg,
        space=pp.space,
        dot_action=tuple(pp.star.left_matrix(i) for i in range(n)),
        bracket_action=tuple(pp.circ.left_matrix(i) for i in range(n)),
        der_action=pp.derivation.entries,
    )
    return alg, rep
