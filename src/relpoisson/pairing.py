"""Bilinear forms, matched pairs, the bowtie double, and Manin triples.

The canonical pairing form on A + A* (A basis first, dual basis second)
has the block anti-identity Gram matrix and is generated programmatically,
never entered by hand.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .algebra import (
    DEFAULT_VIOLATION_LIMIT,
    AxiomReport,
    Collector,
    PreconditionError,
    RelPoissonAlgebra,
    _block_sum,
    _candidates,
    _check_hits,
    _families,
    _flip,
    _make,
    _matrices,
    _Stored,
    _transpose,
    check_rel_poisson,
)
from .linalg import (
    ONE,
    ZERO,
    LinearMap,
    Matrix,
    Space,
    Vector,
    _columns,
    determinant,
    mat_inverse,
    mat_mul,
    mat_transpose,
    scalar,
)
from .representations import RepData, _rep, check_representation


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
    g, n = form.gram, alg.dim
    g_cols = _columns(g, n, n)
    g_rows = _transpose(g_cols, n)
    prods = (
        ("dot-invariance", alg.dot._sparse),
        ("bracket-invariance", alg.bracket._sparse),
    )
    # a triple can fail only where some term has a nonzero product and a
    # nonzero Gram entry: B(x.y, z) needs g[t][z] for t in x.y, and B(x, y.z)
    # needs g[x][t] for t in y.z
    triples = set()
    for _, sp in prods:
        for i, row in enumerate(sp):
            for j, prod in enumerate(row):
                for t, _c in prod:
                    triples.update((i, j, z) for z, _g in g_rows[t])
                    triples.update((x, i, j) for x, _g in g_cols[t])
    coll = Collector(limit)
    for x, y, z in sorted(triples):
        for axiom, sp in prods:
            hits = [(0, c * g[t][z]) for t, c in sp[x][y] if g[t][z]]
            hits += [(0, -g[x][t] * c) for t, c in sp[y][z] if g[x][t]]
            _check_hits(coll, axiom, (x, y, z), hits, 1)
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


@dataclass(frozen=True, init=False, eq=False)
class MatchedPairData(_Stored):
    """Two algebras acting on each other.

    ``dot_action_on_right[i]`` is the matrix on the right factor of the dot
    action of the i-th left basis element (mu_1), and symmetrically for the
    other three action families.  The constructor takes these dense
    families; each is stored as one sparse column table per acting basis
    element (``_mu1``, ``_rho1``, ``_mu2``, ``_rho2``), and the dense
    attributes are views derived on first read.
    """

    left: RelPoissonAlgebra
    right: RelPoissonAlgebra
    dot_action_on_right: tuple = cached_property(lambda self: _matrices(self._mu1))
    bracket_action_on_right: tuple = cached_property(lambda self: _matrices(self._rho1))
    dot_action_on_left: tuple = cached_property(lambda self: _matrices(self._mu2))
    bracket_action_on_left: tuple = cached_property(lambda self: _matrices(self._rho2))
    _stored = ("left", "right", "_mu1", "_rho1", "_mu2", "_rho2")

    def __init__(
        self,
        left: RelPoissonAlgebra,
        right: RelPoissonAlgebra,
        dot_action_on_right,
        bracket_action_on_right,
        dot_action_on_left,
        bracket_action_on_left,
    ):
        n1, n2 = left.dim, right.dim
        mu1, rho1 = _families(n1, n2, dot_action_on_right, bracket_action_on_right)
        mu2, rho2 = _families(n2, n1, dot_action_on_left, bracket_action_on_left)
        self.__dict__.update(left=left, right=right, _mu1=mu1, _rho1=rho1, _mu2=mu2, _rho2=rho2)

    def as_rep_on_right(self) -> RepData:
        """(mu_1, rho_1, P_2, A_2) as a candidate representation of the left."""
        return _rep(self.left, self.right.space, self._mu1, self._rho1, self.right.derivation._cols)

    def as_rep_on_left(self) -> RepData:
        return _rep(self.right, self.left.space, self._mu2, self._rho2, self.left.derivation._cols)


# The mixed condition families of a matched pair, each written once for an
# acting factor L and an acted-on factor R and called once per side with the
# same arguments (L, R, mu, rho, mu_back, rho_back).  mu and rho are L's
# actions on R and mu_back, rho_back (mu', rho' in the formulas) are R's
# actions on L, all as their stored sparse column tables: mu[x][a] lists the
# nonzero (row, value) entries of mu(x)a.  Defects live in R and are reported at
# (x, a, b) for x in L and a, b in R, except cross-compatibility, which
# sweeps and reports (a, x, b).


def _dot_matched(coll, axiom, acting, acted, mu, rho, mu_back, rho_back):
    """mu(x)(a.b) - (mu(x)a).b - mu(mu'(a)x)b."""
    n = acted.dim
    dot = acted.dot._sparse
    triples = _candidates(
        (dot, _flip(mu, n), (2, 0, 1)), (mu, dot, (0, 1, 2)), (mu_back, mu, (1, 0, 2))
    )
    for x, a, b in triples:
        mux = mu[x]
        hits = [(s, c * v) for t, c in dot[a][b] for s, v in mux[t]]
        hits += [(s, -c * v) for t, c in mux[a] for s, v in dot[t][b]]
        hits += [(s, -c * v) for t, c in mu_back[a][x] for s, v in mu[t][b]]
        _check_hits(coll, axiom, (x, a, b), hits, n)


def _bracket_matched(coll, axiom, acting, acted, mu, rho, mu_back, rho_back):
    """rho(x)[a,b] - [rho(x)a, b] - [a, rho(x)b] + rho(rho'(a)x)b
    - rho(rho'(b)x)a."""
    n = acted.dim
    br = acted.bracket._sparse
    triples = _candidates(
        (br, _flip(rho, n), (2, 0, 1)),
        (rho, br, (0, 1, 2)),
        (rho, _flip(br, n), (0, 2, 1)),
        (rho_back, rho, (1, 0, 2)),
        (rho_back, rho, (1, 2, 0)),
    )
    for x, a, b in triples:
        rhox = rho[x]
        hits = [(s, c * v) for t, c in br[a][b] for s, v in rhox[t]]
        hits += [(s, -c * v) for t, c in rhox[a] for s, v in br[t][b]]
        hits += [(s, -c * v) for t, c in rhox[b] for s, v in br[a][t]]
        hits += [(s, c * v) for t, c in rho_back[a][x] for s, v in rho[t][b]]
        hits += [(s, -c * v) for t, c in rho_back[b][x] for s, v in rho[t][a]]
        _check_hits(coll, axiom, (x, a, b), hits, n)


def _cross_leibniz(coll, axiom, acting, acted, mu, rho, mu_back, rho_back):
    """rho(x)(a.b) + mu(rho'(b)x)a - a.rho(x)b + mu(rho'(a)x)b - b.rho(x)a
    - mu(Px)(a.b), where P is the acting factor's derivation."""
    n = acted.dim
    dot = acted.dot._sparse
    der = acting.derivation._cols
    dot_flip = _flip(dot, n)
    # mu_der[t][x]: mu(Px) is nonzero on e_t
    mu_der = [[any(mu[r][t] for r, _ in px) for px in der] for t in range(n)]
    triples = _candidates(
        (dot, _flip(rho, n), (2, 0, 1)),
        (rho_back, mu, (1, 2, 0)),
        (rho, dot_flip, (0, 2, 1)),
        (rho_back, mu, (1, 0, 2)),
        (rho, dot_flip, (0, 1, 2)),
        (dot, mu_der, (2, 0, 1)),
    )
    for x, a, b in triples:
        rhox = rho[x]
        ab = dot[a][b]
        hits = [(s, c * v) for t, c in ab for s, v in rhox[t]]
        hits += [(s, c * v) for t, c in rho_back[b][x] for s, v in mu[t][a]]
        hits += [(s, -c * v) for t, c in rhox[b] for s, v in dot[a][t]]
        hits += [(s, c * v) for t, c in rho_back[a][x] for s, v in mu[t][b]]
        hits += [(s, -c * v) for t, c in rhox[a] for s, v in dot[b][t]]
        for r, p in der[x]:
            hits += [(s, -p * c * v) for t, c in ab for s, v in mu[r][t]]
        _check_hits(coll, axiom, (x, a, b), hits, n)


def _cross_compatibility(coll, axiom, acting, acted, mu, rho, mu_back, rho_back):
    """rho(mu'(a)x)b + [mu(x)a, b] - a.rho(x)b + mu(rho'(b)x)a - mu(x)[a,b]
    + mu(x)(a.Pb), where P is the acted-on factor's derivation."""
    n = acted.dim
    dot, br = acted.dot._sparse, acted.bracket._sparse
    der = acted.derivation._cols
    mu_flip = _flip(mu, n)
    # dot_der[a][b] holds the terms of a.Pb
    dot_der = [[[tc for m, _ in pb for tc in dot_a[m]] for pb in der] for dot_a in dot]
    triples = _candidates(
        (mu_back, rho, (0, 1, 2)),
        (mu, br, (1, 0, 2)),
        (rho, _flip(dot, n), (2, 0, 1)),
        (rho_back, mu, (2, 1, 0)),
        (br, mu_flip, (0, 2, 1)),
        (dot_der, mu_flip, (0, 2, 1)),
    )
    for a, x, b in triples:
        mux, rhox = mu[x], rho[x]
        hits = [(s, c * v) for t, c in mu_back[a][x] for s, v in rho[t][b]]
        hits += [(s, c * v) for t, c in mux[a] for s, v in br[t][b]]
        hits += [(s, -c * v) for t, c in rhox[b] for s, v in dot[a][t]]
        hits += [(s, c * v) for t, c in rho_back[b][x] for s, v in mu[t][a]]
        hits += [(s, -c * v) for t, c in br[a][b] for s, v in mux[t]]
        for m, p in der[b]:
            hits += [(s, p * c * v) for t, c in dot[a][m] for s, v in mux[t]]
        _check_hits(coll, axiom, (a, x, b), hits, n)


def check_matched_pair(
    data: MatchedPairData, limit: int = DEFAULT_VIOLATION_LIMIT
) -> AxiomReport:
    """All condition families of a matched pair, including the validity of
    both factors (so the predicate is a genuine biconditional against the
    bowtie being relative Poisson).  A "-left" family has the left factor
    acting, a "-right" family the right one."""
    a1, a2 = data.left, data.right
    on_right, on_left = data.as_rep_on_right(), data.as_rep_on_left()
    coll = Collector(limit)
    coll.merge(check_rel_poisson(a1, limit), "left-factor:")
    coll.merge(check_rel_poisson(a2, limit), "right-factor:")
    coll.merge(check_representation(on_right, limit), "rep-on-right:")
    coll.merge(check_representation(on_left, limit), "rep-on-left:")
    mu1, rho1, mu2, rho2 = data._mu1, data._rho1, data._mu2, data._rho2
    left = (a1, a2, mu1, rho1, mu2, rho2)
    right = (a2, a1, mu2, rho2, mu1, rho1)
    _dot_matched(coll, "dot-matched-left", *left)
    _dot_matched(coll, "dot-matched-right", *right)
    _bracket_matched(coll, "bracket-matched-left", *left)
    _bracket_matched(coll, "bracket-matched-right", *right)
    _cross_leibniz(coll, "cross-leibniz-right", *right)
    _cross_leibniz(coll, "cross-leibniz-left", *left)
    _cross_compatibility(coll, "cross-compatibility-right", *right)
    _cross_compatibility(coll, "cross-compatibility-left", *left)
    return coll.report()


def combine_matched_pair(data: MatchedPairData) -> RelPoissonAlgebra:
    """The double algebra on A1 + A2 built structurally from the actions
    (:func:`relpoisson.algebra.block_sum`), with the block-diagonal
    derivation."""
    return _block_sum(data.left, data.right, data._mu1, data._rho1, data._mu2, data._rho2)


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
    sides = (("left", alg, 0), ("right", dual_alg, n))
    for i in range(n):
        for j in range(n):
            for side, sub, off in sides:
                for name, whole, part in (
                    ("dot", double.dot, sub.dot),
                    ("bracket", double.bracket, sub.bracket),
                ):
                    hits = list(whole._sparse[off + i][off + j])
                    hits += [(off + t, -x) for t, x in part._sparse[i][j]]
                    _check_hits(coll, f"{side}-subalgebra-{name}", (i, j), hits, 2 * n)
    whole_der = double.derivation._cols
    sub_ders = [sub.derivation._cols for _, sub, _ in sides]
    for j in range(n):
        for (side, _, off), sub_der in zip(sides, sub_ders):
            hits = list(whole_der[off + j]) + [(off + t, -x) for t, x in sub_der[j]]
            _check_hits(coll, f"derivation-{side}-block", (j,), hits, 2 * n)
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
