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
    _families,
    _matrices,
    _require,
    _sweep,
    check_rel_poisson,
)
from .linalg import (
    ONE,
    ZERO,
    LinearMap,
    Matrix,
    Space,
    Vector,
    _blocks,
    _determinant,
    _entries,
    _from_dense,
    _identity,
    _make,
    _permuted,
    _read,
    _row,
    _row_dicts,
    _solve,
    _Stored,
    _table,
    _view,
)
from .representations import RepData, _rep, check_representation


@dataclass(frozen=True, init=False, eq=False)
class BilinearForm(_Stored):
    """B(e_i, e_j) = gram[i][j]; symmetry and nondegeneracy are predicates.
    Stored as the table ``_sparse`` of the Gram matrix keyed (column, row):
    an entry ((j, i), value) is the nonzero B(e_i, e_j).
    ``BilinearForm(space, gram)`` takes the dense Gram matrix, its view
    derived on first read."""

    space: Space
    gram: Matrix = cached_property(lambda self: _view(self._sparse, (1, 0)))
    _stored = ("space", "_sparse")
    _axes = "ji"

    def __init__(self, space: Space, gram: Matrix):
        n, error = space.dim, "Gram matrix does not match the space dimension"
        self.__dict__.update(space=space, _sparse=_from_dense(gram, (n, n), error, (1, 0)))

    def value(self, u: Vector, v: Vector):
        terms = (u[i] * v[j] * g for i, j, g in _entries(self._sparse, self._axes) if u[i] and v[j])
        return sum(terms, ZERO)

    def is_symmetric(self) -> bool:
        return self._sparse == _permuted(self._sparse, (1, 0))


def canonical_pairing(space: Space) -> BilinearForm:
    """The pairing form on a double A + A*: B(x + a*, y + b*) = <x, b*> + <a*, y>.

    The space must have even dimension 2n ordered (A basis, dual basis);
    the Gram matrix is the block anti-identity.
    """
    dim = space.dim
    if dim % 2:
        raise ValueError("canonical pairing needs an even-dimensional double")
    n = dim // 2
    cols = _table([((j + n) % dim, j, ONE) for j in range(dim)], "ji", (dim, dim))
    return _make(BilinearForm, space=space, _sparse=cols)


def is_nondegenerate(form: BilinearForm) -> bool:
    # the Gram matrix's columns, eliminated as the rows of its transpose
    return bool(_determinant(_row_dicts(form._sparse, form.space.dim)))


# B(x.y, z) - B(x, y.z) through the dot M and the bracket B, with the Gram
# matrix G keyed (column, row)
_INVARIANCE = (
    ("dot-invariance", "xyz", "", "M:xyt,G:zt - G:tx,M:yzt"),
    ("bracket-invariance", "xyz", "", "B:xyt,G:zt - G:tx,B:yzt"),
)


def check_invariant_form(
    alg: RelPoissonAlgebra, form: BilinearForm, limit: int = DEFAULT_VIOLATION_LIMIT
) -> AxiomReport:
    """Invariance for both products:  B(x.y, z) = B(x, y.z)  and
    B([x,y], z) = B(x, [y,z])  on all basis triples."""
    if form.space != alg.space:
        raise ValueError("form and algebra live on different spaces")
    coll = Collector(limit)
    _sweep(coll, _INVARIANCE, alg.dim, M=alg.dot, B=alg.bracket, G=form)
    return coll.report()


def adjoint_of(op: LinearMap, form: BilinearForm) -> LinearMap:
    """The adjoint P^ of an endomorphism of the form's space under a
    nondegenerate form: B(P(x), y) = B(x, P^(y)); in matrices G P^ = P^T G,
    solved by one elimination of [G | P^T G]."""
    if op.domain != form.space or op.codomain != form.space:
        raise ValueError("map is not an endomorphism of the form's space")
    n = form.space.dim
    grows = _read(form._sparse, (1,))
    rows = []
    for i in range(n):
        # row i of P^T G is the sum of P[k][i] times row k of G
        row = {c: g for (c,), g in grows.get(i, ())}
        for (k,), p in _row(op._sparse, i):
            for (c,), g in grows.get(k, ()):
                row[n + c] = row.get(n + c, ZERO) + p * g
        rows.append({c: x for c, x in row.items() if x})
    solution = _solve(rows, n)
    if solution is None:
        raise PreconditionError("bilinear form is degenerate")
    entries = [(r, c, x) for r, row in enumerate(solution) for c, x in row.items()]
    cols = _table(entries, "ji", (n, n))
    return _make(LinearMap, domain=op.domain, codomain=op.codomain, _sparse=cols)


# ---------------------------------------------------------------------------
# matched pairs


@dataclass(frozen=True, init=False, eq=False)
class MatchedPairData(_Stored):
    """Two algebras acting on each other.

    ``dot_action_on_right[i]`` is the matrix on the right factor of the dot
    action of the i-th left basis element (mu_1), and symmetrically for the
    other three action families.  The constructor takes these dense
    families; each is stored as one table keyed (x, j, r) for row r of
    column j of the matrix of the acting e_x (``_mu1``, ``_rho1``, ``_mu2``,
    ``_rho2``), and the dense attributes are views derived on first read.
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
        return _rep(self.left, self.right.space, self._mu1, self._rho1, self.right.derivation)

    def as_rep_on_left(self) -> RepData:
        return _rep(self.right, self.left.space, self._mu2, self._rho2, self.left.derivation)


# The mixed condition families of a matched pair, each written once for an
# acting factor and an acted-on factor and swept once per side.  M, B and D
# are the acted-on factor's dot, bracket and derivation and P the acting
# factor's derivation; MU and RHO are the acting factor's actions and MUB
# and RHOB (mu', rho' in the formulas) the acted-on factor's actions back.
# Defects live in the acted-on factor and are reported at (x, a, b) for x
# acting and a, b acted on, except cross-compatibility, at (a, x, b).
_MATCHED = {
    side: (
        # mu(x)(a.b) - (mu(x)a).b - mu(mu'(a)x)b
        ((f"dot-matched-{side}", "xab", "s", "M:abt,MU:xts - MU:xat,M:tbs - MUB:axt,MU:tbs"),),
        # rho(x)[a,b] - [rho(x)a, b] - [a, rho(x)b] + rho(rho'(a)x)b - rho(rho'(b)x)a
        ((f"bracket-matched-{side}", "xab", "s", "B:abt,RHO:xts - RHO:xat,B:tbs - RHO:xbt,B:ats"
          " + RHOB:axt,RHO:tbs - RHOB:bxt,RHO:tas"),),
        # rho(x)(a.b) + mu(rho'(b)x)a - a.rho(x)b + mu(rho'(a)x)b - b.rho(x)a - mu(Px)(a.b)
        ((f"cross-leibniz-{side}", "xab", "s", "M:abt,RHO:xts + RHOB:bxt,MU:tas - RHO:xbt,M:ats"
          " + RHOB:axt,MU:tbs - RHO:xat,M:bts - P:xr,M:abt,MU:rts"),),
        # rho(mu'(a)x)b + [mu(x)a, b] - a.rho(x)b + mu(rho'(b)x)a - mu(x)[a,b] + mu(x)(a.Db)
        ((f"cross-compatibility-{side}", "axb", "s", "MUB:axt,RHO:tbs + MU:xat,B:tbs"
          " - RHO:xbt,M:ats + RHOB:bxt,MU:tas - B:abt,MU:xts + D:bm,M:amt,MU:xts"),),
    )
    for side in ("left", "right")
}


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
    # the "-left" families have the left factor acting on the right one
    acting = {
        "left": (a2.dim, dict(M=a2.dot, B=a2.bracket, D=a2.derivation, P=a1.derivation,
                              MU=mu1, RHO=rho1, MUB=mu2, RHOB=rho2)),
        "right": (a1.dim, dict(M=a1.dot, B=a1.bracket, D=a1.derivation, P=a2.derivation,
                               MU=mu2, RHO=rho2, MUB=mu1, RHOB=rho1)),
    }
    # dot- and bracket-matched report the left side first, the cross
    # families the right side first
    left_first, right_first = ("left", "right"), ("right", "left")
    for family, sides in enumerate((left_first, left_first, right_first, right_first)):
        for side in sides:
            dim, tables = acting[side]
            _sweep(coll, _MATCHED[side][family], dim, **tables)
    return coll.report()


def combine_matched_pair(data: MatchedPairData) -> RelPoissonAlgebra:
    """The double algebra on A1 + A2 built structurally from the actions
    (:func:`relpoisson.algebra.block_sum`), with the block-diagonal
    derivation."""
    return _block_sum(data.left, data.right, data._mu1, data._rho1, data._mu2, data._rho2)


def bowtie(data: MatchedPairData) -> RelPoissonAlgebra:
    """The double of a matched pair; rejects data failing
    :func:`check_matched_pair`."""
    _require(check_matched_pair(data), "not a matched pair")
    return combine_matched_pair(data)


# ---------------------------------------------------------------------------
# Manin triples


# The blocks of a Manin triple's double (WM, WB, WD) against the factors'
# own dot, bracket and derivation (LM, LB, LD on the left, RM, RB, RD on
# the right), through the table LJ or RJ of a factor's inclusion
# e_i -> e_(off + i) into the double
_SUBALGEBRA = tuple(
    (f"{side}-subalgebra-{name}", "ij", "k", f"W{P}:abk,{S}J:ia,{S}J:jb - {S}{P}:ijt,{S}J:tk")
    for side, S in (("left", "L"), ("right", "R"))
    for name, P in (("dot", "M"), ("bracket", "B"))
)
_DERIVATION_BLOCK = tuple(
    (f"derivation-{side}-block", "j", "k", f"{S}J:ja,WD:ak - {S}D:jt,{S}J:tk")
    for side, S in (("left", "L"), ("right", "R"))
)


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
    tables = dict(WM=double.dot, WB=double.bracket, WD=double.derivation)
    for S, sub, off in (("L", alg, 0), ("R", dual_alg, n)):
        tables.update({S + "M": sub.dot, S + "B": sub.bracket, S + "D": sub.derivation})
        tables[S + "J"] = _blocks((n, 2 * n), ((0, off), _identity(n)))
    coll = Collector(limit)
    _sweep(coll, _SUBALGEBRA, 2 * n, **tables)
    _sweep(coll, _DERIVATION_BLOCK, 2 * n, **tables)
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
