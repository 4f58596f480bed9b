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
    _REL_POISSON,
    AxiomReport,
    PreconditionError,
    RelPoissonAlgebra,
    _block_sum,
    _check,
    _Checker,
    _families,
    _matrices,
    _require,
    _Use,
)
from .linalg import (
    ONE,
    ZERO,
    LinearMap,
    Matrix,
    Space,
    Vector,
    _act,
    _blocks,
    _determinant,
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
from .representations import _REPRESENTATION, RepData, _rep


@dataclass(frozen=True, init=False, eq=False, repr=False)
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
        # the Gram matrix's columns are keyed first, so v acts first
        found = _act(_act(self._sparse, v), u).entries
        return found[0][1] if found else ZERO

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
    return _check(_INVARIANCE, limit, M=alg.dot, B=alg.bracket, G=form)


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


@dataclass(frozen=True, init=False, eq=False, repr=False)
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


# The factors and the actions of a matched pair are the tables M1, B1, D1
# and MU1, RHO1 (left acting) and M2, B2, D2 and MU2, RHO2 (right acting);
# the "-left" families have the left factor acting on the right one
_ACTING = {
    "left": dict(M="M2", B="B2", D="D2", P="D1", MU="MU1", RHO="RHO1", MUB="MU2", RHOB="RHO2"),
    "right": dict(M="M1", B="B1", D="D1", P="D2", MU="MU2", RHO="RHO2", MUB="MU1", RHOB="RHO1"),
}
_MATCHED_PAIR = _Checker(
    _Use("left-factor:", _REL_POISSON, M="M1", B="B1", D="D1"),
    _Use("right-factor:", _REL_POISSON, M="M2", B="B2", D="D2"),
    _Use("rep-on-right:", _REPRESENTATION, M="M1", B="B1", D="D1", MU="MU1", RHO="RHO1", AL="D2"),
    _Use("rep-on-left:", _REPRESENTATION, M="M2", B="B2", D="D2", MU="MU2", RHO="RHO2", AL="D1"),
    # dot- and bracket-matched report the left side first, the cross
    # families the right side first
    *(
        _Use("", _MATCHED[side][family], **_ACTING[side])
        for family, sides in enumerate((("left", "right"),) * 2 + (("right", "left"),) * 2)
        for side in sides
    ),
)


def check_matched_pair(
    data: MatchedPairData, limit: int = DEFAULT_VIOLATION_LIMIT
) -> AxiomReport:
    """All condition families of a matched pair, including the validity of
    both factors (so the predicate is a genuine biconditional against the
    bowtie being relative Poisson).  A "-left" family has the left factor
    acting, a "-right" family the right one."""
    a1, a2 = data.left, data.right
    tables = dict(M1=a1.dot, B1=a1.bracket, D1=a1.derivation, MU1=data._mu1, RHO1=data._rho1)
    tables.update(M2=a2.dot, B2=a2.bracket, D2=a2.derivation, MU2=data._mu2, RHO2=data._rho2)
    return _check(_MATCHED_PAIR, limit, **tables)


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


def _nondegenerate(coll, prefix: str, form: BilinearForm) -> None:
    """The hand loop of a form's nondegeneracy, a determinant."""
    if not is_nondegenerate(form):
        coll.check(prefix + "nondegenerate", (), (ONE,))


def _symmetric(coll, prefix: str, form: BilinearForm) -> None:
    """The hand loop of a form's symmetry, its table against its transpose."""
    if not form.is_symmetric():
        coll.check(prefix + "symmetric", (), (ONE,))


# G is the canonical pairing form of the double
_MANIN_TRIPLE = _Checker(
    _SUBALGEBRA,
    _DERIVATION_BLOCK,
    _Use("double:", _REL_POISSON, M="WM", B="WB", D="WD"),
    _Use("pairing:", _INVARIANCE, M="WM", B="WB"),
    _Use("pairing-", (_nondegenerate, "G")),
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
    return _check(_MANIN_TRIPLE, limit, G=canonical_pairing(double.space), **tables)


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
