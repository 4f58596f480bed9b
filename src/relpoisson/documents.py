"""Text format for structures: line-oriented JSON documents with exact
rational scalars serialized as "p/q" strings, never floating point.

Every document carries a kind tag, the dimension and basis labels of its
space (unless an embedded algebra gives it), and sparse entry lists (index
tuples plus a scalar string); unspecified entries are zero.  The
serializer is canonical: entries are sorted lexicographically by their
indices, fractions are reduced, zero entries are dropped, and identical
structures produce identical bytes.
"""

from __future__ import annotations

import json
import re
from functools import cached_property

from .algebra import BilinearOp, RelPoissonAlgebra, _entries
from .coalgebra import BialgebraData, Comultiplication
from .linalg import LinearMap, Scalar, Space, Tensor2, _make, _table, scalar
from .pairing import BilinearForm
from .prepoisson import RelPrePoissonAlgebra
from .representations import RepData, _rep

# kind -> {field: shape}, in canonical key order.  A shape names the space
# each index of an entry ranges over: V, the document's own space, from
# `dim` and `basis`, or A, the space of its embedded rel-poisson `algebra`
# (V when it embeds none).  The embedded algebra is a document, not a list
# of entries, so its shape is empty.  A trailing "?" marks an optional
# field.  A document whose fields all range over its embedded algebra has
# no space of its own, so `dim` and `basis` are unknown fields there.
_SINGLE_OP = {"product": "VVV", "derivation": "VV?"}
_ALGEBRA = {"dot": "VVV", "bracket": "VVV", "derivation": "VV"}
_COALGEBRA = {"dual_derivation": "VV", "dot_comult": "VVV", "bracket_comult": "VVV"}
_SCHEMA = {
    "comm-assoc": _SINGLE_OP,
    "lie": _SINGLE_OP,
    "rel-poisson": {**_ALGEBRA, "form": "VV?"},
    "zinbiel": _SINGLE_OP,
    "pre-lie": _SINGLE_OP,
    "rel-pre-poisson": {"star": "VVV", "circ": "VVV", "derivation": "VV"},
    "representation": {
        "algebra": "",
        "dual_derivation": "AA?",
        "dot_action": "AVV",
        "bracket_action": "AVV",
        "der_action": "VV",
        "operator": "AV?",
        "beta": "VV?",
    },
    "comultiplication": _COALGEBRA,
    "bialgebra": {**_ALGEBRA, **_COALGEBRA},
    "rmatrix": {"algebra": "", "dual_derivation": "AA?", "r": "AA"},
    "bilinear-form": {"algebra": "?", "gram": "AA"},
}
KINDS = tuple(_SCHEMA)
_SINGLE_OP_KINDS = tuple(kind for kind in KINDS if _SCHEMA[kind] is _SINGLE_OP)
_HEADER = ("kind", "description", "dim", "basis")
# an action family is stored as (x, column, row): the axes of its entries
# (x, row, column)
_FAMILY = "acb"

_SCALAR = r"-?\d+(/\d+)?"  # matched with re.ASCII, so \d is [0-9]


class DocumentError(ValueError):
    """Malformed structure document (parse-level, not an axiom failure)."""


def _is_int(value) -> bool:
    """A JSON integer; JSON booleans parse as bool, a subclass of int."""
    return isinstance(value, int) and not isinstance(value, bool)


def parse_scalar_string(text) -> Scalar:
    """An integer or a fraction "p/q", optionally negative, in ASCII digits,
    as a scalar in normal form (an int when integral)."""
    if not isinstance(text, str):
        raise DocumentError(f"scalar must be a string, got {text!r}")
    if not re.fullmatch(_SCALAR, text, re.ASCII):
        raise DocumentError(f"malformed scalar {text!r}: expected an integer or p/q")
    try:
        return scalar(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise DocumentError(f"malformed scalar {text!r}: {exc}") from None


def format_scalar(value: Scalar) -> str:
    """The canonical string of a scalar: "n" when integral, else "p/q"."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _space_of(doc) -> Space:
    dim = doc.get("dim")
    if not _is_int(dim) or dim < 0:
        raise DocumentError("dim must be a non-negative integer")
    basis = doc.get("basis")
    if basis is None:
        basis = [f"e{i + 1}" for i in range(dim)]
    if (
        not isinstance(basis, list)
        or len(basis) != dim
        or not all(isinstance(b, str) for b in basis)
    ):
        raise DocumentError("basis must list one label per dimension")
    try:
        return Space(tuple(basis))
    except ValueError as exc:
        raise DocumentError(str(exc)) from None


def _has_own_space(kind, doc) -> bool:
    """Whether `dim` and `basis` give the document a space V (see _SCHEMA)."""
    return "algebra" not in doc or any("V" in shape for shape in _SCHEMA[kind].values())


def validate_document(doc) -> str:
    """Checks the overall shape of a parsed document; returns its kind."""
    if not isinstance(doc, dict):
        raise DocumentError("document must be a JSON object")
    kind = doc.get("kind")
    if kind not in KINDS:
        raise DocumentError(f"unknown kind: {kind!r}")
    fields = _SCHEMA[kind]
    for name, shape in fields.items():
        if not shape.endswith("?") and name not in doc:
            raise DocumentError(f"kind {kind!r} requires field {name!r}")
    header = _HEADER if _has_own_space(kind, doc) else _HEADER[:2]
    for key in doc:
        if key not in header and key not in fields:
            raise DocumentError(f"unknown field {key!r} for kind {kind!r}")
    if not isinstance(doc.get("description", ""), str):
        raise DocumentError("description must be a string")
    if "algebra" in doc:
        inner = doc["algebra"]
        if not isinstance(inner, dict):
            raise DocumentError("missing embedded algebra object")
        if inner.get("kind") != "rel-poisson":
            raise DocumentError("embedded algebra must have kind rel-poisson")
        validate_document(inner)
    return kind


# ---------------------------------------------------------------------------
# document -> domain objects


class _Reader:
    """One read of a validated document, its embedded algebra's by one inner
    reader.  Each entry field is read and checked once, on first use, against
    the spaces its indices range over; later uses come from a memo."""

    def __init__(self, doc):
        self.doc, self.kind, self.shapes = doc, doc["kind"], _SCHEMA[doc["kind"]]
        self.inner = _Reader(doc["algebra"]) if "algebra" in doc else None
        self.memo = {}

    @cached_property
    def space(self):
        """V and A.  Every field of the embedded algebra is read before V
        is, so a document's first fault is the same whatever reads it."""
        inner = self.inner
        for name in inner.shapes if inner else ():
            if name in inner.doc:
                inner.entries(name)
        own = _space_of(self.doc) if _has_own_space(self.kind, self.doc) else None
        return {"V": own, "A": inner.space["V"] if inner else own}

    def bounds(self, name):
        return [self.space[s].dim for s in self.shapes[name].rstrip("?")]

    def entries(self, name):
        """The field's sparse entry list, checked; [(indices..., scalar)]."""
        if name in self.memo:
            return self.memo[name]
        bounds = self.bounds(name)
        raw = self.doc.get(name, [])
        if not isinstance(raw, list):
            raise DocumentError(f"field {name!r} must be a list of entries")
        arity = len(bounds)
        seen = set()
        out = []
        for entry in raw:
            if not isinstance(entry, list) or len(entry) != arity + 1:
                raise DocumentError(
                    f"entry in {name!r} must be {arity} indices plus a scalar: {entry!r}"
                )
            idx = tuple(entry[:arity])
            for i, bound in zip(idx, bounds):
                if not _is_int(i) or i < 0 or i >= bound:
                    raise DocumentError(f"index out of range in {name!r}: {entry!r}")
            if idx in seen:
                raise DocumentError(f"duplicate entry in {name!r}: {list(idx)}")
            seen.add(idx)
            out.append(idx + (parse_scalar_string(entry[arity]),))
        self.memo[name] = out
        return out

    def canonical(self):
        """The document with every entry field, the embedded algebra's
        included, read in `_SCHEMA` order and rewritten in canonical order."""
        out = dict(self.doc)
        for name in self.shapes:
            if name == "algebra" and self.inner:
                out[name] = self.inner.canonical()
            elif name in self.doc:
                out[name] = sorted([*idx, format_scalar(x)] for *idx, x in self.entries(name) if x)
        return out

    def structures(self):
        """The document's structures, as its kind's doc_to_* returns them."""
        return _STRUCTURES[self.kind](self)

    def table(self, name, axes):
        """The field as a table whose positions are in the order ``axes``
        names, its entries' indices in sorted label order."""
        bounds = self.bounds(name)
        shape = [bounds[sorted(axes).index(a)] for a in axes]
        return _table(self.entries(name), axes, shape)

    def map(self, name) -> LinearMap:
        """A field over two spaces, as the map from the second to the first."""
        codomain, domain = (self.space[s] for s in self.shapes[name].rstrip("?"))
        cols = self.table(name, LinearMap._axes)
        return _make(LinearMap, domain=domain, codomain=codomain, _sparse=cols)

    def op(self, name, cls=BilinearOp):
        """A product, or a comultiplication, on V."""
        return _make(cls, space=self.space["V"], _sparse=self.table(name, cls._axes))

    def form(self, name) -> BilinearForm:
        space = self.space[self.shapes[name][0]]
        return _make(BilinearForm, space=space, _sparse=self.table(name, BilinearForm._axes))

    def rel_poisson(self) -> RelPoissonAlgebra:
        return RelPoissonAlgebra(
            self.space["V"], self.op("dot"), self.op("bracket"), self.map("derivation")
        )

    def coalgebra(self):
        """(dot_comult, bracket_comult, dual_derivation)."""
        comults = (self.op(name, Comultiplication) for name in ("dot_comult", "bracket_comult"))
        return (*comults, self.map("dual_derivation"))

    def representation(self):
        mu, rho = (self.table(name, _FAMILY) for name in ("dot_action", "bracket_action"))
        rep = _rep(self.inner.structures()[0], self.space["V"], mu, rho, self.map("der_action"))
        names = ("operator", "dual_derivation", "beta")
        return rep, {name: self.map(name) for name in names if name in self.doc}

    def rmatrix(self):
        space = self.space["A"]
        tensor = _make(Tensor2, left=space, right=space, _sparse=self.table("r", Tensor2._axes))
        alg = self.inner.structures()[0]
        if "dual_derivation" not in self.doc:
            return alg, tensor, alg.derivation.neg()
        return alg, tensor, self.map("dual_derivation")


# kind -> the structures a document of that kind reads to
_STRUCTURES = {
    **dict.fromkeys(
        _SINGLE_OP_KINDS,
        lambda f: (f.op("product"), f.map("derivation") if "derivation" in f.doc else None),
    ),
    "rel-poisson": lambda f: (f.rel_poisson(), f.form("form") if "form" in f.doc else None),
    "rel-pre-poisson": lambda f: RelPrePoissonAlgebra(
        f.space["V"], f.op("star"), f.op("circ"), f.map("derivation")
    ),
    "representation": _Reader.representation,
    "comultiplication": _Reader.coalgebra,
    "bialgebra": lambda f: BialgebraData(f.rel_poisson(), *f.coalgebra()),
    "rmatrix": _Reader.rmatrix,
    "bilinear-form": lambda f: (f.form("gram"), f.inner and f.inner.structures()[0]),
}


def _read(doc, *kinds):
    """The structures of a document of one of `kinds`, its shape checked."""
    kind = validate_document(doc)
    if kind not in kinds:
        raise DocumentError(f"expected a {' or '.join(kinds)} document, got {kind}")
    return _Reader(doc).structures()


def doc_to_single_op(doc):
    """For the single-operation kinds: (op, optional derivation)."""
    return _read(doc, *_SINGLE_OP_KINDS)


def doc_to_rel_poisson(doc):
    return _read(doc, "rel-poisson")


def doc_to_rel_pre_poisson(doc) -> RelPrePoissonAlgebra:
    return _read(doc, "rel-pre-poisson")


def doc_to_representation(doc):
    """Returns (RepData, extras) with optional operator/beta/dual_derivation."""
    return _read(doc, "representation")


def doc_to_coalgebra(doc):
    return _read(doc, "comultiplication")


def doc_to_bialgebra(doc) -> BialgebraData:
    return _read(doc, "bialgebra")


def doc_to_rmatrix(doc):
    """Returns (algebra, tensor, dual_derivation); the map defaults to the
    negated derivation when the field is absent."""
    return _read(doc, "rmatrix")


def doc_to_bilinear_form(doc):
    return _read(doc, "bilinear-form")


# ---------------------------------------------------------------------------
# domain objects -> documents


def _sparse_entries(table, axes):
    """Sparse entries [indices..., "p/q"] of a stored table whose positions
    are in the order ``axes`` names, sorted by their indices."""
    return [[*idx, format_scalar(x)] for *idx, x in sorted(_entries(table, axes))]


def _field(value):
    """A structure's stored table and its axes, or None for no structure."""
    return value and (value._sparse, value._axes)


def _document(kind, space, description, fields):
    """A document of `kind` on `space` (None when its embedded algebra gives
    it): the header, then each field given, in canonical key order.  A
    field is given as its embedded document or as (stored table, axes)."""
    doc = {"kind": kind}
    if description:
        doc["description"] = description
    if space is not None:
        doc["dim"], doc["basis"] = space.dim, list(space.labels)
    for name in _SCHEMA[kind]:
        value = fields.get(name)
        if value is not None:
            doc[name] = value if name == "algebra" else _sparse_entries(*value)
    return doc


def _algebra_fields(alg: RelPoissonAlgebra):
    return {name: _field(getattr(alg, name)) for name in ("dot", "bracket", "derivation")}


def _coalgebra_fields(dot_comult, bracket_comult, codrv: LinearMap):
    return dict(
        dot_comult=_field(dot_comult),
        bracket_comult=_field(bracket_comult),
        dual_derivation=_field(codrv),
    )


def single_op_doc(kind: str, op: BilinearOp, der: LinearMap | None = None, description=None):
    fields = dict(product=_field(op), derivation=_field(der))
    return _document(kind, op.space, description, fields)


def rel_poisson_doc(alg: RelPoissonAlgebra, form: BilinearForm | None = None, description=None):
    fields = dict(_algebra_fields(alg), form=_field(form))
    return _document("rel-poisson", alg.space, description, fields)


def rel_pre_poisson_doc(pp: RelPrePoissonAlgebra, description=None):
    fields = {name: _field(getattr(pp, name)) for name in ("star", "circ", "derivation")}
    return _document("rel-pre-poisson", pp.space, description, fields)


def representation_doc(rep: RepData, operator: LinearMap | None = None, description=None):
    fields = dict(
        algebra=rel_poisson_doc(rep.algebra),
        dot_action=(rep._mu, _FAMILY),
        bracket_action=(rep._rho, _FAMILY),
        der_action=_field(rep._alpha),
        operator=_field(operator),
    )
    return _document("representation", rep.space, description, fields)


def coalgebra_doc(dot_comult, bracket_comult, codrv, description=None):
    fields = _coalgebra_fields(dot_comult, bracket_comult, codrv)
    return _document("comultiplication", dot_comult.space, description, fields)


def bialgebra_doc(data: BialgebraData, description=None):
    fields = _coalgebra_fields(data.dot_comult, data.bracket_comult, data.dual_derivation)
    fields.update(_algebra_fields(data.algebra))
    return _document("bialgebra", data.algebra.space, description, fields)


def rmatrix_doc(alg: RelPoissonAlgebra, tensor: Tensor2, codrv: LinearMap, description=None):
    fields = dict(algebra=rel_poisson_doc(alg), r=_field(tensor), dual_derivation=_field(codrv))
    return _document("rmatrix", None, description, fields)


# ---------------------------------------------------------------------------
# canonical text form


def _canonical_value(value, indent):
    pad = " " * indent
    if isinstance(value, dict):
        return _canonical_object(value, indent)
    if isinstance(value, list) and value and all(isinstance(e, list) for e in value):
        rows = ",\n".join(pad + " " + json.dumps(e) for e in sorted(value))
        return "[\n" + rows + "\n" + pad + "]"
    return json.dumps(value)


def _canonical_object(doc, indent=0):
    pad = " " * indent
    kind = doc.get("kind")
    keys = [k for k in (*_HEADER, *(_SCHEMA[kind] if kind in KINDS else ())) if k in doc]
    keys += [k for k in doc if k not in keys]
    lines = [pad + " " + json.dumps(k) + ": " + _canonical_value(doc[k], indent + 1) for k in keys]
    return "{\n" + ",\n".join(lines) + "\n" + pad + "}"


def serialize_document(doc) -> str:
    """Canonical text: sorted entries, reduced fractions, fixed key order."""
    validate_document(doc)
    return _canonical_object(_Reader(doc).canonical()) + "\n"


def parse_document(text: str):
    """Parse and validate a structure document from its text form."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise DocumentError("invalid JSON: nested too deeply") from None
    validate_document(doc)
    return doc


__all__ = [
    "KINDS",
    "DocumentError",
    "parse_scalar_string",
    "format_scalar",
    "validate_document",
    "parse_document",
    "serialize_document",
    "doc_to_single_op",
    "doc_to_rel_poisson",
    "doc_to_rel_pre_poisson",
    "doc_to_representation",
    "doc_to_coalgebra",
    "doc_to_bialgebra",
    "doc_to_rmatrix",
    "doc_to_bilinear_form",
    "single_op_doc",
    "rel_poisson_doc",
    "rel_pre_poisson_doc",
    "representation_doc",
    "coalgebra_doc",
    "bialgebra_doc",
    "rmatrix_doc",
]
