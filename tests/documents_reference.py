"""Reference oracle: the document readers, writers, validator and
serializer as written before one per-kind field table drove them.  Every
function keeps its library name; calls between them stay inside this
module.  ``DocumentError`` is the library's own class, so a rejection here
and there is the same exception.  Tests compare the library against these;
delete this module together with the differential test once the
table-driven code has been trusted long enough.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from relpoisson.algebra import BilinearOp, RelPoissonAlgebra
from relpoisson.coalgebra import BialgebraData, Comultiplication
from relpoisson.documents import DocumentError
from relpoisson.linalg import LinearMap, Space, Tensor2
from dense_matrices import mat_neg
from relpoisson.pairing import BilinearForm
from relpoisson.prepoisson import RelPrePoissonAlgebra
from relpoisson.representations import RepData

KINDS = (
    "comm-assoc",
    "lie",
    "rel-poisson",
    "zinbiel",
    "pre-lie",
    "rel-pre-poisson",
    "representation",
    "comultiplication",
    "bialgebra",
    "rmatrix",
    "bilinear-form",
)

_SINGLE_OP_KINDS = ("comm-assoc", "lie", "zinbiel", "pre-lie")

# field name -> number of indices per entry, for each kind
_FIELDS = {
    "comm-assoc": {"product": 3, "derivation": 2},
    "lie": {"product": 3, "derivation": 2},
    "zinbiel": {"product": 3, "derivation": 2},
    "pre-lie": {"product": 3, "derivation": 2},
    "rel-poisson": {"dot": 3, "bracket": 3, "derivation": 2, "form": 2},
    "rel-pre-poisson": {"star": 3, "circ": 3, "derivation": 2},
    "representation": {
        "dot_action": 3,
        "bracket_action": 3,
        "der_action": 2,
        "operator": 2,
        "beta": 2,
        "dual_derivation": 2,
    },
    "comultiplication": {"dot_comult": 3, "bracket_comult": 3, "dual_derivation": 2},
    "bialgebra": {
        "dot": 3,
        "bracket": 3,
        "derivation": 2,
        "dual_derivation": 2,
        "dot_comult": 3,
        "bracket_comult": 3,
    },
    "rmatrix": {"r": 2, "dual_derivation": 2},
    "bilinear-form": {"gram": 2},
}

_REQUIRED = {
    "comm-assoc": ("product",),
    "lie": ("product",),
    "zinbiel": ("product",),
    "pre-lie": ("product",),
    "rel-poisson": ("dot", "bracket", "derivation"),
    "rel-pre-poisson": ("star", "circ", "derivation"),
    "representation": ("dot_action", "bracket_action", "der_action"),
    "comultiplication": ("dot_comult", "bracket_comult", "dual_derivation"),
    "bialgebra": (
        "dot",
        "bracket",
        "derivation",
        "dual_derivation",
        "dot_comult",
        "bracket_comult",
    ),
    "rmatrix": ("r",),
    "bilinear-form": ("gram",),
}

_NESTED_ALGEBRA = {"representation": True, "rmatrix": True, "bilinear-form": False}

_KEY_ORDER = (
    "kind",
    "description",
    "dim",
    "basis",
    "algebra",
    "product",
    "dot",
    "bracket",
    "star",
    "circ",
    "derivation",
    "dual_derivation",
    "dot_action",
    "bracket_action",
    "der_action",
    "operator",
    "beta",
    "dot_comult",
    "bracket_comult",
    "r",
    "gram",
    "form",
)


_SCALAR = r"-?\d+(/\d+)?"  # matched with re.ASCII, so \d is [0-9]


def _is_int(value) -> bool:
    """A JSON integer; JSON booleans parse as bool, a subclass of int."""
    return isinstance(value, int) and not isinstance(value, bool)


def parse_scalar_string(text) -> Fraction:
    """An integer or a fraction "p/q", optionally negative, in ASCII digits."""
    if not isinstance(text, str):
        raise DocumentError(f"scalar must be a string, got {text!r}")
    if not re.fullmatch(_SCALAR, text, re.ASCII):
        raise DocumentError(f"malformed scalar {text!r}: expected an integer or p/q")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise DocumentError(f"malformed scalar {text!r}: {exc}") from None


def format_scalar(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _validate_entries(name, raw, arity, bound, extra_bound=None):
    """Validate a sparse entry list; returns [(indices..., Fraction)]."""
    if not isinstance(raw, list):
        raise DocumentError(f"field {name!r} must be a list of entries")
    seen = set()
    out = []
    for entry in raw:
        if not isinstance(entry, list) or len(entry) != arity + 1:
            raise DocumentError(
                f"entry in {name!r} must be {arity} indices plus a scalar: {entry!r}"
            )
        idx = tuple(entry[:arity])
        for pos, i in enumerate(idx):
            limit = bound if extra_bound is None or pos > 0 else extra_bound
            if not _is_int(i) or i < 0 or i >= limit:
                raise DocumentError(f"index out of range in {name!r}: {entry!r}")
        if idx in seen:
            raise DocumentError(f"duplicate entry in {name!r}: {list(idx)}")
        seen.add(idx)
        value = parse_scalar_string(entry[arity])
        out.append(idx + (value,))
    return out


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


def _op_from(doc, name, space) -> BilinearOp:
    entries = _validate_entries(name, doc.get(name, []), 3, space.dim)
    return BilinearOp.from_entries(space, entries)


def _map_from(doc, name, space, codomain=None) -> LinearMap:
    codomain = codomain or space
    entries = _validate_entries(
        name, doc.get(name, []), 2, space.dim, extra_bound=codomain.dim
    )
    rows = [[Fraction(0)] * space.dim for _ in range(codomain.dim)]
    for i, j, value in entries:
        rows[i][j] = value
    return LinearMap(space, codomain, tuple(tuple(r) for r in rows))


def _comult_from(doc, name, space) -> Comultiplication:
    entries = _validate_entries(name, doc.get(name, []), 3, space.dim)
    return Comultiplication.from_entries(space, entries)


def validate_document(doc) -> str:
    """Checks the overall shape of a parsed document; returns its kind."""
    if not isinstance(doc, dict):
        raise DocumentError("document must be a JSON object")
    kind = doc.get("kind")
    if kind not in KINDS:
        raise DocumentError(f"unknown kind: {kind!r}")
    for name in _REQUIRED[kind]:
        if name not in doc:
            raise DocumentError(f"kind {kind!r} requires field {name!r}")
    known = set(_FIELDS[kind]) | {"kind", "description", "dim", "basis"}
    if _NESTED_ALGEBRA.get(kind) is not None:
        known.add("algebra")
    for key in doc:
        if key not in known:
            raise DocumentError(f"unknown field {key!r} for kind {kind!r}")
    return kind


# ---------------------------------------------------------------------------
# document -> domain objects


def doc_to_single_op(doc):
    """For the single-operation kinds: (op, optional derivation)."""
    space = _space_of(doc)
    op = _op_from(doc, "product", space)
    der = _map_from(doc, "derivation", space) if "derivation" in doc else None
    return op, der


def doc_to_rel_poisson(doc):
    space = _space_of(doc)
    alg = RelPoissonAlgebra(
        space,
        _op_from(doc, "dot", space),
        _op_from(doc, "bracket", space),
        _map_from(doc, "derivation", space),
    )
    form = None
    if "form" in doc:
        entries = _validate_entries("form", doc["form"], 2, space.dim)
        rows = [[Fraction(0)] * space.dim for _ in range(space.dim)]
        for i, j, value in entries:
            rows[i][j] = value
        form = BilinearForm(space, tuple(tuple(r) for r in rows))
    return alg, form


def doc_to_rel_pre_poisson(doc) -> RelPrePoissonAlgebra:
    space = _space_of(doc)
    return RelPrePoissonAlgebra(
        space,
        _op_from(doc, "star", space),
        _op_from(doc, "circ", space),
        _map_from(doc, "derivation", space),
    )


def _nested_algebra(doc) -> RelPoissonAlgebra:
    inner = doc.get("algebra")
    if not isinstance(inner, dict):
        raise DocumentError("missing embedded algebra object")
    if inner.get("kind") != "rel-poisson":
        raise DocumentError("embedded algebra must have kind rel-poisson")
    validate_document(inner)
    alg, _ = doc_to_rel_poisson(inner)
    return alg


def doc_to_representation(doc):
    """Returns (RepData, extras) with optional operator/beta/dual_derivation."""
    alg = _nested_algebra(doc)
    space = _space_of(doc)
    n, m = alg.dim, space.dim
    mu = [[[Fraction(0)] * m for _ in range(m)] for _ in range(n)]
    rho = [[[Fraction(0)] * m for _ in range(m)] for _ in range(n)]
    for name, target in (("dot_action", mu), ("bracket_action", rho)):
        entries = doc.get(name, [])
        if not isinstance(entries, list):
            raise DocumentError(f"field {name!r} must be a list of entries")
        seen = set()
        for entry in entries:
            if not isinstance(entry, list) or len(entry) != 4:
                raise DocumentError(f"entry in {name!r} must be [x, i, j, scalar]")
            x, i, j = entry[:3]
            for val, bound in ((x, n), (i, m), (j, m)):
                if not _is_int(val) or val < 0 or val >= bound:
                    raise DocumentError(f"index out of range in {name!r}: {entry!r}")
            if (x, i, j) in seen:
                raise DocumentError(f"duplicate entry in {name!r}: {entry[:3]}")
            seen.add((x, i, j))
            target[x][i][j] = parse_scalar_string(entry[3])
    alpha_entries = _validate_entries("der_action", doc.get("der_action", []), 2, m)
    alpha = [[Fraction(0)] * m for _ in range(m)]
    for i, j, value in alpha_entries:
        alpha[i][j] = value
    rep = RepData(
        algebra=alg,
        space=space,
        dot_action=tuple(tuple(tuple(r) for r in mat) for mat in mu),
        bracket_action=tuple(tuple(tuple(r) for r in mat) for mat in rho),
        der_action=tuple(tuple(r) for r in alpha),
    )
    extras = {}
    if "operator" in doc:
        extras["operator"] = _map_from(doc, "operator", space, codomain=alg.space)
    if "beta" in doc:
        extras["beta"] = _map_from(doc, "beta", space)
    if "dual_derivation" in doc:
        extras["dual_derivation"] = _map_from(doc, "dual_derivation", alg.space)
    return rep, extras


def doc_to_coalgebra(doc):
    space = _space_of(doc)
    return (
        _comult_from(doc, "dot_comult", space),
        _comult_from(doc, "bracket_comult", space),
        _map_from(doc, "dual_derivation", space),
    )


def doc_to_bialgebra(doc) -> BialgebraData:
    space = _space_of(doc)
    alg = RelPoissonAlgebra(
        space,
        _op_from(doc, "dot", space),
        _op_from(doc, "bracket", space),
        _map_from(doc, "derivation", space),
    )
    return BialgebraData(
        algebra=alg,
        dot_comult=_comult_from(doc, "dot_comult", space),
        bracket_comult=_comult_from(doc, "bracket_comult", space),
        dual_derivation=_map_from(doc, "dual_derivation", space),
    )


def doc_to_rmatrix(doc):
    """Returns (algebra, tensor, dual_derivation); the map defaults to the
    negated derivation when the field is absent."""
    alg = _nested_algebra(doc)
    entries = _validate_entries("r", doc.get("r", []), 2, alg.dim)
    rows = [[Fraction(0)] * alg.dim for _ in range(alg.dim)]
    for i, j, value in entries:
        rows[i][j] = value
    tensor = Tensor2(alg.space, alg.space, tuple(tuple(r) for r in rows))
    if "dual_derivation" in doc:
        codrv = _map_from(doc, "dual_derivation", alg.space)
    else:
        codrv = LinearMap(alg.space, alg.space, mat_neg(alg.derivation.entries))
    return alg, tensor, codrv


def doc_to_bilinear_form(doc):
    alg = None
    if "algebra" in doc:
        alg = _nested_algebra(doc)
        space = alg.space
    else:
        space = _space_of(doc)
    entries = _validate_entries("gram", doc.get("gram", []), 2, space.dim)
    rows = [[Fraction(0)] * space.dim for _ in range(space.dim)]
    for i, j, value in entries:
        rows[i][j] = value
    return BilinearForm(space, tuple(tuple(r) for r in rows)), alg


# ---------------------------------------------------------------------------
# domain objects -> documents


def _entries_of_op(op: BilinearOp):
    return [
        [i, j, k, format_scalar(v)] for i, j, k, v in op.nonzero_entries()
    ]


def _entries_of_matrix(mat):
    out = []
    for i, row in enumerate(mat):
        for j, x in enumerate(row):
            if x:
                out.append([i, j, format_scalar(x)])
    return out


def _entries_of_comult(com: Comultiplication):
    return [
        [i, j, k, format_scalar(v)] for i, j, k, v in sorted(com.nonzero_entries())
    ]


def single_op_doc(kind: str, op: BilinearOp, der: LinearMap | None = None, description=None):
    doc = {"kind": kind, "dim": op.space.dim, "basis": list(op.space.labels)}
    if description:
        doc["description"] = description
    doc["product"] = _entries_of_op(op)
    if der is not None:
        doc["derivation"] = _entries_of_matrix(der.entries)
    return doc


def rel_poisson_doc(alg: RelPoissonAlgebra, form: BilinearForm | None = None, description=None):
    doc = {"kind": "rel-poisson", "dim": alg.dim, "basis": list(alg.space.labels)}
    if description:
        doc["description"] = description
    doc["dot"] = _entries_of_op(alg.dot)
    doc["bracket"] = _entries_of_op(alg.bracket)
    doc["derivation"] = _entries_of_matrix(alg.derivation.entries)
    if form is not None:
        doc["form"] = _entries_of_matrix(form.gram)
    return doc


def rel_pre_poisson_doc(pp: RelPrePoissonAlgebra, description=None):
    doc = {"kind": "rel-pre-poisson", "dim": pp.dim, "basis": list(pp.space.labels)}
    if description:
        doc["description"] = description
    doc["star"] = _entries_of_op(pp.star)
    doc["circ"] = _entries_of_op(pp.circ)
    doc["derivation"] = _entries_of_matrix(pp.derivation.entries)
    return doc


def representation_doc(rep: RepData, operator: LinearMap | None = None, description=None):
    doc = {
        "kind": "representation",
        "dim": rep.space.dim,
        "basis": list(rep.space.labels),
        "algebra": rel_poisson_doc(rep.algebra),
    }
    if description:
        doc["description"] = description
    mu_entries = []
    rho_entries = []
    for x in range(rep.algebra.dim):
        for i, row in enumerate(rep.dot_action[x]):
            for j, v in enumerate(row):
                if v:
                    mu_entries.append([x, i, j, format_scalar(v)])
        for i, row in enumerate(rep.bracket_action[x]):
            for j, v in enumerate(row):
                if v:
                    rho_entries.append([x, i, j, format_scalar(v)])
    doc["dot_action"] = mu_entries
    doc["bracket_action"] = rho_entries
    doc["der_action"] = _entries_of_matrix(rep.der_action)
    if operator is not None:
        doc["operator"] = _entries_of_matrix(operator.entries)
    return doc


def coalgebra_doc(dot_comult, bracket_comult, codrv, description=None):
    doc = {
        "kind": "comultiplication",
        "dim": dot_comult.space.dim,
        "basis": list(dot_comult.space.labels),
    }
    if description:
        doc["description"] = description
    doc["dot_comult"] = _entries_of_comult(dot_comult)
    doc["bracket_comult"] = _entries_of_comult(bracket_comult)
    doc["dual_derivation"] = _entries_of_matrix(codrv.entries)
    return doc


def bialgebra_doc(data: BialgebraData, description=None):
    alg = data.algebra
    doc = {"kind": "bialgebra", "dim": alg.dim, "basis": list(alg.space.labels)}
    if description:
        doc["description"] = description
    doc["dot"] = _entries_of_op(alg.dot)
    doc["bracket"] = _entries_of_op(alg.bracket)
    doc["derivation"] = _entries_of_matrix(alg.derivation.entries)
    doc["dual_derivation"] = _entries_of_matrix(data.dual_derivation.entries)
    doc["dot_comult"] = _entries_of_comult(data.dot_comult)
    doc["bracket_comult"] = _entries_of_comult(data.bracket_comult)
    return doc


def rmatrix_doc(alg: RelPoissonAlgebra, tensor: Tensor2, codrv: LinearMap, description=None):
    doc = {
        "kind": "rmatrix",
        "algebra": rel_poisson_doc(alg),
        "r": _entries_of_matrix(tensor.coeffs),
        "dual_derivation": _entries_of_matrix(codrv.entries),
    }
    if description:
        doc["description"] = description
    return doc


# ---------------------------------------------------------------------------
# canonical text form


def _canonical_value(value, indent):
    pad = " " * indent
    if isinstance(value, dict):
        return _canonical_object(value, indent)
    if isinstance(value, list):
        if value and all(isinstance(e, list) for e in value):
            rows = ",\n".join(pad + " " + json.dumps(e) for e in sorted(value))
            return "[\n" + rows + "\n" + pad + "]"
        return json.dumps(value)
    return json.dumps(value)


def _canonical_object(doc, indent=0):
    pad = " " * indent
    keys = [k for k in _KEY_ORDER if k in doc]
    keys += [k for k in doc if k not in keys]
    lines = []
    for key in keys:
        lines.append(
            pad + " " + json.dumps(key) + ": " + _canonical_value(doc[key], indent + 1)
        )
    return "{\n" + ",\n".join(lines) + "\n" + pad + "}"


def serialize_document(doc) -> str:
    """Canonical text: sorted entries, reduced fractions, fixed key order."""
    validate_document(doc)
    return _canonical_object(_normalize(doc)) + "\n"


def _normalize(doc):
    out = {}
    for key, value in doc.items():
        if key == "algebra" and isinstance(value, dict):
            out[key] = _normalize(value)
        elif isinstance(value, list) and value and all(isinstance(e, list) for e in value):
            canon = []
            for entry in value:
                scalar_value = parse_scalar_string(entry[-1])
                if scalar_value:
                    canon.append(list(entry[:-1]) + [format_scalar(scalar_value)])
            out[key] = sorted(canon)
        else:
            out[key] = value
    return out


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
