"""Seeded inputs for the benchmark workloads.

Everything here is rebuilt from the seed on every run, and nothing is
imported from the test suite, so editing a test cannot change what the
benchmark measures.  The package is imported inside each function: set-up
re-imports ``relpoisson`` and the inputs must be built from the module
objects the measured operations will use.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction as F

# Diagonal derivation values for the padded basis vectors.  They are
# positive like the worked eigenvalues 1, 2, 3, so sums of eigenvalues
# cannot cancel: the seed changes the values of the structure constants,
# not which of them are non-zero, and so not the amount of work.
_PAD_EIGENVALUES = (1, 2, 3, 4, 5)


# ---------------------------------------------------------------------------
# pipeline: the worked Zinbiel algebra padded to dim n


def padded_zinbiel(n: int, rng: random.Random):
    """The worked 3-dim Zinbiel algebra e1*e1 = e1*e2 = e3 with derivation
    D(e1) = e1+e2, D(e2) = 2e2, D(e3) = 3e3, padded to dim n by basis
    vectors that multiply to zero and carry a seed-chosen non-zero
    eigenvalue of D.  Returns the relative pre-Poisson algebra."""
    import relpoisson as rp

    if n < 3:
        raise ValueError("the padded family starts at n = 3")
    sp = rp.Space.of_dim(n)
    star = rp.BilinearOp.from_entries(sp, [(0, 0, 2, 1), (0, 1, 2, 1)])
    rows = [[F(0)] * n for _ in range(n)]
    rows[0][0], rows[1][0], rows[1][1], rows[2][2] = F(1), F(1), F(2), F(3)
    for k in range(3, n):
        rows[k][k] = F(rng.choice(_PAD_EIGENVALUES))
    der = rp.LinearMap(sp, sp, tuple(tuple(r) for r in rows))
    return rp.RelPrePoissonAlgebra(sp, star, rp.circ_from_derivation(star, der), der)


def pipeline_inputs(seed: int, n: int, count: int):
    rng = random.Random(f"pipeline:{seed}")
    return [padded_zinbiel(n, rng) for _ in range(count)]


# ---------------------------------------------------------------------------
# equivalence: the acceptance corpus and single-constant perturbations


def _neg_map(m):
    import relpoisson as rp

    return rp.LinearMap(m.domain, m.codomain, tuple(tuple(-x for x in r) for r in m.entries))


def _linmap(sp, rows):
    import relpoisson as rp

    return rp.LinearMap(sp, sp, tuple(tuple(F(x) for x in r) for r in rows))


def _zinbiel3(a, b):
    import relpoisson as rp

    sp = rp.Space.of_dim(3)
    star = rp.BilinearOp.from_entries(sp, [(0, 0, 2, 1), (0, 1, 2, 1)])
    a, b = F(a), F(b)
    return star, _linmap(sp, ((a, 0, 0), (b, a + b, 0), (0, 0, 2 * a + b)))


def _prepoisson(star, der):
    import relpoisson as rp

    return rp.RelPrePoissonAlgebra(star.space, star, rp.circ_from_derivation(star, der), der)


def _rel_poisson(sp, dot_entries, bracket=None, der_rows=None):
    import relpoisson as rp

    dot = rp.BilinearOp.from_entries(sp, dot_entries)
    der = _linmap(sp, der_rows) if der_rows else rp.LinearMap.zero(sp)
    if bracket is None:
        bracket = rp.bracket_from_derivation(dot, der)
    return rp.RelPoissonAlgebra(sp, dot, bracket, der)


def rel_poisson_corpus():
    """Verified relative Poisson algebras of dims 1-3: zero algebras,
    unital and truncated polynomial algebras, Heisenberg-type brackets and
    the sub-adjacent algebras of two Zinbiel algebras."""
    import relpoisson as rp

    sp1, sp2, sp3 = (rp.Space.of_dim(n) for n in (1, 2, 3))
    heis = rp.BilinearOp.from_entries(sp3, [(0, 1, 2, 1), (1, 0, 2, -1)])
    corpus = [(f"zero-{n}", _rel_poisson(rp.Space.of_dim(n), [])) for n in (1, 2, 3)]
    corpus += [
        ("unital-1", _rel_poisson(sp1, [(0, 0, 0, 1)])),
        ("truncated-2", _rel_poisson(sp2, [(0, 0, 1, 1)], der_rows=((1, 0), (0, 2)))),
        ("truncated-2b", _rel_poisson(sp2, [(0, 0, 1, 1)], der_rows=((1, 0), (1, 2)))),
        (
            "unital-2",
            _rel_poisson(sp2, [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1)], der_rows=((0, 0), (0, 1))),
        ),
        ("unital-2-abelian", _rel_poisson(sp2, [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1)])),
        ("heisenberg-poisson", _rel_poisson(sp3, [(0, 1, 2, 1), (1, 0, 2, 1)], bracket=heis)),
        ("heisenberg-lie", _rel_poisson(sp3, [], bracket=heis, der_rows=((1, 0, 0), (0, 1, 0), (0, 0, 2)))),
        ("heisenberg-lie-flat", _rel_poisson(sp3, [], bracket=heis)),
        ("worked-3", rp.subadjacent(_prepoisson(*_zinbiel3(1, 1)))[0]),
        ("worked-3-variant", rp.subadjacent(_prepoisson(*_zinbiel3(1, 0)))[0]),
    ]
    return corpus


def bialgebra_corpus(worked_bialgebra):
    """The 29 bialgebras of the acceptance corpus, dims 1-7: the trivial
    bialgebra of each corpus algebra and its dual, two coboundary
    bialgebras, and the pipeline's 7-dim bialgebra."""
    import relpoisson as rp

    out = []
    for name, alg in rel_poisson_corpus():
        data = rp.BialgebraData(
            alg,
            rp.Comultiplication.zero(alg.space),
            rp.Comultiplication.zero(alg.space),
            _neg_map(alg.derivation),
        )
        out.append((f"trivial:{name}", data))
        out.append((f"dual:{name}", rp.dualize_bialgebra(data)))
    zero1 = rp.Space.of_dim(1)
    zero_pp = rp.RelPrePoissonAlgebra(
        zero1, rp.BilinearOp.zero(zero1), rp.BilinearOp.zero(zero1), rp.LinearMap.zero(zero1)
    )
    for tag, pp in (("coboundary-6", _prepoisson(*_zinbiel3(1, 1))), ("coboundary-2", zero_pp)):
        semidirect, r = rp.prepoisson_to_rmatrix(pp)
        dcom, bcom = rp.coboundary_comults(semidirect, r)
        out.append((tag, rp.BialgebraData(semidirect, dcom, bcom, _neg_map(semidirect.derivation))))
    out.append(("worked-7", worked_bialgebra))
    return out


_FIELDS = ("dot", "bracket", "dot_comult", "bracket_comult", "dual_derivation")

# Seeded perturbations per instance, by dimension.  A 3-dim instance has
# 27 positions per product or comultiplication, against 8 at dim 2 and 1
# at dim 1, so it gets more of the seed-drawn positions.  The 6- and 7-dim
# instances cost ten times more per verdict and get none, which keeps a
# pass short enough to repeat several times in a run.
_SEEDED_PERTURBATIONS = {1: 1, 2: 1, 3: 8}


def _bump(data, field, idx):
    """A copy of a bialgebra candidate with 1 added to one structure
    constant.  Products are indexed (i, j, k) for e_i * e_j -> e_k,
    comultiplications (i, j, k) for e_k -> e_i (x) e_j, maps (row, col)."""
    import relpoisson as rp

    alg = data.algebra
    parts = {
        "dot": alg.dot,
        "bracket": alg.bracket,
        "dot_comult": data.dot_comult,
        "bracket_comult": data.bracket_comult,
        "dual_derivation": data.dual_derivation,
    }
    if field in ("dot", "bracket"):
        table = [[list(vec) for vec in row] for row in parts[field].table]
        i, j, k = idx
        table[i][j][k] += 1
        parts[field] = rp.BilinearOp(alg.space, tuple(tuple(tuple(v) for v in r) for r in table))
    elif field in ("dot_comult", "bracket_comult"):
        cols = [[list(row) for row in col] for col in parts[field].columns]
        i, j, k = idx
        cols[k][i][j] += 1
        parts[field] = rp.Comultiplication(alg.space, cols)
    else:
        rows = [list(r) for r in data.dual_derivation.entries]
        rows[idx[0]][idx[1]] += 1
        parts[field] = rp.LinearMap(alg.space, alg.space, tuple(tuple(r) for r in rows))
    new_alg = rp.RelPoissonAlgebra(alg.space, parts["dot"], parts["bracket"], alg.derivation)
    return rp.BialgebraData(new_alg, parts["dot_comult"], parts["bracket_comult"], parts["dual_derivation"])


def fixed_perturbations(n: int):
    """The acceptance suite's deterministic single-constant edits."""
    yield "bracket-diagonal", "bracket", (0, 0, 0)
    if n > 1:
        yield "dot-asymmetric", "dot", (0, 1, 0)
        yield "bracket-offdiag", "bracket", (0, 1, n - 1)
    yield "bracket-comult-diagonal", "bracket_comult", (0, 0, 0)
    if n > 1:
        yield "dot-comult-asymmetric", "dot_comult", (0, 1, 0)
    yield "coderivation-shift", "dual_derivation", (0, 0)


def equivalence_ops(seed: int, worked_bialgebra):
    """(name, bialgebra candidate, perturbed) for every corpus instance,
    its fixed perturbations, and perturbations whose field and position are
    drawn from the seed."""
    rng = random.Random(f"equivalence:{seed}")
    ops = []
    for name, data in bialgebra_corpus(worked_bialgebra):
        n = data.algebra.dim
        ops.append((name, data, False))
        for tag, field, idx in fixed_perturbations(n):
            ops.append((f"{name}/{tag}", _bump(data, field, idx), True))
        for j in range(_SEEDED_PERTURBATIONS.get(n, 0)):
            field = rng.choice(_FIELDS)
            idx = tuple(rng.randrange(n) for _ in range(2 if field == "dual_derivation" else 3))
            ops.append((f"{name}/seed{j}:{field}{list(idx)}", _bump(data, field, idx), True))
    return ops


# ---------------------------------------------------------------------------
# cli: shipped fixtures plus generated, perturbed and malformed documents


def _write(path, text):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _bump_entry(entries, idx):
    """Adds 1 to the entry at the given indices, creating it if absent."""
    for entry in entries:
        if tuple(entry[:-1]) == idx:
            entry[-1] = str(F(entry[-1]) + 1)
            return
    entries.append(list(idx) + ["1"])


def cli_documents(seed: int, fixtures: str, gen: str, out: str):
    """Writes the generated documents under ``gen`` and returns the fixed
    invocation list: (name, argv, expected exit code, output file or None).
    Paths are relative to the checkout root, the children's working
    directory."""
    import relpoisson as rp
    from relpoisson import documents

    rng = random.Random(f"cli:{seed}")
    pp = padded_zinbiel(5, rng)
    sub, _rep = rp.subadjacent(pp)
    pp_doc = documents.rel_pre_poisson_doc(pp)
    sub_doc = documents.rel_poisson_doc(sub)
    with open(os.path.join(fixtures, "bialgebra_7d.json"), encoding="utf-8") as handle:
        bial_doc = documents.parse_document(handle.read())
    dual_doc = documents.bialgebra_doc(rp.dualize_bialgebra(documents.doc_to_bialgebra(bial_doc)))

    def emit(name, doc=None, text=None):
        path = os.path.join(gen, name)
        _write(path, text if text is not None else documents.serialize_document(doc))
        return path

    # guaranteed axiom failures at seed-chosen positions: a padded vector
    # that squares to itself breaks the Zinbiel identity; a non-zero
    # [e_i, e_i] breaks antisymmetry; a one-sided dot entry breaks
    # commutativity.
    bad_pp = json.loads(json.dumps(pp_doc))
    i = rng.randrange(3, 5)
    _bump_entry(bad_pp["star"], (i, i, i))
    bad_bial = json.loads(json.dumps(bial_doc))
    i, k = rng.randrange(7), rng.randrange(7)
    _bump_entry(bad_bial["bracket"], (i, i, k))
    bad_sub = json.loads(json.dumps(sub_doc))
    i, j = rng.sample(range(5), 2)
    _bump_entry(bad_sub["dot"], (i, j, rng.randrange(5)))

    # parse failures: a bad scalar, an out-of-range index, an unknown
    # field, and text cut before the closing brace
    bad_scalar = json.loads(json.dumps(sub_doc))
    entry = rng.choice(bad_scalar["bracket"])
    entry[-1] = rng.choice(("1/0", "x", ""))
    bad_index = json.loads(json.dumps(pp_doc))
    rng.choice(bad_index["star"])[rng.randrange(3)] = pp.dim
    unknown = dict(sub_doc, **{rng.choice(("comment", "version", "Dot")): []})
    pp_text = documents.serialize_document(pp_doc)
    cut = pp_text[: rng.randrange(1, len(pp_text) - 2)]

    pp_path = emit("pp_pad5.json", pp_doc)
    sub_path = emit("sub_pad5.json", sub_doc)
    bad_pp_path = emit("pp_zinbiel_broken.json", bad_pp)
    bad_bial_path = emit("bialgebra_antisymmetry_broken.json", bad_bial)
    bad_sub_path = emit("rel_poisson_commutativity_broken.json", bad_sub)
    dual_path = emit("bialgebra_dual7d.json", dual_doc)
    fx = {name: os.path.join(fixtures, name) for name in os.listdir(fixtures)}

    def outfile(name):
        return os.path.join(out, name)

    return [
        ("golden-pipeline", ["pipeline", fx["prepoisson_3d.json"], "-o", outfile("golden.json")], 0, outfile("golden.json")),
        ("check-double-14d", ["check", fx["golden_double_14d.json"]], 0, None),
        ("check-json-bialgebra-7d", ["check", "--json", fx["bialgebra_7d.json"]], 0, None),
        ("report-zinbiel-3d", ["report", fx["zinbiel_3d.json"]], 0, None),
        ("construct-subadjacent-zinbiel", ["construct", "subadjacent", fx["zinbiel_3d.json"]], 0, None),
        ("construct-bowtie-7d", ["construct", "bowtie", fx["bialgebra_7d.json"], "-o", outfile("bowtie.json")], 0, outfile("bowtie.json")),
        ("construct-dualize-7d", ["construct", "dualize", fx["bialgebra_7d.json"]], 0, None),
        # a second bowtie of similar cost keeps the 90th percentile inside
        # one cluster of latencies instead of on the edge between two
        ("construct-bowtie-dual7d", ["construct", "bowtie", dual_path, "-o", outfile("bowtie_dual.json")], 0, outfile("bowtie_dual.json")),
        ("pipeline-json-zero-1d", ["pipeline", "--json", fx["prepoisson_zero_1d.json"]], 0, None),
        ("check-pp-pad5", ["check", pp_path], 0, None),
        ("report-sub-pad5", ["report", "--json", sub_path], 0, None),
        ("construct-extend-jacobi-pad5", ["construct", "extend-jacobi", sub_path, "-o", outfile("extended.json")], 0, outfile("extended.json")),
        ("check-bialgebra-broken", ["check", "--json", bad_bial_path], 1, None),
        ("report-rel-poisson-broken", ["report", bad_sub_path], 1, None),
        ("check-pp-broken", ["check", bad_pp_path], 1, None),
        ("extend-jacobi-broken", ["construct", "extend-jacobi", bad_sub_path], 2, None),
        ("pipeline-broken", ["pipeline", bad_pp_path], 2, None),
        ("check-bad-scalar", ["check", emit("bad_scalar.json", text=json.dumps(bad_scalar))], 3, None),
        ("check-bad-index", ["check", emit("bad_index.json", text=json.dumps(bad_index))], 3, None),
        ("check-unknown-field", ["check", emit("unknown_field.json", text=json.dumps(unknown))], 3, None),
        ("check-truncated", ["check", emit("truncated.json", text=cut)], 3, None),
        ("subadjacent-wrong-kind", ["construct", "subadjacent", fx["bialgebra_7d.json"]], 3, None),
    ]
