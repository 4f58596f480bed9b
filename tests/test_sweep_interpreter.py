"""Every term spec of the package, swept and read by a naive dense
interpreter: each term runs every label over its whole range, multiplies
the dense factor entries and sums.  The interpreter shares nothing with
the sweep but the specs, so it catches join bugs (the theorem tests catch
wrong specs, which a shared spec cannot)."""

import functools
import importlib
import itertools
import pkgutil
import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import relpoisson
from relpoisson.algebra import _check, _Checker, _contract, _Use
from relpoisson.linalg import _Table

VALUES = (1, -1, 2, F(1, 2), F(-2, 3))
SIZE = 3  # every table axis has 1 to SIZE entries


def _is_spec(value) -> bool:
    return isinstance(value, tuple) and bool(value) and all(
        isinstance(f, tuple) and len(f) == 4 and all(isinstance(s, str) for s in f) for f in value
    )


def _found(value, name: str):
    """(name, spec) of every spec tuple inside a module-level value."""
    if _is_spec(value):
        yield name, value
    elif isinstance(value, (tuple, dict)):
        for key, item in value.items() if isinstance(value, dict) else enumerate(value):
            yield from _found(item, f"{name}[{key!r}]")


MODULES = [importlib.import_module(f"relpoisson.{m.name}") for m in pkgutil.iter_modules(relpoisson.__path__)]
# a spec that another module imports (prepoisson imports algebra's
# _DERIVATION) keeps the name of the first module, in name order, holding it
SPECS = {}
for module in MODULES:
    for attr, value in vars(module).items():
        for name, families in _found(value, f"{module.__name__.split('.')[-1]}.{attr}"):
            SPECS.setdefault(families, name)


def _terms(terms: str):
    """(sign, [(table, labels), ...]) of each term of a family."""
    found = re.findall(r"([+-]?)\s*([\w:,]+)", terms)
    return [(-1 if sign == "-" else 1, [tuple(f.split(":")) for f in term.split(",")]) for sign, term in found]


@functools.cache
def _renamed(families):
    """The families used inside another checker under the prefix "p:",
    each table NAME bound to the caller's NAME2."""
    names = {t for f in families for _, factors in _terms(f[3]) for t, _ in factors}
    return _Checker(_Use("p:", families, **{t: t + "2" for t in names}))


def _table(rng: random.Random, shape: tuple):
    """A seeded random table of the given shape, zero one time in five, as
    a dense {indices: value} dict and as the sorted entries a sweep reads."""
    cells = itertools.product(*map(range, shape))
    dense = {} if rng.random() < 0.2 else {at: rng.choice(VALUES) for at in cells if rng.random() < 0.5}
    return dense, _Table(tuple(sorted(dense.items())), shape)


def _interpret(families, dense, shapes):
    """The nonzero sums of every family, each label of a term running over
    the longest axis it labels; an entry past a shorter axis is zero."""
    outs = []
    for _axiom, where, defect, terms in families:
        sums = {}
        for sign, factors in _terms(terms):
            labels = list(dict.fromkeys(l for _, ls in factors for l in ls))
            sizes = [max(shapes[t][ls.index(l)] for t, ls in factors if l in ls) for l in labels]
            for values in itertools.product(*map(range, sizes)):
                at = dict(zip(labels, values))
                product = sign
                for t, ls in factors:
                    product *= dense[t].get(tuple(at[l] for l in ls), 0)
                if product:
                    key = tuple(at[l] for l in where + defect)
                    sums[key] = sums.get(key, 0) + product
        outs.append({key: v for key, v in sums.items() if v})
    return outs


def test_the_specs_cover_every_kind_of_term():
    families = [f for spec in SPECS for f in spec]
    assert len(SPECS) >= 50 and "yangbaxter._O_INTERTWINE" in SPECS.values()
    assert any(len(factors) == 1 for f in families for _, factors in _terms(f[3]))
    assert any(where == "" for _, where, _, _ in families)


# each spec swept as it stands, and used by another checker under a prefix
# and other table names, through the same compiled plans
CASES = [(families, prefix) for prefix in ("", "p:") for families in sorted(SPECS, key=SPECS.get)]


@pytest.mark.parametrize(
    "families, prefix", CASES, ids=[SPECS[f] + ("-renamed" if prefix else "") for f, prefix in CASES]
)
@settings(max_examples=6, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_sweep_matches_the_dense_interpreter(families, prefix, seed):
    """Each table axis gets its own random length, so a label can join
    axes of different lengths, and a defect label is as long as the
    longest axis it labels.  A renamed use reports the same violations,
    each axiom under its prefix."""
    rng = random.Random(seed)
    arity = {t: len(ls) for f in families for _, factors in _terms(f[3]) for t, ls in factors}
    shapes = {t: tuple(rng.randint(1, SIZE) for _ in range(arity[t])) for t in sorted(arity)}
    made = {t: _table(rng, shape) for t, shape in shapes.items()}
    expected = _interpret(families, {t: dense for t, (dense, _) in made.items()}, shapes)
    rows = {t: r for t, (_, r) in made.items()}
    checker, tables = (_renamed(families), {t + "2": r for t, r in rows.items()}) if prefix else (families, rows)
    assert [{k: v for k, v in out.items() if v} for out in _contract(checker, tables)] == expected
    # the report lays each nonzero defect out densely, each label as long as
    # the longest axis it labels
    cells = {}
    for fam, ((_, where, _, _), out) in enumerate(zip(families, expected)):
        for key, v in out.items():
            cells.setdefault((key[: len(where)], fam), {})[key[len(where) :]] = v
    want = []
    for (where, fam), values in sorted(cells.items()):
        axiom, _, defect, terms = families[fam]
        sizes = [max(shapes[t][ls.index(l)] for _, fs in _terms(terms) for t, ls in fs if l in ls) for l in defect]
        flat = itertools.product(*map(range, sizes))
        want.append((prefix + axiom, where, tuple(values.get(at, 0) for at in flat)))
    # a report keeps the first violations up to its limit
    for limit in (0, 1, 10**6):
        report = _check(checker, limit, **tables)
        assert [(v.axiom, v.where, v.defect) for v in report.violations] == want[:limit]
        assert (report.ok, report.truncated) == (not want, len(want) > limit)
