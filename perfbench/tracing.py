"""Per-layer instrumentation for the benchmark: spans and exact counts.

Two independent mechanisms, both started from the benchmark's own files so
that the package under test is measured unmodified:

* ``SpanTracer`` wraps every public function and method of each layer
  module and rebinds the wrapper under every name a ``relpoisson``
  namespace holds for it, so calls the package makes to itself are seen
  too.  Each wrapped call is a span; a span's self time is its duration
  minus the time of the spans it opened.  Spans are aggregated in memory
  per function and read out when the run ends.
* ``count_fraction_ops`` runs one callable under ``cProfile`` with
  builtins off and attributes every call of ``Fraction.__bool__`` (a zero
  test) and of Fraction's ``+ - * /`` and unary minus (an arithmetic
  operation) to the layer module whose code made the call.  Counts are
  exact, so two passes over the same input must agree.

Neither is active unless installed; the untraced end-to-end run never
imports the profiler and asserts that no wrapper is in place.
"""

from __future__ import annotations

import cProfile
import fractions
import importlib
import inspect
import os
import sys
import time
from collections import Counter

LAYERS = (
    "linalg",
    "algebra",
    "representations",
    "pairing",
    "coalgebra",
    "yangbaxter",
    "prepoisson",
    "jacobi",
    "documents",
    "cli",
)

CHECKERS = (
    "prepoisson.check_rel_pre_poisson",
    "algebra.check_rel_poisson",
    "algebra.check_jacobi_algebra",
    "representations.check_representation",
    "representations.check_jacobi_representation",
    "yangbaxter.check_weak_o_operator",
    "yangbaxter.check_rpybe",
    "coalgebra.check_bialgebra",
    "pairing.check_matched_pair",
    "pairing.check_manin_triple",
    "pairing.check_invariant_form",
    "pairing.is_nondegenerate",
)

CONSTRUCTIONS = (
    "prepoisson.subadjacent",
    "jacobi.lift_o_operator",
    "yangbaxter.o_operator_to_rmatrix",
    "yangbaxter.coboundary_comults",
    "coalgebra.induced_matched_pair",
    "pairing.combine_matched_pair",
    "coalgebra.dual_rel_poisson_algebra",
)

# documents functions on the text -> structure side; the rest of the public
# documents API (serialize_document, format_scalar, the *_doc builders) is
# the structure -> text side.
_PARSE_PREFIXES = ("parse_", "doc_to_", "validate_")

_FRACTION_ZERO_TEST = ("__bool__",)
# Fraction builds +, -, *, / (and their reflections) from two closures
# named forward and reverse; profiling labels calls by code name.
_FRACTION_ARITH = ("forward", "reverse", "__neg__")


def _layer_modules():
    return {layer: importlib.import_module(f"relpoisson.{layer}") for layer in LAYERS}


def _public_callables(module):
    """(owner, attribute, raw attribute value, function, key) for every
    public function defined in a module and every public method of a
    class defined there."""
    layer = module.__name__.rsplit(".", 1)[1]
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield module, name, obj, obj, f"{layer}.{name}"
        elif inspect.isclass(obj) and not issubclass(obj, BaseException):
            for attr, raw in list(vars(obj).items()):
                if attr.startswith("_"):
                    continue
                if isinstance(raw, (staticmethod, classmethod)):
                    fn = raw.__func__
                elif isinstance(raw, property):
                    fn = raw.fget
                elif inspect.isfunction(raw):
                    fn = raw
                else:
                    continue
                yield obj, attr, raw, fn, f"{layer}.{name}.{attr}"


def _rewrap(raw, wrapper):
    if isinstance(raw, staticmethod):
        return staticmethod(wrapper)
    if isinstance(raw, classmethod):
        return classmethod(wrapper)
    if isinstance(raw, property):
        return property(wrapper, raw.fset, raw.fdel, raw.__doc__)
    return wrapper


def wrapped_count() -> int:
    """Number of layer functions currently replaced by a span wrapper."""
    total = 0
    for module in _layer_modules().values():
        for owner, attr, _raw, _fn, _key in _public_callables(module):
            value = vars(owner)[attr]
            fn = value.fget if isinstance(value, property) else getattr(value, "__func__", value)
            total += hasattr(fn, "__span_key__")
    return total


class SpanTracer:
    """Wraps every public layer function in a span; see the module doc."""

    def __init__(self):
        # key -> [calls, total seconds, self seconds, seconds entered from
        # another layer or from outside the package]
        self.funcs = {}
        self.counters = Counter()
        self._stack = []
        self._patches = []

    def install(self) -> None:
        from relpoisson.algebra import AxiomReport
        from relpoisson.documents import DocumentError

        self._report_type = AxiomReport
        self._document_error = DocumentError
        replaced = {}
        for layer, module in _layer_modules().items():
            for owner, attr, raw, fn, key in _public_callables(module):
                wrapper = self._wrap(key, layer, fn)
                self._patch(owner, attr, _rewrap(raw, wrapper))
                if owner is module:
                    replaced[id(fn)] = (fn, wrapper)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "relpoisson" or name.startswith("relpoisson.")):
                continue
            for attr, value in list(vars(module).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, attr, hit[1])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap(self, key, layer, fn):
        rec = self.funcs.setdefault(key, [0, 0.0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter
        counters = self.counters
        report_type = self._report_type
        document_error = self._document_error
        after = {
            "jacobi.frobenius_jacobi_pipeline": self._after_pipeline,
        }.get(key)
        counts_bytes = key == "documents.parse_document"

        def span(*args, **kwargs):
            if counts_bytes and args and isinstance(args[0], str):
                counters["documents.bytes_parsed"] += len(args[0].encode("utf-8"))
            frame = [0.0, layer]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except document_error:
                if self._close(rec, frame, clock() - start, layer) and layer == "documents":
                    counters["documents.rejected"] += 1
                raise
            except BaseException:
                self._close(rec, frame, clock() - start, layer)
                raise
            self._close(rec, frame, clock() - start, layer)
            if type(result) is report_type:
                counters["algebra.reports_failed"] += not result.ok
                counters["algebra.violations_reported"] += len(result.violations)
                counters["algebra.reports_truncated"] += bool(result.truncated)
            elif after is not None:
                after(result)
            return result

        span.__span_key__ = key
        span.__wrapped__ = fn
        for attr in ("__module__", "__name__", "__qualname__", "__doc__"):
            setattr(span, attr, getattr(fn, attr))
        return span

    def _close(self, rec, frame, elapsed, layer) -> bool:
        """Ends a span; True when it was entered from another layer."""
        stack = self._stack
        stack.pop()
        rec[0] += 1
        rec[1] += elapsed
        rec[2] += elapsed - frame[0]
        if stack:
            parent = stack[-1]
            parent[0] += elapsed
            if parent[1] == layer:
                return False
        rec[3] += elapsed
        return True

    def _after_pipeline(self, result) -> None:
        _bialgebra, frobenius = result
        alg = frobenius.algebra
        self.counters["jacobi.output_dim"] = alg.dim
        self.counters["jacobi.output_nnz"] = (
            len(alg.dot.nonzero_entries())
            + len(alg.bracket.nonzero_entries())
            + sum(1 for row in alg.derivation.entries for x in row if x)
        )

    def snapshot(self) -> dict:
        return {
            "funcs": {k: list(v) for k, v in self.funcs.items() if v[0]},
            "counters": dict(self.counters),
        }


def merge_snapshots(snapshots) -> dict:
    """Sums span snapshots from several processes or passes.  The output
    shape of the pipeline is a property, not a total, so it is kept."""
    funcs, counters = {}, Counter()
    for snap in snapshots:
        for key, rec in snap["funcs"].items():
            acc = funcs.setdefault(key, [0, 0.0, 0.0, 0.0])
            for i, x in enumerate(rec):
                acc[i] += x
        for key, value in snap["counters"].items():
            if key.startswith("jacobi.output_"):
                counters[key] = max(counters[key], value)
            else:
                counters[key] += value
    return {"funcs": funcs, "counters": dict(counters)}


def count_fraction_ops(fn) -> dict:
    """Runs ``fn()`` under cProfile and returns, per layer, the exact
    number of Fraction zero tests and arithmetic operations its code made:
    ``{layer: [zero_tests, arith_ops]}``."""
    profiler = cProfile.Profile(builtins=False)
    profiler.enable()
    try:
        fn()
    finally:
        profiler.disable()
    profiler.create_stats()
    fraction_file = fractions.Fraction.__bool__.__code__.co_filename
    layer_of = {
        os.path.abspath(module.__file__): layer
        for layer, module in _layer_modules().items()
    }
    counts = {layer: [0, 0] for layer in LAYERS}
    for (filename, _line, name), entry in profiler.stats.items():
        if filename != fraction_file:
            continue
        if name in _FRACTION_ZERO_TEST:
            slot = 0
        elif name in _FRACTION_ARITH:
            slot = 1
        else:
            continue
        for (caller_file, _cl, _cn), sub in entry[4].items():
            layer = layer_of.get(os.path.abspath(caller_file))
            if layer is not None:
                counts[layer][slot] += sub[0]
    return counts


def merge_counts(count_dicts) -> dict:
    total = {layer: [0, 0] for layer in LAYERS}
    for counts in count_dicts:
        for layer, (zero_tests, arith) in counts.items():
            total[layer][0] += zero_tests
            total[layer][1] += arith
    return total


def src_lines() -> dict:
    out = {}
    for layer, module in _layer_modules().items():
        with open(module.__file__, encoding="utf-8") as handle:
            out[layer] = sum(1 for _ in handle)
    return out


def layer_metrics(spans: dict, counts: dict, lines: dict) -> dict:
    """Flattens spans, exact counts and source sizes into the per-layer
    metric names of BENCHMARK.json, as ``name -> (value, unit)``."""
    funcs, counters = spans["funcs"], spans["counters"]
    out = {}
    for layer in LAYERS:
        recs = [rec for key, rec in funcs.items() if key.split(".", 1)[0] == layer]
        out[f"{layer}.calls"] = (sum(r[0] for r in recs), "count")
        out[f"{layer}.self_s"] = (sum(r[2] for r in recs), "s")
        out[f"{layer}.src_lines"] = (lines[layer], "lines")
        out[f"{layer}.zero_tests"] = (counts[layer][0], "count")
        out[f"{layer}.arith_ops"] = (counts[layer][1], "count")
    zero_tests = sum(c[0] for c in counts.values())
    arith = sum(c[1] for c in counts.values())
    out["linalg.useful_ratio"] = (arith / zero_tests if zero_tests else 0.0, "1")
    for key in CHECKERS:
        rec = funcs.get(key, [0, 0.0, 0.0, 0.0])
        out[f"{key}.calls"] = (rec[0], "count")
        out[f"{key}.s"] = (rec[1], "s")
    for key in CONSTRUCTIONS:
        out[f"{key}.s"] = (funcs.get(key, [0, 0.0])[1], "s")
    for name in (
        "algebra.reports_failed",
        "algebra.violations_reported",
        "algebra.reports_truncated",
        "documents.bytes_parsed",
        "documents.rejected",
        "jacobi.output_dim",
        "jacobi.output_nnz",
    ):
        unit = "bytes" if name.endswith("bytes_parsed") else "count"
        out[name] = (counters.get(name, 0), unit)
    parse = serialize = 0.0
    for key, rec in funcs.items():
        layer, _, name = key.partition(".")
        if layer != "documents":
            continue
        if name.startswith(_PARSE_PREFIXES):
            parse += rec[3]
        else:
            serialize += rec[3]
    out["documents.parse_s"] = (parse, "s")
    out["documents.serialize_s"] = (serialize, "s")
    return out
