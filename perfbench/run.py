"""The relpoisson benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each workload is a closed loop
with one client in this single process (the ``cli`` workload starts one
child process at a time).  Every operation's output is checked; the last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones, measured with no wrapper or profiler in place; with
``--trace 1`` they are the per-layer ones (see ``tracing.py``).

Workloads, metrics and the predicted interactions are described in
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
FIXTURES = os.path.join(ROOT, "fixtures")
EXPECTED = os.path.join(HERE, "expected.json")

# The seed whose output digests are pinned in expected.json.
DEFAULT_SEED = 1
PIPELINE_N = 6
PIPELINE_INPUTS = 4
SETUP_ROUNDS = 7
IMPORT_SAMPLES = 5
# The equivalence verdicts of one pass are dealt round-robin, in order of
# dimension, into this many batches, and one batch is one operation.  The
# verdicts span dims 1-7 and 1-400 ms each; their median sat on a steep
# part of that mixture and moved by up to 40% between runs, while batches
# of the same mix cost the same.  With 7 batches, each gets one op of the
# 6-dim and one of the 7-dim instance.
EQUIVALENCE_BATCHES = 7


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _purge_package() -> None:
    for name in [m for m in sys.modules if m == "relpoisson" or m.startswith("relpoisson.")]:
        del sys.modules[name]


def _report_digest(reports) -> str:
    """Digest of the verdicts and full violation lists (axiom, where,
    defect) of a sequence of axiom reports."""
    payload = [
        [r.ok, r.truncated, [[v.axiom, list(v.where), [str(x) for x in v.defect]] for v in r.violations]]
        for r in reports
    ]
    return _sha256(json.dumps(payload).encode())


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """One closed-loop workload.  ``build`` makes the inputs from the seed
    (after the package is imported), ``run_op`` is the timed operation and
    ``check`` compares its output with a known answer, returning an error
    message or None."""

    name = ""

    def __init__(self, seed: int, workdir: str, size=None):
        self.seed = seed
        self.workdir = workdir
        self.size = size
        self._expected = None

    def setup(self):
        """Imports the package afresh and builds the inputs; returns the
        (CPU, wall) seconds it took."""
        _purge_package()
        cpu, wall = self.cpu_clock(), time.perf_counter()
        package = importlib.import_module("relpoisson")
        if not os.path.abspath(package.__file__).startswith(SRC + os.sep):
            raise ImportError(f"relpoisson was not imported from {SRC}")
        self.build()
        return self.cpu_clock() - cpu, time.perf_counter() - wall

    def cpu_clock(self) -> float:
        """CPU seconds used so far by the work an operation runs."""
        return time.process_time()

    def op_names(self):
        raise NotImplementedError

    def build(self):
        raise NotImplementedError

    def run_op(self, index):
        raise NotImplementedError

    def check(self, index, result):
        raise NotImplementedError

    def digests(self, index, result):
        """(name, sha256) of each output an operation produced."""
        raise NotImplementedError

    def check_digest(self, index, result):
        """For the default seed, compares the output digests with the ones
        pinned in expected.json."""
        if self.seed != DEFAULT_SEED or self.size is not None:
            return None
        if self._expected is None:
            with open(EXPECTED, encoding="utf-8") as handle:
                self._expected = json.load(handle)[self.name]
        for name, digest in self.digests(index, result):
            if digest != self._expected[name]:
                return f"{name}: output digest differs from the one pinned for seed {DEFAULT_SEED}"
        return None

    def pass_indices(self, number: int):
        """The operations of pass ``number``; the loop measures whole passes
        so that every run sees the same mix of operations."""
        return range(len(self.op_names()))

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class PipelineWorkload(Workload):
    """``frobenius_jacobi_pipeline`` on the padded-Zinbiel family."""

    name = "pipeline"

    def build(self):
        import inputs

        self.n = self.size or PIPELINE_N
        self.inputs = inputs.pipeline_inputs(self.seed, self.n, PIPELINE_INPUTS)
        # the package, not the function: a traced run rebinds the name
        self.rp = sys.modules["relpoisson"]

    def op_names(self):
        return [f"pipeline-n{self.n}-input{i}" for i in range(PIPELINE_INPUTS)]

    def pass_indices(self, number: int):
        return [number % PIPELINE_INPUTS]

    def run_op(self, index):
        return self.rp.frobenius_jacobi_pipeline(self.inputs[index])

    def check(self, index, result):
        _bialgebra, frobenius = result
        dim = frobenius.algebra.dim
        if dim != 4 * self.n + 2:
            return f"double has dim {dim}, expected {4 * self.n + 2}"
        unit = tuple(frobenius.unit)
        if unit != (1,) + (0,) * (dim - 1):
            return "unit of the double is not the first basis vector"
        return None

    def digests(self, index, result):
        from relpoisson import documents

        _bialgebra, frobenius = result
        doc = documents.rel_poisson_doc(frobenius.algebra, form=frobenius.form)
        return [(self.op_names()[index], _sha256(documents.serialize_document(doc).encode()))]


class EquivalenceWorkload(Workload):
    """The three-way verdict bialgebra / matched pair / Manin triple on the
    acceptance corpus and its single-constant perturbations, in batches
    of the same mix (see EQUIVALENCE_BATCHES)."""

    name = "equivalence"

    def build(self):
        import inputs
        from relpoisson import documents

        with open(os.path.join(FIXTURES, "bialgebra_7d.json"), encoding="utf-8") as handle:
            worked = documents.doc_to_bialgebra(documents.parse_document(handle.read()))
        self.cases = inputs.equivalence_ops(self.seed, worked)
        order = sorted(range(len(self.cases)), key=lambda i: self.cases[i][1].algebra.dim)
        self.batches = [order[b::EQUIVALENCE_BATCHES] for b in range(EQUIVALENCE_BATCHES)]
        self.rp = sys.modules["relpoisson"]

    def op_names(self):
        return [f"batch{b}" for b in range(len(self.batches))]

    def verdicts(self, data):
        rp = self.rp
        bialgebra = rp.check_bialgebra(data)
        pair = rp.induced_matched_pair(data)
        matched = rp.check_matched_pair(pair)
        double = rp.combine_matched_pair(pair)
        manin = rp.check_manin_triple(data.algebra, rp.dual_rel_poisson_algebra(data), double)
        return bialgebra, matched, manin

    def run_op(self, index):
        return [(case, self.verdicts(self.cases[case][1])) for case in self.batches[index]]

    def check(self, index, result):
        for case, reports in result:
            name, _data, perturbed = self.cases[case]
            verdicts = [r.ok for r in reports]
            if len(set(verdicts)) != 1:
                return f"{name}: verdicts disagree (bialgebra, matched pair, Manin triple) = {verdicts}"
            if not perturbed and not verdicts[0]:
                return f"{name}: an unperturbed corpus instance failed"
        return None

    def digests(self, index, result):
        return [(self.cases[case][0], _report_digest(reports)) for case, reports in result]


class CliWorkload(Workload):
    """The ``relpoisson`` command line, one child process per operation."""

    name = "cli"

    def build(self):
        import inputs

        importlib.import_module("relpoisson.documents")
        gen = os.path.join(self.workdir, "gen")
        self.outdir = os.path.join(self.workdir, "out")
        for path in (gen, self.outdir):
            os.makedirs(path, exist_ok=True)
        self.ops = inputs.cli_documents(
            self.seed,
            os.path.relpath(FIXTURES, ROOT),
            os.path.relpath(gen, ROOT),
            os.path.relpath(self.outdir, ROOT),
        )
        with open(os.path.join(FIXTURES, "golden_double_14d.json"), "rb") as handle:
            self.golden = handle.read()
        self.env = dict(os.environ, PYTHONPATH=SRC)
        self.child_prefix = [sys.executable, "-m", "relpoisson.cli"]

    def op_names(self):
        return [name for name, _argv, _code, _out in self.ops]

    def run_op(self, index):
        _name, argv, _code, out = self.ops[index]
        if out is not None and os.path.exists(os.path.join(ROOT, out)):
            os.remove(os.path.join(ROOT, out))
        done = subprocess.run(
            self.child_prefix + argv, cwd=ROOT, env=self.env, capture_output=True, timeout=120
        )
        written = b""
        if out is not None and os.path.exists(os.path.join(ROOT, out)):
            with open(os.path.join(ROOT, out), "rb") as handle:
                written = handle.read()
        return done.returncode, done.stdout, written

    def check(self, index, result):
        name, _argv, expected_code, out = self.ops[index]
        code, _stdout, written = result
        if code != expected_code:
            return f"exit code {code}, expected {expected_code}"
        if out is not None and not written:
            return "no output document written"
        if name == "golden-pipeline" and written != self.golden:
            return "output differs from fixtures/golden_double_14d.json"
        return None

    def digests(self, index, result):
        code, stdout, written = result
        return [(self.op_names()[index], _sha256(str(code).encode() + b"\0" + stdout + b"\0" + written))]

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    def cpu_clock(self) -> float:
        children = resource.getrusage(resource.RUSAGE_CHILDREN)
        return time.process_time() + children.ru_utime + children.ru_stime


WORKLOADS = {w.name: w for w in (PipelineWorkload, EquivalenceWorkload, CliWorkload)}


# ---------------------------------------------------------------------------
# measurement


class Tally:
    """Latencies of the operations run so far, on the CPU clock (the
    reported metrics) and on the wall clock (printed for reference), and
    the operations that failed."""

    def __init__(self, workload: Workload):
        self.workload = workload
        self.latencies = []
        self.wall_latencies = []
        self.failures = []

    def time_op(self, index):
        """One timed operation; returns its output, or None if it raised."""
        cpu, wall = self.workload.cpu_clock(), time.perf_counter()
        try:
            return self.workload.run_op(index)
        except Exception as exc:  # an operation that raises is a failed operation
            name = self.workload.op_names()[index]
            self.failures.append((name, f"raised {type(exc).__name__}: {exc}"))
            return None
        finally:
            self.wall_latencies.append(time.perf_counter() - wall)
            self.latencies.append(self.workload.cpu_clock() - cpu)

    def check(self, index, result) -> None:
        """Checks an output against its known answer, outside any timing."""
        if result is None:
            return
        try:
            error = self.workload.check(index, result) or self.workload.check_digest(index, result)
        except Exception as exc:
            error = f"check raised {type(exc).__name__}: {exc}"
        if error:
            self.failures.append((self.workload.op_names()[index], error))

    def time_pass(self, number: int):
        """Times every operation of one pass; returns the pass's wall time
        and the outputs, which are checked afterwards."""
        start = time.perf_counter()
        results = [(index, self.time_op(index)) for index in self.workload.pass_indices(number)]
        return time.perf_counter() - start, results

    def check_pass(self, results) -> None:
        for index, result in results:
            self.check(index, result)


def _p90(samples):
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=10, method="inclusive")[-1]


def _assert_untraced():
    if "tracing" in sys.modules or sys.getprofile() is not None or sys.gettrace() is not None:
        raise RuntimeError("the end-to-end run must have no span wrapper or profiler active")


def measure(workload: Workload, seconds: float):
    """End-to-end metrics: the set-up rounds, then whole passes until
    ``seconds`` of wall time have gone by."""
    setups = [workload.setup() for _ in range(SETUP_ROUNDS)]
    _assert_untraced()
    tally = Tally(workload)
    start = time.perf_counter()
    number = 0
    while number == 0 or time.perf_counter() - start < seconds:
        for index in workload.pass_indices(number):
            tally.check(index, tally.time_op(index))
        number += 1
    _assert_untraced()
    lat, wall = tally.latencies, tally.wall_latencies
    metrics = {
        "setup_s": (statistics.median(cpu for cpu, _wall in setups), "s"),
        "ops_per_cpu_s": (len(lat) / sum(lat), "1/s"),
        "op_cpu_p50_s": (statistics.median(lat), "s"),
        "op_cpu_p90_s": (_p90(lat), "s"),
        "peak_rss_mb": (workload.peak_rss_mb(), "MB"),
    }
    info = {
        "passes": number,
        "samples": len(lat),
        "ops_failed_frac": len(tally.failures) / len(lat),
        "setup_rounds_cpu_s": [cpu for cpu, _wall in setups],
        "wall_setup_s": statistics.median(w for _cpu, w in setups),
        "wall_ops_per_s": len(wall) / sum(wall),
        "wall_op_p50_s": statistics.median(wall),
        "wall_op_p90_s": _p90(wall),
        "tracing": "off (no span wrappers, no profiler)",
    }
    return tally, metrics, info


def _cli_import_seconds():
    """Median time to import relpoisson.cli in a fresh interpreter, minus
    the median time of a bare interpreter."""
    env = dict(os.environ, PYTHONPATH=SRC)
    samples = {"bare": [], "import": []}
    for _ in range(IMPORT_SAMPLES):
        for label, code in (("bare", "pass"), ("import", "import relpoisson.cli")):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True, timeout=60)
            samples[label].append(time.perf_counter() - start)
    return statistics.median(samples["import"]) - statistics.median(samples["bare"])


def _traced_cli_pass(workload: CliWorkload, tally: Tally, mode: str, number: int):
    """One pass of the cli workload with every child started through
    child.py, which installs the span tracer or the counting profiler."""
    import tracing

    snaps = []
    snap_path = os.path.join(workload.workdir, "child.json")
    saved = workload.child_prefix
    workload.child_prefix = [sys.executable, os.path.join(HERE, "child.py"), mode, snap_path, "--"]
    try:
        for index in workload.pass_indices(number):
            if os.path.exists(snap_path):
                os.remove(snap_path)
            tally.check(index, tally.time_op(index))
            if not os.path.exists(snap_path):
                tally.failures.append((workload.op_names()[index], f"traced child wrote no {mode} snapshot"))
                continue
            with open(snap_path, encoding="utf-8") as handle:
                snaps.append(json.load(handle))
    finally:
        workload.child_prefix = saved
    if mode == "spans":
        return tracing.merge_snapshots(snaps)
    return tracing.merge_counts(snaps)


def measure_traced(workload: Workload):
    """Per-layer metrics from fixed passes: one untraced reference pass,
    two span-traced passes and two counting passes.  Counts must repeat
    exactly between the two passes of each kind."""
    workload.setup()
    import tracing

    tally = Tally(workload)
    untraced_s, results = tally.time_pass(0)
    tally.check_pass(results)
    spans, counts = [], []
    for _ in range(2):
        if isinstance(workload, CliWorkload):
            start = time.perf_counter()
            spans.append(_traced_cli_pass(workload, tally, "spans", 0))
            traced_s = time.perf_counter() - start
        else:
            tracer = tracing.SpanTracer()
            tracer.install()
            try:
                traced_s, results = tally.time_pass(0)
            finally:
                tracer.uninstall()
            tally.check_pass(results)
            spans.append(tracer.snapshot())
        spans[-1]["seconds"] = traced_s
    for _ in range(2):
        if isinstance(workload, CliWorkload):
            counts.append(_traced_cli_pass(workload, tally, "count", 0))
        else:
            counts.append(tracing.count_fraction_ops(lambda: [workload.run_op(i) for i in workload.pass_indices(0)]))
    if tracing.wrapped_count():
        raise RuntimeError("span wrappers left in place after the traced passes")

    mismatches = []
    calls = [{k: rec[0] for k, rec in s["funcs"].items()} for s in spans]
    if calls[0] != calls[1]:
        mismatches.append("span call counts")
    if spans[0]["counters"] != spans[1]["counters"]:
        mismatches.append("report and document counters")
    if counts[0] != counts[1]:
        mismatches.append("zero-test and arithmetic counts")

    metrics = tracing.layer_metrics(spans[0], counts[0], tracing.src_lines())
    metrics["cli.import_s"] = (_cli_import_seconds(), "s")
    metrics["trace.untraced_s"] = (untraced_s, "s")
    metrics["trace.traced_s"] = (spans[0]["seconds"], "s")
    metrics["trace.overhead_s"] = (spans[0]["seconds"] - untraced_s, "s")
    info = {
        "samples": len(tally.latencies),
        "ops_failed_frac": len(tally.failures) / max(1, len(tally.latencies)),
        "counts_repeat": "exact" if not mismatches else "DIFFER: " + ", ".join(mismatches),
        "tracing": "spans on two passes, cProfile counting on two further passes",
    }
    return tally, metrics, info, not mismatches


# ---------------------------------------------------------------------------
# entry point


@contextlib.contextmanager
def scratch_dir(tag: str):
    """A private directory inside the checkout, removed afterwards."""
    parent = os.path.join(ROOT, ".perfbench_work")
    path = os.path.join(parent, f"{tag}-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(parent)


def run(workload_cls, seed: int, seconds: float, trace: bool, size=None):
    """Runs one workload and returns (result object, tally, info);
    ``size`` shrinks the pipeline input (the self-test uses it)."""
    with scratch_dir(workload_cls.name) as workdir:
        workload = workload_cls(seed, workdir, size)
        if trace:
            tally, metrics, info, repeated = measure_traced(workload)
        else:
            (tally, metrics, info), repeated = measure(workload, seconds), True
    return {
        "correct": not tally.failures and repeated,
        "attempted": len(tally.latencies),
        "failed": len(tally.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }, tally, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.path.insert(0, SRC)
    try:
        result, tally, info = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except (ImportError, OSError) as exc:
        print(f"perfbench: cannot run the {args.workload} workload: {exc}", file=sys.stderr)
        return 2
    for key, value in info.items():
        print(f"# {key}: {value}")
    for name, error in tally.failures:
        print(f"# FAILED {name}: {error}")
    for name, metric in result["metrics"].items():
        print(f"{name:52s} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
