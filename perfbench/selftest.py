"""Shows that the benchmark's gates are live.

    python3 perfbench/selftest.py

Each case runs a workload with one deliberate fault and expects the run to
report a failed operation; the last case runs the traced pipeline at its
smallest size and expects every per-layer metric of BENCHMARK.json.
Exits 0 when every case behaves as expected.
"""

import json
import os
import sys

import run

SMALLEST_N = 3


class CorruptDefect(run.EquivalenceWorkload):
    """Adds 1 to one constant of one defect vector: the first violation
    of the Manin-triple report of the first perturbed candidate."""

    def verdicts(self, data):
        bialgebra, matched, manin = super().verdicts(data)
        if data is self.target:
            first = manin.violations[0]
            bumped = (first.defect[0] + 1,) + tuple(first.defect[1:])
            violation = type(first)(first.axiom, first.where, bumped)
            manin = type(manin)(manin.ok, (violation,) + manin.violations[1:], manin.truncated)
        return bialgebra, matched, manin

    def build(self):
        super().build()
        self.target = next(data for _n, data, perturbed in self.cases if perturbed)


class CorruptGolden(run.CliWorkload):
    """Flips one byte of the golden pipeline document as it is read back."""

    def run_op(self, index):
        code, stdout, written = super().run_op(index)
        if self.op_names()[index] == "golden-pipeline":
            written = written.replace(b'"1"', b'"2"', 1)
        return code, stdout, written


class WrongExitCode(run.CliWorkload):
    """Expects exit code 0 from a command that must fail with 1."""

    def build(self):
        super().build()
        self.ops = [
            (name, argv, 0 if name == "check-bialgebra-broken" else code, out)
            for name, argv, code, out in self.ops
        ]


class CorruptUnit(run.PipelineWorkload):
    """Moves the unit of the double to the second basis slot."""

    def run_op(self, index):
        bialgebra, frobenius = super().run_op(index)
        unit = (0, 1) + tuple(frobenius.unit[2:])
        return bialgebra, type(frobenius)(frobenius.algebra, frobenius.form, unit)


def _bench_metric_names(kind):
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {m["name"] for m in json.load(handle)[kind]}


def main() -> int:
    sys.path.insert(0, run.SRC)
    ok = True

    def expect(label, condition, detail=""):
        nonlocal ok
        ok &= condition
        print(f"{'PASS' if condition else 'FAIL'} {label} {detail}")

    for cls, seed, size in (
        (CorruptDefect, run.DEFAULT_SEED, None),
        (CorruptGolden, 7, None),
        (WrongExitCode, 7, None),
        (CorruptUnit, 7, SMALLEST_N),
    ):
        result, tally, _info = run.run(cls, seed, 0, False, size)
        frac = result["failed"] / result["attempted"]
        expect(
            f"{cls.__name__}: ops_failed_frac > 0",
            frac > 0 and not result["correct"],
            f"({result['failed']}/{result['attempted']}: {tally.failures[:1]})",
        )

    result, _tally, info = run.run(run.PipelineWorkload, 7, 0, False, SMALLEST_N)
    missing = _bench_metric_names("end_to_end") - set(result["metrics"])
    expect("untraced pipeline n=3 is correct and emits every end-to-end metric",
           result["correct"] and not missing, f"missing={sorted(missing)}")

    result, _tally, info = run.run(run.PipelineWorkload, 7, 0, True, SMALLEST_N)
    missing = _bench_metric_names("per_layer") - set(result["metrics"])
    expect("traced pipeline n=3 is correct and emits every per-layer metric",
           result["correct"] and not missing, f"missing={sorted(missing)}")
    expect("traced counts repeat exactly", info["counts_repeat"] == "exact", info["counts_repeat"])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
