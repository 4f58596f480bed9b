"""Recomputes the output digests pinned in expected.json for the default
seed.  Run it only at a commit whose outputs are the reference:

    python3 perfbench/pin.py

Every later run with the default seed must reproduce these digests
byte for byte."""

import json
import sys

import run


def main() -> int:
    sys.path.insert(0, run.SRC)
    pinned = {}
    for name, cls in run.WORKLOADS.items():
        with run.scratch_dir(f"pin-{name}") as workdir:
            workload = cls(run.DEFAULT_SEED, workdir)
            workload.setup()
            digests = {}
            for index, op in enumerate(workload.op_names()):
                result = workload.run_op(index)
                error = workload.check(index, result)
                if error:
                    print(f"{name} {op}: {error}", file=sys.stderr)
                    return 1
                digests.update(workload.digests(index, result))
            pinned[name] = digests
    with open(run.EXPECTED, "w", encoding="utf-8") as handle:
        json.dump(pinned, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"pinned {sum(map(len, pinned.values()))} digests in {run.EXPECTED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
