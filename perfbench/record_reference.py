"""Record the seed's results that every benchmark operation is checked against.

    python3 perfbench/record_reference.py

Runs one operation of every workload at both sizes and writes
perfbench/reference.json.  Run it only on a commit whose results are the
accepted baseline; the output checks are meaningless against a reference
taken from the code under test.
"""

import json
import os

import run  # noqa: F401  (pins BLAS threads and puts src/ on the path)
import workloads

SEED = 0


def main() -> None:
    reference = {}
    for size in ("full", "smoke"):
        reference[size] = {}
        for name in run.NAMES:
            wl = workloads.make(name, size, SEED)
            rc, output = wl.operation()
            if rc != 0:
                raise SystemExit(f"{name} ({size}) exited with {rc}")
            reference[size][name] = wl.reference_of(output)
            print(f"recorded {name} ({size})")
    with open(workloads.REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
