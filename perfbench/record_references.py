"""Record the reference values the correctness gates compare against.

    python3 perfbench/record_references.py

Runs the seeded workloads (relax3d, imex3d) once for every program seed
0 .. REFERENCE_SEEDS-1 and writes perfbench/references.json.  The gates
then require a later commit to reproduce these values to 1e-7 relative.
Re-record only when a change is meant to alter the numerics, and say so.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import time

from run import HERE, OUT, REFERENCE_SEEDS


def record(workload: str, seed: int) -> dict:
    (OUT / "work").mkdir(parents=True, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"ref-{workload}-", dir=OUT / "work")
    try:
        subprocess.run(
            [
                sys.executable, str(HERE / "workload.py"), "--workload", workload,
                "--program-seed", str(seed), "--t0", repr(time.clock_gettime(time.CLOCK_MONOTONIC)),
                "--work", work, "--no-reference",
            ],
            check=True,
            timeout=600,
        )
        with open(f"{work}/result.json") as fh:
            rec = json.load(fh)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not rec["passed"]:
        raise SystemExit(f"{workload} seed {seed} fails its gates: {rec['gates']}")
    return rec["values"]


def main() -> int:
    table = {}
    for workload in ("relax3d", "imex3d"):
        table[workload] = {}
        for seed in range(REFERENCE_SEEDS):
            table[workload][str(seed)] = record(workload, seed)
            print(workload, seed, table[workload][str(seed)], flush=True)
    (HERE / "references.json").write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
