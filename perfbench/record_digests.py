"""Re-record ``reference_digests.json``: the sha256 of every cell's
canonical result JSON at the reference seed.

    python3 perfbench/record_digests.py

The cell lists are sized by BENCHMARK.json's ``run_seconds``, so
re-record after changing it.  Re-record only after a deliberate model
change, and say so where the change is described: a digest that moves
on its own is a bug the benchmark exists to catch.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import cells as C  # noqa: E402


def record(seconds: int) -> dict:
    from repro.scenario import scenario_fingerprint
    from repro.sim.session import run_sweep

    digests = {}
    for workload in ("paper-cold", "sweep-distinct", "serve-mixed"):
        cells_list = C.all_cells(workload, C.REFERENCE_SEED, seconds)
        digests[workload] = {
            scenario_fingerprint(result.scenario):
                C.result_digest(result.to_dict())
            for result in run_sweep(cells_list)
        }
        print(f"{workload}: {len(digests[workload])} cells", file=sys.stderr)
    return digests


def main() -> int:
    seconds = json.loads(
        (HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    payload = {"reference_seed": C.REFERENCE_SEED, "seconds": seconds,
               **record(seconds)}
    (HERE / "reference_digests.json").write_text(
        json.dumps(payload, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
