#!/usr/bin/env python3
"""Regenerate the stored references from the program as it stands.

    python3 perfbench/record_references.py sweep adapt

For every master seed a workload can draw, runs the workload once with the
tracer installed and stores the sha256 and row digests of each CSV plus the
simulated statistics. Rerun only when the program's outputs change on purpose:
every benchmark run checks against these files.
"""

from __future__ import annotations

import json
import sys
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
warnings.filterwarnings("ignore", category=UserWarning, module="semcom")

import checks  # noqa: E402
import layers  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import MASTER_SEEDS, WORKLOADS  # noqa: E402

RECORDED_BY = {"sweep": "sweep-serial", "adapt": "adapt"}


def record(group: str) -> dict:
    workload = WORKLOADS[RECORDED_BY[group]]
    entries = {}
    for ms in MASTER_SEEDS:
        tracer = Tracer()
        tracer.install(layers.TARGETS, layers.OBSERVERS, layers.PACKAGE)
        try:
            out = workload.run(workload.load(ms), tracer.span)
        finally:
            if not tracer.uninstall(layers.PACKAGE):
                raise RuntimeError("tracer left a wrapper behind")
        stats = dict(out.stats)
        stats.update(layers.simulated_stats(tracer.counters.get(0, {})))
        entries[str(ms)] = {
            "csv": {name: checks.csv_reference(text) for name, text in out.csvs.items()},
            "stats": stats,
        }
        print(f"{group} master seed {ms}: {stats}", flush=True)
    return {"workload": workload.name, "configs": list(workload.configs), "master_seeds": entries}


def main(groups: list[str]) -> int:
    for group in groups or sorted(RECORDED_BY):
        data = record(group)
        checks.REFERENCE_DIR.mkdir(exist_ok=True)
        with open(checks.REFERENCE_DIR / f"{group}.json", "w") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
