#!/usr/bin/env python3
"""Record the baseline: sets of timed runs, one traced run, the fingerprint.

    python3 perfbench/record_baseline.py                    # rewrite baseline.json
    python3 perfbench/record_baseline.py --seeds 400-409 --pool-runs 0 --out second.json --against perfbench/baseline.json

Runs ``run.py`` once per workload seed on each workload of BENCHMARK.json
(and ``--pool-runs`` times on ``sweep-pool``), at the benchmark's own run
length, then once traced at seed 0. Stores every run's end-to-end figures,
their medians and their quartile spreads (``checks.quartile_spread``), and
prints each spread against the metric's bound. With ``--against`` it also
prints how far each median moved from another recorded set.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
BETTER = {m["name"]: m["better"] for m in SPEC["end_to_end"]}


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
    result = json.loads(proc.stdout.splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stdout}")
    print(f"{workload} seed {seed} trace {trace}: "
          + json.dumps({k: round(v["value"], 4) for k, v in result["metrics"].items() if trace == 0}),
          flush=True)
    return {k: v["value"] for k, v in result["metrics"].items()}


def record(workload: str, seeds: list[int], seconds: int) -> dict:
    runs = [run(workload, seed, seconds, 0) for seed in seeds]
    per_run = {name: [r[name] for r in runs] for name in runs[0]}
    entry = {
        "runs": f"{len(seeds)} runs at --seconds {seconds}, workload seeds {seeds[0]}-{seeds[-1]}; "
                "trace: one run at --seed 0",
        "per_run": per_run,
        "end_to_end": {name: statistics.median(v) for name, v in per_run.items()},
        "trace": run(workload, 0, seconds, 1),
    }
    if len(seeds) >= 4:
        entry["spread"] = {name: checks.quartile_spread(v) for name, v in per_run.items()}
    return entry


def findings(serial: dict, pool: dict) -> list[str]:
    s, p = serial["end_to_end"], pool["end_to_end"]
    return [
        f"sweep-pool wall_s {p['wall_s']:.2f} s is {p['wall_s'] / s['wall_s']:.1f}x sweep-serial wall_s "
        f"{s['wall_s']:.2f} s, using {p['cpu_s']:.1f} CPU-s against {s['cpu_s']:.1f}: every forked worker "
        "inherits a multi-threaded OpenBLAS and the workers oversubscribe the CPUs",
        f"sweep-serial cpu_s {s['cpu_s']:.2f} is {s['cpu_s'] / s['wall_s']:.2f}x its wall_s {s['wall_s']:.2f}: "
        "OpenBLAS keeps a second thread busy in a serial run",
    ]


def moved(name: str, now: float, before: float) -> float:
    """Share by which ``now`` is worse than ``before``; negative when better."""
    return (now / before - 1.0) if BETTER[name] == "lower" else (before / now - 1.0)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="300-309", help="first-last workload seed")
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--pool-runs", type=int, default=3)
    parser.add_argument("--out", default=str(HERE / "baseline.json"))
    parser.add_argument("--against", help="another recorded set to compare medians with")
    args = parser.parse_args(argv)
    first, last = map(int, args.seeds.split("-"))
    seeds = list(range(first, last + 1))
    out = {"fingerprint": checks.fingerprint(), "workloads": {}}
    for w in SPEC["workloads"]:
        out["workloads"][w["name"]] = record(w["name"], seeds, args.seconds)
    if args.pool_runs:
        out["workloads"]["sweep-pool"] = record("sweep-pool", seeds[: args.pool_runs], args.seconds)
        out["findings"] = findings(out["workloads"]["sweep-serial"], out["workloads"]["sweep-pool"])
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    against = json.loads(Path(args.against).read_text())["workloads"] if args.against else {}
    for name, entry in out["workloads"].items():
        for metric, spread in sorted(entry.get("spread", {}).items()):
            line = f"{name:<13} {metric:<12} median {entry['end_to_end'][metric]:10.4f}  spread {spread:.3f}"
            line += f" of bound {BOUNDS[metric]}"
            if name in against:
                line += f"  worse than --against by {moved(metric, entry['end_to_end'][metric], against[name]['end_to_end'][metric]):+.3f}"
            print(line)
    print("\n".join(out.get("findings", [])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
