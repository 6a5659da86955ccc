#!/usr/bin/env python3
"""semcom benchmark: shipped experiments, timed end to end or traced per layer.

    python3 perfbench/run.py                      # every workload, every metric
    python3 perfbench/run.py --workload adapt --seed 3 --seconds 50 --trace 0

A run repeats its workload, one master seed per repetition, for about
``--seconds`` seconds and checks every output against the stored references.
With ``--trace 0`` it reports the end-to-end metrics, with ``--trace 1`` the
per-layer metrics from wrapped library calls. The last line of standard
output is one JSON object; the exit code is 0 only when every check passed.
See README.md in this directory for the metrics and what moves them.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import checks
from tracer import Tracer, no_phase, tail_percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
DEFAULT_SECONDS = 50
# Fresh-interpreter set-ups per timed run, spread over the run.
SETUP_RUNS = 25

# (name, unit, better) of every end-to-end metric.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("cpu_s", "CPU-s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ops_per_s", "1/s", "higher"),
)

def missing_program() -> list[str]:
    need = [SRC / "semcom" / "__init__.py"]
    need += [ROOT / "configs" / name for name in ("sweep.ini", "csa.ini", "race.ini")]
    return [str(p.relative_to(ROOT)) for p in need if not p.is_file()]


@dataclass
class Rep:
    master_seed: int
    wall: float = 0.0
    cpu: float = 0.0
    ops: int = 0
    failed: int = 0
    rounds: int = 0
    problems: list[str] = field(default_factory=list)


def run_rep(workload, master_seed: int, refs: dict, phase=no_phase) -> Rep:
    """One repetition: load the configs, run the experiments, check the outputs."""
    want = refs["master_seeds"][str(master_seed)]
    expected_ops = sum(len(r["rows"]) for r in want["csv"].values())
    cfg = workload.load(master_seed)
    rep = Rep(master_seed)
    c0, w0 = cpu_times(), time.perf_counter()
    try:
        out = workload.run(cfg, phase)
    except Exception:  # a failed repetition is reported, the run goes on
        traceback.print_exc()
        out = None
    rep.wall = time.perf_counter() - w0
    c1 = cpu_times()
    rep.cpu = (c1[0] - c0[0]) + (c1[1] - c0[1])
    if out is None:
        rep.ops = rep.failed = expected_ops
        rep.problems.append(f"master seed {master_seed}: raised")
        return rep
    produced = sum(max(0, len(text.splitlines()) - 1) for text in out.csvs.values())
    rep.ops = max(produced, expected_ops)
    rep.failed = sum(checks.bad_rows(out.csvs.get(name, ""), r) for name, r in want["csv"].items())
    rep.problems += [
        f"master seed {master_seed}: {name} is not byte-identical to the reference"
        for name, r in want["csv"].items()
        if checks.sha256(out.csvs.get(name, "")) != r["sha256"]
    ]
    rep.rounds = out.rounds
    rep.problems += [
        f"master seed {master_seed}: {p}" for p in checks.stat_mismatches(out.stats, want["stats"])
    ]
    return rep


class SetupSampler:
    """Fresh interpreter until semcom is imported and the configs are loaded.

    The interpreters are started by ``launcher.py`` in a process of its own,
    which is reaped on leaving the ``with`` block: until then their CPU time
    and memory stay out of this process's ``RUSAGE_CHILDREN``.
    """

    def __init__(self, workload) -> None:
        paths = [str(ROOT / "configs" / name) for name in workload.configs]
        self.argv = [sys.executable, str(HERE / "launcher.py"), str(SRC), *paths]
        self.setups: list[float] = []
        self.imports: list[float] = []

    def __enter__(self) -> SetupSampler:
        self.proc = subprocess.Popen(
            self.argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT
        )
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        self.proc.stdout.read()
        self.proc.stdout.close()
        self.proc.wait(timeout=120)

    def top_up(self, n: int) -> None:
        """Launch until ``n`` set-ups have been timed."""
        while len(self.setups) < n:
            self.proc.stdin.write("\n")
            self.proc.stdin.flush()
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError("set-up interpreter failed")
            timing = json.loads(line)
            self.setups.append(timing["setup_s"])
            self.imports.append(timing["import_s"])


def cpu_times() -> tuple[float, float]:
    """User+sys CPU seconds of this process and of its finished children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest peak of its finished children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def repeat(seconds: float, step) -> list:
    """Call ``step`` until another call would likely end past ``seconds``."""
    results, walls = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results.append(step(len(results)))
        walls.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            return results


def timed_run(workload, seed: int, seconds: float) -> dict:
    from workloads import master_seeds

    refs = checks.load_references(workload.group)
    seeds = master_seeds(seed)
    with SetupSampler(workload) as setup:
        start = time.perf_counter()

        def step(_):
            # Set-ups follow the repetitions through the run, so both see the
            # same drift of the host's speed.
            rep = run_rep(workload, next(seeds), refs)
            setup.top_up(math.ceil(SETUP_RUNS * (time.perf_counter() - start) / seconds))
            return rep

        reps = repeat(seconds, step)
        setup.top_up(SETUP_RUNS)
        peak = peak_rss_mb()
    setups = setup.setups
    walls = [r.wall for r in reps]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(r.cpu for r in reps),
        "peak_rss_mb": peak,
        "ops_per_s": statistics.median(r.ops / r.wall for r in reps),
    }
    name, unit = workload.throughput
    extra = {
        name: (statistics.median((r.rounds or r.ops) / r.wall for r in reps), unit),
        "cpu_per_wall": (statistics.median(r.cpu / r.wall for r in reps), "CPU-s/s"),
    }
    return {
        "reps": reps,
        "metrics": metrics,
        "units": {name: unit for name, unit, _ in END_TO_END},
        "samples": {"setup_s": setups, "wall_s": walls},
        "extra": extra,
        "problems": [p for r in reps for p in r.problems],
    }


def traced_run(workload, seed: int, seconds: float) -> dict:
    """Pairs of an untraced and a traced repetition on the same master seed."""
    import layers
    from workloads import MASTER_SEEDS, master_seeds

    refs = checks.load_references(workload.group)
    expected = workload.expected_calls(workload.load(MASTER_SEEDS[0]))
    seeds = master_seeds(seed)
    tracer = Tracer()
    problems: list[str] = []
    wrapped: set[str] = set()

    def pair(k: int) -> tuple[Rep, Rep]:
        ms = next(seeds)
        plain = run_rep(workload, ms, refs)
        tracer.current_rep = k
        c0 = cpu_times()
        tracer.install(layers.TARGETS, layers.OBSERVERS, layers.PACKAGE)
        wrapped.update(tracer.bindings())
        try:
            traced = run_rep(workload, ms, refs, phase=tracer.span)
        finally:
            if not tracer.uninstall(layers.PACKAGE):
                problems.append("tracer left a wrapper behind after uninstall")
        tracer.count("harness.pool.cpu_s", cpu_times()[1] - c0[1])
        return plain, traced

    pairs = repeat(seconds, pair)
    with SetupSampler(workload) as setup:
        setup.top_up(3)
    per_rep = layers.rep_metrics(tracer, tracer.self_times())
    counts = layers.phase_counts(tracer)
    for k, (_, traced) in enumerate(pairs):
        if workload.name != "sweep-pool":
            want = refs["master_seeds"][str(traced.master_seed)]["stats"]
            got = layers.simulated_stats(tracer.counters.get(k, {}))
            problems += [f"master seed {traced.master_seed}: {p}" for p in checks.stat_mismatches(got, want)]
        for (phase, span), n in expected.items():
            seen = counts.get(k, {}).get((phase, span), 0)
            if seen != n:
                problems.append(f"coverage: {span} under {phase} called {seen} times, config says {n}")
    metrics = {
        name: statistics.median(per_rep[k][name] for k in range(len(pairs))) for name in per_rep[0]
    }
    metrics.update(layers.frame_metrics(tracer))
    metrics["import_s"] = statistics.median(setup.imports)
    metrics["trace.overhead_s"] = statistics.median(t.wall - p.wall for p, t in pairs)
    metrics["trace.overhead_ratio"] = statistics.median(t.wall / p.wall - 1.0 for p, t in pairs)
    metrics["trace.reps"] = len(pairs)
    write_spans(tracer, workload.name, seed)
    reps = [r for p in pairs for r in p]
    return {
        "reps": reps,
        "metrics": {name: metrics[name] for name, _, _ in layers.PER_LAYER},
        "units": layers.UNITS,
        "samples": {},
        "extra": {"wrapped_bindings": (len(wrapped), "count")},
        "problems": problems + [p for r in reps for p in r.problems],
    }


def write_spans(tracer, workload: str, seed: int) -> None:
    import numpy as np

    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{workload}-seed{seed}.npz"
    np.savez_compressed(
        path,
        names=np.array(tracer.names),
        name_id=np.frombuffer(tracer.name_id, dtype=np.int64),
        start=np.frombuffer(tracer.start, dtype=np.float64),
        end=np.frombuffer(tracer.end, dtype=np.float64),
        parent=np.frombuffer(tracer.parent, dtype=np.int64),
        rep=np.frombuffer(tracer.rep, dtype=np.int64),
    )
    print(f"spans: {len(tracer.start)} written to {path.relative_to(ROOT)}")


def describe(samples: list[float]) -> str:
    tail = tail_percentile(samples)
    if tail is None:
        return f"median of {len(samples)}; too few samples for a tail percentile"
    q, value, n = tail
    return f"median of {n}; p{q:g} {value:.4f}"


def report(workload, seed: int, trace: int, result: dict) -> None:
    fp = checks.fingerprint()
    reps = result["reps"]
    print(f"workload {workload.name}  seed {seed}  trace {trace}  repetitions {len(reps)}")
    print("master seed: wall s  " + "  ".join(f"{r.master_seed}: {r.wall:.3f}" for r in reps))
    print("fingerprint " + json.dumps(fp, sort_keys=True))
    baseline = {}
    try:
        with open(HERE / "baseline.json") as fh:
            base = json.load(fh)
    except FileNotFoundError:
        print("baseline: none recorded")
    else:
        differ = checks.fingerprint_mismatch(fp, base["fingerprint"])
        if differ:
            print(f"baseline: flagged, fingerprint differs in {differ}; not compared")
        else:
            baseline = base["workloads"].get(workload.name, {}).get("trace" if trace else "end_to_end", {})
    for name, value in result["metrics"].items():
        unit = result["units"][name]
        line = f"  {name:<40} {value:>14.6g} {unit}"
        if name in result["samples"]:
            line += f"   ({describe(result['samples'][name])})"
        if name in baseline and baseline[name]:
            line += f"   baseline {baseline[name]:.6g} ({100.0 * (value / baseline[name] - 1.0):+.1f}%)"
        print(line)
    for name, (value, unit) in result["extra"].items():
        print(f"  {name:<40} {value:>14.6g} {unit}")
    print(f"  {'ops':<40} {sum(r.ops for r in reps):>14d} count")
    print(f"  {'ops_failed':<40} {sum(r.failed for r in reps):>14d} count")
    for problem in result["problems"]:
        print(f"FAILED {problem}")


def run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    from workloads import WORKLOADS

    status = 0
    summary = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        if proc.returncode != 0 or result is None or not result["correct"]:
            status = 1
        summary[name] = result
        print()
    print(json.dumps(summary))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = missing_program()
    if missing:
        print(f"error: the semcom sources are not here: missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    warnings.filterwarnings("ignore", category=UserWarning, module="semcom")
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all")
    workload = WORKLOADS[args.workload]
    run = traced_run if args.trace else timed_run
    result = run(workload, args.seed, args.seconds)
    report(workload, args.seed, args.trace, result)
    reps = result["reps"]
    failed = sum(r.failed for r in reps)
    correct = failed == 0 and not result["problems"]
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(r.ops for r in reps),
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": result["units"][name]}
                    for name, value in result["metrics"].items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
