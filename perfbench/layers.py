"""What the traced run wraps in semcom, what it counts, and the per-layer metrics.

Every wrapped function is public and is bound by name in each semcom module
that imported it; the tracer replaces all of those bindings. Observers turn
call arguments and results into counters (link, modem and training counts)
without touching anything inside ``src/``.
"""

from __future__ import annotations

import math
import statistics

from semcom.dtjscc import frame_bit_count

from checks import index_errors
from tracer import Tracer, tail_percentile

PACKAGE = "semcom"

TARGETS = {
    "semcom.dataset": ("generate_synthetic",),
    "semcom.dtjscc": ("train_dtjscc", "encode", "quantize", "transmit", "classify", "dequantize"),
    "semcom.modem": ("modulate", "demodulate_hard"),
    "semcom.channel": ("sample_realization", "sample_gain_sequence", "apply_channel"),
    "semcom.nn": ("forward", "forward_cached", "backward", "sgd_step", "softmax_cross_entropy"),
    "semcom.csa": ("meta_step", "sa_loss", "run_csa_end_to_end", "run_fedavg_baseline"),
    "semcom.harness": ("evaluate_through_channel", "build_csa_scenario", "run_sweep"),
    "semcom.seeding": ("spawn_rng",),
    "semcom.config": ("load_config",),
}


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _observe_transmit(tr: Tracer, args: tuple, kwargs: dict, received) -> None:
    sent = _arg(args, kwargs, 0, "message")
    tr.count("link.frames")
    tr.count("link.indices", sent.indices.size)
    tr.count("link.index_errors", index_errors(sent.indices, received))
    tr.count("link.erased_frames", int(received.erased))
    tr.count("link.bits_on_air", frame_bit_count(received))


def _observe_modulate(tr: Tracer, args: tuple, kwargs: dict, result) -> None:
    tr.count("modem.symbols", result[0].size)


def _observe_train(tr: Tracer, args: tuple, kwargs: dict, system) -> None:
    splits = _arg(args, kwargs, 0, "splits")
    cfg = _arg(args, kwargs, 2, "cfg")
    epochs = len(system.history)
    batches = math.ceil(len(splits.train) / cfg.batch_size)
    best = min(range(epochs), key=system.history.__getitem__) if epochs else -1
    tr.count("dtjscc.train.systems")
    tr.count("dtjscc.train.converged", int(system.converged))
    tr.count("dtjscc.train.epochs", epochs)
    tr.count("dtjscc.train.useful_epochs", best + 1)
    tr.count("dtjscc.train.sgd_steps", epochs * batches)


def _observe_dataset(tr: Tracer, args: tuple, kwargs: dict, result) -> None:
    tr.count("dataset.images", sum(len(d) for s in result for d in (s.train, s.val, s.test)))


OBSERVERS = {
    "dtjscc.transmit": _observe_transmit,
    "modem.modulate": _observe_modulate,
    "dtjscc.train_dtjscc": _observe_train,
    "dataset.generate_synthetic": _observe_dataset,
}

# Span metrics: (span name, report calls, report busy, report self).
_SPAN_METRICS = (
    ("dataset.generate_synthetic", True, True, False),
    ("dtjscc.train_dtjscc", True, True, True),
    ("dtjscc.encode", True, True, False),
    ("dtjscc.quantize", True, True, False),
    ("dtjscc.transmit", True, True, True),
    ("dtjscc.classify", True, True, False),
    ("dtjscc.dequantize", True, True, False),
    ("modem.modulate", True, True, False),
    ("modem.demodulate_hard", True, True, False),
    ("channel.sample_realization", True, True, False),
    ("channel.sample_gain_sequence", True, True, False),
    ("channel.apply_channel", True, True, False),
    ("nn.forward", True, True, False),
    ("nn.forward_cached", True, True, False),
    ("nn.backward", True, True, False),
    ("nn.sgd_step", True, True, False),
    ("nn.softmax_cross_entropy", True, True, False),
    ("csa.meta_step", True, True, False),
    ("csa.sa_loss", True, True, False),
    ("csa.run_csa_end_to_end", False, True, False),
    ("csa.run_fedavg_baseline", False, True, False),
    ("harness.evaluate_through_channel", True, True, True),
    ("harness.build_csa_scenario", True, True, False),
    ("harness.run_sweep", False, True, False),
    ("seeding.spawn_rng", True, True, False),
    ("config.load_config", False, True, False),
)

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER: list[tuple[str, str, str]] = []
for _span, _calls, _busy, _self in _SPAN_METRICS:
    if _calls:
        PER_LAYER.append((f"{_span}.calls", "count", "lower"))
    if _busy:
        PER_LAYER.append((f"{_span}.busy_s", "s", "lower"))
    if _self:
        PER_LAYER.append((f"{_span}.self_s", "s", "lower"))
PER_LAYER += [
    ("dataset.images", "count", "lower"),
    ("dtjscc.train.sgd_steps", "count", "lower"),
    ("dtjscc.train.step_us", "us", "lower"),
    ("dtjscc.train.converged_ratio", "ratio", "higher"),
    ("dtjscc.train.useful_epoch_ratio", "ratio", "higher"),
    ("link.frames", "count", "lower"),
    ("link.bits_on_air", "bit", "lower"),
    ("link.index_errors", "count", "lower"),
    ("link.index_error_rate", "ratio", "lower"),
    ("link.erased_frames", "count", "lower"),
    ("link.frame_us_p50", "us", "lower"),
    ("link.frame_us_tail", "us", "lower"),
    ("link.frame_us_tail_pct", "%", "higher"),
    ("link.frame_samples", "count", "higher"),
    ("modem.symbols", "count", "lower"),
    ("csa.divergence_errors", "count", "lower"),
    ("harness.pool.cpu_s", "s", "lower"),
    ("harness.pool.cpu_per_wall", "ratio", "higher"),
    ("import_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.reps", "count", "higher"),
]
UNITS = {name: unit for name, unit, _ in PER_LAYER}

# Simulated statistics stored with the references and checked in traced runs.
LINK_STATS = ("link.frames", "link.bits_on_air", "link.index_errors", "link.erased_frames", "modem.symbols")


def phase_of(parent) -> list[int]:
    """Top-level ancestor span of each span (spans are stored parents first)."""
    root: list[int] = []
    for i, p in enumerate(parent):
        root.append(i if p < 0 else root[p])
    return root


def phase_counts(tr: Tracer) -> dict[int, dict[tuple[str, str], int]]:
    """Calls per (top-level phase span, span name), for each repetition."""
    root = phase_of(tr.parent)
    out: dict[int, dict[tuple[str, str], int]] = {}
    for i, r in enumerate(tr.rep):
        counts = out.setdefault(r, {})
        key = (tr.names[tr.name_id[root[i]]], tr.names[tr.name_id[i]])
        counts[key] = counts.get(key, 0) + 1
    return out


def simulated_stats(counters: dict[str, float]) -> dict[str, int]:
    stats = {name: int(counters.get(name, 0)) for name in LINK_STATS}
    stats["dtjscc.train.converged"] = int(counters.get("dtjscc.train.converged", 0))
    return stats


def rep_metrics(tr: Tracer, selfs: list[float]) -> dict[int, dict[str, float]]:
    """Per-layer metrics of each traced repetition."""
    calls: dict[int, dict[str, int]] = {}
    busy: dict[int, dict[str, float]] = {}
    own: dict[int, dict[str, float]] = {}
    divergence: dict[int, int] = {}
    for i, r in enumerate(tr.rep):
        name = tr.names[tr.name_id[i]]
        c, b, o = calls.setdefault(r, {}), busy.setdefault(r, {}), own.setdefault(r, {})
        c[name] = c.get(name, 0) + 1
        b[name] = b.get(name, 0.0) + (tr.end[i] - tr.start[i])
        o[name] = o.get(name, 0.0) + selfs[i]
        if name == "csa.meta_step" and tr.errors.get(i) == "DivergenceError":
            divergence[r] = divergence.get(r, 0) + 1
    return {
        r: _metrics(calls[r], busy[r], own[r], divergence.get(r, 0), tr.counters.get(r, {}))
        for r in calls
    }


def _metrics(
    calls: dict[str, int],
    busy: dict[str, float],
    own: dict[str, float],
    divergence: int,
    c: dict[str, float],
) -> dict[str, float]:
    out: dict[str, float] = {}
    for span, with_calls, with_busy, with_self in _SPAN_METRICS:
        if with_calls:
            out[f"{span}.calls"] = calls.get(span, 0)
        if with_busy:
            out[f"{span}.busy_s"] = busy.get(span, 0.0)
        if with_self:
            out[f"{span}.self_s"] = own.get(span, 0.0)
    steps = c.get("dtjscc.train.sgd_steps", 0)
    systems = c.get("dtjscc.train.systems", 0)
    epochs = c.get("dtjscc.train.epochs", 0)
    indices = c.get("link.indices", 0)
    pool_cpu = c.get("harness.pool.cpu_s", 0.0)
    sweep_busy = busy.get("harness.run_sweep", 0.0)
    out.update(
        {
            "dataset.images": c.get("dataset.images", 0),
            "dtjscc.train.sgd_steps": steps,
            "dtjscc.train.step_us": 1e6 * busy.get("dtjscc.train_dtjscc", 0.0) / steps if steps else 0.0,
            "dtjscc.train.converged_ratio": c.get("dtjscc.train.converged", 0) / systems if systems else 0.0,
            "dtjscc.train.useful_epoch_ratio": c.get("dtjscc.train.useful_epochs", 0) / epochs if epochs else 0.0,
            "link.frames": c.get("link.frames", 0),
            "link.bits_on_air": c.get("link.bits_on_air", 0),
            "link.index_errors": c.get("link.index_errors", 0),
            "link.index_error_rate": c.get("link.index_errors", 0) / indices if indices else 0.0,
            "link.erased_frames": c.get("link.erased_frames", 0),
            "modem.symbols": c.get("modem.symbols", 0),
            "csa.divergence_errors": divergence,
            "harness.pool.cpu_s": pool_cpu,
            "harness.pool.cpu_per_wall": pool_cpu / sweep_busy if sweep_busy and pool_cpu else 0.0,
            "trace.spans": sum(calls.values()),
        }
    )
    return out


def frame_metrics(tr: Tracer) -> dict[str, float]:
    """Median and tail of the time one frame spends in ``transmit``, all reps pooled."""
    nid = tr.names.index("dtjscc.transmit") if "dtjscc.transmit" in tr.names else -1
    frames = [
        1e6 * (tr.end[i] - tr.start[i]) for i, n in enumerate(tr.name_id) if n == nid
    ]
    q, tail, _ = tail_percentile(frames) or (0.0, 0.0, 0)
    return {
        "link.frame_us_p50": statistics.median(frames) if frames else 0.0,
        "link.frame_us_tail": tail,
        "link.frame_us_tail_pct": q,
        "link.frame_samples": len(frames),
    }
