"""Command-line entry point.

One subcommand per artifact: link-budget tables, synthetic data files, a
trained model bundle, the accuracy sweep (CSV + SVG), the two round loops,
and a confusion matrix. All randomness flows from ``--seed`` (or the
``SEMCOM_SEED`` environment variable), so reruns reproduce files exactly.

Exit codes: 0 success, 1 usage or configuration error, 2 runtime failure
(a diverged training among them, stopped before any output), 3 a ``train``
run that did not converge on finite losses (its bundle and history are written).

Help, usage errors, configuration errors and ``linkbudget`` never import
numpy. The commands that compute import the numeric modules once their
config has loaded, and run with OpenBLAS pinned to one thread.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Callable
from dataclasses import replace

from .config import ConfigError, HarnessConfig, load_config
from .geometry import LINK_REPORT_CSV_HEADER
from .tables import csv_text


def _resolve_seed(args: argparse.Namespace) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("SEMCOM_SEED", "0")
    try:
        return int(env)
    except ValueError:
        raise ConfigError(f"SEMCOM_SEED must be an integer, got {env!r}") from None


def _load(args: argparse.Namespace) -> HarnessConfig:
    return load_config(args.config, _resolve_seed(args))


def _outdir(args: argparse.Namespace) -> str:
    out = args.out
    os.makedirs(out, exist_ok=True)
    return out


def write_text(path: str, text: str) -> None:
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _computes(command: Callable[..., int]) -> Callable[[argparse.Namespace], int]:
    """Load the config, then numpy, and run ``command`` with OpenBLAS on one thread."""

    def run(args: argparse.Namespace) -> int:
        cfg = _load(args)
        from . import blas  # imports numpy, so single_thread finds its OpenBLAS mapped

        with blas.single_thread():
            return command(args, cfg)

    return run


def cmd_linkbudget(args: argparse.Namespace) -> int:
    cfg = _load(args)
    ground, isl = cfg.linkbudget.reports()
    print("ground link")
    print(ground.as_text())
    print()
    print("inter-satellite link")
    print(isl.as_text())
    out = _outdir(args)
    for name, report in (("linkbudget.csv", ground), ("isl_linkbudget.csv", isl)):
        write_text(os.path.join(out, name), csv_text(LINK_REPORT_CSV_HEADER, [report.figures()]))
    return 0


@_computes
def cmd_gen_data(args: argparse.Namespace, cfg: HarnessConfig) -> int:
    from .dataset import generate_synthetic, save_tensor_file, summary_csv

    splits_t0, splits_t1 = generate_synthetic(cfg.dataset)
    out = _outdir(args)
    for tag, splits in (("t0", splits_t0), ("t1", splits_t1)):
        for part in ("train", "val", "test"):
            path = os.path.join(out, f"{tag}_{part}.msit")
            save_tensor_file(path, getattr(splits, part))
    write_text(os.path.join(out, "summary.csv"), summary_csv(splits_t0))
    print(
        f"wrote {len(splits_t0.train)}/{len(splits_t0.val)}/{len(splits_t0.test)} "
        f"train/val/test images per epoch to {out}"
    )
    return 0


@_computes
def cmd_train(args: argparse.Namespace, cfg: HarnessConfig) -> int:
    from .dataset import generate_synthetic
    from .dtjscc import save_bundle, train_dtjscc

    splits, _ = generate_synthetic(cfg.dataset)
    system = train_dtjscc(splits, cfg.experiment.train_psnr_db, cfg.dtjscc)
    out = _outdir(args)
    bundle_dir = os.path.join(out, "bundle")
    save_bundle(bundle_dir, system)
    write_text(os.path.join(out, "history.csv"), csv_text("epoch,loss", enumerate(system.history)))
    status = "converged" if system.converged else "did not converge"
    print(f"val top1 {system.val_accuracy:.4f} ({status}); bundle in {bundle_dir}")
    return 0 if system.converged else 3


@_computes
def cmd_sweep(args: argparse.Namespace, cfg: HarnessConfig) -> int:
    from . import harness

    if args.workers is not None:
        try:
            experiment = replace(cfg.experiment, workers=args.workers)
        except ValueError as exc:
            raise ConfigError(f"sweep.{exc}") from None
        cfg = replace(cfg, experiment=experiment)
    result = harness.run_sweep(cfg)
    out = _outdir(args)
    csv_path = os.path.join(out, "sweep.csv")
    write_text(csv_path, result.csv())
    harness.emit_svg_plot(result, os.path.join(out, "sweep.svg"))
    print(f"{len(result.rows)} cells -> {csv_path}")
    return 0


@_computes
def cmd_csa(args: argparse.Namespace, cfg: HarnessConfig) -> int:
    from . import harness
    from .csa import rounds_to_target

    logs, _ = harness.run_csa_experiment(cfg, meta_enabled=not args.no_meta)
    out = _outdir(args)
    name = "csa_rounds.csv" if not args.no_meta else "csa_static_rounds.csv"
    path = os.path.join(out, name)
    write_text(path, harness.roundlog_csv(logs))
    final = [e for e in logs if e.side == "ut"][-1]
    hit = rounds_to_target(logs, cfg.csa.target_accuracy, "ut")
    reach = f"reached {cfg.csa.target_accuracy:.2f} at round {hit}" if hit is not None else (
        f"never reached {cfg.csa.target_accuracy:.2f}"
    )
    print(f"final terminal top1 {final.top1_accuracy:.4f}; {reach}; log in {path}")
    return 0


@_computes
def cmd_fedavg(args: argparse.Namespace, cfg: HarnessConfig) -> int:
    from . import harness

    logs = harness.run_fedavg_experiment(cfg)
    out = _outdir(args)
    path = os.path.join(out, "fedavg_rounds.csv")
    write_text(path, harness.roundlog_csv(logs))
    final = logs[-1]
    print(f"final server top1 {final.top1_accuracy:.4f}; log in {path}")
    return 0


@_computes
def cmd_race(args: argparse.Namespace, cfg: HarnessConfig) -> int:
    from . import harness

    race = harness.run_round_race(cfg)
    out = _outdir(args)
    write_text(os.path.join(out, "csa_rounds.csv"), harness.roundlog_csv(race.csa_logs))
    write_text(os.path.join(out, "fedavg_rounds.csv"), harness.roundlog_csv(race.fedavg_logs))

    def fmt(rounds: int | None) -> str:
        return f"round {rounds}" if rounds is not None else "never"

    print(
        f"target {race.target:.2f}: adaptation {fmt(race.csa_rounds)}, "
        f"parameter averaging {fmt(race.fedavg_rounds)}"
    )
    return 0


@_computes
def cmd_confusion(args: argparse.Namespace, cfg: HarnessConfig) -> int:
    from . import harness

    matrix = harness.run_confusion(cfg)
    out = _outdir(args)
    path = os.path.join(out, "confusion.csv")
    write_text(path, matrix.csv())
    print(f"top1 {matrix.top1():.4f}; matrix in {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semcom",
        description="Satellite semantic-communication simulator.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")
    for name, func, text in (
        ("linkbudget", cmd_linkbudget, "print and save link-budget tables"),
        ("gen-data", cmd_gen_data, "generate the synthetic image files"),
        ("train", cmd_train, "train the transmission pipeline"),
        ("sweep", cmd_sweep, "accuracy vs PSNR grid, CSV and SVG"),
        ("csa", cmd_csa, "two-satellite adaptation round loop"),
        ("fedavg", cmd_fedavg, "parameter-averaging baseline rounds"),
        ("race", cmd_race, "adaptation vs parameter averaging to a target"),
        ("confusion", cmd_confusion, "test-set confusion matrix over the channel"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", help="INI file; defaults apply when omitted")
        p.add_argument("--seed", type=int, help="master seed (default: SEMCOM_SEED or 0)")
        p.add_argument("--out", default="semcom_out", help="output directory")
        p.set_defaults(func=func)
    sub.choices["sweep"].add_argument("--workers", type=int, help="parallel trainers")
    sub.choices["csa"].add_argument("--no-meta", action="store_true", help="freeze networks (static baseline)")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    if not hasattr(args, "func"):
        parser.print_usage(sys.stderr)
        return 1
    try:
        return args.func(args)
    except Exception as exc:  # a one-line diagnostic: code 1 for a bad config, else 2
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, ConfigError) else 2


if __name__ == "__main__":
    sys.exit(main())
