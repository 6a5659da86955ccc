"""Command-line entry point.

One subcommand per artifact: link-budget tables, synthetic data files, a
trained model bundle, the accuracy sweep (CSV + SVG), the two round loops,
and a confusion matrix. All randomness flows from ``--seed`` (or the
``SEMCOM_SEED`` environment variable), so reruns reproduce files exactly.

Files are values. Each subcommand returns its files by name, each the text
or bytes a format module built, with its summary line and exit code, and
:func:`write_files` is the one place a run's files reach disk. It runs
after everything is computed, so a run that fails creates no ``--out``;
an ``--out`` that could never be a directory is refused before any work.

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


# A run's files by name under ``--out``, as text or bytes.
Files = dict[str, str | bytes]
# What a subcommand returns: its files, its summary for stdout, its exit code.
Run = tuple[Files, str, int]


def write_files(out: str, files: Files) -> None:
    """Write each of ``files`` under ``out``, making its directory; text as UTF-8, newlines untranslated."""
    for name, content in files.items():
        path = os.path.join(out, name)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(content.encode() if isinstance(content, str) else content)


def _check_out(out: str) -> None:
    """Raise :class:`ConfigError` if ``out`` is empty, or is or lies under an existing non-directory."""
    path = out
    while path and not os.path.exists(path):  # "" is the working directory
        path = os.path.dirname(path)
    if not out or (path and not os.path.isdir(path)):
        raise ConfigError(f"--out must name a directory, got {out!r}")


def _computes(command: Callable[..., Run]) -> Callable[[argparse.Namespace], Run]:
    """Load the config, then numpy, and run ``command`` with OpenBLAS on one thread."""

    def run(args: argparse.Namespace) -> Run:
        cfg = _load(args)
        from . import blas  # imports numpy, so single_thread finds its OpenBLAS mapped

        with blas.single_thread():
            return command(args, cfg)

    return run


def cmd_linkbudget(args: argparse.Namespace) -> Run:
    ground, isl = _load(args).linkbudget.reports()
    files = {
        name: csv_text(LINK_REPORT_CSV_HEADER, [report])
        for name, report in (("linkbudget.csv", ground), ("isl_linkbudget.csv", isl))
    }
    summary = f"ground link\n{ground.as_text()}\n\ninter-satellite link\n{isl.as_text()}"
    return files, summary, 0


@_computes
def cmd_gen_data(args: argparse.Namespace, cfg: HarnessConfig) -> Run:
    from .dataset import generate_synthetic, summary_csv, tensor_file

    splits_t0, splits_t1 = generate_synthetic(cfg.dataset)
    files: Files = {
        f"{tag}_{part}.msit": tensor_file(getattr(splits, part))
        for tag, splits in (("t0", splits_t0), ("t1", splits_t1))
        for part in ("train", "val", "test")
    }
    files["summary.csv"] = summary_csv(splits_t0)
    counts = f"{len(splits_t0.train)}/{len(splits_t0.val)}/{len(splits_t0.test)}"
    return files, f"wrote {counts} train/val/test images per epoch to {args.out}", 0


@_computes
def cmd_train(args: argparse.Namespace, cfg: HarnessConfig) -> Run:
    from .dataset import generate_synthetic
    from .dtjscc import bundle_files, train_dtjscc

    splits, _ = generate_synthetic(cfg.dataset)
    system = train_dtjscc(splits, cfg.experiment.train_psnr_db, cfg.dtjscc)
    files: Files = {f"bundle/{name}": data for name, data in bundle_files(system).items()}
    files["history.csv"] = csv_text("epoch,loss", enumerate(system.history))
    status = "converged" if system.converged else "did not converge"
    summary = f"val top1 {system.val_accuracy:.4f} ({status}); bundle in {os.path.join(args.out, 'bundle')}"
    return files, summary, 0 if system.converged else 3


@_computes
def cmd_sweep(args: argparse.Namespace, cfg: HarnessConfig) -> Run:
    from . import harness

    if args.workers is not None:
        try:
            experiment = replace(cfg.experiment, workers=args.workers)
        except ValueError as exc:
            raise ConfigError(f"sweep.{exc}") from None
        cfg = replace(cfg, experiment=experiment)
    result = harness.run_sweep(cfg)
    files = {"sweep.csv": result.csv(), "sweep.svg": harness.svg_text(result)}
    return files, f"{len(result.rows)} cells -> {os.path.join(args.out, 'sweep.csv')}", 0


@_computes
def cmd_csa(args: argparse.Namespace, cfg: HarnessConfig) -> Run:
    from . import harness
    from .csa import rounds_to_target

    logs, _ = harness.run_csa_experiment(cfg, meta_enabled=not args.no_meta)
    name = "csa_rounds.csv" if not args.no_meta else "csa_static_rounds.csv"
    final = [e for e in logs if e.side == "ut"][-1]
    hit = rounds_to_target(logs, cfg.csa.target_accuracy, "ut")
    reach = f"reached {cfg.csa.target_accuracy:.2f} at round {hit}" if hit is not None else (
        f"never reached {cfg.csa.target_accuracy:.2f}"
    )
    summary = f"final terminal top1 {final.top1_accuracy:.4f}; {reach}; log in {os.path.join(args.out, name)}"
    return {name: harness.roundlog_csv(logs)}, summary, 0


@_computes
def cmd_fedavg(args: argparse.Namespace, cfg: HarnessConfig) -> Run:
    from . import harness

    logs = harness.run_fedavg_experiment(cfg)
    path = os.path.join(args.out, "fedavg_rounds.csv")
    summary = f"final server top1 {logs[-1].top1_accuracy:.4f}; log in {path}"
    return {"fedavg_rounds.csv": harness.roundlog_csv(logs)}, summary, 0


@_computes
def cmd_race(args: argparse.Namespace, cfg: HarnessConfig) -> Run:
    from . import harness

    race = harness.run_round_race(cfg)
    files = {
        "csa_rounds.csv": harness.roundlog_csv(race.csa_logs),
        "fedavg_rounds.csv": harness.roundlog_csv(race.fedavg_logs),
    }

    def fmt(rounds: int | None) -> str:
        return f"round {rounds}" if rounds is not None else "never"

    summary = (
        f"target {race.target:.2f}: adaptation {fmt(race.csa_rounds)}, "
        f"parameter averaging {fmt(race.fedavg_rounds)}"
    )
    return files, summary, 0


@_computes
def cmd_confusion(args: argparse.Namespace, cfg: HarnessConfig) -> Run:
    from . import harness

    matrix = harness.run_confusion(cfg)
    summary = f"top1 {matrix.top1():.4f}; matrix in {os.path.join(args.out, 'confusion.csv')}"
    return {"confusion.csv": matrix.csv()}, summary, 0


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
    try:
        args = parser.parse_args(argv)  # None reads sys.argv
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    if not hasattr(args, "func"):
        parser.print_usage(sys.stderr)
        return 1
    try:
        _check_out(args.out)  # before any work, so a bad --out costs nothing
        files, summary, code = args.func(args)
        write_files(args.out, files)  # only once everything is computed
        print(summary)
        return code
    except Exception as exc:  # a one-line diagnostic: code 1 for a bad config, else 2
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, ConfigError) else 2


if __name__ == "__main__":
    sys.exit(main())
