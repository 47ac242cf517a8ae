"""Command-line interface.

Subcommands:
  gen-data   synthesize a dataset and write shard files plus a manifest
  run        execute a full framework experiment from a JSON config
  baseline   per-modality federated averaging with late-fusion inference
  ablate     module on/off grid over scenario columns
  report     summarize a run's CSV log

Exit codes: 0 on success, 2 for configuration/usage errors, 1 for runtime
failures.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .config import load_config, load_gen_spec, read_text
from .data import build_scenario, gen_synthetic, save_shard, write_manifest
from .engine import (
    DEFAULT_ABLATION_SCENARIOS,
    baseline_fedavg_latefusion,
    run_ablation,
    run_experiment,
)
from .errors import ConfigError, FedmmError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedmm",
        description="deterministic multi-modal federated learning simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-data", help="generate a synthetic dataset")
    gen.add_argument("--spec", required=True, help="dataset spec JSON file")
    gen.add_argument("--out", required=True, help="output directory")
    gen.add_argument("--seed", type=int, default=None, help="override the spec seed")

    for name, help_text in (
        ("run", "run a framework experiment"),
        ("baseline", "run the per-modality averaging baseline"),
        ("ablate", "run the module combination grid"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="experiment config JSON file")
        cmd.add_argument("--seed", type=int, default=None, help="override the config seed")
        cmd.add_argument("--out", default=None, help="override the config output_dir")
        if name in ("run", "baseline"):
            cmd.add_argument(
                "--parallel",
                action="store_true",
                help=(
                    "run clients in worker processes forked once per run, one "
                    "per usable CPU (at most one per client), that keep their "
                    "clients' state in memory shared with this process, with "
                    "numpy's BLAS capped to one thread from the first round "
                    "to the last; same results as serial"
                ),
            )
        if name == "ablate":
            cmd.add_argument(
                "--scenarios",
                default=",".join(DEFAULT_ABLATION_SCENARIOS),
                help="comma-separated scenario kinds (grid columns)",
            )

    rep = sub.add_parser("report", help="summarize an experiment CSV log")
    rep.add_argument("--log", required=True, help="path to log.csv")
    return parser


def _cmd_gen_data(args) -> int:
    dataset_spec, scenario, k_clients = load_gen_spec(args.spec, args.seed)
    dataset = gen_synthetic(dataset_spec)
    # split before writing, so a spec that leaves a client short writes nothing
    clients = [] if scenario is None else build_scenario(dataset, scenario, k_clients)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    paths: dict[str, list[str]] = {"train": [], "test": []}
    for split, shards in (("train", dataset.train), ("test", dataset.test)):
        for shard in shards:
            name = f"{split}_m{shard.modality_id}.shard"
            save_shard(shard, out / name, n_labels=dataset_spec.n_labels)
            paths[split].append(name)
    scenario_kind = "none"
    if scenario is not None:
        scenario_kind = scenario.kind
        paths["clients"] = []
        for cid, shard in enumerate(clients):
            name = f"client_{cid:03d}.shard"
            save_shard(shard, out / name, n_labels=dataset_spec.n_labels)
            paths["clients"].append(name)
    write_manifest(out / "manifest.json", paths, scenario_kind, dataset_spec)
    print(f"wrote {sum(len(v) for v in paths.values())} shards to {out}")
    return 0


def _apply_overrides(cfg, args):
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    if args.out is not None:
        cfg = dataclasses.replace(cfg, output_dir=args.out)
    return cfg


def _cmd_train(args) -> int:
    """``run`` or ``baseline``: train as configured, print the final scores."""
    entry = run_experiment if args.command == "run" else baseline_fedavg_latefusion
    cfg = _apply_overrides(load_config(args.config), args)
    log = entry(cfg, parallel=args.parallel)
    for mode in cfg.inference_modes:
        report = log.final_eval(mode)
        print(f"final {mode}: micro_f1={report.micro_f1:.4f} "
              f"macro_f1={report.macro_f1:.4f} accuracy={report.accuracy:.4f}")
    if cfg.output_dir:
        print(f"outputs in {cfg.output_dir}")
    return 0


def _cmd_ablate(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    scenarios = tuple(s.strip() for s in args.scenarios.split(",") if s.strip())
    table = run_ablation(cfg, scenarios=scenarios)
    header = "modules".ljust(12) + "".join(s.rjust(18) for s in table.scenarios)
    print(header)
    for row in table.rows:
        cells = "".join(
            f"{table.micro_f1[(row, s)]:18.4f}" for s in table.scenarios
        )
        print(row.ljust(12) + cells)
    if cfg.output_dir:
        out = Path(cfg.output_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "ablation.csv").write_text(table.to_csv())
        print(f"outputs in {cfg.output_dir}")
    return 0


_REPORT_COLUMNS = {"round": int, "mode": str, "micro_f1": float, "macro_f1": float,
                   "accuracy": float}


def parse_log_csv(text: str) -> list[dict]:
    """Rows of a ``log.csv``; the columns the report reads are parsed."""
    lines = [ln for ln in text.strip().split("\n") if ln]
    if not lines:
        raise ConfigError("log file is empty")
    if len(lines) == 1:
        raise ConfigError("log file has a header but no rows")
    header = lines[0].split(",")
    rows = []
    for n, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != len(header):
            raise ConfigError("log file has a malformed row")
        row = dict(zip(header, parts))
        try:
            row.update({col: kind(row[col]) for col, kind in _REPORT_COLUMNS.items()})
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"log file line {n}: bad report column ({exc})") from None
        rows.append(row)
    return rows


def summarize_log(text: str) -> tuple[list[dict], list[tuple[int, float]]]:
    """Final-round rows per mode plus the fused-mode F1 trajectory."""
    rows = parse_log_csv(text)
    last_round = max(r["round"] for r in rows)
    final_rows = [r for r in rows if r["round"] == last_round]
    trajectory = [(r["round"], r["micro_f1"]) for r in rows if r["mode"] == "both"]
    return final_rows, trajectory


def _cmd_report(args) -> int:
    final_rows, trajectory = summarize_log(read_text(args.log, "log"))
    print(f"final round {final_rows[0]['round']}")
    print(f"{'mode':<10}{'micro_f1':>10}{'macro_f1':>10}{'accuracy':>10}")
    for row in final_rows:
        print(
            f"{row['mode']:<10}"
            f"{row['micro_f1']:>10.4f}"
            f"{row['macro_f1']:>10.4f}"
            f"{row['accuracy']:>10.4f}"
        )
    if trajectory:
        print("\nmicro_f1 trajectory (both):")
        for rnd, value in trajectory:
            print(f"  round {rnd:>4}: {value:.4f}")
    return 0


_COMMANDS = {
    "gen-data": _cmd_gen_data,
    "run": _cmd_train,
    "baseline": _cmd_train,
    "ablate": _cmd_ablate,
    "report": _cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    # a dead --parallel worker is a ChildProcessError, which is an OSError
    except (FedmmError, ChildProcessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
