"""Scenario runner CLI.

Runs a single scenario (from flags and/or a JSON scenario file) or one of the
stock presets, and writes ``metrics.csv`` plus ``summary.json`` per run; the
matrix presets additionally write a ``comparison.json`` at the top of the
output directory.

Exit codes: 0 success, 2 configuration error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path
from typing import Optional

from .domain import (
    ConfigError,
    ScenarioConfig,
    TimeMode,
    TransportKind,
    config_from_json,
    validate_config,
)
from .metrics import RunSummary, compare, emit_csv, emit_summary_json, summary_to_dict
from .nodes import run_scenario
from .presets import PRESET_NAMES, DEFAULT_SEED, base_config, build_preset

_TRANSPORT_FLAG = {"blocking": TransportKind.BLOCKING_SESSION,
                   "pubsub": TransportKind.PUBSUB}
_MODE_FLAG = {"sim": TimeMode.VIRTUAL, "tcp": TimeMode.WALLCLOCK_TCP}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="continuumsim",
        description="Deterministic benchmark simulator for a three-tier "
                    "edge-cloud continuum.")
    parser.add_argument("--scenario", metavar="FILE",
                        help="JSON scenario file (flags override its values)")
    parser.add_argument("--preset", choices=PRESET_NAMES,
                        help="run a stock preset matrix")
    parser.add_argument("--transport", choices=sorted(_TRANSPORT_FLAG))
    parser.add_argument("--parallelism", choices=["on", "off"])
    parser.add_argument("--cloud", choices=["on", "off"])
    parser.add_argument("--images", type=int, metavar="N")
    parser.add_argument("--chunk-size", type=int, metavar="N")
    parser.add_argument("--seed", type=int, metavar="N")
    parser.add_argument("--mode", choices=sorted(_MODE_FLAG))
    parser.add_argument("--time-scale", type=float, metavar="F")
    parser.add_argument("--out", metavar="DIR", default="out")
    return parser


def _apply_flags(cfg: ScenarioConfig, args: argparse.Namespace) -> ScenarioConfig:
    updates = {}
    if args.transport is not None:
        updates["transport"] = _TRANSPORT_FLAG[args.transport]
    if args.parallelism is not None:
        updates["parallelism"] = args.parallelism == "on"
    if args.cloud is not None:
        updates["cloud_enabled"] = args.cloud == "on"
    if args.images is not None:
        updates["dataset_size"] = args.images
    if args.chunk_size is not None:
        updates["chunk_size_bytes"] = args.chunk_size
    if args.seed is not None:
        updates["rng_seed"] = args.seed
    if args.mode is not None:
        updates["time_mode"] = _MODE_FLAG[args.mode]
    if args.time_scale is not None:
        updates["time_scale"] = args.time_scale
    return replace(cfg, **updates) if updates else cfg


def _run_and_write(cfg: ScenarioConfig, out_dir: Path, label: str) -> Optional[RunSummary]:
    """Run ``cfg`` and write its files to ``out_dir``. Returns the run's
    summary, or None once it has printed why the run failed or its files
    could not be written; nothing else of the run is kept."""
    try:
        result = run_scenario(cfg)
    except Exception as exc:  # noqa: BLE001 - surfaced as exit code
        print(f"error: {label}{exc}", file=sys.stderr)
        return None
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        emit_csv(result.records, out_dir / "metrics.csv")
        emit_summary_json(result.summary, out_dir / "summary.json")
    except OSError as exc:
        print(f"error: {label}cannot write to {out_dir}: {exc}", file=sys.stderr)
        return None
    if result.failure:
        print(f"error: {label}{result.failure}", file=sys.stderr)
        return None
    return result.summary


def _preset_comparison(name: str, summaries: dict[str, RunSummary],
                       fp_rate: float) -> dict:
    """The comparison of preset ``name`` from the summary of each of its
    runs, by run name; ``fp_rate`` is the cloud's false-positive rate in
    those runs."""
    if name == "fig3_parallelism":
        report = {}
        for tag in ("pubsub", "blocking"):
            seq = summaries[f"{tag}_seq"]
            par = summaries[f"{tag}_par"]
            delta = compare(seq, par)
            report[tag] = {
                "runtime_reduction": delta.runtime_reduction,
                "throughput_gain": delta.throughput_gain,
                "sequential": summary_to_dict(seq),
                "parallel": summary_to_dict(par),
            }
        return report
    if name == "fig4_rtt":
        report = {}
        for tag in ("pubsub", "blocking"):
            stats = summaries[tag].stats
            edge, cloud = stats["edge_rtt"], stats["cloud_rtt"]
            report[tag] = {
                "edge_rtt": asdict(edge),
                "cloud_rtt": asdict(cloud),
                "cloud_over_edge_ratio":
                    cloud.mean / edge.mean if edge.mean > 0 else 0.0,
            }
        return report
    if name == "fig5_datasets":
        report: dict[str, dict] = {"pubsub": {}, "blocking": {}}
        for run_name, summary in summaries.items():
            tag, size = run_name.rsplit("_n", 1)
            report[tag][size] = {
                "throughput": summary.throughput,
                "total_runtime": summary.total_runtime,
            }
        return report
    if name == "fp_study":
        summary = summaries["fp_study"]
        return {
            "n_images": summary.n_images,
            "fp_rate": fp_rate,
            "fp_count": summary.fp_count,
        }
    raise ValueError(f"unknown preset {name!r}")


def run(args: argparse.Namespace) -> int:
    out_root = Path(args.out)
    if args.preset and args.scenario:
        print("error: --preset conflicts with --scenario", file=sys.stderr)
        return 2

    if args.preset:
        seed = args.seed if args.seed is not None else DEFAULT_SEED
        preset = build_preset(args.preset, seed=seed)
        summaries: dict[str, RunSummary] = {}
        for preset_run in preset.runs:
            cfg = _apply_flags(preset_run.config, args)
            check = validate_config(cfg)
            if not check.ok:
                print("error: " + "; ".join(check.violations), file=sys.stderr)
                return 2
            summary = _run_and_write(cfg, out_root / preset_run.name, f"{preset_run.name}: ")
            if summary is None:
                return 3
            summaries[preset_run.name] = summary
        comparison = _preset_comparison(preset.name, summaries, cfg.fp_rate)
        try:
            (out_root / "comparison.json").write_text(
                json.dumps(comparison, indent=2) + "\n", encoding="utf-8")
        except OSError as exc:
            print(f"error: cannot write to {out_root}: {exc}", file=sys.stderr)
            return 3
        return 0

    if args.scenario:
        try:
            cfg = config_from_json(Path(args.scenario).read_text(encoding="utf-8"))
        except OSError as exc:
            print(f"error: cannot read scenario file: {exc}", file=sys.stderr)
            return 2
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        cfg = base_config()
    cfg = _apply_flags(cfg, args)
    check = validate_config(cfg)
    if not check.ok:
        print("error: " + "; ".join(check.violations), file=sys.stderr)
        return 2
    return 3 if _run_and_write(cfg, out_root, "") is None else 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
