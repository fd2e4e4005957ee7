"""The benchmark's workloads: CLI invocations plus the runs they must make.

Each workload is a list of ``continuumsim`` command lines. One pass runs them
all, in order, through ``continuumsim.cli.main`` in this process. The
expected runs below say which scenario configs the CLI must simulate and
where it writes each run's files; the benchmark checks every pass against
them. This module imports the program only inside functions, so the set-up
probe can time the program's import on its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

DEFAULT_SEED = 7  # presets.DEFAULT_SEED
TCP_TIME_SCALE = 0.0001


@dataclass(frozen=True)
class Invocation:
    argv: tuple[str, ...]
    preset: str | None = None
    updates: dict = field(default_factory=dict)  # ScenarioConfig fields the flags set


@dataclass(frozen=True)
class ExpectedRun:
    invocation: int
    out_dir: str  # relative to the pass's output root
    config: object  # continuumsim.domain.ScenarioConfig

    @property
    def tcp(self) -> bool:
        return self.config.time_mode.value == "WALLCLOCK_TCP"

    @property
    def transport(self) -> str:
        return "pubsub" if self.config.transport.value == "PUBSUB" else "blocking"

    def messages_per_upload(self) -> int:
        """Far->edge wire messages per uploaded image: metadata plus chunks."""
        return 1 + self.chunks_per_upload()

    def chunks_per_upload(self) -> int:
        return math.ceil(self.config.payload_bytes / self.config.chunk_size_bytes)


def _transport_flags(base: tuple[str, ...], transports: tuple[str, ...],
                     updates: dict) -> tuple[Invocation, ...]:
    return tuple(
        Invocation(base + ("--transport", t),
                   updates=dict(updates, transport=t))
        for t in transports)


# Why each workload exists is in BENCHMARK.json and README.md.
WORKLOADS: dict[str, tuple[Invocation, ...]] = {
    "local": (Invocation(("--preset", "fig3_parallelism"), preset="fig3_parallelism"),),
    "upload": (Invocation(("--preset", "fig5_datasets"), preset="fig5_datasets"),),
    "small_chunks": _transport_flags(
        ("--chunk-size", "64", "--cloud", "on", "--images", "20"),
        ("pubsub", "blocking"),
        dict(chunk_size_bytes=64, cloud_enabled=True, dataset_size=20)),
    "tcp": _transport_flags(
        ("--mode", "tcp", "--cloud", "on", "--time-scale", str(TCP_TIME_SCALE),
         "--images", "40"),
        ("blocking",),
        dict(time_mode="tcp", time_scale=TCP_TIME_SCALE, cloud_enabled=True,
             dataset_size=40)),
}


def argv_for(inv: Invocation, seed: int, out_dir: str) -> list[str]:
    return list(inv.argv) + ["--seed", str(seed), "--out", out_dir]


def expected_runs(name: str, seed: int) -> list[ExpectedRun]:
    """The scenario runs one pass of ``name`` makes, in the order the CLI
    makes them, with the configs the CLI should build for them."""
    from continuumsim.domain import TimeMode, TransportKind
    from continuumsim.presets import base_config, build_preset

    runs = []
    for index, inv in enumerate(WORKLOADS[name]):
        if inv.preset is not None:
            for preset_run in build_preset(inv.preset, seed=seed).runs:
                runs.append(ExpectedRun(index, f"{index}/{preset_run.name}",
                                        preset_run.config))
            continue
        updates = dict(inv.updates)
        updates["transport"] = (TransportKind.PUBSUB if updates["transport"] == "pubsub"
                                else TransportKind.BLOCKING_SESSION)
        if updates.get("time_mode") == "tcp":
            updates["time_mode"] = TimeMode.WALLCLOCK_TCP
        runs.append(ExpectedRun(index, str(index),
                                replace(base_config(seed=seed), **updates)))
    return runs
