"""One pass of a workload through ``continuumsim.cli.main``, and its checks.

A pass runs every invocation of the workload in this process and times it on
the caller's clock. The CLI looks ``run_scenario`` up on its own module, so
the pass replaces that name for its duration to see each run's config and
result and to time each run by transport. After the pass, every run is
checked: exit code, ``RunResult.failure``, one record per image, and the
SHA-256 of each output file against the pinned bytes (or, for a seed with no
pins, against the first pass of the same process). TCP runs write wall-clock
times, so they are checked instead for exactly one result per image and for
the same result multiset as virtual time gives.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from continuumsim import cli
from continuumsim.domain import TimeMode
from continuumsim.nodes import run_scenario

import workloads

PINNED_FILE = Path(__file__).resolve().parent / "pinned.json"
MULTISET_FILE = "result_multiset"
SETTLE_LIMIT_S = 3.0
SETTLE_QUIET_S = 0.3


@dataclass
class RunOutcome:
    expected: workloads.ExpectedRun
    result: object = None  # continuumsim.nodes.RunResult
    seconds: float = 0.0
    errors: list[str] = field(default_factory=list)

    @property
    def uploads(self) -> int:
        return sum(1 for r in self.result.records if r.origin != "none") if self.result else 0

    @property
    def messages(self) -> int:
        return self.uploads * self.expected.messages_per_upload()

    @property
    def chunks(self) -> int:
        return self.uploads * self.expected.chunks_per_upload()


@dataclass
class PassResult:
    wall_s: float
    runs: list[RunOutcome]
    hashes: dict[str, str]
    threads_leaked: int
    errors: list[str] = field(default_factory=list)  # not tied to one run

    @property
    def failed(self) -> int:
        return sum(1 for r in self.runs if r.errors)

    def per_transport(self, transport: str) -> tuple[int, int, float]:
        """(images, far->edge messages, seconds) over this pass's runs of one
        transport."""
        runs = [r for r in self.runs if r.expected.transport == transport]
        return (sum(r.expected.config.dataset_size for r in runs),
                sum(r.messages for r in runs),
                sum(r.seconds for r in runs))


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def multiset_hash(multiset: list) -> str:
    return hashlib.sha256(json.dumps(multiset).encode()).hexdigest()


def virtual_multiset(cfg) -> list:
    """Result multiset of ``cfg`` run in virtual time."""
    return run_scenario(replace(cfg, time_mode=TimeMode.VIRTUAL)).result_multiset


def load_pins(seed: int, name: str) -> dict[str, str] | None:
    pins = json.loads(PINNED_FILE.read_text(encoding="utf-8")) if PINNED_FILE.exists() else {}
    return pins.get(str(seed), {}).get(name)


def settle_threads() -> int:
    """Wait until the thread count has not changed for ``SETTLE_QUIET_S`` (at
    most ``SETTLE_LIMIT_S``) so that threads a TCP run leaves exiting are gone
    before the next timing starts; returns the settled count."""
    deadline = time.monotonic() + SETTLE_LIMIT_S
    count, since = threading.active_count(), time.monotonic()
    while time.monotonic() < deadline:
        time.sleep(0.02)
        now_count = threading.active_count()
        if now_count != count:
            count, since = now_count, time.monotonic()
        elif time.monotonic() - since >= SETTLE_QUIET_S:
            break
    return count


def run_pass(name: str, seed: int, out_root: Path, now) -> PassResult:
    """Run every invocation of workload ``name`` once; ``now`` is the clock.
    Only the ``cli.main`` calls are timed."""
    expected = workloads.expected_runs(name, seed)
    shutil.rmtree(out_root, ignore_errors=True)
    seen: list[list[RunOutcome]] = []  # per invocation, in call order
    inner = cli.run_scenario

    def timed_run_scenario(cfg):
        start = now()
        result = inner(cfg)
        seen[-1].append(RunOutcome(expected=None, result=result, seconds=now() - start))
        return result

    wall = 0.0
    leaked = 0
    codes = []
    cli.run_scenario = timed_run_scenario
    try:
        for index, inv in enumerate(workloads.WORKLOADS[name]):
            seen.append([])
            before = threading.active_count()
            start = now()
            try:
                code = cli.main(workloads.argv_for(inv, seed, str(out_root / str(index))))
            except SystemExit as exc:  # argparse rejects the command line
                code = exc.code
            except Exception as exc:  # noqa: BLE001 - a crash fails the invocation's runs
                code = f"{type(exc).__name__}: {exc}"
            wall += now() - start
            codes.append(code)
            if any(run.tcp for run in expected if run.invocation == index):
                leaked += settle_threads() - before
    finally:
        cli.run_scenario = inner

    outcome = PassResult(wall_s=wall, runs=[], hashes={}, threads_leaked=leaked)
    for index, made in enumerate(seen):
        wanted = [exp for exp in expected if exp.invocation == index]
        if len(made) > len(wanted):
            outcome.errors.append(f"invocation {index} made {len(made)} runs, "
                                  f"{len(wanted)} expected")
        for i, exp in enumerate(wanted):
            run = made[i] if i < len(made) else RunOutcome(expected=None)
            run.expected = exp
            if codes[index] != 0:
                run.errors.append(f"cli exit code {codes[index]}")
            if run.result is None:
                run.errors.append("run missing")
            else:
                _check_result(run)
            outcome.runs.append(run)
    for path in sorted(out_root.rglob("*")):
        if path.is_file():
            outcome.hashes[path.relative_to(out_root).as_posix()] = sha256_file(path)
    return outcome


def _check_result(run: RunOutcome) -> None:
    cfg, result = run.expected.config, run.result
    if result.config != cfg:
        run.errors.append("CLI built another config than the benchmark expects")
    if result.failure:
        run.errors.append(f"failure: {result.failure}")
    ids = [r.image_id for r in result.records]
    if len(ids) != cfg.dataset_size or len(set(ids)) != len(ids):
        run.errors.append(f"{len(set(ids))} distinct results for {cfg.dataset_size} images")
    origins = {r.origin for r in result.records}
    if cfg.face_prob == 1.0 and "none" in origins:
        run.errors.append("an uploaded image got no result")
    if cfg.face_prob == 0.0 and origins != {"none"}:
        run.errors.append("a face-less image got a result")


class OutputChecker:
    """Compares each pass's output bytes with the pinned hashes for this seed,
    or with the first pass when the seed has none."""

    def __init__(self, name: str, seed: int):
        self.reference = load_pins(seed, name)
        self.pinned = self.reference is not None
        self._virtual_multisets: dict[str, list] = {}

    def check(self, result: PassResult) -> None:
        if self.reference is None:
            self.reference = dict(result.hashes)
            for run in result.runs:
                if run.expected.tcp:
                    self.reference[f"{run.expected.out_dir}/{MULTISET_FILE}"] = (
                        multiset_hash(self._virtual(run.expected.config)))
        for run in result.runs:
            if run.expected.tcp:
                self._check_tcp(run)
            else:
                self._check_files(result, run)
        for path in self.reference:
            if path.count("/") == 1 and path.endswith("comparison.json"):
                if result.hashes.get(path) != self.reference[path]:
                    for run in result.runs:
                        if run.expected.invocation == int(path.split("/")[0]):
                            run.errors.append(f"{path} differs from the pinned bytes")

    def _check_files(self, result: PassResult, run: RunOutcome) -> None:
        prefix = run.expected.out_dir + "/"
        wanted = {p: h for p, h in self.reference.items()
                  if p.startswith(prefix) and p.count("/") == prefix.count("/")}
        if not wanted:
            run.errors.append(f"no reference hashes for {prefix}")
        for path, digest in wanted.items():
            if result.hashes.get(path) != digest:
                run.errors.append(f"{path} differs from the pinned bytes")

    def _check_tcp(self, run: RunOutcome) -> None:
        if run.result is None:
            return
        key = f"{run.expected.out_dir}/{MULTISET_FILE}"
        virtual = self._virtual(run.expected.config)
        if multiset_hash(virtual) != self.reference.get(key):
            run.errors.append("virtual-time result multiset differs from the pin")
        if run.result.result_multiset != virtual:
            run.errors.append("TCP results differ from the virtual-time results")

    def _virtual(self, cfg) -> list:
        key = repr(cfg)
        if key not in self._virtual_multisets:
            self._virtual_multisets[key] = virtual_multiset(cfg)
        return self._virtual_multisets[key]
