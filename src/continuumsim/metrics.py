"""Stage-timing records, summary statistics, and CSV emission.

The CSV layout is a stable external interface: header and 6-decimal fixed
formatting are bit-exact so repeated runs of a seeded scenario produce
byte-identical files.

Round-trip definitions: a span starts when the first byte of the transfer
(the metadata frame) hits the far-edge uplink and ends when the result lands
back at the far edge. It is reported as ``edge_rtt`` when the edge resolved
the identity locally and as ``cloud_rtt`` when the cloud did.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from itertools import repeat, tee
from operator import attrgetter, is_, mul, sub
from pathlib import Path
from typing import Iterable, Optional

# The CSV's columns, in order: the image id, the nine timings, then the
# outcome.
_COLUMNS = ("image_id", "t_read_decode", "t_quality", "t_infer1", "t_infer2",
            "t_detect_total", "t_upload", "t_identify", "edge_rtt", "cloud_rtt",
            "origin", "recognized", "label")
CSV_HEADER = ",".join(_COLUMNS)

# Metrics summarized with mean/std: the timings. Each is averaged over the
# records where the stage actually ran (see _metric_values).
SUMMARY_METRICS = _COLUMNS[1:10]


class EmptyRecords(ValueError):
    pass


class MismatchedScenarios(ValueError):
    pass


@dataclass(slots=True)
class MetricsRecord:
    """Per-image stage timings plus the identification outcome.

    ``cloud_rtt`` is present iff the result originated at the cloud;
    ``edge_rtt`` is meaningful only for edge-resolved images and is zero
    otherwise. ``t_detect_total`` is the total of the detection stage's
    three stages, the last value of ``workload.detection_for``.
    ``completion_s`` orders the CSV but is not emitted.
    """

    image_id: str
    t_read_decode: float = 0.0
    t_quality: float = 0.0
    t_infer1: float = 0.0
    t_infer2: float = 0.0
    t_detect_total: float = 0.0
    t_upload: float = 0.0
    t_identify: float = 0.0
    edge_rtt: float = 0.0
    cloud_rtt: Optional[float] = None
    origin: str = "none"
    recognized: bool = False
    label: Optional[str] = None
    completion_s: float = 0.0
    is_false_positive: bool = False


@dataclass(frozen=True)
class MetricStats:
    mean: float
    std: float
    count: int


@dataclass
class RunSummary:
    n_images: int
    total_runtime: float
    throughput: float
    core0_util: float
    core1_util: float
    total_util: float
    fp_count: int = 0
    stats: dict[str, MetricStats] = field(default_factory=dict)


def _sample_std(values: list[float], mean: float) -> float:
    # Sample standard deviation (n-1), zero for one value; squares are products,
    # not pow, of deviations that ``tee`` hands out one at a time, in no list.
    n = len(values)
    if n < 2:
        return 0.0
    deviations = tee(map(sub, values, repeat(mean)))
    return math.sqrt(math.fsum(map(mul, *deviations)) / (n - 1))


def _metric_values(records: list[MetricsRecord], metric: str) -> list[float]:
    if metric == "edge_rtt":
        return [r.edge_rtt for r in records if r.origin == "edge"]
    if metric == "cloud_rtt":
        return [r.cloud_rtt for r in records if r.cloud_rtt is not None]
    value = attrgetter(metric)
    if metric in ("t_upload", "t_identify"):
        return [value(r) for r in records if r.t_upload > 0.0]
    return list(map(value, records))


def summarize(records: list[MetricsRecord], core_busy: dict[int, float],
              wall: float) -> RunSummary:
    """Aggregate a finished run: arithmetic means, sample standard deviation,
    and per-core utilization as busy time over wall time. Total utilization
    is the arithmetic mean of the two far-edge cores."""
    if not records:
        raise EmptyRecords("cannot summarize an empty run")
    if wall <= 0:
        raise ValueError("wall time must be positive")
    stats = {}
    for metric in SUMMARY_METRICS:
        values = _metric_values(records, metric)
        if values:
            mean = math.fsum(values) / len(values)
            stats[metric] = MetricStats(mean, _sample_std(values, mean), len(values))
        else:
            stats[metric] = MetricStats(0.0, 0.0, 0)
    core0 = core_busy.get(0, 0.0) / wall
    core1 = core_busy.get(1, 0.0) / wall
    return RunSummary(
        n_images=len(records),
        total_runtime=wall,
        throughput=len(records) / wall,
        core0_util=core0,
        core1_util=core1,
        total_util=(core0 + core1) / 2.0,
        stats=stats,
        fp_count=sum(map(attrgetter("is_false_positive"), records)),
    )


@dataclass(frozen=True)
class ComparisonReport:
    runtime_reduction: float
    throughput_gain: float


def compare(base: RunSummary, variant: RunSummary) -> ComparisonReport:
    """Relative change of the variant against the base run."""
    if base.n_images != variant.n_images:
        raise MismatchedScenarios(
            f"dataset sizes differ: {base.n_images} vs {variant.n_images}")
    return ComparisonReport(
        runtime_reduction=(base.total_runtime - variant.total_runtime) / base.total_runtime,
        throughput_gain=(variant.throughput - base.throughput) / base.throughput,
    )


# One template for the text of a row after its image id: eight timings and
# ``cloud_rtt`` in 6-decimal fixed point, then origin, recognized and label.
# A ``cloud_rtt`` of None takes the second template, whose ``%.0s`` writes it
# as nothing.
_TAIL = ",%.6f" * 9 + ",%s,%s,%s"
_TAIL_NO_CLOUD = ",%.6f" * 8 + ",%.0s,%s,%s,%s"
_TAIL_FIELDS = attrgetter(*_COLUMNS[1:])


def emit_csv(records: Iterable[MetricsRecord], path: str | Path) -> int:
    """Write one row per record ordered by completion time then image id;
    returns the number of data rows.

    A row whose fields after the image id are each the very object of the
    row before's (a jitter-free run's face-less frames share theirs) reuses
    that row's text. The test is identity, not ``==``: ``0.0 == -0.0``, yet
    the two print differently. Any other row is formatted from its values."""
    rows = sorted(records, key=attrgetter("completion_s", "image_id"))
    lines = [CSV_HEADER]
    fields = None
    for r in rows:
        last, fields = fields, _TAIL_FIELDS(r)
        if last is None or not all(map(is_, fields, last)):
            *values, recognized, label = fields
            tail = (_TAIL if values[8] is not None else _TAIL_NO_CLOUD) % (
                *values, "true" if recognized else "false", label or "")
        lines.append(r.image_id + tail)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return len(rows)


def summary_to_dict(summary: RunSummary) -> dict:
    return asdict(summary)


def emit_summary_json(summary: RunSummary, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(summary_to_dict(summary), indent=2) + "\n", encoding="utf-8")
