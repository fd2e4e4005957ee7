"""``tools/diffcheck.py``: the order in which it compares records, the
configs it counts as reordered, the ulp distance by which it counts a pair
of runs as within ``ULPS`` or different, the datasets it compares and the
configs it draws."""

from __future__ import annotations

import importlib.util
import json
import math
from pathlib import Path
from types import SimpleNamespace

import pytest

from continuumsim.domain import config_to_dict
from continuumsim.metrics import CSV_HEADER, MetricsRecord, emit_csv, summarize
from continuumsim.presets import base_config
from continuumsim.workload import Prng
from test_random_configs import random_config

_PATH = Path(__file__).resolve().parent.parent / "tools" / "diffcheck.py"
_SPEC = importlib.util.spec_from_file_location("diffcheck", _PATH)
diffcheck = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(diffcheck)


def _run(value: float) -> dict:
    return diffcheck._exact({"records": [{"rtt": 0.5, "wall": value}],
                             "summary": {"total_runtime": 2.0}})


def test_equal_runs_are_zero_ulps_apart():
    assert diffcheck._ulps(_run(1.0), _run(1.0), 2.0) == 0.0
    assert diffcheck._ulps(_run(math.inf), _run(math.inf), 2.0) == 0.0


def test_distance_is_taken_in_ulps_of_the_run_time_scale():
    near = math.nextafter(math.nextafter(1e-9, 1.0), 1.0)
    assert diffcheck._ulps(_run(1e-9), _run(near), 2.0) <= diffcheck.ULPS
    assert diffcheck._ulps(_run(1.0), _run(1.0 + 8 * math.ulp(2.0)), 2.0) == 8.0


@pytest.mark.parametrize("x, y", [
    (math.inf, 1.0),
    (1.0, -math.inf),
    (math.inf, -math.inf),
    (math.nan, 1.0),
    (math.nan, math.inf),
])
def test_a_non_finite_difference_is_infinitely_far(x, y):
    # inf / ulp(inf) would be NaN, which compares neither within nor beyond
    # the bound, so the config would be counted as equal.
    assert diffcheck._ulps(_run(x), _run(y), 2.0) == math.inf
    assert diffcheck._ulps(_run(y), _run(x), 2.0) == math.inf


def test_a_non_finite_difference_outweighs_every_other_under_max():
    a = diffcheck._exact({"x": math.inf, "y": 1.0})
    b = diffcheck._exact({"x": 1.0, "y": 1.0 + math.ulp(2.0)})
    assert diffcheck._ulps(a, b, 2.0) == math.inf
    assert diffcheck._ulps(b, a, 2.0) == math.inf


def _record(image_id: str, completion_s: float) -> MetricsRecord:
    return MetricsRecord(image_id=image_id, t_read_decode=0.25, t_quality=0.5,
                         t_infer1=0.0, t_infer2=0.0, t_detect_total=0.5, t_upload=0.0,
                         t_identify=0.0, edge_rtt=0.0, cloud_rtt=None, origin="none",
                         recognized=False, label=None, completion_s=completion_s,
                         is_false_positive=False)


def _reduced(records: list[MetricsRecord]) -> dict:
    result = SimpleNamespace(records=records, failure=None,
                             summary=summarize(records, {0: 0.0, 1: 2.25}, 3.0))
    return diffcheck._reduce(result, CSV_HEADER.split(","))


def test_records_are_compared_in_the_order_metrics_csv_writes_them(tmp_path):
    records = [_record("img00002", 0.75), _record("img00001", 3.0),
               _record("img00000", 3.0)]
    run = _reduced(records)
    emit_csv(records, tmp_path / "metrics.csv")
    rows = (tmp_path / "metrics.csv").read_text(encoding="utf-8").splitlines()[1:]
    written = [row.split(",")[0] for row in rows]
    assert written == ["img00002", "img00000", "img00001"]
    assert [record["image_id"] for record in run["records"]] == written
    assert run["order"] == ["img00002", "img00001", "img00000"]
    assert _reduced(records[::-1])["records"] == run["records"]


def test_runs_equal_but_for_their_record_order_are_counted_apart():
    records = [_record("img00000", 0.75), _record("img00001", 1.5)]
    later = [_record("img00000", 0.75), _record("img00001", 1.5 + math.ulp(1.5))]
    runs = [(_reduced(records), _reduced(records[::-1])),  # reordered
            (_reduced(records), _reduced(records)),  # equal
            (_reduced(records), _reduced(later[::-1]))]  # not equal, in any order
    distances, reordered = diffcheck._tally(runs)
    assert reordered == [0]
    assert distances == {2: 0.5}  # one ulp of 1.5 s in a run of 3.0 s
    assert all("order" not in run for pair in runs for run in pair)


def test_a_dataset_is_compared_bit_for_bit():
    # id, payload seed, face flag, ground truth and embedding per image; an
    # embedding one ulp apart makes the config different, not within.
    dataset = diffcheck._dataset(base_config(dataset_size=3, seed=7))
    assert [image[0] for image in dataset] == ["img00000", "img00001", "img00002"]
    assert all(image[2] and len(image[4].split()) == 128 for image in dataset)
    first = float.fromhex(dataset[0][4].split()[0])
    moved = [image[:] for image in dataset]
    moved[0][4] = " ".join([math.nextafter(first, 2.0).hex()] + dataset[0][4].split()[1:])
    assert diffcheck._ulps({"dataset": dataset}, {"dataset": dataset}, 2.0) == 0.0
    assert diffcheck._ulps({"dataset": dataset}, {"dataset": moved}, 2.0) == math.inf


def test_failed_runs_are_listed_by_transport_end_and_kind():
    # A config counts under the failure of either of its runs, once per
    # kind, as equal if its two runs are, and as the same failure if their
    # failure parts are equal, whatever its other parts; a transport with
    # no failed run is listed empty.
    timeout = {"failure": "session-a: no ack within 0.25s"}
    closed = {"failure": "session-a: send on closed connection"}
    ok = {"failure": None}
    runs = [(timeout, timeout), (timeout, dict(timeout)), (timeout, closed), (ok, ok),
            ({"raised": "ValueError: x"}, {"raised": "ValueError: x"}),
            ({**timeout, "dataset": [["img00000"]]}, {**timeout, "dataset": [["img00001"]]})]
    transports = ["BLOCKING_SESSION"] * 4 + ["PUBSUB"] * 2
    assert diffcheck._failures(runs, transports, {2: math.inf, 5: math.inf}) == {
        "BLOCKING_SESSION": {"session-a: no ack": [3, 2, 2],
                             "session-a: send on closed connection": [1, 0, 0]},
        "PUBSUB": {"session-a: no ack": [1, 0, 1]},
    }


def test_a_change_to_datasets_alone_lists_every_failure_as_the_same():
    # Every config's dataset differs and no failure does: the listing reads
    # no config equal, and every one with the same failure.
    timeout = {"failure": "session-a: no ack within 0.25s"}
    runs = [({**timeout, "dataset": [["img00000"]]}, {**timeout, "dataset": [["img00001"]]}),
            ({**timeout, "dataset": [["img00002"]]}, {**timeout, "dataset": [["img00003"]]})]
    distances = {0: math.inf, 1: math.inf}
    assert diffcheck._parts(runs, distances) == {
        "records": 0, "summary": 0, "failure": 0, "dataset": 2}
    kinds = diffcheck._failures(runs, ["BLOCKING_SESSION"] * 2, distances)["BLOCKING_SESSION"]
    assert diffcheck._failure_line("BLOCKING_SESSION", kinds) == (
        "  failed BLOCKING_SESSION runs: session-a: no ack: 2 (0 equal, 2 same failure)")
    assert diffcheck._failure_line("PUBSUB", {}) == "  failed PUBSUB runs: none"


def test_every_draw_ends_with_the_two_configs_that_close_a_session_mid_upload(tmp_path):
    # The random draw never closes a session during an upload; the two
    # configs after it do, so the listing names that failure for both, and
    # a tree compared with itself counts both equal.
    docs = diffcheck._draw(2026, 3)
    rng = Prng(2026)
    assert docs[:3] == [config_to_dict(random_config(rng)) for _ in range(3)]
    assert len(docs) == 5
    configs, out = tmp_path / "configs.jsonl", tmp_path / "out.jsonl"
    configs.write_text("".join(json.dumps(doc) + "\n" for doc in docs[3:]), encoding="utf-8")
    diffcheck._work(str(configs), str(out))
    runs = [(json.loads(line), json.loads(line)) for line in out.read_text().splitlines()]
    distances, _reordered = diffcheck._tally(runs)
    assert diffcheck._failures(runs, [doc["transport"] for doc in docs[3:]], distances) == {
        "BLOCKING_SESSION": {"session-a: send on closed connection": [2, 2, 2]},
    }


def test_configs_not_equal_are_counted_by_each_part_that_differs():
    # A config counts once under each part in which its runs differ; the
    # four parts are listed even when no config differs in one, and a run
    # that raised adds its own part.
    run = {"records": [], "summary": {}, "failure": None, "dataset": [["img00000"]]}
    moved = {**run, "dataset": [["img00001"]]}
    later = {**moved, "records": [{"rtt": "0x1.0p+0"}], "summary": {"n": 1}}
    runs = [(run, run), (run, moved), (run, later), (run, {"raised": "ValueError: x"})]
    assert diffcheck._parts(runs, [1, 2]) == {
        "records": 1, "summary": 1, "failure": 0, "dataset": 2}
    assert diffcheck._parts(runs, [0]) == dict.fromkeys(diffcheck.PARTS, 0)
    assert diffcheck._parts(runs, [3]) == {
        "records": 1, "summary": 1, "failure": 0, "dataset": 1, "raised": 1}
