import filecmp
import math
import struct

import pytest

from continuumsim.metrics import (
    CSV_HEADER,
    SUMMARY_METRICS,
    EmptyRecords,
    MetricsRecord,
    MismatchedScenarios,
    RunSummary,
    _metric_values,
    compare,
    emit_csv,
    emit_summary_json,
    summarize,
    summary_to_dict,
)
from continuumsim.workload import Prng


def _rec(image_id="img00000", **kwargs) -> MetricsRecord:
    return MetricsRecord(image_id=image_id, **kwargs)


def test_single_record_mean_and_zero_std():
    record = _rec(edge_rtt=3.0, origin="edge", t_upload=1.0)
    summary = summarize([record], {0: 0.0, 1: 0.0}, wall=10.0)
    assert summary.stats["edge_rtt"].mean == 3.0
    assert summary.stats["edge_rtt"].std == 0.0
    assert summary.stats["edge_rtt"].count == 1


def test_textbook_sample_std():
    records = [
        _rec("a", edge_rtt=1.0, origin="edge", t_upload=1.0),
        _rec("b", edge_rtt=2.0, origin="edge", t_upload=1.0),
        _rec("c", edge_rtt=3.0, origin="edge", t_upload=1.0),
    ]
    summary = summarize(records, {0: 0.0, 1: 0.0}, wall=6.0)
    assert summary.stats["edge_rtt"].mean == pytest.approx(2.0)
    assert summary.stats["edge_rtt"].std == pytest.approx(1.0)
    assert summary.throughput == pytest.approx(0.5)


def test_summarize_rejects_empty_input():
    with pytest.raises(EmptyRecords):
        summarize([], {0: 0.0, 1: 0.0}, wall=1.0)


def test_total_util_is_exact_mean_of_cores():
    records = [_rec()]
    summary = summarize(records, {0: 2.2, 1: 97.7}, wall=100.0)
    assert summary.core0_util == pytest.approx(0.022)
    assert summary.core1_util == pytest.approx(0.977)
    assert summary.total_util == (summary.core0_util + summary.core1_util) / 2.0


def test_cloud_rtt_averaged_only_over_cloud_records():
    records = [
        _rec("a", origin="edge", edge_rtt=2.0, t_upload=1.0),
        _rec("b", origin="cloud", cloud_rtt=4.0, t_upload=1.0),
        _rec("c", origin="none"),
    ]
    summary = summarize(records, {0: 0.0, 1: 0.0}, wall=5.0)
    assert summary.stats["cloud_rtt"].mean == 4.0
    assert summary.stats["cloud_rtt"].count == 1
    assert summary.stats["edge_rtt"].count == 1
    assert summary.stats["t_upload"].count == 2


def _summary(runtime, n=3000) -> RunSummary:
    return RunSummary(n_images=n, total_runtime=runtime, throughput=n / runtime,
                      core0_util=0.0, core1_util=0.0, total_util=0.0)


def test_compare_reference_runtime_reduction():
    report = compare(_summary(289.8 * 60), _summary(226.7 * 60))
    assert report.runtime_reduction == pytest.approx(0.2177, abs=5e-4)


def test_compare_reference_throughput_gain():
    base = RunSummary(3000, 1.0, 0.172, 0, 0, 0)
    variant = RunSummary(3000, 1.0, 0.220, 0, 0, 0)
    report = compare(base, variant)
    assert report.throughput_gain == pytest.approx(0.279, abs=1e-3)


def test_compare_identical_runs_report_zero():
    report = compare(_summary(100.0), _summary(100.0))
    assert report.runtime_reduction == 0.0
    assert report.throughput_gain == 0.0


def test_compare_sign_flips_when_swapped():
    fwd = compare(_summary(289.8), _summary(226.7))
    rev = compare(_summary(226.7), _summary(289.8))
    assert fwd.runtime_reduction > 0 > rev.runtime_reduction
    assert fwd.throughput_gain > 0 > rev.throughput_gain


def test_compare_rejects_mismatched_dataset_sizes():
    with pytest.raises(MismatchedScenarios):
        compare(_summary(10.0, n=47), _summary(10.0, n=100))


def test_emit_csv_row_count_and_header(tmp_path):
    records = [_rec(f"img{i:05d}", completion_s=float(i)) for i in range(47)]
    path = tmp_path / "m.csv"
    assert emit_csv(records, path) == 47
    lines = path.read_text().splitlines()
    assert len(lines) == 48
    assert lines[0] == CSV_HEADER
    assert lines[0] == ("image_id,t_read_decode,t_quality,t_infer1,t_infer2,"
                        "t_detect_total,t_upload,t_identify,edge_rtt,cloud_rtt,"
                        "origin,recognized,label")


def test_emit_csv_empty_is_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    assert emit_csv([], path) == 0
    assert path.read_text() == CSV_HEADER + "\n"


def test_emit_csv_fixed_point_formatting_and_optional_fields(tmp_path):
    record = _rec(edge_rtt=1.5, origin="edge", recognized=True, label="Person 1",
                  t_upload=8.16)
    path = tmp_path / "one.csv"
    emit_csv([record], path)
    row = path.read_text().splitlines()[1]
    assert row == ("img00000,0.000000,0.000000,0.000000,0.000000,0.000000,"
                   "8.160000,0.000000,1.500000,,edge,true,Person 1")


def test_emit_csv_orders_by_completion_then_id(tmp_path):
    records = [
        _rec("b", completion_s=2.0),
        _rec("a", completion_s=2.0),
        _rec("z", completion_s=1.0),
    ]
    path = tmp_path / "sorted.csv"
    emit_csv(records, path)
    ids = [line.split(",")[0] for line in path.read_text().splitlines()[1:]]
    assert ids == ["z", "a", "b"]


def test_emit_csv_replay_is_byte_identical(tmp_path):
    records = [_rec(f"img{i:05d}", edge_rtt=i * 0.1, origin="edge",
                    completion_s=float(i)) for i in range(10)]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(records, p1)
    emit_csv(list(records), p2)
    assert filecmp.cmp(p1, p2, shallow=False)


def _per_field_csv(records) -> str:
    """The CSV as ``emit_csv`` wrote it field by field, each float with
    ``f"{v:.6f}"`` and the fields joined with commas: the reference for its
    one template per row."""
    def fmt(value):
        return f"{value:.6f}"

    lines = [CSV_HEADER]
    for r in sorted(records, key=lambda r: (r.completion_s, r.image_id)):
        lines.append(",".join([
            r.image_id, fmt(r.t_read_decode), fmt(r.t_quality), fmt(r.t_infer1),
            fmt(r.t_infer2), fmt(r.t_detect_total), fmt(r.t_upload),
            fmt(r.t_identify), fmt(r.edge_rtt),
            fmt(r.cloud_rtt) if r.cloud_rtt is not None else "",
            r.origin, "true" if r.recognized else "false", r.label or ""]))
    return "\n".join(lines) + "\n"


def test_emit_csv_writes_the_bytes_of_the_per_field_formatter(tmp_path):
    rng = Prng(2024)
    # Ties and near-ties at the sixth decimal, with their float neighbours,
    # signed zeros, the non-finite values and huge ones.
    ties = [5e-7, 1.5e-6, 2.5e-6, 0.1234565, 1.0000005, 2.0000025, 8.1600005,
            123456.7890125, 0.9999995]
    special = [0.0, -0.0, math.inf, -math.inf, math.nan, 1e300, -1e300, 5e-324]
    for t in ties:
        special += [t, -t, math.nextafter(t, 0.0), math.nextafter(t, math.inf)]

    def value():
        draw = rng.randrange(4)
        if draw == 0:
            return special[rng.randrange(len(special))]
        if draw == 1:  # any bit pattern
            return struct.unpack("<d", struct.pack("<Q", rng.u64()))[0]
        return (rng.uniform() - 0.5) * 10.0 ** (rng.randrange(16) - 8)

    records = []
    for i in range(2000):
        floats = [value() for _ in range(8)]
        records.append(MetricsRecord(
            f"img{i:05d}", *floats,
            cloud_rtt=value() if rng.randrange(2) else None,
            origin=("edge", "cloud", "none")[rng.randrange(3)],
            recognized=bool(rng.randrange(2)),
            label=f"Person {rng.randrange(10)}" if rng.randrange(2) else None,
            completion_s=float(rng.randrange(50))))
    path = tmp_path / "random.csv"
    assert emit_csv(records, path) == len(records)
    assert path.read_bytes() == _per_field_csv(records).encode("utf-8")


def test_emit_csv_reuses_a_row_only_when_every_field_is_the_same_object(tmp_path):
    # Runs of records share every field object, as a jitter-free run's
    # face-less frames do. Between runs, one field is swapped for an equal
    # value that is another object and may print otherwise: -0.0 for 0.0, a
    # second NaN, a float for a None cloud_rtt, and an origin or label built
    # at run time for the literal.
    rng = Prng(34)
    zero = float.fromhex("0x0p+0")
    base = [zero] * 8 + [None, "none", False, None]
    swaps = []
    for j in range(9):
        swaps += [(j, -zero), (j, float("nan")), (j, float("nan")), (j, zero)]
    swaps += [(8, zero), (8, None), (8, float.fromhex("0x1p-1")), (8, 0.5),
              (9, "edge"), (9, "".join(["ed", "ge"])), (9, "none"),
              (10, True), (11, "Person 1"), (11, " ".join(["Person", "1"])),
              (11, None), (10, False)]
    field_sets = []
    for j, value in swaps:
        fields = list(field_sets[-1] if field_sets else base)
        fields[j] = value
        field_sets.append(fields)
    records = []
    for fields in field_sets:
        for _ in range(1 + rng.randrange(3)):
            records.append(MetricsRecord(f"img{len(records):05d}", *fields,
                                         completion_s=float(len(records))))
    assert records[1].t_read_decode is records[0].t_read_decode
    path = tmp_path / "runs.csv"
    assert emit_csv(records, path) == len(records)
    assert path.read_bytes() == _per_field_csv(records).encode("utf-8")
    assert "-0.000000" in path.read_text()


def _summary_reference(records):
    """Each metric's (mean, std, count) and the run's fp_count by the
    summary's generator formulas, the floats as ``float.hex``."""
    stats = {}
    for metric in SUMMARY_METRICS:
        values = _metric_values(records, metric)
        n = len(values)
        if not n:
            stats[metric] = (0.0.hex(), 0.0.hex(), 0)
            continue
        mean = math.fsum(values) / n
        std = (math.fsum((v - mean) ** 2 for v in values) / (n - 1)) ** 0.5 if n > 1 else 0.0
        stats[metric] = (mean.hex(), std.hex(), n)
    return stats, sum(1 for r in records if r.is_false_positive)


def test_summarize_computes_the_generator_formulas_bit_for_bit():
    # Random finite values and signed zeros; cloud_rtt has one value and
    # edge_rtt none.
    rng = Prng(3401)

    def value():
        if rng.randrange(5) == 0:
            return (0.0, -0.0)[rng.randrange(2)]
        return (rng.uniform() - 0.25) * 10.0 ** (rng.randrange(16) - 8)

    records = [MetricsRecord(f"img{i:05d}", *(value() for _ in range(7)),
                             origin=("none", "cloud")[i == 17],
                             cloud_rtt=value() if i == 17 else None,
                             is_false_positive=bool(rng.randrange(2)))
               for i in range(500)]
    summary = summarize(records, {0: 1.0, 1: 2.0}, wall=10.0)
    stats, fp_count = _summary_reference(records)
    assert {m: (s.mean.hex(), s.std.hex(), s.count) for m, s in summary.stats.items()} == stats
    assert stats["cloud_rtt"][2] == 1 and stats["edge_rtt"][2] == 0
    assert 1 < stats["t_upload"][2] < len(records)
    assert type(summary.fp_count) is int and summary.fp_count == fp_count


def test_summary_json_mirrors_fields(tmp_path):
    summary = summarize([_rec(edge_rtt=1.0, origin="edge", t_upload=1.0)],
                        {0: 1.0, 1: 2.0}, wall=10.0)
    path = tmp_path / "summary.json"
    emit_summary_json(summary, path)
    import json
    doc = json.loads(path.read_text())
    assert set(doc) == {"n_images", "total_runtime", "throughput", "core0_util",
                        "core1_util", "total_util", "fp_count", "stats"}
    assert doc["throughput"] == pytest.approx(0.1)
    assert doc == summary_to_dict(summary)
