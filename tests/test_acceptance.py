"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete. Every tolerance is pinned here; virtual-mode runs are
deterministic, so the bands cover calibration slack only.
"""

import filecmp
import math
import random
import time
from dataclasses import replace
from pathlib import Path

import pytest

from continuumsim.chunkwire import (
    ReassemblySession,
    ReassemblyStatus,
    crc32,
    fragment,
)
from continuumsim.cli import main as cli_main
from continuumsim.domain import LinkParams, ScenarioConfig, StageDurations, TransportKind
from continuumsim.metrics import emit_csv, emit_summary_json
from continuumsim.nodes import build_dataset, run_scenario
from continuumsim.presets import DEFAULT_SEED, base_config, build_preset, scenario_3000
from continuumsim.workload import Prng, cloud_recognize, substream
from test_chunkwire import _shuffle, crc32_bitwise
from test_nodes import pipeline_oracle

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_FP_COUNT = 101  # fp_study preset at the default seed
CHUNK_SIZES = (64, 512, 1024, 4096)

_TRANSPORTS = (TransportKind.PUBSUB, TransportKind.BLOCKING_SESSION)


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


# ---------------------------------------------------------------------------
# Shared scenario runs.


@pytest.fixture(scope="module")
def fig3_runs():
    started = time.monotonic()
    runs = {
        (tag, par): run_scenario(scenario_3000(t, par))
        for t, tag in ((TransportKind.PUBSUB, "pubsub"),
                       (TransportKind.BLOCKING_SESSION, "blocking"))
        for par in (False, True)
    }
    runs["elapsed"] = time.monotonic() - started
    return runs


@pytest.fixture(scope="module")
def matrix47_cloud_off():
    return {
        (t, par): run_scenario(base_config(t, parallelism=par, cloud_enabled=False))
        for t in _TRANSPORTS for par in (False, True)
    }


@pytest.fixture(scope="module")
def matrix47_cloud_on():
    return {
        (t, par): run_scenario(base_config(t, parallelism=par, cloud_enabled=True))
        for t in _TRANSPORTS for par in (False, True)
    }


# ---------------------------------------------------------------------------
# Criterion 1: chunk protocol round trip.


def _round_trip(payload: bytes, chunk_size: int, rng: Prng) -> bool:
    meta, envs = fragment(payload, "img", chunk_size, (8, 8), "RAW")
    feed = list(envs)
    for _ in range(max(1, len(envs) // 10)):
        feed.append(envs[rng.randrange(len(envs))])
    _shuffle(rng, feed)
    session = ReassemblySession(meta)
    done = any(session.accept(env) is ReassemblyStatus.COMPLETE for env in feed)
    return done and session.payload == payload


def test_c1_chunk_round_trip_property():
    started = time.monotonic()
    ok = crc32(b"123456789") == 0xCBF43926 == crc32_bitwise(b"123456789")
    rng = Prng(0xC1)
    sizes = [1, 1 << 20] * 4 + [
        max(1, int(math.exp(rng.uniform() * math.log(1 << 20))))
        for _ in range(992)
    ]
    byte_source = random.Random(0xC1)
    failures = 0
    for i, size in enumerate(sizes):
        payload = byte_source.randbytes(size)
        if not _round_trip(payload, CHUNK_SIZES[i % 4], rng):
            failures += 1
    # full chunk-size cross product at the boundary payload sizes
    for size in (1, 63, 64, 1024, 65537):
        payload = byte_source.randbytes(size)
        for chunk_size in CHUNK_SIZES:
            if not _round_trip(payload, chunk_size, rng):
                failures += 1
    elapsed = time.monotonic() - started
    ok = ok and failures == 0 and elapsed < 10.0
    report("C1 chunk round-trip",
           ok, f"{len(sizes)} seeded payloads + boundary cross, "
               f"{failures} failures, crc check 0xCBF43926, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 2: pipeline analytic equivalence.


def _analytic_cfg(t_io: float, t_ai: float, n: int, par: bool) -> ScenarioConfig:
    sd = StageDurations(t_read_decode=t_io, t_quality=t_ai, t_infer1=0.0,
                        t_infer2=0.0, t_identify=0.0,
                        cloud_latency_mean=0.0, cloud_latency_jitter=0.0)
    return ScenarioConfig(
        transport=TransportKind.PUBSUB, parallelism=par, cloud_enabled=False,
        dataset_size=n, stage_durations=sd,
        link_far_to_edge=LinkParams(0.0, 1e12),
        link_edge_to_cloud=LinkParams(0.0, 1e12),
        rng_seed=1, face_prob=0.0, known_prob=0.0, payload_bytes=64)


def test_c2_pipeline_analytic_equivalence():
    worst = 0.0
    cases = 0
    for t_io in (0.5, 1.0, 2.0, 4.0):
        for t_ai in (0.5, 1.0, 2.0, 4.0):
            for n in (1, 5, 10, 100):
                closed_form = t_io + t_ai + (n - 1) * max(t_io, t_ai)
                if n <= 10:
                    oracle = pipeline_oracle(t_io, t_ai, n, cap=4)
                    worst = max(worst, abs(oracle - closed_form))
                run = run_scenario(_analytic_cfg(t_io, t_ai, n, True))
                worst = max(worst, abs(run.summary.total_runtime - closed_form))
                cases += 1
    ok = worst <= 1e-9
    report("C2 pipeline analytic equivalence",
           ok, f"{cases} grid points, worst deviation {worst:.2e} s")


# ---------------------------------------------------------------------------
# Criteria 3 and 4: the 3,000-image preset.


def test_c3_parallelism_runtime_and_throughput(fig3_runs):
    details = []
    ok = True
    for tag in ("pubsub", "blocking"):
        seq, par = fig3_runs[(tag, False)].summary, fig3_runs[(tag, True)].summary
        reduction = (seq.total_runtime - par.total_runtime) / seq.total_runtime
        gain = (par.throughput - seq.throughput) / seq.throughput
        ok &= abs(reduction - 0.218) <= 0.020
        ok &= abs(gain - 0.279) <= 0.020
        ok &= abs(seq.throughput - 0.172) <= 0.004
        ok &= abs(par.throughput - 0.220) <= 0.005
        details.append(f"{tag}: reduction {reduction:.1%}, gain {gain:.1%}, "
                       f"thr {seq.throughput:.3f}->{par.throughput:.3f}")
    elapsed = fig3_runs["elapsed"]
    report("C3 parallelism figures", ok and elapsed < 60.0,
           "; ".join(details) + f" ({elapsed:.1f}s wall for 4 runs)")


def test_c4_core_utilization(fig3_runs):
    ok = True
    details = []
    for tag in ("pubsub", "blocking"):
        seq, par = fig3_runs[(tag, False)].summary, fig3_runs[(tag, True)].summary
        for summary, c0, c1, total in ((seq, 0.022, 0.977, 0.499),
                                       (par, 0.970, 0.414, 0.692)):
            ok &= abs(summary.core0_util - c0) <= 0.03
            ok &= abs(summary.core1_util - c1) <= 0.03
            ok &= abs(summary.total_util - total) <= 0.03
            ok &= summary.total_util == (summary.core0_util + summary.core1_util) / 2
        details.append(
            f"{tag}: seq ({seq.core0_util:.1%},{seq.core1_util:.1%},{seq.total_util:.1%}) "
            f"par ({par.core0_util:.1%},{par.core1_util:.1%},{par.total_util:.1%})")
    report("C4 core utilization", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# Criteria 5 and 6: the 47-image preset.


def test_c5_per_protocol_parallelism_gain(matrix47_cloud_off):
    gains = {}
    for t in _TRANSPORTS:
        seq = matrix47_cloud_off[(t, False)].summary.throughput
        par = matrix47_cloud_off[(t, True)].summary.throughput
        gains[t] = par / seq - 1.0
    pubsub_gain = gains[TransportKind.PUBSUB]
    blocking_gain = gains[TransportKind.BLOCKING_SESSION]
    ok = (pubsub_gain >= 5.0 * blocking_gain) and (blocking_gain < 0.10)
    report("C5 per-protocol gain ordering", ok,
           f"pubsub +{pubsub_gain:.1%} vs blocking +{blocking_gain:.1%} "
           f"(ratio {pubsub_gain / blocking_gain:.1f}x)")


def test_c6_upload_time_calibration(matrix47_cloud_off):
    pubsub = matrix47_cloud_off[(TransportKind.PUBSUB, True)].summary
    blocking = matrix47_cloud_off[(TransportKind.BLOCKING_SESSION, True)].summary
    up_p = pubsub.stats["t_upload"].mean
    up_b = blocking.stats["t_upload"].mean
    ok = abs(up_p - 8.16) <= 0.5 and abs(up_b - 11.10) <= 0.5
    report("C6 upload-time calibration", ok,
           f"pubsub {up_p:.3f}s (target 8.16+-0.5), "
           f"blocking {up_b:.3f}s (target 11.10+-0.5)")


# ---------------------------------------------------------------------------
# Criterion 7: cloud overhead in the fig4 preset.


def test_c7_cloud_overhead(matrix47_cloud_on):
    ok = True
    details = []
    for t, tag in ((TransportKind.PUBSUB, "pubsub"),
                   (TransportKind.BLOCKING_SESSION, "blocking")):
        stats = matrix47_cloud_on[(t, True)].summary.stats
        ratio = stats["cloud_rtt"].mean / stats["edge_rtt"].mean
        ok &= abs(ratio - 1.25) <= 0.05
        details.append(f"{tag} ratio {ratio:.3f}")
    report("C7 cloud overhead", ok, "; ".join(details) + " (target 1.25+-0.05)")


# ---------------------------------------------------------------------------
# Criterion 8: false-positive study.


def _fp_enumeration(cfg: ScenarioConfig) -> int:
    # Flags replay: payload bytes ride a per-image substream, so a 1-byte
    # payload dataset has identical identity draws to the full-size one.
    _, dataset = build_dataset(replace(cfg, payload_bytes=1))
    rng = Prng(substream(cfg.rng_seed, 3))
    count = 0
    for image in dataset:
        if image.has_face and image.ground_truth is None:
            verdict = cloud_recognize(image.ground_truth, cfg.fp_rate, rng)
            count += verdict.is_false_positive
    return count


def test_c8_false_positive_study():
    preset = build_preset("fp_study")
    cfg = preset.runs[0].config
    run = run_scenario(cfg)
    golden_ok = run.summary.fp_count == GOLDEN_FP_COUNT
    oracle_ok = _fp_enumeration(cfg) == run.summary.fp_count
    mean = sum(_fp_enumeration(replace(cfg, rng_seed=s)) for s in range(200)) / 200.0
    mean_ok = abs(mean - 99.0) <= 2.0
    ok = golden_ok and oracle_ok and mean_ok
    report("C8 false-positive study", ok,
           f"default-seed fp={run.summary.fp_count} (golden {GOLDEN_FP_COUNT}), "
           f"200-seed mean {mean:.2f} (target 99+-2)")


# ---------------------------------------------------------------------------
# Criterion 9: transport independence of results.


def test_c9_transport_independence(matrix47_cloud_on):
    multisets = [run.result_multiset for run in matrix47_cloud_on.values()]
    ok = all(m == multisets[0] for m in multisets[1:])
    n_ids = len({image_id for image_id, _, _ in multisets[0]})
    report("C9 transport independence", ok and n_ids == 47,
           f"4 scenario variants agree on {n_ids} (image, recognized, label) rows")


# ---------------------------------------------------------------------------
# Criterion 10: determinism and golden files.


def test_c10_determinism_and_golden_files(matrix47_cloud_on, tmp_path):
    cfg = base_config(TransportKind.PUBSUB, parallelism=True, cloud_enabled=True)
    rerun = run_scenario(cfg)
    first = matrix47_cloud_on[(TransportKind.PUBSUB, True)]
    a_csv, b_csv = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(first.records, a_csv)
    emit_csv(rerun.records, b_csv)
    csv_ok = filecmp.cmp(a_csv, b_csv, shallow=False)
    a_js, b_js = tmp_path / "a.json", tmp_path / "b.json"
    emit_summary_json(first.summary, a_js)
    emit_summary_json(rerun.summary, b_js)
    json_ok = filecmp.cmp(a_js, b_js, shallow=False)
    golden_ok = filecmp.cmp(a_csv, GOLDEN_DIR / "fig4_pubsub_metrics.csv",
                            shallow=False)
    ok = csv_ok and json_ok and golden_ok
    report("C10 determinism/golden files", ok,
           f"replay csv identical={csv_ok}, summary identical={json_ok}, "
           f"matches pinned golden={golden_ok}")


# ---------------------------------------------------------------------------
# Criterion 11: TCP integration smoke test.


def test_c11_tcp_smoke(tmp_path):
    started = time.monotonic()
    out = tmp_path / "tcp"
    code = cli_main(["--mode", "tcp", "--images", "10", "--time-scale", "0.01",
                     "--transport", "pubsub", "--seed", str(DEFAULT_SEED),
                     "--out", str(out)])
    elapsed = time.monotonic() - started
    rows = (out / "metrics.csv").read_text().splitlines()[1:]
    ids = [row.split(",")[0] for row in rows]
    origins = [row.split(",")[10] for row in rows]
    exactly_once = len(ids) == len(set(ids)) == 10
    resolved = all(origin in ("edge", "cloud") for origin in origins)
    ok = code == 0 and elapsed < 30.0 and exactly_once and resolved
    report("C11 TCP smoke", ok,
           f"exit={code}, {len(ids)} results exactly once, {elapsed:.1f}s wall")
