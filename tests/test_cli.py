import csv
import hashlib
import json
from dataclasses import replace
from pathlib import Path

import pytest

from continuumsim import cli, nodes, workload
from continuumsim.cli import main
from continuumsim.domain import config_from_json, config_to_json
from continuumsim.presets import PRESET_NAMES, base_config, build_preset
from test_domain import UNREADABLE_SCENARIOS


def run_cli(*argv) -> int:
    return main(list(argv))


def small_scenario_text(**overrides) -> str:
    cfg = replace(base_config(dataset_size=3), payload_bytes=2048, **overrides)
    return config_to_json(cfg)


def test_flag_run_writes_outputs(tmp_path):
    out = tmp_path / "run1"
    code = run_cli("--transport", "pubsub", "--parallelism", "on",
                   "--images", "3", "--seed", "7", "--out", str(out))
    assert code == 0
    assert (out / "metrics.csv").exists()
    assert (out / "summary.json").exists()
    doc = json.loads((out / "summary.json").read_text())
    assert doc["n_images"] == 3


def test_unknown_transport_value_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        run_cli("--transport", "carrier-pigeon", "--out", str(tmp_path))
    assert err.value.code == 2


def test_preset_conflicts_with_scenario(tmp_path, capsys):
    scenario = tmp_path / "s.json"
    scenario.write_text(small_scenario_text())
    code = run_cli("--preset", "fig4_rtt", "--scenario", str(scenario),
                   "--out", str(tmp_path / "out"))
    assert code == 2
    assert "conflicts" in capsys.readouterr().err


def test_scenario_file_with_flag_override(tmp_path):
    scenario = tmp_path / "s.json"
    scenario.write_text(small_scenario_text(chunk_size_bytes=1024))
    out = tmp_path / "out"
    code = run_cli("--scenario", str(scenario), "--chunk-size", "512",
                   "--out", str(out))
    assert code == 0
    # flag wins over the file value; file wins over defaults
    assert (out / "metrics.csv").read_text().count("\n") == 4


def test_scenario_file_round_trips(tmp_path):
    text = small_scenario_text()
    assert config_to_json(config_from_json(text)) == text


def test_invalid_scenario_value_exits_2(tmp_path, capsys):
    scenario = tmp_path / "bad.json"
    doc = json.loads(small_scenario_text())
    doc["fp_rate"] = 2.5
    scenario.write_text(json.dumps(doc))
    assert run_cli("--scenario", str(scenario), "--out", str(tmp_path / "o")) == 2
    assert "fp_rate" in capsys.readouterr().err


def test_scenario_value_of_the_wrong_json_type_exits_2(tmp_path, capsys):
    # A truthy string used to run with parallelism on.
    scenario = tmp_path / "bad.json"
    doc = json.loads(small_scenario_text())
    doc["parallelism"] = "no"
    scenario.write_text(json.dumps(doc))
    assert run_cli("--scenario", str(scenario), "--out", str(tmp_path / "o")) == 2
    assert "parallelism must be true or false" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_non_finite_scenario_value_exits_2(tmp_path, capsys):
    scenario = tmp_path / "bad.json"
    scenario.write_text(small_scenario_text().replace(
        '"image_timeout_s": 120.0,', '"image_timeout_s": NaN,'))
    assert run_cli("--scenario", str(scenario), "--out", str(tmp_path / "o")) == 2
    assert "NaN is not a JSON value" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("data", UNREADABLE_SCENARIOS.values(), ids=UNREADABLE_SCENARIOS.keys())
def test_scenario_file_that_is_not_json_exits_2(tmp_path, capsys, data):
    scenario = tmp_path / "bad.json"
    scenario.write_bytes(data)
    assert run_cli("--scenario", str(scenario), "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid JSON: ") and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flag", ["on", "off"])
def test_cloud_flag_overrides_the_scenario_file(tmp_path, flag):
    # Every face is unknown, so each goes on to the cloud if it is on.
    scenario = tmp_path / "s.json"
    scenario.write_text(small_scenario_text(known_prob=0.0, cloud_enabled=flag == "off"))
    out = tmp_path / "out"
    assert run_cli("--scenario", str(scenario), "--cloud", flag, "--out", str(out)) == 0
    with open(out / "metrics.csv", encoding="utf-8", newline="") as rows:
        origins = [row["origin"] for row in csv.DictReader(rows)]
    assert origins == (["cloud"] * 3 if flag == "on" else ["edge"] * 3)


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_time_scale_flag_exits_2(tmp_path, capsys, value):
    assert run_cli("--images", "3", "--time-scale", value,
                   "--out", str(tmp_path / "o")) == 2
    assert "time_scale must be finite" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_unknown_scenario_key_exits_2(tmp_path, capsys):
    scenario = tmp_path / "bad.json"
    doc = json.loads(small_scenario_text())
    doc["chunk_sizebytes"] = 17
    scenario.write_text(json.dumps(doc))
    assert run_cli("--scenario", str(scenario), "--out", str(tmp_path / "o")) == 2
    assert "unknown config key" in capsys.readouterr().err


def test_missing_scenario_file_exits_2(tmp_path, capsys):
    assert run_cli("--scenario", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path / "o")) == 2


def test_runtime_failure_exits_3_with_partial_csv(tmp_path, capsys):
    scenario = tmp_path / "slow.json"
    doc = json.loads(small_scenario_text())
    doc["transport"] = "BLOCKING_SESSION"
    doc["link_far_to_edge"] = {"latency": 0.0, "bandwidth": 10.0}
    doc["send_timeout_s"] = 0.5
    scenario.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert run_cli("--scenario", str(scenario), "--out", str(out)) == 3
    assert (out / "metrics.csv").exists()  # partial metrics flushed
    assert "no ack" in capsys.readouterr().err


def test_pubsub_scenario_with_a_deep_queue_exits_0(tmp_path):
    # Exited 3 with "maximum recursion depth exceeded" while a process
    # resumed through one nested call per put its queue took at once.
    scenario = tmp_path / "deep.json"
    scenario.write_text(config_to_json(replace(
        base_config(dataset_size=3), payload_bytes=32768, chunk_size_bytes=64,
        queue_capacity=2000)))
    out = tmp_path / "out"
    assert run_cli("--scenario", str(scenario), "--out", str(out)) == 0
    assert (out / "metrics.csv").read_text().count("\n") == 4


def test_preset_matrix_writes_comparison(tmp_path):
    out = tmp_path / "fig4"
    code = run_cli("--preset", "fig4_rtt", "--images", "6", "--out", str(out))
    assert code == 0
    comparison = json.loads((out / "comparison.json").read_text())
    assert set(comparison) == {"pubsub", "blocking"}
    for tag in ("pubsub", "blocking"):
        assert (out / tag / "metrics.csv").exists()
        assert comparison[tag]["cloud_over_edge_ratio"] > 1.0


def test_preset_seed_override_changes_outputs(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert run_cli("--preset", "fp_study", "--images", "12", "--seed", "1",
                   "--out", str(out_a)) == 0
    assert run_cli("--preset", "fp_study", "--images", "12", "--seed", "2",
                   "--out", str(out_b)) == 0
    csv_a = (out_a / "fp_study" / "metrics.csv").read_text()
    csv_b = (out_b / "fp_study" / "metrics.csv").read_text()
    assert csv_a != csv_b
    comparison = json.loads((out_a / "comparison.json").read_text())
    assert set(comparison) == {"n_images", "fp_rate", "fp_count"}


@pytest.mark.parametrize("preset", [[], ["--preset", "fig4_rtt"]], ids=["single", "preset"])
@pytest.mark.parametrize("under", [False, True], ids=["file", "under_a_file"])
def test_out_that_is_a_file_or_under_one_exits_3(tmp_path, capsys, preset, under):
    blocker = tmp_path / "F"
    blocker.write_text("")
    out = blocker / "run" if under else blocker
    assert run_cli("--images", "2", "--out", str(out), *preset) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(out) in err


def _json(path):
    return json.loads(path.read_text())


def test_fig3_preset_comparison_is_computed_from_its_runs(tmp_path):
    out = tmp_path / "fig3"
    assert run_cli("--preset", "fig3_parallelism", "--images", "4", "--out", str(out)) == 0
    comparison = _json(out / "comparison.json")
    assert set(comparison) == {"pubsub", "blocking"}
    for tag, report in comparison.items():
        assert set(report) == {"runtime_reduction", "throughput_gain", "sequential", "parallel"}
        seq = _json(out / f"{tag}_seq" / "summary.json")
        par = _json(out / f"{tag}_par" / "summary.json")
        assert seq["n_images"] == par["n_images"] == 4
        assert (report["sequential"], report["parallel"]) == (seq, par)
        assert report["runtime_reduction"] == (
            (seq["total_runtime"] - par["total_runtime"]) / seq["total_runtime"])
        assert report["throughput_gain"] == (
            (par["throughput"] - seq["throughput"]) / seq["throughput"])


def test_fig5_preset_comparison_reports_each_run_by_transport_and_size(tmp_path):
    out = tmp_path / "fig5"
    assert run_cli("--preset", "fig5_datasets", "--images", "2", "--out", str(out)) == 0
    comparison = _json(out / "comparison.json")
    assert set(comparison) == {"pubsub", "blocking"}
    for tag, by_size in comparison.items():
        assert set(by_size) == {"47", "100", "150", "200"}
        for size, report in by_size.items():
            summary = _json(out / f"{tag}_n{size}" / "summary.json")
            assert report == {"throughput": summary["throughput"],
                              "total_runtime": summary["total_runtime"]}


def test_preset_with_a_flag_that_makes_its_runs_invalid_exits_2(tmp_path, capsys):
    out = tmp_path / "o"
    assert run_cli("--preset", "fig3_parallelism", "--chunk-size", "10",
                   "--out", str(out)) == 2
    assert "chunk_size_bytes" in capsys.readouterr().err
    assert not out.exists()


def test_preset_run_that_raises_exits_3(tmp_path, capsys, monkeypatch):
    def fail(_cfg):
        raise RuntimeError("the run broke")

    monkeypatch.setattr(cli, "run_scenario", fail)
    out = tmp_path / "o"
    assert run_cli("--preset", "fig4_rtt", "--images", "2", "--out", str(out)) == 3
    assert capsys.readouterr().err == "error: pubsub: the run broke\n"
    assert not (out / "comparison.json").exists()


def test_preset_whose_comparison_cannot_be_written_exits_3(tmp_path, capsys):
    out = tmp_path / "o"
    (out / "comparison.json").mkdir(parents=True)
    assert run_cli("--preset", "fp_study", "--images", "2", "--out", str(out)) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write to {out}: ") and err.count("\n") == 1
    assert (out / "fp_study" / "summary.json").exists()


@pytest.fixture
def builds(monkeypatch):
    """Every dataset built from here on, in order, as
    ``workload.generate_dataset`` returned it."""
    built = []
    generate = workload.generate_dataset

    def spy(*args):
        built.append(generate(*args))
        return built[-1]

    monkeypatch.setattr(workload, "generate_dataset", spy)
    return built


@pytest.mark.parametrize("preset,sizes", [
    ("fig3_parallelism", [3000]),
    ("fig4_rtt", [47]),
    # The blocking runs take their datasets from the pub/sub runs' 200.
    ("fig5_datasets", [47, 100, 150, 200]),
    ("fp_study", [158]),
])
def test_preset_invocation_builds_a_dataset_once_per_change_of_dataset(
        preset, sizes, builds, tmp_path, monkeypatch):
    # Each run asks for its dataset as a real run does, then answers with
    # one small canned result, so that the presets keep their own sizes.
    canned = nodes.run_scenario(replace(base_config(dataset_size=2), payload_bytes=64))
    builds.clear()

    def run_on_its_dataset(cfg):
        nodes.build_dataset(cfg)
        return canned

    monkeypatch.setattr(cli, "run_scenario", run_on_its_dataset)
    assert run_cli("--preset", preset, "--out", str(tmp_path)) == 0
    assert [len(dataset) for dataset in builds] == sizes


def test_invocations_build_their_dataset_once_each(builds, tmp_path):
    for out in ("a", "b"):
        assert run_cli("--preset", "fig3_parallelism", "--images", "3",
                       "--out", str(tmp_path / out)) == 0
    assert len(builds) == 2
    # No run changed the list the four runs of an invocation shared.
    shared = builds[-1]
    cfg = build_preset("fig3_parallelism").runs[0].config
    assert shared == nodes.build_dataset(replace(cfg, dataset_size=3))[1]


def _broken_run(error):
    def run(cfg):
        nodes.build_dataset(cfg)
        raise error
    return run


@pytest.mark.parametrize("fault", ["bad_flag", "run_raises", "interrupt"])
def test_dataset_is_not_kept_after_an_invocation_that_fails(fault, builds, tmp_path,
                                                            monkeypatch, capsys):
    argv = ["--preset", "fig4_rtt", "--images", "2", "--out", str(tmp_path)]
    if fault == "bad_flag":
        with pytest.raises(SystemExit) as err:
            run_cli(*argv, "--transport", "carrier-pigeon")
        assert err.value.code == 2
    elif fault == "run_raises":
        monkeypatch.setattr(cli, "run_scenario", _broken_run(RuntimeError("the run broke")))
        assert run_cli(*argv) == 3
    else:
        monkeypatch.setattr(cli, "run_scenario", _broken_run(KeyboardInterrupt()))
        with pytest.raises(KeyboardInterrupt):
            run_cli(*argv)
    # Both builds are fresh: no scope is left open, empty or not.
    built = len(builds)
    nodes.build_dataset(base_config(dataset_size=2))
    nodes.build_dataset(base_config(dataset_size=2))
    assert len(builds) == built + 2


def _files(root):
    return {path.relative_to(root): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


@pytest.mark.parametrize("preset", PRESET_NAMES)
def test_preset_files_do_not_depend_on_its_runs_sharing_a_dataset(preset, builds, tmp_path):
    argv = ["--preset", preset, "--images", "2", "--seed", "3"]
    assert run_cli(*argv, "--out", str(tmp_path / "shared")) == 0
    assert len(builds) == 1
    # ``run`` is the invocation without its scope: every run builds afresh.
    args = cli._build_parser().parse_args(argv + ["--out", str(tmp_path / "alone")])
    assert cli.run(args) == 0
    assert len(builds) == 1 + len(build_preset(preset).runs)
    assert _files(tmp_path / "shared") == _files(tmp_path / "alone")


PINS = json.loads((Path(__file__).parent / "golden" / "pins.json").read_text())


@pytest.mark.parametrize("preset", PRESET_NAMES)
def test_preset_files_match_their_pins(preset, tmp_path):
    # Every file a preset writes at seed 7, by SHA-256. A deliberate change
    # of outputs rewrites tests/golden/pins.json and says why.
    assert run_cli("--preset", preset, "--seed", "7", "--out", str(tmp_path)) == 0
    digests = {rel.as_posix(): hashlib.sha256(data).hexdigest()
               for rel, data in _files(tmp_path).items()}
    pinned = PINS[preset]
    differ = {rel: digests.get(rel, "missing") for rel in sorted(set(digests) | set(pinned))
              if digests.get(rel) != pinned.get(rel)}
    assert not differ, f"{preset}: files that differ from their pins, by new digest: {differ}"
