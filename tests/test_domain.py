import math
import re

import pytest

from continuumsim.chunkwire import MalformedJson, decode_json
from continuumsim.domain import (
    ConfigError,
    EmbeddingVec,
    FaceDatabase,
    ImageFormat,
    ImageRecord,
    LinkParams,
    PersonId,
    ScenarioConfig,
    TimeMode,
    TransportKind,
    config_from_dict,
    config_from_json,
    config_to_dict,
    config_to_json,
    validate_config,
)
from continuumsim.presets import base_config
from continuumsim.workload import Prng, draw_embedding


def test_default_47_image_config_is_valid():
    cfg = base_config(dataset_size=47)
    assert cfg.chunk_size_bytes == 1024
    assert validate_config(cfg) == ()


def test_dataset_size_zero_is_flagged():
    cfg = base_config()
    bad = _with(cfg, dataset_size=0)
    violations = validate_config(bad)
    assert violations
    assert any("dataset_size" in v for v in violations)


def test_fp_rate_out_of_range_is_flagged():
    bad = _with(base_config(), fp_rate=1.5)
    violations = validate_config(bad)
    assert violations
    assert any("fp_rate" in v for v in violations)


def test_chunk_size_below_minimum_is_flagged():
    bad = _with(base_config(), chunk_size_bytes=32)
    assert validate_config(bad)


def test_bad_link_and_stage_values_are_flagged():
    bad = _with(base_config(), link_far_to_edge=LinkParams(-1.0, 0.0))
    violations = validate_config(bad)
    assert any("latency" in v for v in violations)
    assert any("bandwidth" in v for v in violations)


# Each case sets one field past its range; the violation is that field's.
OUT_OF_RANGE = {
    "similarity_threshold_zero": ("similarity_threshold", 0.0,
                                  "similarity_threshold must be in (0,1)"),
    "similarity_threshold_one": ("similarity_threshold", 1.0,
                                 "similarity_threshold must be in (0,1)"),
    "negative_rng_seed": ("rng_seed", -1, "rng_seed must fit in 64 unsigned bits"),
    "rng_seed_of_65_bits": ("rng_seed", 2**64, "rng_seed must fit in 64 unsigned bits"),
    "queue_capacity": ("queue_capacity", 0, "queue_capacity must be >= 1"),
    "payload_bytes": ("payload_bytes", 0, "payload_bytes must be >= 1"),
    "face_prob": ("face_prob", 1.5, "face_prob must be in [0,1]"),
    "known_prob": ("known_prob", -0.1, "known_prob must be in [0,1]"),
    "db_size": ("db_size", 0, "db_size must be >= 1"),
    "jitter_pct": ("jitter_pct", 1.0, "jitter_pct must be in [0,1)"),
    "tcp_port_edge": ("tcp_port_edge", 65536,
                      "tcp_port_edge must be a valid TCP port (0 = auto)"),
    "tcp_port_cloud": ("tcp_port_cloud", -1,
                       "tcp_port_cloud must be a valid TCP port (0 = auto)"),
}


@pytest.mark.parametrize("name, value, violation", OUT_OF_RANGE.values(),
                         ids=OUT_OF_RANGE.keys())
def test_each_scenario_rule_flags_its_field(name, value, violation):
    assert validate_config(_with(base_config(), **{name: value})) == (violation,)


def _without(doc: dict, *path: str) -> dict:
    del (doc[path[0]] if len(path) > 1 else doc)[path[-1]]
    return doc


def _set(doc: dict, name: str, value) -> dict:
    doc[name] = value
    return doc


# Each case: how the document is spoiled, and the error it gets.
MALFORMED_DOCUMENTS = {
    "non_object_document": (lambda doc: [doc], "scenario document must be a JSON object"),
    "nested_non_object": (lambda doc: _set(doc, "link_far_to_edge", 5),
                          "link_far_to_edge must be an object"),
    "missing_nested_key": (lambda doc: _without(doc, "stage_durations", "t_identify"),
                           "missing keys in stage_durations: t_identify"),
    "missing_required_field": (lambda doc: _without(doc, "dataset_size"), "'dataset_size'"),
}


@pytest.mark.parametrize("spoil, error", MALFORMED_DOCUMENTS.values(),
                         ids=MALFORMED_DOCUMENTS.keys())
def test_malformed_document_is_a_config_error(spoil, error):
    with pytest.raises(ConfigError, match=re.escape(error)):
        config_from_dict(spoil(config_to_dict(base_config())))


def _with(cfg: ScenarioConfig, **kwargs) -> ScenarioConfig:
    from dataclasses import replace
    return replace(cfg, **kwargs)


def test_config_round_trips_through_json():
    cfg = _with(base_config(), transport=TransportKind.BLOCKING_SESSION,
                time_mode=TimeMode.WALLCLOCK_TCP, jitter_pct=0.1,
                rng_seed=123456789, tcp_port_edge=18765)
    again = config_from_json(config_to_json(cfg))
    assert again == cfg


def test_config_dict_uses_snake_case_field_names():
    doc = config_to_dict(base_config())
    for key in ("transport", "parallelism", "cloud_enabled", "dataset_size",
                "chunk_size_bytes", "stage_durations", "link_far_to_edge",
                "link_edge_to_cloud", "similarity_threshold", "fp_rate",
                "rng_seed", "time_mode", "queue_capacity"):
        assert key in doc
    assert doc["transport"] == "PUBSUB"
    assert set(doc["link_far_to_edge"]) == {"latency", "bandwidth"}


def test_unknown_top_level_key_is_rejected():
    doc = config_to_dict(base_config())
    doc["chunk_sizebytes"] = 512
    with pytest.raises(ConfigError, match="unknown config key"):
        config_from_dict(doc)


def test_unknown_nested_key_is_rejected():
    doc = config_to_dict(base_config())
    doc["stage_durations"]["t_quality_ms"] = 1
    with pytest.raises(ConfigError, match="unknown keys in stage_durations"):
        config_from_dict(doc)


def test_invalid_json_is_a_config_error():
    with pytest.raises(ConfigError, match="invalid JSON"):
        config_from_json("{not json")


def test_bad_enum_value_is_a_config_error():
    doc = config_to_dict(base_config())
    doc["transport"] = "CARRIER_PIGEON"
    with pytest.raises(ConfigError, match="transport must be one of"):
        config_from_dict(doc)


@pytest.mark.parametrize("path, value", [
    ("parallelism", "no"), ("parallelism", 1), ("cloud_enabled", None),
    ("dataset_size", "5"), ("dataset_size", 5.0), ("dataset_size", True),
    ("rng_seed", None), ("queue_capacity", [4]),
    ("fp_rate", "0.5"), ("fp_rate", False), ("time_scale", None),
    ("stage_durations.t_quality", "0.3"), ("link_far_to_edge.bandwidth", True),
    # What read_json makes of 1e400 and of a 401-digit integer: JSON numbers,
    # but no finite double.
    ("image_timeout_s", math.inf), pytest.param("fp_rate", 10**400, id="fp_rate-401_digits"),
])
def test_value_of_the_wrong_json_type_is_a_config_error(path, value):
    doc = config_to_dict(base_config())
    *outer, name = path.split(".")
    (doc[outer[0]] if outer else doc)[name] = value
    with pytest.raises(ConfigError, match=f"{path} must be "):
        config_from_dict(doc)


def test_numbers_of_either_json_kind_fill_a_float_field():
    doc = config_to_dict(base_config())
    doc["fp_rate"] = 1
    doc["stage_durations"]["t_quality"] = 0
    cfg = config_from_dict(doc)
    assert cfg.fp_rate == 1 and cfg.stage_durations.t_quality == 0


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10**400],
                         ids=["nan", "inf", "-inf", "401_digits"])
@pytest.mark.parametrize("path", [
    "image_timeout_s", "send_timeout_s", "time_scale", "fp_rate",
    "stage_durations.t_quality", "stage_durations.cloud_latency_jitter",
    "link_far_to_edge.latency", "link_edge_to_cloud.bandwidth",
])
def test_non_finite_float_is_flagged(path, value):
    # The reader refuses these values, so the config is built in Python,
    # where only validate_config catches them.
    cfg = base_config()
    *outer, name = path.split(".")
    if outer:
        cfg = _with(cfg, **{outer[0]: _with(getattr(cfg, outer[0]), **{name: value})})
    else:
        cfg = _with(cfg, **{name: value})
    violations = validate_config(cfg)
    assert violations
    assert f"{path} must be finite" in violations


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_non_json_number_constant_is_a_config_error(constant):
    text = config_to_json(base_config())
    assert '"image_timeout_s": 120.0,' in text
    text = text.replace('"image_timeout_s": 120.0,', f'"image_timeout_s": {constant},')
    with pytest.raises(ConfigError, match=f"{constant} is not a JSON value"):
        config_from_json(text)


def _spoiled(text: str) -> dict[str, bytes]:
    """Copies of JSON document ``text``, whose ``"image_timeout_s"`` is
    120.0, that are not JSON a reader may take: in UTF-16, not UTF-8; with
    that value an integer of 5,001 digits, over the interpreter's digit
    limit; and with it nested 100,000 deep, past the recursion limit."""
    value = '"image_timeout_s": 120.0'
    assert text.count(value) == 1
    return {"utf16": text.encode("utf-16"),
            "long_integer": text.replace(value, value[:-5] + "1" * 5001).encode(),
            "deep_nesting": text.replace(
                value, value[:-5] + "[" * 100_000 + "]" * 100_000).encode()}


# Each of these once stopped the CLI with a traceback and exit status 1.
UNREADABLE_SCENARIOS = _spoiled(config_to_json(base_config()))


@pytest.mark.parametrize("data", UNREADABLE_SCENARIOS.values(), ids=UNREADABLE_SCENARIOS.keys())
def test_a_file_that_is_not_json_is_a_config_error_as_a_wire_message_is_malformed(data):
    # One reader refuses it on both sides, with the same text.
    with pytest.raises(MalformedJson) as wire:
        decode_json(data)
    with pytest.raises(ConfigError) as err:
        config_from_json(data)
    assert str(err.value) == f"invalid JSON: {wire.value}"


def test_embedding_must_be_unit_norm():
    values = [0.0] * 128
    values[0] = 1.0
    EmbeddingVec(tuple(values))  # exact unit vector accepted
    values[0] = 1.01
    with pytest.raises(ValueError, match="norm"):
        EmbeddingVec(tuple(values))


def test_embedding_norm_tolerance_is_tight():
    values = [0.0] * 128
    values[0] = 1.0 + 5e-7  # inside the 1e-6 band
    EmbeddingVec(tuple(values))
    values[0] = 1.0 + 5e-6
    with pytest.raises(ValueError):
        EmbeddingVec(tuple(values))


def test_embedding_rejects_non_finite():
    values = [0.0] * 128
    values[0] = math.inf
    with pytest.raises(ValueError, match="finite"):
        EmbeddingVec(tuple(values))


def _unit(axis: int) -> EmbeddingVec:
    values = [0.0] * 128
    values[axis] = 1.0
    return EmbeddingVec(tuple(values))


def test_image_record_invariants():
    with pytest.raises(ValueError, match="payload"):
        ImageRecord("x", 5, 0, 1, 1, ImageFormat.PNG, has_face=False)
    with pytest.raises(ValueError, match="embedding"):
        ImageRecord("x", 5, 1, 1, 1, ImageFormat.PNG, has_face=True)
    with pytest.raises(ValueError, match="face-less"):
        ImageRecord("x", 5, 1, 1, 1, ImageFormat.PNG, has_face=False,
                    embedding_seed=(9, None))
    assert ImageRecord("x", 5, 1, 1, 1, ImageFormat.PNG, has_face=False).embedding is None
    unknown = ImageRecord("x", 5, 1, 1, 1, ImageFormat.PNG, has_face=True,
                          embedding_seed=(9, None))
    assert unknown.ground_truth is None
    assert unknown.embedding == draw_embedding(Prng(9), None)
    # A known face's embedding is a perturbed copy of the person's vector,
    # made anew on each read.
    known = ImageRecord("x", 5, 1, 1, 1, ImageFormat.PNG, has_face=True,
                        ground_truth=PersonId(0, "a"), embedding_seed=(9, _unit(0)))
    assert known.embedding == draw_embedding(Prng(9), _unit(0))
    assert known.embedding is not known.embedding


def test_face_database_requires_distinct_ids():
    with pytest.raises(ValueError, match="distinct"):
        FaceDatabase(((PersonId(1, "a"), _unit(0)), (PersonId(1, "b"), _unit(1))))
