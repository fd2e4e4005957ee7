"""Core data types shared by every module.

Everything here is an immutable value object plus validation; behavior lives
in the other modules. The scenario config round-trips losslessly through a
flat JSON document (see ``config_to_json`` / ``config_from_json``) so that
experiment files stay diffable and typo-proof.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import asdict, dataclass, fields
from enum import Enum
from typing import Optional

EMBEDDING_DIM = 128
EMBEDDING_NORM_TOL = 1e-6
MIN_CHUNK_SIZE = 64


# The code points UTF-8 cannot encode.
_SURROGATE = re.compile("[\ud800-\udfff]")


def is_key_segment(text: str) -> bool:
    """True iff ``text`` can stand as one concrete segment of a pub/sub key:
    non-empty, with no ``/`` and no ``*``, and text that UTF-8 can encode,
    as TCP mode writes every key. The tiers publish an image's messages
    under a key prefix plus its id, so an image id must be one."""
    return bool(text) and "/" not in text and "*" not in text and not _SURROGATE.search(text)


# The characters that end, quote or break an unquoted CSV field.
_CSV_SPECIAL = re.compile(r'[,"\x00-\x1f\x7f]')


def is_csv_field(text: str) -> bool:
    """True iff ``text`` can stand unquoted as one field of a CSV row, as
    ``metrics.csv`` writes a result's label: no comma, no double quote, no
    control character (U+0000-U+001F or U+007F), and text that UTF-8 can
    encode, since the file is written in UTF-8."""
    return not _CSV_SPECIAL.search(text) and not _SURROGATE.search(text)


class ImageFormat(Enum):
    PNG = "PNG"


class TransportKind(Enum):
    BLOCKING_SESSION = "BLOCKING_SESSION"
    PUBSUB = "PUBSUB"


class TimeMode(Enum):
    VIRTUAL = "VIRTUAL"
    WALLCLOCK_TCP = "WALLCLOCK_TCP"


@dataclass(frozen=True)
class PersonId:
    """Identity entry in a face database. ``id`` is unique per database."""

    id: int
    label: str

    def __post_init__(self) -> None:
        if self.id < 0:
            raise ValueError("PersonId.id must be non-negative")


@dataclass(frozen=True)
class EmbeddingVec:
    """Unit-norm face embedding of fixed dimension."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.values) != EMBEDDING_DIM:
            raise ValueError(f"embedding must have {EMBEDDING_DIM} values")
        if any(not math.isfinite(v) for v in self.values):
            raise ValueError("embedding values must be finite")
        norm = math.sqrt(math.fsum(v * v for v in self.values))
        if abs(norm - 1.0) > EMBEDDING_NORM_TOL:
            raise ValueError(f"embedding norm {norm!r} not within {EMBEDDING_NORM_TOL} of 1")


@dataclass(frozen=True)
class FaceDatabase:
    """Entries the edge tier matches embeddings against."""

    entries: tuple[tuple[PersonId, EmbeddingVec], ...]

    def __post_init__(self) -> None:
        ids = [p.id for p, _ in self.entries]
        if len(set(ids)) != len(ids):
            raise ValueError("face database person ids must be distinct")

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class ImageRecord:
    """One dataset item: opaque payload bytes plus synthetic ground truth.

    The record holds the seed and size of its payload, not the bytes. Each
    read of ``payload`` makes them anew: the first ``payload_size`` bytes of
    the splitmix64 stream seeded with ``payload_seed``. Nothing is cached, so
    the bytes of an image exist only while a caller holds them; a face-less
    image, which is never uploaded, never makes them.

    The same holds for the embedding of a face image. ``embedding_seed`` is
    the splitmix64 stream state where its draws start, with the person's
    database vector for a known face or None for an unknown one. Each read
    of ``embedding`` makes the vector from them anew: a perturbed copy of
    that vector, or a fresh random unit vector. A face-less image has
    neither an embedding seed nor a ground truth.

    ``ground_truth`` is set only when the pictured face belongs to a known
    database person; an unknown face has an embedding but no ground truth.
    """

    id: str
    payload_seed: int
    payload_size: int
    width_px: int
    height_px: int
    format: ImageFormat
    has_face: bool
    ground_truth: Optional[PersonId] = None
    embedding_seed: Optional[tuple[int, Optional[EmbeddingVec]]] = None

    def __post_init__(self) -> None:
        if self.payload_size < 1:
            raise ValueError("payload must be at least 1 byte")
        if self.width_px < 1 or self.height_px < 1:
            raise ValueError("image dimensions must be positive")
        if not self.has_face:
            if self.ground_truth is not None or self.embedding_seed is not None:
                raise ValueError("face-less image cannot carry identity or embedding")
        elif self.embedding_seed is None:
            raise ValueError("image with a face must carry an embedding seed")

    @property
    def payload(self) -> bytes:
        # workload imports this module, so its stream is looked up here.
        from .workload import Prng
        return Prng(self.payload_seed).randbytes(self.payload_size)

    @property
    def embedding(self) -> Optional[EmbeddingVec]:
        if self.embedding_seed is None:
            return None
        from .workload import Prng, draw_embedding
        state, base = self.embedding_seed
        return draw_embedding(Prng(state), base)


@dataclass(frozen=True)
class StageDurations:
    """Fixed compute costs of the modeled AI stages, in seconds.

    The far-edge detection stage is the sum of the quality assessment and the
    two inference passes; there is no separate total field.
    """

    t_read_decode: float
    t_quality: float
    t_infer1: float
    t_infer2: float
    t_identify: float
    cloud_latency_mean: float
    cloud_latency_jitter: float


@dataclass(frozen=True)
class LinkParams:
    """Point-to-point link model: fixed one-way latency plus a serialization
    rate. Transfer time of n bytes is n / bandwidth + latency."""

    latency: float
    bandwidth: float


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of one experiment run.

    The calibration fields (``parallel_handoff_s``, ``parallel_io_penalty_s``)
    default to zero so the analytic pipeline model is exact; preset scenarios
    set them to the fitted values of the reference device profile.
    """

    transport: TransportKind
    parallelism: bool
    cloud_enabled: bool
    dataset_size: int
    stage_durations: StageDurations
    link_far_to_edge: LinkParams
    link_edge_to_cloud: LinkParams
    rng_seed: int
    chunk_size_bytes: int = 1024
    similarity_threshold: float = 0.5
    fp_rate: float = 0.627
    time_mode: TimeMode = TimeMode.VIRTUAL
    queue_capacity: int = 4
    payload_bytes: int = 102400
    face_prob: float = 1.0
    known_prob: float = 0.5
    db_size: int = 4
    jitter_pct: float = 0.0
    parallel_handoff_s: float = 0.0
    parallel_io_penalty_s: float = 0.0
    send_timeout_s: float = 30.0
    image_timeout_s: float = 120.0
    cloud_timeout_s: float = 60.0
    grant_ttl_s: float = 60.0
    time_scale: float = 0.01
    tcp_port_edge: int = 0
    tcp_port_cloud: int = 0


@dataclass(frozen=True)
class ValidationResult:
    ok: bool
    violations: tuple[str, ...] = ()


def validate_config(cfg: ScenarioConfig) -> ValidationResult:
    """Check every scenario invariant and return the full violation list.

    An OK result means every module can consume the config without further
    range checks.
    """
    v: list[str] = []
    # NaN fails every comparison below, so finiteness is checked on its own.
    for prefix, value in (("", cfg), ("stage_durations.", cfg.stage_durations),
                          ("link_far_to_edge.", cfg.link_far_to_edge),
                          ("link_edge_to_cloud.", cfg.link_edge_to_cloud)):
        for f in fields(value):
            if f.type == "float" and not math.isfinite(getattr(value, f.name)):
                v.append(f"{prefix}{f.name} must be finite")
    if cfg.dataset_size < 1:
        v.append("dataset_size must be >= 1")
    if cfg.chunk_size_bytes < MIN_CHUNK_SIZE:
        v.append(f"chunk_size_bytes must be >= {MIN_CHUNK_SIZE}")
    if not 0.0 <= cfg.fp_rate <= 1.0:
        v.append("fp_rate must be in [0,1]")
    if not 0.0 < cfg.similarity_threshold < 1.0:
        v.append("similarity_threshold must be in (0,1)")
    if not 0 <= cfg.rng_seed < 2**64:
        v.append("rng_seed must fit in 64 unsigned bits")
    if cfg.queue_capacity < 1:
        v.append("queue_capacity must be >= 1")
    if cfg.payload_bytes < 1:
        v.append("payload_bytes must be >= 1")
    if not 0.0 <= cfg.face_prob <= 1.0:
        v.append("face_prob must be in [0,1]")
    if not 0.0 <= cfg.known_prob <= 1.0:
        v.append("known_prob must be in [0,1]")
    if cfg.db_size < 1:
        v.append("db_size must be >= 1")
    if not 0.0 <= cfg.jitter_pct < 1.0:
        v.append("jitter_pct must be in [0,1)")
    for name in ("link_far_to_edge", "link_edge_to_cloud"):
        link: LinkParams = getattr(cfg, name)
        if link.latency < 0:
            v.append(f"{name}.latency must be >= 0")
        if link.bandwidth <= 0:
            v.append(f"{name}.bandwidth must be > 0")
    sd = cfg.stage_durations
    for f in fields(sd):
        if getattr(sd, f.name) < 0:
            v.append(f"stage_durations.{f.name} must be >= 0")
    for name in ("parallel_handoff_s", "parallel_io_penalty_s", "send_timeout_s",
                 "image_timeout_s", "cloud_timeout_s", "grant_ttl_s"):
        if getattr(cfg, name) < 0:
            v.append(f"{name} must be >= 0")
    if cfg.time_scale <= 0:
        v.append("time_scale must be > 0")
    for name in ("tcp_port_edge", "tcp_port_cloud"):
        if not 0 <= getattr(cfg, name) <= 65535:
            v.append(f"{name} must be a valid TCP port (0 = auto)")
    return ValidationResult(ok=not v, violations=tuple(v))


class ConfigError(ValueError):
    """Raised for malformed or unknown-key scenario documents."""


_ENUM_FIELDS = {"transport": TransportKind, "time_mode": TimeMode}
# The JSON values a field takes, by its annotation: their name in an error
# and their exact Python types. A JSON boolean is a Python int too, so only
# a bool field takes one; a float field takes an integer.
JSON_TYPES = {"bool": ("true or false", (bool,)),
              "int": ("an integer", (int,)),
              "float": ("a number", (int, float)),
              "str": ("a string", (str,)),
              "Optional[str]": ("a string or null", (str, type(None)))}
_NESTED_FIELDS = {
    "stage_durations": StageDurations,
    "link_far_to_edge": LinkParams,
    "link_edge_to_cloud": LinkParams,
}


def config_to_dict(cfg: ScenarioConfig) -> dict:
    out = asdict(cfg)
    for name in _ENUM_FIELDS:
        out[name] = out[name].value
    return out


def config_from_dict(doc: dict) -> ScenarioConfig:
    """Build a config from a parsed JSON document. Unknown keys are an error
    so typos in experiment files cannot silently fall back to defaults."""
    if not isinstance(doc, dict):
        raise ConfigError("scenario document must be a JSON object")
    types = {f.name: f.type for f in fields(ScenarioConfig)}
    unknown = sorted(set(doc) - set(types))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    kwargs: dict = {}
    for name, value in doc.items():
        if name in _ENUM_FIELDS:
            enum_cls = _ENUM_FIELDS[name]
            try:
                kwargs[name] = enum_cls(value)
            except ValueError:
                allowed = ", ".join(m.value for m in enum_cls)
                raise ConfigError(f"{name} must be one of: {allowed}") from None
        elif name in _NESTED_FIELDS:
            nested_cls = _NESTED_FIELDS[name]
            if not isinstance(value, dict):
                raise ConfigError(f"{name} must be an object")
            nested_known = {f.name for f in fields(nested_cls)}
            nested_unknown = sorted(set(value) - nested_known)
            if nested_unknown:
                raise ConfigError(
                    f"unknown keys in {name}: {', '.join(nested_unknown)}")
            missing = sorted(nested_known - set(value))
            if missing:
                raise ConfigError(f"missing keys in {name}: {', '.join(missing)}")
            for f in fields(nested_cls):
                _check_type(f"{name}.{f.name}", f.type, value[f.name])
            kwargs[name] = nested_cls(**value)
        else:
            _check_type(name, types[name], value)
            kwargs[name] = value
    try:
        return ScenarioConfig(**kwargs)
    except TypeError as exc:
        raise ConfigError(str(exc)) from None


def _check_type(name: str, annotation: str, value: object) -> None:
    """Raise ConfigError unless ``value`` is a JSON value that a field
    annotated ``annotation`` takes (``JSON_TYPES``)."""
    kind, accepted = JSON_TYPES[annotation]
    if type(value) not in accepted:
        raise ConfigError(f"{name} must be {kind}, not {value!r}")


def config_to_json(cfg: ScenarioConfig) -> str:
    return json.dumps(config_to_dict(cfg), indent=2, sort_keys=False) + "\n"


def _reject_constant(name: str):
    raise ValueError(f"{name} is not a JSON value")


# ``json.loads`` would take NaN, Infinity and -Infinity (RFC 8259 §6 has
# no such values).
_JSON_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


def read_json(data: bytes | str) -> object:
    """The JSON value ``data`` holds, as UTF-8 if bytes: the one reader of
    JSON from outside. Every failure is a ``ValueError``: not UTF-8, not JSON
    (RFC 8259), ``NaN``, ``Infinity`` or ``-Infinity``, an integer over the
    digit limit, nesting past the recursion limit."""
    try:
        return _JSON_DECODER.decode(data if isinstance(data, str) else data.decode("utf-8"))
    except RecursionError as exc:
        raise ValueError(str(exc)) from None


def config_from_json(data: bytes | str) -> ScenarioConfig:
    try:
        doc = read_json(data)
    except ValueError as exc:
        raise ConfigError(f"invalid JSON: {exc}") from None
    return config_from_dict(doc)
