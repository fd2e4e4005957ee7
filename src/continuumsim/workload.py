"""Synthetic dataset generation and the three AI stage models.

Detection is a ground-truth pass-through with a timed cost: the simulator
evaluates system behavior, not model accuracy. Identification is a real
cosine-similarity search over unit embeddings, and the cloud recognizer is a
latency plus false-positive injection model calibrated through the scenario
config.

All randomness flows through splitmix64 so runs replay identically on any
platform. A generated record carries one 64-bit seed for its payload, drawn
from the dataset stream, and no bytes: ``ImageRecord.payload`` makes them
with ``Prng.randbytes`` on each read, so only images the far edge uploads
ever have bytes, and only while they are being sent. Payload bytes are still
the bulk of the randomness, so ``Prng.randbytes`` computes them a block at a
time: splitmix64's state after k steps is ``seed + k*gamma mod 2**64``, so
two Python ints of 512 lanes of 128 bits carry 1,024 consecutive states, and
the finalizer runs on all of them at once (SWAR, "SIMD within a register").
Lane k of one int holds the state of word 2k, and lane k of the other that
of word 2k+1, which is the first plus gamma; the next block's states are
these plus ``1024*gamma``. Each state sits in the low 64 bits of its lane.
A shift is followed by a mask that clears the bits it moved in from the
neighbouring lane, and a 64x64-bit product fits in its 128-bit lane, so no
lane ever carries into the next. After the two multiply rounds the ints
combine as ``even | odd << 64``: dense 64-bit words in stream order. The
last xor-shift runs once on that int, masked to the low 33 bits of every
word, the only bits ``z >> 31`` reaches within one word. One little-endian
``to_bytes`` then gives the block's bytes as the scalar stream writes them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .domain import (
    EMBEDDING_DIM,
    EmbeddingVec,
    FaceDatabase,
    ImageFormat,
    ImageRecord,
    PersonId,
    StageDurations,
)

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_TO_UNIT = 2.0 ** -53

# Block constants for Prng.randbytes, 512 lanes of 128 bits: 1 in every
# lane, the low 64 bits of every lane, gamma in every lane (the odd words'
# state offset), (2k+1)*gamma in lane k, one block's state step in every
# lane, and the low 33 bits of every 64-bit word. Each is built from a
# repeated or joined byte pattern, in time linear in its size.
_BLOCK_LANES = 512
_BLOCK_WORDS = 2 * _BLOCK_LANES
_ONES = int.from_bytes((1).to_bytes(16, "little") * _BLOCK_LANES, "little")
_LOW_HALVES = _ONES * _MASK64
_ODD_OFFSET = _ONES * _GOLDEN
_EVEN_RAMP = int.from_bytes(b"".join(
    ((2 * k + 1) * _GOLDEN & _MASK64).to_bytes(16, "little") for k in range(_BLOCK_LANES)),
    "little")
_BLOCK_STEP = _ONES * (_BLOCK_WORDS * _GOLDEN & _MASK64)
_LOW33 = _ONES * (1 << 64 | 1) * ((1 << 33) - 1)

# Cosine distance of a perturbed copy to its source stays ~0.96, far above
# any sensible threshold, while fresh random vectors score near zero.
_PERTURB_SCALE = 0.025

CELEBRITY_LABELS = tuple(f"Celebrity {i:02d}" for i in range(16))


class EmptyDatabase(ValueError):
    pass


def _mix(z: int) -> int:
    z = (z ^ (z >> 30)) * _MIX1 & _MASK64
    z = (z ^ (z >> 27)) * _MIX2 & _MASK64
    return z ^ (z >> 31)


def _mix_lanes(z: int) -> int:
    """The finalizer's two multiply rounds on every 128-bit lane of ``z``."""
    z = (z ^ z >> 30) & _LOW_HALVES
    z = z * _MIX1 & _LOW_HALVES
    z = (z ^ z >> 27) & _LOW_HALVES
    return z * _MIX2 & _LOW_HALVES


class Prng:
    """splitmix64 stream: state advances by the 64-bit golden gamma, outputs
    go through the standard finalizer."""

    __slots__ = ("state", "_spare_gauss")

    def __init__(self, seed: int):
        self.state = seed & _MASK64
        self._spare_gauss: Optional[float] = None

    def u64(self) -> int:
        self.state = (self.state + _GOLDEN) & _MASK64
        return _mix(self.state)

    def uniform(self) -> float:
        """Uniform in [0, 1) with 53 random bits."""
        return (self.u64() >> 11) * _TO_UNIT

    def gauss(self) -> float:
        if self._spare_gauss is not None:
            value, self._spare_gauss = self._spare_gauss, None
            return value
        # Box-Muller; guard the log argument away from zero.
        u1 = self.uniform()
        while u1 <= 0.0:
            u1 = self.uniform()
        u2 = self.uniform()
        radius = math.sqrt(-2.0 * math.log(u1))
        theta = 2.0 * math.pi * u2
        self._spare_gauss = radius * math.sin(theta)
        return radius * math.cos(theta)

    def randbytes(self, n: int) -> bytes:
        """The next ``n`` bytes of the stream: ``ceil(n/8)`` words of
        ``u64()``, each little-endian, cut to ``n`` bytes."""
        words = (n + 7) // 8
        keep = (1 << 128 * min(words + 1 >> 1, _BLOCK_LANES)) - 1
        even = (_ONES & keep) * self.state + (_EVEN_RAMP & keep) & _LOW_HALVES
        odd = even + (_ODD_OFFSET & keep) & _LOW_HALVES
        blocks = []
        for start in range(0, words, _BLOCK_WORDS):
            lanes = min(words - start + 1 >> 1, _BLOCK_LANES)
            if start:
                even = even + _BLOCK_STEP & _LOW_HALVES
                odd = odd + _BLOCK_STEP & _LOW_HALVES
                if lanes < _BLOCK_LANES:
                    keep = (1 << 128 * lanes) - 1
                    even &= keep
                    odd &= keep
            z = _mix_lanes(even) | _mix_lanes(odd) << 64
            z ^= z >> 31 & _LOW33
            blocks.append(z.to_bytes(16 * lanes, "little"))
        self.state = (self.state + words * _GOLDEN) & _MASK64
        return b"".join(blocks)[:n]

    def randrange(self, n: int) -> int:
        if n < 1:
            raise ValueError("randrange needs n >= 1")
        return self.u64() % n


def substream(seed: int, tag: int) -> int:
    """Derive an independent stream seed for one subsystem of a run."""
    return _mix((seed ^ (tag * _GOLDEN)) & _MASK64)


def random_unit_vector(rng: Prng) -> EmbeddingVec:
    values = [rng.gauss() for _ in range(EMBEDDING_DIM)]
    norm = math.sqrt(math.fsum(v * v for v in values))
    return EmbeddingVec(tuple(v / norm for v in values))


def perturbed_copy(base: EmbeddingVec, rng: Prng) -> EmbeddingVec:
    values = [v + _PERTURB_SCALE * rng.gauss() for v in base.values]
    norm = math.sqrt(math.fsum(v * v for v in values))
    return EmbeddingVec(tuple(v / norm for v in values))


def make_face_db(seed: int, size: int) -> FaceDatabase:
    rng = Prng(substream(seed, 101))
    entries = tuple(
        (PersonId(i, f"Person {i}"), random_unit_vector(rng)) for i in range(size)
    )
    return FaceDatabase(entries)


def generate_dataset(
    seed: int,
    n: int,
    face_prob: float,
    known_prob: float,
    db: FaceDatabase,
    payload_bytes: int,
) -> list[ImageRecord]:
    """Produce ``n`` records of 64x64 PNG images, fully determined by ``seed``.

    Each record has a face with probability ``face_prob``; a face is a
    perturbed copy of a database embedding with probability ``known_prob``
    (carrying that person as ground truth), otherwise a fresh random unit
    vector with no ground truth. Each payload is seeded pseudo-random bytes,
    made when the record's ``payload`` is read; generating the dataset makes
    none of them.
    """
    if n < 1:
        raise ValueError("dataset size must be >= 1")
    if not (0.0 <= face_prob <= 1.0 and 0.0 <= known_prob <= 1.0):
        raise ValueError("probabilities must be in [0,1]")
    if known_prob > 0.0 and len(db) == 0:
        raise EmptyDatabase("known_prob > 0 requires a non-empty face database")
    rng = Prng(substream(seed, 1))
    records = []
    for k in range(n):
        has_face = rng.uniform() < face_prob
        ground_truth = None
        embedding = None
        if has_face:
            known = rng.uniform() < known_prob
            if known:
                person, base = db.entries[rng.randrange(len(db))]
                ground_truth = person
                embedding = perturbed_copy(base, rng)
            else:
                embedding = random_unit_vector(rng)
        # Payload bytes come from a per-image substream so identity draws do
        # not depend on payload size; the record makes them when read.
        records.append(ImageRecord(
            id=f"img{k:05d}",
            payload_seed=rng.u64(),
            payload_size=payload_bytes,
            width_px=64,
            height_px=64,
            format=ImageFormat.PNG,
            has_face=has_face,
            ground_truth=ground_truth,
            embedding=embedding,
        ))
    return records


def cosine(a: EmbeddingVec, b: EmbeddingVec) -> float:
    """Dot product of two unit vectors; lies in [-1, 1] up to rounding."""
    total = 0.0
    for x, y in zip(a.values, b.values):
        total += x * y
    return total


@dataclass(frozen=True)
class DetectionResult:
    face_found: bool
    t_quality: float
    t_infer1: float
    t_infer2: float

    @property
    def t_total(self) -> float:
        return self.t_quality + self.t_infer1 + self.t_infer2


def detection_for(image: ImageRecord, durations: StageDurations,
                  jitter_factor: float = 1.0) -> DetectionResult:
    """Outcome and cost of the far-edge detection stage for one image. The
    caller books the core for ``t_total``; ``face_found`` passes the ground
    truth through."""
    return DetectionResult(
        face_found=image.has_face,
        t_quality=durations.t_quality * jitter_factor,
        t_infer1=durations.t_infer1 * jitter_factor,
        t_infer2=durations.t_infer2 * jitter_factor,
    )


@dataclass(frozen=True)
class IdentifyResult:
    image_id: str
    best_person: PersonId
    best_similarity: float
    recognized: bool
    t_identify: float


def identify(embedding: EmbeddingVec, db: FaceDatabase, threshold: float,
             t_identify: float, image_id: str = "") -> IdentifyResult:
    """Score every database entry; the best match wins, ties going to the
    lowest person id; recognized iff the best similarity reaches the
    threshold."""
    if len(db) == 0:
        raise EmptyDatabase("identification requires a non-empty database")
    best_person = None
    best_sim = -math.inf
    for person, entry in db.entries:
        sim = cosine(embedding, entry)
        if sim > best_sim or (sim == best_sim and person.id < best_person.id):
            best_person = person
            best_sim = sim
    return IdentifyResult(
        image_id=image_id,
        best_person=best_person,
        best_similarity=best_sim,
        recognized=best_sim >= threshold,
        t_identify=t_identify,
    )


class CloudOutcome(Enum):
    MATCH = "MATCH"
    NO_MATCH = "NO_MATCH"


@dataclass(frozen=True)
class CloudResult:
    outcome: CloudOutcome
    label: Optional[str]
    is_false_positive: bool


def cloud_recognize(person: Optional[PersonId], fp_rate: float, rng: Prng) -> CloudResult:
    """Simulated large-scale recognizer for one face: a known ``person``
    resolves correctly; an unknown face (``person`` None) draws exactly one
    rng sample and is mislabeled as some celebrity with probability
    ``fp_rate``."""
    if not 0.0 <= fp_rate <= 1.0:
        raise ValueError("fp_rate must be in [0,1]")
    if person is not None:
        return CloudResult(CloudOutcome.MATCH, person.label, False)
    u = rng.uniform()
    if fp_rate > 0.0 and u < fp_rate:
        index = min(int(u / fp_rate * len(CELEBRITY_LABELS)),
                    len(CELEBRITY_LABELS) - 1)
        return CloudResult(CloudOutcome.MATCH, CELEBRITY_LABELS[index], True)
    return CloudResult(CloudOutcome.NO_MATCH, None, False)
