"""Synthetic dataset generation and the three AI stage models.

Detection is a timed cost whose outcome is the image's ground truth: the
simulator evaluates system behavior, not model accuracy. Identification is a
real cosine-similarity search over unit embeddings, and the cloud recognizer
is a latency plus false-positive injection model calibrated through the
scenario config. Sizes, probabilities and the face database come from a
config that ``domain.validate_config`` has passed, and are not checked again
here.

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

A face record holds no embedding either, only the stream state where its
draws start and, for a known face, the person's base vector; the
``embedding`` property makes the vector from them on each read. An
embedding takes exactly ``EMBEDDING_DIM`` draws, so ``generate_dataset``
skips it by adding ``EMBEDDING_DIM`` gammas to the state.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from operator import add
from typing import NamedTuple, Optional

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
_TO_UNIT = 1.1102230246251565e-16  # 2**-53
_EMBEDDING_STEP = EMBEDDING_DIM * _GOLDEN & _MASK64
_EMBEDDING_FIELDS = struct.Struct(f"<{4 * EMBEDDING_DIM}H")
_FIELD_SUM_SCALE = 1.0 / math.sqrt((2**32 - 1) / 3)

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

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def u64(self) -> int:
        self.state = (self.state + _GOLDEN) & _MASK64
        return _mix(self.state)

    def uniform(self) -> float:
        """Uniform in [0, 1) with 53 random bits."""
        return (self.u64() >> 11) * _TO_UNIT

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


def _gaussians(rng: Prng) -> list[float]:
    """The next ``EMBEDDING_DIM`` standard values of ``rng``, one per word of
    one ``randbytes`` block: the sum of its four 16-bit fields, minus their
    mean 131,070, times ``1/sqrt((2**32 - 1)/3)`` (one over their standard
    deviation). That is Irwin-Hall of order 4, discrete: mean 0, variance 1."""
    fields = _EMBEDDING_FIELDS.unpack(rng.randbytes(8 * EMBEDDING_DIM))
    sums = map(add, map(add, fields[0::4], fields[1::4]), map(add, fields[2::4], fields[3::4]))
    return [(s - 131070) * _FIELD_SUM_SCALE for s in sums]


def draw_embedding(rng: Prng, base: Optional[EmbeddingVec]) -> EmbeddingVec:
    """The next embedding of ``rng``: a perturbed copy of ``base``, or a
    fresh random unit vector if ``base`` is None, normalized to unit length."""
    values = _gaussians(rng)
    if base is not None:
        values = [v + _PERTURB_SCALE * g for v, g in zip(base.values, values)]
    norm = math.sqrt(math.fsum(v * v for v in values))
    return EmbeddingVec(tuple(v / norm for v in values))


def make_face_db(seed: int, size: int) -> FaceDatabase:
    rng = Prng(substream(seed, 101))
    entries = tuple(
        (PersonId(i, f"Person {i}"), draw_embedding(rng, None)) for i in range(size)
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
    none of them. Each embedding is likewise made when the record's
    ``embedding`` is read, and no record keeps one.
    """
    rng = Prng(substream(seed, 1))
    records = []
    for k in range(n):
        has_face = rng.uniform() < face_prob
        ground_truth = None
        embedding_seed = None
        if has_face:
            base = None
            if rng.uniform() < known_prob:
                ground_truth, base = db.entries[rng.randrange(len(db))]
            embedding_seed = rng.state, base
            rng.state = rng.state + _EMBEDDING_STEP & _MASK64
        # Payload bytes come from a per-image substream so identity draws do
        # not depend on payload size; the record makes them when read.
        # Positional, in field order: id, payload seed and size, width,
        # height, format, face, ground truth and embedding seed.
        records.append(ImageRecord(
            f"img{k:05d}", rng.u64(), payload_bytes, 64, 64, ImageFormat.PNG,
            has_face, ground_truth, embedding_seed))
    return records


def cosine(a: EmbeddingVec, b: EmbeddingVec) -> float:
    """Dot product of two unit vectors; lies in [-1, 1] up to rounding."""
    total = 0.0
    for x, y in zip(a.values, b.values):
        total += x * y
    return total


def detection_for(durations: StageDurations,
                  jitter_factor: float = 1.0) -> tuple[float, float, float, float]:
    """Cost of the far-edge detection stage for one image: its quality,
    first and second inference stages, then their total, the sum in their
    order, for which the caller books the core."""
    t_quality = durations.t_quality * jitter_factor
    t_infer1 = durations.t_infer1 * jitter_factor
    t_infer2 = durations.t_infer2 * jitter_factor
    return t_quality, t_infer1, t_infer2, (t_quality + t_infer1) + t_infer2


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


class CloudVerdict(NamedTuple):
    """The cloud recognizer's verdict, in ``ResultMessage``'s field order
    after its image id and origin."""

    recognized: bool
    label: Optional[str]
    is_false_positive: bool


NO_MATCH = CloudVerdict(False, None, False)


def cloud_recognize(person: Optional[PersonId], fp_rate: float, rng: Prng) -> CloudVerdict:
    """Simulated large-scale recognizer for one face: a known ``person``
    resolves correctly; an unknown face (``person`` None) draws exactly one
    rng sample and is mislabeled as some celebrity with probability
    ``fp_rate``."""
    if person is not None:
        return CloudVerdict(True, person.label, False)
    u = rng.uniform()
    if fp_rate > 0.0 and u < fp_rate:
        index = min(int(u / fp_rate * len(CELEBRITY_LABELS)),
                    len(CELEBRITY_LABELS) - 1)
        return CloudVerdict(True, CELEBRITY_LABELS[index], True)
    return NO_MATCH
