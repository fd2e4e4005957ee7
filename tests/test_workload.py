import hashlib
import math
from dataclasses import fields, replace

import pytest

from continuumsim import workload
from continuumsim.chunkwire import ResultMessage
from continuumsim.domain import EMBEDDING_DIM, EmbeddingVec, FaceDatabase, PersonId
from continuumsim.workload import (
    CELEBRITY_LABELS,
    CloudVerdict,
    Prng,
    cloud_recognize,
    cosine,
    detection_for,
    draw_embedding,
    generate_dataset,
    identify,
    make_face_db,
    substream,
)
from continuumsim.nodes import build_dataset
from continuumsim.presets import base_config, paper_stage_durations


def test_splitmix64_reference_sequence():
    # Published outputs for seed 0 of the splitmix64 algorithm.
    rng = Prng(0)
    assert [rng.u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


def test_uniform_lies_in_unit_interval():
    rng = Prng(99)
    values = [rng.uniform() for _ in range(1000)]
    assert all(0.0 <= v < 1.0 for v in values)
    assert 0.4 < sum(values) / len(values) < 0.6


def test_randbytes_is_deterministic_and_sized():
    assert Prng(5).randbytes(17) == Prng(5).randbytes(17)
    assert len(Prng(5).randbytes(17)) == 17
    assert Prng(5).randbytes(17) != Prng(6).randbytes(17)


class ScalarSplitmix64:
    """Reference stream: one finalized word per state step."""

    def __init__(self, seed):
        self.state = seed % 2**64

    def u64(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) % 2**64
        z = self.state
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 % 2**64
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB % 2**64
        return z ^ (z >> 31)

    def randbytes(self, n):
        words = b"".join(self.u64().to_bytes(8, "little") for _ in range((n + 7) // 8))
        return words[:n]


@pytest.mark.parametrize("seed", [0, 7, 2**63, 2**64 - 1, 123456789])
def test_randbytes_matches_scalar_reference(seed):
    # randbytes works in blocks of 1,024 words, 8,192 bytes, two words to a
    # 128-bit lane: 8,184 and 8,232 bytes end on a lane with no odd word.
    for n in (0, 1, 7, 8, 9, 1023, 1024, 1025, 2047, 2048, 2049, 102400,
              8184, 8191, 8192, 8193, 8232, 16383, 16384, 16385):
        fast, ref = Prng(seed), ScalarSplitmix64(seed)
        assert fast.randbytes(n) == ref.randbytes(n), n
        assert fast.state == ref.state, n
        assert fast.u64() == ref.u64(), n
    empty = Prng(seed)
    assert empty.randbytes(0) == b"" and empty.state == seed
    # Two calls on one stream, each ending mid-word and mid-block; in the
    # second stream the second call crosses a block boundary.
    for calls in ((1029, 2053), (5003, 12301)):
        fast, ref = Prng(seed), ScalarSplitmix64(seed)
        for n in calls:
            assert fast.randbytes(n) == ref.randbytes(n), n
            assert fast.state == ref.state, n


def test_randbytes_block_constants_match_their_defining_sums():
    lanes = workload._BLOCK_LANES
    gamma, step = 0x9E3779B97F4A7C15, 2 * lanes * 0x9E3779B97F4A7C15 % 2**64
    assert workload._BLOCK_WORDS == 2 * lanes
    assert workload._ONES == sum(1 << 128 * k for k in range(lanes))
    assert workload._LOW_HALVES == sum((2**64 - 1) << 128 * k for k in range(lanes))
    assert workload._ODD_OFFSET == sum(gamma << 128 * k for k in range(lanes))
    assert workload._EVEN_RAMP == sum(
        ((2 * k + 1) * gamma % 2**64) << 128 * k for k in range(lanes))
    assert workload._BLOCK_STEP == sum(step << 128 * k for k in range(lanes))
    assert workload._LOW33 == sum((2**33 - 1) << 64 * j for j in range(2 * lanes))


def test_substreams_are_decorrelated():
    a = Prng(substream(7, 1))
    b = Prng(substream(7, 2))
    assert [a.u64() for _ in range(4)] != [b.u64() for _ in range(4)]


def _db(size=4, seed=3) -> FaceDatabase:
    return make_face_db(seed, size)


def test_dataset_is_deterministic_per_seed():
    db = _db()
    a = generate_dataset(1, 10, 0.8, 0.5, db, 256)
    b = generate_dataset(1, 10, 0.8, 0.5, db, 256)
    assert [(r.id, r.has_face, r.payload) for r in a] == \
           [(r.id, r.has_face, r.payload) for r in b]
    c = generate_dataset(2, 10, 0.8, 0.5, db, 256)
    assert [r.payload for r in a] != [r.payload for r in c]


def test_dataset_payload_bytes_are_pinned():
    dataset = generate_dataset(7, 5, 1.0, 0.5, make_face_db(7, 4), 1000)
    payloads = b"".join(record.payload for record in dataset)
    assert len(payloads) == 5000
    assert hashlib.sha256(payloads).hexdigest() == \
        "bbda91566d7e42c245c7b1f2032f36772e995b5bb41f77918ef61e2fed4ce906"


def _hex(embedding):
    return None if embedding is None else tuple(v.hex() for v in embedding.values)


def _eager_dataset(seed, n, face_prob, known_prob, db):
    """The dataset stream as it was drawn when each record held its
    embedding: ``(id, payload seed, has face, ground truth, embedding)`` of
    each image, the embedding as ``float.hex`` of its values."""
    rng = Prng(substream(seed, 1))
    out = []
    for k in range(n):
        has_face = rng.uniform() < face_prob
        ground_truth = embedding = None
        if has_face:
            if rng.uniform() < known_prob:
                ground_truth, base = db.entries[rng.randrange(len(db))]
                embedding = draw_embedding(rng, base)
            else:
                embedding = draw_embedding(rng, None)
        out.append((f"img{k:05d}", rng.u64(), has_face, ground_truth, _hex(embedding)))
    return out


GAMMA = 0x9E3779B97F4A7C15
MASK64 = 2**64 - 1


@pytest.mark.parametrize("seed", [1, 7, 2026])
def test_dataset_skip_ahead_matches_the_eager_draws(seed):
    db = _db()
    lazy = generate_dataset(seed, 40, 0.7, 0.5, db, 16)
    assert [(r.id, r.payload_seed, r.has_face, r.ground_truth, _hex(r.embedding))
            for r in lazy] == _eager_dataset(seed, 40, 0.7, 0.5, db)


def test_dataset_embeddings_are_pinned():
    # The states pin was computed when each record held its embedding. The
    # floats pin was computed when the Gaussian draw became a sum of 16-bit
    # fields (the draw before it called libm's log, sin and cos). Both hold
    # on every platform: the states are integers, and each vector is made
    # with correctly rounded operations only.
    _, dataset = build_dataset(base_config(seed=7))
    assert len(dataset) == 47 and all(r.has_face for r in dataset)
    states = ",".join(f"{r.embedding_seed[0]:016x}" for r in dataset)
    assert hashlib.sha256(states.encode()).hexdigest() == \
        "a8793e9a13440c20f0e872f78835e0f30bfe8c83430c25beb1b25a8c98dada85"
    floats = ",".join(v.hex() for r in dataset for v in r.embedding.values)
    assert hashlib.sha256(floats.encode()).hexdigest() == \
        "0cd5c2aa92b07e7bf3450375a72f74039e3b451493eb67c28abc99d0278c0408"


def test_dataset_identity_draws_do_not_depend_on_payload_size():
    db = _db()
    small = generate_dataset(11, 30, 0.7, 0.5, db, 1)
    large = generate_dataset(11, 30, 0.7, 0.5, db, 4096)
    assert [(r.has_face, r.ground_truth, r.embedding) for r in small] == \
           [(r.has_face, r.ground_truth, r.embedding) for r in large]


def test_dataset_all_faces_when_face_prob_one():
    records = generate_dataset(1, 47, 1.0, 0.5, _db(), 128)
    assert len(records) == 47
    assert all(r.has_face and r.embedding is not None for r in records)


def test_dataset_no_embeddings_when_face_prob_zero():
    records = generate_dataset(1, 20, 0.0, 0.5, _db(), 128)
    assert all(not r.has_face and r.embedding is None and r.ground_truth is None
               for r in records)


def test_dataset_needs_no_db_without_known_faces():
    empty = FaceDatabase(())
    records = generate_dataset(1, 5, 1.0, 0.0, empty, 64)
    assert all(r.ground_truth is None for r in records)


def test_known_faces_score_high_and_unknown_low():
    db = _db()
    records = generate_dataset(21, 60, 1.0, 0.5, db, 1)
    knowns = [r for r in records if r.ground_truth is not None]
    unknowns = [r for r in records if r.ground_truth is None]
    assert knowns and unknowns
    for r in knowns:
        ident = identify(r.embedding, db, 0.5, 1.09, r.id)
        assert ident.recognized and ident.best_person.id == r.ground_truth.id
        assert ident.best_similarity > 0.9
    for r in unknowns:
        ident = identify(r.embedding, db, 0.5, 1.09, r.id)
        assert not ident.recognized
        assert ident.best_similarity < 0.5


def test_cosine_identity_and_orthogonality():
    e0 = [0.0] * EMBEDDING_DIM
    e1 = [0.0] * EMBEDDING_DIM
    e0[0] = 1.0
    e1[1] = 1.0
    a, b = EmbeddingVec(tuple(e0)), EmbeddingVec(tuple(e1))
    assert cosine(a, a) == pytest.approx(1.0, abs=1e-12)
    assert cosine(a, b) == 0.0


def test_cosine_against_high_precision_summation_oracle():
    rng = Prng(1234)
    for _ in range(100):
        a = draw_embedding(rng, None)
        b = draw_embedding(rng, None)
        oracle = math.fsum(x * y for x, y in zip(a.values, b.values))
        value = cosine(a, b)
        assert abs(value - oracle) <= 1e-12
        assert -1.0 - 1e-9 <= value <= 1.0 + 1e-9


def _scalar_gaussians(rng):
    """The ``EMBEDDING_DIM`` values of an embedding, one ``u64()`` each: the
    sum of the word's four 16-bit fields, centred and scaled to variance 1."""
    values = []
    for _ in range(EMBEDDING_DIM):
        word = rng.u64()
        fields = sum(word >> shift & 0xFFFF for shift in (0, 16, 32, 48))
        values.append((fields - 131070) * (1 / math.sqrt((2**32 - 1) / 3)))
    return values


def _scalar_vector(rng, base=None):
    gauss = _scalar_gaussians(rng)
    values = gauss if base is None else [
        v + workload._PERTURB_SCALE * g for v, g in zip(base.values, gauss)]
    norm = math.sqrt(math.fsum(v * v for v in values))
    return EmbeddingVec(tuple(v / norm for v in values))


# By draw: a state whose draw outputs the word 7, below 2**11 (three of its
# four 16-bit fields are zero), at the first, second and last two draws of
# an embedding.
_WORD_7_STATES = {1: 0xF4077B0DBEBC73C0, 2: 0x55D001543F71F7AB,
                  127: 0x14B991C11813616A, 128: 0x7682180798C8E555}


@pytest.mark.parametrize("state", [*_WORD_7_STATES.values(), 1, 7, 2026],
                         ids=[*(f"word7_at_draw{d}" for d in _WORD_7_STATES),
                              "seed_1", "seed_7", "seed_2026"])
def test_embeddings_from_one_block_equal_the_scalar_field_sums(state):
    base = draw_embedding(Prng(99), None)
    rng, scalar = Prng(state), Prng(state)
    assert _hex(draw_embedding(rng, None)) == _hex(_scalar_vector(scalar))
    assert rng.state == scalar.state
    rng, scalar = Prng(state), Prng(state)
    assert _hex(draw_embedding(rng, base)) == _hex(_scalar_vector(scalar, base))
    assert rng.state == scalar.state


def test_an_embedding_takes_exactly_embedding_dim_draws():
    for draw, state in _WORD_7_STATES.items():
        rng = Prng(state)
        assert [rng.u64() for _ in range(draw)][-1] == 7
    for state in (*_WORD_7_STATES.values(), 0, 1, MASK64):
        for base in (None, draw_embedding(Prng(99), None)):
            rng = Prng(state)
            draw_embedding(rng, base)
            assert rng.state == state + EMBEDDING_DIM * GAMMA & MASK64


def test_gaussian_draw_has_mean_zero_and_unit_variance():
    # Irwin-Hall of order 4, within sqrt(12) of 0; 25,600 values.
    rng = Prng(3)
    values = [v for _ in range(200) for v in workload._gaussians(rng)]
    mean = math.fsum(values) / len(values)
    var = math.fsum((v - mean) * (v - mean) for v in values) / (len(values) - 1)
    assert abs(mean) < 0.03 and abs(var - 1.0) < 0.03
    assert all(abs(v) <= math.sqrt(12.0) for v in values)


def test_perturbed_copy_stays_close():
    rng = Prng(6)
    base = draw_embedding(rng, None)
    copy = draw_embedding(rng, base)
    assert cosine(base, copy) > 0.9


def test_identify_tie_breaks_on_lowest_person_id():
    axis = [0.0] * EMBEDDING_DIM
    axis[0] = 1.0
    shared = EmbeddingVec(tuple(axis))
    db = FaceDatabase(((PersonId(3, "Person 3"), shared),
                       (PersonId(1, "Person 1"), shared)))
    ident = identify(shared, db, 0.5, 1.0)
    assert ident.best_person.id == 1
    assert ident.recognized


def test_identify_threshold_changes_recognition_not_selection():
    rng = Prng(44)
    db = _db()
    probe = draw_embedding(rng, db.entries[2][1])
    low = identify(probe, db, 0.1, 1.0)
    high = identify(probe, db, 0.999, 1.0)
    assert low.best_person == high.best_person
    assert low.recognized and not high.recognized


def test_detection_sums_its_stages_in_order():
    durations = paper_stage_durations()
    det = detection_for(durations)
    assert det[:3] == (0.62, 0.52, 3.31)
    # The stages add up in their order, as the summed total always did; at
    # 0.1, 0.2 and 0.3 s the two orders of the sum give different floats.
    assert det[3] == (0.62 + 0.52) + 3.31
    odd = detection_for(replace(durations, t_quality=0.1, t_infer1=0.2, t_infer2=0.3))
    assert odd[3] == (0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3)
    with pytest.raises(TypeError):
        det[3] = 0.0


def test_detection_jitter_scales_all_stages():
    durations = paper_stage_durations()
    det = detection_for(durations, jitter_factor=0.92)
    stages = (durations.t_quality * 0.92, durations.t_infer1 * 0.92,
              durations.t_infer2 * 0.92)
    assert det[:3] == stages
    assert det[3] == (stages[0] + stages[1]) + stages[2]
    with pytest.raises(TypeError):
        det[0] = 1.0
    # a 4.08 s observation sits inside the +-10% jitter band around 4.45
    assert 4.45 * 0.9 <= 4.08 <= 4.45 * 1.1


def test_cloud_verdict_fields_are_those_of_a_result_after_its_origin():
    # The cloud sends ``ResultMessage(image_id, "cloud", *verdict)``.
    assert CloudVerdict._fields == tuple(f.name for f in fields(ResultMessage))[2:]


def test_cloud_recognize_known_face_resolves_correctly():
    db = _db()
    record = next(r for r in generate_dataset(9, 40, 1.0, 1.0, db, 1))
    rng = Prng(0)
    state = rng.state
    verdict = cloud_recognize(record.ground_truth, 0.627, rng)
    assert verdict.recognized
    assert verdict.label == record.ground_truth.label
    assert not verdict.is_false_positive
    assert rng.state == state  # known faces draw nothing


def test_cloud_recognize_fp_rate_zero_never_matches_unknowns():
    record = generate_dataset(9, 1, 1.0, 0.0, _db(), 1)[0]
    rng = Prng(1)
    for _ in range(50):
        verdict = cloud_recognize(record.ground_truth, 0.0, rng)
        assert not verdict.recognized
        assert verdict.label is None


def test_cloud_recognize_draws_exactly_one_sample_per_unknown():
    record = generate_dataset(9, 1, 1.0, 0.0, _db(), 1)[0]
    rng = Prng(42)
    shadow = Prng(42)
    for _ in range(20):
        cloud_recognize(record.ground_truth, 0.627, rng)
        shadow.u64()
        assert rng.state == shadow.state


def test_cloud_recognize_fp_frequency_converges():
    record = generate_dataset(9, 1, 1.0, 0.0, _db(), 1)[0]
    rng = Prng(2024)
    n = 10_000
    hits = sum(cloud_recognize(record.ground_truth, 0.627, rng).is_false_positive
               for _ in range(n))
    assert abs(hits / n - 0.627) <= 0.015


def test_false_positive_labels_come_from_celebrity_pool():
    record = generate_dataset(9, 1, 1.0, 0.0, _db(), 1)[0]
    rng = Prng(5)
    labels = set()
    for _ in range(500):
        verdict = cloud_recognize(record.ground_truth, 0.627, rng)
        if verdict.is_false_positive:
            labels.add(verdict.label)
    assert labels <= set(CELEBRITY_LABELS)
    assert len(labels) > 3


def test_face_db_has_requested_size_and_labels():
    db = make_face_db(7, 4)
    assert len(db) == 4
    assert [p.label for p, _ in db.entries] == [
        "Person 0", "Person 1", "Person 2", "Person 3"]
