import hashlib
import math

import pytest

from continuumsim import workload
from continuumsim.domain import EMBEDDING_DIM, EmbeddingVec, FaceDatabase, PersonId
from continuumsim.workload import (
    CELEBRITY_LABELS,
    CloudOutcome,
    EmptyDatabase,
    Prng,
    cloud_recognize,
    cosine,
    detection_for,
    generate_dataset,
    identify,
    make_face_db,
    perturbed_copy,
    random_unit_vector,
    substream,
)
from continuumsim.presets import paper_stage_durations


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


def test_dataset_requires_db_for_known_faces():
    empty = FaceDatabase(())
    with pytest.raises(EmptyDatabase):
        generate_dataset(1, 5, 1.0, 0.5, empty, 64)
    # with known_prob zero an empty database is fine
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
        a = random_unit_vector(rng)
        b = random_unit_vector(rng)
        oracle = math.fsum(x * y for x, y in zip(a.values, b.values))
        value = cosine(a, b)
        assert abs(value - oracle) <= 1e-12
        assert -1.0 - 1e-9 <= value <= 1.0 + 1e-9


def test_perturbed_copy_stays_close():
    rng = Prng(6)
    base = random_unit_vector(rng)
    copy = perturbed_copy(base, rng)
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
    probe = perturbed_copy(db.entries[2][1], rng)
    low = identify(probe, db, 0.1, 1.0)
    high = identify(probe, db, 0.999, 1.0)
    assert low.best_person == high.best_person
    assert low.recognized and not high.recognized


def test_identify_requires_database():
    rng = Prng(1)
    with pytest.raises(EmptyDatabase):
        identify(random_unit_vector(rng), FaceDatabase(()), 0.5, 1.0)


def test_detection_passes_ground_truth_through():
    record = generate_dataset(1, 1, 1.0, 0.0, _db(), 32)[0]
    durations = paper_stage_durations()
    det = detection_for(record, durations)
    assert det.face_found
    assert det.t_total == pytest.approx(4.45)
    assert (det.t_quality, det.t_infer1, det.t_infer2) == (0.62, 0.52, 3.31)


def test_detection_jitter_scales_all_stages():
    record = generate_dataset(1, 1, 1.0, 0.0, _db(), 32)[0]
    det = detection_for(record, paper_stage_durations(), jitter_factor=0.92)
    assert det.t_total == pytest.approx(4.45 * 0.92)
    # a 4.08 s observation sits inside the +-10% jitter band around 4.45
    assert 4.45 * 0.9 <= 4.08 <= 4.45 * 1.1


def test_cloud_recognize_known_face_resolves_correctly():
    db = _db()
    record = next(r for r in generate_dataset(9, 40, 1.0, 1.0, db, 1))
    rng = Prng(0)
    state = rng.state
    verdict = cloud_recognize(record.ground_truth, 0.627, rng)
    assert verdict.outcome is CloudOutcome.MATCH
    assert verdict.label == record.ground_truth.label
    assert not verdict.is_false_positive
    assert rng.state == state  # known faces draw nothing


def test_cloud_recognize_fp_rate_zero_never_matches_unknowns():
    record = generate_dataset(9, 1, 1.0, 0.0, _db(), 1)[0]
    rng = Prng(1)
    for _ in range(50):
        verdict = cloud_recognize(record.ground_truth, 0.0, rng)
        assert verdict.outcome is CloudOutcome.NO_MATCH
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
