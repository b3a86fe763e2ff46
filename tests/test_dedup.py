import hashlib
import math
import random

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fixtures
from sqlgrow import dedup
from sqlgrow.dedup import (
    _EMPTY_AXIS,
    _WORD,
    FALLBACK_DIM,
    _bucket,
    _greedy_scan,
    _PackedColumns,
    _SimilarityMatrix,
    cosine,
    dedup_schema_group,
    embed_questions,
    word_trigrams,
)
from sqlgrow.errors import SqlgrowError, StructuralError
from sqlgrow.gateway import LlmGateway
from sqlgrow.instances import QueryInstance, read_jsonl, stage_rank
from sqlgrow.operators import OperatorId, analyze
from sqlgrow.parser import parse_sql
from sqlgrow.pipeline import RunConfig, run_full


def inst(iid, question="q", schema="olympics", stage="seed"):
    return QueryInstance(id=iid, schema_id=schema, question=question,
                         evidence="", sql="SELECT 1", stage=stage)


def unit_rows(*rows):
    m = np.asarray(rows, dtype=np.float64)
    return m / np.linalg.norm(m, axis=1, keepdims=True)


def dense_vector(text):
    """Unit trigram vector over all FALLBACK_DIM md5 buckets; axis 0 when empty."""
    vec = np.zeros(FALLBACK_DIM, dtype=np.float64)
    for gram in word_trigrams(text):
        vec[int(hashlib.md5(gram.encode("utf-8")).hexdigest()[:8], 16) % FALLBACK_DIM] += 1
    if not vec.any():
        vec[0] = 1.0
    return vec / np.linalg.norm(vec)


def test_identical_strings_cosine_one():
    vectors = embed_questions(["list all athletes", "list all athletes"])
    assert cosine(vectors[0], vectors[1]) == pytest.approx(1.0, abs=1e-9)


def test_fallback_cosine_matches_trigram_oracle():
    a, b = "list all athletes", "list every athlete"
    # independent oracle: raw trigram counts, no hashing
    ca, cb = Counter(word_trigrams(a)), Counter(word_trigrams(b))
    dot = sum(ca[g] * cb[g] for g in ca)
    expected = dot / math.sqrt(sum(v * v for v in ca.values())
                               * sum(v * v for v in cb.values()))
    va, vb = embed_questions([a, b])
    got = cosine(va, vb)
    assert got == pytest.approx(expected, abs=1e-9)
    assert got == pytest.approx(0.7379, abs=1e-4)  # 7 shared of 9 x 10 grams


def test_empty_string_reserved_axis():
    (alone,) = embed_questions([""])
    assert alone == (_EMPTY_AXIS,)
    # beside other questions the reserved axis still holds one count
    empty, other = embed_questions(["", "list all athletes"])
    assert empty == (_EMPTY_AXIS,)
    assert cosine(empty, other) == 0


def test_vectors_unit_normalized():
    # a lexical vector holds counts; its similarity to itself is 1
    for v in embed_questions(["one", "two tokens here", "a much longer question"]):
        assert cosine(v, v) == pytest.approx(1.0, abs=1e-12)
    reply = [[1.0, 2.0, 2.0], [0.0, 0.0, 0.0], [3.0, 0.0, 4.0]]
    rows = embed_questions(["a", "b", "c"], StubEmbedder(reply))
    assert np.linalg.norm(rows, axis=1) == pytest.approx([1.0] * 3, abs=1e-12)


def test_identical_questions_second_removed():
    instances = [inst("a", "same question"), inst("b", "same question")]
    vectors = embed_questions([i.question for i in instances])
    kept, removed = dedup_schema_group(instances, vectors, tau=0.9)
    assert [k.id for k in kept] == ["a"]
    assert removed[0].removed_id == "b"
    assert removed[0].similarity == pytest.approx(1.0, abs=1e-6)


def test_tau_one_keeps_an_exact_duplicate_of_any_length():
    # (3/sqrt 3)/sqrt 3 rounds to 1.0000000000000002: without reading it as
    # 1.0, "a b c" would lose its second copy while "a b" keeps both
    for words in range(1, 200):
        question = " ".join(f"w{k}" for k in range(words))
        instances = [inst("a", question), inst("b", question)]
        vectors = embed_questions([question, question])
        assert cosine(vectors[1], vectors[0]) <= 1.0, words
        assert dedup_schema_group(instances, vectors, tau=1.0) == (instances, []), words
        _, removed = dedup_schema_group(instances, vectors, tau=0.9)
        assert removed == [dedup.RemovalRecord("b", "a", 1.0)], words


def test_tau_one_keeps_an_exact_embedder_duplicate():
    instances = [inst("a"), inst("b")]
    vectors = embed_questions(["a", "b"], StubEmbedder([[1.0, 1.0, 1.0]] * 2))
    assert dedup_schema_group(instances, vectors, tau=1.0) == (instances, [])


def test_groups_processed_independently():
    group1 = [inst("a", "identical", schema="s1")]
    group2 = [inst("b", "identical", schema="s2")]
    for group in (group1, group2):
        vectors = embed_questions([i.question for i in group])
        kept, _ = dedup_schema_group(group, vectors, tau=0.9)
        assert len(kept) == 1


def test_greedy_triplet_keeps_a_and_c():
    # pairwise similarities (A,B)=0.95, (A,C)=0.5, (B,C)=0.95: B is removed
    # against A, then C is compared only against the kept {A}
    sims = np.array([[1.0, 0.95, 0.5],
                     [0.95, 1.0, 0.95],
                     [0.5, 0.95, 1.0]])
    kept, _ = _greedy_scan([0, 1, 2], _SimilarityMatrix(sims), tau=0.9)
    assert kept == [0, 2]


def test_greedy_triplet_with_real_vectors():
    # realizable vectors with (A,B)=0.95 and (A,C)=0.5; (B,C) is never
    # consulted by the greedy scan once B is removed
    vectors = unit_rows([1.0, 0.0, 0.0],
                        [0.95, math.sqrt(1 - 0.95**2), 0.0],
                        [0.5, 0.0, math.sqrt(1 - 0.25)])
    instances = [inst("a"), inst("b"), inst("c")]
    kept, removed = dedup_schema_group(instances, vectors, tau=0.9)
    assert [k.id for k in kept] == ["a", "c"]
    assert [r.removed_id for r in removed] == ["b"]


def test_seeds_sort_before_children():
    instances = [
        inst("z-child", "the exact same words", stage="EQE"),
        inst("a-seed", "the exact same words", stage="seed"),
    ]
    vectors = embed_questions([i.question for i in instances])
    kept, removed = dedup_schema_group(instances, vectors, tau=0.9)
    assert [k.id for k in kept] == ["a-seed"]
    assert removed[0].removed_id == "z-child"


def test_idempotence():
    questions = ["alpha beta gamma", "alpha beta gamma delta",
                 "completely unrelated text", "alpha beta"]
    instances = [inst(f"i{k}", q) for k, q in enumerate(questions)]
    vectors = embed_questions([i.question for i in instances])
    kept, _ = dedup_schema_group(instances, vectors, tau=0.9)
    # lexical vectors do not depend on the other questions of the call
    kept_vectors = embed_questions([i.question for i in kept])
    assert kept_vectors == [vectors[instances.index(i)] for i in kept]
    kept2, removed2 = dedup_schema_group(kept, kept_vectors, 0.9)
    assert kept2 == kept
    assert removed2 == []


def test_misaligned_inputs_rejected():
    instances = [inst("a"), inst("b")]
    vectors = embed_questions(["only one"])
    with pytest.raises(StructuralError):
        dedup_schema_group(instances, vectors, tau=0.9)


def test_mixed_schema_group_rejected():
    instances = [inst("a", schema="s1"), inst("b", schema="s2")]
    vectors = embed_questions(["x", "y"])
    with pytest.raises(StructuralError):
        dedup_schema_group(instances, vectors, tau=0.9)


class StubEmbedder:
    """An embedding backend that replies with fixed rows."""

    def __init__(self, reply):
        self.reply = reply

    def embed(self, texts):
        return self.reply


@pytest.mark.parametrize("reply", [
    [[1.0, 2.0, 2.0]],                     # one row short
    [[1.0, 2.0, 2.0], [1.0, 0.0]],         # ragged
    [[], []],                              # no width
])
def test_malformed_embedder_reply_rejected(reply):
    with pytest.raises(StructuralError, match="embedder returned"):
        embed_questions(["a", "b"], StubEmbedder(reply))


class FailingEmbedder:
    def embed(self, texts):
        raise AssertionError("the backend was asked to embed")


@pytest.mark.parametrize("embedder", [None, FailingEmbedder()])
def test_no_questions_embed_to_no_rows(embedder):
    vectors = embed_questions([], embedder)
    assert len(vectors) == 0
    assert dedup_schema_group([], vectors, tau=0.9) == ([], [])


def test_zero_embedding_lands_on_reserved_axis():
    reply = [[0.0, 0.0, 0.0], [0.0, 3.0, 4.0]]
    vectors = embed_questions(["a", "b"], StubEmbedder(reply))
    assert vectors.tolist() == [[1.0, 0.0, 0.0], [0.0, 0.6, 0.8]]


def test_kept_id_is_nearest_kept_even_when_later():
    # b is blocked by a (0.92 > tau) but lies nearer to c (0.99), which is
    # kept after it: kept_id names c, the most similar kept item
    theta = math.acos(0.92)
    delta = math.acos(0.99)
    vectors = unit_rows([1.0, 0.0],
                        [math.cos(theta), math.sin(theta)],
                        [math.cos(theta + delta), math.sin(theta + delta)])
    instances = [inst("a"), inst("b"), inst("c")]
    kept, removed = dedup_schema_group(instances, vectors, tau=0.9)
    assert [k.id for k in kept] == ["a", "c"]
    assert [(r.removed_id, r.kept_id) for r in removed] == [("b", "c")]
    assert removed[0].similarity == pytest.approx(0.99, abs=1e-6)


def test_lexical_vectors_share_one_compact_basis():
    # every call counts into the same FALLBACK_DIM buckets, and a vector
    # holds only the buckets its question uses
    questions = ["list all athletes", "count the games", ""]
    vectors = embed_questions(questions)
    assert vectors == [embed_questions([q])[0] for q in questions]
    for q, vector in zip(questions, vectors):
        assert sorted(set(vector)) == np.flatnonzero(dense_vector(q)).tolist()


def _mock_questions(schemas, connections):
    """Seed questions, their mock rephrasings and mock evolutions per schema."""
    gateway = LlmGateway()
    groups = {}
    for schema_id, seeds in fixtures.SEED_QUESTIONS.items():
        schema, conn = schemas[schema_id], connections[schema_id]
        group = [("seed", question, None) for question, _ in seeds]
        for k, (question, sql) in enumerate(seeds):
            for seed in (0, 1):
                exp = gateway.generate_expansion(
                    question, "", sql, schema, conn, seed,
                    analysis=analyze(parse_sql(sql), schema))
                group.append(("EQE", exp.question, None))
            for op in OperatorId:  # evolve the last rephrasing
                try:
                    evo = gateway.generate_evolution(
                        exp.question, "", exp.sql, schema, op, conn, k,
                        analysis=analyze(parse_sql(exp.sql), schema))
                except SqlgrowError:
                    continue
                group.append(("OGE-1", evo.question, op))
        group += [("EQE", "", None), ("EQE", "?!", None), ("EQE", "a b", None)]
        groups[schema_id] = [
            QueryInstance(id=f"{schema_id}-{i:03d}", schema_id=schema_id,
                          question=question, evidence="", sql="SELECT 1",
                          stage=stage, operator_applied=op)
            for i, (stage, question, op) in enumerate(group)
        ]
    return groups


def _dense_oracle(group, tau):
    """The scan over dense 4,096-dim vectors and per-pair cosines."""
    dense = {i.id: dense_vector(i.question) for i in group}
    order = sorted(group, key=lambda i: (stage_rank(i.stage), i.id))
    kept = []
    for item in order:
        if all(dense_cosine(dense[item.id], dense[k.id]) <= tau for k in kept):
            kept.append(item)
    removals = []
    for item in order:
        if item in kept:
            continue
        nearest = max(kept, key=lambda k: dense_cosine(dense[item.id], dense[k.id]))
        removals.append((item.id, nearest.id,
                         round(dense_cosine(dense[item.id], dense[nearest.id]), 6)))
    return dense, sorted(k.id for k in kept), removals


def dense_cosine(a, b):
    return float(np.dot(a, b))


@pytest.mark.parametrize("tau", [0.9, 0.6])
def test_matrix_scan_matches_dense_oracle(schemas, connections, tau):
    total_removed = 0
    for group in _mock_questions(schemas, connections).values():
        assert len(group) > 100
        vectors = embed_questions([i.question for i in group])
        kept, removed = dedup_schema_group(group, vectors, tau)
        dense, oracle_kept, oracle_removed = _dense_oracle(group, tau)
        assert sorted(k.id for k in kept) == oracle_kept
        assert [(r.removed_id, r.kept_id) for r in removed] == [
            (rid, kid) for rid, kid, _ in oracle_removed]
        for r, (_, _, sim) in zip(removed, oracle_removed):
            assert r.similarity == pytest.approx(sim, abs=1e-9)
        exact = np.array([[dense_cosine(dense[a.id], dense[b.id]) for b in group]
                          for a in group])
        packed = _packed(vectors)
        sims = np.array([np.array(packed.dots(v)) / packed.kept_norms / packed.norms[i]
                         for i, v in enumerate(vectors)])
        assert np.abs(sims - exact).max() < 1e-9
        total_removed += len(removed)
    assert total_removed > 0


# ---------------------------------------------------------------------------
# The lexical fallback and the scan against their per-item definitions
# ---------------------------------------------------------------------------

def _per_char_trigrams(text):
    """Word trigrams with words split character by character on isalnum."""
    grams = []
    for word in "".join(
        c if c.isalnum() else " " for c in text.lower()
    ).split():
        if len(word) < 3:
            grams.append(word)
        else:
            grams.extend(word[i : i + 3] for i in range(len(word) - 2))
    return grams


def _per_occurrence_counts(questions):
    """One _bucket call per trigram occurrence, then a Counter per question."""
    counts = []
    for question in questions:
        text_counts = Counter(_bucket(gram) for gram in _per_char_trigrams(question))
        counts.append(text_counts or Counter({0: 1}))
    return counts


def _pairwise_scan(order, sims, tau):
    """Keep an item iff every kept item's similarity to it is <= tau."""
    kept = []
    for i in order:
        if all(sims[i, j] <= tau for j in kept):
            kept.append(i)
    return kept


EDGE_QUESTIONS = ["", "__", "!!", "ab", "1²3 ᛮ"]


def _seed_questions():
    return [q for pairs in fixtures.SEED_QUESTIONS.values() for q, _ in pairs]


def test_word_pattern_matches_isalnum_on_every_code_point():
    mismatched = [code for code in range(0x110000)
                  if (_WORD.fullmatch(chr(code)) is not None) != chr(code).isalnum()]
    assert mismatched == []


def test_word_trigrams_match_per_character_split():
    rng = random.Random(13)
    alphabet = "aZ9 _-.²½İßς"
    for _ in range(3000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(25)))
        assert Counter(word_trigrams(text)) == Counter(_per_char_trigrams(text)), text


def test_embedding_counts_match_per_occurrence_hashing():
    questions = _seed_questions() + EDGE_QUESTIONS
    assert list(map(Counter, embed_questions(questions))) == _per_occurrence_counts(questions)


def _pool_questions(tmp_path, db_dir):
    """The questions of a rounds=1 run's pool, per schema, in pool order."""
    out = tmp_path / "out"
    run_full(RunConfig(seeds=str(fixtures.write_seed_file(tmp_path / "seeds.json")),
                       db_dir=str(db_dir), out_dir=str(out), rounds=1,
                       expansions_per_seed=2, global_seed=42))
    groups = {}
    for stage in ("seeds", "eqe", "oge-1"):
        for item in read_jsonl(out / "checkpoints" / f"{stage}.jsonl"):
            groups.setdefault(item.schema_id, []).append(item.question)
    return groups


def test_embedding_counts_match_per_occurrence_hashing_on_a_run_pool(tmp_path, db_dir):
    groups = _pool_questions(tmp_path, db_dir)
    assert any(q.startswith("Rephrased: ") for g in groups.values() for q in g)
    for questions in [*groups.values(), EDGE_QUESTIONS]:
        assert list(map(Counter, embed_questions(questions))) == \
            _per_occurrence_counts(questions)


def test_each_distinct_word_split_once_per_call(monkeypatch):
    split = []

    def counting(word):
        split.append(word)
        return real_split(word)

    real_split = dedup._split_word
    monkeypatch.setattr(dedup, "_split_word", counting)
    questions = _seed_questions() * 2 + EDGE_QUESTIONS
    words = [w for q in questions for w in _WORD.findall(q.lower())]
    assert len(words) > 2 * len(set(words))
    embed_questions(questions)
    assert sorted(split) == sorted(set(words))
    # a second call starts a fresh memo
    split.clear()
    embed_questions(questions[:1])
    assert sorted(split) == sorted(set(_WORD.findall(questions[0].lower())))


def test_each_distinct_trigram_hashed_once_per_call(monkeypatch):
    hashed = []

    def counting(gram):
        hashed.append(gram)
        return _bucket(gram)

    monkeypatch.setattr(dedup, "_bucket", counting)
    questions = _seed_questions() * 2 + EDGE_QUESTIONS
    embed_questions(questions)
    occurrences = [g for q in questions for g in word_trigrams(q)]
    assert len(occurrences) > 2 * len(set(occurrences))
    assert sorted(hashed) == sorted(set(occurrences))
    # a second call starts a fresh memo
    embed_questions(questions[:1])
    assert len(hashed) == len(set(occurrences)) + len(set(word_trigrams(questions[0])))


@pytest.mark.parametrize("seed", range(20))
def test_array_scan_matches_pairwise_scan(seed):
    rng = np.random.default_rng(seed)
    n, tau = int(rng.integers(1, 40)), 0.5
    # values on a 0.1 grid, so many entries equal tau exactly
    sims = rng.integers(0, 11, size=(n, n)) / 10
    sims = np.triu(sims) + np.triu(sims, 1).T
    if seed % 4 == 0:
        sims[rng.integers(0, n, 3), rng.integers(0, n, 3)] = np.nan
    assert (sims == tau).any() or n < 4
    order = rng.permutation(n).tolist()
    assert _greedy_scan(order, _SimilarityMatrix(sims), tau)[0] == \
        _pairwise_scan(order, sims, tau)


def test_array_scan_keeps_the_first_item_against_the_empty_kept_set():
    # every similarity is above tau: only the first item in order is kept
    sims = np.full((4, 4), 0.95)
    assert _greedy_scan([2, 0, 3, 1], _SimilarityMatrix(sims), 0.9) == ([2], [0, 3, 1])
    assert _greedy_scan([], _SimilarityMatrix(sims), 0.9) == ([], [])
    # NaN never compares <= tau, so a NaN against a kept item blocks
    sims = np.array([[1.0, np.nan], [np.nan, 1.0]])
    assert _greedy_scan([0, 1], _SimilarityMatrix(sims), 1.0)[0] == [0] == \
        _pairwise_scan([0, 1], sims, 1.0)


# ---------------------------------------------------------------------------
# The packed columns: exact integer dot products
# ---------------------------------------------------------------------------

def _direct_dot(x, y):
    """Sum over buckets of x_b * y_b, from the two vectors' counts."""
    cx, cy = Counter(x), Counter(y)
    return sum(count * cy[bucket] for bucket, count in cx.items())


def _occurrences(counts):
    return tuple(Counter(counts).elements())


def _packed(vectors):
    packed = _PackedColumns(vectors)
    for i in range(len(vectors)):
        packed.keep(i)
    return packed


count_vectors = st.dictionaries(st.integers(0, 40), st.integers(1, 300),
                                min_size=1, max_size=12)


@settings(max_examples=200, deadline=None)
@given(st.lists(count_vectors, min_size=1, max_size=25), count_vectors)
def test_packed_dots_equal_direct_sums(kept, probe):
    vectors = list(map(_occurrences, kept))
    probe = _occurrences(probe)
    packed = _PackedColumns(vectors + [probe])
    for i in range(len(vectors)):
        packed.keep(i)
    for x in [*vectors, probe]:
        assert packed.dots(x).tolist() == [_direct_dot(x, y) for y in vectors]


@pytest.mark.parametrize("length, width", [
    (15, 8), (16, 16), (255, 16), (256, 32), (65535, 32), (65536, 64)])
def test_field_width_holds_the_longest_question_squared(length, width):
    # "ab" is its own gram, so each word is one occurrence of one bucket and
    # the longest question's dot product with itself is length**2
    questions = ["ab " * length, "ab " * (length - 1) + "cd", "cd ab", ""]
    vectors = embed_questions(questions)
    packed = _packed(vectors)
    assert packed.width == width
    assert packed.dots(vectors[0])[0] == length * length
    for i, x in enumerate(vectors):
        assert packed.dots(x).tolist() == [_direct_dot(x, y) for y in vectors]
        k, sim = packed.nearest(i)
        assert sim == max(cosine(x, y) for y in vectors) == cosine(x, vectors[k])


def test_reserved_axis_is_bucket_zero_in_packed_dots():
    # "teq" hashes to bucket 0, the axis an empty question counts on
    assert _bucket("teq") == _EMPTY_AXIS
    vectors = embed_questions(["", "teq teq", "list all athletes"])
    packed = _packed(vectors)
    assert packed.dots(vectors[0]).tolist() == [1, 2, 0]
    assert [cosine(vectors[0], y) for y in vectors] == [1.0, 1.0, 0.0]


@pytest.mark.parametrize("first, second", [("a", "c"), ("c", "a")])
def test_a_tie_names_the_earlier_kept_item(first, second):
    # "xx yy" is equally near "xx" and "yy", which are kept apart; the
    # scan order, by id, decides which one the removal names
    instances = [inst(second, "yy"), inst("b", "xx yy"), inst(first, "xx")]
    vectors = embed_questions([i.question for i in instances])
    kept, removed = dedup_schema_group(instances, vectors, tau=0.6)
    assert sorted(k.id for k in kept) == ["a", "c"]
    assert removed == [dedup.RemovalRecord("b", "a", round(math.sqrt(0.5), 6))]


def test_embedder_vectors_deduplicate():
    reply = [[1.0, 0.0], [2.0, 0.1], [0.0, 3.0], [0.0, 0.0]]
    instances = [inst(k, q) for k, q in zip("abcd", "wxyz")]
    vectors = embed_questions([i.question for i in instances], StubEmbedder(reply))
    kept, removed = dedup_schema_group(instances, vectors, tau=0.9)
    # "d" lands on the reserved axis, where "a" already lies
    assert [k.id for k in kept] == ["a", "c"]
    assert [(r.removed_id, r.kept_id) for r in removed] == [("b", "a"), ("d", "a")]
    assert removed[1].similarity == 1.0


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.integers(0, 5), min_size=1, max_size=6).map(tuple),
                min_size=2, max_size=20),
       st.lists(st.booleans(), min_size=20, max_size=20))
def test_nearest_is_the_first_most_similar_kept_item(vectors, keeps):
    # small alphabets give many equal similarities: the first kept wins a tie,
    # and a similarity that rounding puts above 1.0 reads as 1.0
    norm = [math.sqrt(_direct_dot(v, v)) for v in vectors]
    packed = _PackedColumns(vectors)
    for i, keep in zip(range(len(vectors)), keeps):
        for j in range(len(vectors)):
            if packed.kept:
                # dot / |kept| orders the kept items as the similarity does
                scaled = [_direct_dot(vectors[j], vectors[k]) / norm[k] for k in packed.kept]
                best = max(scaled)
                assert packed.nearest(j) == (scaled.index(best), min(best / norm[j], 1.0))
        if keep:
            packed.keep(i)
