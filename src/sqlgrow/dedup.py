"""Schema-aware near-duplicate removal over question embeddings.

Each schema group is scanned greedily in lineage order: an instance stays
iff its maximum cosine against everything already kept is at or below the
threshold. Groups are independent, so identical questions under two
schemas both survive.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import StructuralError
from .gateway import HttpEmbeddingBackend
from .instances import QueryInstance, stage_rank

FALLBACK_DIM = 4096
_EMPTY_AXIS = 0


@dataclass(frozen=True)
class QuestionVector:
    instance_id: str
    vector: np.ndarray
    source: str  # external-embedder | lexical-fallback


@dataclass(frozen=True)
class RemovalRecord:
    """One removed instance and the kept instance most similar to it.

    ``kept_id`` names the most similar item of the final kept set, which
    can come later in scan order than the removed item. It is not
    necessarily the earlier kept item that blocked the removal.
    """

    removed_id: str
    kept_id: str
    similarity: float


def word_trigrams(text: str) -> list[str]:
    """Character trigrams taken within each lowercased word."""
    grams: list[str] = []
    for word in "".join(
        c if c.isalnum() else " " for c in text.lower()
    ).split():
        if len(word) < 3:
            grams.append(word)
        else:
            grams.extend(word[i : i + 3] for i in range(len(word) - 2))
    return grams


def _bucket(gram: str) -> int:
    digest = hashlib.md5(gram.encode("utf-8")).hexdigest()
    return int(digest[:8], 16) % FALLBACK_DIM


def _bucket_counts(text: str) -> Counter:
    """Hashed trigram counts of one text, keyed by bucket."""
    counts = Counter(_bucket(gram) for gram in word_trigrams(text))
    if not counts:
        counts[_EMPTY_AXIS] = 1  # reserved axis for zero-content questions
    return counts


def embed_questions(
    questions: list[str],
    embedder: HttpEmbeddingBackend | None = None,
    instance_ids: list[str] | None = None,
) -> list[QuestionVector]:
    """One unit vector per question; lexical trigram fallback without a backend.

    The lexical fallback hashes trigrams into ``FALLBACK_DIM`` buckets. The
    lexical vectors of one call are the rows of one count matrix over only
    the buckets its questions use, so they share a basis: they are
    comparable with each other, not with vectors from another call.
    """
    ids = instance_ids or [str(i) for i in range(len(questions))]
    if len(ids) != len(questions):
        raise StructuralError("instance ids and questions are misaligned")
    if embedder is not None:
        raw = embedder.embed(questions)
        out = []
        for qid, emb in zip(ids, raw):
            vec = np.asarray(emb, dtype=np.float64)
            norm = np.linalg.norm(vec)
            if norm == 0:
                vec = np.zeros(len(vec))
                vec[_EMPTY_AXIS] = 1.0
            else:
                vec = vec / norm
            out.append(QuestionVector(qid, vec, "external-embedder"))
        return out
    counts = [_bucket_counts(q) for q in questions]
    column = {b: k for k, b in enumerate(sorted(set().union(*counts)))}
    matrix = np.zeros((len(questions), len(column)), dtype=np.float64)
    for row, text_counts in zip(matrix, counts):
        for bucket, count in text_counts.items():
            row[column[bucket]] = count
    matrix /= np.linalg.norm(matrix, axis=1, keepdims=True)
    return [QuestionVector(qid, row, "lexical-fallback")
            for qid, row in zip(ids, matrix)]


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.dot(a, b))


def dedup_schema_group(
    instances: list[QueryInstance],
    vectors: list[QuestionVector],
    tau: float,
) -> tuple[list[QueryInstance], list[RemovalRecord]]:
    """Greedy first-kept-wins scan over one schema group.

    All pairwise similarities come from one matrix product of the group's
    vectors, which must therefore share a basis.
    """
    if len(instances) != len(vectors):
        raise StructuralError("instances and vectors are misaligned")
    schema_ids = {inst.schema_id for inst in instances}
    if len(schema_ids) > 1:
        raise StructuralError(f"group spans multiple schemas: {sorted(schema_ids)}")
    for inst, vec in zip(instances, vectors):
        if inst.id != vec.instance_id:
            raise StructuralError("instances and vectors are misaligned")
    if len({len(v.vector) for v in vectors}) > 1:
        raise StructuralError("vectors of one group differ in dimension")
    if not instances:
        return [], []

    order = sorted(range(len(instances)),
                   key=lambda i: (stage_rank(instances[i].stage), instances[i].id))
    matrix = np.vstack([v.vector for v in vectors])
    sims = matrix @ matrix.T

    kept_idx = _greedy_scan(order, lambda i, j: sims[i, j], tau)
    kept_set = set(kept_idx)
    removals = []
    for i in order:
        if i in kept_set:
            continue
        # argmax takes the first maximum: a tie goes to the earliest kept item
        nearest = kept_idx[int(np.argmax(sims[i, kept_idx]))]
        removals.append(
            RemovalRecord(instances[i].id, instances[nearest].id,
                          round(float(sims[i, nearest]), 6))
        )
    kept = [instances[i] for i in sorted(kept_set)]
    return kept, removals


def _greedy_scan(order, similarity, tau) -> list[int]:
    """Keep an item iff its max similarity to the kept set is <= tau."""
    kept: list[int] = []
    for i in order:
        if all(similarity(i, j) <= tau for j in kept):
            kept.append(i)
    return kept
