"""Schema-aware near-duplicate removal over question embeddings.

Dedup is the last stage of a run. ``embed_questions`` turns the questions
of one schema group into one matrix with a unit row per question, and
``dedup_schema_group`` scans that group greedily in lineage order: an
instance stays iff its maximum cosine against everything already kept is
at or below the threshold. Groups are independent, so identical questions
under two schemas both survive.

The lexical fallback hashes each distinct trigram once per
``embed_questions`` call, however often the questions repeat it.
"""

from __future__ import annotations

import hashlib
import re
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import StructuralError
from .gateway import HttpEmbeddingBackend
from .instances import QueryInstance, stage_rank

FALLBACK_DIM = 4096
_EMPTY_AXIS = 0
# exactly the characters for which str.isalnum() is true
_WORD = re.compile(r"[^\W_]+")


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
    for word in _WORD.findall(text.lower()):
        if len(word) < 3:
            grams.append(word)
        else:
            grams.extend(word[i : i + 3] for i in range(len(word) - 2))
    return grams


def _bucket(gram: str) -> int:
    digest = hashlib.md5(gram.encode("utf-8")).hexdigest()
    return int(digest[:8], 16) % FALLBACK_DIM


def embed_questions(
    questions: list[str],
    embedder: HttpEmbeddingBackend | None = None,
) -> np.ndarray:
    """An ``n x d`` matrix with one unit row per question, in question order.

    With a backend the rows are its embeddings; a reply must hold one row per
    question, all of one width. Without one, the lexical fallback hashes
    trigrams into ``FALLBACK_DIM`` buckets and keeps only the buckets the
    questions use, so the rows of one call share a basis: they are
    comparable with each other, not with rows from another call. Each
    distinct trigram is hashed once per call. A row with no content is the
    unit vector on the reserved axis.
    """
    if embedder is not None:
        raw = embedder.embed(questions)
        widths = {len(row) for row in raw}
        if len(raw) != len(questions) or len(widths) > 1 or 0 in widths:
            raise StructuralError(
                f"embedder returned {len(raw)} rows of widths {sorted(widths)} "
                f"for {len(questions)} questions")
        matrix = np.array(raw, dtype=np.float64).reshape(len(raw), max(widths, default=0))
    else:
        buckets: dict[str, int] = {}  # gram -> bucket, for this call only
        counts = []
        for question in questions:
            grams = word_trigrams(question)
            for gram in set(grams).difference(buckets):
                buckets[gram] = _bucket(gram)
            text_counts = Counter(map(buckets.__getitem__, grams))
            if not text_counts:
                text_counts[_EMPTY_AXIS] = 1  # reserved axis for zero-content questions
            counts.append(text_counts)
        column = {b: k for k, b in enumerate(sorted(set().union(*counts)))}
        matrix = np.zeros((len(questions), len(column)), dtype=np.float64)
        for row, text_counts in zip(matrix, counts):
            for bucket, count in text_counts.items():
                row[column[bucket]] = count
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    empty = norms[:, 0] == 0
    matrix[empty, _EMPTY_AXIS] = 1.0
    norms[empty] = 1.0
    matrix /= norms
    return matrix


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.dot(a, b))


def dedup_schema_group(
    instances: list[QueryInstance],
    vectors: np.ndarray,
    tau: float,
) -> tuple[list[QueryInstance], list[RemovalRecord]]:
    """Greedy first-kept-wins scan over one schema group.

    ``vectors`` is the ``embed_questions`` matrix of the group's questions:
    row ``i`` belongs to ``instances[i]``. All pairwise similarities come
    from one product of that matrix with itself.
    """
    if len(instances) != len(vectors):
        raise StructuralError("instances and vectors are misaligned")
    schema_ids = {inst.schema_id for inst in instances}
    if len(schema_ids) > 1:
        raise StructuralError(f"group spans multiple schemas: {sorted(schema_ids)}")
    if not instances:
        return [], []

    order = sorted(range(len(instances)),
                   key=lambda i: (stage_rank(instances[i].stage), instances[i].id))
    sims = vectors @ vectors.T

    kept_idx = _greedy_scan(order, sims, tau)
    kept_set = set(kept_idx)
    removed_idx = [i for i in order if i not in kept_set]
    # argmax takes the first maximum: a tie goes to the earliest kept item
    nearest = sims[np.ix_(removed_idx, kept_idx)].argmax(axis=1).tolist()
    removals = [
        RemovalRecord(instances[i].id, instances[kept_idx[k]].id,
                      round(float(sims[i, kept_idx[k]]), 6))
        for i, k in zip(removed_idx, nearest)
    ]
    kept = [instances[i] for i in sorted(kept_set)]
    return kept, removals


def _greedy_scan(order, sims: np.ndarray, tau) -> list[int]:
    """Keep an item iff its max similarity to the kept set is <= tau.

    ``blocked[x]`` turns true once some kept ``k`` fails ``sims[x, k] <= tau``
    (a NaN fails it), so each item is judged on the same comparisons as
    against every kept item in turn.
    """
    allowed = sims <= tau
    blocked = np.zeros(len(allowed), dtype=bool)
    kept: list[int] = []
    for i in order:
        if not blocked[i]:
            kept.append(i)
            blocked |= ~allowed[:, i]
    return kept
