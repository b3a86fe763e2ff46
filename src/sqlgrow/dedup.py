"""Schema-aware near-duplicate removal over question embeddings.

Dedup is the last stage of a run. ``embed_questions`` turns the questions
of one schema group into one matrix with a unit row per question, and
``dedup_schema_group`` scans that group greedily in lineage order: an
instance stays iff its maximum cosine against everything already kept is
at or below the threshold. Groups are independent, so identical questions
under two schemas both survive.

The lexical fallback splits each distinct word into trigrams once per
``embed_questions`` call, and hashes each distinct trigram once, however
often the questions repeat them; one scatter then adds every trigram
occurrence into the count matrix.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .digests import md5
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


def _split_word(word: str) -> list[str]:
    """The character trigrams of one word; a shorter word is its own gram."""
    if len(word) < 3:
        return [word]
    return [word[i : i + 3] for i in range(len(word) - 2)]


def word_trigrams(text: str) -> list[str]:
    """Character trigrams taken within each lowercased word."""
    grams: list[str] = []
    for word in _WORD.findall(text.lower()):
        grams.extend(_split_word(word))
    return grams


def _bucket(gram: str) -> int:
    digest = md5(gram.encode("utf-8")).hexdigest()
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
    distinct word is split once and each distinct trigram hashed once per
    call. A row with no content is the unit vector on the reserved axis.
    No questions give a matrix with no rows, without asking the backend.
    """
    if not questions:
        return np.zeros((0, 0), dtype=np.float64)
    if embedder is not None:
        raw = embedder.embed(questions)
        widths = {len(row) for row in raw}
        if len(raw) != len(questions) or len(widths) > 1 or 0 in widths:
            raise StructuralError(
                f"embedder returned {len(raw)} rows of widths {sorted(widths)} "
                f"for {len(questions)} questions")
        matrix = np.array(raw, dtype=np.float64).reshape(len(raw), max(widths))
    else:
        buckets: dict[str, int] = {}  # gram -> bucket, for this call only
        word_buckets: dict[str, tuple[int, ...]] = {}  # word -> its grams' buckets
        cols: list[int] = []  # every gram occurrence's bucket, question by question
        lengths = []
        for question in questions:
            start = len(cols)
            for word in _WORD.findall(question.lower()):
                ids = word_buckets.get(word)
                if ids is None:
                    grams = _split_word(word)
                    for gram in grams:
                        if gram not in buckets:
                            buckets[gram] = _bucket(gram)
                    ids = word_buckets[word] = tuple(map(buckets.__getitem__, grams))
                cols.extend(ids)
            if len(cols) == start:
                cols.append(_EMPTY_AXIS)  # reserved axis for zero-content questions
            lengths.append(len(cols) - start)
        # columns are the used buckets in bucket order
        used = np.zeros(FALLBACK_DIM, dtype=bool)
        used[cols] = True
        column = np.cumsum(used) - 1
        matrix = np.zeros((len(questions), int(column[-1]) + 1), dtype=np.float64)
        rows = np.repeat(np.arange(len(questions)), lengths)
        # small integer counts: the float sums are exact in any order
        np.add.at(matrix, (rows, column[cols]), 1.0)
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
