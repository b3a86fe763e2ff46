"""Schema-aware near-duplicate removal over question vectors.

Dedup is the last stage of a run. ``embed_questions`` gives one vector per
question of one schema group, and ``dedup_schema_group`` scans that group
greedily in lineage order: an instance stays iff its maximum cosine against
everything already kept is at or below the threshold. Groups are
independent, so identical questions under two schemas both survive.

Without an embedding endpoint a question's vector lists the bucket of each
of its word trigrams, hashed into ``FALLBACK_DIM`` buckets, and a similarity
is an exact integer dot product of the two count vectors over their norms. The
scan keeps one Python int per bucket whose ``p``-th bit field holds that
bucket's count in the ``p``-th kept item, so summing the ints of an item's
trigrams gives its dot products with every kept item at once. Each distinct
word is split into trigrams, and each distinct trigram hashed, once per
``embed_questions`` call. Only an embedder's replies need numpy, and only
that path imports it.
"""

from __future__ import annotations

import math
import re
import sys
from array import array
from collections import Counter
from itertools import chain, repeat
from operator import add, lshift, mul, truediv
from typing import NamedTuple

from .digests import md5
from .errors import StructuralError
from .gateway import HttpEmbeddingBackend
from .instances import QueryInstance, stage_rank

FALLBACK_DIM = 4096
_EMPTY_AXIS = 0
# exactly the characters for which str.isalnum() is true
_WORD = re.compile(r"[^\W_]+")


class RemovalRecord(NamedTuple):
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
):
    """One vector per question, in question order.

    Without a backend a vector is the tuple of the buckets of the question's
    trigrams, one entry per occurrence, so a bucket's count is how often it
    occurs; a question with no trigram is the reserved axis alone. Vectors
    from separate calls are comparable. With a backend the vectors are the
    unit rows of a numpy matrix of its embeddings: a reply must hold one row
    per question, all of one width, and a zero row becomes the unit vector
    on the reserved axis. No questions give no vectors, without asking the
    backend.
    """
    if not questions:
        return []
    if embedder is not None:
        import numpy as np  # only embeddings need it; keeps `import sqlgrow` light

        raw = embedder.embed(questions)
        widths = {len(row) for row in raw}
        if len(raw) != len(questions) or len(widths) > 1 or 0 in widths:
            raise StructuralError(
                f"embedder returned {len(raw)} rows of widths {sorted(widths)} "
                f"for {len(questions)} questions")
        matrix = np.array(raw, dtype=np.float64).reshape(len(raw), max(widths))
        norms = np.linalg.norm(matrix, axis=1, keepdims=True)
        empty = norms[:, 0] == 0
        matrix[empty, _EMPTY_AXIS] = 1.0
        norms[empty] = 1.0
        matrix /= norms
        return matrix
    buckets = _Memo(_bucket)  # both memos last for this call only
    word_buckets = _Memo(lambda word: tuple(map(buckets.__getitem__, _split_word(word))))
    return [tuple(chain.from_iterable(map(word_buckets.__getitem__,
                                          _WORD.findall(question.lower()))))
            or (_EMPTY_AXIS,)
            for question in questions]


class _Memo(dict):
    """A dict that fills in a missing key with ``compute(key)``."""

    def __init__(self, compute):
        super().__init__()
        self.compute = compute

    def __missing__(self, key):
        value = self[key] = self.compute(key)
        return value


def _norm(counts: Counter) -> float:
    return math.sqrt(sum(map(mul, counts.values(), counts.values())))


def cosine(a: tuple[int, ...], b: tuple[int, ...]) -> float:
    """The similarity of lexical vector ``a`` to ``b``, rounded as the scan
    rounds it for an item ``a`` against a kept item ``b``."""
    counts = Counter(b)
    dot = sum(map(counts.__getitem__, a))
    return dot / _norm(counts) / _norm(Counter(a))


def dedup_schema_group(
    instances: list[QueryInstance],
    vectors,
    tau: float,
) -> tuple[list[QueryInstance], list[RemovalRecord]]:
    """Greedy first-kept-wins scan over one schema group.

    ``vectors`` are the ``embed_questions`` vectors of the group's
    questions: ``vectors[i]`` belongs to ``instances[i]``. A removed item's
    record names its nearest item of the final kept set, the earliest in
    scan order on a tie.
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
    if isinstance(vectors, list):  # lexical vectors; an embedder's rows are a matrix
        kept_set = _PackedColumns(vectors)
    else:
        kept_set = _SimilarityMatrix(vectors @ vectors.T)
    kept_idx = _greedy_scan(order, kept_set, tau)
    kept_ids = set(kept_idx)
    removals = []
    for i in order:
        if i not in kept_ids:
            k, sim = kept_set.nearest(i)
            removals.append(RemovalRecord(instances[i].id, instances[kept_idx[k]].id,
                                          round(sim, 6)))
    kept = [instances[i] for i in sorted(kept_ids)]
    return kept, removals


def _greedy_scan(order, kept_set, tau) -> list[int]:
    """Keep an item iff its similarity to every item kept so far is <= tau.

    ``kept_set`` starts empty; ``keep(i)`` appends item ``i`` to its ``kept``
    list, and ``nearest(i)`` gives the position in that list of the kept
    item most similar to item ``i``, the first on a tie, and that
    similarity. A NaN is the maximum wherever it occurs, and it fails
    ``<= tau``, so it blocks. Returns the kept list.
    """
    for i in order:
        if kept_set.nearest(i)[1] <= tau:
            kept_set.keep(i)
    return kept_set.kept


class _SimilarityMatrix:
    """A kept set over a matrix of all pairwise similarities, such as an embedder's."""

    def __init__(self, sims):
        self.sims = sims
        self.kept: list[int] = []

    def keep(self, i: int) -> None:
        self.kept.append(i)

    def nearest(self, i: int) -> tuple[int, float]:
        if not self.kept:
            return -1, -math.inf
        row = self.sims[i, self.kept]
        k = int(row.argmax())  # the first maximum, or the first NaN
        return k, float(row[k])


class _PackedColumns:
    """A kept set over lexical vectors, held as one packed int per bucket.

    Bit field ``p`` of ``columns[b]`` holds bucket ``b``'s count in the
    ``p``-th kept item. A dot product is at most the product of the two
    vectors' lengths, so fields that hold the square of the longest length
    never carry into each other. ``nearest`` remembers its answer for each
    item and later looks only at the items kept since.
    """

    def __init__(self, vectors: list[tuple[int, ...]]):
        self.vectors = vectors
        self.counts = [Counter(vector) for vector in vectors]
        self.norms = [_norm(counts) for counts in self.counts]
        longest = max(map(len, vectors))
        bits = (longest * longest).bit_length()
        self.typecode = next(code for code in "BHIQ" if array(code).itemsize * 8 >= bits)
        self.width = array(self.typecode).itemsize * 8
        self.columns: dict[int, int] = {}
        self.kept: list[int] = []
        self.kept_norms: list[float] = []
        self.seen: dict[int, tuple[int, int, float]] = {}  # i -> kept count, k, best

    def keep(self, i: int) -> None:
        counts, shift = self.counts[i], len(self.kept) * self.width
        self.columns.update(zip(counts, map(add, map(self.columns.get, counts, repeat(0)),
                                            map(lshift, counts.values(), repeat(shift)))))
        self.kept.append(i)
        self.kept_norms.append(self.norms[i])

    def dots(self, vector: tuple[int, ...], start: int = 0) -> array:
        """The exact dot products of ``vector`` with each kept item from
        position ``start`` on, in keep order."""
        total = sum(map(self.columns.get, vector, repeat(0)))
        fields = array(self.typecode)
        fields.frombytes(total.to_bytes(len(self.kept) * fields.itemsize, "little")[
            start * fields.itemsize:])
        if sys.byteorder == "big":
            fields.byteswap()
        return fields

    def nearest(self, i: int) -> tuple[int, float]:
        # dot / |kept| orders the kept items as the similarity does. Only the
        # items kept since the last call for i are new; an earlier one wins a tie.
        start, k, best = self.seen.get(i, (0, -1, -math.inf))
        if start < len(self.kept):
            dots = self.dots(self.vectors[i], start)
            norms = self.kept_norms[start:] if start else self.kept_norms
            # no new item beats best if the largest dot over the smallest norm does not
            if not start or max(dots) / min(norms) > best:
                scaled = list(map(truediv, dots, norms))
                top = max(scaled)
                if top > best:
                    k, best = start + scaled.index(top), top
        self.seen[i] = len(self.kept), k, best
        return k, best / self.norms[i]
