"""Execution-verified reasoning traces via rejection sampling.

For each instance the teacher proposes n (trace, SQL) candidates; each
candidate's result on the live database is compared with the gold result,
and the first one that matches wins. Instances with no correct candidate
are discarded with every failure reason recorded.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import TransportError
from .harness import MAX_ROWS, collect_result, results_equivalent
from .instances import QueryInstance
from .sqlite import sqlite3


_TOO_LARGE = f"result over {MAX_ROWS} rows"


class CotRecord(NamedTuple):
    instance_id: str
    trace: str
    verified_sql: str
    attempts_used: int


class CotDiscard(NamedTuple):
    instance_id: str
    failure_reasons: tuple[str, ...]


class CotDeferral(NamedTuple):
    instance_id: str
    reason: str


def synthesize_cot(
    instance: QueryInstance,
    conn: sqlite3.Connection,
    teacher,
    schema,
    n: int = 4,
    seed: int = 0,
) -> CotRecord | CotDiscard | CotDeferral:
    """Rejection-sample a verified trace for one instance.

    A candidate whose SQL text is exactly the gold's is accepted without
    running anything: grounding refused SQL whose result varies between
    runs, and a resumed run refuses changed inputs, so the same text on the
    same database gives the gold's result. The gold query runs at most
    once, for the first candidate whose text differs; a gold that fails
    that run discards the instance. Every such candidate runs and is
    compared with the gold result; rows are normalized only when the raw
    rows differ. A result over ``MAX_ROWS`` rows cannot be compared: as the
    gold's it discards the instance, as a candidate's it fails that
    candidate.
    """
    try:
        candidates = teacher.generate_cot_candidates(
            instance.question,
            instance.evidence,
            schema,
            n,
            gold_sql=instance.sql,
            seed=seed,
        )
    except TransportError as exc:
        return CotDeferral(instance.id, str(exc))
    if not candidates:
        return CotDeferral(instance.id, "teacher produced no candidates")

    gold_result = None
    failures = []
    for index, candidate in enumerate(candidates, start=1):
        if candidate.predicted_sql != instance.sql:
            if gold_result is None:
                gold_result = collect_result(conn, instance.sql)
                if gold_result is None:
                    return CotDiscard(instance.id, ("gold SQL: execution error",))
                if gold_result.too_large:
                    return CotDiscard(instance.id, (f"gold SQL: {_TOO_LARGE}",))
                if not gold_result.rows:
                    return CotDiscard(instance.id, ("gold SQL no longer returns rows",))
            result = collect_result(conn, candidate.predicted_sql)
            if result is None:
                failures.append(f"candidate {index}: execution error")
                continue
            if result.too_large:
                failures.append(f"candidate {index}: {_TOO_LARGE}")
                continue
            if not results_equivalent(result, gold_result):
                failures.append(f"candidate {index}: result mismatch")
                continue
        return CotRecord(
            instance_id=instance.id,
            trace=candidate.reasoning,
            verified_sql=candidate.predicted_sql,
            attempts_used=index,
        )
    return CotDiscard(instance.id, tuple(failures))
