"""The instance record that flows through every pipeline stage."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace
from pathlib import Path

from .errors import InstanceFileError, SqlgrowError, StructuralError
from .features import FeatureVector
from .operators import OperatorId

STAGE_SEED = "seed"
STAGE_EQE = "EQE"

# status lifecycle; transitions may only move rightward
_STATUS_ORDER = ("active", "rejected", "cot-kept", "cot-discarded", "dedup-removed")


def oge_stage(round_no: int) -> str:
    return f"OGE-{round_no}"


def stage_rank(stage: str) -> int:
    """Lineage ordering: seeds first, then expansion, then rounds."""
    if stage == STAGE_SEED:
        return 0
    if stage == STAGE_EQE:
        return 1
    if stage.startswith("OGE-"):
        try:
            return 1 + int(stage.split("-", 1)[1])
        except ValueError:
            pass
    return 99


@dataclass
class QueryInstance:
    id: str
    schema_id: str
    question: str
    evidence: str
    sql: str
    stage: str
    parent_id: str | None = None
    operator_applied: OperatorId | None = None
    features: FeatureVector | None = None
    status: str = "active"
    cot: str | None = None

    def __post_init__(self):
        if self.stage == STAGE_SEED and self.parent_id is not None:
            raise StructuralError("seed instances cannot have a parent")
        if self.stage.startswith("OGE-") and self.operator_applied is None:
            raise StructuralError("evolution instances must record their operator")
        if not self.stage.startswith("OGE-") and self.operator_applied is not None:
            raise StructuralError("operator_applied is only valid for OGE stages")
        if self.status not in _STATUS_ORDER:
            raise StructuralError(f"unknown status {self.status!r}")

    def with_status(self, status: str) -> "QueryInstance":
        if _STATUS_ORDER.index(status) < _STATUS_ORDER.index(self.status):
            raise StructuralError(
                f"status cannot move from {self.status!r} back to {status!r}"
            )
        return replace(self, status=status)

    def to_dict(self) -> dict:
        record = {
            "id": self.id,
            "schema_id": self.schema_id,
            "question": self.question,
            "evidence": self.evidence,
            "sql": self.sql,
            "stage": self.stage,
            "parent_id": self.parent_id,
            "operator_applied": self.operator_applied.name if self.operator_applied else None,
            "features": self.features.as_dict() if self.features else None,
            "status": self.status,
        }
        if self.cot is not None:
            record["cot"] = self.cot
        return record

    @classmethod
    def from_dict(cls, record: dict) -> "QueryInstance":
        features = record.get("features")
        operator = record.get("operator_applied")
        return cls(
            id=record["id"],
            schema_id=record["schema_id"],
            question=record["question"],
            evidence=record.get("evidence", ""),
            sql=record["sql"],
            stage=record["stage"],
            parent_id=record.get("parent_id"),
            operator_applied=OperatorId[operator] if operator else None,
            features=FeatureVector(**features) if features else None,
            status=record.get("status", "active"),
            cot=record.get("cot"),
        )


def write_file(path, lines) -> None:
    """Replace the file at ``path`` whole with ``lines``, written as UTF-8.

    The lines go to ``<name>.tmp`` beside it, which ``os.replace`` renames
    over ``path``, so a process killed while writing leaves the old file or
    the new one, never a part. There is no fsync: the guarantee holds against
    a killed process, not a power cut. The next write of the file replaces a
    ``.tmp`` that a killed run left.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    partial = path.with_name(path.name + ".tmp")
    with open(partial, "w", encoding="utf-8") as handle:
        handle.writelines(lines)
    os.replace(partial, path)


def write_jsonl(instances, path) -> None:
    # a record and its newline go as two strings: joining them copies every
    # record, and that raised the peak RSS, which dedup sets later, by 0.3 MiB
    # on the bigdb workload (CPython 3.11, x86-64 Linux)
    write_file(path, (text for inst in instances for text in (
        json.dumps(inst.to_dict(), sort_keys=True, ensure_ascii=False), "\n")))


def read_jsonl(path) -> list[QueryInstance]:
    """The instances of a JSONL file; a line that holds none raises InstanceFileError."""
    out = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                if not isinstance(record, dict):
                    raise ValueError("not a JSON object")
                out.append(QueryInstance.from_dict(record))
            except json.JSONDecodeError as exc:
                problem = f"invalid JSON: {exc.msg}"
            except KeyError as exc:
                field = exc.args[0] in QueryInstance.__dataclass_fields__
                problem = f"missing field {exc}" if field else f"unknown operator {exc}"
            except (ValueError, TypeError, SqlgrowError) as exc:
                problem = str(exc)
            else:
                continue
            raise InstanceFileError(f"{path}, line {line_no}: {problem}")
    return out
