"""The instance record that flows through every pipeline stage."""

from __future__ import annotations

import json
import os
import re
from pathlib import Path
from typing import NamedTuple

from .errors import InstanceFileError, SqlgrowError, StructuralError
from .features import FeatureVector
from .operators import OperatorId

STAGE_SEED = "seed"
STAGE_EQE = "EQE"
_ROUND_STAGE = re.compile(r"OGE-([1-9][0-9]*)")  # the stage of OGE round n >= 1

# a run builds every instance "active"; CoT verification copies each one it
# keeps to "cot-kept" together with its trace
_STATUSES = ("active", "cot-kept")


def oge_stage(round_no: int) -> str:
    return f"OGE-{round_no}"


def stage_rank(stage: str) -> int:
    """Lineage ordering: ``seed``, then ``EQE``, then ``OGE-<n>`` by round n >= 1.

    Any other stage raises StructuralError.
    """
    if stage == STAGE_SEED:
        return 0
    if stage == STAGE_EQE:
        return 1
    found = _ROUND_STAGE.fullmatch(stage) if isinstance(stage, str) else None
    if found is None:
        raise StructuralError(f"unknown stage {stage!r}")
    return 1 + int(found[1])


class _InstanceFields(NamedTuple):
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


# the fields a record may leave out, and the value each then takes
_OPTIONAL = {**_InstanceFields._field_defaults, "evidence": ""}


def _checked(inst):
    """``inst`` itself; a non-string id, schema_id, question or sql, an unknown
    stage, or an inconsistent lineage or status raises StructuralError."""
    for name in ("id", "schema_id", "question", "sql"):
        if not isinstance(getattr(inst, name), str):
            raise StructuralError(f"{name} is not a string: {getattr(inst, name)!r}")
    evolved = stage_rank(inst.stage) > 1
    if inst.stage == STAGE_SEED and inst.parent_id is not None:
        raise StructuralError("seed instances cannot have a parent")
    if evolved and inst.operator_applied is None:
        raise StructuralError("evolution instances must record their operator")
    if not evolved and inst.operator_applied is not None:
        raise StructuralError("operator_applied is only valid for OGE stages")
    if inst.status not in _STATUSES:
        raise StructuralError(f"unknown status {inst.status!r}")
    return inst


class QueryInstance(_InstanceFields):
    """One question and its SQL; a record ``_checked`` refuses raises StructuralError."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        return _checked(super().__new__(cls, *args, **kwargs))

    def to_dict(self) -> dict:
        record = self._asdict()
        if self.operator_applied:
            record["operator_applied"] = self.operator_applied.name
        if self.features:
            record["features"] = self.features._asdict()
        if self.cot is None:
            del record["cot"]
        return record

    @classmethod
    def from_dict(cls, record: dict) -> "QueryInstance":
        """The instance a ``to_dict`` record holds; a missing field raises KeyError."""
        fields = {name: record.get(name, _OPTIONAL[name]) if name in _OPTIONAL
                  else record[name] for name in cls._fields}
        operator, features = fields["operator_applied"], fields["features"]
        fields["operator_applied"] = OperatorId[operator] if operator else None
        fields["features"] = FeatureVector(**features) if features else None
        return _checked(cls._make(fields.values()))


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
    encode = json.JSONEncoder(sort_keys=True, ensure_ascii=False).encode
    write_file(path, (text for inst in instances for text in (
        encode(inst.to_dict()), "\n")))


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
                field = exc.args[0] in QueryInstance._fields
                problem = f"missing field {exc}" if field else f"unknown operator {exc}"
            except (ValueError, TypeError, SqlgrowError) as exc:
                problem = str(exc)
            else:
                continue
            raise InstanceFileError(f"{path}, line {line_no}: {problem}")
    return out
