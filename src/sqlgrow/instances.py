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
        """Every field but a null ``cot``; ``features`` maps each count's name to it."""
        record = self._asdict()
        if self.operator_applied:
            record["operator_applied"] = self.operator_applied.name
        if self.features:
            record["features"] = self.features._asdict()
        if self.cot is None:
            del record["cot"]
        return record

    def to_row(self) -> dict:
        """The checkpoint record: no field at its ``_OPTIONAL`` default, and
        ``features`` as the nine counts in ``FeatureVector`` field order."""
        record = {name: value for name, value in zip(self._fields, self)
                  if name not in _OPTIONAL or value != _OPTIONAL[name]}
        if self.operator_applied:
            record["operator_applied"] = self.operator_applied.name
        if self.features:
            record["features"] = list(self.features)
        return record

    @classmethod
    def from_dict(cls, record: dict) -> "QueryInstance":
        """The instance a ``to_dict`` or ``to_row`` record holds; a missing
        field raises KeyError."""
        fields = {name: record.get(name, _OPTIONAL[name]) if name in _OPTIONAL
                  else record[name] for name in cls._fields}
        operator = fields["operator_applied"]
        fields["operator_applied"] = OperatorId[operator] if operator else None
        fields["features"] = _features(fields["features"])
        return _checked(cls._make(fields.values()))


def _features(value) -> FeatureVector | None:
    """The counts a record's ``features`` holds, as a list in field order or
    as a mapping by name; a list of another length raises ValueError."""
    if isinstance(value, list):
        if len(value) != len(FeatureVector._fields):
            raise ValueError(f"features holds {len(value)} counts, "
                             f"not {len(FeatureVector._fields)}")
        return FeatureVector(*value)
    return FeatureVector(**value) if value else None


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


def write_jsonl(instances, path, compact: bool = False) -> None:
    """Write one JSON row per instance: its ``to_dict`` record, or with
    ``compact`` (a checkpoint) its ``to_row`` record with no space after a
    separator. ``read_jsonl`` reads either form."""
    record = QueryInstance.to_row if compact else QueryInstance.to_dict
    encode = json.JSONEncoder(sort_keys=True, ensure_ascii=False,
                              separators=(",", ":") if compact else None).encode
    # a record and its newline go as two strings: joining them copies every
    # record, and that raised the peak RSS, which dedup sets later, by 0.3 MiB
    # on the bigdb workload (CPython 3.11, x86-64 Linux)
    write_file(path, (text for inst in instances for text in (
        encode(record(inst)), "\n")))


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
