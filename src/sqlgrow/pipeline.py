"""End-to-end synthesis pipeline: ingest, expand, evolve, verify, dedup.

Stages run sequentially and deterministically: per-call RNG seeds derive
from the global seed plus the instance id, round, and operator, so a rerun
with the same configuration reproduces the dataset byte for byte. Each
stage checkpoints its output so an aborted run resumes by stage name.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import NamedTuple

from . import scheduler
from .cot import CotDiscard, CotRecord, synthesize_cot
from .dedup import dedup_schema_group, embed_questions
from .digests import sha256
from .errors import (
    ConfigError,
    RunFileError,
    SchemaValidationError,
    SqlgrowError,
    TransportError,
)
from .features import FEATURE_COLUMNS, FeatureVector, aggregate_features, extract_features
from .gateway import ROLES, HttpChatBackend, HttpEmbeddingBackend, LlmGateway
from .harness import ground, open_readonly, refine_until_valid
from .instances import (
    STAGE_EQE,
    STAGE_SEED,
    QueryInstance,
    oge_stage,
    read_jsonl,
    stage_rank,
    write_file,
    write_jsonl,
)
from .operators import OperatorId, analyze, check_applicability
from .parser import parse_sql
from .schema import DatabaseSchema, load_schema
from .sqlite import sqlite3

# The JSON values each field annotation admits, and how to name them.
# ``type(value) in`` these tuples keeps ``true``/``false`` out of integers.
_JSON_TYPES = {
    "str": ((str,), "a string"),
    "int": ((int,), "an integer"),
    "float": ((int, float), "a number"),
    "dict": ((dict,), "an object"),
    "dict | None": ((dict, type(None)), "an object or null"),
}


class RunConfig(NamedTuple):
    seeds: str = ""
    db_dir: str = ""
    out_dir: str = "out"
    rounds: int = 2
    budget_k: int = 2
    epsilon: float = 0.01
    p_target: dict | None = None
    tau: float = 0.9
    cot_n: int = 4
    expansions_per_seed: int = 1
    max_attempts: int = 3
    global_seed: int = 0
    backends: dict = {}  # never mutated, so every config may share the default
    embedder: dict | None = None

    def validate(self) -> None:
        for (name, spec), value in zip(self.__annotations__.items(), self):
            # NamedTuple keeps a string annotation as a ForwardRef
            types, wanted = _JSON_TYPES[getattr(spec, "__forward_arg__", spec)]
            if type(value) not in types:
                raise ConfigError(
                    f"{name} must be {wanted}, not {json.dumps(value, default=repr)}")
        if self.rounds < 0:
            raise ConfigError("rounds must be >= 0")
        if self.budget_k < 1:
            raise ConfigError("budget_k must be >= 1")
        if not 0.0 < self.tau <= 1.0:
            raise ConfigError("tau must lie in (0, 1]")
        if self.cot_n < 1:
            raise ConfigError("cot_n must be >= 1")
        if self.epsilon <= 0:
            raise ConfigError("epsilon must be positive")
        if self.expansions_per_seed < 1:
            raise ConfigError("expansions_per_seed must be >= 1")
        if self.max_attempts < 1:
            raise ConfigError("max_attempts must be >= 1")
        if self.p_target is not None:
            if not set(self.p_target) <= OperatorId.__members__.keys():
                raise ConfigError("p_target keys must be operator names: "
                                  + ", ".join(OperatorId.__members__))
            weights = list(self.p_target.values())
            if not all(type(w) in (int, float) and w >= 0 for w in weights) \
                    or abs(sum(weights) - 1.0) > 1e-9:
                raise ConfigError("p_target weights must be >= 0 and sum to 1")
        unknown = set(self.backends) - set(ROLES)
        if unknown:
            raise ConfigError(f"unknown backend roles {sorted(unknown)}; "
                              f"the roles are: {', '.join(ROLES)}")
        blocks = {f"backends.{role}": b for role, b in self.backends.items()}
        if self.embedder is not None:
            blocks["embedder"] = self.embedder
        for name, block in blocks.items():
            if not (isinstance(block, dict) and "endpoint" in block
                    and set(block) <= {"endpoint", "model", "api_key_env"}
                    and all(type(value) is str for value in block.values())):
                raise ConfigError(f"{name} must be an object with a string endpoint "
                                  "and no keys but a string model and api_key_env")

    def echo(self) -> dict:
        data = self._asdict()
        data.pop("out_dir")  # sink location, not a synthesis parameter
        # a model's endpoint and key variable say where it runs, not what it is
        data["backends"] = {role: {"model": b.get("model", "")}
                            for role, b in (self.backends or {}).items()}
        if self.embedder is not None:
            data["embedder"] = {"model": self.embedder.get("model", "")}
        return data

    @classmethod
    def from_file(cls, path, overrides: dict | None = None) -> "RunConfig":
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}")
        if not isinstance(data, dict):
            raise ConfigError(f"config {path} must hold a JSON object")
        unknown = set(data) - set(cls._fields)
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        merged = {**data, **{k: v for k, v in (overrides or {}).items() if v is not None}}
        cfg = cls(**merged)
        cfg.validate()
        return cfg


def derive_seed(global_seed: int, *parts) -> int:
    tag = ":".join([str(global_seed), *map(str, parts)])
    return int(sha256(tag.encode("utf-8")).hexdigest()[:12], 16)


class SchemaRepo:
    """Discovers database files and serves schemas plus read-only handles."""

    def __init__(self, db_dir):
        self.db_dir = Path(db_dir)
        if not self.db_dir.is_dir():
            raise ConfigError(f"database directory not found: {db_dir}")
        self._paths: dict[str, Path] = {}
        for pattern in ("*.db", "*.sqlite", "*/*.db", "*/*.sqlite"):
            for path in sorted(self.db_dir.glob(pattern)):
                self._paths.setdefault(path.stem, path)
        self._schemas: dict[str, DatabaseSchema] = {}
        self._conns: dict[str, sqlite3.Connection] = {}

    def ids(self) -> list[str]:
        return sorted(self._paths)

    def path(self, schema_id: str) -> Path:
        return self._paths[schema_id]

    def problem(self, schema_id: str) -> str:
        """Why ``schema_id`` cannot serve a seed or a row: "" when its schema
        loads, else "schema not found" or "schema invalid: <error>"."""
        if schema_id not in self._paths:
            return "schema not found"
        try:
            self.schema(schema_id)
        except (SchemaValidationError, OSError) as exc:
            return f"schema invalid: {exc}"
        return ""

    def schema(self, schema_id: str) -> DatabaseSchema:
        if schema_id not in self._schemas:
            self._schemas[schema_id] = load_schema(self._paths[schema_id])
        return self._schemas[schema_id]

    def connection(self, schema_id: str) -> sqlite3.Connection:
        if schema_id not in self._conns:
            self._conns[schema_id] = open_readonly(self._paths[schema_id])
        return self._conns[schema_id]

    def close(self) -> None:
        for conn in self._conns.values():
            conn.close()
        self._conns.clear()


def _backend_args(spec: dict) -> dict:
    """An ``{endpoint, model, api_key_env}`` config block as backend arguments."""
    return {"endpoint": spec["endpoint"], "model": spec.get("model", ""),
            "api_key": os.environ.get(spec.get("api_key_env", ""), "")}


def build_gateway(cfg: RunConfig) -> LlmGateway:
    backends = {role: HttpChatBackend(**_backend_args(spec))
                for role, spec in (cfg.backends or {}).items()}
    return LlmGateway(backends=backends)


def build_embedder(cfg: RunConfig) -> HttpEmbeddingBackend | None:
    return HttpEmbeddingBackend(**_backend_args(cfg.embedder)) if cfg.embedder else None


# ---------------------------------------------------------------------------
# Stage: ingest
# ---------------------------------------------------------------------------

_SQL_KEYS = ("SQL", "sql", "query", "gold_sql")


def ingest_seeds(path, repo: SchemaRepo):
    """Check each record's fields and its database, then admit its SQL through
    ``harness.ground`` (SQLite's error before a static reason); failures are
    quarantined, so a database that does not load costs only its own seeds.

    A kept seed's tree lives only until its features are measured; the
    expansion stage parses the seed's SQL again.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            records = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise IOError(f"cannot read seed file {path}: {exc}")
    if not isinstance(records, list):
        raise IOError(f"seed file {path} must hold a JSON array")

    seeds: list[QueryInstance] = []
    quarantined: list[dict] = []
    for i, record in enumerate(records):
        fields = record if isinstance(record, dict) else {}
        sql = next((fields[k] for k in _SQL_KEYS if fields.get(k)), "")
        question = fields.get("question") or ""
        schema_id = fields.get("db_id") or fields.get("schema_id") or ""
        evidence = fields.get("evidence") or ""
        if not isinstance(record, dict):
            reason = "record is not a JSON object"
        elif not all(isinstance(v, str) for v in (question, sql, schema_id, evidence)):
            reason = "question, SQL, db_id and evidence must be strings"
        elif not question or not sql:
            reason = "missing question or SQL"
        else:
            reason = repo.problem(schema_id)
            if not reason:
                outcome = ground(sql, repo.schema(schema_id), repo.connection(schema_id))
                reason = outcome.reason
        if reason:
            quarantined.append({"index": i, "question": question,
                                "schema_id": schema_id, "reason": reason})
            continue
        seeds.append(QueryInstance(
            id=f"seed-{i:04d}",
            schema_id=schema_id,
            question=question,
            evidence=evidence,
            sql=sql,
            stage=STAGE_SEED,
            features=extract_features(outcome.tree, sql, outcome.tokens),
        ))
    return seeds, quarantined


# ---------------------------------------------------------------------------
# Stages that grow candidates: exploratory expansion and evolution rounds
# ---------------------------------------------------------------------------

def _parent(inst, stage, repo, rejections):
    """A parent's (connection, analysis), or None once it is rejected.

    The tree analysed is a parse of the parent's SQL, the same in a fresh,
    resumed or staged run; it lives only while the parent is evolved. SQL
    that does not parse is one rejection and no model call.
    """
    schema = repo.schema(inst.schema_id)
    conn = repo.connection(inst.schema_id)
    try:
        tree = parse_sql(inst.sql)
    except SqlgrowError as exc:
        rejections.append({"stage": stage, "parent": inst.id,
                           "reason": f"unparseable input: {exc}"})
        return None
    return conn, analyze(tree, schema)


def _grow(parent, child_id, stage, op, generate, cfg, schema, conn, gateway,
          rejections):
    """The grounded child that ``generate()`` proposes, or None once rejected.

    A failed refinement, a transport failure (the gateway has already spent
    its retries on it) or any other package error becomes one rejection
    record; it carries ``operator`` only when ``op`` is given (evolution
    rounds). The grounded tree is kept only until the child's features
    are measured.
    """
    try:
        result = generate()
        outcome = refine_until_valid(
            result.question, result.sql, schema, conn,
            refiner=lambda q, s, sc, fb: gateway.refine_sql(q, s, sc, fb, db=conn),
            max_attempts=cfg.max_attempts,
        )
        reason = None if outcome.accepted else outcome.reason
    except TransportError as exc:
        reason = f"transport: {exc}"
    except SqlgrowError as exc:
        reason = str(exc)
    if reason is not None:
        record = {"stage": stage, "parent": parent.id, "reason": reason}
        if op is not None:
            record["operator"] = op.name
        rejections.append(record)
        return None
    return QueryInstance(
        id=child_id,
        schema_id=parent.schema_id,
        question=result.question,
        evidence=result.evidence,
        sql=outcome.sql,
        stage=stage,
        parent_id=parent.id,
        operator_applied=op,
        features=extract_features(outcome.tree, outcome.sql, outcome.tokens),
    )


def run_eqe(seeds, cfg: RunConfig, repo: SchemaRepo, gateway: LlmGateway,
            rejections: list):
    """Exploratory expansion of each seed; returns the accepted expansions.

    Each seed is parsed from its SQL when it is expanded; a seed whose SQL
    does not parse is one rejection and no model call.
    """
    accepted: list[QueryInstance] = []
    for seed_inst in seeds:
        parent = _parent(seed_inst, STAGE_EQE, repo, rejections)
        if parent is None:
            continue
        conn, analysis = parent
        for j in range(cfg.expansions_per_seed):
            call_seed = derive_seed(cfg.global_seed, seed_inst.id, "eqe", j)
            child = _grow(
                seed_inst, f"{seed_inst.id}/e{j}", STAGE_EQE, None,
                lambda: gateway.generate_expansion(
                    seed_inst.question, seed_inst.evidence, seed_inst.sql,
                    conn, call_seed, analysis=analysis),
                cfg, analysis.schema, conn, gateway, rejections,
            )
            if child is not None:
                accepted.append(child)
    return accepted


def run_oge(current, cfg: RunConfig, repo: SchemaRepo, gateway: LlmGateway,
            state: scheduler.EvolutionState, round_no: int, rejections: list):
    """One evolution round from ``state``; returns the newly evolved instances.

    Each parent is parsed from its SQL, then resolved and annotated once:
    the six applicability checks and the mock evolution's plan share one
    ``operators.analyze`` result. A parent whose SQL does not parse is one
    rejection and no model call. Each accepted child is counted in
    ``state`` for the rest of the round.
    """
    evolved: list[QueryInstance] = []
    stage = oge_stage(round_no)

    for inst in current:
        parent = _parent(inst, stage, repo, rejections)
        if parent is None:
            continue
        conn, analysis = parent
        rule_scores = {op: check_applicability(analysis, op) for op in OperatorId}
        feas = dict(rule_scores)
        try:
            llm_scores = gateway.score_feasibility_llm(inst.question, inst.sql,
                                                       analysis.schema)
        except SqlgrowError:
            llm_scores = {}
        for op, score in llm_scores.items():
            feas[op] = score if rule_scores[op] > 0 else 0.0

        utilities = {
            op: scheduler.utility(feas[op], scheduler.scarcity_weight(state, op))
            for op in OperatorId
        }
        chosen = scheduler.select_top_k(utilities, cfg.budget_k)

        for op in chosen:
            call_seed = derive_seed(cfg.global_seed, inst.id, round_no, op.name)
            child = _grow(
                inst, f"{inst.id}/{op.name.lower()}{round_no}", stage, op,
                lambda: gateway.generate_evolution(
                    inst.question, inst.evidence, inst.sql, op, conn, call_seed,
                    analysis=analysis),
                cfg, analysis.schema, conn, gateway, rejections,
            )
            if child is not None:
                evolved.append(child)
                state = scheduler.record_acceptance(state, op)
    return evolved


# ---------------------------------------------------------------------------
# Full run
# ---------------------------------------------------------------------------

def run_full(cfg: RunConfig, resume: bool = False, stop_after: str | None = None):
    """Execute the whole pipeline and write dataset, manifest, and reports.

    Each stage is checkpointed under ``out_dir/checkpoints`` and marked in
    ``done.json``; a resumed run reuses the stages marked there. A round
    that is grown recounts the scheduler state from the children of the
    rounds before it, read or grown alike. With
    ``stop_after`` ("ingest", "eqe" or "oge", all rounds) the run ends once
    that stage is checkpointed and returns None; a resume finishes it.

    Stages hand on instances, not trees: each stage parses its parents'
    SQL when it evolves them, so a fresh, resumed or staged run builds a
    parent's tree the same way and no round's trees are held.
    """
    if stop_after not in (None, "ingest", "eqe", "oge"):
        raise ValueError(f"unknown stage to stop after: {stop_after}")
    cfg.validate()
    for name, what in (("seeds", "seed file"), ("db_dir", "database directory")):
        if not getattr(cfg, name):  # Path("") is the current directory
            raise ConfigError(f"{name} must name the {what}")
    out_dir = Path(cfg.out_dir)
    ckpt_dir = out_dir / "checkpoints"
    repo = SchemaRepo(cfg.db_dir)
    gateway = build_gateway(cfg)
    rejections: list[dict] = []

    try:
        done = _start_done(ckpt_dir, cfg, resume, _inputs_sha256(cfg.seeds, repo))

        # ingest
        if "ingest" in done:
            seeds = read_jsonl(ckpt_dir / "seeds.jsonl")
            quarantined = _read_json(ckpt_dir / "quarantine.json", kind=list)
        else:
            seeds, quarantined = ingest_seeds(cfg.seeds, repo)
            write_jsonl(seeds, ckpt_dir / "seeds.jsonl", compact=True)
            write_file(ckpt_dir / "quarantine.json",
                       [json.dumps(quarantined, sort_keys=True, indent=2)])
            _mark_done(ckpt_dir, done, "ingest")
        if stop_after == "ingest":
            return None

        # exploratory expansion
        eqe = _checkpointed(ckpt_dir, done, "eqe", lambda: run_eqe(
            seeds, cfg, repo, gateway, rejections))
        if stop_after == "eqe":
            return None

        # evolution rounds
        p_target = ({op: cfg.p_target.get(op.name, 0.0) for op in OperatorId}
                    if cfg.p_target else None)
        current, evolved = eqe, []
        for round_no in range(1, cfg.rounds + 1):
            current = _checkpointed(ckpt_dir, done, f"oge-{round_no}", lambda: run_oge(
                current, cfg, repo, gateway,
                _recount(scheduler.fresh_state(cfg.epsilon, p_target), evolved),
                round_no, rejections))
            evolved.extend(current)
        if stop_after == "oge":
            return None

        # chain-of-thought verification and dedup, the last filters
        dataset, removals, cot_counts = verify_and_dedup(
            seeds + eqe + evolved, cfg, repo, gateway)
        write_jsonl(dataset, out_dir / "dataset.jsonl")
        write_file(out_dir / "dedup_removals.jsonl", (
            json.dumps(record._asdict(), sort_keys=True) + "\n" for record in removals))
        write_file(out_dir / "rejections.jsonl", (
            json.dumps(item, sort_keys=True) + "\n"
            for item in [{"stage": "ingest", **q} for q in quarantined] + rejections))

        means = _stage_means(dataset)
        manifest = _build_manifest(
            cfg, seeds, eqe, evolved, dataset, quarantined, rejections,
            removals, cot_counts, means,
        )
        write_file(out_dir / "manifest.json",
                   [json.dumps(manifest, sort_keys=True, indent=2) + "\n"])

        report_text, report_csv = _report(dataset, manifest, means)
        write_file(out_dir / "feature_report.txt", [report_text])
        write_file(out_dir / "feature_report.csv", [report_csv])
        _mark_done(ckpt_dir, done, "final")
        return manifest
    finally:
        repo.close()


def _checkpointed(ckpt_dir: Path, done: dict, stage: str, grow):
    """The instances of ``stage``: its checkpoint when ``done`` marks it, else
    ``grow()``, written to ``<stage>.jsonl`` and marked done."""
    path = ckpt_dir / f"{stage}.jsonl"
    if stage in done:
        return read_jsonl(path)
    instances = grow()
    write_jsonl(instances, path, compact=True)
    _mark_done(ckpt_dir, done, stage)
    return instances


def _recount(state: scheduler.EvolutionState, evolved) -> scheduler.EvolutionState:
    """``state`` after the acceptance of every child in ``evolved``."""
    for inst in evolved:
        state = scheduler.record_acceptance(state, inst.operator_applied)
    return state


def verify_and_dedup(pool, cfg: RunConfig, repo: SchemaRepo, gateway: LlmGateway):
    """CoT verification and dedup in one scan per schema group; returns
    (kept, removal records, cot counts), the kept instances in dataset order.

    Each group, in schema order, embeds its questions, then
    ``dedup_schema_group`` scans it in lineage order: ``synthesize_cot``
    verifies every instance, and one it keeps is kept, "cot-kept" with its
    trace, unless a kept instance is above ``tau`` to it.
    """
    embedder = build_embedder(cfg)
    cot_counts = {"kept": 0, "discarded": 0, "deferred": 0}

    def verdict(inst):
        outcome = synthesize_cot(inst, repo.connection(inst.schema_id), gateway,
                                 repo.schema(inst.schema_id), n=cfg.cot_n)
        if isinstance(outcome, CotRecord):
            cot_counts["kept"] += 1
            return inst._replace(status="cot-kept", cot=outcome.trace)
        cot_counts["discarded" if isinstance(outcome, CotDiscard) else "deferred"] += 1
        return None

    kept_all, removals = [], []
    by_schema: dict[str, list[QueryInstance]] = {}
    for inst in pool:
        by_schema.setdefault(inst.schema_id, []).append(inst)
    for schema_id in sorted(by_schema):
        group = by_schema[schema_id]
        # no name holds the vectors, so they are freed before the next group's
        kept, removed = dedup_schema_group(
            group, embed_questions([i.question for i in group], embedder), cfg.tau, verdict)
        kept_all.extend(kept)
        removals.extend(removed)
    return kept_all, removals, cot_counts


def _build_manifest(cfg, seeds, eqe, evolved, dataset, quarantined, rejections,
                    removals, cot_counts, means) -> dict:
    stage_counts: dict[str, int] = {}
    for inst in dataset:
        stage_counts[inst.stage] = stage_counts.get(inst.stage, 0) + 1
    histogram = {op.name: 0 for op in OperatorId}
    for inst in evolved:
        histogram[inst.operator_applied.name] += 1
    rejection_counts: dict[str, int] = {}
    for item in rejections:
        rejection_counts[item["stage"]] = rejection_counts.get(item["stage"], 0) + 1

    return {
        "config": cfg.echo(),
        "global_seed": cfg.global_seed,
        "counts": {
            "seeds": len(seeds),
            "eqe": len(eqe),
            "evolved": len(evolved),
            "final": len(dataset),
        },
        "stages": stage_counts,
        "operator_histogram": histogram,
        "rejections": rejection_counts,
        "quarantined_seeds": len(quarantined),
        "cot": cot_counts,
        "dedup": {
            "removed": len(removals),
            # tau calibrates differently on the lexical fallback
            "embedding_source": "external-embedder" if cfg.embedder else "lexical-fallback",
        },
        "feature_report": {stage: m._asdict() for stage, m in means.items()},
    }


def _config_sha256(cfg: RunConfig) -> str:
    """The hash of the config echo, input locations left out."""
    echo = cfg.echo()
    del echo["seeds"], echo["db_dir"]
    return sha256(json.dumps(echo, sort_keys=True).encode("utf-8")).hexdigest()


def _file_sha256(path) -> str:
    digest = sha256()
    with open(path, "rb") as handle:
        # 64 KiB stays below glibc's mmap threshold; freeing a 1 MiB block
        # raises that threshold and the run's peak RSS with it
        for block in iter(lambda: handle.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def _inputs_sha256(seeds, repo: SchemaRepo) -> str:
    """One hash over the contents of the seed file and of every database file.

    The databases come in schema-name order, each under its name, so moving
    the inputs keeps the hash and renaming or editing one changes it.
    """
    try:
        lines = [f"seeds {_file_sha256(seeds)}"]
    except OSError as exc:
        raise IOError(f"cannot read seed file {seeds}: {exc}")
    lines += [f"{schema_id} {_file_sha256(repo.path(schema_id))}"
              for schema_id in repo.ids()]
    return sha256("\n".join(lines).encode("utf-8")).hexdigest()


def _start_done(ckpt_dir: Path, cfg: RunConfig, resume: bool,
                inputs_sha256: str) -> dict:
    """The finished stages to reuse, keyed by name, and the run's two hashes.

    A fresh run starts ``done.json`` afresh. A resumed run reuses it only
    when it was written under the same config and from the same inputs.
    """
    path = ckpt_dir / "done.json"
    hashes = {"config_sha256": _config_sha256(cfg), "inputs_sha256": inputs_sha256}
    if not resume:
        _write_done(ckpt_dir, hashes)
        return hashes
    if not path.is_file():
        raise ConfigError(f"cannot resume: there are no checkpoints to resume "
                          f"in {ckpt_dir}")
    done = _read_json(path, kind=dict)
    if done.get("config_sha256") != hashes["config_sha256"]:
        raise ConfigError(f"cannot resume: the checkpoints in {ckpt_dir} were "
                          "not written under this config")
    if done.get("inputs_sha256") != inputs_sha256:
        raise ConfigError(f"cannot resume: the checkpoints in {ckpt_dir} were "
                          "written from another seed file or other databases")
    return done


def _read_json(path: Path, kind=object):
    """The value of a JSON file a run wrote, which must be a ``kind``.

    A file that cannot be read or parsed, or holds something else, raises
    ``RunFileError`` naming it, so a corrupt checkpoint or manifest ends the
    command with one line.
    """
    try:
        data = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise RunFileError(f"cannot read {path}: {exc}") from None
    if not isinstance(data, kind):
        raise RunFileError(f"cannot read {path}: expected a {kind.__name__}, "
                           f"found a {type(data).__name__}")
    return data


def _mark_done(ckpt_dir: Path, done: dict, stage: str) -> None:
    done[stage] = True
    _write_done(ckpt_dir, done)


def _write_done(ckpt_dir: Path, done: dict) -> None:
    write_file(ckpt_dir / "done.json", [json.dumps(done, sort_keys=True, indent=2)])


# ---------------------------------------------------------------------------
# Reporting and verification
# ---------------------------------------------------------------------------

def stats_report(dataset_path) -> tuple[str, str]:
    """The report of a dataset file and of the manifest beside it, if any."""
    try:
        instances = read_jsonl(dataset_path)
    except OSError as exc:
        raise IOError(f"cannot read dataset {dataset_path}: {exc}")
    manifest_path = Path(dataset_path).parent / "manifest.json"
    manifest = _read_json(manifest_path, kind=dict) if manifest_path.is_file() else None
    return _report(instances, manifest, _stage_means(instances))


def _stage_means(instances) -> dict:
    """Each stage's feature means, in lineage order; missing features are measured."""
    by_stage: dict[str, list[FeatureVector]] = {}
    for inst in instances:
        features = inst.features or extract_features(parse_sql(inst.sql))
        by_stage.setdefault(inst.stage, []).append(features)
    return {stage: aggregate_features(by_stage[stage])
            for stage in sorted(by_stage, key=stage_rank)}


def _report(instances, manifest: dict | None, means) -> tuple[str, str]:
    """Per-stage feature ``means`` plus operator and status summaries.

    The text and CSV forms; the dedup and rejection lines come from the
    run's manifest and are left out without one.
    """
    histogram: dict[str, int] = {}
    status_counts: dict[str, int] = {}
    for inst in instances:
        if inst.operator_applied:
            histogram[inst.operator_applied.name] = (
                histogram.get(inst.operator_applied.name, 0) + 1
            )
        status_counts[inst.status] = status_counts.get(inst.status, 0) + 1

    headers = [label for _, label in FEATURE_COLUMNS]
    rows = [[stage] + [f"{getattr(m, name):.2f}" for name, _ in FEATURE_COLUMNS]
            for stage, m in means.items()]

    widths = [max(len(r[i]) for r in rows + [["Stage"] + headers])
              for i in range(len(headers) + 1)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(["Stage"] + headers, widths))]
    for row in rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    lines.append("")
    lines.append("Instances per operator: " + (
        ", ".join(f"{k}={v}" for k, v in sorted(histogram.items())) or "none"))
    lines.append("Status counts: " + ", ".join(
        f"{k}={v}" for k, v in sorted(status_counts.items())))
    if manifest is not None:
        dedup_info = manifest.get("dedup", {})
        lines.append(
            f"Dedup removed: {dedup_info.get('removed', 0)} "
            f"(embeddings: {dedup_info.get('embedding_source', 'unknown')})"
        )
        rejections = manifest.get("rejections", {})
        lines.append("Rejections per stage: " + (
            ", ".join(f"{k}={v}" for k, v in sorted(rejections.items())) or "none"))
    text = "\n".join(lines) + "\n"

    csv_lines = ["stage," + ",".join(headers)]
    for row in rows:
        csv_lines.append(",".join(row))
    return text, "\n".join(csv_lines) + "\n"


def verify_dataset(dataset_path, repo: SchemaRepo) -> dict:
    """Ground every row through ``harness.ground``, the pipeline's own gate
    (SQLite's error before a static reason); the dataset must pass 100%.

    Each row's recorded features must also equal those derived from the
    grounded tree on the reference path, ``extract_features(tree)``, which
    lexes the canonical rendering. A failing row is listed once, with its
    first problem.
    """
    instances = read_jsonl(dataset_path)
    failures = []
    for inst in instances:
        reason = repo.problem(inst.schema_id)
        if not reason:
            outcome = ground(inst.sql, repo.schema(inst.schema_id), repo.connection(inst.schema_id))
            reason = outcome.reason
        if not reason and inst.features is not None:
            reason = _features_problem(inst, outcome.tree)
        if reason:
            failures.append({"id": inst.id, "reason": reason})
    return {"total": len(instances), "failures": failures}


def _features_problem(inst, tree) -> str:
    """Which recorded features differ from those derived from the row's tree."""
    pairs = zip(FeatureVector._fields, inst.features, extract_features(tree))
    differ = [f"{name} {got:g}, derived {want:g}" for name, got, want in pairs if got != want]
    return "features differ: " + "; ".join(differ) if differ else ""
