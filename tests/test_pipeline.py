import errno
import hashlib
import json
import re
import shutil
from pathlib import Path

import pytest

import fixtures
from sqlgrow.errors import ConfigError, ResponseFormatError, TransportError
from sqlgrow.features import aggregate_features
from sqlgrow.gateway import ExpansionResult, LlmGateway
from sqlgrow.instances import QueryInstance, read_jsonl
from sqlgrow.operators import OperatorId
from sqlgrow.parser import parse_sql
from sqlgrow.pipeline import (
    RunConfig,
    SchemaRepo,
    derive_seed,
    ingest_seeds,
    run_cot,
    run_eqe,
    run_full,
    run_oge,
    stats_report,
    verify_dataset,
)
from sqlgrow import harness, instances, pipeline, scheduler


@pytest.fixture()
def repo(db_dir):
    r = SchemaRepo(db_dir)
    yield r
    r.close()


@pytest.fixture()
def mini_seed_file(tmp_path):
    records = [
        {"question": q, "evidence": "", "SQL": sql, "db_id": "olympics"}
        for q, sql in fixtures.SEED_QUESTIONS["olympics"][:4]
    ]
    path = tmp_path / "mini_seeds.json"
    path.write_text(json.dumps(records))
    return path


def test_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(rounds=-1).validate()
    with pytest.raises(ConfigError):
        RunConfig(tau=0.0).validate()
    with pytest.raises(ConfigError):
        RunConfig(budget_k=0).validate()
    RunConfig().validate()


def test_config_file_round_trip(tmp_path, db_dir):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"rounds": 1, "tau": 0.8, "db_dir": str(db_dir)}))
    cfg = RunConfig.from_file(path, {"rounds": 2})
    assert cfg.rounds == 2  # flag override wins
    assert cfg.tau == 0.8
    with pytest.raises(ConfigError):
        RunConfig.from_file(path.with_name("missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"not_a_field": 1}))
    with pytest.raises(ConfigError):
        RunConfig.from_file(bad)


@pytest.mark.parametrize("text", ["5", "[1, 2]", '"rounds"', "null"])
def test_config_file_must_hold_an_object(tmp_path, text):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    with pytest.raises(ConfigError, match="must hold a JSON object"):
        RunConfig.from_file(path)


@pytest.mark.parametrize("field, value", [
    ("rounds", "2"), ("tau", None), ("rounds", True), ("epsilon", False),
    ("seeds", 3), ("backends", None),
])
def test_config_file_values_must_have_their_json_type(tmp_path, field, value):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({field: value}))
    with pytest.raises(ConfigError, match=f"^{field} must be "):
        RunConfig.from_file(path)


def test_config_numbers_may_be_written_as_integers(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"tau": 1, "epsilon": 2}))
    assert RunConfig.from_file(path).tau == 1


def test_p_target_validation():
    RunConfig(p_target={"FUNC": 0.75, "JOIN": 0.25}).validate()
    for p_target in ({"FUNC": "1"}, {"FUNC": True}, ["FUNC"]):
        with pytest.raises(ConfigError, match="p_target"):
            RunConfig(p_target=p_target).validate()


def test_readme_config_example_loads(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    example = re.search(r"Example `run.json`:\s*```json\n(.*?)```", readme, re.DOTALL)
    path = tmp_path / "run.json"
    path.write_text(example.group(1))
    cfg = RunConfig.from_file(path)
    assert cfg.rounds == 2 and set(cfg.backends) == {"evolve"}


@pytest.mark.parametrize("field", ["timeout_ms", "max_rows", "dedup_before_cot"])
def test_removed_execution_limit_fields_are_unknown(tmp_path, field):
    path = tmp_path / "old.json"
    path.write_text(json.dumps({"rounds": 1, field: 1000}))
    with pytest.raises(ConfigError, match=f"unknown config fields: \\['{field}'\\]"):
        RunConfig.from_file(path)


def test_derive_seed_stable():
    assert derive_seed(0, "a", 1, "FUNC") == derive_seed(0, "a", 1, "FUNC")
    assert derive_seed(0, "a", 1, "FUNC") != derive_seed(1, "a", 1, "FUNC")


def test_ingest_happy_path(repo, mini_seed_file):
    seeds, quarantined = ingest_seeds(mini_seed_file, repo)
    assert len(seeds) == 4
    assert quarantined == []
    assert all(s.stage == "seed" for s in seeds)
    assert all(s.features is not None for s in seeds)


@pytest.fixture()
def parsed(monkeypatch):
    """Every text that grounding or the pipeline parses, in call order."""
    texts = []

    def counting(text):
        texts.append(text)
        return parse_sql(text)

    for module in (harness, pipeline):
        monkeypatch.setattr(module, "parse_sql", counting)
    return texts


def test_ingest_parses_each_accepted_seed_once(repo, mini_seed_file, parsed):
    seeds, _ = ingest_seeds(mini_seed_file, repo)
    assert len(seeds) == 4
    assert parsed == [s.sql for s in seeds]


def test_run_eqe_parses_each_accepted_candidate_once(repo, mini_seed_file, parsed):
    seeds, _ = ingest_seeds(mini_seed_file, repo)
    parsed.clear()
    accepted = run_eqe(seeds, RunConfig(global_seed=3), repo, LlmGateway())
    assert accepted
    for child in accepted:
        assert parsed.count(child.sql) == 1


def test_ingest_quarantines_bad_records(repo, tmp_path):
    records = [
        {"question": "ok", "SQL": "SELECT full_name FROM person", "db_id": "olympics"},
        {"question": "bad sql", "SQL": "SELECT broken FROM nowhere", "db_id": "olympics"},
        {"question": "unknown db", "SQL": "SELECT 1", "db_id": "atlantis"},
        {"question": "empty result", "SQL": "SELECT full_name FROM person WHERE weight < 0", "db_id": "olympics"},
    ]
    path = tmp_path / "seeds.json"
    path.write_text(json.dumps(records))
    seeds, quarantined = ingest_seeds(path, repo)
    assert len(seeds) == 1
    reasons = {q["question"]: q["reason"] for q in quarantined}
    assert "unresolved columns" in reasons["bad sql"]
    assert reasons["unknown db"] == "schema not found"
    assert reasons["empty result"] == "empty result"


@pytest.mark.parametrize("record,reason", [
    (["Who?", "SELECT full_name FROM person"], "record is not a JSON object"),
    ("Who?", "record is not a JSON object"),
    ({"question": "Who?", "SQL": 5, "db_id": "olympics"}, "must be strings"),
    ({"question": "Who?", "SQL": "SELECT full_name FROM person",
      "db_id": ["olympics"]}, "must be strings"),
    ({"question": ["Who?"], "SQL": "SELECT full_name FROM person",
      "db_id": "olympics"}, "must be strings"),
    ({"question": "Who?", "SQL": "SELECT full_name FROM person",
      "db_id": "olympics", "evidence": {"note": 1}}, "must be strings"),
])
def test_ingest_quarantines_malformed_records(repo, tmp_path, record, reason):
    good = {"question": "ok", "SQL": "SELECT full_name FROM person", "db_id": "olympics"}
    path = tmp_path / "seeds.json"
    path.write_text(json.dumps([record, good]))
    seeds, quarantined = ingest_seeds(path, repo)
    assert [s.question for s in seeds] == ["ok"]
    assert len(quarantined) == 1 and quarantined[0]["index"] == 0
    assert reason in quarantined[0]["reason"]


def test_ingest_unreadable_file_is_io_error(repo, tmp_path):
    with pytest.raises(IOError):
        ingest_seeds(tmp_path / "missing.json", repo)


def test_run_eqe_lineage_and_acceptance(repo, mini_seed_file, connections):
    cfg = RunConfig(global_seed=3)
    seeds, _ = ingest_seeds(mini_seed_file, repo)
    gateway = LlmGateway()
    accepted = run_eqe(seeds, cfg, repo, gateway)
    assert accepted, "mock expansion should mostly be accepted"
    for inst in accepted:
        assert inst.stage == "EQE"
        assert inst.parent_id in {s.id for s in seeds}
        fb = connections["olympics"].execute(inst.sql).fetchall()
        assert len(fb) >= 1


def test_run_oge_budget_and_lineage(repo, mini_seed_file, monkeypatch):
    cfg = RunConfig(global_seed=3, budget_k=2)
    seeds, _ = ingest_seeds(mini_seed_file, repo)
    gateway = LlmGateway()
    recorded = []
    record = scheduler.record_acceptance
    monkeypatch.setattr(scheduler, "record_acceptance",
                        lambda state, op: recorded.append(op) or record(state, op))
    evolved = run_oge(seeds, cfg, repo, gateway, scheduler.fresh_state(cfg.epsilon), 1)
    assert len(evolved) <= cfg.budget_k * len(seeds)
    # the round's state counts each accepted child as it is accepted
    assert recorded == [child.operator_applied for child in evolved]
    parents = {s.id for s in seeds}
    for child in evolved:
        assert child.stage == "OGE-1"
        assert child.parent_id in parents
        assert child.operator_applied is not None


def test_stage_and_status_invariants():
    with pytest.raises(Exception):
        QueryInstance(id="x", schema_id="s", question="q", evidence="",
                      sql="SELECT 1", stage="seed", parent_id="nope")
    with pytest.raises(Exception):
        QueryInstance(id="x", schema_id="s", question="q", evidence="",
                      sql="SELECT 1", stage="OGE-1")  # missing operator
    with pytest.raises(Exception):
        QueryInstance(id="x", schema_id="s", question="q", evidence="",
                      sql="SELECT 1", stage="seed",
                      operator_applied=OperatorId.FUNC)
    inst = QueryInstance(id="x", schema_id="s", question="q", evidence="",
                         sql="SELECT 1", stage="seed")
    kept = inst.with_status("cot-kept")
    with pytest.raises(Exception):
        kept.with_status("active")


def run_mini_full(tmp_path, db_dir, seed_path, name, rounds=1):
    cfg = RunConfig(
        seeds=str(seed_path), db_dir=str(db_dir),
        out_dir=str(tmp_path / name), rounds=rounds, global_seed=11,
    )
    manifest = run_full(cfg)
    return cfg, manifest


def test_run_full_mini(tmp_path, db_dir, mini_seed_file):
    cfg, manifest = run_mini_full(tmp_path, db_dir, mini_seed_file, "runA")
    out = tmp_path / "runA"
    dataset = read_jsonl(out / "dataset.jsonl")
    assert manifest["counts"]["final"] == len(dataset)
    assert all(inst.status == "cot-kept" for inst in dataset)
    assert all(inst.cot for inst in dataset)

    # lineage closure: every parent resolves and chains end at seeds
    by_id = {i.id: i for i in dataset}
    all_ids = set(by_id)
    for inst in dataset:
        node = inst
        hops = 0
        while node.parent_id is not None:
            assert node.parent_id in all_ids
            node = by_id[node.parent_id]
            hops += 1
            assert hops < 10
        assert node.stage == "seed"

    repo = SchemaRepo(db_dir)
    try:
        summary = verify_dataset(out / "dataset.jsonl", repo)
    finally:
        repo.close()
    assert summary["failures"] == []
    assert list(out.rglob("*.tmp")) == []


# sha256 of two outputs of a rounds=1 fixture run: a change anywhere in the
# pipeline that alters the data it writes shows here
REFERENCE_OUTPUT = {
    "dataset.jsonl": "856e51d7ad7e4e4c3aec5399d79fb61dfde42c3c3153be874aa2d73dae8c512e",
    "dedup_removals.jsonl": "bec3adc5e210cb4de1f08508c25e88bfcae975909a167f648375835d57e017cd",
}


def test_a_fixture_run_reproduces_its_reference_output(tmp_path, db_dir, seed_file):
    run_full(RunConfig(seeds=str(seed_file), db_dir=str(db_dir), out_dir=str(tmp_path),
                       rounds=1, expansions_per_seed=2, global_seed=42))
    assert len(read_jsonl(tmp_path / "dataset.jsonl")) == 260
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in REFERENCE_OUTPUT}
    assert digests == REFERENCE_OUTPUT


def test_run_full_rounds_zero(tmp_path, db_dir, mini_seed_file):
    cfg, manifest = run_mini_full(tmp_path, db_dir, mini_seed_file, "runT0", rounds=0)
    stages = set(manifest["stages"])
    assert stages <= {"seed", "EQE"}
    assert manifest["counts"]["evolved"] == 0


def test_operators_left_out_of_p_target_are_never_chosen(tmp_path, db_dir, mini_seed_file):
    manifest = run_full(RunConfig(seeds=str(mini_seed_file), db_dir=str(db_dir),
                                  out_dir=str(tmp_path / "out"), p_target={"FUNC": 1.0}))
    assert manifest["counts"]["evolved"] > 0
    assert {k for k, v in manifest["operator_histogram"].items() if v} == {"FUNC"}


def test_run_full_resume_reuses_checkpoints(tmp_path, db_dir, mini_seed_file):
    cfg, manifest = run_mini_full(tmp_path, db_dir, mini_seed_file, "runR")
    again = run_full(cfg, resume=True)
    assert again == manifest


def test_resume_between_rounds_reproduces_the_run(tmp_path, db_dir, mini_seed_file):
    # round 2 grown on resume must start from round 1's accepted operators
    cfg, _ = run_mini_full(tmp_path, db_dir, mini_seed_file, "runB", rounds=2)
    out = tmp_path / "runB"
    fresh = {name: (out / name).read_bytes()
             for name in ("checkpoints/oge-2.jsonl", "dataset.jsonl")}
    done_path = out / "checkpoints" / "done.json"
    done = json.loads(done_path.read_text())
    del done["oge-2"], done["final"]
    done_path.write_text(json.dumps(done))
    for name in fresh:
        (out / name).unlink()
    run_full(cfg, resume=True)
    for name, data in fresh.items():
        assert (out / name).read_bytes() == data, name


OUTPUTS = ("dataset.jsonl", "dedup_removals.jsonl", "rejections.jsonl", "manifest.json",
           "feature_report.txt", "feature_report.csv")


# every file a fresh rounds=1 run writes, in the order it writes them
WRITES = ("done.json", "seeds.jsonl", "quarantine.json", "done.json", "eqe.jsonl",
          "done.json", "oge-1.jsonl", "done.json", "dataset.jsonl", "dedup_removals.jsonl",
          "rejections.jsonl", "manifest.json", "feature_report.txt", "feature_report.csv",
          "done.json")


class FullDisk:
    """A file opened for writing on a full disk: half the data lands, then ENOSPC."""

    def __init__(self, handle):
        self.handle = handle

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.handle.close()

    def write(self, data):
        self.handle.write(data[:len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")

    def writelines(self, lines):
        self.write("".join(lines))


# the k-th write of a fresh rounds=1 run over a finished one fails, and the
# stages done.json marks once it has
@pytest.mark.parametrize("k, marked", [
    pytest.param(k, marked, id=f"{k}-{WRITES[k - 1]}") for k, marked in enumerate(
        [{"ingest", "eqe", "oge-1", "final"}] + [set()] * 3 + [{"ingest"}] * 2
        + [{"ingest", "eqe"}] * 2 + [{"ingest", "eqe", "oge-1"}] * 7, 1)])
def test_a_failed_write_leaves_every_file_whole(
        tmp_path, db_dir, mini_seed_file, monkeypatch, k, marked):
    cfg, _ = run_mini_full(tmp_path, db_dir, mini_seed_file, "runW")
    out = tmp_path / "runW"
    before = {path: path.read_bytes() for path in out.rglob("*") if path.is_file()}
    fault = (WRITES[k - 1], WRITES[:k].count(WRITES[k - 1]))
    opened = []

    def open_on_a_full_disk(file, mode="r", *args, **kwargs):
        handle = open(file, mode, *args, **kwargs)
        if "w" not in mode:
            return handle
        name = Path(file).name.removesuffix(".tmp")
        opened.append(name)
        return FullDisk(handle) if (name, opened.count(name)) == fault else handle

    with monkeypatch.context() as patch:
        patch.setattr(instances, "open", open_on_a_full_disk, raising=False)
        with pytest.raises(OSError):
            run_full(cfg)
    # every file is whole: done.json holds the stages its last whole write
    # marked, and each other file its old bytes, which a fresh run rewrites
    fresh = {name: before[out / name] for name in OUTPUTS}
    done_path = out / "checkpoints" / "done.json"
    del before[done_path]
    done = json.loads(done_path.read_text())
    assert set(done) - {"config_sha256", "inputs_sha256"} == marked
    assert [path.name for path, data in before.items() if path.read_bytes() != data] == []
    assert opened == list(WRITES[:k])

    grown = []
    for name in ("run_eqe", "run_oge"):
        real = getattr(pipeline, name)
        monkeypatch.setattr(pipeline, name,
                            lambda *a, name=name, real=real: grown.append(name) or real(*a))
    run_full(cfg, resume=True)
    assert grown == [name for name, stage in (("run_eqe", "eqe"), ("run_oge", "oge-1"))
                     if stage not in marked]
    assert {name: (out / name).read_bytes() for name in OUTPUTS} == fresh
    assert list(out.rglob("*.tmp")) == []


def test_resume_under_changed_tau_is_refused(tmp_path, db_dir, mini_seed_file):
    cfg, manifest = run_mini_full(tmp_path, db_dir, mini_seed_file, "runC")
    with pytest.raises(ConfigError, match="cannot resume"):
        run_full(cfg._replace(tau=0.8), resume=True)
    # input locations are not part of the hash
    moved_seeds = tmp_path / "moved" / "seeds.json"
    moved_seeds.parent.mkdir()
    moved_seeds.write_text(mini_seed_file.read_text())
    moved_dbs = shutil.copytree(db_dir, tmp_path / "moved" / "dbs")
    moved = run_full(cfg._replace(seeds=str(moved_seeds), db_dir=str(moved_dbs)),
                     resume=True)
    assert moved["counts"] == manifest["counts"]
    # checkpoints that record no config are not resumed either
    done_path = tmp_path / "runC" / "checkpoints" / "done.json"
    done = json.loads(done_path.read_text())
    del done["config_sha256"]
    done_path.write_text(json.dumps(done))
    with pytest.raises(ConfigError, match="cannot resume"):
        run_full(cfg, resume=True)


def test_fresh_run_over_a_finished_directory_starts_done_afresh(
        tmp_path, db_dir, mini_seed_file):
    cfg, _ = run_mini_full(tmp_path, db_dir, mini_seed_file, "runF", rounds=2)
    done_path = tmp_path / "runF" / "checkpoints" / "done.json"
    assert "oge-2" in json.loads(done_path.read_text())
    run_full(cfg._replace(rounds=1))
    done = json.loads(done_path.read_text())
    assert set(done) == {"config_sha256", "inputs_sha256", "ingest", "eqe", "oge-1",
                         "final"}


def test_stats_report_columns(tmp_path, db_dir, mini_seed_file):
    cfg, _ = run_mini_full(tmp_path, db_dir, mini_seed_file, "runS")
    text, csv_text = stats_report(tmp_path / "runS" / "dataset.jsonl")
    header = csv_text.splitlines()[0]
    assert header == "stage,Tables,Joins,Func.,Toks.,Agg.,Subs.,Wins.,CTEs,Nest."
    assert "seed" in text and "EQE" in text


def test_stats_report_histogram_matches_oge_count(tmp_path, db_dir, mini_seed_file):
    cfg, manifest = run_mini_full(tmp_path, db_dir, mini_seed_file, "runH")
    dataset = read_jsonl(tmp_path / "runH" / "dataset.jsonl")
    oge_rows = [i for i in dataset if i.stage.startswith("OGE-")]
    text, _ = stats_report(tmp_path / "runH" / "dataset.jsonl")
    line = next(l for l in text.splitlines() if l.startswith("Instances per operator"))
    total = sum(int(part.split("=")[1]) for part in line.split(": ", 1)[1].split(", ")
                if "=" in part) if "=" in line else 0
    assert total == len(oge_rows)


def _assert_report_is_stats(out):
    text, csv_text = stats_report(out / "dataset.jsonl")
    assert "Dedup removed: " in text and "Rejections per stage: " in text
    assert (out / "feature_report.txt").read_text() == text
    assert (out / "feature_report.csv").read_text() == csv_text


def test_run_writes_the_report_stats_prints(tmp_path, db_dir, mini_seed_file):
    cfg, _ = run_mini_full(tmp_path, db_dir, mini_seed_file, "runP")
    out = tmp_path / "runP"
    _assert_report_is_stats(out)
    (out / "feature_report.txt").unlink()
    (out / "feature_report.csv").unlink()
    run_full(cfg, resume=True)
    _assert_report_is_stats(out)


def test_stats_report_missing_file():
    with pytest.raises(IOError):
        stats_report("/nonexistent/dataset.jsonl")


class FlakyGateway(LlmGateway):
    """Fails the first ``fail_times`` generation calls of each candidate."""

    def __init__(self, fail_times=1):
        super().__init__()
        self.fail_times = fail_times
        self.calls = []

    def _outage(self, seed):
        self.calls.append(seed)
        if self.calls.count(seed) <= self.fail_times:
            raise TransportError("synthetic outage")

    def generate_expansion(self, question, evidence, sql, schema, db=None, seed=0,
                           *, analysis):
        self._outage(seed)
        return super().generate_expansion(question, evidence, sql, schema,
                                          db=db, seed=seed, analysis=analysis)

    def generate_evolution(self, question, evidence, sql, schema, op,
                           db=None, seed=0, *, analysis):
        self._outage(seed)
        return super().generate_evolution(question, evidence, sql, schema, op,
                                          db=db, seed=seed, analysis=analysis)


def test_transport_failure_is_one_rejection_after_one_call(repo, mini_seed_file):
    # the gateway has spent its retries before a TransportError gets here,
    # so the pipeline makes no second call, even one that would succeed
    cfg = RunConfig(global_seed=3)
    seeds, _ = ingest_seeds(mini_seed_file, repo)
    gateway = FlakyGateway(fail_times=1)
    rejections = []
    assert run_eqe(seeds, cfg, repo, gateway, rejections) == []
    assert len(gateway.calls) == len(rejections) == len(seeds)
    assert all(r["reason"] == "transport: synthetic outage" for r in rejections)


def test_persistent_transport_failure_recorded_not_fatal(repo, mini_seed_file):
    cfg = RunConfig(global_seed=3)
    seeds, _ = ingest_seeds(mini_seed_file, repo)
    rejections = []
    accepted = run_eqe(seeds, cfg, repo, FlakyGateway(fail_times=99),
                       rejections)
    assert accepted == []
    assert len(rejections) == len(seeds)
    assert all(r["reason"].startswith("transport") for r in rejections)


class MalformedExpandGateway(LlmGateway):
    """Every expansion reply breaks the output contract."""

    def generate_expansion(self, *args, **kwargs):
        raise ResponseFormatError("no JSON object found in model response")


def test_eqe_format_error_recorded_not_fatal(repo, mini_seed_file):
    cfg = RunConfig(global_seed=3, expansions_per_seed=2)
    seeds, _ = ingest_seeds(mini_seed_file, repo)
    rejections = []
    assert run_eqe(seeds, cfg, repo, MalformedExpandGateway(), rejections) == []
    assert rejections == [
        {"stage": "EQE", "parent": s.id,
         "reason": "no JSON object found in model response"}
        for s in seeds for _ in range(2)
    ]


class FixedExpansionGateway(LlmGateway):
    """Proposes one fixed SQL text for every expansion and never repairs it."""

    def __init__(self, sql):
        super().__init__()
        self.sql = sql

    def generate_expansion(self, question, *args, **kwargs):
        return ExpansionResult(question, "", self.sql)

    def refine_sql(self, question, draft, *args, **kwargs):
        return draft


@pytest.mark.parametrize("sql,reason", [
    ("SELECT random() FROM person", "not authorized to use function: random"),
    ("SELECT RANDOM() FROM person", "not authorized to use function: RANDOM"),
    ("SELECT randomblob(4) FROM person",
     "not authorized to use function: randomblob"),
    ("SELECT CURRENT_DATE FROM person",
     "not authorized to use function: CURRENT_DATE"),
    ("SELECT full_name FROM person WHERE current_time > '00:00'",
     "not authorized to use function: current_time"),
    ("SELECT Current_Timestamp FROM person",
     "not authorized to use function: Current_Timestamp"),
    ("SELECT full_name FROM person WHERE date('now') > '2000-01-01'",
     "nondeterministic: date('now')"),
    ("SELECT time('now') FROM person", "nondeterministic: time('now')"),
    ("SELECT full_name FROM person WHERE full_name > datetime('NOW', '-1 day')",
     "nondeterministic: datetime('now')"),
    ("SELECT julianday('now') - weight FROM person",
     "nondeterministic: julianday('now')"),
    ("SELECT strftime('%Y', 'now') FROM person", "nondeterministic: strftime('now')"),
    ("SELECT full_name FROM person WHERE id IN (SELECT id FROM person "
     "WHERE unixepoch('now') > 0)", "nondeterministic: unixepoch('now')"),
])
def test_nondeterministic_sql_is_a_rejection(repo, mini_seed_file, sql, reason):
    cfg = RunConfig(global_seed=3)
    seeds, _ = ingest_seeds(mini_seed_file, repo)
    rejections = []
    assert run_eqe(seeds[:1], cfg, repo, FixedExpansionGateway(sql), rejections) == []
    assert rejections == [{"stage": "EQE", "parent": seeds[0].id, "reason": reason}]


def test_oge_transport_failure_is_one_rejection_after_one_call(repo, mini_seed_file):
    cfg = RunConfig(global_seed=3)
    seeds, _ = ingest_seeds(mini_seed_file, repo)
    state = scheduler.fresh_state(cfg.epsilon)
    assert run_oge(seeds, cfg, repo, LlmGateway(), state, 1)
    gateway = FlakyGateway(fail_times=1)
    rejections = []
    assert run_oge(seeds, cfg, repo, gateway, state, 1, rejections) == []
    assert len(gateway.calls) == len(rejections) == cfg.budget_k * len(seeds)
    assert all(r["reason"] == "transport: synthetic outage" for r in rejections)


def test_oge_persistent_transport_failure_rejects_each_operator(repo, mini_seed_file):
    cfg = RunConfig(global_seed=3)
    seeds, _ = ingest_seeds(mini_seed_file, repo)
    state = scheduler.fresh_state(cfg.epsilon)
    gateway = FlakyGateway(fail_times=99)
    rejections = []
    assert run_oge(seeds, cfg, repo, gateway, state, 1, rejections) == []
    assert len(rejections) == cfg.budget_k * len(seeds)
    assert all(r["stage"] == "OGE-1" and r["reason"].startswith("transport: ")
               for r in rejections)
    # each chosen operator was tried once and rejected once, under its name
    rejected = [derive_seed(cfg.global_seed, r["parent"], 1, r["operator"])
                for r in rejections]
    assert sorted(gateway.calls) == sorted(rejected)


def test_schema_repo_nested_layout(tmp_path):
    import fixtures as fx

    nested = tmp_path / "dbs" / "olympics"
    nested.mkdir(parents=True)
    fx.build_database(nested / "olympics.sqlite", fx.OLYMPICS_DDL)
    repo = SchemaRepo(tmp_path / "dbs")
    try:
        assert repo.ids() == ["olympics"]
        assert repo.schema("olympics").table("person") is not None
    finally:
        repo.close()


class ScoringStub:
    """Strategy backend returning a fixed feasibility array."""

    def __init__(self, score_by_name):
        self.score_by_name = score_by_name

    def complete(self, messages, decoding):
        entries = [{"operator": name, "score": score, "justification": ""}
                   for name, score in self.score_by_name.items()]
        return [json.dumps(entries)]


def test_run_oge_gates_llm_scores_with_rules(repo, mini_seed_file):
    # the model may claim NEST is feasible, but the rule gate zeroes it when
    # no site exists, so NEST children never appear for these seeds
    from sqlgrow.gateway import LlmGateway as GW

    seeds, _ = ingest_seeds(mini_seed_file, repo)
    simple = [s for s in seeds if "ORDER BY" not in s.sql.upper()][:2] or seeds[:2]
    gateway = GW(backends={"strategize": ScoringStub({
        "Functional Wrapping": 0.1,
        "Operator Mutation": 0.1,
        "Logical Clause Expansion": 0.1,
        "Relational Expansion": 0.1,
        "Nesting Evolution": 1.0,
        "Set Composition": 0.1,
    })})
    cfg = RunConfig(global_seed=1, budget_k=2)
    state = scheduler.fresh_state(cfg.epsilon)
    from sqlgrow.operators import OperatorId as OID, analyze, check_applicability
    from sqlgrow.parser import parse_sql as P

    nest_infeasible = [
        s for s in simple
        if check_applicability(analyze(P(s.sql), repo.schema(s.schema_id)),
                               OID.NEST).score == 0
    ]
    assert nest_infeasible, "fixture should include a NEST-infeasible seed"
    evolved = run_oge(nest_infeasible, cfg, repo, gateway, state, 1)
    assert all(c.operator_applied is not OID.NEST for c in evolved)


def test_cot_yield_bound_in_manifest(tmp_path, db_dir, mini_seed_file):
    cfg, manifest = run_mini_full(tmp_path, db_dir, mini_seed_file, "runY")
    submitted = (manifest["counts"]["seeds"] + manifest["counts"]["eqe"]
                 + manifest["counts"]["evolved"])
    cot = manifest["cot"]
    assert cot["kept"] + cot["discarded"] + cot["deferred"] == submitted


class SelectiveTeacherGateway(LlmGateway):
    """Mock gateway whose teacher fails for questions matching a marker."""

    def __init__(self, marker):
        super().__init__()
        self.marker = marker

    def generate_cot_candidates(self, question, evidence, schema, n,
                                gold_sql="", seed=0):
        from sqlgrow.gateway import CotCandidate

        if self.marker in question:
            return [CotCandidate("junk", "SELECT nothing FROM nowhere")] * n
        return super().generate_cot_candidates(question, evidence, schema, n,
                                               gold_sql=gold_sql, seed=seed)


def test_discarded_child_keeps_ancestors(repo, mini_seed_file):
    cfg = RunConfig(global_seed=3)
    seeds, _ = ingest_seeds(mini_seed_file, repo)
    gateway = LlmGateway()
    eqe = run_eqe(seeds, cfg, repo, gateway)
    assert eqe
    # fail the teacher only for expansion children ("Rephrased" marker)
    selective = SelectiveTeacherGateway("Rephrased")
    kept, discards, deferrals = run_cot(seeds + eqe, cfg, repo, selective)
    assert all(inst.status == "cot-kept" and inst.cot for inst in kept)
    kept_ids = {inst.id for inst in kept}
    discarded_ids = {d.instance_id for d in discards}
    assert all(child.id in discarded_ids for child in eqe)
    assert all(seed.id in kept_ids for seed in seeds)  # ancestors unaffected


class CountingGateway(LlmGateway):
    """The mock gateway, recording the role of every model call."""

    def __init__(self):
        super().__init__()
        self.roles = []

    def _call(self, role, *args):
        self.roles.append(role)
        return super()._call(role, *args)


def test_an_unparseable_parent_is_one_rejection_and_no_model_call(repo):
    parent = QueryInstance(id="seed-0000", schema_id="olympics", question="Who?",
                           evidence="", sql="SELECT FROM WHERE", stage="seed")
    cfg = RunConfig(global_seed=3, expansions_per_seed=2)
    gateway = CountingGateway()
    eqe_rejections, oge_rejections = [], []
    assert run_eqe([parent], cfg, repo, gateway, eqe_rejections) == []
    assert run_oge([parent], cfg, repo, gateway, scheduler.fresh_state(), 1,
                   oge_rejections) == []
    assert gateway.roles == []
    for stage, rejections in (("EQE", eqe_rejections), ("OGE-1", oge_rejections)):
        assert [(r["stage"], r["parent"]) for r in rejections] == [(stage, parent.id)]
        assert rejections[0]["reason"].startswith("unparseable input: ")


def test_quarantined_seeds_lead_the_rejections_of_a_fresh_and_a_resumed_run(
        tmp_path, db_dir, mini_seed_file):
    records = json.loads(mini_seed_file.read_text())
    records.insert(1, {"question": "bad sql", "SQL": "SELECT broken FROM person",
                       "db_id": "olympics"})
    seeds = tmp_path / "seeds.json"
    seeds.write_text(json.dumps(records))
    cfg, manifest = run_mini_full(tmp_path, db_dir, seeds, "runQ")
    assert manifest["quarantined_seeds"] == 1
    expected = {"stage": "ingest", "index": 1, "question": "bad sql",
                "schema_id": "olympics", "reason": "unresolved columns: broken"}
    rejections = tmp_path / "runQ" / "rejections.jsonl"
    first = rejections.read_text().splitlines()[0]
    assert json.loads(first) == expected
    run_full(cfg, resume=True)
    assert rejections.read_text().splitlines()[0] == first


class DeferringTeacherGateway(LlmGateway):
    """Mock gateway whose teacher fails in transport for one question and
    proposes nothing for another."""

    def __init__(self, outage_question, empty_question):
        super().__init__()
        self.outage_question = outage_question
        self.empty_question = empty_question

    def generate_cot_candidates(self, question, *args, **kwargs):
        if question == self.outage_question:
            raise TransportError("synthetic outage")
        if question == self.empty_question:
            return []
        return super().generate_cot_candidates(question, *args, **kwargs)


def test_cot_deferrals_are_counted_and_kept_out_of_the_dataset(
        tmp_path, db_dir, mini_seed_file, monkeypatch):
    (outage, _), (empty, _) = fixtures.SEED_QUESTIONS["olympics"][:2]
    monkeypatch.setattr(pipeline, "build_gateway",
                        lambda cfg: DeferringTeacherGateway(outage, empty))
    _, manifest = run_mini_full(tmp_path, db_dir, mini_seed_file, "runD")
    assert manifest["cot"]["deferred"] == 2
    ids = {inst.id for inst in read_jsonl(tmp_path / "runD" / "dataset.jsonl")}
    assert not ids & {"seed-0000", "seed-0001"}
    submitted = sum(manifest["counts"][k] for k in ("seeds", "eqe", "evolved"))
    assert sum(manifest["cot"].values()) == submitted
