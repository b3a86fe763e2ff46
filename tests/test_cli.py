import itertools
import json
import sqlite3

import pytest

import fixtures
from sqlgrow import harness, pipeline
from sqlgrow.cli import main
from sqlgrow.errors import InstanceFileError
from sqlgrow.instances import read_jsonl


@pytest.fixture()
def workspace(tmp_path):
    dbs = tmp_path / "dbs"
    fixtures.build_all(dbs)
    seeds = tmp_path / "seeds.json"
    records = [
        {"question": q, "evidence": "", "SQL": sql, "db_id": "olympics"}
        for q, sql in fixtures.SEED_QUESTIONS["olympics"][:3]
    ]
    seeds.write_text(json.dumps(records))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "seeds": str(seeds),
        "db_dir": str(dbs),
        "out_dir": str(tmp_path / "out"),
        "rounds": 1,
        "global_seed": 5,
    }))
    return tmp_path, cfg


def test_run_subcommand(workspace, capsys):
    tmp_path, cfg = workspace
    assert main(["run", "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    assert (out / "dataset.jsonl").is_file()
    assert (out / "manifest.json").is_file()
    assert (out / "feature_report.txt").is_file()
    assert "dataset:" in capsys.readouterr().out


def test_stats_subcommand(workspace, capsys):
    tmp_path, cfg = workspace
    main(["run", "--config", str(cfg)])
    out = tmp_path / "out"
    capsys.readouterr()
    code = main(["stats", "--dataset", str(out / "dataset.jsonl"),
                 "--csv", str(tmp_path / "stats.csv")])
    assert code == 0
    text = capsys.readouterr().out
    assert "Tables" in text and "Nest." in text
    assert "Dedup removed" in text
    assert text == (out / "feature_report.txt").read_text() + "\n"
    assert (tmp_path / "stats.csv").read_bytes() == (out / "feature_report.csv").read_bytes()


def test_verify_subcommand(workspace):
    tmp_path, cfg = workspace
    main(["run", "--config", str(cfg)])
    code = main(["verify", "--dataset", str(tmp_path / "out" / "dataset.jsonl"),
                 "--db-dir", str(tmp_path / "dbs")])
    assert code == 0


def test_ingest_subcommand(workspace):
    tmp_path, cfg = workspace
    assert main(["ingest", "--config", str(cfg)]) == 0
    seeds = read_jsonl(tmp_path / "out" / "checkpoints" / "seeds.jsonl")
    assert len(seeds) == 3


def test_staged_eqe_then_oge(workspace):
    tmp_path, cfg = workspace
    main(["ingest", "--config", str(cfg)])
    assert main(["eqe", "--config", str(cfg)]) == 0
    assert main(["oge", "--config", str(cfg)]) == 0
    evolved = read_jsonl(tmp_path / "out" / "checkpoints" / "oge-1.jsonl")
    assert evolved and all(i.stage == "OGE-1" for i in evolved)
    assert (tmp_path / "out" / "checkpoints" / "state-1.json").is_file()


def test_staged_oge_uses_configured_p_target(workspace):
    tmp_path, cfg = workspace
    p_target = {"FUNC": 0.5, "OP": 0.1, "LOGIC": 0.1, "JOIN": 0.1,
                "NEST": 0.1, "SET": 0.1}
    cfg.write_text(json.dumps({**json.loads(cfg.read_text()), "p_target": p_target}))
    main(["ingest", "--config", str(cfg)])
    main(["eqe", "--config", str(cfg)])
    assert main(["oge", "--config", str(cfg)]) == 0
    state = json.loads((tmp_path / "out" / "checkpoints" / "state-1.json").read_text())
    assert state["p_target"] == p_target


def test_staged_commands_write_the_checkpoints_of_run(workspace):
    tmp_path, cfg = workspace
    p_target = {"FUNC": 0.5, "OP": 0.1, "LOGIC": 0.1, "JOIN": 0.1,
                "NEST": 0.1, "SET": 0.1}
    cfg.write_text(json.dumps({**json.loads(cfg.read_text()), "rounds": 2,
                               "p_target": p_target}))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "full")]) == 0
    staged, full = tmp_path / "out", tmp_path / "full"
    for command in ("ingest", "eqe", "oge"):
        assert main([command, "--config", str(cfg)]) == 0
        assert not (staged / "dataset.jsonl").exists()
    done = json.loads((staged / "checkpoints" / "done.json").read_text())
    assert {"ingest", "eqe", "oge-1", "oge-2"} <= set(done) and "final" not in done
    evolved = read_jsonl(staged / "checkpoints" / "oge-1.jsonl")
    assert evolved and all(i.stage == "OGE-1" for i in evolved)
    state = json.loads((staged / "checkpoints" / "state-2.json").read_text())
    assert state["p_target"] == p_target
    assert main(["run", "--config", str(cfg), "--resume"]) == 0

    names = ["done.json", "seeds.jsonl", "quarantine.json", "eqe.jsonl",
             "oge-1.jsonl", "oge-2.jsonl", "state-1.json", "state-2.json"]
    assert sorted(p.name for p in (staged / "checkpoints").iterdir()) == sorted(names)
    for name in [f"checkpoints/{n}" for n in names] + ["dataset.jsonl",
                                                       "dedup_removals.jsonl"]:
        assert (staged / name).read_bytes() == (full / name).read_bytes(), name
    manifests = [json.loads((d / "manifest.json").read_text()) for d in (staged, full)]
    for manifest in manifests:
        del manifest["rejections"]  # a resume drops the rejections of the stages it skips
    assert manifests[0] == manifests[1]


def test_staged_command_without_checkpoints_is_refused(workspace, capsys):
    tmp_path, cfg = workspace
    assert main(["eqe", "--config", str(cfg)]) == 1
    assert "no checkpoints to resume" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"rounds": -3}))
    assert main(["run", "--config", str(bad)]) == 1


@pytest.mark.parametrize("p_target,message", [
    ({"FUNK": 1.0}, "operator names"),
    ({"FUNC": 0.5, "JOIN": 0.4}, "sum to 1"),
    ({"FUNC": 1.5, "JOIN": -0.5}, ">= 0"),
])
def test_bad_p_target_is_a_config_error_before_any_stage(
        workspace, capsys, p_target, message):
    tmp_path, cfg = workspace
    cfg.write_text(json.dumps({**json.loads(cfg.read_text()), "p_target": p_target}))
    assert main(["run", "--config", str(cfg)]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("field, value, message", [
    ("rounds", "2", 'rounds must be an integer, not "2"'),
    ("tau", None, "tau must be a number, not null"),
    ("rounds", True, "rounds must be an integer, not true"),
])
def test_config_value_of_the_wrong_type_is_a_config_error(
        workspace, capsys, field, value, message):
    tmp_path, cfg = workspace
    cfg.write_text(json.dumps({**json.loads(cfg.read_text()), field: value}))
    assert main(["run", "--config", str(cfg)]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_stage_failure_exit_code(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "seeds": str(tmp_path / "missing.json"),
        "db_dir": str(tmp_path),  # exists but holds no databases
        "out_dir": str(tmp_path / "out"),
    }))
    assert main(["run", "--config", str(cfg)]) == 2


def test_wall_cap_ends_the_run_without_a_rejection(workspace, monkeypatch, capsys):
    tmp_path, cfg = workspace
    real_run_eqe = pipeline.run_eqe
    seen = []

    def run_eqe_past_the_cap(seeds, cfg, repo, gateway, rejections, *trees):
        # from here on every progress-handler call reads a clock past the cap
        ticks = itertools.count(step=harness.WALL_CAP_S + 1)
        monkeypatch.setattr(harness.time, "monotonic", lambda: next(ticks))
        monkeypatch.setattr(harness, "_PROGRESS_OPCODES", 1)
        try:
            return real_run_eqe(seeds, cfg, repo, gateway, rejections, *trees)
        finally:
            seen.append(list(rejections))

    monkeypatch.setattr(pipeline, "run_eqe", run_eqe_past_the_cap)
    assert main(["run", "--config", str(cfg)]) == 2
    assert "wall cap" in capsys.readouterr().err
    assert seen == [[]]
    out = tmp_path / "out"
    assert not (out / "rejections.jsonl").exists()
    done = json.loads((out / "checkpoints" / "done.json").read_text())
    assert "ingest" in done and "eqe" not in done


def test_resume_under_another_config_is_refused(workspace, capsys):
    _, cfg = workspace
    assert main(["run", "--config", str(cfg)]) == 0
    assert main(["run", "--config", str(cfg), "--resume", "--tau", "0.8"]) == 1
    assert "cannot resume" in capsys.readouterr().err
    assert main(["run", "--config", str(cfg), "--resume"]) == 0


@pytest.mark.parametrize("edited", ["dbs/olympics.db", "dbs/shop.db", "seeds.json"])
def test_resume_over_edited_inputs_is_refused(workspace, capsys, edited):
    tmp_path, cfg = workspace
    assert main(["run", "--config", str(cfg)]) == 0
    path = tmp_path / edited
    if path.suffix == ".db":
        conn = sqlite3.connect(path)
        conn.execute("UPDATE person SET weight = weight + 1" if "olympics" in edited
                     else "DELETE FROM product WHERE id = (SELECT MAX(id) FROM product)")
        conn.commit()
        conn.close()
    else:
        path.write_text(path.read_text() + "\n")
    capsys.readouterr()
    assert main(["run", "--config", str(cfg), "--resume"]) == 1
    assert "cannot resume" in capsys.readouterr().err


def test_resume_over_unchanged_inputs_reuses_checkpoints(workspace, monkeypatch):
    tmp_path, cfg = workspace
    assert main(["run", "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    fresh = {name: (out / name).read_bytes()
             for name in ("dataset.jsonl", "manifest.json", "checkpoints/done.json")}

    def no_rerun(*args, **kwargs):
        raise AssertionError("a finished stage ran again")

    for stage in ("ingest_seeds", "run_eqe", "run_oge"):
        monkeypatch.setattr(pipeline, stage, no_rerun)
    assert main(["run", "--config", str(cfg), "--resume"]) == 0
    assert {name: (out / name).read_bytes() for name in fresh} == fresh


@pytest.mark.parametrize("argv", [
    ["cot", "--in", "eqe.jsonl"],
    ["dedup", "--in", "cot.jsonl"],
    ["run", "--in", "eqe.jsonl"],
])
def test_file_in_file_out_commands_are_gone(workspace, argv):
    _, cfg = workspace
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--config", str(cfg)])
    assert exc.value.code == 2


def test_run_writes_one_line_per_dedup_removal(workspace):
    tmp_path, cfg = workspace
    # the rephrasings share a prefix: cosines of 0.22-0.28, so tau 0.2 removes some
    assert main(["run", "--config", str(cfg), "--tau", "0.2"]) == 0
    out = tmp_path / "out"
    manifest = json.loads((out / "manifest.json").read_text())
    lines = (out / "dedup_removals.jsonl").read_text().splitlines()
    assert lines and len(lines) == manifest["dedup"]["removed"]
    for line in lines:
        record = json.loads(line)
        assert sorted(record) == ["kept_id", "removed_id", "similarity"]
        assert line == json.dumps(record, sort_keys=True)


def test_flags_alone_configure_a_run(workspace):
    tmp_path, cfg = workspace
    fields = json.loads(cfg.read_text())
    assert main(["run", "--config", str(cfg)]) == 0
    assert main(["run", "--seeds", fields["seeds"], "--db-dir", fields["db_dir"],
                 "--out", str(tmp_path / "flags"), "--rounds", "1",
                 "--global-seed", "5"]) == 0
    for name in ("dataset.jsonl", "manifest.json", "rejections.jsonl"):
        assert (tmp_path / "flags" / name).read_bytes() == \
            (tmp_path / "out" / name).read_bytes(), name


def test_flags_alone_are_validated(workspace, capsys):
    tmp_path, cfg = workspace
    fields = json.loads(cfg.read_text())
    assert main(["run", "--seeds", fields["seeds"], "--db-dir", fields["db_dir"],
                 "--out", str(tmp_path / "flags"), "--rounds", "-1"]) == 1
    assert "rounds must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "flags").exists()


def _edit_first_row(dataset, **fields):
    lines = dataset.read_text().splitlines()
    lines[0] = json.dumps({**json.loads(lines[0]), **fields}, sort_keys=True)
    dataset.write_text("\n".join(lines) + "\n")
    return json.loads(lines[0])["id"]


@pytest.mark.parametrize("fields, reason", [
    ({"sql": "SELECT 1 WHERE 0"}, "empty"),
    ({"schema_id": "no_such_db"}, "schema not found"),
])
def test_verify_names_the_broken_row(workspace, capsys, fields, reason):
    tmp_path, cfg = workspace
    assert main(["run", "--config", str(cfg)]) == 0
    dataset = tmp_path / "out" / "dataset.jsonl"
    broken = _edit_first_row(dataset, **fields)
    capsys.readouterr()
    assert main(["verify", "--dataset", str(dataset),
                 "--db-dir", str(tmp_path / "dbs")]) == 2
    captured = capsys.readouterr()
    summary = json.loads(captured.out)
    assert [f["id"] for f in summary["failures"]] == [broken]
    assert reason in summary["failures"][0]["reason"]
    assert len(captured.err.splitlines()) == 1


def _one_line_failure(capsys, *parts):
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("stage failure: ")
    assert all(part in err for part in parts), err


@pytest.mark.parametrize("command", ["stats", "verify"])
@pytest.mark.parametrize("corrupt, problem", [
    ("line", "invalid JSON"),
    ("question", "missing field 'question'"),
])
def test_bad_dataset_row_is_a_stage_failure(workspace, capsys, command, corrupt, problem):
    tmp_path, cfg = workspace
    assert main(["run", "--config", str(cfg)]) == 0
    dataset = tmp_path / "out" / "dataset.jsonl"
    lines = dataset.read_text().splitlines()
    if corrupt == "line":
        lines[1] = lines[1][:-5]
    else:
        record = json.loads(lines[1])
        del record["question"]
        lines[1] = json.dumps(record)
    dataset.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    argv = [command, "--dataset", str(dataset)]
    if command == "verify":
        argv += ["--db-dir", str(tmp_path / "dbs")]
    assert main(argv) == 2
    _one_line_failure(capsys, str(dataset), "line 2", problem)


@pytest.mark.parametrize("line, problem", [
    ('["not", "an", "object"]', "line 3: not a JSON object"),
    ('{"id": "x", "schema_id": "s", "question": "q", "sql": "SELECT 1", '
     '"stage": "OGE-1", "operator_applied": "SWAP"}', "line 3: unknown operator 'SWAP'"),
    ('{"id": "x", "schema_id": "s", "question": "q", "sql": "SELECT 1", '
     '"stage": "OGE-1"}', "line 3: evolution instances must record their operator"),
])
def test_read_jsonl_names_the_line_that_holds_no_instance(tmp_path, line, problem):
    path = tmp_path / "rows.jsonl"
    path.write_text('{"id": "x", "schema_id": "s", "question": "q", "sql": "SELECT 1", '
                    '"stage": "seed"}\n\n' + line + "\n")
    with pytest.raises(InstanceFileError) as exc:
        read_jsonl(path)
    assert str(exc.value) == f"{path}, {problem}"  # the blank line counts


def test_corrupt_checkpoint_under_resume_is_a_stage_failure(workspace, capsys):
    tmp_path, cfg = workspace
    assert main(["ingest", "--config", str(cfg)]) == 0
    assert main(["eqe", "--config", str(cfg)]) == 0
    eqe = tmp_path / "out" / "checkpoints" / "eqe.jsonl"
    eqe.write_text(eqe.read_text() + "{truncated\n")
    line_no = len(eqe.read_text().splitlines())
    capsys.readouterr()
    assert main(["run", "--config", str(cfg), "--resume"]) == 2
    _one_line_failure(capsys, str(eqe), f"line {line_no}", "invalid JSON")
    assert not (tmp_path / "out" / "dataset.jsonl").exists()


def _truncate(path):
    path.write_text(path.read_text()[:-3])


@pytest.mark.parametrize("name, stages", [
    ("done.json", ["ingest"]),
    ("quarantine.json", ["ingest"]),
    ("state-1.json", ["ingest", "eqe", "oge"]),
])
def test_corrupt_json_checkpoint_under_resume_is_a_stage_failure(
        workspace, capsys, name, stages):
    tmp_path, cfg = workspace
    for stage in stages:
        assert main([stage, "--config", str(cfg)]) == 0
    path = tmp_path / "out" / "checkpoints" / name
    _truncate(path)
    capsys.readouterr()
    assert main(["run", "--config", str(cfg), "--resume"]) == 2
    _one_line_failure(capsys, f"cannot read {path}")
    assert not (tmp_path / "out" / "dataset.jsonl").exists()


def test_json_checkpoint_of_the_wrong_shape_is_a_stage_failure(workspace, capsys):
    tmp_path, cfg = workspace
    assert main(["ingest", "--config", str(cfg)]) == 0
    path = tmp_path / "out" / "checkpoints" / "done.json"
    path.write_text("[]")
    capsys.readouterr()
    assert main(["run", "--config", str(cfg), "--resume"]) == 2
    _one_line_failure(capsys, f"cannot read {path}", "expected a dict, found a list")


def test_corrupt_manifest_under_stats_is_a_stage_failure(workspace, capsys):
    tmp_path, cfg = workspace
    assert main(["run", "--config", str(cfg)]) == 0
    manifest = tmp_path / "out" / "manifest.json"
    _truncate(manifest)
    capsys.readouterr()
    assert main(["stats", "--dataset", str(tmp_path / "out" / "dataset.jsonl")]) == 2
    _one_line_failure(capsys, f"cannot read {manifest}")

