"""Tests of the benchmark itself: each check fails on output corrupted on purpose.

Run from the root of the repository: ``python3 -m pytest perfbench``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from sqlgrow.pipeline import RunConfig, run_full  # noqa: E402

SMALL = workloads.Workload("small", rounds=1, bigdb=False, resume=False,
                           dataset_sha256="")


@pytest.fixture(scope="module")
def clean(tmp_path_factory):
    """As a resume pass: a fresh rounds=1 run in ``fresh``, resumed from a copy in ``out``.

    Only ``out_dir`` differs between the two configs, as in ``run.run_pass``.
    """
    base = tmp_path_factory.mktemp("clean")
    cfg = workloads.build_inputs(SMALL, workloads.load_fixtures(ROOT), base)
    run_full(RunConfig(**{**cfg, "out_dir": str(base / "fresh")}))
    shutil.copytree(base / "fresh", cfg["out_dir"])
    run_full(RunConfig(**cfg), resume=True)
    return base


@pytest.fixture
def run_dir(clean, tmp_path):
    """A copy of the clean run that a test may corrupt."""
    shutil.copytree(clean, tmp_path / "run")
    return tmp_path / "run"


def _check(run_dir: Path, fresh: Path) -> dict:
    reference = checks.sha256(fresh / "dataset.jsonl")
    return checks.check_pass(run_dir / "out", run_dir / "db", reference, fresh)


def _rewrite(path: Path, edit) -> None:
    rows = checks.read_rows(path)
    edit(rows)
    path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in rows))


def test_clean_run_passes_all_but_the_resume_fault(run_dir, clean):
    results = _check(run_dir, clean / "fresh")
    failing = {name for name, ok in results.items() if not ok}
    assert set(results) == set(checks.check_names(resume=True))
    assert failing == checks.KNOWN_FAULT
    assert checks.beyond_known_fault(run_dir / "out", clean / "fresh") == []


def test_resumed_file_that_differs_beyond_the_fault(run_dir, clean):
    manifest = run_dir / "out" / "manifest.json"
    data = json.loads(manifest.read_text())
    data["counts"]["final"] += 1
    manifest.write_text(json.dumps(data))
    assert checks.beyond_known_fault(run_dir / "out", clean / "fresh") == [
        "manifest.json"]


def test_gold_sql_that_does_not_parse(run_dir, clean):
    def garble_first(rows):
        rows[0]["sql"] = "SELEC nothing FROM"
    _rewrite(run_dir / "out" / "dataset.jsonl", garble_first)
    results = _check(run_dir, clean / "fresh")
    assert not results["nonempty_results"]


def test_output_the_checks_cannot_read_fails_every_check(run_dir, clean):
    (run_dir / "out" / "manifest.json").unlink()
    workload = workloads.WORKLOADS["resume"]
    results, unexpected = run.check_output(
        workload, run_dir / "out", run_dir / "db", clean / "fresh")
    assert results == dict.fromkeys(checks.check_names(resume=True), False)
    assert len(unexpected) == 1 and "manifest.json" in unexpected[0]


def test_row_whose_sql_returns_no_rows(run_dir, clean):
    def empty_first(rows):
        rows[0]["sql"] = f"SELECT * FROM ({rows[0]['sql']}) WHERE 1 = 0"
    _rewrite(run_dir / "out" / "dataset.jsonl", empty_first)
    results = _check(run_dir, clean / "fresh")
    assert not results["nonempty_results"]
    assert not results["dataset_sha256"]


def test_cot_block_that_returns_other_rows(run_dir, clean):
    def other_block(rows):
        rows[0]["cot"] = rows[0]["cot"] + "\n```sql\nSELECT 12345\n```"
    _rewrite(run_dir / "out" / "dataset.jsonl", other_block)
    results = _check(run_dir, clean / "fresh")
    assert results["nonempty_results"]
    assert not results["cot_matches_sql"]


def test_near_duplicate_pair_left_in(run_dir, clean):
    out = run_dir / "out"
    removal = checks.read_rows(out / "dedup_removals.jsonl")[0]
    pool = {r["id"]: r for r in checks.load_pool(out)}
    kept_twin = dict(pool[removal["removed_id"]])
    kept_twin["cot"] = "```sql\n" + kept_twin["sql"] + "\n```"
    _rewrite(out / "dataset.jsonl", lambda rows: rows.append(kept_twin))
    _rewrite(out / "dedup_removals.jsonl", lambda rows: rows.pop(0))
    results = _check(run_dir, clean / "fresh")
    assert not results["dedup_kept_apart"]
    assert results["nonempty_results"] and results["cot_matches_sql"]


def test_removal_without_an_earlier_blocker(run_dir, clean):
    out = run_dir / "out"
    dataset = checks.read_rows(out / "dataset.jsonl")
    moved = dataset[-1]["id"]
    _rewrite(out / "dataset.jsonl", lambda rows: rows.pop())
    _rewrite(out / "dedup_removals.jsonl", lambda rows: rows.append(
        {"removed_id": moved, "kept_id": dataset[0]["id"], "similarity": 1.0}))
    results = _check(run_dir, clean / "fresh")
    assert not results["dedup_removed_blocked"]


def test_line_dropped_from_rejections(run_dir, clean):
    fresh = run_dir / "fresh"
    # restore the fresh run's files so only the dropped line differs
    for name in checks.RESUME_FILES:
        shutil.copyfile(fresh / name, run_dir / "out" / name)
    assert not any(not ok for ok in _check(run_dir, fresh).values())
    _rewrite(run_dir / "out" / "rejections.jsonl", lambda rows: rows.pop())
    results = _check(run_dir, fresh)
    assert not results["resume_equal:rejections.jsonl"]
    assert not results["manifest_counts"]


def test_trigram_vector_matches_the_documented_recipe():
    vec = checks.trigram_vector("Who is the heaviest athlete?")
    assert vec.shape == (checks.DIM,)
    assert abs(float(vec @ vec) - 1.0) < 1e-12
    assert checks.trigram_vector("?!")[0] == 1.0


def test_traced_child_reports_layers(clean, tmp_path):
    cfg = workloads.build_inputs(SMALL, workloads.load_fixtures(ROOT), tmp_path)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))
    spans = tmp_path / "spans.npz"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), str(ROOT),
         str(config), "fresh", str(spans)],
        capture_output=True, text=True, timeout=120, check=True)
    layers = json.loads(proc.stdout.splitlines()[-1])["layers"]
    assert layers["parser.calls"] > layers["parser.distinct_sql"] > 0
    assert layers["lexer.calls"] >= layers["parser.calls"]
    assert layers["dedup.items"] == layers["dedup.vectors"] > 0
    assert layers["pipeline.run_full_s"] > layers["pipeline.oge_s"] > 0
    assert spans.is_file()
    assert (checks.sha256(tmp_path / "out" / "dataset.jsonl")
            == checks.sha256(next(clean.glob("out/dataset.jsonl"))))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copyfile(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bigdb", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
