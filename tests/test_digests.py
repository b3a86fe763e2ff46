import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sqlgrow
from sqlgrow import digests
from sqlgrow.pipeline import _file_sha256

TEXTS = [b"", "évolution · 進化 🌱".encode("utf-8"), bytes(range(256)) * 4096]


@pytest.mark.parametrize("name", ["md5", "sha256"])
@pytest.mark.parametrize("data", TEXTS, ids=["empty", "non-ascii", "1MiB"])
def test_digests_equal_hashlib(name, data):
    assert getattr(digests, name)(data).hexdigest() == hashlib.new(name, data).hexdigest()


def test_file_sha256_of_64k_blocks_equals_hashlib(tmp_path):
    data = os.urandom(5 * (1 << 16) + 123)
    path = tmp_path / "input.db"
    path.write_bytes(data)
    assert _file_sha256(path) == hashlib.sha256(data).hexdigest()


RUN = """
import sys
from sqlgrow.pipeline import RunConfig, run_full
run_full(RunConfig(seeds=sys.argv[1], db_dir=sys.argv[2], out_dir=sys.argv[3], rounds=1))
print([name for name in ("hashlib", "_hashlib", "ssl") if name in sys.modules])
"""


def test_a_mock_run_loads_no_openssl(tmp_path, db_dir):
    # pytest's own process has hashlib loaded already, so the run gets its own
    seeds = tmp_path / "seeds.json"
    seeds.write_text(json.dumps([{"question": "How many people are there?",
                                  "evidence": "", "SQL": "SELECT COUNT(*) FROM person",
                                  "db_id": "olympics"}]))
    env = {**os.environ, "PYTHONPATH": str(Path(sqlgrow.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", RUN, str(seeds), str(db_dir), str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "out" / "dataset.jsonl").is_file()
    assert done.stdout.strip() == "[]"


NO_NUMPY = """
import sys
import sqlgrow
from sqlgrow.cli import main
loaded = ["numpy" in sys.modules]
out = sys.argv[3]
for argv in (["run", "--seeds", sys.argv[1], "--db-dir", sys.argv[2], "--out", out,
              "--rounds", "1"],
             ["stats", "--dataset", out + "/dataset.jsonl"],
             ["verify", "--dataset", out + "/dataset.jsonl", "--db-dir", sys.argv[2]]):
    assert main(argv) == 0, argv
    loaded.append("numpy" in sys.modules)
print(loaded)
"""


def test_a_mock_run_stats_and_verify_load_no_numpy(tmp_path, db_dir):
    # only an embedder's replies need numpy; the lexical dedup is pure Python
    seeds = tmp_path / "seeds.json"
    seeds.write_text(json.dumps([{"question": q, "evidence": "", "SQL": sql,
                                  "db_id": "olympics"} for q, sql in (
        ("How many people are there?", "SELECT COUNT(*) FROM person"),
        ("How many people are there?", "SELECT COUNT(*) FROM person WHERE 1"))]))
    env = {**os.environ, "PYTHONPATH": str(Path(sqlgrow.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", NO_NUMPY, str(seeds), str(db_dir), str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().splitlines()[-1] == "[False, False, False, False]"
    # the run deduplicated: the repeated seed question was removed
    assert (tmp_path / "out" / "dedup_removals.jsonl").read_text().count("\n") >= 1
