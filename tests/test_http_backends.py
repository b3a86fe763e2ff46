import ast
import json
import os
import subprocess
import sys
import threading
import zlib
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import pytest
import requests

import fixtures
from sqlgrow import cli, gateway
from sqlgrow.dedup import embed_questions
from sqlgrow.errors import ResponseFormatError, TransportError
from sqlgrow.gateway import (
    MAX_TRIES,
    ROLES,
    DecodingParams,
    HttpChatBackend,
    HttpEmbeddingBackend,
    LlmGateway,
)
from sqlgrow.harness import ExecutionFeedback
from sqlgrow.operators import OperatorId, analyze
from sqlgrow.parser import parse_sql
from sqlgrow.pipeline import (
    RunConfig,
    SchemaRepo,
    build_embedder,
    build_gateway,
    ingest_seeds,
    run_eqe,
)

SRC = Path(__file__).resolve().parent.parent / "src"


class _Handler(BaseHTTPRequestHandler):
    server_version = "stub/0"
    fail_first = 0
    seen = []

    def do_POST(self):
        cls = type(self)
        length = int(self.headers.get("Content-Length", 0))
        payload = json.loads(self.rfile.read(length))
        cls.seen.append((self.path, payload, self.headers.get("Authorization")))
        if cls.fail_first > 0:
            cls.fail_first -= 1
            self.send_response(500)
            self.end_headers()
            return
        if self.path.endswith("/embeddings"):
            body = {"data": [{"embedding": [1.0, 2.0, 2.0]} for _ in payload["input"]]}
        else:
            n = payload.get("n", 1)
            body = {"choices": [
                {"message": {"content": f"reply {i} to {payload['model']}"}}
                for i in range(n)
            ]}
        data = json.dumps(body).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture()
def sleeps(monkeypatch):
    """The backoff waits the gateway asks for, recorded instead of slept."""
    waits = []
    monkeypatch.setattr(gateway.time, "sleep", waits.append)
    return waits


@pytest.fixture()
def stub_server():
    _Handler.fail_first = 0
    _Handler.seen = []
    server = HTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()
    server.server_close()


def test_chat_backend_round_trip(stub_server):
    backend = HttpChatBackend(endpoint=f"{stub_server}/v1/chat/completions",
                              model="m1", api_key="sekrit")
    texts = backend.complete([{"role": "user", "content": "hi"}],
                             DecodingParams(temperature=0.5, n=2))
    assert texts == ["reply 0 to m1", "reply 1 to m1"]
    path, payload, auth = _Handler.seen[-1]
    assert payload["temperature"] == 0.5 and payload["n"] == 2
    assert auth == "Bearer sekrit"


def test_chat_backend_retries_then_succeeds(stub_server, sleeps, olympics_schema,
                                            connections):
    _Handler.fail_first = 1
    backend = HttpChatBackend(endpoint=f"{stub_server}/v1/chat/completions",
                              model="m1")
    gw = LlmGateway(backends={"refine": backend})
    fb = ExecutionFeedback(ok=False, error="boom")
    assert gw.refine_sql("q", "SELECT 1", olympics_schema, fb,
                         connections["olympics"]) == "reply 0 to m1"
    assert len(_Handler.seen) == 2  # one failure plus the success
    assert sleeps == [0.5]


def test_chat_backend_exhausts_retries(stub_server, sleeps, olympics_schema, connections):
    _Handler.fail_first = 5
    backend = HttpChatBackend(endpoint=f"{stub_server}/v1/chat/completions",
                              model="m1")
    gw = LlmGateway(backends={"refine": backend})
    fb = ExecutionFeedback(ok=False, error="boom")
    with pytest.raises(TransportError):
        gw.refine_sql("q", "SELECT 1", olympics_schema, fb, connections["olympics"])
    assert len(_Handler.seen) == MAX_TRIES


def test_embedding_backend_normalizes(stub_server):
    backend = HttpEmbeddingBackend(endpoint=f"{stub_server}/v1/embeddings",
                                   model="emb")
    vectors = embed_questions(["a", "b"], backend)
    import numpy as np

    assert vectors.shape == (2, 3)
    assert np.linalg.norm(vectors, axis=1) == pytest.approx([1.0, 1.0], abs=1e-9)
    # [1, 2, 2] normalizes to [1/3, 2/3, 2/3]
    assert vectors[0] == pytest.approx([1 / 3, 2 / 3, 2 / 3])


def test_embedding_backend_failure_is_transport_error(stub_server, sleeps):
    _Handler.fail_first = 10
    backend = HttpEmbeddingBackend(endpoint=f"{stub_server}/v1/embeddings",
                                   model="emb")
    with pytest.raises(TransportError):
        backend.embed(["q"])
    assert len(_Handler.seen) == MAX_TRIES


# -- the retry bound, with requests.post patched ----------------------------

DOWN = requests.ConnectionError("synthetic outage")


class _Reply:
    def __init__(self, body):
        self.body = body

    def raise_for_status(self):
        pass

    def json(self):
        return self.body


def chat(*texts):
    return {"choices": [{"message": {"content": text}} for text in texts]}


EXPANSION = '{"question": "Q", "evidence": "", "gold_sql": "SELECT 1"}'


class _Posts(list):
    """Stands in for ``requests.post``: records each payload, answers from a script.

    A scripted exception is raised; anything else is the decoded JSON reply.
    """

    def __init__(self):
        super().__init__()
        self.outcomes = []

    def script(self, outcomes):
        self.outcomes.extend(outcomes)

    def __call__(self, endpoint, json=None, headers=None, timeout=None):
        self.append(json)
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return _Reply(outcome)


@pytest.fixture()
def posts(monkeypatch, sleeps):
    made = _Posts()
    monkeypatch.setattr(requests, "post", made)
    return made


def live(*roles):
    backend = HttpChatBackend(endpoint="http://model.invalid/v1", model="m")
    return LlmGateway(backends={role: backend for role in roles})


def select_1(schema):
    """The analysis of the parent ``SELECT 1``."""
    return analyze(parse_sql("SELECT 1"), schema)


def test_transport_failures_stop_after_max_tries(posts, sleeps, olympics_schema,
                                                 connections):
    posts.script([DOWN] * 10)
    with pytest.raises(TransportError):
        live("expand").generate_expansion("q", "", "SELECT 1", connections["olympics"],
                                          analysis=select_1(olympics_schema))
    assert len(posts) == MAX_TRIES == 3
    assert sleeps == [0.5, 1.0]


def test_format_failures_stop_after_max_tries(posts, sleeps, olympics_schema,
                                              connections):
    posts.script([chat("no json here")] * 10)
    with pytest.raises(ResponseFormatError):
        live("evolve").generate_evolution("q", "", "SELECT 1", OperatorId.SET,
                                          connections["olympics"],
                                          analysis=select_1(olympics_schema))
    assert len(posts) == 3
    assert sleeps == []  # a malformed reply is resampled at once


def test_mixed_failures_share_one_bound(posts, sleeps, olympics_schema, connections):
    posts.script([DOWN, chat("no json here"), chat(EXPANSION), chat(EXPANSION)])
    result = live("expand").generate_expansion("q", "", "SELECT 1", connections["olympics"],
                                               analysis=select_1(olympics_schema))
    assert result.sql == "SELECT 1"
    assert len(posts) == 3
    assert sleeps == [0.5]


@pytest.mark.parametrize("reply", [{}, {"choices": []}, {"choices": [{}]}, []])
def test_reply_without_choices_is_a_transport_failure(posts, olympics_schema, reply):
    posts.script([reply] * 3)
    with pytest.raises(TransportError):
        live("teach").generate_cot_candidates("q", "", olympics_schema, 2, "SELECT 1")
    assert len(posts) == 3


def test_strategy_scoring_is_bounded(posts, olympics_schema):
    posts.script([chat("no array")] * 10)
    with pytest.raises(ResponseFormatError):
        live("strategize").score_feasibility_llm("q", "SELECT 1", olympics_schema)
    assert len(posts) == 3


def test_candidate_posts_at_most_three_per_attempt(posts, db_dir, tmp_path):
    # the expansion and each of the (max_attempts - 1) refinements succeed
    # only on their last try, and every draft misses the schema in a new way,
    # so no revision repeats the text it revises
    seeds = tmp_path / "seeds.json"
    question, sql = fixtures.SEED_QUESTIONS["olympics"][0]
    seeds.write_text(json.dumps(
        [{"question": question, "SQL": sql, "db_id": "olympics"}]))
    broken = '{"question": "Q", "evidence": "", "gold_sql": "SELECT nosuch0 FROM games"}'
    cfg = RunConfig(global_seed=3, max_attempts=3)
    posts.script([DOWN, DOWN, chat(broken)] + [
        step for n in range(1, cfg.max_attempts)
        for step in (DOWN, DOWN, chat(f"```sql\nSELECT nosuch{n} FROM games\n```"))])
    repo = SchemaRepo(db_dir)
    try:
        parents, _ = ingest_seeds(seeds, repo)
        rejections = []
        assert run_eqe(parents, cfg, repo, live("expand", "refine"), rejections) == []
    finally:
        repo.close()
    assert len(posts) == MAX_TRIES * cfg.max_attempts == 9
    assert [r["stage"] for r in rejections] == ["EQE"]


def test_a_refiner_reply_without_sql_is_one_rejection(posts, sleeps, db_dir, tmp_path):
    seeds = tmp_path / "seeds.json"
    question, sql = fixtures.SEED_QUESTIONS["olympics"][0]
    seeds.write_text(json.dumps(
        [{"question": question, "SQL": sql, "db_id": "olympics"}]))
    broken = '{"question": "Q", "evidence": "", "gold_sql": "SELECT nosuch FROM games"}'
    posts.script([chat(broken)] + [chat(" \n")] * MAX_TRIES)
    repo = SchemaRepo(db_dir)
    try:
        parents, _ = ingest_seeds(seeds, repo)
        rejections = []
        assert run_eqe(parents, RunConfig(global_seed=3), repo,
                       live("expand", "refine"), rejections) == []
    finally:
        repo.close()
    assert len(posts) == 1 + MAX_TRIES and sleeps == []  # resampled at once
    assert rejections == [{"stage": "EQE", "parent": parents[0].id,
                           "reason": "refiner returned no SQL"}]


def test_embedder_retries_a_transport_failure(posts, sleeps):
    posts.script([DOWN, {"data": [{"embedding": [3.0, 4.0]}]}])
    backend = HttpEmbeddingBackend(endpoint="http://model.invalid/v1", model="e")
    vectors = embed_questions(["q"], backend)
    assert vectors.tolist() == [pytest.approx([0.6, 0.8])]
    assert len(posts) == 2 and sleeps == [0.5]
    assert posts[0] == {"model": "e", "input": ["q"]}


@pytest.mark.parametrize("entry", [None, True, "x", float("nan"), float("inf"),
                                   -float("inf"), 10**400])
def test_an_embedding_entry_that_is_not_a_finite_number_is_retried(posts, sleeps, entry):
    posts.script([{"data": [{"embedding": [1.0, entry]}]},
                  {"data": [{"embedding": [3.0, 4.0]}]}])
    backend = HttpEmbeddingBackend(endpoint="http://model.invalid/v1", model="e")
    assert backend.embed(["q"]) == [[3.0, 4.0]]
    assert len(posts) == 2
    posts.script([{"data": [{"embedding": [entry, 0.0]}]}] * MAX_TRIES)
    with pytest.raises(TransportError, match="not a finite number"):
        backend.embed(["q"])
    assert len(posts) == 2 + MAX_TRIES


def test_gateway_and_embedder_built_from_config(monkeypatch):
    monkeypatch.setenv("SQLGROW_TEST_TOKEN", "sk-test-secret")
    chat = "http://model.invalid/v1/chat/completions"
    cfg = RunConfig(
        backends={role: {"endpoint": chat, "model": f"m-{role}",
                         "api_key_env": "SQLGROW_TEST_TOKEN"} for role in ROLES},
        embedder={"endpoint": "http://model.invalid/v1/embeddings", "model": "e",
                  "api_key_env": "SQLGROW_TEST_TOKEN"})
    cfg.validate()
    assert build_gateway(cfg).backends == {
        role: HttpChatBackend(chat, f"m-{role}", "sk-test-secret") for role in ROLES}
    assert build_embedder(cfg) == HttpEmbeddingBackend(
        "http://model.invalid/v1/embeddings", "e", "sk-test-secret")
    echo = cfg.echo()
    assert echo["backends"] == {role: {"model": f"m-{role}"} for role in ROLES}
    assert echo["embedder"] == {"model": "e"}
    assert "sk-test-secret" not in json.dumps(echo)


def test_backend_without_a_key_variable_sends_no_key():
    cfg = RunConfig(backends={"teach": {"endpoint": "http://model.invalid/v1"}})
    cfg.validate()
    assert build_gateway(cfg).backends == {
        "teach": HttpChatBackend("http://model.invalid/v1", "", "")}
    assert build_embedder(cfg) is None


def test_only_gateway_imports_requests_and_only_in_functions():
    # one module speaks the wire protocol, and importing it stays light
    importers = {}
    for path in sorted((SRC / "sqlgrow").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        in_function = {
            id(node)
            for fn in ast.walk(tree)
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(fn)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "requests" for name in names):
                importers.setdefault(path.name, []).append(id(node) in in_function)
    assert list(importers) == ["gateway.py"]
    assert all(importers["gateway.py"])


def test_import_does_not_load_requests():
    # only the HTTP backends need requests, and they import it on first use
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    subprocess.run(
        [sys.executable, "-c",
         "import sqlgrow, sys; assert 'requests' not in sys.modules"],
        env=env, check=True,
    )


# -- a whole run through the HTTP backends ---------------------------------------

def _section(prompt, header):
    """The text under a template's ``header`` line, up to the next blank line."""
    return prompt.split(f"\n{header}\n", 1)[1].split("\n\n", 1)[0]


class _ScriptedModel:
    """Stands in for ``requests.post`` for a whole run: each role, named by
    its model in the config, answers from a small script.

    The teacher sees no gold SQL, so the script keeps each question's SQL
    as the expansion and evolution prompts and replies show it. Seed
    ``malformed`` gets expansion replies with no JSON, seed ``deferred``
    teacher samples with no code block, and seed ``broken`` an expansion
    whose SQL names a column that does not exist, which the refiner mends.
    """

    def __init__(self, seeds, malformed, deferred, broken):
        self.sql_of = dict(seeds)
        self.malformed, self.deferred, self.broken = malformed, deferred, broken
        self.posts = []  # (model, Authorization header) per post
        self.scored = False

    def __call__(self, endpoint, json=None, headers=None, timeout=None):
        model = json["model"]
        self.posts.append((model, headers.get("Authorization")))
        if model == "embed":
            if len(self.posts) == 1 or self.posts[-2][0] != "embed":
                raise DOWN  # the first post of each embedding call
            return _Reply({"data": [{"embedding": self._vector(q)} for q in json["input"]]})
        prompt = json["messages"][0]["content"]
        return _Reply(chat(*getattr(self, model)(prompt)))

    @staticmethod
    def _vector(question):
        # questions are orthogonal unless their crc32s meet modulo 16
        vector = [0.0] * 16
        vector[zlib.crc32(question.encode("utf-8")) % 16] = 1.0
        return vector

    def _child(self, question, sql):
        self.sql_of[question] = sql
        return [json.dumps({"question": question, "evidence": "", "gold_sql": sql})]

    def expand(self, prompt):
        question, sql = _section(prompt, "Question"), _section(prompt, "Gold SQL")
        if question == self.malformed:
            return ["no json here"]
        child = self._child(f"Rephrased: {question}", sql)
        if question == self.broken:
            return [child[0].replace(sql, sql.replace("season", "seasn", 1))]
        return child

    def evolve(self, prompt):
        question, sql = _section(prompt, "Question"), _section(prompt, "Gold SQL")
        return self._child(f"{question} How many rows?", f"SELECT COUNT(*) FROM ({sql})")

    def refine(self, prompt):
        return [f"```sql\n{self.sql_of[_section(prompt, 'Question')]}\n```"]

    def strategize(self, prompt):
        if not self.scored:  # the first reply is malformed, and resampled
            self.scored = True
            return ["no array"]
        return [json.dumps([{"operator": name, "score": 0.5} for name in (
            "Functional Wrapping", "Logical Clause Expansion", "Set Composition")])]

    def teach(self, prompt):
        question = _section(prompt, "Question")
        if question == self.deferred:
            return ["I cannot show the query."] * 2
        return ["I will not show code here.",
                f"1. Read the schema.\n2. Final query:\n```sql\n{self.sql_of[question]}\n```"]


def test_a_run_through_every_http_backend(tmp_path, db_dir, sleeps, monkeypatch):
    key = "sk-live-path-secret"
    monkeypatch.setenv("SQLGROW_LIVE_KEY", key)
    seeds = fixtures.SEED_QUESTIONS["olympics"][:4]
    (malformed, _), (deferred, _), (broken, _) = seeds[0], seeds[1], seeds[2]
    seed_file = tmp_path / "seeds.json"
    seed_file.write_text(json.dumps(
        [{"question": q, "SQL": sql, "db_id": "olympics"} for q, sql in seeds]))
    endpoint = "http://model.invalid/v1"
    config = tmp_path / "run.json"
    out = tmp_path / "out"
    config.write_text(json.dumps({
        "seeds": str(seed_file), "db_dir": str(db_dir), "out_dir": str(out),
        "rounds": 1, "cot_n": 2, "global_seed": 5,
        "backends": {role: {"endpoint": f"{endpoint}/chat/completions", "model": role,
                            "api_key_env": "SQLGROW_LIVE_KEY"} for role in ROLES},
        "embedder": {"endpoint": f"{endpoint}/embeddings", "model": "embed",
                     "api_key_env": "SQLGROW_LIVE_KEY"}}))
    model = _ScriptedModel(seeds, malformed, deferred, broken)
    monkeypatch.setattr(requests, "post", model)
    parsed = set()
    for name in ("_parse_expansion", "_parse_refined", "_parse_scores", "_parse_cot",
                 "_embedding_rows"):
        parse = getattr(gateway, name)
        monkeypatch.setattr(gateway, name,
                            lambda *a, _name=name, _parse=parse: parsed.add(_name) or _parse(*a))
    posts_per_call = []
    with_retries = gateway._with_retries

    def counted(call):
        before = len(model.posts)
        try:
            return with_retries(call)
        finally:
            posts_per_call.append(len(model.posts) - before)

    monkeypatch.setattr(gateway, "_with_retries", counted)

    assert cli.main(["run", "--config", str(config)]) == 0

    assert {m for m, _ in model.posts} == {*ROLES, "embed"}
    assert parsed == {"_parse_expansion", "_parse_refined", "_parse_scores", "_parse_cot",
                      "_embedding_rows"}
    assert 1 <= min(posts_per_call) and max(posts_per_call) == MAX_TRIES
    assert sum(posts_per_call) == len(model.posts)
    assert {auth for _, auth in model.posts} == {f"Bearer {key}"}
    rejections = [json.loads(line)
                  for line in (out / "rejections.jsonl").read_text().splitlines()]
    assert {"stage": "EQE", "parent": "seed-0000",
            "reason": "no JSON object found in model response"} in rejections
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["cot"]["deferred"] == 1
    assert manifest["dedup"]["embedding_source"] == "external-embedder"
    dataset = {row["id"]: row for row in map(
        json.loads, (out / "dataset.jsonl").read_text().splitlines())}
    assert dataset["seed-0002/e0"]["sql"] == seeds[2][1]  # the refiner's repair
    assert deferred not in {row["question"] for row in dataset.values()}
    assert any(row["stage"] == "OGE-1" for row in dataset.values())
    assert cli.main(["verify", "--dataset", str(out / "dataset.jsonl"),
                     "--db-dir", str(db_dir)]) == 0
    for path in out.rglob("*"):
        if path.is_file():
            assert key not in path.read_text(), path
