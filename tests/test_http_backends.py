import json
import os
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import pytest

from sqlgrow.dedup import HttpEmbeddingBackend, embed_questions
from sqlgrow.errors import TransportError
from sqlgrow.gateway import DecodingParams, HttpChatBackend


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
def stub_server():
    _Handler.fail_first = 0
    _Handler.seen = []
    server = HTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()


def test_chat_backend_round_trip(stub_server):
    backend = HttpChatBackend(endpoint=f"{stub_server}/v1/chat/completions",
                              model="m1", api_key="sekrit")
    texts = backend.complete([{"role": "user", "content": "hi"}],
                             DecodingParams(temperature=0.5, n=2))
    assert texts == ["reply 0 to m1", "reply 1 to m1"]
    path, payload, auth = _Handler.seen[-1]
    assert payload["temperature"] == 0.5 and payload["n"] == 2
    assert auth == "Bearer sekrit"


def test_chat_backend_retries_then_succeeds(stub_server):
    _Handler.fail_first = 1
    backend = HttpChatBackend(endpoint=f"{stub_server}/v1/chat/completions",
                              model="m1", retries=2)
    texts = backend.complete([{"role": "user", "content": "hi"}], DecodingParams())
    assert texts == ["reply 0 to m1"]
    assert len(_Handler.seen) == 2  # one failure plus the success


def test_chat_backend_exhausts_retries(stub_server):
    _Handler.fail_first = 5
    backend = HttpChatBackend(endpoint=f"{stub_server}/v1/chat/completions",
                              model="m1", retries=1)
    with pytest.raises(TransportError):
        backend.complete([{"role": "user", "content": "hi"}], DecodingParams())


def test_embedding_backend_normalizes(stub_server):
    backend = HttpEmbeddingBackend(endpoint=f"{stub_server}/v1/embeddings",
                                   model="emb")
    vectors = embed_questions(["a", "b"], backend, instance_ids=["x", "y"])
    assert all(v.source == "external-embedder" for v in vectors)
    import numpy as np

    for v in vectors:
        assert np.linalg.norm(v.vector) == pytest.approx(1.0, abs=1e-9)
    # [1, 2, 2] normalizes to [1/3, 2/3, 2/3]
    assert vectors[0].vector[0] == pytest.approx(1 / 3)


def test_embedding_backend_failure_is_transport_error(stub_server):
    _Handler.fail_first = 10
    backend = HttpEmbeddingBackend(endpoint=f"{stub_server}/v1/embeddings",
                                   model="emb")
    with pytest.raises(TransportError):
        backend.embed(["q"])


def test_import_does_not_load_requests():
    # only the HTTP backends need requests, and they import it on first use
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    subprocess.run(
        [sys.executable, "-c",
         "import sqlgrow, sys; assert 'requests' not in sys.modules"],
        env=env, check=True,
    )
