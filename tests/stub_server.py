"""Scriptable in-process chat-completions/embeddings endpoint for tests."""

from __future__ import annotations

import hashlib
import json
import re
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


def default_chat_responder(body: str, payload: dict) -> str:
    return json.dumps({"reasoning_in_English": "stub reasoning", "final_answer": "A"})


def echo_translation_responder(body: str, payload: dict) -> str:
    """Answer translation prompts by tagging the source text with the target."""
    key_match = re.search(r'"(\w+_translation)"', body)
    text_match = re.search(r'into \w+: "(.*)"\.\n', body, re.DOTALL)
    key = key_match.group(1) if key_match else "Unknown_translation"
    text = text_match.group(1) if text_match else "?"
    language = key.split("_")[0]
    return json.dumps({key: f"[{language}] {text}"}, ensure_ascii=False)


def hash_embedding(text: str, dim: int = 8) -> list[float]:
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return [digest[i] / 255.0 + 0.01 for i in range(dim)]


class StubServer:
    """Tiny HTTP server speaking the chat/embeddings wire format.

    Behavior is scripted per test: a queue of forced statuses (sent with a
    ``Retry-After`` header when ``retry_after`` is set), a hard fail switch
    after N successes, a predicate on the chat body that answers 500, a
    per-request latency, pluggable content responders, a raw 200 body
    (``raw_reply``, bytes sent as they are), a redirect (``redirect``, a
    status and a location) and a switch that closes every connection without
    a reply (``drop_connections``). Replies are JSON in UTF-8, non-ASCII
    characters unescaped. Every POST's headers and body are logged, every
    GET's headers too (``gets``; a GET is answered 405), and the peak number
    of requests in flight is kept. With
    ``hold_until_overlap`` set to a number of seconds, a request waits until
    the peak reaches 2 or that time passes, so a concurrent client's overlap
    shows however the host schedules its threads.
    """

    def __init__(
        self,
        chat_responder=default_chat_responder,
        embed_dim: int = 8,
        require_key: str | None = None,
        latency: float = 0.0,
    ):
        self.chat_responder = chat_responder
        self.embed_dim = embed_dim
        self.require_key = require_key
        self.latency = latency
        self.status_queue: list[int] = []
        self.retry_after: str | None = None
        self.fail_after: int | None = None
        self.fail_when = None  # callable(chat body) -> bool
        self.raw_chat_body: dict | None = None
        self.raw_embedding_body: dict | None = None
        self.raw_reply: bytes | None = None
        self.redirect: tuple[int, str] | None = None
        self.drop_connections = False
        self.hold_until_overlap: float | None = None
        self.lock = threading.Lock()
        self.overlap = threading.Condition(self.lock)
        self.requests: list[dict] = []
        self.gets: list[dict] = []
        self.successes = 0
        self.in_flight = 0
        self.peak_in_flight = 0

        stub = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args):  # quiet
                pass

            def do_GET(self):
                with stub.lock:
                    stub.gets.append({"path": self.path, "headers": dict(self.headers)})
                self.counted = False
                self._reply(405, {"error": "POST only"})

            def do_POST(self):
                with stub.lock:
                    stub.in_flight += 1
                    stub.peak_in_flight = max(stub.peak_in_flight, stub.in_flight)
                    stub.overlap.notify_all()
                    if stub.hold_until_overlap is not None:
                        stub.overlap.wait_for(lambda: stub.peak_in_flight > 1, stub.hold_until_overlap)
                self.counted = True
                try:
                    if stub.latency:
                        time.sleep(stub.latency)
                    self._handle()
                finally:
                    self._leave()

            def _leave(self):
                # A request leaves the in-flight count before its reply is
                # sent: the client may start its next request on receipt.
                with stub.lock:
                    if self.counted:
                        stub.in_flight -= 1
                        self.counted = False

            def _handle(self):
                length = int(self.headers.get("Content-Length", 0))
                payload = json.loads(self.rfile.read(length) or b"{}")
                with stub.lock:
                    stub.requests.append({"path": self.path, "payload": payload, "headers": dict(self.headers)})
                    forced = stub.status_queue.pop(0) if stub.status_queue else None
                    failing = stub.fail_after is not None and stub.successes >= stub.fail_after
                if stub.drop_connections:
                    return  # HTTP/1.0: the connection closes after a handler that sent nothing
                if stub.raw_reply is not None:
                    return self._reply(200, stub.raw_reply)
                if stub.require_key is not None:
                    auth = self.headers.get("Authorization", "")
                    if auth != f"Bearer {stub.require_key}":
                        return self._reply(401, {"error": "bad key"})
                if stub.redirect is not None:
                    status, location = stub.redirect
                    return self._reply(status, {"error": "moved"}, {"Location": location})
                if forced is not None:
                    headers = {} if stub.retry_after is None else {"Retry-After": stub.retry_after}
                    return self._reply(forced, {"error": f"forced status {forced}"}, headers)
                if failing:
                    return self._reply(500, {"error": "forced failure"})
                if self.path.endswith("/chat/completions"):
                    if stub.raw_chat_body is not None:
                        return self._reply(200, stub.raw_chat_body)
                    body = payload["messages"][0]["content"]
                    if stub.fail_when is not None and stub.fail_when(body):
                        return self._reply(500, {"error": "forced failure"})
                    content = stub.chat_responder(body, payload)
                    with stub.lock:
                        stub.successes += 1
                    return self._reply(
                        200, {"choices": [{"message": {"role": "assistant", "content": content}}]}
                    )
                if self.path.endswith("/embeddings"):
                    if stub.raw_embedding_body is not None:
                        return self._reply(200, stub.raw_embedding_body)
                    texts = payload["input"]
                    data = [
                        {"index": i, "embedding": hash_embedding(t, stub.embed_dim)}
                        for i, t in enumerate(texts)
                    ]
                    with stub.lock:
                        stub.successes += 1
                    return self._reply(200, {"data": data})
                return self._reply(404, {"error": "unknown path"})

            def _reply(self, status: int, body: dict | bytes, headers: dict[str, str] | None = None):
                raw = body if isinstance(body, bytes) else json.dumps(body, ensure_ascii=False).encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(raw)))
                for name, value in (headers or {}).items():
                    self.send_header(name, value)
                self._leave()
                self.end_headers()
                self.wfile.write(raw)

        self._server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        # shutdown() waits up to one poll interval; the default 0.5 s would add that to every test.
        self._thread = threading.Thread(target=self._server.serve_forever, args=(0.01,), daemon=True)

    @property
    def base_url(self) -> str:
        host, port = self._server.server_address
        return f"http://{host}:{port}"

    def chat_bodies(self) -> list[str]:
        with self.lock:
            return [
                r["payload"]["messages"][0]["content"]
                for r in self.requests
                if r["path"].endswith("/chat/completions")
            ]

    def __enter__(self) -> "StubServer":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._server.shutdown()
        self._server.server_close()
