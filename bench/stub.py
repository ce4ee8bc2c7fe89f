"""Stub chat/embeddings endpoint for the live-stages workload, run as its own
process.

It speaks the wire format ``langselect.gateway`` uses:
``POST /v1/chat/completions`` and ``POST /v1/embeddings``. Every request
sleeps a fixed latency before it is answered. Answers are derived from a hash
of the prompt:

- translation prompts get an echo tagged with the target language;
- reasoning prompts get a reasoning string and a hashed choice letter, so the
  matrix has varied correctness;
- selection prompts get a hashed pick from the offered languages;
- embedding requests get hashed vectors.

Requests are counted per kind (translate, infer, select, embed). The n-th
request of a kind, for n a multiple of ``FAULT_EVERY``, gets a retryable
429 or 503 (alternating) instead of an answer. ``GET /stats`` returns the
counts, faults and server busy time per kind.

Usage: ``python3 stub.py``. The first line printed is ``{"port": <port>}``;
SIGTERM stops the server.
"""

from __future__ import annotations

import hashlib
import json
import re
import signal
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

KINDS = ("translate", "infer", "select", "embed")
LATENCY_MS = 30.0
FAULT_EVERY = 10
EMBED_DIM = 64

_TRANSLATION_KEY = re.compile(r'"(\w+)_translation"')
_TRANSLATION_TEXT = re.compile(r'into [^:\n]+: "(.*)"\.\n', re.DOTALL)
_REASONING_KEY = re.compile(r'"(reasoning_in_\w+)"')
_CHOICE_LINE = re.compile(r"^([A-Z])\. ", re.MULTILINE)
_OFFERED = re.compile(r"From the following languages:\n\[(.*?)\]")


def digest(text: str) -> int:
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "big")


def classify(path: str, body: str) -> str:
    if path.endswith("/embeddings"):
        return "embed"
    if body.startswith("Translate ONLY"):
        return "translate"
    if "best expert language" in body:
        return "select"
    return "infer"


def chat_answer(kind: str, body: str) -> str:
    h = digest(body)
    if kind == "translate":
        key = _TRANSLATION_KEY.search(body)
        text = _TRANSLATION_TEXT.search(body)
        language = key.group(1) if key else "Unknown"
        return json.dumps(
            {f"{language}_translation": f"[{language}] {text.group(1) if text else '?'}"},
            ensure_ascii=False,
        )
    if kind == "select":
        offered = _OFFERED.search(body)
        names = offered.group(1).split(", ") if offered else ["English"]
        return json.dumps({"expert_language": names[h % len(names)]})
    key = _REASONING_KEY.search(body)
    letters = _CHOICE_LINE.findall(body) or ["A"]
    return json.dumps(
        {
            key.group(1) if key else "reasoning_in_English": f"stub reasoning {h % 9973}",
            "final_answer": letters[h % len(letters)],
        },
        ensure_ascii=False,
    )


def embedding(text: str, dim: int) -> list[float]:
    out: list[float] = []
    block = 0
    while len(out) < dim:
        raw = hashlib.sha256(f"{block}:{text}".encode("utf-8")).digest()
        out.extend(b / 255.0 - 0.5 for b in raw)
        block += 1
    out = out[:dim]
    out[0] += 1.0  # keeps every vector away from zero norm
    return out


class Stats:
    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.requests = dict.fromkeys(KINDS, 0)
        self.faults = dict.fromkeys(KINDS, 0)
        self.busy_s = dict.fromkeys(KINDS, 0.0)

    def admit(self, kind: str) -> int | None:
        """Count one request; return the fault status it gets, if any."""
        with self.lock:
            self.requests[kind] += 1
            n = self.requests[kind]
            if n % FAULT_EVERY == 0:
                self.faults[kind] += 1
                return 429 if (n // FAULT_EVERY) % 2 else 503
        return None

    def busy(self, kind: str, seconds: float) -> None:
        with self.lock:
            self.busy_s[kind] += seconds

    def snapshot(self) -> dict:
        with self.lock:
            return {"requests": dict(self.requests), "faults": dict(self.faults), "busy_s": dict(self.busy_s)}


def make_handler(stats: Stats):
    class Handler(BaseHTTPRequestHandler):
        def log_message(self, *args):
            pass

        def do_GET(self):
            if self.path == "/stats":
                return self._reply(200, stats.snapshot())
            return self._reply(404, {"error": "unknown path"})

        def do_POST(self):
            began = time.perf_counter()
            length = int(self.headers.get("Content-Length", 0))
            payload = json.loads(self.rfile.read(length) or b"{}")
            body = "" if self.path.endswith("/embeddings") else payload["messages"][0]["content"]
            kind = classify(self.path, body)
            fault = stats.admit(kind)
            time.sleep(LATENCY_MS / 1000.0)
            if fault is not None:
                self._reply(fault, {"error": f"scheduled status {fault}"}, retry_after=True)
            elif kind == "embed":
                data = [{"index": i, "embedding": embedding(t, EMBED_DIM)} for i, t in enumerate(payload["input"])]
                self._reply(200, {"data": data})
            else:
                content = chat_answer(kind, body)
                self._reply(200, {"choices": [{"message": {"role": "assistant", "content": content}}]})
            stats.busy(kind, time.perf_counter() - began)

        def _reply(self, status: int, body: dict, retry_after: bool = False):
            raw = json.dumps(body).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(raw)))
            if retry_after:
                self.send_header("Retry-After", "0")
            self.end_headers()
            self.wfile.write(raw)

    return Handler


def main() -> int:
    stats = Stats()
    server = ThreadingHTTPServer(("127.0.0.1", 0), make_handler(stats))
    server.daemon_threads = True

    def stop(signum, frame):
        threading.Thread(target=server.shutdown, daemon=True).start()

    signal.signal(signal.SIGTERM, stop)
    print(json.dumps({"port": server.server_address[1]}), flush=True)
    try:
        server.serve_forever(poll_interval=0.05)
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
