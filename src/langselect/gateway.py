"""HTTP client for chat-completion and embedding endpoints.

Wire format is the common one: POST ``{base_url}/chat/completions`` with
``{model, messages, temperature, max_tokens}``, POST ``{base_url}/embeddings``
with ``{model, input}``. Transient failures (connection errors, 429, 5xx) are
retried with exponential backoff up to ``max_retries``, waiting at least as
long as a ``Retry-After`` header of whole seconds asks; auth and other client
errors surface immediately. ``urllib.request`` is imported at the first call, so
the offline commands (``simulate``, ``evaluate``, ``report``) never load it.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from typing import Sequence

from . import __version__
from .prompts import PromptText

_RETRYABLE_STATUS = frozenset({408, 429})


class GatewayError(RuntimeError):
    """Base class for endpoint failures; ``transport`` is set when retries ran out."""

    transport = False

    def __init__(self, message: str, attempts: int = 1):
        super().__init__(message)
        self.attempts = attempts


class AuthError(GatewayError):
    """Authentication or authorization failure; never retried."""


class TransportError(GatewayError):
    """Network-level failure or retryable status, after retries exhausted."""

    transport = True


@dataclass(frozen=True)
class ModelEndpoint:
    base_url: str
    model_name: str
    api_key_ref: str = ""
    max_retries: int = 3
    timeout: float = 60.0
    max_in_flight: int = 4

    def __post_init__(self) -> None:
        for name in ("base_url", "model_name", "api_key_ref"):
            if not isinstance(value := getattr(self, name), str):
                raise ValueError(f"{name} must be a string, not {value!r}")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.timeout <= 0:
            raise ValueError("timeout must be positive")
        if self.max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")

    def headers(self) -> dict[str, str]:
        headers = {"Content-Type": "application/json", "User-Agent": f"langselect/{__version__}"}  # some fronts refuse Python-urllib
        if self.api_key_ref:
            key = os.environ.get(self.api_key_ref)
            if not key:
                raise AuthError(f"api key environment variable {self.api_key_ref!r} is not set")
            headers["Authorization"] = f"Bearer {key}"
        return headers


@dataclass(frozen=True)
class ChatResponse:
    text: str
    attempts: int


def _post_json(url: str, payload: dict, endpoint: ModelEndpoint, backoff: float) -> tuple[dict, int]:
    """POST with retry policy; returns (parsed body, attempts used)."""
    import http.client  # here, not at the top: see the module docstring
    import urllib.error
    import urllib.request

    body = json.dumps(payload).encode("ascii")
    headers = endpoint.headers()
    for attempts in range(1, endpoint.max_retries + 2):
        if attempts > 1:
            time.sleep(wait)
        wait = backoff * 2 ** (attempts - 1)
        try:
            # A new Request for each attempt: a proxy rewrites the one it sends in place.
            request = urllib.request.Request(url, body)
            for name, value in headers.items():  # not sent on to where a redirect points, the key included
                request.add_unredirected_header(name, value)
            with urllib.request.urlopen(request, timeout=endpoint.timeout) as reply:
                status, raw = reply.status, reply.read()
        except urllib.error.HTTPError as exc:  # a 4xx, a 5xx or a redirect not followed; its body is not read
            exc.close()
            status, retry_after = exc.code, exc.headers.get("Retry-After", "").strip()
            wait = max(wait, int(retry_after) if retry_after.isdecimal() else 0)  # the HTTP-date form is ignored
        except (OSError, http.client.HTTPException, ValueError) as exc:  # ValueError: a URL or header refused
            last_error = f"{type(exc).__name__}: {exc}"
            continue
        if status == 200:
            try:
                return json.loads(raw), attempts
            except ValueError as exc:
                raise GatewayError(f"endpoint returned unparsable JSON: {exc}", attempts)
        if status in (401, 403):
            raise AuthError(f"authentication failed with status {status}", attempts)
        if status not in _RETRYABLE_STATUS and status < 500:
            raise GatewayError(f"endpoint rejected request with status {status}", attempts)
        last_error = f"status {status}"
    raise TransportError(f"request to {url} failed after {attempts} attempts ({last_error})", attempts)


def chat_complete(
    prompt: PromptText | str,
    endpoint: ModelEndpoint,
    *,
    backoff: float = 0.5,
) -> ChatResponse:
    """Send one chat completion and return the model's text."""
    body = prompt.body if isinstance(prompt, PromptText) else prompt
    payload = {
        "model": endpoint.model_name,
        "messages": [{"role": "user", "content": body}],
        "temperature": 0.0,
        "max_tokens": 1024,
    }
    data, attempts = _post_json(f"{endpoint.base_url.rstrip('/')}/chat/completions", payload, endpoint, backoff)
    try:
        text = data["choices"][0]["message"]["content"]
    except (KeyError, IndexError, TypeError):
        raise GatewayError("chat response missing choices[0].message.content", attempts)
    if not isinstance(text, str):
        raise GatewayError("chat response content is not text", attempts)
    return ChatResponse(text=text, attempts=attempts)


def embed_texts(texts: Sequence[str], endpoint: ModelEndpoint, *, backoff: float = 0.5) -> list[list[float]]:
    """Embed a batch of texts; returns one float vector per input, in order."""
    if not texts:
        return []
    payload = {"model": endpoint.model_name, "input": list(texts)}
    data, attempts = _post_json(f"{endpoint.base_url.rstrip('/')}/embeddings", payload, endpoint, backoff)
    try:
        rows = data["data"]
        rows = sorted(rows, key=lambda r: r.get("index", 0))
        vectors = [list(map(float, r["embedding"])) for r in rows]
    except (KeyError, TypeError, ValueError, AttributeError):  # AttributeError: an entry that is no object
        raise GatewayError("embedding response missing data[*].embedding", attempts)
    if len(vectors) != len(texts):
        raise GatewayError(f"embedding response has {len(vectors)} vectors for {len(texts)} inputs", attempts)
    if len({len(v) for v in vectors}) > 1:
        raise GatewayError("embedding response has vectors of different widths", attempts)
    return vectors
