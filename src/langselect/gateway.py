"""HTTP client for chat-completion and embedding endpoints.

Wire format is the common one: POST ``{base_url}/chat/completions`` with
``{model, messages, temperature, max_tokens}``, POST ``{base_url}/embeddings``
with ``{model, input}``. Transient failures (connection errors, 429, 5xx) are
retried with exponential backoff up to ``max_retries``, waiting at least as
long as a ``Retry-After`` header of whole seconds asks; auth and other client
errors surface immediately.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Sequence

import requests

from .prompts import PromptText

_RETRYABLE_STATUS = frozenset({408, 429})


class GatewayError(RuntimeError):
    """Base class for endpoint failures."""

    def __init__(self, message: str, attempts: int = 1):
        super().__init__(message)
        self.attempts = attempts


class AuthError(GatewayError):
    """Authentication or authorization failure; never retried."""


class TransportError(GatewayError):
    """Network-level failure or retryable status, after retries exhausted."""


@dataclass(frozen=True)
class ModelEndpoint:
    base_url: str
    model_name: str
    api_key_ref: str = ""
    max_retries: int = 3
    timeout: float = 60.0
    max_in_flight: int = 4

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.timeout <= 0:
            raise ValueError("timeout must be positive")
        if self.max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")

    def headers(self) -> dict[str, str]:
        headers = {"Content-Type": "application/json"}
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


def _retry_after_s(response: requests.Response) -> int:
    """The delay a ``Retry-After`` header asks for, in whole seconds.

    0 when the header is absent or not a non-negative integer; the HTTP-date
    form is ignored.
    """
    value = response.headers.get("Retry-After", "").strip()
    return int(value) if value.isdecimal() else 0


def _post_json(url: str, payload: dict, endpoint: ModelEndpoint, backoff: float) -> tuple[dict, int]:
    """POST with retry policy; returns (parsed body, attempts used)."""
    headers = endpoint.headers()
    attempts = 0
    last_error = "no attempt made"
    for attempt in range(endpoint.max_retries + 1):
        attempts += 1
        wait = backoff * (2**attempt)
        try:
            response = requests.post(url, json=payload, headers=headers, timeout=endpoint.timeout)
        except requests.RequestException as exc:
            last_error = f"{type(exc).__name__}: {exc}"
        else:
            status = response.status_code
            if status == 200:
                try:
                    return response.json(), attempts
                except ValueError as exc:
                    raise GatewayError(f"endpoint returned unparsable JSON: {exc}", attempts)
            if status in (401, 403):
                raise AuthError(f"authentication failed with status {status}", attempts)
            if status in _RETRYABLE_STATUS or status >= 500:
                last_error = f"status {status}"
                wait = max(wait, _retry_after_s(response))
            else:
                raise GatewayError(f"endpoint rejected request with status {status}", attempts)
        if attempt < endpoint.max_retries:
            time.sleep(wait)
    raise TransportError(f"request to {url} failed after {attempts} attempts ({last_error})", attempts)


def chat_complete(
    prompt: PromptText | str,
    endpoint: ModelEndpoint,
    *,
    temperature: float = 0.0,
    max_output_tokens: int = 1024,
    backoff: float = 0.5,
) -> ChatResponse:
    """Send one chat completion and return the model's text."""
    body = prompt.body if isinstance(prompt, PromptText) else prompt
    payload = {
        "model": endpoint.model_name,
        "messages": [{"role": "user", "content": body}],
        "temperature": temperature,
        "max_tokens": max_output_tokens,
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
    except (KeyError, TypeError, ValueError):
        raise GatewayError("embedding response missing data[*].embedding", attempts)
    if len(vectors) != len(texts):
        raise GatewayError(f"embedding response has {len(vectors)} vectors for {len(texts)} inputs", attempts)
    return vectors
