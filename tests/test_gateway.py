import json
import time

import pytest

import langselect
from langselect.gateway import (
    AuthError,
    GatewayError,
    ModelEndpoint,
    TransportError,
    chat_complete,
    embed_texts,
)
from langselect.languages import Language
from langselect.translation import ItemTranslationError

from stub_server import StubServer


def endpoint_for(stub, **kwargs):
    defaults = dict(base_url=stub.base_url, model_name="stub-model", max_retries=3, timeout=5.0)
    defaults.update(kwargs)
    return ModelEndpoint(**defaults)


class TestEndpointValidation:
    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            ModelEndpoint(base_url="x", model_name="m", max_retries=-1)
        with pytest.raises(ValueError):
            ModelEndpoint(base_url="x", model_name="m", timeout=0)
        with pytest.raises(ValueError):
            ModelEndpoint(base_url="x", model_name="m", max_in_flight=0)


class TestChatComplete:
    def test_healthy_endpoint_returns_text(self, stub):
        result = chat_complete("hello", endpoint_for(stub), backoff=0.001)
        assert result.text
        assert result.attempts == 1
        sent = stub.requests[0]["payload"]
        assert sent["model"] == "stub-model"
        assert sent["messages"] == [{"role": "user", "content": "hello"}]
        assert sent["temperature"] == 0.0
        assert sent["max_tokens"] == 1024

    def test_retries_429_twice_then_succeeds(self, stub):
        stub.status_queue = [429, 429]
        result = chat_complete("hello", endpoint_for(stub), backoff=0.001)
        assert result.attempts == 3
        assert len(stub.requests) == 3

    def test_retries_500_then_gives_transport_error(self, stub):
        stub.status_queue = [500] * 10
        with pytest.raises(TransportError) as info:
            chat_complete("hello", endpoint_for(stub, max_retries=2), backoff=0.001)
        assert info.value.attempts == 3
        assert len(stub.requests) == 3

    def test_auth_error_is_immediate(self, monkeypatch):
        with StubServer(require_key="secret") as stub:
            monkeypatch.setenv("STUB_KEY", "wrong")
            endpoint = endpoint_for(stub, api_key_ref="STUB_KEY")
            with pytest.raises(AuthError) as info:
                chat_complete("hello", endpoint, backoff=0.001)
            assert info.value.attempts == 1
            assert len(stub.requests) == 1

    def test_missing_key_env_var_is_auth_error(self, stub, monkeypatch):
        monkeypatch.delenv("NO_SUCH_KEY", raising=False)
        endpoint = endpoint_for(stub, api_key_ref="NO_SUCH_KEY")
        with pytest.raises(AuthError):
            chat_complete("hello", endpoint, backoff=0.001)
        assert stub.requests == []

    def test_api_key_header_sent(self, monkeypatch):
        with StubServer(require_key="secret") as stub:
            monkeypatch.setenv("STUB_KEY", "secret")
            result = chat_complete("hello", endpoint_for(stub, api_key_ref="STUB_KEY"), backoff=0.001)
            assert result.attempts == 1

    def test_bad_request_not_retried(self, stub):
        stub.status_queue = [400]
        with pytest.raises(GatewayError) as info:
            chat_complete("hello", endpoint_for(stub), backoff=0.001)
        assert not isinstance(info.value, TransportError)
        assert len(stub.requests) == 1

    def test_unreachable_endpoint(self):
        endpoint = ModelEndpoint(
            base_url="http://127.0.0.1:1", model_name="m", max_retries=1, timeout=0.2
        )
        with pytest.raises(TransportError) as info:
            chat_complete("hello", endpoint, backoff=0.001)
        assert info.value.attempts == 2


class TestTransport:
    def test_a_200_whose_body_is_not_json_is_one_request_and_a_gateway_error(self, stub):
        stub.raw_reply = b"<html>busy</html>"
        with pytest.raises(GatewayError, match="unparsable JSON") as info:
            chat_complete("hello", endpoint_for(stub), backoff=0.001)
        assert not isinstance(info.value, TransportError)
        assert info.value.attempts == 1
        assert len(stub.requests) == 1

    def test_a_connection_closed_without_a_reply_is_retried_then_a_transport_error(self, stub):
        stub.drop_connections = True
        with pytest.raises(TransportError) as info:
            chat_complete("hello", endpoint_for(stub, max_retries=2), backoff=0.001)
        assert info.value.attempts == 3
        assert len(stub.requests) == 3

    def test_japanese_and_thai_prompts_and_a_non_ascii_reply_arrive_intact(self, stub):
        prompts = ["日本の首都はどこですか？", "ประเทศไทยมีเมืองหลวงชื่ออะไร"]
        stub.chat_responder = lambda body, payload: f"答え: {body} — คำตอบ"
        for prompt in prompts:
            assert chat_complete(prompt, endpoint_for(stub), backoff=0.001).text == f"答え: {prompt} — คำตอบ"
        assert stub.chat_bodies() == prompts

    def test_requests_carry_content_type_user_agent_and_the_key(self, monkeypatch):
        monkeypatch.setenv("STUB_KEY", "secret")
        with StubServer(require_key="secret") as stub:
            chat_complete("hello", endpoint_for(stub, api_key_ref="STUB_KEY"), backoff=0.001)
            embed_texts(["x"], endpoint_for(stub, api_key_ref="STUB_KEY"), backoff=0.001)
        for sent in stub.requests:
            headers = {name.lower(): value for name, value in sent["headers"].items()}
            assert headers["content-type"] == "application/json"
            assert headers["authorization"] == "Bearer secret"
            assert headers["user-agent"] == f"langselect/{langselect.__version__}"

    @pytest.mark.parametrize("status, followed", [(302, True), (307, False)])
    def test_a_redirect_is_followed_as_a_get_without_the_key_or_not_at_all(self, monkeypatch, status, followed):
        monkeypatch.setenv("STUB_KEY", "secret")
        with StubServer() as elsewhere, StubServer(require_key="secret") as stub:
            stub.redirect = (status, f"{elsewhere.base_url}/v1/chat/completions")
            with pytest.raises(GatewayError, match=f"rejected request with status {405 if followed else status}") as info:
                chat_complete("hello", endpoint_for(stub, api_key_ref="STUB_KEY"), backoff=0.001)
        assert info.value.attempts == 1 and len(stub.requests) == 1
        assert elsewhere.requests == []
        assert len(elsewhere.gets) == followed
        for get in elsewhere.gets:
            assert "authorization" not in {name.lower() for name in get["headers"]}

    def test_no_authorization_header_without_a_key(self, stub):
        chat_complete("hello", endpoint_for(stub), backoff=0.001)
        assert "authorization" not in {name.lower() for name in stub.requests[0]["headers"]}


class TestRetryAfter:
    @pytest.mark.parametrize(
        "retry_after, statuses, backoff, expected",
        [
            ("2", [429], 0.25, [2]),
            ("0", [429], 0.25, [0.25]),
            ("Wed, 21 Oct 2015 07:28:00 GMT", [429], 0.25, [0.25]),
            ("-1", [503], 0.25, [0.25]),
            (None, [429], 0.25, [0.25]),
            ("1", [429, 429], 0.75, [1, 1.5]),
        ],
    )
    def test_waits_the_longer_of_backoff_and_retry_after(
        self, stub, monkeypatch, retry_after, statuses, backoff, expected
    ):
        sleeps = []
        monkeypatch.setattr(time, "sleep", sleeps.append)
        stub.status_queue = list(statuses)
        stub.retry_after = retry_after
        result = chat_complete("hello", endpoint_for(stub), backoff=backoff)
        assert result.attempts == len(statuses) + 1
        assert sleeps == expected


class TestEmbeddings:
    def test_one_vector_per_input_in_order(self, stub):
        vectors = embed_texts(["alpha", "beta", "gamma"], endpoint_for(stub), backoff=0.001)
        assert len(vectors) == 3
        assert all(len(v) == 8 for v in vectors)
        again = embed_texts(["alpha"], endpoint_for(stub), backoff=0.001)
        assert again[0] == vectors[0]

    def test_empty_input_no_call(self, stub):
        assert embed_texts([], endpoint_for(stub)) == []
        assert stub.requests == []

    def test_wire_format(self, stub):
        embed_texts(["x"], endpoint_for(stub), backoff=0.001)
        payload = stub.requests[0]["payload"]
        assert payload == {"model": "stub-model", "input": ["x"]}
        assert stub.requests[0]["path"].endswith("/embeddings")


@pytest.mark.parametrize(
    "body",
    [
        pytest.param({"data": [[0.1, 0.2]]}, id="entry-a-list"),
        pytest.param({"data": {"a": 1}}, id="data-an-object"),
        pytest.param({"data": [{"embedding": [1.0]}, 5]}, id="entry-a-number"),
    ],
)
def test_embedding_entries_that_are_no_objects_are_a_gateway_error(stub, body):
    stub.raw_embedding_body = body
    with pytest.raises(GatewayError, match=r"data\[\*\]\.embedding"):
        embed_texts(["x", "y"], endpoint_for(stub), backoff=0.001)


def test_embeddings_of_different_widths_are_a_gateway_error(stub):
    stub.raw_embedding_body = {"data": [{"index": 0, "embedding": [1.0]}, {"index": 1, "embedding": [1.0, 2.0]}]}
    with pytest.raises(GatewayError, match="different widths"):
        embed_texts(["x", "y"], endpoint_for(stub), backoff=0.001)


def test_chat_response_missing_choices_is_gateway_error(stub):
    stub.raw_chat_body = {"unexpected": "shape"}
    with pytest.raises(GatewayError, match="choices"):
        chat_complete("x", endpoint_for(stub), backoff=0.001)


def test_custom_responder_round_trips(stub):
    stub.chat_responder = lambda body, payload: json.dumps({"echo": body})
    result = chat_complete("ping", endpoint_for(stub), backoff=0.001)
    assert json.loads(result.text) == {"echo": "ping"}


def test_only_a_transport_error_is_a_transport_failure():
    # run_bounded reads this flag to tell an unreachable endpoint (exit 4) from a partial run (exit 3).
    assert TransportError("down").transport is True
    assert GatewayError("rejected").transport is False
    assert AuthError("bad key").transport is False
    assert ItemTranslationError("q1", Language.THAI, "question").transport is False
    assert ItemTranslationError("q1", Language.THAI, "question", transport=True).transport is True
