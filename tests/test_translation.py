import json

import pytest

from langselect.gateway import GatewayError, ModelEndpoint
from langselect.languages import Language
from langselect.translation import ItemTranslationError, parse_translation, translate_item

from stub_server import StubServer, echo_translation_responder


@pytest.fixture
def translating_stub():
    with StubServer(chat_responder=echo_translation_responder) as server:
        yield server


def endpoint_for(stub):
    return ModelEndpoint(base_url=stub.base_url, model_name="translator", max_retries=1, timeout=5.0)


class TestTranslateItem:
    def test_same_language_is_copy_with_zero_calls(self, dress_code_item, translating_stub):
        result = translate_item(dress_code_item, Language.ENGLISH, endpoint_for(translating_stub))
        assert result == dress_code_item
        assert translating_stub.requests == []

    def test_translates_question_and_each_choice(self, dress_code_item, translating_stub):
        result = translate_item(
            dress_code_item, Language.HINDI, endpoint_for(translating_stub), backoff=0.001
        )
        assert len(translating_stub.requests) == 5  # question + 4 choices
        assert result.item_id == dress_code_item.item_id
        assert result.gold_label == dress_code_item.gold_label
        assert result.labels == dress_code_item.labels
        assert result.source_language is Language.HINDI
        assert result.question.startswith("[Hindi] ")
        assert dict(result.choices)["B"] == "[Hindi] black formal suit"
        assert result.country == dress_code_item.country

    def test_gold_label_preserved_with_fixed_stub_output(self, dress_code_item):
        with StubServer(chat_responder=echo_translation_responder) as stub:
            result = translate_item(dress_code_item, Language.SPANISH, endpoint_for(stub), backoff=0.001)
        assert result.gold_label == "B"
        assert dict(result.choices)["B"].endswith("black formal suit")

    def test_unparsable_field_reasks_once_then_fails(self, dress_code_item):
        calls = []

        def flaky(body, payload):
            calls.append(body)
            return "no json at all"

        with StubServer(chat_responder=flaky) as stub:
            with pytest.raises(ItemTranslationError) as info:
                translate_item(dress_code_item, Language.THAI, endpoint_for(stub), backoff=0.001)
        # 5 fields x (1 ask + 1 re-ask)
        assert len(calls) == 10
        assert info.value.failed_fields == ["question", "choice_A", "choice_B", "choice_C", "choice_D"]

    def test_partial_transport_failure_marks_item(self, dress_code_item):
        with StubServer(chat_responder=echo_translation_responder) as stub:
            stub.fail_after = 2
            endpoint = ModelEndpoint(base_url=stub.base_url, model_name="t", max_retries=0, timeout=5.0)
            with pytest.raises(ItemTranslationError) as info:
                translate_item(dress_code_item, Language.FRENCH, endpoint, backoff=0.001)
        assert len(info.value.failed_fields) == 3
        assert isinstance(info.value, GatewayError)  # run_bounded yields it as a failed task


class TestParseTranslation:
    def test_reads_language_key(self):
        raw = json.dumps({"Turkish_translation": "Soru metni"})
        assert parse_translation(raw, Language.TURKISH) == "Soru metni"

    def test_wrong_key_is_none(self):
        raw = json.dumps({"French_translation": "texte"})
        assert parse_translation(raw, Language.TURKISH) is None

    def test_empty_value_is_none(self):
        assert parse_translation(json.dumps({"Thai_translation": "  "}), Language.THAI) is None
        assert parse_translation("garbage", Language.THAI) is None
