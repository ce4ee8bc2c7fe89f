import re

import pytest

from langselect.config import ConfigError
from langselect.datasets import Choice, DatasetId, McqItem
from langselect.languages import Language
from langselect.prompts import (
    HashRegistry,
    PromptText,
    TemplateSet,
    build_reasoning_prompt,
    build_selection_prompt,
    build_translation_prompt,
    prompt_hash,
)

TEMPLATES = TemplateSet.bundled()

EXPECTED_EN_BODY = (
    "Question: What is the common dress code for school teachers in Azerbaijan?\n"
    "Answer choices:\n"
    "A. apron\n"
    "B. black formal suit\n"
    "C. uniform\n"
    "D. shirt\n"
    "\n"
    "Think about it in English, and then select one of the answer choices. Fill in the JSON below.\n"
    "{\n"
    '  "reasoning_in_English": "<your reasoning steps in English>",\n'
    '  "final_answer": "<output answer here>"\n'
    "}"
)

EXPECTED_TR_BODY = (
    "Soru: What is the common dress code for school teachers in Azerbaijan?\n"
    "Cevap seçenekleri:\n"
    "A. apron\n"
    "B. black formal suit\n"
    "C. uniform\n"
    "D. shirt\n"
    "\n"
    "Türkçe olarak düşünün ve ardından cevap seçeneklerinden birini seçin. Aşağıdaki JSON'u doldurun.\n"
    "{\n"
    '  "reasoning_in_Turkish": "<Türkçe akıl yürütme adımlarınız>",\n'
    '  "final_answer": "<çıktı cevabı buraya>"\n'
    "}"
)


class TestReasoningPrompt:
    def test_english_template_exact(self, dress_code_item):
        prompt = build_reasoning_prompt(dress_code_item, Language.ENGLISH, TEMPLATES)
        assert prompt.body == EXPECTED_EN_BODY
        assert prompt.language is Language.ENGLISH

    def test_turkish_template_exact(self, dress_code_item):
        prompt = build_reasoning_prompt(dress_code_item, Language.TURKISH, TEMPLATES)
        assert prompt.body == EXPECTED_TR_BODY

    def test_templates_exist_for_all_sixteen_languages(self, dress_code_item):
        for lang in Language:
            prompt = build_reasoning_prompt(dress_code_item, lang, TEMPLATES)
            assert f"reasoning_in_{lang.english_name}" in prompt.body
            assert '"final_answer"' in prompt.body

    def test_three_choice_item_lists_exactly_abc(self):
        item = McqItem(
            item_id="social_iqa/1",
            dataset_id=DatasetId.SOCIAL_IQA,
            question="How would you describe Sydney?",
            choices=(
                Choice("A", "sympathetic"),
                Choice("B", "like a person who was unable to help"),
                Choice("C", "incredulous"),
            ),
            gold_label="A",
        )
        prompt = build_reasoning_prompt(item, Language.ENGLISH, TEMPLATES)
        assert "A. sympathetic" in prompt.body
        assert "C. incredulous" in prompt.body
        assert "\nD." not in prompt.body

    def test_missing_template_errors(self, dress_code_item, tmp_path):
        import json as _json

        # Directory with only an English template.
        (tmp_path / "en.json").write_text(
            _json.dumps(
                {
                    "question_label": "Question:",
                    "choices_label": "Answer choices:",
                    "instruction": "Think.",
                    "reasoning_placeholder": "<r>",
                    "answer_placeholder": "<a>",
                }
            ),
            encoding="utf-8",
        )
        templates = TemplateSet.from_directory(tmp_path, [Language.ENGLISH])
        assert build_reasoning_prompt(dress_code_item, Language.ENGLISH, templates).body.startswith("Question: ")
        with pytest.raises(ConfigError, match=re.escape(f"{tmp_path}: no template for the languages ['th']")):
            TemplateSet.from_directory(tmp_path, [Language.ENGLISH, Language.THAI])


class TestSelectionPrompt:
    def test_lists_all_sixteen_names(self, dress_code_item):
        prompt = build_selection_prompt(dress_code_item, list(Language))
        for lang in Language:
            assert lang.english_name in prompt.body
        assert "best expert language" in prompt.body
        assert dress_code_item.question in prompt.body

    def test_singleton_language_list(self, dress_code_item):
        prompt = build_selection_prompt(dress_code_item, [Language.ENGLISH])
        assert "[English]" in prompt.body
        assert "Arabic" not in prompt.body

    def test_empty_language_list_rejected(self, dress_code_item):
        with pytest.raises(ValueError):
            build_selection_prompt(dress_code_item, [])


class TestTranslationPrompt:
    def test_turkish_key(self):
        prompt = build_translation_prompt("What is the capital of France?", Language.TURKISH)
        assert 'into Turkish: "What is the capital of France?"' in prompt.body
        assert '"Turkish_translation"' in prompt.body

    def test_english_target_still_builds(self):
        prompt = build_translation_prompt("x", Language.ENGLISH)
        assert '"English_translation"' in prompt.body

    def test_empty_text_rejected(self):
        with pytest.raises(ValueError):
            build_translation_prompt("", Language.THAI)


class TestPromptText:
    def test_rejects_empty_body(self):
        with pytest.raises(ValueError):
            PromptText(body="", language=Language.ENGLISH)


class TestPromptHash:
    def test_deterministic_and_model_scoped(self):
        assert prompt_hash("body", "m1") == prompt_hash("body", "m1")
        assert prompt_hash("body", "m1") != prompt_hash("body", "m2")
        assert prompt_hash("a", "m") != prompt_hash("b", "m")

    def test_registry_flags_fabricated_collision(self, monkeypatch):
        registry = HashRegistry()
        registry.check("body one", "m")
        monkeypatch.setattr("langselect.prompts.prompt_hash", lambda body, model: "same")
        registry2 = HashRegistry()
        registry2.check("body one", "m")
        with pytest.raises(RuntimeError, match="collision"):
            registry2.check("body two", "m")

    def test_registry_accepts_repeats(self):
        registry = HashRegistry()
        a = registry.check("body", "m")
        assert registry.check("body", "m") == a


def test_template_content_hashes_are_stable():
    first = TemplateSet.bundled().content_hashes()
    second = TemplateSet.bundled().content_hashes()
    assert first == second
    assert set(first) == {l.value for l in Language}
