"""Prompt builders: per-language reasoning prompts, expert-language selection,
and translation requests.

Reasoning prompts are assembled from per-language template files (JSON, keyed
by language code). Each template localizes the question/choices labels, the
think-in-this-language instruction, and the two placeholder strings; the JSON
skeleton keys are always ``reasoning_key(language)`` (``REASONING_KEY_PREFIX``
and the English name) and ``FINAL_ANSWER_KEY``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields
from importlib import resources
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .datasets import McqItem
from .languages import Language, UnknownLanguageError, parse_language
from .store import read_json

REASONING_KEY_PREFIX = "reasoning_in_"
FINAL_ANSWER_KEY = "final_answer"
EXPERT_LANGUAGE_KEY = "expert_language"


@dataclass(frozen=True)
class PromptText:
    body: str
    language: Language

    def __post_init__(self) -> None:
        if not self.body:
            raise ValueError("prompt body is empty")


@dataclass(frozen=True)
class PromptTemplate:
    language: Language
    question_label: str
    choices_label: str
    instruction: str
    reasoning_placeholder: str
    answer_placeholder: str


_TEMPLATE_FIELDS = tuple(f.name for f in fields(PromptTemplate) if f.name != "language")


class TemplateSet:
    """Reasoning-prompt templates for a set of languages."""

    def __init__(self, templates: Mapping[Language, PromptTemplate]):
        self._templates = dict(templates)

    def get(self, language: Language) -> PromptTemplate:
        return self._templates[language]

    def content_hashes(self) -> dict[str, str]:
        """Per-language sha256 of template content, for provenance snapshots."""
        out = {}
        for lang, tpl in sorted(self._templates.items(), key=lambda kv: kv[0].value):
            payload = json.dumps(
                {f: getattr(tpl, f) for f in _TEMPLATE_FIELDS}, ensure_ascii=False, sort_keys=True
            )
            out[lang.value] = hashlib.sha256(payload.encode("utf-8")).hexdigest()
        return out

    @classmethod
    def from_directory(cls, directory: str | Path, languages: Iterable[Language]) -> "TemplateSet":
        """The ``{code}.json`` template files in ``directory``, each a JSON object of the five string
        fields, one for each of ``languages`` at least; ConfigError naming the first file named for no
        language code or not such an object, or the directory if it lacks one of ``languages``."""
        from .config import ConfigError  # config imports this module

        directory = Path(directory)
        templates: dict[Language, PromptTemplate] = {}
        for path in sorted(directory.glob("*.json")):
            data = read_json(path, ConfigError)
            try:
                language = parse_language(path.stem)
            except UnknownLanguageError as exc:
                raise ConfigError(f"{path}: not a template: {exc}") from None
            bad = [f for f in _TEMPLATE_FIELDS if not isinstance(data.get(f), str)]
            if bad:
                raise ConfigError(f"{path}: template fields {bad} missing or not strings")
            templates[language] = PromptTemplate(language, **{f: data[f] for f in _TEMPLATE_FIELDS})
        untemplated = [language.value for language in languages if language not in templates]
        if untemplated:
            raise ConfigError(f"{directory}: no template for the languages {untemplated}")
        return cls(templates)

    @classmethod
    def bundled(cls) -> "TemplateSet":
        """The templates shipped with the package, one for each language."""
        with resources.as_file(resources.files("langselect") / "templates") as directory:
            return cls.from_directory(directory, Language)


def reasoning_key(language: Language) -> str:
    return f"{REASONING_KEY_PREFIX}{language.english_name}"


def build_reasoning_prompt(item: McqItem, language: Language, templates: TemplateSet) -> PromptText:
    """Prompt asking the model to reason in ``language`` and answer the MCQ.

    The item is expected to already be phrased in ``language``; the template
    only localizes the instruction scaffolding around it.
    """
    tpl = templates.get(language)
    key = reasoning_key(language)
    choice_lines = "\n".join(f"{c.label}. {c.text}" for c in item.choices)
    body = (
        f"{tpl.question_label} {item.question}\n"
        f"{tpl.choices_label}\n"
        f"{choice_lines}\n"
        f"\n"
        f"{tpl.instruction}\n"
        f"{{\n"
        f'  "{key}": "{tpl.reasoning_placeholder}",\n'
        f'  "{FINAL_ANSWER_KEY}": "{tpl.answer_placeholder}"\n'
        f"}}"
    )
    return PromptText(body=body, language=language)


def build_selection_prompt(item: McqItem, languages: Sequence[Language]) -> PromptText:
    """Prompt asking the model to pick the best expert language for a question."""
    if not languages:
        raise ValueError("languages must be non-empty")
    names = ", ".join(lang.english_name for lang in languages)
    body = (
        "An expert language is the language from the provided list that is most "
        "appropriate and informative for answering the given question (e.g., "
        "because the question is about a culture, region, or source where that "
        "language is dominant, or because that language has the richest knowledge "
        "base for the topic).\n"
        "\n"
        f"From the following languages:\n"
        f"[{names}]\n"
        ", determine which one is the best expert language for answering the question below.\n"
        "\n"
        f"Question: {item.question}\n"
        "Fill out your language expert in the below JSON format:\n"
        "{\n"
        f' "{EXPERT_LANGUAGE_KEY}": "<the expert language from the above list>"\n'
        "}"
    )
    return PromptText(body=body, language=item.source_language)


def translation_key(target: Language) -> str:
    return f"{target.english_name}_translation"


def build_translation_prompt(text: str, target: Language) -> PromptText:
    """Prompt asking for a JSON-wrapped translation of one text field."""
    if not text:
        raise ValueError("text must be non-empty")
    name = target.english_name
    key = translation_key(target)
    body = (
        f'Translate ONLY the following question into {name}: "{text}".\n'
        "\n"
        "ONLY output the translation in the following JSON format:\n"
        "{\n"
        f'    "{key}": <output the translated input here>.\n'
        "}"
    )
    return PromptText(body=body, language=target)


def prompt_hash(body: str, model_name: str) -> str:
    """Deterministic digest keying one (prompt, model) pair in the run store."""
    return hashlib.sha256(f"{model_name}\n{body}".encode("utf-8")).hexdigest()


class HashRegistry:
    """In-run tripwire: two distinct prompt bodies must never share a hash."""

    def __init__(self) -> None:
        self._seen: dict[str, str] = {}

    def check(self, body: str, model_name: str) -> str:
        digest = prompt_hash(body, model_name)
        key = f"{model_name}\n{body}"
        previous = self._seen.setdefault(digest, key)
        if previous != key:
            raise RuntimeError(f"prompt hash collision on digest {digest}")
        return digest
