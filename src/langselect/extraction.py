"""Deterministic extraction of structured answers from raw model output.

The answer-matching cascade is a frozen contract so that benchmark runs are
replayable: given the same raw output and the same choices, extraction always
yields the same label (or invalid). The cascade, first hit wins:

1. parse the outermost JSON object (tolerating surrounding prose and code
   fences) and read ``final_answer``;
2. if that value's first alphabetic character is a valid choice letter
   followed by end of string, punctuation, or space, return it;
3. else case-fold, strip punctuation and whitespace, and compare the value
   against each choice text; a unique normalized match wins;
4. else apply steps 2 and 3 to the last line of the whole raw text;
5. else invalid (None).

``extract_final_answer`` is total: it never raises, whatever bytes arrive.
"""

from __future__ import annotations

import json
import re
import unicodedata

from .datasets import McqItem
from .languages import Language, canonical_sorted, language_from_english_name
from .prompts import EXPERT_LANGUAGE_KEY, FINAL_ANSWER_KEY, REASONING_KEY_PREFIX

# (value, end) of the JSON value at an index of a str; at a '{' the value is a dict.
_decode = json.JSONDecoder().raw_decode
# Objects and arrays a found object may nest inside each other. The decoder
# recurses once per level and gives up at a depth set by the caller's stack,
# so a deeper object is skipped, whether or not the decoder gave up on it.
MAX_NESTING = 256
# A run of objects and arrays each opening as the first value of the one before:
# "{" and a key that holds no bracket, or "[". Each of its brackets is one level deeper.
_OPENINGS = re.compile(
    r'(?:\{[ \t\n\r]*"[^"\\{}\[\]]*(?:\\["\\/bfnrtu][^"\\{}\[\]]*)*"[ \t\n\r]*:[ \t\n\r]*|\[[ \t\n\r]*)*'
)
_BRACKET = re.compile(r"[{\[]")


def _strip_code_fences(raw: str) -> str:
    """Drop Markdown fence lines so fenced JSON parses like bare JSON."""
    if "```" not in raw:
        return raw
    kept = [line for line in raw.splitlines() if not line.lstrip().startswith("```")]
    return "\n".join(kept)


def _too_deep(value) -> bool:
    """Whether a decoded JSON value nests more than ``MAX_NESTING`` objects and
    arrays inside each other."""
    level = [value]
    for _ in range(MAX_NESTING):
        containers = [v for v in level if isinstance(v, (dict, list))]
        level = [child for v in containers for child in (v.values() if isinstance(v, dict) else v)]
    return any(isinstance(v, (dict, list)) for v in level)


def find_json_object(raw: str) -> dict | None:
    """Best-effort parse of the outermost JSON object embedded in raw text."""
    if not isinstance(raw, str) or "{" not in raw:
        return None
    text = _strip_code_fences(raw)
    first = text.find("{")
    if first < 0:
        return None
    # Only a text of more brackets than the cap can nest past it.
    deep = text.count("{") + text.count("[") > MAX_NESTING
    # The first object that parses at a brace, nested no deeper than the cap,
    # scanning brace starts left to right (prose may precede or follow the
    # real payload).
    pos = first
    while pos != -1:
        if deep:
            end = _OPENINGS.match(text, pos).end()
            if text.count("{", pos, end) + text.count("[", pos, end) > MAX_NESTING:
                # An object at any but the run's last MAX_NESTING brackets nests past the cap.
                pos = text.find("{", [m.start() for m in _BRACKET.finditer(text, pos, end)][-MAX_NESTING])
                continue
        try:
            obj = _decode(text, pos)[0]
            if not (deep and _too_deep(obj)):
                return obj
        except (ValueError, RecursionError):
            pass
        pos = text.find("{", pos + 1)
    return None


def normalize_answer_text(text: str) -> str:
    """Case-fold and drop punctuation and whitespace for loose text matching."""
    out = []
    for ch in text.casefold():
        if ch.isspace() or unicodedata.category(ch).startswith("P"):
            continue
        out.append(ch)
    return "".join(out)


def _letter_rule(value: str, labels: frozenset[str]) -> str | None:
    """Cascade step 2: leading choice letter terminated by non-alphanumerics."""
    for i, ch in enumerate(value):
        if not ch.isalpha():
            continue
        label = ch.upper()
        if label not in labels:
            return None
        nxt = value[i + 1] if i + 1 < len(value) else ""
        if nxt == "" or not nxt.isalnum():
            return label
        return None
    return None


def _text_match_rule(value: str, item: McqItem) -> str | None:
    """Cascade step 3: unique normalized match against a choice text."""
    norm = normalize_answer_text(value)
    if not norm:
        return None
    matches = [c.label for c in item.choices if normalize_answer_text(c.text) == norm]
    if len(matches) == 1:
        return matches[0]
    return None


def _value_to_text(value) -> str | None:
    if isinstance(value, str):
        return value
    if isinstance(value, bool) or value is None:
        return None
    if isinstance(value, (int, float)):
        return str(value)
    return None


def _last_line(raw: str) -> str | None:
    stripped = raw.strip()
    if not stripped:
        return None
    return stripped.splitlines()[-1]


def extract_final_answer(raw: str, item: McqItem) -> str | None:
    """Map raw model output to a choice label, or None when nothing matches."""
    labels = frozenset(item.labels)
    try:
        obj = find_json_object(raw)
        if obj is not None:
            text = _value_to_text(obj.get(FINAL_ANSWER_KEY))
            if text is not None:
                label = _letter_rule(text, labels)
                if label is not None:
                    return label
                label = _text_match_rule(text, item)
                if label is not None:
                    return label
        line = _last_line(raw) if isinstance(raw, str) else None
        if line is not None:
            label = _letter_rule(line, labels)
            if label is not None:
                return label
            label = _text_match_rule(line, item)
            if label is not None:
                return label
    except Exception:
        return None
    return None


def extract_expert_language(raw: str, allowed: list[Language] | tuple[Language, ...]) -> Language:
    """Read the ``expert_language`` JSON key; unusable output falls back to
    English (or the canonical-first allowed language when English is absent)."""
    if not allowed:
        raise ValueError("allowed languages must be non-empty")
    fallback = Language.ENGLISH if Language.ENGLISH in allowed else canonical_sorted(allowed)[0]
    try:
        obj = find_json_object(raw)
        if obj is None:
            return fallback
        value = obj.get(EXPERT_LANGUAGE_KEY)
        if not isinstance(value, str):
            return fallback
        language = language_from_english_name(value.strip().strip(".,;:!\"'"))
        if language is None or language not in allowed:
            return fallback
        return language
    except Exception:
        return fallback


def extract_reasoning_text(raw: str) -> str | None:
    """Pull the value of a ``REASONING_KEY_PREFIX`` key out of a reasoning response, if present."""
    obj = find_json_object(raw)
    if obj is None:
        return None
    for key, value in obj.items():
        if isinstance(key, str) and key.startswith(REASONING_KEY_PREFIX) and isinstance(value, str) and value:
            return value
    return None
