import json
import random
import string
import time

import pytest

from langselect.datasets import Choice, DatasetId, McqItem
from langselect.extraction import (
    MAX_NESTING,
    _strip_code_fences,
    extract_expert_language,
    extract_final_answer,
    extract_reasoning_text,
    find_json_object,
    normalize_answer_text,
)
from langselect.languages import Language


def item_with(choices, item_id="custom/x"):
    return McqItem(
        item_id=item_id,
        dataset_id=DatasetId.CUSTOM,
        question="q?",
        choices=tuple(Choice(string.ascii_uppercase[i], t) for i, t in enumerate(choices)),
        gold_label="A",
    )


STD = item_with(["apron", "black formal suit", "uniform", "shirt"])
TR = item_with(["önlük", "siyah resmi takım", "üniforma", "gömlek"])
DUPS = item_with(["same", "same", "other", "more"])
TWO = item_with(["yes", "no"])
ALPHA26 = item_with([f"choice number {i}" for i in range(26)])

# Golden cascade fixtures: (name, raw output, item, expected label or None).
# Expected values were derived by hand from the documented cascade rules.
GOLDEN = [
    ("clean_json_letter", '{"reasoning_in_English":"because","final_answer":"B"}', STD, "B"),
    ("letter_dot_text", '{"final_answer":"B. black formal suit"}', STD, "B"),
    ("translated_text_match", '{"final_answer":"siyah resmi takım"}', TR, "B"),
    ("no_json_invalid_letter_line", "no json here\nAnswer: Z", STD, None),
    ("fenced_json", '```json\n{"final_answer": "C"}\n```', STD, "C"),
    ("fenced_json_with_prose", 'Sure! Here you go:\n```json\n{"final_answer": "d"}\n```\nHope that helps!', STD, "D"),
    ("prose_after_json", 'The JSON: {"final_answer": "A"} as required.', STD, "A"),
    ("braces_before_json", 'config {x} then {"final_answer": "B"}', STD, "B"),
    ("lowercase_letter", '{"final_answer": "b"}', STD, "B"),
    ("letter_paren", '{"final_answer": "B)"}', STD, "B"),
    ("parenthesized_letter", '{"final_answer": "(B)"}', STD, "B"),
    ("letter_then_digit", '{"final_answer": "B1"}', STD, None),
    ("sentence_in_value", '{"final_answer": "The answer is B"}', STD, None),
    ("bare_choice_text", '{"final_answer": "black formal suit"}', STD, "B"),
    ("shouted_choice_text", '{"final_answer": "BLACK FORMAL SUIT!!!"}', STD, "B"),
    ("capitalized_choice_text", '{"final_answer": "Uniform."}', STD, "C"),
    ("numeric_value", '{"final_answer": 2}', STD, None),
    ("null_value", '{"final_answer": null}', STD, None),
    ("wrong_key", '{"answer": "B"}', STD, None),
    ("json_then_prose_line", '{"final_answer": "A"}\nThanks!', STD, "A"),
    ("bare_letter_raw", "B", STD, "B"),
    ("prose_option_sentence", "The best answer is option B.", STD, None),
    ("contraction_prose", "I think it's B", STD, None),
    ("reasoning_then_letter_line", "first I considered the options\nB.", STD, "B"),
    ("letter_paren_text_line", "Answer:\nC) uniform", STD, "C"),
    ("choice_text_last_line", "after much thought\nblack formal suit", STD, "B"),
    ("ambiguous_duplicate_choices", '{"final_answer": "same"}', DUPS, None),
    ("empty_string", "", STD, None),
    ("whitespace_only", "\n\n   ", STD, None),
    ("binary_garbage", "\x00\xff garbage ★", STD, None),
    ("two_objects_first_wins", '{"final_answer": "A"} {"final_answer": "B"}', STD, "A"),
    ("top_level_key_wins", '{"meta": {"final_answer": "C"}, "final_answer": "D"}', STD, "D"),
    ("nested_only_not_found", '{"result": {"final_answer": "C"}}', STD, None),
    ("single_quotes_not_json", "{'final_answer': 'B'}", STD, None),
    ("pretty_printed", '{\n  "reasoning_in_English": "text",\n  "final_answer": "C"\n}', STD, "C"),
    ("translated_text_with_punct", '{"final_answer": "siyah resmi takım."}', TR, "B"),
    ("uppercase_text_match_first_choice", '{"final_answer": "APRON"}', STD, "A"),
    ("padded_letter", '{"final_answer": " C "}', STD, "C"),
    ("letter_comma", '{"final_answer": "C,"}', STD, "C"),
    ("out_of_range_letter", '{"final_answer": "E"}', STD, None),
    ("letter_z_with_26_choices", '{"final_answer": "Z"}', ALPHA26, "Z"),
    ("letter_c_with_2_choices", '{"final_answer": "C"}', TWO, None),
    ("last_line_after_non_json", "not json\nB", STD, "B"),
    ("truncated_json", '{"final_answer": "B', STD, None),
    ("plain_fence", '```\n{"final_answer":"A"}\n```', STD, "A"),
    ("boolean_value", '{"final_answer": true}', STD, None),
    ("bom_prefixed", '﻿{"final_answer": "D"}', STD, "D"),
]


@pytest.mark.parametrize("name,raw,item,expected", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_golden_cascade(name, raw, item, expected):
    assert extract_final_answer(raw, item) == expected


def test_golden_suite_is_big_enough():
    assert len(GOLDEN) >= 40


def test_extraction_idempotent_under_pretty_printing():
    for raw in [
        '{"reasoning_in_English":"r","final_answer":"B"}',
        '{"final_answer":"black formal suit"}',
        '{"final_answer":"(C)"}',
    ]:
        obj = json.loads(raw)
        pretty = json.dumps(obj, indent=2)
        assert extract_final_answer(raw, STD) == extract_final_answer(pretty, STD)


def test_fuzz_never_crashes_smoke():
    rng = random.Random(0)
    alphabet = string.printable + "{}\"'áü漢字한疑𝄞"
    for _ in range(5000):
        raw = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 80)))
        result = extract_final_answer(raw, STD)
        assert result is None or result in {"A", "B", "C", "D"}


class TestFindJsonObject:
    def test_none_for_plain_text(self):
        assert find_json_object("nothing here") is None

    def test_tolerates_trailing_garbage(self):
        assert find_json_object('{"a": 1} trailing') == {"a": 1}

    def test_non_object_json_rejected(self):
        assert find_json_object("[1, 2, 3]") is None


def _scan_balanced_object(text: str, start: int) -> str | None:
    """Return the balanced ``{...}`` slice starting at ``start``, if any: the
    brace and quote scanner ``find_json_object`` once ran at each brace."""
    depth = 0
    in_string = False
    escaped = False
    for i in range(start, len(text)):
        ch = text[i]
        if in_string:
            if escaped:
                escaped = False
            elif ch == "\\":
                escaped = True
            elif ch == '"':
                in_string = False
            continue
        if ch == '"':
            in_string = True
        elif ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth == 0:
                return text[start : i + 1]
    return None


def _parse_object(candidate: str) -> dict | None:
    try:
        obj = json.loads(candidate)
    except (ValueError, RecursionError):
        return None
    return obj if isinstance(obj, dict) else None


def reference_find_json_object(raw):
    """``find_json_object`` as the scanner above made it: the widest span,
    else the first balanced slice from a brace that parses as an object."""
    if not isinstance(raw, str) or "{" not in raw:
        return None
    text = _strip_code_fences(raw)
    first = text.find("{")
    if first < 0:
        return None
    last = text.rfind("}")
    if last > first:
        obj = _parse_object(text[first : last + 1])
        if obj is not None:
            return obj
    pos = first
    while pos != -1:
        candidate = _scan_balanced_object(text, pos)
        if candidate is not None:
            obj = _parse_object(candidate)
            if obj is not None:
                return obj
        pos = text.find("{", pos + 1)
    return None


# Pieces that make fragments of JSON objects (and of what is nearly one) common.
_PIECES = [
    "{", "{", "{", "}", "}", "}", '"', '"', '"a"', '"final_answer"', ": ", ":", ", ", ",", "1", "-2.5e3",
    "true", "null", "NaN", "[", "]", "\\", '\\"', "\\u00e9", "\\ud800", "x", "prose ", " ", "\n", "\t",
    "```", "```json\n", "é", "漢", "\x00", "'", "{}", '{"a": 1}', '"b": "}"', '{"final_answer": "B"}',
]


def test_find_json_object_agrees_with_the_balanced_scanner_on_random_text():
    rng = random.Random(17)
    found = 0
    for _ in range(100_000):
        raw = "".join(rng.choice(_PIECES) for _ in range(rng.randrange(0, 25)))
        expected = reference_find_json_object(raw)
        assert find_json_object(raw) == expected, raw
        found += expected is not None
    assert found > 10_000  # the pieces make objects often enough for the agreement to mean something


@pytest.mark.parametrize(
    "raw",
    [
        pytest.param('{"a": 1} {"b": 2}', id="two-objects"),  # the widest span fails; the first object wins
        pytest.param('say {"a": "}"} then {"b": 2}', id="brace-in-string"),
        pytest.param('{"a": {"b": 1} trailing', id="unclosed-outer"),  # the inner object parses
        pytest.param('{"a": "\\"}"} x }', id="escaped-quote"),
        pytest.param("{" * 3000 + '{"a": 1}' + "}" * 10, id="many-open-braces"),
        pytest.param('{"a": 1', id="unclosed"),
        pytest.param("{{}", id="empty-inner"),
    ],
)
def test_find_json_object_agrees_with_the_balanced_scanner_on_edge_cases(raw):
    assert find_json_object(raw) == reference_find_json_object(raw)


def nesting(obj) -> int:
    depth = 0
    while isinstance(obj, dict):
        obj = obj["a"]
        depth += 1
    return depth


def test_an_object_nested_past_the_recursion_limit_yields_an_inner_one():
    # Not compared with the reference, which leaves the depth to the decoder's
    # recursion limit.
    raw = '{"a": ' * 5000 + "1" + "}" * 5000
    assert nesting(find_json_object(raw)) == MAX_NESTING


def called_under(frames: int, fn, *args):
    return called_under(frames - 1, fn, *args) if frames else fn(*args)


def test_the_object_found_in_a_deep_nest_does_not_depend_on_the_callers_stack():
    raw = '{"a": ' * 1100 + "1" + "}" * 1100
    found = find_json_object(raw)
    assert nesting(found) == MAX_NESTING
    assert called_under(200, find_json_object, raw) == found
    nested_reply = '{"reasoning_in_en": "x", "a": ' + raw + "}"  # the reply itself nests past the cap
    assert called_under(200, extract_reasoning_text, nested_reply) == extract_reasoning_text(nested_reply) is None


def test_arrays_count_toward_the_cap():
    within = '{"a": ' + "[" * (MAX_NESTING - 1) + "]" * (MAX_NESTING - 1) + "} [] []"  # checked: 258 brackets
    assert find_json_object(within) is not None
    assert find_json_object('{"a": ' + "[" * MAX_NESTING + "]" * MAX_NESTING + "}") is None


def test_a_reply_of_many_open_braces_is_scanned_in_linear_time():
    # The balanced scanner read to the end of the text from each of the braces.
    started = time.perf_counter()
    assert find_json_object("{" * 20_000) is None
    assert extract_final_answer("{" * 20_000, STD) is None
    assert time.perf_counter() - started < 2.0


def test_a_reply_of_deeply_nested_openings_is_scanned_in_linear_time():
    # Decoded from each "{", this reply ran to the recursion limit every time.
    started = time.process_time()
    assert find_json_object('{"a":[' * 20_000) is None
    assert time.process_time() - started < 0.2


class TestNormalize:
    def test_strips_punctuation_and_whitespace(self):
        assert normalize_answer_text("  Black, Formal; Suit!  ") == "blackformalsuit"

    def test_casefolds_unicode(self):
        assert normalize_answer_text("Siyah Resmi TAKIM") == normalize_answer_text("siyah resmi takim")


class TestExpertLanguageExtraction:
    def test_direct_name(self):
        assert extract_expert_language('{"expert_language":"Arabic"}', list(Language)) is Language.ARABIC

    def test_unknown_name_falls_back_to_english(self):
        assert extract_expert_language('{"expert_language":"Klingon"}', list(Language)) is Language.ENGLISH

    def test_garbage_falls_back_to_english(self):
        assert extract_expert_language("total nonsense", list(Language)) is Language.ENGLISH

    def test_case_insensitive_with_punctuation(self):
        assert extract_expert_language('{"expert_language":" thai. "}', list(Language)) is Language.THAI

    def test_outside_allowed_falls_back(self):
        allowed = [Language.SPANISH, Language.FRENCH]
        assert extract_expert_language('{"expert_language":"Thai"}', allowed) is Language.FRENCH

    def test_fallback_is_canonical_first_without_english(self):
        allowed = [Language.VIETNAMESE, Language.ARABIC]
        assert extract_expert_language("junk", allowed) is Language.ARABIC

    def test_empty_allowed_rejected(self):
        with pytest.raises(ValueError):
            extract_expert_language("x", [])


class TestReasoningExtraction:
    def test_reads_reasoning_key(self):
        raw = '{"reasoning_in_Turkish": "çünkü", "final_answer": "A"}'
        assert extract_reasoning_text(raw) == "çünkü"

    def test_none_without_key(self):
        assert extract_reasoning_text('{"final_answer": "A"}') is None
        assert extract_reasoning_text("prose") is None
