import pytest

from langselect.languages import (
    CANONICAL_ORDER,
    DEFAULT_LANGUAGES,
    Language,
    UnknownLanguageError,
    canonical_index,
    canonical_sorted,
    language_from_english_name,
    parse_language,
)


def test_exactly_sixteen_languages():
    assert len(Language) == 16
    assert {l.value for l in Language} == {
        "ar", "bn", "zh", "en", "fr", "de", "hi", "it", "ja", "ko", "pt", "ru", "es", "th", "tr", "vi",
    }


def test_canonical_order_english_first_then_listing_order():
    codes = [l.value for l in CANONICAL_ORDER]
    assert codes == ["en", "ar", "bn", "zh", "fr", "de", "hi", "it", "ja", "ko", "pt", "ru", "es", "th", "tr", "vi"]
    assert DEFAULT_LANGUAGES == CANONICAL_ORDER


def test_english_names_are_pinned():
    # Prompt text, and so every prompt hash keying a stored cell, holds these names.
    assert [l.english_name for l in Language] == [
        "Arabic", "Bengali", "Chinese", "English", "French", "German", "Hindi", "Italian",
        "Japanese", "Korean", "Portuguese", "Russian", "Spanish", "Thai", "Turkish", "Vietnamese",
    ]


def test_parse_language_rejects_unknown():
    assert parse_language("tr") is Language.TURKISH
    with pytest.raises(UnknownLanguageError):
        parse_language("xx")
    with pytest.raises(UnknownLanguageError):
        parse_language("EN")


def test_english_name_round_trip():
    for lang in Language:
        assert language_from_english_name(lang.english_name) is lang
        assert language_from_english_name(lang.english_name.upper()) is lang
    assert language_from_english_name("Klingon") is None


def test_canonical_sorted_is_stable_priority_sort():
    scrambled = [Language.VIETNAMESE, Language.ARABIC, Language.ENGLISH, Language.SPANISH]
    assert canonical_sorted(scrambled) == [
        Language.ENGLISH,
        Language.ARABIC,
        Language.SPANISH,
        Language.VIETNAMESE,
    ]
    assert canonical_index(Language.ENGLISH) == 0
