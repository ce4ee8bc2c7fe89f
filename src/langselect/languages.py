"""Candidate language set and the canonical ordering used for all tie-breaking.

The default candidate set has exactly 16 members, declared in alphabetical
order of their English names. The canonical order puts English first, then
the remaining languages in declaration order; every deterministic tie-break
in this package (majority votes, argmax over language accuracies, oracle
language reporting) resolves by this order.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable


class UnknownLanguageError(ValueError):
    """Raised when a string is not one of the 16 supported language codes."""


class Language(str, Enum):
    ARABIC = "ar"
    BENGALI = "bn"
    CHINESE = "zh"
    ENGLISH = "en"
    FRENCH = "fr"
    GERMAN = "de"
    HINDI = "hi"
    ITALIAN = "it"
    JAPANESE = "ja"
    KOREAN = "ko"
    PORTUGUESE = "pt"
    RUSSIAN = "ru"
    SPANISH = "es"
    THAI = "th"
    TURKISH = "tr"
    VIETNAMESE = "vi"

    def __str__(self) -> str:  # "en" rather than "Language.ENGLISH"
        return self.value

    @property
    def english_name(self) -> str:
        """The member name in title case ("Arabic"): prompt text and prompt hashes depend on it."""
        return _ENGLISH_NAME[self]


# English first, then the declaration order. Index in this tuple is the
# tie-break priority (lower wins).
CANONICAL_ORDER: tuple[Language, ...] = (Language.ENGLISH, *(lang for lang in Language if lang is not Language.ENGLISH))

DEFAULT_LANGUAGES: tuple[Language, ...] = CANONICAL_ORDER

_ENGLISH_NAME = {lang: lang.name.title() for lang in Language}  # a dict lookup: Enum.name is a slow descriptor
_BY_ENGLISH_NAME = {name.casefold(): lang for lang, name in _ENGLISH_NAME.items()}
_CANONICAL_INDEX = {lang: i for i, lang in enumerate(CANONICAL_ORDER)}


def parse_language(code: str) -> Language:
    """Parse a two-letter code into a Language; anything else is an error."""
    try:
        return Language(code)
    except ValueError:
        raise UnknownLanguageError(f"unknown language code: {code!r}") from None


def language_from_english_name(name: str) -> Language | None:
    """Map an English language name (case-insensitive) to a Language, or None."""
    return _BY_ENGLISH_NAME.get(name.strip().casefold())


def canonical_index(language: Language) -> int:
    return _CANONICAL_INDEX[language]


def canonical_sorted(languages: Iterable[Language]) -> list[Language]:
    """Sort languages by canonical priority (English first)."""
    return sorted(languages, key=canonical_index)
