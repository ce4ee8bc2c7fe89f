"""Reasoning-language verification: did the model actually think in the
requested language?

The bundled detector is deliberately lightweight. Any kana means Japanese;
else the distinctive script (zh/ko/th/hi/bn/ar/ru, by Unicode code-point
ranges) with the most code points wins; else the Latin-script language with
the most stopword hits wins; ties go to canonical order, and text with no
signal raises ``DetectionError`` (the pipeline counts it as undetectable).
"""

from __future__ import annotations

import re
from typing import Iterable

from .languages import Language, canonical_index


class DetectionError(RuntimeError):
    """The detector could not reach a decision (distinct from a mismatch)."""


# Names the decisions of ``detect_language``: ``pipeline.compute_verification_rate``
# keeps the detector's verdicts under it and re-detects when it differs.
# Bump it with any edit of this file (tests/test_langid.py pins it to the file's
# sha256) and with any change of ``extraction.extract_reasoning_text``.
DETECTOR_VERSION = 3


# Code-point ranges per distinctive script. Kana is kept separate from the
# shared CJK-ideograph block so Japanese (kana present) and Chinese
# (ideographs only) can be told apart.
_KANA = ((0x3040, 0x309F), (0x30A0, 0x30FF), (0xFF66, 0xFF9D))
_SCRIPT_RANGES: dict[Language, tuple[tuple[int, int], ...]] = {
    Language.CHINESE: ((0x4E00, 0x9FFF), (0x3400, 0x4DBF), (0xF900, 0xFAFF)),
    Language.JAPANESE: _KANA,
    Language.KOREAN: ((0xAC00, 0xD7AF), (0x1100, 0x11FF), (0x3130, 0x318F)),
    Language.THAI: ((0x0E00, 0x0E7F),),
    Language.HINDI: ((0x0900, 0x097F),),
    Language.BENGALI: ((0x0980, 0x09FF),),
    Language.ARABIC: ((0x0600, 0x06FF), (0x0750, 0x077F), (0x08A0, 0x08FF), (0xFB50, 0xFDFF)),
    Language.RUSSIAN: ((0x0400, 0x04FF), (0x0500, 0x052F)),
}

_STOPWORDS: dict[Language, frozenset[str]] = {
    Language.ENGLISH: frozenset(
        "the and is of to in that it was for with are this have from not but they".split()
    ),
    Language.FRENCH: frozenset(
        "le la les des et est dans que pour une un du avec sur pas ne ce qui".split()
    ),
    Language.GERMAN: frozenset(
        "der die das und ist nicht mit ein eine zu den von für auf im sich auch".split()
    ),
    Language.ITALIAN: frozenset(
        "il lo la gli di che è per una con non sono della nel più questo anche".split()
    ),
    Language.PORTUGUESE: frozenset(
        "o os as de que é em uma um com para do da não se mais como também".split()
    ),
    Language.SPANISH: frozenset(
        "el los las de que es en por una un con para del no se más como esta".split()
    ),
    Language.TURKISH: frozenset(
        "ve bir bu için ile olarak daha çok en gibi ama sonra değil çünkü olan ben".split()
    ),
    Language.VIETNAMESE: frozenset(
        "và của là có không được trong cho với một này người khi đã các những".split()
    ),
}


def _char_class(ranges: Iterable[tuple[int, int]]) -> re.Pattern[str]:
    return re.compile("[" + "".join(f"\\U{lo:08x}-\\U{hi:08x}" for lo, hi in ranges) + "]")


# The ranges are pairwise disjoint: each code point counts for one script.
_SCRIPT_PATTERNS = {language: _char_class(ranges) for language, ranges in _SCRIPT_RANGES.items()}
_ANY_SCRIPT = _char_class(r for ranges in _SCRIPT_RANGES.values() for r in ranges)
# Every alphabetic character, but also numerals that are not decimal digits
# (², ½, Ⅻ, ①); _tokens splits a word around those as str.isalpha does.
_WORD = re.compile(r"[^\W\d_]+")


def _tokens(text: str) -> list[str]:
    """Maximal runs of ``str.isalpha`` characters in the casefolded text."""
    tokens: list[str] = []
    for word in _WORD.findall(text.casefold()):
        if word.isalpha():
            tokens.append(word)
        else:
            tokens.extend("".join(ch if ch.isalpha() else " " for ch in word).split())
    return tokens


def detect_language(text: str) -> Language:
    """Best-guess language of ``text``; raises DetectionError on no signal."""
    if not text or not text.strip():
        raise DetectionError("empty text")
    if _ANY_SCRIPT.search(text):
        if _SCRIPT_PATTERNS[Language.JAPANESE].search(text):
            # Japanese prose mixes kana with CJK ideographs; kana decides.
            return Language.JAPANESE
        counts = {lang: len(pattern.findall(text)) for lang, pattern in _SCRIPT_PATTERNS.items()}
        return max(counts, key=lambda lang: (counts[lang], -canonical_index(lang)))
    tokens = _tokens(text)
    if not tokens:
        raise DetectionError("no alphabetic content to classify")
    scores = {lang: sum(1 for t in tokens if t in words) for lang, words in _STOPWORDS.items()}
    best = max(scores, key=lambda lang: (scores[lang], -canonical_index(lang)))
    if scores[best] == 0:
        raise DetectionError("no stopword signal for any Latin-script language")
    return best
