import hashlib
import random
from pathlib import Path

import pytest

from langselect import langid
from langselect.langid import _SCRIPT_RANGES, _STOPWORDS, DetectionError, detect_language
from langselect.languages import Language, canonical_index
from langselect.prompts import TemplateSet

FIXTURES = {
    Language.ENGLISH: "The model is trained on data from the web and it was for this reason not aligned.",
    Language.FRENCH: "Le modèle est entraîné dans les données et ce n'est pas pour une raison simple.",
    Language.GERMAN: "Der Ansatz ist nicht neu und die Ergebnisse sind mit einem Modell zu erklären.",
    Language.ITALIAN: "Il modello è addestrato per una ragione che non sono riuscito a spiegare nel testo.",
    Language.PORTUGUESE: "O modelo é treinado com os dados e não se sabe como explicar uma razão para isso.",
    Language.SPANISH: "El modelo es entrenado con los datos y no se sabe por qué es una razón para esto.",
    Language.TURKISH: "Bu model çok veriyle eğitildi ve bir sonuç için daha fazla şey gerekiyor ama değil.",
    Language.VIETNAMESE: "Mô hình này được huấn luyện với một lượng dữ liệu lớn và không có gì cho người dùng.",
    Language.CHINESE: "这个模型是用大量数据训练的，因此它能回答很多问题。",
    Language.JAPANESE: "このモデルはたくさんのデータで学習されています。",
    Language.KOREAN: "이 모델은 많은 데이터로 학습되었습니다.",
    Language.THAI: "โมเดลนี้ได้รับการฝึกด้วยข้อมูลจำนวนมาก",
    Language.HINDI: "यह मॉडल बहुत सारे डेटा पर प्रशिक्षित किया गया है।",
    Language.BENGALI: "এই মডেলটি প্রচুর ডেটা দিয়ে প্রশিক্ষিত হয়েছে।",
    Language.ARABIC: "تم تدريب هذا النموذج على كمية كبيرة من البيانات.",
    Language.RUSSIAN: "Эта модель обучена на большом количестве данных.",
}

# A few representative letters per distinctive script, for randomized text.
SCRIPT_ALPHABETS = {
    Language.CHINESE: "的一是不了人我在有他这中大来上国",
    Language.JAPANESE: "あいうえおかきくけこさしすせそナニヌネノ",
    Language.KOREAN: "가나다라마바사아자차카타파하",
    Language.THAI: "กขคงจฉชซญฎฏฐณดตถทธน",
    Language.HINDI: "अआइईउऊकखगघचछजझटठ",
    Language.BENGALI: "অআইঈউঊকখগঘচছজঝটঠ",
    Language.ARABIC: "ابتثجحخدذرزسشصضطظ",
    Language.RUSSIAN: "абвгдежзийклмноп",
}


@pytest.mark.parametrize("language", list(FIXTURES), ids=[l.value for l in FIXTURES])
def test_detects_fixture_text(language):
    assert detect_language(FIXTURES[language]) is language


def test_script_text_always_classified_as_its_language():
    # Script soundness: random text drawn solely from one script is always
    # attributed to that script's language.
    rng = random.Random(42)
    for language, alphabet in SCRIPT_ALPHABETS.items():
        for _ in range(50):
            text = "".join(rng.choice(alphabet + " ") for _ in range(rng.randrange(3, 60)))
            if not text.strip():
                continue
            assert detect_language(text) is language, (language, text)


def test_japanese_kana_beats_shared_ideographs():
    assert detect_language("漢字とひらがなが混ざった文章です。") is Language.JAPANESE


def test_verify_matches_and_mismatches():
    assert detect_language(FIXTURES[Language.THAI]) is Language.THAI
    assert detect_language(FIXTURES[Language.ENGLISH]) is not Language.TURKISH


def test_verify_empty_text_rejected():
    with pytest.raises(DetectionError, match="empty text"):
        detect_language("")
    with pytest.raises(DetectionError, match="empty text"):
        detect_language(" \n\t")


def test_detector_failure_is_an_error_not_false():
    with pytest.raises(DetectionError):
        detect_language("12345 67890 !!!")
    with pytest.raises(DetectionError):
        detect_language("zzz qqq xxx")


# --- Differential check against the per-character detector the regex scans replaced.
# _reference_script_counts, _reference_tokens and _reference_detect are the old
# implementation, frozen verbatim apart from their names; they read the same
# range and stopword tables as the module.


def _reference_script_counts(text: str) -> dict[Language, int]:
    counts: dict[Language, int] = {}
    for ch in text:
        cp = ord(ch)
        for language, ranges in _SCRIPT_RANGES.items():
            if any(lo <= cp <= hi for lo, hi in ranges):
                counts[language] = counts.get(language, 0) + 1
                break
    return counts


def _reference_tokens(text: str) -> list[str]:
    tokens: list[str] = []
    current: list[str] = []
    for ch in text.casefold():
        if ch.isalpha():
            current.append(ch)
        elif current:
            tokens.append("".join(current))
            current = []
    if current:
        tokens.append("".join(current))
    return tokens


def _reference_detect(text: str) -> Language:
    if not text or not text.strip():
        raise DetectionError("empty text")
    counts = _reference_script_counts(text)
    if counts:
        if counts.get(Language.JAPANESE, 0) > 0:
            # Japanese prose mixes kana with CJK ideographs; kana decides.
            return Language.JAPANESE
        return max(counts, key=lambda lang: (counts[lang], -canonical_index(lang)))
    tokens = _reference_tokens(text)
    if not tokens:
        raise DetectionError("no alphabetic content to classify")
    scores = {lang: sum(1 for t in tokens if t in words) for lang, words in _STOPWORDS.items()}
    best = max(scores, key=lambda lang: (scores[lang], -canonical_index(lang)))
    if scores[best] == 0:
        raise DetectionError("no stopword signal for any Latin-script language")
    return best


def _outcome(detect, text):
    try:
        return detect(text)
    except DetectionError as exc:
        return ("DetectionError", str(exc))


# Characters where a regex word class and str.isalpha could part ways, or where
# casefolding changes the text: non-decimal numerals, CJK numerals, "_", digits,
# ß, combining marks, title-case digraphs, whitespace and punctuation.
_TRICKY = "²½Ⅻ①³¼ⅷ⑳" "一二三十百千" "_0123456789٣" "ßẞǅǈǋﬁİ" "\u0323\u0301\u0308" " \t\n\u3000!?.,;:-'\"()«»、。，"
_HALFWIDTH_KANA = "".join(chr(cp) for cp in range(0xFF66, 0xFF9E))
_LATIN = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZàâçéèêëîïôûùüÿñäöåøæœğışşãõơưđạảấầẩẫậ"


def _random_texts(count, seed):
    """Seeded 0-60 character strings, each mostly from one script or from Latin
    words, with tricky characters mixed in; a fifth are slices of the bundled
    template instructions with tricky characters spliced in."""
    templates = TemplateSet.bundled()
    instructions = [templates.get(lang).instruction for lang in sorted(Language, key=lambda lang: lang.value)]
    words = sorted({w for text in instructions for w in text.split()} | {w for s in _STOPWORDS.values() for w in s})
    families = [*SCRIPT_ALPHABETS.values(), _HALFWIDTH_KANA, _LATIN, _LATIN, _LATIN, _LATIN]
    everything = "".join(families) + _TRICKY + "".join(instructions)
    rng = random.Random(seed)
    for _ in range(count):
        length = rng.randrange(0, 61)
        if rng.random() < 0.2:
            source = rng.choice(instructions)
            start = rng.randrange(len(source))
            text = source[start : start + length]
            for _ in range(rng.randrange(0, 4)):
                at = rng.randrange(len(text) + 1)
                text = text[:at] + rng.choice(_TRICKY) + text[at:]
            yield text[:length]
            continue
        family = rng.choice(families + [everything])
        pieces: list[str] = []
        while sum(map(len, pieces)) < length:
            roll = rng.random()
            if roll < 0.1:
                pieces.append(rng.choice(_TRICKY))
            elif roll < 0.6 and family is _LATIN:
                pieces.append(rng.choice(words) + rng.choice(" ,.!_1²"))
            else:
                pieces.append(rng.choice(family))
        yield "".join(pieces)[:length]


def test_regex_scans_agree_with_the_per_character_reference():
    seen = set()
    for text in _random_texts(20_000, seed=20251018):
        assert langid._tokens(text) == _reference_tokens(text), text
        expected = _outcome(_reference_detect, text)
        assert _outcome(detect_language, text) == expected, text
        seen.add(expected)
    # The inputs reach every language and every DetectionError message.
    assert set(Language) <= seen
    assert len(seen - set(Language)) == 3


@pytest.mark.parametrize(
    "text",
    [*FIXTURES.values(), "x²y", "½", "Ⅻ①", "ab_cd", "ﬁne ǅ", "ｱｲｳ", "一二三", "İstanbul", "  \t", "٣٤"],
)
def test_fixed_texts_agree_with_the_per_character_reference(text):
    assert _outcome(detect_language, text) == _outcome(_reference_detect, text)
    assert langid._tokens(text) == _reference_tokens(text)


def test_script_ranges_are_pairwise_disjoint():
    # Counting each script with its own pattern equals the old first-match loop
    # only while no code point lies in two scripts' ranges.
    spans = sorted((lo, hi, lang) for lang, ranges in _SCRIPT_RANGES.items() for lo, hi in ranges)
    assert all(lo <= hi for lo, hi, _ in spans)
    for (_, prev_hi, prev_lang), (lo, _, lang) in zip(spans, spans[1:]):
        assert prev_hi < lo, (prev_lang, lang)


# Cached verdicts (``pipeline.compute_verification_rate``) are valid only for
# the detector that made them. Any edit of langid.py changes this digest: bump
# DETECTOR_VERSION with it, so stale caches are detected again, then update both.
PINNED_DETECTOR = (3, "bde45e138a94788e3b30fb763ec138f90d97d9d75968d6aa41aa0630799807c4")


def test_detector_version_is_bumped_with_every_edit_of_the_detector():
    source = Path(langid.__file__).read_bytes()
    assert (langid.DETECTOR_VERSION, hashlib.sha256(source).hexdigest()) == PINNED_DETECTOR
