"""The seven language-selection strategies, evaluated over a response matrix.

Each strategy picks a reasoning language per test item (majority and oracle
have their own correctness rules) and is scored by the accuracy of the chosen
language's stored answer. Missing and invalid cells count as incorrect
everywhere and cast no majority vote. All tie-breaking uses canonical
language order, so repeated evaluation is byte-identical.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Mapping, Protocol, Sequence

from .datasets import McqItem
from .languages import Language, canonical_index, canonical_sorted
from .store import CellStatus, ResponseMatrix, write_atomic


class SelectorError(RuntimeError):
    """Strategy preconditions not met (missing state, missing language column)."""


class Strategy(str, Enum):
    ONLY_ENGLISH = "only_english"
    MAJORITY = "majority"
    GLOBAL_LANGUAGE = "global_language"
    LLM_SELECTED = "llm_selected"
    COUNTRY = "country"
    LSK_EXTRACTOR = "lsk_extractor"
    ORACLE = "oracle"

    def __str__(self) -> str:
        return self.value


# Strategies whose per-item choice is exactly one language (used by reports
# for the language-distribution conservation rule).
SINGLE_LANGUAGE_STRATEGIES = frozenset(
    {
        Strategy.ONLY_ENGLISH,
        Strategy.GLOBAL_LANGUAGE,
        Strategy.LLM_SELECTED,
        Strategy.COUNTRY,
        Strategy.LSK_EXTRACTOR,
    }
)


@dataclass(frozen=True)
class CountryMap:
    """Country-name to language lookup with a default for unmapped countries."""

    entries: Mapping[str, Language]
    default: Language = Language.ENGLISH

    @classmethod
    def from_entries(cls, entries: Mapping[str, Language], default: Language = Language.ENGLISH) -> "CountryMap":
        folded: dict[str, Language] = {}
        for name, language in entries.items():
            key = name.casefold()
            if key in folded:
                raise ValueError(f"country {name!r} duplicated after case-folding")
            folded[key] = language
        return cls(entries=folded, default=default)

    @classmethod
    def from_json(cls, path: str | Path) -> "CountryMap":
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        default = Language(data.pop("_default", "en"))
        return cls.from_entries({k: Language(v) for k, v in data.items()}, default=default)

    @classmethod
    def default_only(cls, default: Language = Language.ENGLISH) -> "CountryMap":
        return cls(entries={}, default=default)

    def lookup(self, country: str | None) -> Language:
        if not country:
            return self.default
        return self.entries.get(country.casefold(), self.default)


@dataclass(frozen=True)
class GlobalChoice:
    """The single best training language and the accuracies behind the choice."""

    language: Language
    train_accuracy_by_language: dict[Language, float]

    def to_json(self) -> str:
        payload = {
            "language": self.language.value,
            "train_accuracy_by_language": {
                lang.value: acc for lang, acc in sorted(
                    self.train_accuracy_by_language.items(), key=lambda kv: canonical_index(kv[0])
                )
            },
        }
        return json.dumps(payload, ensure_ascii=False, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "GlobalChoice":
        data = json.loads(text)
        return cls(
            language=Language(data["language"]),
            train_accuracy_by_language={
                Language(k): float(v) for k, v in data["train_accuracy_by_language"].items()
            },
        )


@dataclass(frozen=True)
class ItemOutcome:
    item_id: str
    language: Language | None
    correct: bool
    voters: tuple[Language, ...] = ()
    cell_status: CellStatus | None = None


@dataclass(frozen=True)
class SelectorOutcome:
    strategy: Strategy
    per_item: tuple[ItemOutcome, ...]

    @property
    def accuracy(self) -> float:
        if not self.per_item:
            raise SelectorError("outcome has no items")
        return sum(1 for o in self.per_item if o.correct) / len(self.per_item)

    @property
    def correct_count(self) -> int:
        return sum(1 for o in self.per_item if o.correct)


class LanguageRouter(Protocol):
    """Trained per-item router (implemented by the clustering module)."""

    def route(self, item_id: str) -> Language: ...


def select_only_english(matrix: ResponseMatrix) -> Language:
    if Language.ENGLISH not in matrix.languages:
        raise SelectorError("matrix has no English column")
    return Language.ENGLISH


def select_majority(item_id: str, matrix: ResponseMatrix) -> tuple[str | None, tuple[Language, ...]]:
    """Plurality label over ok cells; returns (winning label, its voters).

    Ties between labels are broken by the highest-canonical-priority language
    among the tied labels' voters. Zero ok cells yields (None, ()).
    """
    voters: dict[str, list[Language]] = {}
    for lang in matrix.languages:
        cell = matrix.cell(item_id, lang)
        if cell.status is CellStatus.OK and cell.label is not None:
            voters.setdefault(cell.label, []).append(lang)
    if not voters:
        return None, ()
    counts = Counter({label: len(langs) for label, langs in voters.items()})
    top = max(counts.values())
    tied = [label for label, count in counts.items() if count == top]
    if len(tied) == 1:
        winner = tied[0]
    else:
        winner = min(tied, key=lambda label: min(canonical_index(v) for v in voters[label]))
    return winner, tuple(canonical_sorted(voters[winner]))


def train_global_language(train_matrix: ResponseMatrix) -> GlobalChoice:
    """Language with the highest training accuracy, canonical tie-break."""
    if not train_matrix.items:
        raise SelectorError("training split is empty")
    if not train_matrix.languages:
        raise SelectorError("training matrix has no languages")
    accuracies = {lang: train_matrix.column_accuracy(lang) for lang in train_matrix.languages}
    best = max(accuracies, key=lambda lang: (accuracies[lang], -canonical_index(lang)))
    return GlobalChoice(language=best, train_accuracy_by_language=accuracies)


def select_country(item: McqItem, country_map: CountryMap) -> Language:
    return country_map.lookup(item.country)


def select_llm(item_id: str, selection_cache: Mapping[str, Language]) -> Language:
    try:
        return selection_cache[item_id]
    except KeyError:
        raise SelectorError(
            f"no cached expert-language choice for item {item_id}; run the selection pass first"
        ) from None


def select_oracle(item_id: str, matrix: ResponseMatrix) -> tuple[Language | None, bool]:
    """Hindsight selector: first correct language in canonical order, if any."""
    for lang in matrix.languages:  # matrix languages are canonically ordered
        if matrix.cell(item_id, lang).correct:
            return lang, True
    return None, False


def _single_language_outcome(item_id: str, language: Language, matrix: ResponseMatrix) -> ItemOutcome:
    cell = matrix.cell(item_id, language)
    return ItemOutcome(item_id=item_id, language=language, correct=cell.correct, cell_status=cell.status)


def evaluate(
    strategy: Strategy,
    test_items: Sequence[McqItem],
    matrix: ResponseMatrix,
    state=None,
) -> SelectorOutcome:
    """Apply one strategy to every test item and aggregate correctness.

    ``state`` carries the strategy's trained inputs: a GlobalChoice for
    global_language, an item->Language mapping for llm_selected, a CountryMap
    for country, and a LanguageRouter for lsk_extractor.
    """
    if not test_items:
        raise SelectorError("test split is empty")
    outcomes: list[ItemOutcome] = []
    if strategy is Strategy.ONLY_ENGLISH:
        english = select_only_english(matrix)
        outcomes = [_single_language_outcome(item.item_id, english, matrix) for item in test_items]
    elif strategy is Strategy.MAJORITY:
        for item in test_items:
            label, contributing = select_majority(item.item_id, matrix)
            correct = label is not None and label == matrix.gold.get(item.item_id)
            outcomes.append(
                ItemOutcome(item_id=item.item_id, language=None, correct=correct, voters=contributing)
            )
    elif strategy is Strategy.GLOBAL_LANGUAGE:
        if not isinstance(state, GlobalChoice):
            raise SelectorError("global_language requires a trained GlobalChoice")
        outcomes = [
            _single_language_outcome(item.item_id, state.language, matrix) for item in test_items
        ]
    elif strategy is Strategy.LLM_SELECTED:
        if state is None:
            raise SelectorError("llm_selected requires the selection cache")
        outcomes = [
            _single_language_outcome(item.item_id, select_llm(item.item_id, state), matrix)
            for item in test_items
        ]
    elif strategy is Strategy.COUNTRY:
        if not isinstance(state, CountryMap):
            raise SelectorError("country requires a CountryMap")
        outcomes = [
            _single_language_outcome(item.item_id, select_country(item, state), matrix)
            for item in test_items
        ]
    elif strategy is Strategy.LSK_EXTRACTOR:
        if state is None or not hasattr(state, "route"):
            raise SelectorError("lsk_extractor requires a trained router")
        outcomes = [
            _single_language_outcome(item.item_id, state.route(item.item_id), matrix)
            for item in test_items
        ]
    elif strategy is Strategy.ORACLE:
        for item in test_items:
            language, correct = select_oracle(item.item_id, matrix)
            outcomes.append(ItemOutcome(item_id=item.item_id, language=language, correct=correct))
    else:  # pragma: no cover
        raise SelectorError(f"unknown strategy {strategy}")
    return SelectorOutcome(strategy=strategy, per_item=tuple(outcomes))


def save_selection_cache(cache: Mapping[str, Language], path: str | Path) -> None:
    payload = {item_id: lang.value for item_id, lang in sorted(cache.items())}
    write_atomic(Path(path), (json.dumps(payload, ensure_ascii=False, indent=2) + "\n").encode("utf-8"))


def load_selection_cache(path: str | Path) -> dict[str, Language]:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    return {item_id: Language(code) for item_id, code in data.items()}
