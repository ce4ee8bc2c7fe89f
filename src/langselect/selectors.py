"""The seven language-selection strategies, evaluated over a response matrix.

Each strategy picks a reasoning language per test item (majority and oracle
have their own correctness rules) and is scored by the accuracy of the chosen
language's stored answer. Missing and invalid cells count as incorrect
everywhere and cast no majority vote. All tie-breaking uses canonical
language order, so repeated evaluation is byte-identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .datasets import McqItem
from .languages import Language, canonical_index
from .store import LABELS, ResponseMatrix, read_json, write_atomic


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
SINGLE_LANGUAGE_STRATEGIES = frozenset(Strategy) - {Strategy.MAJORITY, Strategy.ORACLE}


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
        """The JSON object of country names to language codes at ``path``, ``_default``
        that of unmapped countries; SelectorError naming the file when it is bad."""
        entries = _language_map(path, "country")
        default = entries.pop("_default", Language.ENGLISH)
        try:
            return cls.from_entries(entries, default=default)
        except ValueError as exc:
            raise SelectorError(f"{path}: {exc}") from None

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


@dataclass(frozen=True)
class ItemOutcome:
    item_id: str
    language: Language | None
    correct: bool


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


def train_global_language(train_matrix: ResponseMatrix) -> GlobalChoice:
    """Language with the highest training accuracy, canonical tie-break."""
    if not train_matrix.items:
        raise SelectorError("training split is empty")
    if not train_matrix.languages:
        raise SelectorError("training matrix has no languages")
    n = len(train_matrix.items)
    hits = train_matrix.correct.sum(axis=0).tolist()
    accuracies = {lang: count / n for lang, count in zip(train_matrix.languages, hits)}
    best = max(accuracies, key=lambda lang: (accuracies[lang], -canonical_index(lang)))
    return GlobalChoice(language=best, train_accuracy_by_language=accuracies)


_LETTERS = np.frombuffer(LABELS.encode("ascii"), dtype=np.uint8)


def _majority_voters(grid: np.ndarray) -> np.ndarray:
    """Per row, the column of the first voter for the plurality label over its ok
    cells, or -1 where no cell voted. Columns are in canonical order, so a tie
    between labels goes to the label whose first voter comes first."""
    width = grid.shape[1]
    votes = grid[:, :, None] == _LETTERS  # (rows, columns, letters)
    counts = votes.sum(axis=1)
    first = np.where(counts > 0, votes.argmax(axis=1), width)
    column = np.where(counts == counts.max(axis=1, keepdims=True), first, width).min(axis=1)
    return np.where(column < width, column, -1)


def _chosen_languages(
    strategy: Strategy, test_items: Sequence[McqItem], matrix: ResponseMatrix, state
) -> list[Language]:
    """The one language a single-language strategy picks for each test item."""
    if strategy is Strategy.ONLY_ENGLISH:
        if Language.ENGLISH not in matrix.languages:
            raise SelectorError("matrix has no English column")
        return [Language.ENGLISH] * len(test_items)
    if strategy is Strategy.GLOBAL_LANGUAGE:
        if not isinstance(state, GlobalChoice):
            raise SelectorError("global_language requires a trained GlobalChoice")
        return [state.language] * len(test_items)
    if strategy is Strategy.LLM_SELECTED:
        if state is None:
            raise SelectorError("llm_selected requires the selection cache")
        try:
            return [state[item.item_id] for item in test_items]
        except KeyError as exc:
            raise SelectorError(
                f"no cached expert-language choice for item {exc.args[0]}; run the selection pass first"
            ) from None
    if strategy is Strategy.COUNTRY:
        if not isinstance(state, CountryMap):
            raise SelectorError("country requires a CountryMap")
        return [state.lookup(item.country) for item in test_items]
    if strategy is Strategy.LSK_EXTRACTOR:
        if state is None or not hasattr(state, "route"):
            raise SelectorError("lsk_extractor requires a trained router")
        return list(state.route([item.item_id for item in test_items]))
    raise SelectorError(f"unknown strategy {strategy}")  # pragma: no cover


def evaluate(
    strategy: Strategy,
    test_items: Sequence[McqItem],
    matrix: ResponseMatrix,
    state=None,
) -> SelectorOutcome:
    """Apply one strategy to every test item (each a row of ``matrix``) and aggregate correctness.

    ``state`` carries the strategy's trained inputs: a GlobalChoice for
    global_language, an item->Language mapping for llm_selected, a CountryMap
    for country, and a router whose ``route(item_ids)`` returns one language
    per item for lsk_extractor.
    """
    if not test_items:
        raise SelectorError("test split is empty")
    item_ids = [item.item_id for item in test_items]
    row_of = {item_id: row for row, item_id in enumerate(matrix.items)}
    rows = [row_of[item_id] for item_id in item_ids]
    correct = matrix.correct[rows]
    if strategy is Strategy.MAJORITY:
        columns = _majority_voters(matrix.grid[rows])
        chosen = [None] * len(rows)
    elif strategy is Strategy.ORACLE:
        columns = np.where(correct.any(axis=1), correct.argmax(axis=1), -1)
        chosen = [matrix.languages[c] if c >= 0 else None for c in columns.tolist()]
    else:
        chosen = _chosen_languages(strategy, test_items, matrix, state)
        column_of = {lang: col for col, lang in enumerate(matrix.languages)}
        columns = np.array([column_of.get(lang, -1) for lang in chosen], dtype=np.intp)
    # Column -1 reads False: no vote, no correct language, or no such column.
    scored = np.zeros((len(rows), len(matrix.languages) + 1), dtype=bool)
    scored[:, :-1] = correct
    hits = scored[np.arange(len(rows)), columns].tolist()
    return SelectorOutcome(strategy, tuple(ItemOutcome(*outcome) for outcome in zip(item_ids, chosen, hits)))


def save_selection_cache(cache: Mapping[str, Language], path: str | Path) -> None:
    payload = {item_id: lang.value for item_id, lang in sorted(cache.items())}
    write_atomic(Path(path), (json.dumps(payload, ensure_ascii=False, indent=2) + "\n").encode("utf-8"))


def load_selection_cache(path: str | Path) -> dict[str, Language]:
    """The ``item id -> Language`` map ``save_selection_cache`` wrote; SelectorError
    naming the file, and the entry, when it holds anything else."""
    return _language_map(path, "item")


def _language_map(path: str | Path, key: str) -> dict[str, Language]:
    """The JSON object at ``path`` of keys to language codes; SelectorError
    naming the file, and the ``key`` whose code is bad, when it holds anything else."""
    languages = {}
    for name, code in read_json(path, SelectorError).items():
        try:
            languages[name] = Language(code)
        except ValueError:
            raise SelectorError(f"{path}: {key} {name!r} has {code!r}, not a language code") from None
    return languages
