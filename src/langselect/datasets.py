"""Dataset ingestion: a uniform MCQ schema, claim-to-MCQ reformatting, splits.

All loaders emit :class:`McqItem`, the single question shape the rest of the
pipeline consumes. Files are line-delimited JSON; see ``load_dataset`` for the
record schema.
"""

from __future__ import annotations

import hashlib
import json
import random
import string
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

from .languages import Language
from .store import write_atomic

CULTURE_ATLAS_QUESTION = "Which is the following is true about {country}?"

_LETTERS = string.ascii_uppercase


class DatasetError(ValueError):
    """Malformed dataset file or record."""


class DatasetId(str, Enum):
    BLEND = "blend"
    CULTURE_ATLAS = "culture_atlas"
    SOCIAL_IQA = "social_iqa"
    CUSTOM = "custom"

    def __str__(self) -> str:
        return self.value


class Choice(NamedTuple):
    label: str
    text: str


@dataclass(frozen=True)
class McqItem:
    """One multiple-choice question with labeled choices and a gold label."""

    item_id: str
    dataset_id: DatasetId
    question: str
    choices: tuple[Choice, ...]
    gold_label: str
    country: str | None = None
    source_language: Language = Language.ENGLISH

    def __post_init__(self) -> None:
        if not self.question:
            raise DatasetError("question is empty")
        n = len(self.choices)
        if not 2 <= n <= 26:
            raise DatasetError(f"expected 2-26 choices, got {n}")
        expected = tuple(_LETTERS[i] for i in range(n))
        if tuple(c.label for c in self.choices) != expected:
            raise DatasetError("choice labels must be consecutive letters from A")
        if any(not c.text for c in self.choices):
            raise DatasetError("choice text is empty")
        if self.gold_label not in expected:
            raise DatasetError("gold label not among choices")

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(c.label for c in self.choices)

    def choice_text(self, label: str) -> str:
        for c in self.choices:
            if c.label == label:
                return c.text
        raise KeyError(label)


@dataclass(frozen=True)
class ClaimRecord:
    """One true/false cultural claim about a country."""

    country: str
    claim: str
    truth: bool

    def __post_init__(self) -> None:
        if not self.country:
            raise DatasetError("claim country is empty")
        if not self.claim:
            raise DatasetError("claim text is empty")


@dataclass(frozen=True)
class SplitSpec:
    seed: int
    train_count: int
    test_count: int

    def __post_init__(self) -> None:
        if self.train_count < 0 or self.test_count < 0:
            raise DatasetError("split counts must be non-negative")


def content_hash(question: str, choice_texts: Sequence[str], gold_label: str) -> str:
    """Stable 16-hex-digit digest of an item's content, used for generated ids."""
    payload = json.dumps(
        {"question": question, "choices": list(choice_texts), "gold": gold_label},
        ensure_ascii=False,
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def make_item_id(dataset_id: DatasetId, question: str, choice_texts: Sequence[str], gold_label: str) -> str:
    return f"{dataset_id.value}/{content_hash(question, choice_texts, gold_label)}"


def _choices_from_texts(texts: Sequence[str]) -> tuple[Choice, ...]:
    return tuple(Choice(_LETTERS[i], t) for i, t in enumerate(texts))


def load_dataset(
    path: str | Path,
    dataset_id: DatasetId,
    source_language: Language = Language.ENGLISH,
) -> list[McqItem]:
    """Load line-delimited JSON MCQ records.

    Record schema: ``id`` (optional), ``question``, ``choices`` (array of
    strings, position i maps to label letter i), ``answer`` (letter), optional
    ``country``. Records without an ``id`` get a content-hash id.
    """
    path = Path(path)
    items: list[McqItem] = []
    seen_ids: set[str] = set()
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DatasetError(f"{path}: line {lineno}: invalid JSON: {exc}") from None
            if not isinstance(record, dict):
                raise DatasetError(f"{path}: line {lineno}: record is not an object")
            for fld in ("question", "choices", "answer"):
                if fld not in record:
                    raise DatasetError(f"{path}: line {lineno}: missing field '{fld}'")
            choices = record["choices"]
            if not isinstance(choices, list) or not all(isinstance(c, str) for c in choices):
                raise DatasetError(f"{path}: line {lineno}: field 'choices' must be an array of strings")
            item_id = record.get("id") or make_item_id(dataset_id, record["question"], choices, record["answer"])
            if item_id in seen_ids:
                raise DatasetError(f"{path}: line {lineno}: duplicate item id {item_id!r}")
            seen_ids.add(item_id)
            try:
                item = McqItem(
                    item_id=item_id,
                    dataset_id=dataset_id,
                    question=record["question"],
                    choices=_choices_from_texts(choices),
                    gold_label=record["answer"],
                    country=record.get("country"),
                    source_language=source_language,
                )
            except DatasetError as exc:
                raise DatasetError(f"{path}: line {lineno}: {exc}") from None
            items.append(item)
    return items


def item_to_record(item: McqItem) -> dict:
    record = {
        "id": item.item_id,
        "question": item.question,
        "choices": [c.text for c in item.choices],
        "answer": item.gold_label,
    }
    if item.country is not None:
        record["country"] = item.country
    return record


def save_dataset(items: Iterable[McqItem], path: str | Path) -> None:
    """Write items as line-delimited JSON in the same schema ``load_dataset`` reads,
    atomically (``store.write_atomic``)."""
    payload = "".join(json.dumps(item_to_record(item), ensure_ascii=False) + "\n" for item in items)
    write_atomic(Path(path), payload.encode("utf-8"))


def load_claims(path: str | Path) -> list[ClaimRecord]:
    """Load line-delimited JSON claims: ``country``, ``claim``, ``label``.

    ``label`` may be a JSON boolean or the strings "true"/"false".
    """
    path = Path(path)
    claims: list[ClaimRecord] = []
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DatasetError(f"{path}: line {lineno}: invalid JSON: {exc}") from None
            for fld in ("country", "claim", "label"):
                if fld not in record:
                    raise DatasetError(f"{path}: line {lineno}: missing field '{fld}'")
            label = record["label"]
            if isinstance(label, str) and label.lower() in ("true", "false"):
                truth = label.lower() == "true"
            elif isinstance(label, bool):
                truth = label
            else:
                raise DatasetError(f"{path}: line {lineno}: field 'label' must be true or false")
            try:
                claims.append(ClaimRecord(country=record["country"], claim=record["claim"], truth=truth))
            except DatasetError as exc:
                raise DatasetError(f"{path}: line {lineno}: {exc}") from None
    return claims


@dataclass
class ReformatResult:
    items: list[McqItem]
    skipped_by_country: dict[str, int] = field(default_factory=dict)

    @property
    def skipped(self) -> int:
        return sum(self.skipped_by_country.values())


def reformat_culture_atlas(claims: Sequence[ClaimRecord], seed: int) -> ReformatResult:
    """Turn true/false claims into 4-option MCQs: one true claim, three false.

    Per country, each true claim yields at most one item. False distractors are
    drawn without replacement from the country's shuffled false pool while it
    lasts; once fewer than three unused falses remain, distractors are sampled
    with reuse across items (never within one item). Countries with fewer than
    three false claims contribute nothing; their true claims are counted in the
    skip summary.
    """
    rng = random.Random(seed)
    by_country: dict[str, dict[bool, list[ClaimRecord]]] = {}
    country_order: list[str] = []
    for claim in claims:
        if claim.country not in by_country:
            by_country[claim.country] = {True: [], False: []}
            country_order.append(claim.country)
        by_country[claim.country][claim.truth].append(claim)

    result = ReformatResult(items=[])
    for country in country_order:
        trues = by_country[country][True]
        falses = by_country[country][False]
        if not trues:
            continue
        if len(falses) < 3:
            result.skipped_by_country[country] = len(trues)
            continue
        pool = list(falses)
        rng.shuffle(pool)
        for true_claim in trues:
            if len(pool) >= 3:
                distractors = [pool.pop() for _ in range(3)]
            else:
                distractors = rng.sample(falses, 3)
            texts = [true_claim.claim] + [d.claim for d in distractors]
            order = list(range(4))
            rng.shuffle(order)
            shuffled = [texts[i] for i in order]
            gold = _LETTERS[order.index(0)]
            question = CULTURE_ATLAS_QUESTION.format(country=country)
            result.items.append(
                McqItem(
                    item_id=make_item_id(DatasetId.CULTURE_ATLAS, question, shuffled, gold),
                    dataset_id=DatasetId.CULTURE_ATLAS,
                    question=question,
                    choices=_choices_from_texts(shuffled),
                    gold_label=gold,
                    country=country,
                )
            )
    return result


def split(items: Sequence[McqItem], spec: SplitSpec) -> tuple[list[McqItem], list[McqItem]]:
    """Deterministic disjoint train/test split: seeded shuffle of indices, then slice."""
    if spec.train_count + spec.test_count > len(items):
        raise DatasetError(
            f"split needs {spec.train_count + spec.test_count} items, dataset has {len(items)}"
        )
    indices = list(range(len(items)))
    random.Random(spec.seed).shuffle(indices)
    train = [items[i] for i in indices[: spec.train_count]]
    test = [items[i] for i in indices[spec.train_count : spec.train_count + spec.test_count]]
    return train, test
