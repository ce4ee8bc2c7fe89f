"""Append-only persistence of inference records and response-matrix assembly.

One directory per (dataset, model) holds ``records.jsonl`` (one record per
line, first write wins per key) and a ``manifest.json`` provenance sidecar.
Matrices are rebuilt from the store on demand; correctness is recomputed from
label vs gold at build time so gold fixes propagate without re-running models.
"""

from __future__ import annotations

import datetime as _dt
import json
import logging
import os
import threading
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

from .languages import Language, canonical_sorted

if TYPE_CHECKING:
    from .datasets import McqItem

logger = logging.getLogger(__name__)


class StoreError(RuntimeError):
    """Corrupt or unusable run store."""


class RecordStatus(str, Enum):
    OK = "ok"
    INVALID_OUTPUT = "invalid_output"
    TRANSPORT_ERROR = "transport_error"


class CellStatus(str, Enum):
    OK = "ok"
    INVALID_OUTPUT = "invalid_output"
    MISSING = "missing"


def utc_now() -> str:
    return _dt.datetime.now(_dt.timezone.utc).isoformat(timespec="seconds")


MANIFEST_NAME = "manifest.json"
FSYNC_EVERY = 64  # appended records between fsyncs of records.jsonl
_encode_json = json.JSONEncoder(ensure_ascii=False).encode


def write_atomic(path: Path, data: bytes) -> None:
    """Replace ``path`` with ``data`` durably: temp file, fsync, rename."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with tmp.open("wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


@dataclass(frozen=True, slots=True)
class InferenceRecord:
    """One cached model call for an (item, language) cell."""

    item_id: str
    language: Language
    model_name: str
    prompt_hash: str
    raw_output: str
    extracted_label: str | None
    status: RecordStatus
    attempt_count: int = 1
    created_at: str = field(default_factory=utc_now)

    def __post_init__(self) -> None:
        if self.status is RecordStatus.OK and not self.extracted_label:
            raise ValueError("ok records must carry an extracted label")

    @property
    def key(self) -> tuple[str, str, str, str]:
        return (self.item_id, self.language.value, self.model_name, self.prompt_hash)

    def to_json(self) -> str:
        payload = {
            "item_id": self.item_id,
            "language": self.language.value,
            "model_name": self.model_name,
            "prompt_hash": self.prompt_hash,
            "raw_output": self.raw_output,
            "extracted_label": self.extracted_label,
            "status": self.status.value,
            "attempt_count": self.attempt_count,
            "created_at": self.created_at,
        }
        return _encode_json(payload)

    @classmethod
    def from_json(cls, line: str) -> "InferenceRecord":
        data = json.loads(line)
        return cls(
            item_id=data["item_id"],
            language=Language(data["language"]),
            model_name=data["model_name"],
            prompt_hash=data["prompt_hash"],
            raw_output=data["raw_output"],
            extracted_label=data.get("extracted_label"),
            status=RecordStatus(data["status"]),
            attempt_count=data.get("attempt_count", 1),
            created_at=data.get("created_at", ""),
        )


@dataclass(frozen=True)
class AnswerCell:
    label: str | None
    correct: bool
    status: CellStatus

    def __post_init__(self) -> None:
        if self.status is CellStatus.MISSING and (self.label is not None or self.correct):
            raise ValueError("missing cells carry no label and are incorrect")


MISSING_CELL = AnswerCell(label=None, correct=False, status=CellStatus.MISSING)
INVALID_CELL = AnswerCell(label=None, correct=False, status=CellStatus.INVALID_OUTPUT)


@dataclass(frozen=True, eq=True)
class ResponseMatrix:
    """The (item x language) table of extracted answers all selectors consume."""

    dataset_id: str
    model_name: str
    languages: tuple[Language, ...]
    items: tuple[str, ...]
    cells: dict[tuple[str, Language], AnswerCell]
    gold: dict[str, str]
    warnings: tuple[str, ...] = ()

    def cell(self, item_id: str, language: Language) -> AnswerCell:
        return self.cells.get((item_id, language), MISSING_CELL)

    def subset(self, item_ids: Sequence[str]) -> "ResponseMatrix":
        """Matrix restricted to ``item_ids`` (kept in the given order)."""
        wanted = list(item_ids)
        missing = [i for i in wanted if i not in self.gold]
        if missing:
            raise KeyError(f"items not in matrix: {missing[:5]}")
        cells = {
            (item, lang): self.cells[(item, lang)]
            for item in wanted
            for lang in self.languages
        }
        return ResponseMatrix(
            dataset_id=self.dataset_id,
            model_name=self.model_name,
            languages=self.languages,
            items=tuple(wanted),
            cells=cells,
            gold={i: self.gold[i] for i in wanted},
        )

    def column_accuracy(self, language: Language) -> float:
        """Fraction of items answered correctly in ``language`` (missing and
        invalid cells count as incorrect)."""
        if not self.items:
            raise ValueError("matrix has no items")
        correct = sum(1 for item in self.items if self.cell(item, language).correct)
        return correct / len(self.items)


class RunStore:
    """Append-only JSONL store with first-write-wins idempotence per key."""

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.records_path = self.directory / "records.jsonl"
        self.manifest_path = self.directory / MANIFEST_NAME
        self._lock = threading.Lock()
        self._records: list[InferenceRecord] = []
        self._by_key: dict[tuple[str, str, str, str], InferenceRecord] = {}
        self.conflicts = 0
        self._unsynced = 0
        self._fh = None
        self._good_offset = 0
        self._load()

    def _load(self) -> None:
        self._needs_newline = False
        if not self.records_path.exists():
            return
        raw = self.records_path.read_bytes()
        pos = 0
        lineno = 0
        while pos < len(raw):
            newline_at = raw.find(b"\n", pos)
            end = len(raw) if newline_at < 0 else newline_at
            line = raw[pos:end]
            lineno += 1
            if line.strip():
                try:
                    record = InferenceRecord.from_json(line.decode("utf-8"))
                except Exception as exc:
                    if end >= len(raw) or end + 1 >= len(raw):
                        # Torn final line from an interrupted write; drop it.
                        logger.warning("%s: dropping torn final line %d", self.records_path, lineno)
                        return
                    raise StoreError(f"{self.records_path}: line {lineno} corrupt: {exc}") from None
                self._remember(record)
                if newline_at < 0:
                    self._good_offset = len(raw)
                    self._needs_newline = True
                else:
                    self._good_offset = newline_at + 1
            elif newline_at >= 0:
                self._good_offset = newline_at + 1
            pos = end + 1

    def _remember(self, record: InferenceRecord, append: bool = False) -> bool:
        """Index ``record`` unless its key is stored (another output under it is a
        conflict); with ``append`` only once its line is written to the file."""
        key = record.key
        existing = self._by_key.get(key)
        if existing is not None:
            if (existing.raw_output, existing.extracted_label, existing.status) != (
                record.raw_output, record.extracted_label, record.status
            ):
                self.conflicts += 1
            return False
        if append:
            # backslashreplace acts only on a lone surrogate (json.loads of a reply
            # can yield one): its \uXXXX escape is JSON and reads back equal.
            self._open_for_append().write((record.to_json() + "\n").encode("utf-8", "backslashreplace"))
        self._by_key[key] = record
        self._records.append(record)
        return True

    def _open_for_append(self):
        if self._fh is None:
            if self.records_path.exists() and self.records_path.stat().st_size > self._good_offset:
                # Truncate away a torn final line before appending.
                with self.records_path.open("rb+") as fh:
                    fh.truncate(self._good_offset)
            self._fh = self.records_path.open("ab")
            if self._needs_newline:
                self._fh.write(b"\n")
                self._needs_newline = False
        return self._fh

    def record(self, record: InferenceRecord) -> bool:
        """Append one record, flushed; True when written, False when its key is stored."""
        return self.record_many((record,)) == 1

    def record_many(self, records: Iterable[InferenceRecord]) -> int:
        """Append ``records`` in order, dropping any whose key is stored (earlier
        in the batch too), and return how many were written. One flush at the
        end, also when ``records`` raises; an fsync once ``FSYNC_EVERY`` are unsynced."""
        written = 0
        with self._lock:
            try:
                for record in records:
                    written += self._remember(record, append=True)
            finally:
                if self._fh is not None:
                    self._fh.flush()
                self._unsynced += written
                if self._unsynced >= FSYNC_EVERY:
                    os.fsync(self._fh.fileno())
                    self._unsynced = 0
        return written

    def flush(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.flush()
                os.fsync(self._fh.fileno())
                self._unsynced = 0

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.flush()
                os.fsync(self._fh.fileno())
                self._fh.close()
                self._fh = None
                self._unsynced = 0

    def __enter__(self) -> "RunStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __len__(self) -> int:
        return len(self._records)

    def records(self) -> Iterator[InferenceRecord]:
        """Stored records in write order."""
        return iter(list(self._records))

    def write_manifest(self, manifest: Mapping) -> None:
        payload = json.dumps(manifest, ensure_ascii=False, indent=2, sort_keys=True) + "\n"
        write_atomic(self.manifest_path, payload.encode("utf-8"))

    def read_manifest(self) -> dict | None:
        return read_manifest(self.directory)


def read_manifest(directory: str | Path) -> dict | None:
    """The manifest of the store in ``directory``, read without loading its records."""
    path = Path(directory) / MANIFEST_NAME
    if not path.exists():
        return None
    return json.loads(path.read_text(encoding="utf-8"))


def build_matrix(
    store: RunStore,
    dataset: Sequence[McqItem],
    model_name: str,
    languages: Iterable[Language],
) -> ResponseMatrix:
    """Assemble the response matrix for ``dataset`` from stored records.

    Per (item, language): the first-written ok record wins; otherwise the
    first invalid_output record; otherwise the cell is explicitly missing
    (transport errors leave cells missing so a resumed run retries them).
    """
    langs = tuple(canonical_sorted(dict.fromkeys(languages)))
    lang_set = set(langs)
    items = tuple(item.item_id for item in dataset)
    gold = {item.item_id: item.gold_label for item in dataset}
    if len(gold) != len(items):
        raise StoreError("dataset has duplicate item ids")

    first_ok: dict[tuple[str, Language], InferenceRecord] = {}
    first_invalid: dict[tuple[str, Language], InferenceRecord] = {}
    unknown_items: list[str] = []
    dataset_ids = set(items)
    for record in store.records():
        if record.model_name != model_name or record.language not in lang_set:
            continue
        if record.item_id not in dataset_ids:
            if record.item_id not in unknown_items:
                unknown_items.append(record.item_id)
            continue
        key = (record.item_id, record.language)
        if record.status is RecordStatus.OK:
            first_ok.setdefault(key, record)
        elif record.status is RecordStatus.INVALID_OUTPUT:
            first_invalid.setdefault(key, record)

    cells: dict[tuple[str, Language], AnswerCell] = {}
    for item_id in items:
        for lang in langs:
            key = (item_id, lang)
            ok_rec = first_ok.get(key)
            if ok_rec is not None:
                label = ok_rec.extracted_label
                cells[key] = AnswerCell(label=label, correct=label == gold[item_id], status=CellStatus.OK)
            elif key in first_invalid:
                cells[key] = INVALID_CELL
            else:
                cells[key] = MISSING_CELL

    warnings = tuple(f"store record for unknown item {item_id}" for item_id in unknown_items)
    for warning in warnings:
        logger.warning("%s", warning)
    dataset_id = dataset[0].dataset_id.value if dataset else "empty"
    return ResponseMatrix(
        dataset_id=dataset_id,
        model_name=model_name,
        languages=langs,
        items=items,
        cells=cells,
        gold=gold,
        warnings=warnings,
    )


def missing_cells(matrix: ResponseMatrix) -> list[tuple[str, Language]]:
    """Cells still to run, in item order then canonical language order."""
    return [
        (item_id, lang)
        for item_id in matrix.items
        for lang in matrix.languages
        if matrix.cell(item_id, lang).status is CellStatus.MISSING
    ]


def matrix_counts(matrix: ResponseMatrix) -> dict[str, int]:
    """Cell counts by status; ok + invalid + missing equals items x languages."""
    counts = {status.value: 0 for status in CellStatus}
    for item_id in matrix.items:
        for lang in matrix.languages:
            counts[matrix.cell(item_id, lang).status.value] += 1
    return counts


__all__ = [
    "AnswerCell",
    "CellStatus",
    "InferenceRecord",
    "MISSING_CELL",
    "RecordStatus",
    "ResponseMatrix",
    "RunStore",
    "StoreError",
    "build_matrix",
    "matrix_counts",
    "missing_cells",
    "utc_now",
    "write_atomic",
]
