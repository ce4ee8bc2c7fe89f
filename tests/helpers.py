"""Shared builders for tests: small matrices, random matrices, items."""

from __future__ import annotations

import json
import random
import string
from pathlib import Path

from langselect.datasets import Choice, DatasetId, McqItem
from langselect.languages import Language, canonical_sorted
from langselect.store import INVALID as INVALID_BYTE
from langselect.store import MISSING as MISSING_BYTE
from langselect.store import _CODES, _COLUMNS, _LANGUAGE_BYTE, INDEX_NAME, InferenceRecord, ResponseMatrix, RunStore, _parse_line

INVALID = "invalid"
MISSING = None

_COUNTRIES = ["China", "Mexico", "Azerbaijan", "Thailand", "France", None]
# Prompt hashes that are not 64 lowercase hex characters, as no prompts.prompt_hash gives: a store refuses each.
ODD_HASHES = ["h1", "", "A" * 64, "0" * 63, "0" * 65, "g" * 64, "0" * 62 + " 0", "é" * 64, "0" * 62 + "Ab"]


def write_templates(directory: Path, codes) -> None:
    """A template file for each language code of ``codes`` in a new ``directory``, its five fields named after it."""
    directory.mkdir()
    fields = ("question_label", "choices_label", "instruction", "reasoning_placeholder", "answer_placeholder")
    for code in codes:
        template = {field: f"{field} ({code})" for field in fields}
        (directory / f"{code}.json").write_text(json.dumps(template), encoding="utf-8")


def make_item(item_id: str, gold: str = "A", country: str | None = None, n_choices: int = 4) -> McqItem:
    labels = string.ascii_uppercase[:n_choices]
    return McqItem(
        item_id=item_id,
        dataset_id=DatasetId.CUSTOM,
        question=f"question for {item_id}?",
        choices=tuple(Choice(lab, f"choice {lab} of {item_id}") for lab in labels),
        gold_label=gold,
        country=country,
    )


def make_matrix(
    item_rows: dict[str, dict[Language, object]],
    languages: list[Language] | None = None,
    gold: str = "A",
    wrong: str = "B",
) -> tuple[list[McqItem], ResponseMatrix]:
    """Rows map item -> language -> True/False/INVALID/MISSING."""
    if languages is None:
        languages = sorted({lang for row in item_rows.values() for lang in row}, key=lambda l: l.value)
    langs = tuple(canonical_sorted(languages))
    items = [make_item(item_id, gold=gold) for item_id in item_rows]
    cells = bytearray()
    for item_id, row in item_rows.items():
        for lang in langs:
            value = row.get(lang, MISSING)
            if value is MISSING:
                cells.append(MISSING_BYTE)
            elif value == INVALID:
                cells.append(INVALID_BYTE)
            else:
                cells.append(ord(gold if value is True else wrong))
    matrix = ResponseMatrix(
        languages=langs,
        items=tuple(item_rows),
        cells=bytes(cells),
        gold={item_id: gold for item_id in item_rows},
    )
    return items, matrix


def random_matrix(
    rng: random.Random,
    n_items: int,
    languages: list[Language],
    *,
    p_missing: float = 0.1,
    p_invalid: float = 0.1,
    p_correct: float = 0.4,
    n_choices: int = 4,
) -> tuple[list[McqItem], ResponseMatrix]:
    """Random matrix over real items; cells are ok/invalid/missing with the
    given probabilities and ok cells are correct with p_correct."""
    langs = tuple(canonical_sorted(languages))
    labels = string.ascii_uppercase[:n_choices]
    items = []
    cells = bytearray()
    gold_map: dict[str, str] = {}
    for i in range(n_items):
        gold = rng.choice(labels)
        item = make_item(f"it{i:03d}", gold=gold, country=rng.choice(_COUNTRIES), n_choices=n_choices)
        items.append(item)
        gold_map[item.item_id] = gold
        for lang in langs:
            roll = rng.random()
            if roll < p_missing:
                cells.append(MISSING_BYTE)
            elif roll < p_missing + p_invalid:
                cells.append(INVALID_BYTE)
            elif rng.random() < p_correct:
                cells.append(ord(gold))
            else:
                cells.append(ord(rng.choice([lab for lab in labels if lab != gold])))
    matrix = ResponseMatrix(
        languages=langs,
        items=tuple(gold_map),
        cells=bytes(cells),
        gold=gold_map,
    )
    return items, matrix


def cell(matrix: ResponseMatrix, item_id: str, language: Language) -> str:
    """One cell's grid byte as a character: its ok label letter, "." or "!"."""
    return chr(matrix.grid[matrix.items.index(item_id), matrix.languages.index(language)])


def cell_correct(matrix: ResponseMatrix, item_id: str, language: Language) -> bool:
    """Whether one cell holds the item's gold label, read cell by cell."""
    return cell(matrix, item_id, language) == matrix.gold[item_id]


def store_keys(store: RunStore) -> list[tuple[str, str, str, str]]:
    """Each row's key, ``InferenceRecord.key``, in row order, decoded from the store's index."""
    items, languages, models = list(store._item_ids), list(_LANGUAGE_BYTE), list(store._models)
    hashes = (compact[_CODES.size :].hex() for compact in store._rows)
    return [(items[i], languages[c], models[m], h) for (i, m, c), h in zip(_CODES.iter_unpack(store.codes), hashes)]


def stored_records(store: RunStore) -> list[InferenceRecord]:
    """The records ``store`` holds, in write order, read back from its
    ``records.jsonl``: the first line of each key (a later line under it
    repeats or conflicts). A torn final line past them is not read."""
    if not len(store):
        return []
    store.flush()
    records: dict[tuple, InferenceRecord] = {}
    with store.records_path.open("rb") as fh:
        for line in fh:
            if line.strip():
                record = _parse_line(line.decode("utf-8"))
                records.setdefault(record.key, record)
                if len(records) == len(store):
                    break
    return list(records.values())


def read_index(directory: Path) -> tuple[dict, dict[str, bytes]]:
    """The header and the columns, by name, of the store index in ``directory``."""
    head, _, body = (Path(directory) / INDEX_NAME).read_bytes().partition(b"\n")
    header = json.loads(head)
    columns, at = {}, 0
    for name, width in _COLUMNS.items():
        columns[name], at = body[at : at + header["rows"] * width], at + header["rows"] * width
    return header, columns


def write_index(directory: Path, header: dict | bytes, columns: dict[str, bytes]) -> None:
    """Write a store index of ``header`` (a dict, or a header line's bytes) and ``columns``, in their order."""
    head = header if isinstance(header, bytes) else json.dumps(header).encode("ascii")
    (Path(directory) / INDEX_NAME).write_bytes(head + b"\n" + b"".join(columns.values()))
