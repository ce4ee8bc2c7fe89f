"""Append-only persistence of inference records and response-matrix assembly.

One directory per (dataset, model) holds ``records.jsonl`` (one record per
line, first write wins per key) and a ``manifest.json`` provenance sidecar.
``RunStore.append``'s loop checks a row's prompt hash (64 lowercase hex, as
``prompts.prompt_hash`` gives), language, status and label, for a recorded
entry and a parsed line alike: a line it refuses is corrupt. The store keeps
an index of the file and each row's language verdict, not its text;
``evaluate`` persists it in ``records.index`` (a JSON header line, then the
columns' raw bytes), so a later open parses only appended lines, each with
``_parse_line``, and leaves whole lines only. Matrices are rebuilt from the
store on demand as a byte grid: one byte per (item, language) cell, rows in
item order and columns in canonical language order. The byte is the ok
answer's label letter, ``.`` for a missing cell or ``!`` for an invalid one.
Correctness is recomputed from label vs gold at build time so gold fixes
propagate without re-running models.
"""

from __future__ import annotations

import datetime as _dt
import json
import logging
import os
import string
import struct
from array import array
from dataclasses import dataclass, field
from enum import Enum
from functools import cache
from hashlib import sha256
from itertools import count, islice, repeat
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .langid import DETECTOR_VERSION
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


def utc_now() -> str:
    return _dt.datetime.now(_dt.timezone.utc).isoformat(timespec="seconds")


MANIFEST_NAME = "manifest.json"
INDEX_NAME = "records.index"
INDEX_VERSION = 4  # bump with any change of what the index holds or of what a line indexes to
DIGEST_SIZE = 32  # bytes of a row's output digest in RunStore.digests
HASH_SIZE = 32  # bytes of a prompt hash, 64 lowercase hex characters as prompts.prompt_hash gives it
FSYNC_EVERY = 64  # appended records between fsyncs of records.jsonl
# A JSON string literal with only '"', '\' and control characters escaped: the
# C-accelerated function json.JSONEncoder(ensure_ascii=False) quotes with.
json_string = json.encoder.encode_basestring
_LANGUAGE_BY_CODE = {lang._value_: lang for lang in Language}
_STATUS_BY_CODE = {status._value_: status for status in RecordStatus}
_LANGUAGE_BYTE = {code: byte for byte, code in enumerate(_LANGUAGE_BY_CODE)}  # a key's language byte
# A row's key codes in RunStore.codes, and packed as its compact key starts.
KEY_CODES, _CODES = np.dtype([("item", "<u4"), ("model", "<u2"), ("language", "u1")]), struct.Struct("<IHB")
LABELS = string.ascii_uppercase  # an ok record's label is one of these: one byte of the matrix grid
_LABEL_BYTES = b"\0" + LABELS.encode("ascii")  # the label column's bytes
MISSING = ord(".")  # grid byte of a cell with no ok or invalid record
INVALID = ord("!")  # grid byte of a cell whose first decisive record is invalid
STATUSES = tuple(RecordStatus)  # a store row's status byte indexes this
_STATUS_BYTE = {status._value_: byte for byte, status in enumerate(STATUSES)}
STATUS_OK = _STATUS_BYTE[RecordStatus.OK._value_]
STATUS_INVALID = _STATUS_BYTE[RecordStatus.INVALID_OUTPUT._value_]
_APPEND_BUFFER = 1 << 16  # bytes of appended lines handed to the OS at a time
_HASH_BLOCK = 1 << 20  # bytes of records.jsonl hashed at a time to check an index
UNDETECTED, UNDETECTABLE = 0, 1  # verdict bytes: not detected yet; no reasoning text or no signal
VERDICT = {language: byte for byte, language in enumerate(Language, 2)}  # the verdict byte of a detected language
# What the index's verdict bytes mean: the detector that made them and the languages they index.
_DETECTOR = {"version": DETECTOR_VERSION, "languages": [language._value_ for language in VERDICT]}
_KEY = np.dtype([("codes", KEY_CODES), ("hash", f"V{HASH_SIZE}")])  # a compact key: codes, then the hash's bytes
# The index's columns after its header line, in file order, as bytes per row (offsets: little-endian int64).
_COLUMNS = dict(keys=_KEY.itemsize, statuses=1, labels=1, digests=DIGEST_SIZE, verdicts=1, offsets=8)


def write_atomic(path: Path, data: bytes | Iterable[bytes]) -> None:
    """Replace ``path`` with ``data``, bytes or an iterable of byte chunks
    written as they come, durably: temp file, fsync, rename."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with tmp.open("wb") as fh:
        fh.writelines((data,) if isinstance(data, bytes) else data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def read_json(path: str | Path, error: type[Exception]) -> dict:
    """The JSON object in the file at ``path``; ``error``, naming the file, if it is unreadable or not UTF-8 JSON of one."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # not UTF-8, or not JSON
        raise error(f"{path}: not JSON: {exc}") from None
    except FileNotFoundError:  # passed on: a caller may read a missing file as one not written yet
        raise
    except OSError as exc:  # a directory, no permission
        raise error(f"{path}: not readable: {exc.strerror or exc}") from None
    if not isinstance(data, dict):
        raise error(f"{path}: not a JSON object")
    return data


def output_digest(raw_output: str) -> bytes:
    """sha256 of a ``raw_output``'s UTF-8 bytes, a lone surrogate kept as its
    three bytes: rows with equal digests share one verdict, detected once."""
    return sha256(raw_output.encode("utf-8", "surrogatepass")).digest()


def record_line(item_id, language, model_name, prompt_hash, raw_output, label, status, attempt_count, created_at) -> str:
    """A record's line, without its newline, from its fields as JSON literals: what
    ``json.JSONEncoder(ensure_ascii=False)`` writes for the field dict, as earlier stores were."""
    return (
        f'{{"item_id": {item_id}, "language": {language}, "model_name": {model_name}, '
        f'"prompt_hash": {prompt_hash}, "raw_output": {raw_output}, "extracted_label": {label}, '
        f'"status": {status}, "attempt_count": {attempt_count}, "created_at": {created_at}}}'
    )


class InferenceRecord(NamedTuple):
    """One cached model call for an (item, language) cell, compared by fields and checked by ``RunStore.append``
    as it is stored, not as it is built. ``created_at`` defaults to ``""``, as ``_parse_line`` reads a line with none."""

    item_id: str
    language: Language
    model_name: str
    prompt_hash: str
    raw_output: str
    extracted_label: str | None
    status: RecordStatus
    attempt_count: int = 1
    created_at: str = ""

    @property
    def key(self) -> tuple[str, str, str, str]:
        return (self.item_id, self.language._value_, self.model_name, self.prompt_hash)

    def to_json(self) -> str:
        """The record's line, without its newline (see ``record_line``)."""
        item_id, language, model_name, prompt_hash, raw_output, label, status, attempt_count, created_at = self
        return record_line(
            *map(json_string, (item_id, language._value_, model_name, prompt_hash, raw_output)),
            "null" if label is None else json_string(label),
            json_string(status._value_),
            f"{attempt_count:d}",
            json_string(created_at),
        )


def _hash_bytes(prompt_hash: str) -> bytes:
    """The ``HASH_SIZE`` bytes of a prompt hash; ValueError unless it is 64 lowercase hex characters."""
    try:
        raw = bytes.fromhex(prompt_hash)
    except ValueError:
        raw = b""
    if len(raw) != HASH_SIZE or raw.hex() != prompt_hash:
        raise ValueError(f"prompt hash {prompt_hash!r} is not 64 lowercase hex characters")
    return raw


def _parse_line(text: str) -> InferenceRecord:
    """The record of one line of ``records.jsonl``; an exception refuses the line. It checks what ``append`` cannot:
    a JSON object of string ids, hash, output and time, an int count, known language and status, a null or str label."""
    data = json.loads(text)
    for name in ("item_id", "model_name", "prompt_hash", "raw_output"):
        if not isinstance(data[name], str):
            raise ValueError(f"{name} must be a string, not {data[name]!r}")
    label = data.get("extracted_label")
    if label is not None and not isinstance(label, str):
        raise ValueError(f"extracted_label must be a string or null, not {label!r}")
    attempt_count, created_at = data.get("attempt_count", 1), data.get("created_at", "")
    if type(attempt_count) is not int or not isinstance(created_at, str):  # a bool count is refused too
        raise ValueError(f"attempt_count {attempt_count!r} is no integer or created_at {created_at!r} no string")
    return InferenceRecord(
        item_id=data["item_id"],
        language=_LANGUAGE_BY_CODE[data["language"]],
        model_name=data["model_name"],
        prompt_hash=data["prompt_hash"],
        raw_output=data["raw_output"],
        extracted_label=label,
        status=_STATUS_BY_CODE[data["status"]],
        attempt_count=attempt_count,
        created_at=created_at,
    )


@dataclass(frozen=True, eq=True)
class ResponseMatrix:
    """The (item x language) table of extracted answers all selectors consume: ``cells``
    is the byte grid the module docstring describes, ``languages`` in canonical order."""

    languages: tuple[Language, ...]
    items: tuple[str, ...]
    cells: bytes
    gold: dict[str, str]
    # The store row of the record each cell holds, row-major, -1 for none (int64);
    # set by ``build_matrix`` (``decisive_rows``), None on any other matrix.
    rows: np.ndarray | None = field(default=None, compare=False, repr=False)

    @property
    def grid(self) -> np.ndarray:
        """``cells`` as a read-only (items, languages) uint8 array, without a copy."""
        return np.frombuffer(self.cells, dtype=np.uint8).reshape(len(self.items), len(self.languages))

    @property
    def correct(self) -> np.ndarray:
        """(items, languages) bools: the cell's label is the item's gold label."""
        gold = np.frombuffer("".join(self.gold[i] for i in self.items).encode("ascii"), dtype=np.uint8)
        return self.grid == gold[:, None]

    def subset(self, item_ids: Sequence[str]) -> "ResponseMatrix":
        """Matrix restricted to ``item_ids`` (kept in the given order)."""
        wanted = list(item_ids)
        missing = [i for i in wanted if i not in self.gold]
        if missing:
            raise KeyError(f"items not in matrix: {missing[:5]}")
        row_of = {item_id: row for row, item_id in enumerate(self.items)}
        return ResponseMatrix(
            languages=self.languages,
            items=tuple(wanted),
            cells=self.grid[[row_of[i] for i in wanted]].tobytes(),
            gold={i: self.gold[i] for i in wanted},
        )


def _entry(record: InferenceRecord, line: bytes, digest: bytes) -> tuple:
    """``RunStore.append``'s entry of ``record``, whose line is ``line`` and whose output's digest is ``digest``;
    ValueError for a label that is neither null nor one character (the label byte 0 means null)."""
    label, status = record.extracted_label, _STATUS_BYTE[record.status._value_]
    if label is not None and (len(label) != 1 or label == "\0"):
        raise ValueError(f"{record.key}: label {label!r} with status byte {status!r}")  # as append words it
    return record.key, line, status, ord(label or "\0"), digest


class RunStore:
    """Append-only JSONL store with first-write-wins idempotence per key.

    The store holds an index of its records, not the records: a compact key
    per row (``keys()`` gives the keys back) and six columns by row, in write
    order. ``codes[row]`` is the row's ``KEY_CODES``: its item id's and model
    name's positions in the store's tables of distinct ones, and its language's
    in ``tuple(Language)``. The compact key is those codes, then the prompt
    hash's 32 bytes, 39 bytes in all. ``statuses[row]`` indexes
    ``STATUSES``, ``labels[row]`` is the label letter's byte (0 for no label),
    ``digests[DIGEST_SIZE * row:][:DIGEST_SIZE]`` is the ``output_digest`` of
    the ``raw_output``, ``offsets[row]`` is where the row's line starts in
    ``records.jsonl`` (``output(row)`` reads the text back from there) and
    ``verdicts[row]`` is UNDETECTED until ``pipeline.compute_verification_rate``
    sets it to the output's language byte (``VERDICT``) or UNDETECTABLE.

    An open takes the columns of the file's first N bytes from ``records.index``
    when it holds N and the sha256 of exactly those bytes, and feeds the lines
    after them through ``append``'s loop, writing nothing, so a parsed line is
    checked as a recorded entry is; ``save_index`` writes it. Verdicts of another
    ``_DETECTOR``, and those of parsed rows, start UNDETECTED. An open may also
    repair the file's tail, so the caller holds the run's lock: a torn final
    line, or whitespace after the last newline, is cut off, and a good final
    line without its newline gets one. A store has no lock: one thread writes it.
    """

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.records_path = self.directory / "records.jsonl"
        self.manifest_path = self.directory / MANIFEST_NAME
        self.index_path = self.directory / INDEX_NAME
        self._rows: dict[bytes, int] = {}  # compact key -> row
        self._item_ids, self._models = {}, {}  # the tables: item id or model name -> its code
        self.codes, self.statuses, self.labels, self.digests, self.verdicts = (bytearray() for _ in range(5))
        self.offsets = array("q")
        self.conflicts = 0
        self._unsynced = 0
        self._fh = None
        self._index_length = 0  # bytes of records.jsonl the index file gave at the open
        self._index_verdicts: bytes | None = b""  # its verdicts, None if of another detector
        # (bytes, lines, rows, conflicts, sha256 hex) of the file as the open left it
        self._parsed = (0, 0, 0, 0, "")
        self._load()

    def _load(self) -> None:
        """Index ``records.jsonl``: the prefix the index file describes, then each
        line after it as ``_parse_line`` reads it and ``append``'s loop checks it.
        A bad final line is a torn write, dropped; a bad line before it is
        corruption. Then repair the tail."""
        if not self.records_path.exists():
            return
        with self.records_path.open("rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            digest, lines = self._read_index(fh, size)
            offset = fh.seek(self._index_length)

            def entries():
                nonlocal offset, lines
                for line in fh:
                    if line.strip():
                        record = _parse_line(line.rstrip(b"\n").decode("utf-8"))  # a JSON error's position is the line's
                        yield _entry(record, line, output_digest(record.raw_output)), offset
                    elif not line.endswith(b"\n"):
                        return  # whitespace after the last newline
                    if not line.endswith(b"\n"):
                        line += b"\n"  # a good final line: its newline is written below
                    digest.update(line)
                    offset += len(line)
                    lines += 1

            try:
                self._add(entries())
            except (ValueError, LookupError, TypeError, RecursionError) as exc:  # the parser's or append's refusal
                if fh.tell() < size:
                    raise StoreError(f"{self.records_path}: line {lines + 1} corrupt: {exc}") from None
                logger.warning("%s: dropping torn final line %d", self.records_path, lines + 1)
        if offset < size:
            os.truncate(self.records_path, offset)
        elif offset > size:
            with self.records_path.open("ab") as fh:
                fh.write(b"\n")
        self._parsed = (offset, lines, len(self), self.conflicts, digest.hexdigest())

    def _read_index(self, fh, size: int):
        """Take the columns of the first N bytes of ``records.jsonl`` from the index
        file, reading ``fh`` past them: (the sha256 of those bytes, their line count).
        A missing index, or one that does not describe the file, is logged and the
        whole file is parsed: (an empty sha256, 0)."""
        digest = sha256()
        try:
            with self.index_path.open("rb") as index_file:
                index = json.loads(index_file.readline())
                if index["version"] != INDEX_VERSION:
                    raise ValueError(f"version {index['version']!r}, not {INDEX_VERSION!r}")
                length, lines, conflicts, n = index["length"], index["lines"], index["conflicts"], index["rows"]
                if not all(type(c) is int and c >= 0 for c in (length, lines, conflicts, n)) or length > size:
                    raise ValueError(f"length, lines, conflicts and rows are no counts of a file of {size} bytes")
                if os.fstat(index_file.fileno()).st_size - index_file.tell() != n * sum(_COLUMNS.values()):
                    raise ValueError(f"its columns are not {n} rows")
                keys, statuses, labels, digests, verdicts, starts = (bytearray(n * w) for w in _COLUMNS.values())
                for column in (keys, statuses, labels, digests, verdicts, starts):  # the store's, read in place
                    index_file.readinto(column)
            items, models, detector = index["items"], index["models"], index["detector"]
            item_ids, model_names = dict(zip(items, count())), dict(zip(models, count()))
            types = [type(items), type(models), *map(type, [*item_ids, *model_names])]
            if types != [list, list] + [str] * (len(items) + len(models)):  # a repeated name is lost in the dicts
                raise ValueError("its tables are not lists of distinct strings")
            key_codes, offsets = np.frombuffer(keys, _KEY)["codes"], np.frombuffer(starts, "<i8")
            if n and (
                key_codes["item"].max() >= len(items)
                or key_codes["model"].max() >= len(models)
                or key_codes["language"].max() >= len(_LANGUAGE_BYTE)
                or max(statuses) >= len(STATUSES)
                or labels.translate(None, _LABEL_BYTES)
                or max(verdicts) >= 2 + len(detector["languages"])
                or not (0 <= offsets[0] and offsets[-1] < length and (np.diff(offsets) > 0).all())
            ):
                raise ValueError("its columns do not agree")
            rows = dict(zip(np.frombuffer(keys, f"V{_KEY.itemsize}").tolist(), count()))  # each key's bytes
            if len(rows) != n:
                raise ValueError("a key is repeated")
            left = length
            while left and (chunk := fh.read(min(_HASH_BLOCK, left))):
                digest.update(chunk)
                left -= len(chunk)
            if digest.hexdigest() != index["sha256"]:
                raise ValueError(f"the first {length} bytes of {self.records_path.name} changed")
        except FileNotFoundError:
            logger.debug("%s: not written yet; parsing all of %s", self.index_path, self.records_path)
            return sha256(), 0
        except (ValueError, LookupError, TypeError, AttributeError, OverflowError) as exc:
            logger.warning("%s: ignored (%r); parsing all of %s", self.index_path, exc, self.records_path)
            return sha256(), 0
        self._rows, self._item_ids, self._models, self.conflicts = rows, item_ids, model_names, conflicts
        self.statuses, self.labels, self.digests, self._index_length = statuses, labels, digests, length
        self.codes, self.offsets = bytearray(key_codes.tobytes()), array("q", offsets.astype(np.int64).tobytes())
        fresh = detector == _DETECTOR
        self.verdicts, self._index_verdicts = (verdicts, bytes(verdicts)) if fresh else (bytearray(n), None)
        return digest, lines

    def save_index(self) -> None:
        """Write ``records.index``: the columns of the file as the open left it,
        unless the index file gave all of them and each of their verdicts. Rows
        appended since the open are left for the next open to parse."""
        length, lines, n, conflicts, digest = self._parsed
        verdicts = bytes(self.verdicts[:n])
        if length == self._index_length and verdicts == self._index_verdicts:
            return
        keys = b"".join(islice(self._rows, n))
        header = dict(version=INDEX_VERSION, length=length, lines=lines, sha256=digest, conflicts=conflicts, rows=n,
                      detector=_DETECTOR, items=list(self._item_ids), models=list(self._models))
        offsets = np.asarray(self.offsets[:n], dtype="<i8").tobytes()
        columns = keys, self.statuses[:n], self.labels[:n], self.digests[: n * DIGEST_SIZE], verdicts, offsets
        write_atomic(self.index_path, (json.dumps(header).encode("ascii") + b"\n", *columns))

    def _compact(self, key: tuple[str, str, str, str]) -> bytes:
        """``key``'s compact key, coding its strings into the tables; ValueError, coding nothing,
        for a language that is no ``Language`` code or a prompt hash ``_hash_bytes`` refuses."""
        item_id, language, model, prompt_hash = key
        if (byte := _LANGUAGE_BYTE.get(language)) is None:
            raise ValueError(f"{key}: language {language!r} is no Language code")
        raw = _hash_bytes(prompt_hash)
        items, models = self._item_ids, self._models
        return _CODES.pack(items.setdefault(item_id, len(items)), models.setdefault(model, len(models)), byte) + raw

    def append(self, entries: Iterable[tuple[tuple[str, str, str, str], bytes, int, int, bytes]]) -> int:
        """Append ``entries``, each ``(key, line, status byte, label byte, output_digest)``
        with its line's bytes ending in a newline, and return how many lines were
        written. This loop is the one check of a row's facts: an entry with a
        status byte not in ``STATUSES``, a label byte not 0 or A-Z, an ok one of 0,
        a language that is no ``Language`` code or a prompt hash that is not 64
        lowercase hex characters is refused with ValueError naming the label or
        the key, and its key's strings are not coded; one whose key is stored
        (earlier in the batch too) is dropped, a conflict if it differs.
        A row is indexed once its line is in the file's 64 KiB buffer. One flush at
        the end, also when ``entries`` raises; an fsync once ``FSYNC_EVERY`` lines
        are unsynced."""
        return self._add(zip(entries, repeat(None)))

    def _add(self, entries: Iterable[tuple[tuple, int | None]]) -> int:
        """``append``'s loop over ``(entry, offset)`` pairs, an offset None for a line to write at the
        end of ``records.jsonl``, else where the line already is; the number of rows added."""
        rows, statuses, labels, digests, offsets = self._rows, self.statuses, self.labels, self.digests, self.offsets
        compact_of, codes, width = self._compact, self.codes, _CODES.size
        add_status, add_label, add_offset = statuses.append, labels.append, offsets.append
        first, fh = len(statuses), self._fh
        end = fh.tell() if fh is not None else None  # where the next written line lands, once the file is open
        try:
            for (key, line, status, label, digest), offset in entries:
                if not 0 <= status < len(STATUSES) or label not in _LABEL_BYTES or not label and status == STATUS_OK:
                    raise ValueError(f"{key}: label {chr(label) if label else None!r} with status byte {status!r}")
                compact = compact_of(key)  # after the checks: it codes the key's strings into the tables
                row = rows.get(compact)
                if row is not None:
                    at = row * DIGEST_SIZE
                    if digests[at : at + DIGEST_SIZE] != digest or statuses[row] != status or labels[row] != label:
                        self.conflicts += 1
                    continue
                if offset is None:
                    if fh is None:
                        fh = self._fh = self.records_path.open("ab", buffering=_APPEND_BUFFER)
                        end = fh.tell()
                    fh.write(line)
                    offset, end = end, end + len(line)
                rows[compact] = len(statuses)
                codes += compact[:width]
                add_status(status)
                add_label(label)
                digests += digest
                add_offset(offset)
        finally:
            added = len(statuses) - first
            self.verdicts += bytes(added)
            if fh is not None:
                fh.flush()
                self._unsynced += added
                if self._unsynced >= FSYNC_EVERY:
                    os.fsync(fh.fileno())
                    self._unsynced = 0
        return added

    def record(self, record: InferenceRecord) -> bool:
        """Append one record, flushed; True when written, False when its key is stored."""
        return self.record_many((record,)) == 1

    def record_many(self, records: Iterable[InferenceRecord]) -> int:
        """``append`` the entries of ``records``, building each record's line once and
        hashing each distinct output of the batch once."""
        digest = cache(output_digest)
        # backslashreplace acts only on a lone surrogate (json.loads of a reply
        # can yield one): its \uXXXX escape is JSON and reads back equal.
        return self.append(
            _entry(r, (r.to_json() + "\n").encode("utf-8", "backslashreplace"), digest(r.raw_output)) for r in records
        )

    def output(self, row: int) -> str:
        """The ``raw_output`` of row ``row``, read back from its line of ``records.jsonl``:
        that field alone, as the line was checked when the row was added."""
        if self._fh is not None:
            self._fh.flush()
        with self.records_path.open("rb") as fh:
            fh.seek(self.offsets[row])
            return json.loads(fh.readline())["raw_output"]

    def flush(self) -> None:
        if self._fh is not None:
            self._fh.flush()
            os.fsync(self._fh.fileno())
            self._unsynced = 0

    def close(self) -> None:
        self.flush()
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "RunStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __len__(self) -> int:
        return len(self.statuses)

    def write_manifest(self, manifest: Mapping) -> None:
        payload = json.dumps(manifest, ensure_ascii=False, indent=2, sort_keys=True) + "\n"
        write_atomic(self.manifest_path, payload.encode("utf-8"))


def read_manifest(directory: str | Path) -> dict | None:
    """The manifest of the store in ``directory``, read without loading its records;
    StoreError naming the file when it is not a JSON object."""
    path = Path(directory) / MANIFEST_NAME
    return read_json(path, StoreError) if path.exists() else None


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
    items = tuple(item.item_id for item in dataset)
    gold = {item.item_id: item.gold_label for item in dataset}
    if len(gold) != len(items):
        raise StoreError("dataset has duplicate item ids")

    rows, unknown_items = decisive_rows(store, model_name, items, langs)
    found, grid = rows[rows >= 0], np.full(len(rows), MISSING, dtype=np.uint8)
    ok = np.frombuffer(store.statuses, dtype=np.uint8)[found] == STATUS_OK
    grid[rows >= 0] = np.where(ok, np.frombuffer(store.labels, dtype=np.uint8)[found], INVALID)

    if unknown_items:
        first = ", ".join(list(unknown_items)[:5])
        logger.warning("store records for %d items not in the dataset, e.g. %s", len(unknown_items), first)
    return ResponseMatrix(
        languages=langs,
        items=items,
        cells=grid.tobytes(),
        gold=gold,
        rows=rows,
    )


def decisive_rows(
    store: RunStore, model_name: str, items: Sequence[str], languages: Sequence[Language]
) -> tuple[np.ndarray, dict[str, None]]:
    """The store row of the record each (item, language) cell holds, row-major
    over ``items`` x ``languages`` as int64: the first-written ok record of
    ``model_name``, else its first invalid_output record, else -1. Also the ids,
    in first-seen order, of the model's records in ``languages`` whose item is
    not in ``items``."""
    width = len(languages)
    rows = np.full(len(items) * width, -1, dtype=np.int64)
    model = store._models.get(model_name, -1)  # -1: no row's code
    col_of = np.full(len(_LANGUAGE_BYTE), -1, dtype=np.int64)
    col_of[[_LANGUAGE_BYTE[lang._value_] for lang in languages]] = np.arange(width)
    at_of = np.full(len(store._item_ids) + 1, -1, dtype=np.int64)  # an item code's position in ``items``
    at_of[[store._item_ids.get(item_id, -1) for item_id in items]] = np.arange(len(items))  # -1: the spare last slot
    codes = np.frombuffer(store.codes, dtype=KEY_CODES)
    ours = np.flatnonzero((codes["model"] == model) & (col_of[codes["language"]] >= 0))  # in write order
    at = at_of[codes["item"][ours]]
    unknown = codes["item"][ours[at < 0]].tolist()
    ours, at = ours[at >= 0], at[at >= 0]
    cells = at * width + col_of[codes["language"][ours]]
    statuses = np.frombuffer(store.statuses, dtype=np.uint8)[ours]
    for status in (STATUS_INVALID, STATUS_OK):  # the first ok record overrides the first invalid one
        taken, first = np.unique(cells[statuses == status], return_index=True)
        rows[taken] = ours[statuses == status][first]
    item_ids = list(store._item_ids)
    return rows, dict.fromkeys(item_ids[code] for code in unknown)  # in first-seen order


def missing_cells(matrix: ResponseMatrix) -> list[tuple[str, Language]]:
    """Cells still to run, in item order then canonical language order."""
    rows, cols = np.nonzero(matrix.grid == MISSING)
    return [(matrix.items[r], matrix.languages[c]) for r, c in zip(rows.tolist(), cols.tolist())]


def matrix_counts(matrix: ResponseMatrix) -> dict[str, int]:
    """Cell counts by status; ok + invalid + missing equals items x languages."""
    invalid = matrix.cells.count(INVALID)
    missing = matrix.cells.count(MISSING)
    return {"ok": len(matrix.cells) - invalid - missing, "invalid_output": invalid, "missing": missing}


__all__ = [
    "INVALID",
    "DIGEST_SIZE",
    "InferenceRecord",
    "LABELS",
    "MISSING",
    "RecordStatus",
    "ResponseMatrix",
    "RunStore",
    "StoreError",
    "build_matrix",
    "decisive_rows",
    "matrix_counts",
    "missing_cells",
    "output_digest",
    "utc_now",
    "write_atomic",
]
