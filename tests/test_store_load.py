"""Opening a run store, checked against a per-line reference.

``RunStore`` indexes ``records.jsonl`` one line at a time and repairs its
tail. ``reference_load`` below is the reading it must agree with: each line
read by ``store._parse_line`` and refused unless its label is null or one
capital letter (not null when ok) and its prompt hash is 64 lowercase hex
characters, first write wins, a bad final line dropped as torn
and a bad earlier line refused, and the file left holding whole lines only.
"""

import io
import json
import logging
import random
import re
from hashlib import sha256

import numpy as np
import pytest

from langselect import store as store_module
from langselect.languages import Language
from langselect.store import STATUSES, InferenceRecord, RecordStatus, RunStore, StoreError, output_digest

from helpers import ODD_HASHES, read_index, store_keys, stored_records, write_index

EN, FR, ZH = Language.ENGLISH, Language.FRENCH, Language.CHINESE
INDEXED_LINES = [0, 1, 2]  # leading lines of the file an index saved before the open covers
# Prompt hashes as prompts.prompt_hash gives them, 64 lowercase hex characters, the only ones a store takes.
H, H1, H2 = (sha256(name.encode()).hexdigest() for name in ("h", "h1", "h2"))
HEX_HASH = re.compile("[0-9a-f]{64}")
LABELS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"


def reference_load(data: bytes):
    """(records in write order, conflicts, the file as the open leaves it), or
    the error text of the first corrupt line."""
    by_key: dict = {}
    conflicts = 0
    kept = []
    end = 0
    for lineno, line in enumerate(io.BytesIO(data), 1):
        end += len(line)
        if line.strip():
            try:
                record = store_module._parse_line(line.rstrip(b"\n").decode("utf-8"))
                label, status = record.extracted_label, record.status
                if label not in (None, *LABELS) or label is None and status is RecordStatus.OK:
                    raise ValueError(f"{record.key}: label {label!r} with status byte {STATUSES.index(status)!r}")
                if not HEX_HASH.fullmatch(record.prompt_hash):
                    raise ValueError(f"prompt hash {record.prompt_hash!r} is not 64 lowercase hex characters")
            except Exception as exc:
                if end >= len(data):
                    break
                return f"line {lineno} corrupt: {exc}"
            existing = by_key.setdefault(record.key, record)
            if existing is not record and (existing.raw_output, existing.extracted_label, existing.status) != (
                record.raw_output,
                record.extracted_label,
                record.status,
            ):
                conflicts += 1
        elif not line.endswith(b"\n"):
            break
        kept.append(line.rstrip(b"\n") + b"\n")
    return list(by_key.values()), conflicts, b"".join(kept)


def assert_columns(store: RunStore, records: list[InferenceRecord]) -> None:
    """``store`` indexes ``records``, one row each in this order, in its own columns:
    the output digests, and offsets at which each record's own line is read back."""
    assert store_keys(store) == [r.key for r in records]
    assert bytes(store.digests) == b"".join(output_digest(r.raw_output) for r in records)
    assert [store.output(row) for row in range(len(records))] == [r.raw_output for r in records]
    assert [record_at(store, offset) for offset in store.offsets] == records
    assert bytes(store.labels) == bytes(ord(r.extracted_label) if r.extracted_label else 0 for r in records)
    assert bytes(store.statuses) == bytes(STATUSES.index(r.status) for r in records)


def record_at(store: RunStore, offset: int) -> InferenceRecord:
    with store.records_path.open("rb") as fh:
        fh.seek(offset)
        return store_module._parse_line(fh.readline().decode("utf-8"))


APPENDED = InferenceRecord("appended", EN, "m", sha256(b"appended").hexdigest(), "{}", "C", RecordStatus.OK, 1, "t")


def assert_loads_like_reference(tmp_path, data: bytes, indexed: int = 0):
    """Open a store over ``data`` and check it against ``reference_load``,
    including the file the open leaves and where the next append lands. With
    ``indexed``, an index of ``data``'s first ``indexed`` lines is saved first,
    and the open takes those lines from it and parses only the rest."""
    path = tmp_path / "run"
    if indexed:
        assert indexed_store(path, b"".join(io.BytesIO(data).readlines()[:indexed]))["lines"] == indexed
    else:
        path.mkdir(parents=True)
    (path / "records.jsonl").write_bytes(data)
    expected = reference_load(data)
    taken = []  # (sha256, lines) as each open read the index
    read_index = RunStore._read_index
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(RunStore, "_read_index", lambda self, *args: taken.append(read_index(self, *args)) or taken[-1])
        if isinstance(expected, str):
            with pytest.raises(StoreError) as refused:
                RunStore(path)
            assert str(refused.value) == f"{path / 'records.jsonl'}: {expected}"
            assert (path / "records.jsonl").read_bytes() == data
            assert [lines for _, lines in taken] == [indexed]
            return expected
        store = RunStore(path)
    assert [lines for _, lines in taken] == [indexed]
    records, conflicts, after = expected
    with store:
        assert (path / "records.jsonl").read_bytes() == after
        assert len(store) == len(records)
        assert_columns(store, records)
        assert store.conflicts == conflicts
        assert store.record(APPENDED) is (APPENDED.key not in {r.key for r in records})
    if APPENDED.key not in {r.key for r in records}:
        assert (path / "records.jsonl").read_bytes() == after + APPENDED.to_json().encode() + b"\n"
    return expected


TEXTS = [
    "plain",
    'say "A" \\ back\\slash',
    "".join(map(chr, range(0x20))) + "\x7f",
    "line para  \x85",
    "non-BMP \U0001F600 \U0001D11E",
    "lone \ud800 surrogate \udfff",
    "",
    "é ü 中文 العربية",
    "{\"final_answer\": \"B\"}\n{}",
]


def random_records(rng: random.Random, n: int) -> list[InferenceRecord]:
    """Records over a few keys, so that some repeat (equal or conflicting)."""
    out = []
    for _ in range(n):
        status = rng.choice(list(RecordStatus))
        label = rng.choice("ABCD") if status is RecordStatus.OK else rng.choice([None, None, "B", "Z"])
        text = rng.choice(TEXTS) * rng.choice([1, 1, 3, 40])
        out.append(
            InferenceRecord(
                item_id=f"q{rng.randrange(n)}",
                language=rng.choice([EN, FR, ZH]),
                model_name=rng.choice(["m", "m", "other"]),
                prompt_hash=rng.choice((H1, H2)),
                raw_output=text,
                extracted_label=label,
                status=status,
                attempt_count=rng.randrange(1, 4),
                created_at="2026-01-01T00:00:00+00:00",
            )
        )
    return out


def lines_of(records) -> list[bytes]:
    return [(r.to_json() + "\n").encode("utf-8", "backslashreplace") for r in records]


@pytest.mark.parametrize("indexed", INDEXED_LINES)
@pytest.mark.parametrize("seed", range(12))
def test_random_valid_stores_load_like_the_reference(tmp_path, seed, indexed):
    rng = random.Random(seed)
    lines = lines_of(random_records(rng, rng.choice([1, 5, 60, 300])))
    data = b"".join(lines)
    records, _, after = assert_loads_like_reference(tmp_path, data, min(indexed, len(lines)))
    assert records and after == data


def test_a_long_line_loads(tmp_path):
    long = InferenceRecord("q1", ZH, "m", H, "中文" * 100_000, "A", RecordStatus.OK, 1, "t")
    data = b"".join(lines_of([random_records(random.Random(0), 1)[0], long, long._replace(item_id="q2")]))
    assert_loads_like_reference(tmp_path, data)


GOOD = lines_of(
    [
        InferenceRecord("q1", EN, "m", H, '{"final_answer": "A"}', "A", RecordStatus.OK, 1, "t"),
        InferenceRecord("q2", FR, "m", H, "é", None, RecordStatus.INVALID_OUTPUT, 2, "t"),
        InferenceRecord("q3", ZH, "m", H, "中文 \ud800", "B", RecordStatus.OK, 1, "t"),
        InferenceRecord("q4", EN, "m", H, "", None, RecordStatus.TRANSPORT_ERROR, 3, "t"),
    ]
)
TWO_OBJECTS = GOOD[0].rstrip(b"\n") + GOOD[1]
SPLIT_OBJECT = GOOD[2].replace(b'", "', b'",\n "', 1)
FIELDS = b'"item_id": "q9", "language": "en", "model_name": "m", "prompt_hash": "%s", "raw_output": "x"' % H.encode()
BAD_LINES = {
    "two objects on one line": TWO_OBJECTS,
    "two objects next to an object split over two lines": TWO_OBJECTS + SPLIT_OBJECT,
    "an object split across two lines": SPLIT_OBJECT,
    "an object split inside a string": GOOD[1].replace(b'"\xc3\xa9"', b'"\xc3\xa9\n"'),
    "a byte order mark": b"\xef\xbb\xbf" + GOOD[3],
    "invalid UTF-8": GOOD[1].replace(b"\xc3\xa9", b"\xc3"),
    "a UTF-8 encoded surrogate": GOOD[1].replace(b"\xc3\xa9", b"\xed\xa0\x80"),
    "a vertical tab around the object": b"\x0b" + GOOD[3],
    "an ok label of two letters": GOOD[0].replace(b'"extracted_label": "A"', b'"extracted_label": "AB"'),
    "an ok label in lower case": GOOD[0].replace(b'"extracted_label": "A"', b'"extracted_label": "a"'),
    "an ok record without a label": GOOD[0].replace(b'"extracted_label": "A"', b'"extracted_label": null'),
    "a label of two letters": GOOD[1].replace(b'"extracted_label": null', b'"extracted_label": "AB"'),
    "an empty label": GOOD[3].replace(b'"extracted_label": null', b'"extracted_label": ""'),
    "a NUL label": GOOD[3].replace(b'"extracted_label": null', b'"extracted_label": "\\u0000"'),
    "a list label": GOOD[1].replace(b'"extracted_label": null', b'"extracted_label": [1]'),
    "an output that is no string": GOOD[1].replace(b'"raw_output": "\xc3\xa9"', b'"raw_output": 5'),
    "an item id that is a list": GOOD[1].replace(b'"item_id": "q2"', b'"item_id": ["q2"]'),
    "an item id that is null": GOOD[1].replace(b'"item_id": "q2"', b'"item_id": null'),
    "a model name that is an object": GOOD[1].replace(b'"model_name": "m"', b'"model_name": {"m": 1}'),
    "a prompt hash that is a number": GOOD[1].replace(b'"prompt_hash": "%s"' % H.encode(), b'"prompt_hash": 7'),
    "an unknown status": GOOD[1].replace(b'"invalid_output"', b'"done"'),
    "an unknown language": GOOD[1].replace(b'"language": "fr"', b'"language": "xx"'),
    "a missing field": b"{" + FIELDS.replace(b', "raw_output": "x"', b"") + b', "status": "transport_error"}\n',
    "a list": b"[" + GOOD[3].rstrip(b"\n") + b"]\n",
    "a string": b'"q1"\n',
    "a number": b"1\n",
    "a half object": GOOD[0][:40] + b"\n",
    "an array nested past the recursion limit": b"[" * 100_000 + b"\n",
    "a NaN attempt count": b"{" + FIELDS + b', "extracted_label": null, "status": "invalid_output", "attempt_count": NaN}\n',
    "an attempt count that is a string": GOOD[1].replace(b'"attempt_count": 2', b'"attempt_count": "2"'),
    "an attempt count that is a bool": GOOD[1].replace(b'"attempt_count": 2', b'"attempt_count": true'),
    "an attempt count that is a float": GOOD[1].replace(b'"attempt_count": 2', b'"attempt_count": 2.0'),
    "a creation time that is a number": GOOD[1].replace(b'"created_at": "t"', b'"created_at": 0'),
    **{
        f"a prompt hash of {odd!r}": GOOD[1].replace(H.encode(), store_module.json_string(odd)[1:-1].encode())
        for odd in ODD_HASHES
    },
}
ACCEPTED_LINES = {
    "leading and trailing spaces, tabs and CR": b" \t" + GOOD[0].rstrip(b"\n") + b" \r\t\r\n",
    "CR LF": GOOD[1].rstrip(b"\n") + b"\r\n",
    "a blank line": b"\n",
    "a line of whitespace": b" \t\r\x0b\x0c\n",
    "no attempt count and no creation time": b"{" + FIELDS + b', "extracted_label": null, "status": "invalid_output"}\n',
    "a label on a record that is not ok": GOOD[3].replace(b'"extracted_label": null', b'"extracted_label": "C"'),
    "a conflicting output under a stored key": GOOD[0].replace(b'"raw_output": "{', b'"raw_output": "x{'),
    "a conflicting label under a stored key": GOOD[1].replace(b'"extracted_label": null', b'"extracted_label": "B"'),
    "a repeat of a stored line": GOOD[1],
    "a lone surrogate escape": GOOD[1].replace(b'"\xc3\xa9"', b'"\\udc80 \\ud83d"'),
}


@pytest.mark.parametrize("at, indexed", [(at, n) for at in range(1, 5) for n in INDEXED_LINES if n < at])
@pytest.mark.parametrize("name", sorted(BAD_LINES))
def test_a_bad_middle_line_is_refused_with_its_number(tmp_path, name, at, indexed):
    data = b"".join(GOOD[: at - 1]) + BAD_LINES[name] + b"".join(GOOD[at - 1 :])
    error = assert_loads_like_reference(tmp_path, data, indexed)
    assert error.startswith(f"line {at} corrupt: ")


@pytest.mark.parametrize("indexed", INDEXED_LINES[:2])
def test_a_middle_line_cut_short_is_refused_at_its_own_position(tmp_path, indexed):
    cut = GOOD[1][: GOOD[1].index(b', "language"')] + b"\n"  # '{"item_id": "q2"', then the newline
    error = assert_loads_like_reference(tmp_path, b"".join(GOOD[:1]) + cut + b"".join(GOOD[2:]), indexed)
    assert error == "line 2 corrupt: Expecting ',' delimiter: line 1 column 17 (char 16)"


@pytest.mark.parametrize("indexed", INDEXED_LINES)
@pytest.mark.parametrize("name", sorted(BAD_LINES))
def test_a_bad_final_line_is_dropped_as_torn(tmp_path, name, indexed):
    data = b"".join(GOOD) + BAD_LINES[name]
    outcome = assert_loads_like_reference(tmp_path, data, indexed)
    if BAD_LINES[name].count(b"\n") > 1:  # a bad line before the final one
        assert outcome.startswith("line 5 corrupt: ")
    else:
        records, _, after = outcome
        assert len(records) == 4 and after == b"".join(GOOD)


@pytest.mark.parametrize("indexed", INDEXED_LINES)
@pytest.mark.parametrize("name", sorted(ACCEPTED_LINES))
def test_lines_json_loads_accepts_are_indexed(tmp_path, name, indexed):
    for n, data in enumerate(
        (
            b"".join(GOOD[:2]) + ACCEPTED_LINES[name] + b"".join(GOOD[2:]),
            b"".join(GOOD) + ACCEPTED_LINES[name],
            ACCEPTED_LINES[name] + b"".join(GOOD),
        )
    ):
        assert not isinstance(assert_loads_like_reference(tmp_path / str(n), data, indexed), str)


@pytest.mark.parametrize("indexed", INDEXED_LINES)
def test_final_line_cut_inside_a_character_is_dropped(tmp_path, indexed):
    whole = b"".join(GOOD)
    cut_at = GOOD[2].index("中".encode()) + 1
    for final in (GOOD[2][:cut_at], GOOD[2][:cut_at] + b"\n"):
        records, _, after = assert_loads_like_reference(tmp_path / str(len(final)), whole + final, indexed)
        assert len(records) == 4 and after == whole


@pytest.mark.parametrize("indexed", INDEXED_LINES)
def test_last_line_without_a_newline_is_kept_and_ended(tmp_path, indexed):
    data = b"".join(GOOD).rstrip(b"\n")
    records, _, after = assert_loads_like_reference(tmp_path, data, indexed)
    assert len(records) == 4 and after == data + b"\n"


def test_an_empty_file_and_a_file_of_blank_lines(tmp_path):
    for n, (data, after) in enumerate(((b"", b""), (b"\n\n", b"\n\n"), (b"  \n \t", b"  \n"), (b"\r", b""))):
        assert assert_loads_like_reference(tmp_path / str(n), data) == ([], 0, after)


@pytest.mark.parametrize(
    "tail, warned, kept",
    [
        (GOOD[0][:30], True, b""),
        (GOOD[0][:30] + b"\n", True, b""),
        (b" \t", False, b""),
        (GOOD[0].rstrip(b"\n"), False, GOOD[0]),
    ],
    ids=["torn", "torn-with-newline", "whitespace", "unterminated"],
)
def test_the_first_open_repairs_the_tail_and_a_second_open_sees_whole_lines(tmp_path, caplog, tail, warned, kept):
    path = tmp_path / "run"
    path.mkdir()
    records = path / "records.jsonl"
    records.write_bytes(b"".join(GOOD) + tail)
    with caplog.at_level(logging.WARNING, logger="langselect.store"):
        first = len(RunStore(path))
        assert caplog.messages == ([f"{records}: dropping torn final line 5"] if warned else [])
        repaired = records.read_bytes(), records.stat().st_mtime_ns
        caplog.clear()
        assert len(RunStore(path)) == first
    assert caplog.messages == []
    assert repaired == (records.read_bytes(), records.stat().st_mtime_ns)
    assert repaired[0] == b"".join(GOOD) + kept


def test_records_after_unclosed_appends_are_in_write_order(tmp_path):
    batch = random_records(random.Random(3), 200)
    first_of_key = list({r.key: None for r in batch})
    store = RunStore(tmp_path / "run")
    written = store.record_many(batch[:120])
    assert [r.key for r in stored_records(store)] == first_of_key[:written]
    assert store_keys(store) == first_of_key[:written]
    store.record_many(batch[120:])
    assert [r.key for r in stored_records(store)] == first_of_key
    by_key = {}
    for r in batch:
        by_key.setdefault(r.key, r)
    assert list(stored_records(store)) == list(by_key.values())
    assert_columns(store, list(by_key.values()))
    store.close()
    reopened = RunStore(tmp_path / "run")
    assert list(stored_records(reopened)) == list(by_key.values())
    assert_columns(reopened, list(by_key.values()))


def test_conflicts_count_the_same_when_appended_and_when_loaded(tmp_path):
    batch = random_records(random.Random(5), 300)
    by_key: dict = {}
    conflicts = 0
    for r in batch:
        kept = by_key.setdefault(r.key, r)
        conflicts += kept is not r and (kept.raw_output, kept.extracted_label, kept.status) != (
            r.raw_output,
            r.extracted_label,
            r.status,
        )
    assert conflicts > 0
    with RunStore(tmp_path / "appended") as store:
        store.record_many(batch)
        assert store.conflicts == conflicts
    loaded = tmp_path / "loaded"
    loaded.mkdir()
    (loaded / "records.jsonl").write_bytes(b"".join(lines_of(batch)))
    assert RunStore(loaded).conflicts == conflicts
    reopened = RunStore(tmp_path / "appended")
    assert reopened.conflicts == 0
    reopened.record_many(batch)
    assert reopened.conflicts == conflicts


def test_the_columns_hold_status_label_and_output(tmp_path):
    path = tmp_path / "run"
    path.mkdir()
    (path / "records.jsonl").write_bytes(b"".join(GOOD) + ACCEPTED_LINES["no attempt count and no creation time"])
    store = RunStore(path)
    assert [store_module.STATUSES[s] for s in store.statuses] == [
        RecordStatus.OK,
        RecordStatus.INVALID_OUTPUT,
        RecordStatus.OK,
        RecordStatus.TRANSPORT_ERROR,
        RecordStatus.INVALID_OUTPUT,
    ]
    assert list(store.labels) == [ord("A"), 0, ord("B"), 0, 0]
    assert [store.output(row) for row in range(5)] == [r.raw_output for r in stored_records(store)]
    assert json.loads(GOOD[2])["raw_output"] == store.output(2)
    assert store.digests[64:96] == output_digest(store.output(2))


# --- The persisted index (``records.index``). An open through it takes the
# columns of the file's first N bytes from the index and parses the rest; it
# must equal a full parse, and so the per-line reference above.


def opened(path):
    """The store at ``path`` as an open leaves it, and the file after one more
    append: ((columns, conflicts, file bytes), file bytes), or the error text
    of a refused open."""
    try:
        store = RunStore(path)
    except StoreError as exc:
        return str(exc).replace(str(path), "<dir>")
    with store:
        state = (
            store_keys(store),
            bytes(store.codes),
            bytes(store.statuses),
            bytes(store.labels),
            bytes(store.digests),
            store.offsets.tolist(),
            bytes(store.verdicts),
            [store.output(row) for row in range(len(store))],
            store.conflicts,
            store.records_path.read_bytes(),
        )
        store.record(APPENDED)
    return state, (path / "records.jsonl").read_bytes()


def index_open_and_full_parse(path):
    """(``opened`` through ``path``'s index, ``opened`` by a full parse of a
    copy of its records, the number of bytes the index gave)."""
    bare = path.with_name(path.name + "-bare")
    bare.mkdir(exist_ok=True)
    (bare / "records.jsonl").write_bytes((path / "records.jsonl").read_bytes())
    try:
        index_length = RunStore(path)._index_length
    except StoreError:
        index_length = None
    return opened(path), opened(bare), index_length


def indexed_store(path, data: bytes) -> dict:
    """A store over ``data`` whose index ``save_index`` wrote; the index's header."""
    path.mkdir(parents=True)
    (path / "records.jsonl").write_bytes(data)
    RunStore(path).save_index()
    return read_index(path)[0]


def cut_inside_a_character(line: bytes, rng: random.Random) -> bytes:
    starts = [i for i, byte in enumerate(line) if byte >= 0xC0]
    return line[: rng.choice(starts) + 1] if starts else line[: rng.randrange(1, len(line))]


def other_label(label: bytes) -> bytes:
    return b"A" if label == b'"B"' else b"B"


def edit_a_middle_line(data: bytes, length: int, rng: random.Random) -> bytes:
    """``data`` with one line in its first ``length`` bytes changed: same length
    (another date or label), a conflicting output, or broken JSON."""
    lines = data[:length].splitlines(keepends=True)
    at = rng.randrange(len(lines))
    line = lines[at]
    lines[at] = rng.choice(
        [
            line.replace(b'"created_at": "2026', b'"created_at": "2027'),
            re.sub(rb'"extracted_label": (null|"[A-Z]")', lambda m: b'"extracted_label": "%s"' % other_label(m[1]), line),
            line.replace(b'"raw_output": "', b'"raw_output": "edited ', 1),
            line[: len(line) // 2] + b"\n",
        ]
    )
    return b"".join(lines) + data[length:]


def multibyte_line(rng: random.Random) -> bytes:
    text = rng.choice(["中文 ", "é ü ", "\U0001F600 "]) * rng.randrange(1, 20)
    return lines_of([InferenceRecord(f"mb{rng.randrange(99)}", ZH, "m", H1, text, "A", RecordStatus.OK, 1, "t")])[0]


CHANGES_AFTER_THE_INDEX = {
    # name: (new file bytes from (file, index length, more whole lines, rng), index used)
    "appended lines": (lambda data, n, more, rng: data + more, True),
    "a torn tail": (lambda data, n, more, rng: data + more + multibyte_line(rng)[: rng.randrange(1, 60)], True),
    "a tail cut inside a character": (
        lambda data, n, more, rng: data + more + cut_inside_a_character(multibyte_line(rng), rng),
        True,
    ),
    "a torn tail ending in a newline": (lambda data, n, more, rng: data + more + GOOD[0][:30] + b"\n", True),
    "an unterminated final line": (lambda data, n, more, rng: data + more + GOOD[2].rstrip(b"\n"), True),
    "a corrupt appended line": (lambda data, n, more, rng: data + GOOD[0][:30] + b"\n" + more, True),
    "an edited middle line": (lambda data, n, more, rng: edit_a_middle_line(data, n, rng) + more, False),
    "a file truncated below the index": (lambda data, n, more, rng: data[: rng.randrange(n)], False),
}


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("change", sorted(CHANGES_AFTER_THE_INDEX))
def test_an_open_through_the_index_equals_a_full_parse(tmp_path, seed, change):
    rng = random.Random(seed)
    lines = lines_of(random_records(rng, rng.choice([5, 60, 300])) + [random_records(rng, 1)[0]._replace(item_id="last")])
    cut = rng.randrange(1, len(lines))
    data = b"".join(lines[:cut])
    path = tmp_path / "run"
    index = indexed_store(path, data)
    assert index["length"] == len(data)
    make, uses_index = CHANGES_AFTER_THE_INDEX[change]
    (path / "records.jsonl").write_bytes(make(data, len(data), b"".join(lines[cut:]), rng))

    through_index, full, index_length = index_open_and_full_parse(path)
    assert through_index == full
    if not isinstance(full, str):
        assert index_length == (len(data) if uses_index else 0)


def test_an_index_of_the_whole_file_is_taken_without_parsing(tmp_path, monkeypatch):
    data = b"".join(lines_of(random_records(random.Random(1), 300)))
    path = tmp_path / "run"
    indexed_store(path, data)
    parsed = []
    parse = store_module._parse_line
    monkeypatch.setattr(store_module, "_parse_line", lambda text: parsed.append(text) or parse(text))
    store = RunStore(path)
    assert parsed == [] and store._index_length == len(data)
    inode = (path / store_module.INDEX_NAME).stat().st_ino
    store.save_index()  # nothing parsed past the index: not rewritten
    assert (path / store_module.INDEX_NAME).stat().st_ino == inode
    monkeypatch.undo()
    through_index, full, _ = index_open_and_full_parse(path)
    assert through_index == full


def test_an_open_through_an_index_of_the_whole_file_codes_no_key(tmp_path, monkeypatch):
    data = b"".join(lines_of(random_records(random.Random(1), 300)))
    path = tmp_path / "run"
    indexed_store(path, data)
    coded = []
    compact = RunStore._compact
    monkeypatch.setattr(RunStore, "_compact", lambda self, key: coded.append(key) or compact(self, key))
    with RunStore(path) as store:
        assert coded == [] and store._index_length == len(data) and len(store) > 100
        assert store.record(APPENDED) and coded == [APPENDED.key]  # an append codes its key


def test_a_full_parse_checks_each_prompt_hash_once(tmp_path, monkeypatch):
    data = b"".join(lines_of(random_records(random.Random(1), 300)))
    path = tmp_path / "run"
    path.mkdir()
    (path / "records.jsonl").write_bytes(data)
    checked = []
    hash_bytes = store_module._hash_bytes
    monkeypatch.setattr(store_module, "_hash_bytes", lambda h: checked.append(h) or hash_bytes(h))
    assert len(RunStore(path)) > 100
    assert len(checked) == data.count(b"\n") == 300


def test_the_index_covers_whole_lines_only(tmp_path):
    whole = b"".join(GOOD)
    fifth = GOOD[0].replace(b'"item_id": "q1"', b'"item_id": "q5"')
    for n, (tail, covered, keys) in enumerate(
        (
            (fifth.rstrip(b"\n"), len(whole) + len(fifth), 5),  # an unterminated final line: ended, indexed
            (GOOD[0][:30] + b"\n", len(whole), 4),  # a torn final line: dropped
            (b"  \n \t", len(whole) + 3, 4),  # a blank line, then whitespace without a newline: dropped
        )
    ):
        index = indexed_store(tmp_path / str(n), whole + tail)
        assert (index["length"], index["rows"]) == (covered, keys)
        through_index, full, index_length = index_open_and_full_parse(tmp_path / str(n))
        assert through_index == full and index_length == covered


def rewrite_index(path, edit) -> None:
    """Rewrite the index at ``path`` after ``edit`` changed its header and columns in
    place, or under the header line's bytes ``edit`` returns."""
    header, columns = read_index(path)
    write_index(path, edit(header, columns) or header, columns)


def edit_codes(field: str, value):
    """An edit that gives the first row's ``KEY_CODES`` ``field`` the code ``value(header)``."""

    def edit(header, columns):
        keys = np.frombuffer(columns["keys"], store_module._KEY).copy()
        keys["codes"][field][0] = value(header)
        columns["keys"] = keys.tobytes()

    return edit


def edit_offsets(edit_array):
    def edit(header, columns):
        offsets = np.frombuffer(columns["offsets"], "<i8").copy()
        edit_array(offsets, header)
        columns["offsets"] = offsets.tobytes()

    return edit


def repeat_the_first_key(header, columns):
    width = store_module._COLUMNS["keys"]
    columns["keys"] = columns["keys"][:width] * 2 + columns["keys"][2 * width :]


BAD_INDEXES = {
    "a header that is not JSON": lambda header, columns: b'{"version": ',
    "a header that is a list": lambda header, columns: b"[4]",
    "another version": lambda header, columns: header.update(version=header["version"] + 1),
    "an old index of JSON keys": lambda header, columns: header.update(version=3),
    "a short offsets column": lambda header, columns: columns.update(offsets=columns["offsets"][:-8]),
    "a short digest column": lambda header, columns: columns.update(digests=columns["digests"][:-8]),
    "a byte past the columns": lambda header, columns: columns.update(offsets=columns["offsets"] + b"\0"),
    "a key too few": lambda header, columns: header.update(rows=header["rows"] - 1),
    "a row count far past the columns": lambda header, columns: header.update(rows=10**15),
    "a repeated key": repeat_the_first_key,
    "an item code outside its table": edit_codes("item", lambda header: len(header["items"])),
    "a model code outside its table": edit_codes("model", lambda header: len(header["models"])),
    "a language code outside Language": edit_codes("language", lambda header: len(Language)),
    "a repeated item id": lambda header, columns: header["items"].__setitem__(1, header["items"][0]),
    "a repeated model name": lambda header, columns: header["models"].append(header["models"][0]),
    "a status out of range": lambda header, columns: columns.update(statuses=b"\x07" * header["rows"]),
    "a label that is no letter": lambda header, columns: columns.update(labels=b"a" * header["rows"]),
    "offsets out of order": edit_offsets(lambda offsets, header: offsets.__setitem__(slice(None), offsets[::-1])),
    "a repeated offset": edit_offsets(lambda offsets, header: offsets.__setitem__(1, offsets[0])),
    "a negative offset": edit_offsets(lambda offsets, header: offsets.__setitem__(0, -1)),
    "an offset at the length": edit_offsets(lambda offsets, header: offsets.__setitem__(-1, header["length"])),
    "a length past the file": lambda header, columns: header.update(length=header["length"] + 1),
    "another prefix digest": lambda header, columns: header.update(sha256="0" * 64),
    "a missing column": lambda header, columns: columns.pop("labels"),
    "a short verdict column": lambda header, columns: columns.update(verdicts=columns["verdicts"][:-1]),
    "a verdict byte past the last language": lambda header, columns: columns.update(
        verdicts=bytes([2 + len(header["detector"]["languages"])]) * header["rows"]
    ),
    "no detector": lambda header, columns: header.pop("detector"),
    "no table of models": lambda header, columns: header.pop("models"),
    "a string length": lambda header, columns: header.update(length=str(header["length"])),
    "a bool row count": lambda header, columns: header.update(rows=True),
    "a negative line count": lambda header, columns: header.update(lines=-1),
    "a key part that is a number": lambda header, columns: header["items"].__setitem__(0, 5),
    "a key part that is null": lambda header, columns: header["models"].__setitem__(0, None),
    "a key part that is a list": lambda header, columns: header["items"].__setitem__(2, ["m"]),
    "a table that is a string": lambda header, columns: header.update(models="m"),
}


@pytest.mark.parametrize("name", sorted(BAD_INDEXES))
def test_an_index_that_does_not_describe_the_file_is_ignored(tmp_path, caplog, name):
    data = b"".join(lines_of(random_records(random.Random(2), 60)))
    path = tmp_path / "run"
    indexed_store(path, data)
    with caplog.at_level(logging.WARNING, logger="langselect.store"):
        assert index_open_and_full_parse(path)[2] == len(data)  # the index as written is taken
        rewrite_index(path, BAD_INDEXES[name])
        caplog.clear()
        through_index, full, index_length = index_open_and_full_parse(path)
    assert through_index == full and index_length == 0
    assert f"{store_module.INDEX_NAME}: ignored" in caplog.text
    RunStore(path).save_index()  # the full parse writes a good index
    assert index_open_and_full_parse(path)[2] == (path / "records.jsonl").stat().st_size


def test_an_index_file_of_an_earlier_name_is_neither_read_nor_removed(tmp_path, caplog):
    data = b"".join(lines_of(random_records(random.Random(3), 40)))
    path = tmp_path / "run"
    path.mkdir()
    (path / "records.jsonl").write_bytes(data)
    (path / "records.index.json").write_bytes(b'{"version": 3}')
    with caplog.at_level(logging.DEBUG, logger="langselect.store"):
        store = RunStore(path)
    assert store._index_length == 0
    assert caplog.messages == [f"{path / store_module.INDEX_NAME}: not written yet; parsing all of {path / 'records.jsonl'}"]
    store.save_index()
    assert (path / "records.index.json").read_bytes() == b'{"version": 3}'
    assert index_open_and_full_parse(path)[2] == len(data)


@pytest.mark.parametrize("content", [b"", b"{", b"[]", b'{"version": 1}', b"\xff"])
def test_an_unreadable_index_is_ignored(tmp_path, content):
    data = b"".join(lines_of(random_records(random.Random(4), 20)))
    path = tmp_path / "run"
    indexed_store(path, data)
    (path / store_module.INDEX_NAME).write_bytes(content)
    through_index, full, index_length = index_open_and_full_parse(path)
    assert through_index == full and index_length == 0


def test_save_index_writes_nothing_without_a_whole_line(tmp_path):
    for n, data in enumerate((None, b"", b"  \t", GOOD[0][:30])):
        path = tmp_path / str(n)
        path.mkdir()
        if data is not None:
            (path / "records.jsonl").write_bytes(data)
        RunStore(path).save_index()
        assert not (path / store_module.INDEX_NAME).exists()


def test_appends_after_a_close_keep_the_records_before_it(tmp_path):
    batch = random_records(random.Random(6), 40)
    store = RunStore(tmp_path / "run")
    store.record_many(batch[:20])
    store.close()
    store.record_many(batch[20:])
    store.close()
    by_key = {}
    for r in batch:
        by_key.setdefault(r.key, r)
    assert stored_records(RunStore(tmp_path / "run")) == list(by_key.values())
    assert_columns(store, list(by_key.values()))
