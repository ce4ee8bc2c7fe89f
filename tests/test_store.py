import json
import os
import random
import re
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from langselect.languages import Language
from langselect.pipeline import _synthetic_store
from langselect.prompts import prompt_hash
from langselect.store import (
    INDEX_NAME,
    STATUSES,
    InferenceRecord,
    RecordStatus,
    RunStore,
    StoreError,
    _parse_line,
    build_matrix,
    decisive_rows,
    matrix_counts,
    missing_cells,
    read_manifest,
)
from langselect.synthetic import SyntheticSpec, generate

from helpers import ODD_HASHES, cell, cell_correct, make_item, store_keys, stored_records


def record_for(item_id, lang, label="A", status=RecordStatus.OK, raw=None, model="m", phash=None):
    """A record whose prompt hash is ``prompt_hash`` of ``phash``, by default of a body naming its cell."""
    return InferenceRecord(
        item_id=item_id,
        language=lang,
        model_name=model,
        prompt_hash=prompt_hash(phash or f"hash-{item_id}-{lang.value}", model),
        raw_output=raw if raw is not None else json.dumps({"final_answer": label}),
        extracted_label=label if status is RecordStatus.OK else None,
        status=status,
        created_at="2026-01-01T00:00:00+00:00",
    )


EN, ES, HI = Language.ENGLISH, Language.SPANISH, Language.HINDI
H = prompt_hash("h", "m")


@pytest.fixture
def store(tmp_path):
    with RunStore(tmp_path / "run") as opened:
        yield opened


@pytest.fixture
def items():
    return [make_item("q1", gold="A"), make_item("q2", gold="B"), make_item("q3", gold="A")]


class TestRecordIdempotence:
    def test_fresh_record_grows_store(self, store):
        assert store.record(record_for("q1", EN)) is True
        assert len(store) == 1

    def test_exact_duplicate_dropped_without_conflict(self, store):
        rec = record_for("q1", EN)
        assert store.record(rec) is True
        assert store.record(rec) is False
        assert len(store) == 1
        assert store.conflicts == 0

    def test_same_key_different_output_first_wins_and_counts_conflict(self, store):
        store.record(record_for("q1", EN, label="A"))
        dropped = store.record(record_for("q1", EN, label="B"))
        assert dropped is False
        assert store.conflicts == 1
        assert next(iter(stored_records(store))).extracted_label == "A"

    def test_persistence_across_reopen(self, tmp_path):
        path = tmp_path / "run"
        with RunStore(path) as store:
            store.record(record_for("q1", EN))
            store.record(record_for("q1", ES))
        reopened = RunStore(path)
        assert len(reopened) == 2
        assert reopened.record(record_for("q1", EN)) is False

    @pytest.mark.parametrize(
        "status, label",
        [(RecordStatus.OK, label) for label in (None, "", "AB", "a", "1", "É", "\0")]
        + [(status, label) for status in STATUSES[1:] for label in ("", "AB", "a", "É", "\0")],
    )
    def test_a_label_that_is_not_null_or_one_capital_letter_is_refused_and_nothing_stored(self, store, status, label):
        # Each matrix cell holds one byte, the ok label letter, and the label column one
        # byte per record (0 for none), so that conflicts compare bytes.
        store.record(record_for("q0", EN))
        before = store.records_path.read_bytes(), dict(store._item_ids), dict(store._models)
        with pytest.raises(ValueError, match=f"label {re.escape(repr(label))}"):
            store.record(record_for("q1", EN, model="other", status=status)._replace(extracted_label=label))
        assert (store.records_path.read_bytes(), store._item_ids, store._models) == before
        assert store.record(record_for("q1", EN, status=status)._replace(extracted_label="Z"))
        assert store.record(record_for("q2", EN, status=status)) and len(store) == 3

    def test_concurrent_writers_are_serialized(self, tmp_path, store):
        def write_block(offset):
            for i in range(50):
                store.record(record_for(f"q{offset + i}", EN))

        threads = [threading.Thread(target=write_block, args=(n * 50,)) for n in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        store.close()
        assert len(RunStore(tmp_path / "run")) == 200

    def test_lone_surrogate_output_is_written_escaped_and_reads_back(self, tmp_path):
        path = tmp_path / "run"
        rec = record_for("q1", EN, raw='{"final_answer": "A"} \ud800')
        with RunStore(path) as store:
            assert store.record(rec) is True
            assert store.record(record_for("q2", EN, raw="é")) is True
        lines = (path / "records.jsonl").read_bytes().splitlines()
        assert b"\\ud800" in lines[0]
        assert "é".encode("utf-8") in lines[1]
        reopened = RunStore(path)
        assert [r.raw_output for r in stored_records(reopened)] == [rec.raw_output, "é"]
        assert reopened.record(rec) is False
        assert reopened.conflicts == 0

    def test_record_whose_line_cannot_be_written_is_not_indexed(self, monkeypatch, store):
        def failing_to_json(record):
            raise OSError("disk full")

        monkeypatch.setattr(InferenceRecord, "to_json", failing_to_json)
        with pytest.raises(OSError):
            store.record(record_for("q1", EN))
        monkeypatch.undo()
        assert len(store) == 0
        assert store.record(record_for("q1", EN)) is True


def reference_line(record):
    """The line format earlier stores were written in: the standard encoder on the field dict."""
    payload = {
        "item_id": record.item_id,
        "language": record.language.value,
        "model_name": record.model_name,
        "prompt_hash": record.prompt_hash,
        "raw_output": record.raw_output,
        "extracted_label": record.extracted_label,
        "status": record.status.value,
        "attempt_count": record.attempt_count,
        "created_at": record.created_at,
    }
    return json.JSONEncoder(ensure_ascii=False).encode(payload)


AWKWARD_TEXTS = [
    'say "A"',
    "back\\slash \\u0041",
    "".join(map(chr, range(0x20))) + "\x7f",
    "line\u2028para\u2029",
    "non-BMP \U0001F600 \U0001D11E",
    "lone \ud800 surrogate \udfff",
    "",
    "é ü 中文 العربية",
]
CODEC_CASES = [
    *(InferenceRecord(text, HI, text, H, text, None, RecordStatus.INVALID_OUTPUT, 7, text) for text in AWKWARD_TEXTS),
    record_for("q1", EN),
    record_for("q1", ES, status=RecordStatus.INVALID_OUTPUT, raw="?"),  # null label
    record_for("q1", HI, status=RecordStatus.TRANSPORT_ERROR, raw=""),
    InferenceRecord("q2", EN, "m", H, "raw", "B", RecordStatus.OK, attempt_count=12),
]


class TestRecordCodec:
    @pytest.mark.parametrize("rec", CODEC_CASES)
    def test_line_matches_standard_encoder_and_round_trips(self, rec):
        assert rec.to_json() == reference_line(rec)
        assert _parse_line(rec.to_json()) == rec

    def test_records_are_immutable_and_compared_by_fields(self):
        rec = record_for("q1", EN)
        with pytest.raises(AttributeError):
            rec.raw_output = "changed"
        assert rec == record_for("q1", EN)
        assert rec != record_for("q1", EN, raw="other")


class TestRecordMany:
    def test_keeps_write_order(self, tmp_path):
        batch = [record_for(item_id, lang) for item_id in ("q3", "q1", "q2") for lang in (HI, EN)]
        with RunStore(tmp_path / "run") as store:
            assert store.record_many(batch) == len(batch)
        assert [r.key for r in stored_records(RunStore(tmp_path / "run"))] == [r.key for r in batch]

    def test_duplicates_in_one_batch_dropped_and_differing_one_is_a_conflict(self, tmp_path, store):
        first = record_for("q1", EN, label="A")
        assert store.record_many([first, first, record_for("q1", EN, label="B"), record_for("q2", EN)]) == 2
        assert store.conflicts == 1
        assert [r.extracted_label for r in stored_records(store)] == ["A", "A"]
        assert len((tmp_path / "run" / "records.jsonl").read_bytes().splitlines()) == 2

    def test_returns_number_written_not_offered(self, store):
        store.record(record_for("q1", EN))
        assert store.record_many([record_for("q1", EN), record_for("q2", EN), record_for("q3", EN)]) == 2
        assert store.record_many([]) == 0
        assert store.record_many(iter([record_for("q2", EN)])) == 0
        assert len(store) == 3

    def test_torn_final_line_truncated_before_batch_append(self, tmp_path):
        path = tmp_path / "run"
        with RunStore(path) as store:
            store.record(record_for("q1", EN))
        with (path / "records.jsonl").open("a", encoding="utf-8") as fh:
            fh.write('{"item_id": "q2", "language"')  # torn write, no newline
        with RunStore(path) as store:
            assert store.record_many([record_for("q2", EN), record_for("q3", EN)]) == 2
        lines = (path / "records.jsonl").read_text(encoding="utf-8").splitlines()
        assert [json.loads(line)["item_id"] for line in lines] == ["q1", "q2", "q3"]

    def test_iterable_raising_mid_batch_leaves_disk_equal_to_memory(self, tmp_path, store):
        path = tmp_path / "run"

        def batch():
            yield record_for("q1", EN)
            yield record_for("q2", EN)
            raise RuntimeError("producer failed")

        with pytest.raises(RuntimeError, match="producer failed"):
            store.record_many(batch())
        assert len(store) == 2
        assert list(stored_records(RunStore(path))) == list(stored_records(store))
        assert store.record(record_for("q3", EN)) is True
        assert [r.item_id for r in stored_records(RunStore(path))] == ["q1", "q2", "q3"]

    def test_synthetic_store_fsyncs_records_at_most_twice(self, tmp_path, monkeypatch):
        spec_path = Path(__file__).resolve().parents[1] / "configs" / "sample_synthetic_spec.json"
        spec_payload = json.loads(spec_path.read_text(encoding="utf-8"))
        data = generate(SyntheticSpec.from_dict(spec_payload))
        synced_inodes = []
        real_fsync = os.fsync

        def counting_fsync(fd):
            synced_inodes.append(os.fstat(fd).st_ino)
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", counting_fsync)
        with _synthetic_store(tmp_path / "store", data, spec_payload) as store:
            assert len(store) == len(data.items) * len(data.matrix.languages) == 38_400
            assert synced_inodes.count(store.records_path.stat().st_ino) <= 2


SMALL_SPEC = {
    "n_items": 30, "k_true": 2, "dim": 4, "languages": ["en", "es", "hi", "zh"],
    "expert_per_cluster": ["es", "hi"], "p_expert": 0.9, "p_other": 0.3, "seed": 5,
}


def synthetic_records(data):
    """The records ``_synthetic_store`` writes for ``data``, built one by one."""
    width = len(data.matrix.languages)
    for row, item in enumerate(data.items):
        for col, lang in enumerate(data.matrix.languages):
            label = chr(data.matrix.cells[row * width + col])
            yield InferenceRecord(
                item_id=item.item_id,
                language=lang,
                model_name="synthetic",
                prompt_hash=prompt_hash(f"synthetic:{item.item_id}:{lang.value}", "synthetic"),
                raw_output=json.dumps({"final_answer": label}),
                extracted_label=label,
                status=RecordStatus.OK,
                created_at="1970-01-01T00:00:00+00:00",
            )


def assert_same_store(a: RunStore, b: RunStore) -> None:
    assert a.records_path.read_bytes() == b.records_path.read_bytes()
    assert (store_keys(a), a.codes) == (store_keys(b), b.codes)
    assert (a.statuses, a.labels, a.digests, a.offsets) == (b.statuses, b.labels, b.digests, b.offsets)
    assert a.conflicts == b.conflicts


class TestAppend:
    """``RunStore.append`` and its two feeders: ``record_many`` and the synthetic fill."""

    def test_the_synthetic_fill_writes_what_record_many_writes(self, tmp_path):
        data = generate(SyntheticSpec.from_dict(SMALL_SPEC))
        with _synthetic_store(tmp_path / "fill", data, SMALL_SPEC) as filled, RunStore(tmp_path / "records") as recorded:
            assert recorded.record_many(synthetic_records(data)) == len(filled) == 30 * 4
            assert_same_store(filled, recorded)
        assert_same_store(RunStore(tmp_path / "fill"), RunStore(tmp_path / "records"))

    def test_a_second_fill_writes_no_line_and_counts_no_conflict(self, tmp_path):
        data = generate(SyntheticSpec.from_dict(SMALL_SPEC))
        _synthetic_store(tmp_path / "fill", data, SMALL_SPEC).close()
        before = (tmp_path / "fill" / "records.jsonl").read_bytes()
        with _synthetic_store(tmp_path / "fill", data, SMALL_SPEC) as store:
            assert (len(store), store.conflicts) == (30 * 4, 0)
        assert (tmp_path / "fill" / "records.jsonl").read_bytes() == before

    @pytest.mark.parametrize("newline", [False, True], ids=["torn", "unterminated"])
    def test_a_fill_after_a_cut_final_line_repairs_it_as_record_many_does(self, tmp_path, newline):
        data = generate(SyntheticSpec.from_dict(SMALL_SPEC))
        _synthetic_store(tmp_path / "fill", data, SMALL_SPEC).close()
        lines = (tmp_path / "fill" / "records.jsonl").read_bytes().splitlines(keepends=True)
        # 50 whole lines, then line 51 cut inside its raw_output, or without its newline only.
        tail = lines[50][:-1] if newline else lines[50][: lines[50].index(b"final_answer") + 5]
        for name in ("fill", "records"):
            (tmp_path / name).mkdir(exist_ok=True)
            (tmp_path / name / "records.jsonl").write_bytes(b"".join(lines[:50]) + tail)
        with _synthetic_store(tmp_path / "fill", data, SMALL_SPEC) as filled, RunStore(tmp_path / "records") as recorded:
            assert recorded.record_many(synthetic_records(data)) == len(filled) - 50 - newline
            assert_same_store(filled, recorded)
        assert (tmp_path / "fill" / "records.jsonl").read_bytes() == b"".join(lines)

    @pytest.mark.parametrize(
        "status, label",
        [(0, 0), (0, ord("a")), (0, ord("!")), (1, ord(".")), (3, ord("A")), (255, 0)],
        ids=["ok-without-label", "ok-lowercase", "ok-punctuation", "invalid-punctuation", "status-3", "status-255"],
    )
    def test_a_bad_entry_is_refused_and_neither_written_nor_indexed(self, tmp_path, status, label):
        def entry(record, status, label):
            return record.key, (record.to_json() + "\n").encode("utf-8"), status, label, bytes(32)

        good, bad = record_for("q1", EN), record_for("q2", EN, model="m2")
        with RunStore(tmp_path / "run") as store:
            with pytest.raises(ValueError):
                store.append([entry(good, 0, ord("A")), entry(bad, status, label)])
            assert len(store) == 1 and bad.key not in store_keys(store)
            # The refused key's item id and model are not coded: later rows get a reopened store's codes.
            assert (store._item_ids, store._models) == ({"q1": 0}, {"m": 0})
        assert [r.key for r in stored_records(RunStore(tmp_path / "run"))] == [good.key]

    def test_the_sample_fill_holds_no_more_than_a_block_of_lines(self, tmp_path):
        spec_path = Path(__file__).resolve().parents[1] / "configs" / "sample_synthetic_spec.json"
        spec_payload = json.loads(spec_path.read_text(encoding="utf-8"))
        data = generate(SyntheticSpec.from_dict(spec_payload))
        tracemalloc.start()
        try:
            store = _synthetic_store(tmp_path / "store", data, spec_payload)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        store.close()
        assert store.records_path.stat().st_size > 11_000_000
        # Lines held for a whole-batch write would be the file's 11 MB.
        assert peak - retained < 1_000_000


    def test_the_sample_fill_keeps_its_key_columns_in_under_8_mb(self, tmp_path):
        # 38,400 rows: a tuple and a 64-character hex string per row took 10.75 MB.
        spec_path = Path(__file__).resolve().parents[1] / "configs" / "sample_synthetic_spec.json"
        spec_payload = json.loads(spec_path.read_text(encoding="utf-8"))
        data = generate(SyntheticSpec.from_dict(spec_payload))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            store = _synthetic_store(tmp_path / "store", data, spec_payload)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        store.close()
        assert len(store) == 38_400
        assert retained < 8_000_000
        assert {type(key) for key in store._rows} == {bytes}


# Prompt hashes of 64 lowercase hex characters, which a compact key keeps as their 32 bytes.
HEX_HASHES = [prompt_hash(f"body {n}", "m") for n in range(3)] + ["0" * 64]


class TestKeyColumns:
    """A row's key is kept as codes and its prompt hash's raw bytes; ``keys()`` gives it back.
    A prompt hash that is not 64 lowercase hex characters is refused."""

    def test_keys_come_back_exactly_after_an_append_a_parse_and_an_index_open(self, tmp_path):
        records = [
            record_for(item_id, lang, model=model)._replace(prompt_hash=phash)
            for phash in HEX_HASHES
            for item_id, lang, model in (("q1", EN, "m"), ("q2", ES, "m"), ("q1", HI, "other"))
        ]
        with RunStore(tmp_path / "run") as store:
            assert store.record_many(records) == len(records)
            assert store_keys(store) == [r.key for r in records]
            codes = bytes(store.codes)
        with RunStore(tmp_path / "run") as parsed:
            assert (store_keys(parsed), bytes(parsed.codes)) == ([r.key for r in records], codes)
            parsed.save_index()
        assert (tmp_path / "run" / INDEX_NAME).exists()
        with RunStore(tmp_path / "run") as indexed:
            assert indexed._index_length > 0  # opened through the index
            assert (store_keys(indexed), bytes(indexed.codes)) == ([r.key for r in records], codes)
            assert indexed.record_many(records) == 0 and indexed.conflicts == 0

    @pytest.mark.parametrize("phash", ODD_HASHES)
    def test_a_prompt_hash_that_is_not_hex_is_refused_and_codes_nothing(self, store, phash):
        good = record_for("q1", EN)
        assert store.record(good)
        tables = dict(store._item_ids), dict(store._models)
        with pytest.raises(ValueError, match="is not 64 lowercase hex characters"):
            store.record(record_for("q2", ES, model="other")._replace(prompt_hash=phash))
        assert (dict(store._item_ids), dict(store._models)) == tables
        assert store_keys(store) == [good.key] and store.records_path.read_bytes() == (good.to_json() + "\n").encode()

    def test_a_key_in_a_language_that_is_no_language_code_is_refused(self, store):
        good = record_for("q1", EN)
        line = (good.to_json() + "\n").encode("utf-8")
        with pytest.raises(ValueError, match="language 'xx' is no Language code"):
            store.append([(good.key, line, 0, ord("A"), bytes(32)), (("q2", "xx", "m", H), line, 0, ord("A"), bytes(32))])
        assert store_keys(store) == [good.key] and store.records_path.read_bytes() == line


def reference_decisive_rows(keys, statuses, model_name, items, languages):
    """``decisive_rows`` by one loop over the rows, in write order."""
    row_of = {item_id: at for at, item_id in enumerate(items)}
    col_of = {lang.value: col for col, lang in enumerate(languages)}
    rows, unknown = [-1] * (len(items) * len(languages)), {}
    for row, (item_id, code, model, _) in enumerate(keys):
        if model != model_name or code not in col_of:
            continue
        if item_id not in row_of:
            unknown[item_id] = None
            continue
        at = row_of[item_id] * len(languages) + col_of[code]
        if statuses[row] == 0 and (rows[at] < 0 or statuses[rows[at]] != 0):
            rows[at] = row
        elif statuses[row] == 1 and rows[at] < 0:
            rows[at] = row
    return rows, unknown


@pytest.mark.parametrize("seed", range(20))
def test_decisive_rows_match_a_loop_over_the_rows(tmp_path, seed):
    rng = random.Random(seed)
    statuses = list(RecordStatus)
    with RunStore(tmp_path / "run") as store:
        for _ in range(rng.randrange(1, 120)):
            status = rng.choice(statuses)
            store.record(
                record_for(
                    f"q{rng.randrange(8)}", rng.choice([EN, ES, HI]), status=status,
                    model=rng.choice(["m", "m", "other"]), phash=f"h{rng.randrange(3)}",
                )
            )
        items = [f"q{n}" for n in rng.sample(range(8), rng.randrange(0, 7))]
        languages = rng.sample([EN, ES, HI], rng.randrange(1, 4))
        rows, unknown = decisive_rows(store, "m", items, languages)
        assert rows.dtype == np.int64
        assert (rows.tolist(), unknown) == reference_decisive_rows(store_keys(store), store.statuses, "m", items, languages)


class TestCorruptStore:
    def test_ok_line_with_a_multi_letter_label_is_refused(self, tmp_path):
        path = tmp_path / "run"
        with RunStore(path) as store:
            for item_id in ("q1", "q2", "q3"):
                store.record(record_for(item_id, EN))
        lines = (path / "records.jsonl").read_text().splitlines()
        lines[1] = lines[1].replace('"extracted_label": "A"', '"extracted_label": "AB"')
        (path / "records.jsonl").write_text("\n".join(lines) + "\n")
        with pytest.raises(StoreError, match="line 2 corrupt: .*label 'AB'"):
            RunStore(path)

    def test_torn_final_line_dropped_then_appendable(self, tmp_path):
        path = tmp_path / "run"
        with RunStore(path) as store:
            store.record(record_for("q1", EN))
        with (path / "records.jsonl").open("a", encoding="utf-8") as fh:
            fh.write('{"item_id": "q2", "language"')  # torn write, no newline
        store = RunStore(path)
        assert len(store) == 1
        store.record(record_for("q2", EN))
        store.close()
        assert len(RunStore(path)) == 2

    def test_final_line_without_newline_is_kept_and_the_next_append_starts_a_line(self, tmp_path):
        path = tmp_path / "run"
        with RunStore(path) as store:
            store.record(record_for("q1", EN))
            store.record(record_for("q2", EN))
        data = (path / "records.jsonl").read_bytes()
        (path / "records.jsonl").write_bytes(data.replace(b"\n", b"\n  \n\n", 1).rstrip(b"\n"))
        with RunStore(path) as store:
            assert [r.item_id for r in stored_records(store)] == ["q1", "q2"]
            store.record(record_for("q3", EN))
        assert [r.item_id for r in stored_records(RunStore(path))] == ["q1", "q2", "q3"]
        assert (path / "records.jsonl").read_bytes().endswith(b"}\n" + record_for("q3", EN).to_json().encode() + b"\n")

    def test_corrupt_final_line_ending_in_a_newline_is_dropped_as_torn(self, tmp_path):
        path = tmp_path / "run"
        with RunStore(path) as store:
            store.record(record_for("q1", EN))
        with (path / "records.jsonl").open("a", encoding="utf-8") as fh:
            fh.write('{"item_id": "q2"\n')
        with RunStore(path) as store:
            assert len(store) == 1
            store.record(record_for("q3", EN))
        assert [r.item_id for r in stored_records(RunStore(path))] == ["q1", "q3"]

    def test_load_holds_one_line_of_the_file_at_a_time(self, tmp_path):
        path = tmp_path / "run"
        with RunStore(path) as store:
            store.record_many(record_for(f"q{i}", EN, raw="x" * 20_000) for i in range(100))
        size = (path / "records.jsonl").stat().st_size
        tracemalloc.start()
        try:
            loaded = RunStore(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(loaded) == 100
        # The records' outputs are the file's size; reading the whole file
        # as bytes besides them would double the peak.
        assert peak < 1.3 * size

    def test_corrupt_middle_line_raises(self, tmp_path):
        path = tmp_path / "run"
        with RunStore(path) as store:
            store.record(record_for("q1", EN))
            store.record(record_for("q2", EN))
        raw = (path / "records.jsonl").read_text().splitlines()
        raw[0] = "garbage"
        (path / "records.jsonl").write_text("\n".join(raw) + "\n")
        with pytest.raises(StoreError, match="line 1"):
            RunStore(path)


class TestBuildMatrix:
    def test_full_store_gives_all_ok_cells(self, items, store):
        for item in items:
            for lang in (EN, ES):
                store.record(record_for(item.item_id, lang, label=item.gold_label))
        matrix = build_matrix(store, items, "m", [EN, ES])
        counts = matrix_counts(matrix)
        assert counts == {"ok": 6, "invalid_output": 0, "missing": 0}
        assert all(cell_correct(matrix, i.item_id, l) for i in items for l in (EN, ES))
        assert matrix.correct.all()

    def test_missing_cell_explicit(self, items, store):
        for item in items:
            store.record(record_for(item.item_id, EN, label="A"))
        store.record(record_for("q1", HI, label="A"))
        matrix = build_matrix(store, items, "m", [EN, HI])
        assert cell(matrix, "q2", HI) == "."
        assert not matrix.correct[1, 1]

    def test_correctness_recomputed_from_gold(self, items, store):
        store.record(record_for("q2", EN, label="B"))
        store.record(record_for("q1", EN, label="B"))
        matrix = build_matrix(store, items, "m", [EN])
        assert matrix.correct.tolist() == [[False], [True], [False]]  # q1 gold A, q2 gold B, q3 missing

    def test_invalid_output_cell(self, items, store):
        store.record(record_for("q1", EN, status=RecordStatus.INVALID_OUTPUT, raw="garbage"))
        matrix = build_matrix(store, items, "m", [EN])
        assert cell(matrix, "q1", EN) == "!"
        assert not matrix.correct[0, 0]

    def test_transport_error_record_leaves_cell_missing(self, items, store):
        store.record(record_for("q1", EN, status=RecordStatus.TRANSPORT_ERROR, raw=""))
        matrix = build_matrix(store, items, "m", [EN])
        assert cell(matrix, "q1", EN) == "."

    def test_ok_record_beats_earlier_invalid(self, items, store):
        store.record(record_for("q1", EN, status=RecordStatus.INVALID_OUTPUT, raw="xx", phash="h1"))
        store.record(record_for("q1", EN, label="A", phash="h2"))
        matrix = build_matrix(store, items, "m", [EN])
        assert cell(matrix, "q1", EN) == "A"

    def test_unknown_items_are_logged_once_with_count_and_first_ids(self, items, store, caplog):
        for n in range(8):
            store.record(record_for(f"ghost-{n}", EN))
        with caplog.at_level("WARNING", logger="langselect.store"):
            build_matrix(store, items, "m", [EN])
        assert [r.getMessage() for r in caplog.records] == [
            "store records for 8 items not in the dataset, e.g. ghost-0, ghost-1, ghost-2, ghost-3, ghost-4"
        ]

    def test_unknown_item_warns_not_fatal(self, items, store, caplog):
        store.record(record_for("ghost", EN))
        with caplog.at_level("WARNING", logger="langselect.store"):
            matrix = build_matrix(store, items, "m", [EN])
        assert caplog.messages == ["store records for 1 items not in the dataset, e.g. ghost"]
        assert matrix.items == ("q1", "q2", "q3")

    def test_each_unknown_item_warns_once_in_first_seen_order(self, items, store, caplog):
        ghosts = ("ghost-c", "ghost-a", "ghost-b")
        for phash in ("h1", "h2"):
            for lang in (EN, ES):
                store.record(record_for("q1", lang, phash=f"{phash}-{lang.value}"))
                for ghost in ghosts:
                    store.record(record_for(ghost, lang, phash=f"{phash}-{lang.value}"))
        with caplog.at_level("WARNING", logger="langselect.store"):
            build_matrix(store, items, "m", [EN, ES])
        assert caplog.messages == ["store records for 3 items not in the dataset, e.g. ghost-c, ghost-a, ghost-b"]

    def test_languages_canonicalized(self, items, store):
        matrix = build_matrix(store, items, "m", [HI, ES, EN])
        assert matrix.languages == (EN, HI, ES)

    def test_other_model_records_ignored(self, items, store):
        store.record(record_for("q1", EN, model="other"))
        matrix = build_matrix(store, items, "m", [EN])
        assert cell(matrix, "q1", EN) == "."


class TestMissingCells:
    def test_complete_matrix_empty(self, items, store):
        for item in items:
            store.record(record_for(item.item_id, EN))
        matrix = build_matrix(store, items, "m", [EN])
        assert missing_cells(matrix) == []

    def test_single_missing_pair(self, items, store):
        for item in items:
            for lang in (EN, ES):
                if (item.item_id, lang) != ("q2", ES):
                    store.record(record_for(item.item_id, lang))
        matrix = build_matrix(store, items, "m", [EN, ES])
        assert missing_cells(matrix) == [("q2", ES)]

    def test_fresh_matrix_lists_all_pairs_in_order(self, items, store):
        matrix = build_matrix(store, items, "m", [ES, EN])
        assert missing_cells(matrix) == [
            ("q1", EN), ("q1", ES),
            ("q2", EN), ("q2", ES),
            ("q3", EN), ("q3", ES),
        ]


class TestReplayAndMonotonicity:
    def test_two_builds_identical(self, items, store):
        store.record(record_for("q1", EN))
        store.record(record_for("q2", ES, status=RecordStatus.INVALID_OUTPUT, raw="?"))
        first = build_matrix(store, items, "m", [EN, ES])
        second = build_matrix(store, items, "m", [EN, ES])
        assert first == second
        assert first.cells == second.cells == b"A." b".!" b".."

    def test_matrix_rebuilt_from_synthetic_store_shares_the_generated_cells(self, tmp_path):
        payload = {
            "n_items": 12, "k_true": 2, "dim": 4, "languages": ["en", "es", "hi"],
            "expert_per_cluster": ["es", "hi"], "p_expert": 0.9, "p_other": 0.3, "seed": 5,
        }
        data = generate(SyntheticSpec.from_dict(payload))
        with _synthetic_store(tmp_path / "store", data, payload) as store:
            matrix = build_matrix(store, data.items, "synthetic", data.matrix.languages)
        assert matrix.cells == data.matrix.cells
        assert len(matrix.cells) == 12 * 3

    def test_appends_never_flip_ok_cells(self, items, store):
        store.record(record_for("q1", EN, label="A"))
        before = cell(build_matrix(store, items, "m", [EN]), "q1", EN)
        store.record(record_for("q1", EN, label="B"))  # conflicting rerun
        after = cell(build_matrix(store, items, "m", [EN]), "q1", EN)
        assert before == after == "A"

    def test_conservation(self, items, store):
        store.record(record_for("q1", EN))
        store.record(record_for("q2", EN, status=RecordStatus.INVALID_OUTPUT, raw="?"))
        matrix = build_matrix(store, items, "m", [EN, ES, HI])
        counts = matrix_counts(matrix)
        assert sum(counts.values()) == len(items) * 3


class TestManifest:
    def test_round_trip(self, store):
        store.write_manifest({"model_name": "m", "languages": ["en"]})
        assert read_manifest(store.directory) == {"model_name": "m", "languages": ["en"]}

    def test_absent_manifest_is_none(self, tmp_path):
        assert read_manifest(RunStore(tmp_path / "run").directory) is None


def test_subset_preserves_structure(items, store):
    for item in items:
        store.record(record_for(item.item_id, EN, label=item.gold_label))
    matrix = build_matrix(store, items, "m", [EN])
    sub = matrix.subset(["q3", "q1"])
    assert sub.items == ("q3", "q1")
    assert cell(sub, "q1", EN) == cell(matrix, "q1", EN) == "A"
    assert sub.cells == matrix.cells[2:3] + matrix.cells[0:1]
    with pytest.raises(KeyError):
        matrix.subset(["nope"])
