import json
import os
import threading
from pathlib import Path

import pytest

from langselect.languages import Language
from langselect.pipeline import _synthetic_store
from langselect.store import (
    AnswerCell,
    CellStatus,
    InferenceRecord,
    RecordStatus,
    RunStore,
    StoreError,
    build_matrix,
    matrix_counts,
    missing_cells,
)
from langselect.synthetic import SyntheticSpec, generate

from helpers import make_item


def record_for(item_id, lang, label="A", status=RecordStatus.OK, raw=None, model="m", phash=None):
    return InferenceRecord(
        item_id=item_id,
        language=lang,
        model_name=model,
        prompt_hash=phash or f"hash-{item_id}-{lang.value}",
        raw_output=raw if raw is not None else json.dumps({"final_answer": label}),
        extracted_label=label if status is RecordStatus.OK else None,
        status=status,
        created_at="2026-01-01T00:00:00+00:00",
    )


EN, ES, HI = Language.ENGLISH, Language.SPANISH, Language.HINDI


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
        assert next(iter(store.records())).extracted_label == "A"

    def test_persistence_across_reopen(self, tmp_path):
        path = tmp_path / "run"
        with RunStore(path) as store:
            store.record(record_for("q1", EN))
            store.record(record_for("q1", ES))
        reopened = RunStore(path)
        assert len(reopened) == 2
        assert reopened.record(record_for("q1", EN)) is False

    def test_ok_record_requires_label(self):
        with pytest.raises(ValueError):
            InferenceRecord(
                item_id="q1",
                language=EN,
                model_name="m",
                prompt_hash="h",
                raw_output="x",
                extracted_label=None,
                status=RecordStatus.OK,
            )

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
        assert [r.raw_output for r in reopened.records()] == [rec.raw_output, "é"]
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


class TestRecordMany:
    def test_keeps_write_order(self, tmp_path):
        batch = [record_for(item_id, lang) for item_id in ("q3", "q1", "q2") for lang in (HI, EN)]
        with RunStore(tmp_path / "run") as store:
            assert store.record_many(batch) == len(batch)
        assert [r.key for r in RunStore(tmp_path / "run").records()] == [r.key for r in batch]

    def test_duplicates_in_one_batch_dropped_and_differing_one_is_a_conflict(self, tmp_path, store):
        first = record_for("q1", EN, label="A")
        assert store.record_many([first, first, record_for("q1", EN, label="B"), record_for("q2", EN)]) == 2
        assert store.conflicts == 1
        assert [r.extracted_label for r in store.records()] == ["A", "A"]
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
        assert list(RunStore(path).records()) == list(store.records())
        assert store.record(record_for("q3", EN)) is True
        assert [r.item_id for r in RunStore(path).records()] == ["q1", "q2", "q3"]

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


class TestCorruptStore:
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
        assert all(matrix.cell(i.item_id, l).correct for i in items for l in (EN, ES))

    def test_missing_cell_explicit(self, items, store):
        for item in items:
            store.record(record_for(item.item_id, EN, label="A"))
        store.record(record_for("q1", HI, label="A"))
        matrix = build_matrix(store, items, "m", [EN, HI])
        assert matrix.cell("q2", HI).status is CellStatus.MISSING
        assert matrix.cell("q2", HI).correct is False

    def test_correctness_recomputed_from_gold(self, items, store):
        store.record(record_for("q2", EN, label="B"))
        store.record(record_for("q1", EN, label="B"))
        matrix = build_matrix(store, items, "m", [EN])
        assert matrix.cell("q2", EN).correct is True  # gold B
        assert matrix.cell("q1", EN).correct is False  # gold A

    def test_invalid_output_cell(self, items, store):
        store.record(record_for("q1", EN, status=RecordStatus.INVALID_OUTPUT, raw="garbage"))
        matrix = build_matrix(store, items, "m", [EN])
        cell = matrix.cell("q1", EN)
        assert cell.status is CellStatus.INVALID_OUTPUT
        assert cell.label is None and cell.correct is False

    def test_transport_error_record_leaves_cell_missing(self, items, store):
        store.record(record_for("q1", EN, status=RecordStatus.TRANSPORT_ERROR, raw=""))
        matrix = build_matrix(store, items, "m", [EN])
        assert matrix.cell("q1", EN).status is CellStatus.MISSING

    def test_ok_record_beats_earlier_invalid(self, items, store):
        store.record(record_for("q1", EN, status=RecordStatus.INVALID_OUTPUT, raw="xx", phash="h1"))
        store.record(record_for("q1", EN, label="A", phash="h2"))
        matrix = build_matrix(store, items, "m", [EN])
        assert matrix.cell("q1", EN).status is CellStatus.OK

    def test_unknown_item_warns_not_fatal(self, items, store):
        store.record(record_for("ghost", EN))
        matrix = build_matrix(store, items, "m", [EN])
        assert any("ghost" in w for w in matrix.warnings)

    def test_languages_canonicalized(self, items, store):
        matrix = build_matrix(store, items, "m", [HI, ES, EN])
        assert matrix.languages == (EN, HI, ES)

    def test_other_model_records_ignored(self, items, store):
        store.record(record_for("q1", EN, model="other"))
        matrix = build_matrix(store, items, "m", [EN])
        assert matrix.cell("q1", EN).status is CellStatus.MISSING


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

    def test_appends_never_flip_ok_cells(self, items, store):
        store.record(record_for("q1", EN, label="A"))
        before = build_matrix(store, items, "m", [EN]).cell("q1", EN)
        store.record(record_for("q1", EN, label="B"))  # conflicting rerun
        after = build_matrix(store, items, "m", [EN]).cell("q1", EN)
        assert before == after

    def test_conservation(self, items, store):
        store.record(record_for("q1", EN))
        store.record(record_for("q2", EN, status=RecordStatus.INVALID_OUTPUT, raw="?"))
        matrix = build_matrix(store, items, "m", [EN, ES, HI])
        counts = matrix_counts(matrix)
        assert sum(counts.values()) == len(items) * 3


class TestAnswerCellInvariants:
    def test_missing_cell_is_label_free(self):
        with pytest.raises(ValueError):
            AnswerCell(label="A", correct=False, status=CellStatus.MISSING)
        with pytest.raises(ValueError):
            AnswerCell(label=None, correct=True, status=CellStatus.MISSING)


class TestManifest:
    def test_round_trip(self, store):
        store.write_manifest({"model_name": "m", "languages": ["en"]})
        assert store.read_manifest() == {"model_name": "m", "languages": ["en"]}

    def test_absent_manifest_is_none(self, tmp_path):
        assert RunStore(tmp_path / "run").read_manifest() is None


def test_subset_preserves_structure(items, store):
    for item in items:
        store.record(record_for(item.item_id, EN, label=item.gold_label))
    matrix = build_matrix(store, items, "m", [EN])
    sub = matrix.subset(["q3", "q1"])
    assert sub.items == ("q3", "q1")
    assert sub.cell("q1", EN) == matrix.cell("q1", EN)
    with pytest.raises(KeyError):
        matrix.subset(["nope"])
