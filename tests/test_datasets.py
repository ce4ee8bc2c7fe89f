import json
import random
import re

import pytest

from langselect.datasets import (
    ClaimRecord,
    DatasetError,
    DatasetId,
    McqItem,
    SplitSpec,
    load_claims,
    load_dataset,
    reformat_culture_atlas,
    save_dataset,
    split,
)
from langselect.languages import Language

from helpers import make_item


def write_jsonl(path, records):
    path.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records), encoding="utf-8")


BLEND_RECORD = {
    "id": "blend/1",
    "question": "What is the common dress code for school teachers in Azerbaijan?",
    "choices": ["apron", "black formal suit", "uniform", "shirt"],
    "answer": "B",
    "country": "Azerbaijan",
}


class TestLoadDataset:
    def test_loads_blend_style_record(self, tmp_path):
        path = tmp_path / "blend.jsonl"
        write_jsonl(path, [BLEND_RECORD])
        items = load_dataset(path, DatasetId.BLEND)
        assert len(items) == 1
        item = items[0]
        assert item.labels == ("A", "B", "C", "D")
        assert item.country == "Azerbaijan"
        assert item.gold_label == "B"
        assert item.source_language is Language.ENGLISH

    def test_gold_label_not_among_choices(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        write_jsonl(path, [{**BLEND_RECORD, "answer": "E"}])
        with pytest.raises(DatasetError, match="line 1.*gold label not among choices"):
            load_dataset(path, DatasetId.BLEND)

    def test_empty_file_gives_empty_list(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        assert load_dataset(path, DatasetId.BLEND) == []

    def test_missing_field_names_line_and_field(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        record = dict(BLEND_RECORD)
        del record["question"]
        write_jsonl(path, [BLEND_RECORD, record])
        with pytest.raises(DatasetError, match="line 2: missing field 'question'"):
            load_dataset(path, DatasetId.BLEND)

    def test_a_line_cut_short_is_refused_at_its_own_position(self, tmp_path):
        path = tmp_path / "cut.jsonl"
        write_jsonl(path, [BLEND_RECORD, BLEND_RECORD])
        first, second = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text(first + second[: second.index(', "question"')] + "\n" + first, encoding="utf-8")
        with pytest.raises(DatasetError, match=r"line 2: invalid JSON: Expecting ',' delimiter: line 1 column 17 \(char 16\)$"):
            load_dataset(path, DatasetId.BLEND)

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        write_jsonl(path, [BLEND_RECORD, BLEND_RECORD])
        with pytest.raises(DatasetError, match="duplicate item id"):
            load_dataset(path, DatasetId.BLEND)

    def test_missing_id_gets_content_hash(self, tmp_path):
        path = tmp_path / "noid.jsonl"
        record = dict(BLEND_RECORD)
        del record["id"]
        write_jsonl(path, [record])
        (item,) = load_dataset(path, DatasetId.BLEND)
        assert item.item_id.startswith("blend/")
        (again,) = load_dataset(path, DatasetId.BLEND)
        assert again.item_id == item.item_id

    def test_a_null_id_gets_the_content_hash_of_a_missing_one(self, tmp_path):
        path = tmp_path / "nullid.jsonl"
        write_jsonl(path, [{**BLEND_RECORD, "id": None}])
        (item,) = load_dataset(path, DatasetId.BLEND)
        record = dict(BLEND_RECORD)
        del record["id"]
        write_jsonl(path, [record])
        assert load_dataset(path, DatasetId.BLEND) == [item]
        assert item.item_id.startswith("blend/")

    @pytest.mark.parametrize(
        "value, error",
        [
            pytest.param(0, "item_id must be a string, not 0", id="zero"),
            pytest.param(False, "item_id must be a string, not False", id="false"),
            pytest.param([], "item_id must be a string, not []", id="empty-list"),
            pytest.param("", "item_id is empty", id="empty-string"),
        ],
    )
    def test_a_falsy_id_is_refused_not_hashed(self, tmp_path, value, error):
        path = tmp_path / "falsy.jsonl"
        write_jsonl(path, [{**BLEND_RECORD, "id": value}])
        with pytest.raises(DatasetError, match=rf"^{re.escape(str(path))}: line 1: {re.escape(error)}$"):
            load_dataset(path, DatasetId.BLEND)

    def test_order_preserved(self, tmp_path):
        path = tmp_path / "many.jsonl"
        records = [{**BLEND_RECORD, "id": f"blend/{i}", "question": f"q{i}?"} for i in range(10)]
        write_jsonl(path, records)
        items = load_dataset(path, DatasetId.BLEND)
        assert [i.item_id for i in items] == [f"blend/{i}" for i in range(10)]

    def test_round_trip_identity(self, tmp_path):
        path = tmp_path / "src.jsonl"
        records = [
            BLEND_RECORD,
            {"id": "blend/2", "question": "q2?", "choices": ["x", "y"], "answer": "A"},
        ]
        write_jsonl(path, records)
        items = load_dataset(path, DatasetId.BLEND)
        out = tmp_path / "copy.jsonl"
        save_dataset(items, out)
        assert load_dataset(out, DatasetId.BLEND) == items


class TestMcqItemInvariants:
    def test_choice_count_bounds(self):
        with pytest.raises(DatasetError):
            make_item("x", n_choices=1)
        make_item("x", n_choices=2)
        make_item("x", n_choices=26)

    def test_empty_texts_rejected(self):
        from langselect.datasets import Choice

        with pytest.raises(DatasetError, match="question"):
            McqItem("x", DatasetId.CUSTOM, "", (Choice("A", "a"), Choice("B", "b")), "A")
        with pytest.raises(DatasetError, match="choice text"):
            McqItem("x", DatasetId.CUSTOM, "q?", (Choice("A", ""), Choice("B", "b")), "A")

    def test_labels_must_be_consecutive_from_a(self):
        from langselect.datasets import Choice

        with pytest.raises(DatasetError, match="consecutive"):
            McqItem("x", DatasetId.CUSTOM, "q?", (Choice("B", "b"), Choice("C", "c")), "B")


class TestLoadClaims:
    def test_boolean_and_string_labels(self, tmp_path):
        path = tmp_path / "claims.jsonl"
        write_jsonl(
            path,
            [
                {"country": "Samoa", "claim": "claim one", "label": True},
                {"country": "Samoa", "claim": "claim two", "label": "false"},
                {"country": "Chile", "claim": "claim three", "label": "TRUE"},
            ],
        )
        claims = load_claims(path)
        assert [c.truth for c in claims] == [True, False, True]
        assert claims[0].country == "Samoa"

    def test_bad_label_named(self, tmp_path):
        path = tmp_path / "claims.jsonl"
        write_jsonl(path, [{"country": "Samoa", "claim": "x", "label": "maybe"}])
        with pytest.raises(DatasetError, match="line 1.*label"):
            load_claims(path)

    def test_missing_field_named(self, tmp_path):
        path = tmp_path / "claims.jsonl"
        write_jsonl(path, [{"country": "Samoa", "label": True}])
        with pytest.raises(DatasetError, match="missing field 'claim'"):
            load_claims(path)

    @pytest.mark.parametrize("line", ["5", '"Samoa"', "[1, 2]", "null"])
    def test_a_line_that_is_not_an_object_is_refused_with_its_number(self, tmp_path, line):
        path = tmp_path / "claims.jsonl"
        good = json.dumps({"country": "Samoa", "claim": "x", "label": True})
        path.write_text(f"{good}\n\n{line}\n", encoding="utf-8")
        with pytest.raises(DatasetError, match=r"claims.jsonl: line 3: record is not an object"):
            load_claims(path)

    def test_round_trip_into_reformat(self, tmp_path):
        path = tmp_path / "claims.jsonl"
        records = [{"country": "Samoa", "claim": f"Samoa claim {i}", "label": i == 0} for i in range(4)]
        write_jsonl(path, records)
        result = reformat_culture_atlas(load_claims(path), seed=1)
        assert len(result.items) == 1


def claims_for(country, n_true, n_false):
    return [ClaimRecord(country, f"{country} true claim {i}", True) for i in range(n_true)] + [
        ClaimRecord(country, f"{country} false claim {i}", False) for i in range(n_false)
    ]


class TestReformatCultureAtlas:
    def test_single_true_three_false_yields_one_mcq(self):
        result = reformat_culture_atlas(claims_for("Samoa", 1, 3), seed=7)
        assert len(result.items) == 1
        assert result.skipped == 0
        item = result.items[0]
        assert item.question == "Which is the following is true about Samoa?"
        assert len(item.choices) == 4
        assert dict(item.choices)[item.gold_label] == "Samoa true claim 0"
        assert item.country == "Samoa"
        assert item.dataset_id is DatasetId.CULTURE_ATLAS

    def test_each_true_claim_used_at_most_once(self):
        result = reformat_culture_atlas(claims_for("Chile", 2, 6), seed=0)
        assert len(result.items) == 2
        golds = {dict(i.choices)[i.gold_label] for i in result.items}
        assert golds == {"Chile true claim 0", "Chile true claim 1"}

    def test_too_few_false_claims_skips_with_summary(self):
        result = reformat_culture_atlas(claims_for("Nauru", 1, 2), seed=0)
        assert result.items == []
        assert result.skipped == 1
        assert result.skipped_by_country == {"Nauru": 1}

    def test_no_false_reuse_when_pool_is_large_enough(self):
        result = reformat_culture_atlas(claims_for("Peru", 3, 9), seed=3)
        assert len(result.items) == 3
        used = []
        for item in result.items:
            used.extend(c.text for c in item.choices if c.text != dict(item.choices)[item.gold_label])
        assert len(used) == len(set(used))

    def test_reuse_only_when_pool_too_small(self):
        result = reformat_culture_atlas(claims_for("Fiji", 4, 5), seed=3)
        assert len(result.items) == 4
        for item in result.items:
            distractors = [c.text for c in item.choices if c.text != dict(item.choices)[item.gold_label]]
            assert len(set(distractors)) == 3

    def test_never_mixes_countries(self):
        claims = claims_for("Ghana", 2, 6) + claims_for("Togo", 2, 6)
        result = reformat_culture_atlas(claims, seed=11)
        assert len(result.items) == 4
        for item in result.items:
            assert item.country is not None
            for choice in item.choices:
                assert choice.text.startswith(item.country)

    def test_gold_position_uniform(self):
        # Fixed seeds make this deterministic; >= 1000 generated MCQs.
        claims = []
        for c in range(10):
            claims.extend(claims_for(f"country{c}", 10, 40))
        positions = {"A": 0, "B": 0, "C": 0, "D": 0}
        total = 0
        for seed in range(20):
            result = reformat_culture_atlas(claims, seed=seed)
            for item in result.items:
                positions[item.gold_label] += 1
                total += 1
        assert total >= 1000
        for label, count in positions.items():
            assert abs(count / total - 0.25) <= 0.03, (label, count / total)

    def test_deterministic_for_seed(self):
        claims = claims_for("Kenya", 3, 9)
        first = reformat_culture_atlas(claims, seed=5)
        second = reformat_culture_atlas(claims, seed=5)
        assert first.items == second.items


class TestSplit:
    def test_split_partition_and_determinism(self):
        items = [make_item(f"i{i}") for i in range(100)]
        spec = SplitSpec(seed=7, train_count=80, test_count=20)
        train, test = split(items, spec)
        train2, test2 = split(items, spec)
        assert (train, test) == (train2, test2)
        train_ids = {i.item_id for i in train}
        test_ids = {i.item_id for i in test}
        assert len(train_ids) == 80 and len(test_ids) == 20
        assert train_ids.isdisjoint(test_ids)
        assert train_ids | test_ids == {i.item_id for i in items}

    def test_split_leaves_remainder_unused(self):
        items = [make_item(f"i{i}") for i in range(10)]
        train, test = split(items, SplitSpec(seed=1, train_count=5, test_count=3))
        assert len(train) == 5 and len(test) == 3

    def test_counts_exceeding_size_error(self):
        items = [make_item(f"i{i}") for i in range(10)]
        with pytest.raises(DatasetError, match="split needs"):
            split(items, SplitSpec(seed=1, train_count=8, test_count=3))

    def test_different_seeds_differ(self):
        items = [make_item(f"i{i}") for i in range(50)]
        a, _ = split(items, SplitSpec(seed=1, train_count=25, test_count=25))
        b, _ = split(items, SplitSpec(seed=2, train_count=25, test_count=25))
        assert [i.item_id for i in a] != [i.item_id for i in b]


def test_reformat_then_split_pipeline():
    rng = random.Random(0)
    claims = []
    for c in range(8):
        claims.extend(claims_for(f"land{c}", rng.randint(2, 6), rng.randint(6, 18)))
    result = reformat_culture_atlas(claims, seed=1)
    spec = SplitSpec(seed=2, train_count=len(result.items) - 5, test_count=5)
    train, test = split(result.items, spec)
    assert {i.item_id for i in train}.isdisjoint({i.item_id for i in test})
