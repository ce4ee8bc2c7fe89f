import dataclasses
import json
import random
import string
from importlib import resources

import pytest

from langselect.languages import CANONICAL_ORDER, Language, canonical_index
from langselect.report import language_distribution
from langselect.selectors import (
    CountryMap,
    GlobalChoice,
    SelectorError,
    Strategy,
    evaluate,
    load_selection_cache,
    save_selection_cache,
    train_global_language,
)

from helpers import INVALID, MISSING, cell_correct, make_item, make_matrix, random_matrix

EN, ES, HI, ZH = Language.ENGLISH, Language.SPANISH, Language.HINDI, Language.CHINESE


def brute_force_majority(matrix, item_id) -> str | None:
    """Independent tally over one row: read each cell, count by loops,
    tie-break by the best canonical voter priority."""
    row = matrix.grid[matrix.items.index(item_id)]
    votes = {lang: chr(byte) for lang, byte in zip(matrix.languages, row.tolist()) if chr(byte).isalpha()}
    if not votes:
        return None
    best_label = None
    best_count = -1
    best_priority = len(CANONICAL_ORDER)
    for label in sorted(set(votes.values())):
        count = 0
        priority = len(CANONICAL_ORDER)
        for lang, cast in votes.items():
            if cast == label:
                count += 1
                priority = min(priority, canonical_index(lang))
        better = count > best_count or (count == best_count and priority < best_priority)
        if better:
            best_label, best_count, best_priority = label, count, priority
    return best_label


def brute_force_global(matrix) -> Language:
    """Independent recomputation of column means and argmax."""
    best = None
    best_acc = -1.0
    for lang in CANONICAL_ORDER:
        if lang not in matrix.languages:
            continue
        correct = 0
        for item_id in matrix.items:
            if cell_correct(matrix, item_id, lang):
                correct += 1
        acc = correct / len(matrix.items)
        if acc > best_acc:
            best, best_acc = lang, acc
    return best


def brute_force_oracle(matrix, item_id) -> tuple[Language | None, bool]:
    """First language in canonical order whose cell holds the gold label."""
    for lang in CANONICAL_ORDER:
        if lang in matrix.languages and cell_correct(matrix, item_id, lang):
            return lang, True
    return None, False


def majority_labels(items, matrix) -> list[str | None]:
    """Majority's winning label per item, read back through ``evaluate``: the
    one gold letter under which the item scores correct (None if no letter does)."""
    winners = [None] * len(items)
    for letter in string.ascii_uppercase:
        as_gold = dataclasses.replace(matrix, gold=dict.fromkeys(matrix.gold, letter))
        for n, outcome in enumerate(evaluate(Strategy.MAJORITY, items, as_gold).per_item):
            if outcome.correct:
                assert winners[n] is None, "majority scored correct under two gold labels"
                winners[n] = letter
    return winners


class TestOnlyEnglish:
    def test_constant_english(self, m1):
        items, matrix = m1
        assert [o.language for o in evaluate(Strategy.ONLY_ENGLISH, items, matrix).per_item] == [EN] * 3

    def test_missing_english_column_errors(self):
        items, matrix = make_matrix({"q1": {ES: True}})
        with pytest.raises(SelectorError, match="no English column"):
            evaluate(Strategy.ONLY_ENGLISH, items, matrix)

    def test_accuracy_is_english_column(self, m1):
        items, matrix = m1
        outcome = evaluate(Strategy.ONLY_ENGLISH, items, matrix)
        assert outcome.accuracy == pytest.approx(1 / 3)
        assert all(o.language is EN for o in outcome.per_item)


class TestMajority:
    def test_two_against_one(self):
        # en votes A (wrong), es and hi vote B (gold).
        items, matrix = make_matrix(
            {"q1": {EN: False, ES: True, HI: True}}, gold="B", wrong="A"
        )
        assert majority_labels(items, matrix) == ["B"]
        assert evaluate(Strategy.MAJORITY, items, matrix).per_item[0].correct is True

    def test_tie_broken_by_english_priority(self):
        # en votes A (gold), es votes B: tie, English outranks Spanish.
        items, matrix = make_matrix({"q1": {EN: True, ES: False}}, gold="A", wrong="B")
        assert majority_labels(items, matrix) == ["A"]

    def test_all_invalid_loses(self):
        rows = {"q1": {lang: INVALID for lang in CANONICAL_ORDER}}
        items, matrix = make_matrix(rows)
        assert majority_labels(items, matrix) == [None]
        outcome = evaluate(Strategy.MAJORITY, items, matrix)
        assert outcome.accuracy == 0.0

    def test_missing_and_invalid_cast_no_vote(self):
        items, matrix = make_matrix({"q1": {EN: MISSING, ES: INVALID, HI: False}}, gold="A", wrong="C")
        assert majority_labels(items, matrix) == ["C"]

    def test_matches_brute_force_on_random_vote_sets(self):
        for seed in range(40):
            rng = random.Random(seed)
            langs = rng.sample(list(Language), rng.randint(1, 16))
            items, matrix = random_matrix(
                rng, rng.randint(1, 40), langs, p_missing=0.15, p_invalid=0.15, p_correct=0.2, n_choices=6
            )
            expected = [brute_force_majority(matrix, item_id) for item_id in matrix.items]
            assert majority_labels(items, matrix) == expected


class TestGlobalLanguage:
    def test_three_way_tie_goes_english(self, m1):
        _, matrix = m1
        choice = train_global_language(matrix)
        assert choice.language is EN
        assert choice.train_accuracy_by_language == {
            EN: pytest.approx(1 / 3),
            ES: pytest.approx(1 / 3),
            HI: pytest.approx(1 / 3),
        }

    def test_strict_argmax(self):
        rows = {}
        # 50 items: en correct in 25, hi correct in 26.
        for i in range(50):
            rows[f"q{i}"] = {EN: i < 25, HI: i < 26}
        _, matrix = make_matrix(rows)
        assert train_global_language(matrix).language is HI

    def test_singleton_language(self):
        _, matrix = make_matrix({"q1": {HI: True}, "q2": {HI: False}})
        assert train_global_language(matrix).language is HI

    def test_empty_split_errors(self):
        _, matrix = make_matrix({"q1": {EN: True}})
        empty = matrix.subset([])
        with pytest.raises(SelectorError):
            train_global_language(empty)

    def test_matches_brute_force_on_random_matrices(self):
        for seed in range(300):
            rng = random.Random(seed)
            langs = rng.sample(list(Language), rng.randint(1, 8))
            _, matrix = random_matrix(rng, rng.randint(1, 30), langs, p_missing=0.2, p_invalid=0.2)
            assert train_global_language(matrix).language is brute_force_global(matrix)

    def test_json_round_trip(self):
        choice = GlobalChoice(language=HI, train_accuracy_by_language={EN: 0.5, HI: 0.75})
        assert json.loads(choice.to_json()) == {"language": "hi", "train_accuracy_by_language": {"en": 0.5, "hi": 0.75}}


class TestCountry:
    def test_bundled_blend_map(self):
        with resources.as_file(resources.files("langselect") / "data" / "country_map_blend.json") as p:
            cmap = CountryMap.from_json(p)
        assert cmap.lookup("China") is ZH
        assert cmap.lookup("Azerbaijan") is EN
        assert cmap.lookup(None) is EN
        assert cmap.lookup("Atlantis") is EN

    def test_case_folded_lookup(self):
        cmap = CountryMap.from_entries({"China": ZH})
        item = make_item("q1", country="CHINA")
        _, matrix = make_matrix({"q1": {EN: False, ZH: True}})
        outcome = evaluate(Strategy.COUNTRY, [item], matrix, state=cmap)
        assert outcome.per_item[0].language is ZH and outcome.per_item[0].correct is True

    def test_duplicate_after_casefold_rejected(self):
        with pytest.raises(ValueError):
            CountryMap.from_entries({"China": ZH, "CHINA": ES})

    def test_bundled_culture_atlas_map_spot_checks(self):
        with resources.as_file(
            resources.files("langselect") / "data" / "country_map_culture_atlas.json"
        ) as p:
            cmap = CountryMap.from_json(p)
        assert cmap.lookup("Türkiye") is Language.TURKISH
        assert cmap.lookup("Brazil") is Language.PORTUGUESE
        assert cmap.lookup("Samoa") is EN
        assert cmap.lookup("India") is Language.HINDI


class TestLlmSelected:
    def test_lookup_and_missing(self):
        items, matrix = make_matrix({"q1": {Language.ARABIC: True}, "q2": {Language.ARABIC: True}})
        outcome = evaluate(Strategy.LLM_SELECTED, items[:1], matrix, state={"q1": Language.ARABIC})
        assert outcome.per_item[0].language is Language.ARABIC
        with pytest.raises(SelectorError, match="no cached expert-language choice for item q2; run the selection pass first"):
            evaluate(Strategy.LLM_SELECTED, items, matrix, state={"q1": Language.ARABIC})

    def test_cached_language_with_missing_cell_scores_incorrect(self):
        items, matrix = make_matrix({"q1": {EN: True, ES: MISSING}})
        outcome = evaluate(Strategy.LLM_SELECTED, items, matrix, state={"q1": ES})
        assert outcome.per_item[0].correct is False
        assert outcome.per_item[0].language is ES

    def test_cache_file_round_trip(self, tmp_path):
        cache = {"q1": EN, "q2": Language.THAI}
        save_selection_cache(cache, tmp_path / "cache.json")
        assert load_selection_cache(tmp_path / "cache.json") == cache


class TestOracle:
    @staticmethod
    def oracle(items, matrix):
        outcome = evaluate(Strategy.ORACLE, items, matrix).per_item[0]
        return outcome.language, outcome.correct

    def test_first_correct_in_canonical_order(self):
        items, matrix = make_matrix({"q1": {EN: False, ES: True, HI: True}})
        # canonical order is en, hi, es; en is wrong, hi is correct.
        assert self.oracle(items, matrix) == (HI, True)

    def test_all_wrong_is_none(self):
        items, matrix = make_matrix({"q1": {EN: False, ES: False}})
        assert self.oracle(items, matrix) == (None, False)

    def test_single_correct_cell(self):
        items, matrix = make_matrix({"q1": {Language.TURKISH: True, EN: False}})
        assert self.oracle(items, matrix) == (Language.TURKISH, True)

    def test_matches_brute_force_on_random_matrices(self):
        for seed in range(100):
            rng = random.Random(seed)
            langs = rng.sample(list(Language), rng.randint(1, 12))
            items, matrix = random_matrix(rng, rng.randint(1, 30), langs, p_missing=0.2, p_invalid=0.2)
            outcome = evaluate(Strategy.ORACLE, items, matrix)
            got = [(o.language, o.correct) for o in outcome.per_item]
            assert got == [brute_force_oracle(matrix, item_id) for item_id in matrix.items]

    def test_m1_oracle_accuracy(self, m1):
        items, matrix = m1
        outcome = evaluate(Strategy.ORACLE, items, matrix)
        assert outcome.accuracy == pytest.approx(2 / 3)
        by_item = {o.item_id: o for o in outcome.per_item}
        assert by_item["q1"].language is EN
        assert by_item["q2"].language is HI  # hi precedes es canonically
        assert by_item["q3"].language is None


class TestEvaluate:
    def test_m1_global_trained_on_itself(self, m1):
        items, matrix = m1
        choice = train_global_language(matrix)
        outcome = evaluate(Strategy.GLOBAL_LANGUAGE, items, matrix, state=choice)
        assert choice.language is EN
        assert outcome.accuracy == pytest.approx(1 / 3)

    def test_oracle_correct_iff_row_or(self):
        rng = random.Random(3)
        for _ in range(100):
            langs = rng.sample(list(Language), rng.randint(1, 6))
            items, matrix = random_matrix(rng, rng.randint(1, 20), langs)
            outcome = evaluate(Strategy.ORACLE, items, matrix)
            for o in outcome.per_item:
                row_or = any(cell_correct(matrix, o.item_id, lang) for lang in matrix.languages)
                assert o.correct == row_or

    def test_oracle_dominates_every_strategy(self):
        rng = random.Random(5)
        for _ in range(100):
            langs = sorted(rng.sample(list(Language), rng.randint(1, 8)), key=canonical_index)
            if EN not in langs:
                langs = [EN] + langs[:-1] if len(langs) > 1 else [EN]
            items, matrix = random_matrix(rng, rng.randint(1, 25), langs)
            oracle_acc = evaluate(Strategy.ORACLE, items, matrix).accuracy
            strategies = {
                Strategy.ONLY_ENGLISH: None,
                Strategy.MAJORITY: None,
                Strategy.GLOBAL_LANGUAGE: train_global_language(matrix),
                Strategy.LLM_SELECTED: {i.item_id: rng.choice(langs) for i in items},
                Strategy.COUNTRY: CountryMap.from_entries({"China": rng.choice(langs)}),
            }
            for strategy, state in strategies.items():
                acc = evaluate(strategy, items, matrix, state=state).accuracy
                assert acc <= oracle_acc + 1e-12, strategy

    def test_single_language_degeneracy(self):
        rng = random.Random(9)
        items, matrix = random_matrix(rng, 20, [EN])
        en_col = sum(cell_correct(matrix, i, EN) for i in matrix.items) / len(matrix.items)
        only = evaluate(Strategy.ONLY_ENGLISH, items, matrix)
        maj = evaluate(Strategy.MAJORITY, items, matrix)
        glob = evaluate(
            Strategy.GLOBAL_LANGUAGE, items, matrix, state=train_global_language(matrix)
        )
        oracle = evaluate(Strategy.ORACLE, items, matrix)
        assert only.accuracy == oracle.accuracy == en_col
        assert glob.accuracy == en_col
        # Majority may differ on invalid cells only when no vote exists at
        # all; with a single language the winning vote is the en answer.
        assert maj.accuracy == en_col
        chosen = {o.language for o in oracle.per_item if o.language is not None}
        assert chosen <= {EN}

    def test_permutation_invariance(self):
        rng = random.Random(13)
        items, matrix = random_matrix(rng, 15, [EN, ES, HI])
        shuffled = items[:]
        rng.shuffle(shuffled)
        for strategy, state in [
            (Strategy.ONLY_ENGLISH, None),
            (Strategy.MAJORITY, None),
            (Strategy.ORACLE, None),
            (Strategy.GLOBAL_LANGUAGE, train_global_language(matrix)),
        ]:
            a = evaluate(strategy, items, matrix, state=state).accuracy
            b = evaluate(strategy, shuffled, matrix, state=state).accuracy
            assert a == b, strategy

    def test_tie_break_determinism_byte_identical(self):
        rng = random.Random(17)
        items, matrix = random_matrix(rng, 30, [EN, ES, HI, ZH])
        for strategy, state in [(Strategy.MAJORITY, None), (Strategy.ORACLE, None)]:
            first = evaluate(strategy, items, matrix, state=state)
            second = evaluate(strategy, items, matrix, state=state)
            assert first == second

    def test_empty_test_split_errors(self, m1):
        _, matrix = m1
        with pytest.raises(SelectorError):
            evaluate(Strategy.ORACLE, [], matrix)

    def test_missing_state_errors(self, m1):
        items, matrix = m1
        with pytest.raises(SelectorError):
            evaluate(Strategy.GLOBAL_LANGUAGE, items, matrix)
        with pytest.raises(SelectorError):
            evaluate(Strategy.LLM_SELECTED, items, matrix)
        with pytest.raises(SelectorError):
            evaluate(Strategy.COUNTRY, items, matrix)
        with pytest.raises(SelectorError):
            evaluate(Strategy.LSK_EXTRACTOR, items, matrix)

    def test_language_without_a_column_scores_incorrect_and_still_counts(self):
        # Thai has no column: as a chosen language it reads like a missing cell.
        TH = Language.THAI
        items, matrix = make_matrix({"q1": {EN: True, ES: True}, "q2": {EN: True, ES: True}})
        items = [dataclasses.replace(items[0], country="Thailand"), items[1]]
        for strategy, state in [
            (Strategy.COUNTRY, CountryMap.from_entries({"Thailand": TH})),
            (Strategy.LLM_SELECTED, {"q1": TH, "q2": EN}),
        ]:
            outcome = evaluate(strategy, items, matrix, state=state)
            assert [(o.language, o.correct) for o in outcome.per_item] == [(TH, False), (EN, True)]
            assert language_distribution(outcome) == {EN: 1, TH: 1}
        choice = GlobalChoice(language=TH, train_accuracy_by_language={TH: 1.0})
        outcome = evaluate(Strategy.GLOBAL_LANGUAGE, items, matrix, state=choice)
        assert outcome.accuracy == 0.0
        assert language_distribution(outcome) == {TH: 2}
