"""Acceptance suite: exact algebraic properties, closed-form synthetic
expectations, and stub-backed end-to-end checks, one test per criterion.

Each test prints a single `acceptance NN <name>: PASS/FAIL` line (run pytest
with -s to watch them stream) and asserts its stated runtime budget.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import string
import time
from contextlib import contextmanager

import numpy as np
import pytest

from langselect.clustering import LskRouter, train_lsk_best
from langselect.datasets import ClaimRecord, SplitSpec, reformat_culture_atlas, split
from langselect.extraction import extract_final_answer
from langselect.gateway import ModelEndpoint, chat_complete
from langselect.languages import CANONICAL_ORDER, Language, canonical_index
from langselect.pipeline import planted_recovery, run_infer, store_dir
from langselect.report import build_report, emit
from langselect.selectors import (
    CountryMap,
    Strategy,
    evaluate,
    train_global_language,
)
from langselect.store import build_matrix, RunStore
from langselect.synthetic import SyntheticSpec, expected_oracle_accuracy, generate

from helpers import cell, cell_correct, make_item, random_matrix
from stub_server import StubServer
from test_extraction import GOLDEN, STD
from test_selectors import brute_force_global, brute_force_majority, majority_labels

EN = Language.ENGLISH


@contextmanager
def criterion(number: int, name: str, budget_seconds: float):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"acceptance {number:02d} {name}: FAIL")
        raise
    elapsed = time.monotonic() - start
    status = "PASS" if elapsed < budget_seconds else "FAIL (over time budget)"
    print(f"acceptance {number:02d} {name}: {status} ({elapsed:.2f}s < {budget_seconds:.0f}s)")
    assert elapsed < budget_seconds, f"criterion {number} exceeded {budget_seconds}s ({elapsed:.2f}s)"


def criterion5_spec(seed: int, **overrides) -> SyntheticSpec:
    # Tight, well-separated blobs (separation 50x the per-coordinate spread)
    # so single-restart fits route reliably; the probabilities and shape are
    # the pinned benchmark values.
    base = dict(
        n_items=2400,
        k_true=12,
        dim=32,
        languages=tuple(Language),
        expert_per_cluster=tuple(CANONICAL_ORDER[:12]),
        p_expert=0.9,
        p_other=0.3,
        spread=0.01,
        separation=0.5,
        seed=seed,
    )
    base.update(overrides)
    return SyntheticSpec(**base)


def test_criterion_01_oracle_dominance_and_union_semantics():
    with criterion(1, "oracle dominance and row-OR semantics", 10.0):
        rng = random.Random(101)
        for trial in range(1000):
            n_langs = rng.randint(1, 16)
            langs = rng.sample(list(Language), n_langs)
            if EN not in langs:
                langs[0] = EN
            items, matrix = random_matrix(
                rng,
                rng.randint(1, 50),
                langs,
                p_missing=rng.choice([0.0, 0.1, 0.3]),
                p_invalid=rng.choice([0.0, 0.1]),
                p_correct=rng.choice([0.1, 0.4, 0.8]),
            )
            oracle = evaluate(Strategy.ORACLE, items, matrix)
            # Exact union semantics per item.
            for outcome in oracle.per_item:
                row_or = any(cell_correct(matrix, outcome.item_id, lang) for lang in matrix.languages)
                assert outcome.correct == row_or
            states = {
                Strategy.ONLY_ENGLISH: None,
                Strategy.MAJORITY: None,
                Strategy.GLOBAL_LANGUAGE: train_global_language(matrix),
                Strategy.LLM_SELECTED: {i.item_id: rng.choice(langs) for i in items},
                Strategy.COUNTRY: CountryMap.from_entries(
                    {"China": rng.choice(langs), "Mexico": rng.choice(langs)}
                ),
            }
            if trial % 10 == 0 and len(items) >= 2:
                vectors = {
                    i.item_id: v / np.linalg.norm(v)
                    for i, v in zip(items, np.random.default_rng(trial).normal(size=(len(items), 6)))
                }
                k = min(3, len(items))
                model = train_lsk_best(vectors, matrix, k, [trial])
                states[Strategy.LSK_EXTRACTOR] = LskRouter(model=model, vectors=vectors)
            for strategy, state in states.items():
                accuracy = evaluate(strategy, items, matrix, state=state).accuracy
                assert accuracy <= oracle.accuracy, (strategy, accuracy, oracle.accuracy)


def test_criterion_02_majority_brute_force_equivalence():
    with criterion(2, "majority equals exhaustive tally", 5.0):
        rng = random.Random(202)
        labels_pool = string.ascii_uppercase[:8]
        from langselect.store import ResponseMatrix

        # 10,000 rows, each voting in a random language subset (the other
        # columns missing), scored in one matrix.
        languages = tuple(CANONICAL_ORDER)
        items = [make_item(f"q{n:05d}") for n in range(10000)]
        cells = bytearray()
        for _ in items:
            voting = set(rng.sample(languages, rng.randint(1, 16)))
            for lang in languages:
                roll = rng.random()
                if lang not in voting or roll < 0.2:
                    cells += b"."
                elif roll < 0.35:
                    cells += b"!"
                else:
                    cells += rng.choice(labels_pool).encode()
        matrix = ResponseMatrix(
            languages=languages,
            items=tuple(i.item_id for i in items),
            cells=bytes(cells),
            gold={i.item_id: "A" for i in items},
        )
        expected = [brute_force_majority(matrix, i.item_id) for i in items]
        assert majority_labels(items, matrix) == expected


def test_criterion_03_global_language_column_argmax():
    with criterion(3, "global language equals column argmax", 5.0):
        rng = random.Random(303)
        for _ in range(1000):
            langs = rng.sample(list(Language), rng.randint(1, 10))
            items, matrix = random_matrix(rng, rng.randint(1, 40), langs)
            if len(matrix.languages) >= 2 and rng.random() < 0.5:
                # Force an exact tie by copying one column onto another.
                src, dst = rng.sample(range(len(matrix.languages)), 2)
                grid = matrix.grid.copy()
                grid[:, dst] = grid[:, src]
                matrix = dataclasses.replace(matrix, cells=grid.tobytes())
            choice = train_global_language(matrix)
            assert choice.language is brute_force_global(matrix)


def test_criterion_04_k1_collapse():
    with criterion(4, "k=1 collapse to global language", 5.0):
        rng = random.Random(404)
        for trial in range(100):
            langs = rng.sample(list(Language), rng.randint(1, 16))
            items, matrix = random_matrix(rng, rng.randint(2, 40), langs)
            np_rng = np.random.default_rng(trial)
            raw = np_rng.normal(size=(len(items), 8))
            vectors = {
                i.item_id: v / np.linalg.norm(v) for i, v in zip(items, raw)
            }
            model = train_lsk_best(vectors, matrix, 1, [trial])
            assert model.expert_language[0] is train_global_language(matrix).language


def test_criterion_05_planted_cluster_recovery():
    with criterion(5, "planted-cluster recovery and accuracy gap", 60.0):
        recovered_total = 0
        cluster_total = 0
        lsk_accuracies = []
        global_accuracies = []
        for seed in range(1, 21):
            spec = criterion5_spec(seed)
            data = generate(spec)
            train, test = split(data.items, SplitSpec(seed=seed, train_count=2000, test_count=400))
            train_matrix = data.matrix.subset([i.item_id for i in train])
            test_matrix = data.matrix.subset([i.item_id for i in test])
            model = train_lsk_best(data.vectors, train_matrix, 12, [seed])
            recovered, clusters = planted_recovery(model, data)
            recovered_total += recovered
            cluster_total += clusters
            router = LskRouter(model=model, vectors=data.vectors)
            lsk_accuracies.append(
                evaluate(Strategy.LSK_EXTRACTOR, test, test_matrix, state=router).accuracy
            )
            global_choice = train_global_language(train_matrix)
            global_accuracies.append(
                evaluate(Strategy.GLOBAL_LANGUAGE, test, test_matrix, state=global_choice).accuracy
            )
        recovery_rate = recovered_total / cluster_total
        mean_lsk = sum(lsk_accuracies) / len(lsk_accuracies)
        mean_global = sum(global_accuracies) / len(global_accuracies)
        closed_form_global = 0.3 * (11 / 12) + 0.9 * (1 / 12)
        assert recovery_rate >= 0.95, recovery_rate
        assert abs(mean_lsk - 0.90) <= 0.03, mean_lsk
        assert abs(mean_global - closed_form_global) <= 0.03, (mean_global, closed_form_global)
        assert mean_lsk >= mean_global + 0.2  # the qualitative routing gap


def test_criterion_06_noiseless_and_symmetric_limits():
    with criterion(6, "noiseless exactness and symmetric indistinguishability", 60.0):
        for seed in (1, 2, 3):
            spec = criterion5_spec(seed, n_items=600, p_expert=1.0, p_other=0.0, spread=0.0)
            data = generate(spec)
            train, test = split(data.items, SplitSpec(seed=seed, train_count=500, test_count=100))
            train_matrix = data.matrix.subset([i.item_id for i in train])
            test_matrix = data.matrix.subset([i.item_id for i in test])
            model = train_lsk_best(data.vectors, train_matrix, 12, [seed])
            router = LskRouter(model=model, vectors=data.vectors)
            outcome = evaluate(Strategy.LSK_EXTRACTOR, test, test_matrix, state=router)
            assert outcome.accuracy == 1.0

        lsk_accuracies = []
        global_accuracies = []
        for seed in range(1, 21):
            spec = criterion5_spec(seed, p_expert=0.5, p_other=0.5)
            data = generate(spec)
            train, test = split(data.items, SplitSpec(seed=seed, train_count=2000, test_count=400))
            train_matrix = data.matrix.subset([i.item_id for i in train])
            test_matrix = data.matrix.subset([i.item_id for i in test])
            model = train_lsk_best(data.vectors, train_matrix, 12, [seed])
            router = LskRouter(model=model, vectors=data.vectors)
            lsk_accuracies.append(
                evaluate(Strategy.LSK_EXTRACTOR, test, test_matrix, state=router).accuracy
            )
            global_choice = train_global_language(train_matrix)
            global_accuracies.append(
                evaluate(Strategy.GLOBAL_LANGUAGE, test, test_matrix, state=global_choice).accuracy
            )
        gap = abs(
            sum(lsk_accuracies) / len(lsk_accuracies)
            - sum(global_accuracies) / len(global_accuracies)
        )
        assert gap <= 0.03, gap


def test_criterion_07_oracle_closed_form():
    with criterion(7, "oracle closed form on synthetic", 30.0):
        spec = criterion5_spec(7)
        data = generate(spec)
        outcome = evaluate(Strategy.ORACLE, data.items, data.matrix)
        expected = expected_oracle_accuracy(spec)
        assert expected == pytest.approx(1 - 0.1 * 0.7**15)
        assert abs(outcome.accuracy - expected) <= 0.01


def test_criterion_08_culture_atlas_reformatting_contract():
    with criterion(8, "claim-to-MCQ reformatting contract", 5.0):
        claims = []
        for c in range(10):
            country = f"country{c}"
            claims.extend(ClaimRecord(country, f"{country} true {i}", True) for i in range(10))
            claims.extend(ClaimRecord(country, f"{country} false {i}", False) for i in range(40))
        assert len(claims) == 500
        positions = {"A": 0, "B": 0, "C": 0, "D": 0}
        total = 0
        for seed in range(20):
            result = reformat_culture_atlas(claims, seed=seed)
            for item in result.items:
                assert len(item.choices) == 4
                assert item.country is not None
                country_prefixes = {choice.text.split(" ")[0] for choice in item.choices}
                assert country_prefixes == {item.country}
                true_options = [c for c in item.choices if " true " in c.text]
                assert len(true_options) == 1
                assert item.gold_label == true_options[0].label
                positions[item.gold_label] += 1
                total += 1
        assert total >= 1000
        for label, count in positions.items():
            assert abs(count / total - 0.25) <= 0.03, (label, count / total)


def test_criterion_09_extraction_golden_suite_and_fuzz():
    with criterion(9, "extraction golden suite and 100k fuzz", 30.0):
        assert len(GOLDEN) >= 40
        for name, raw, item, expected in GOLDEN:
            assert extract_final_answer(raw, item) == expected, name
        rng = random.Random(909)
        alphabet = string.printable + '{}[]"\':,áüß漢字ひらがな한국어ไทย𝄞' + chr(0)
        valid = set(STD.labels)
        for _ in range(100_000):
            raw = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 120)))
            result = extract_final_answer(raw, STD)
            assert result is None or result in valid


def test_criterion_10_replay_determinism_and_resume(tmp_path):
    with criterion(10, "replay determinism and zero duplicate calls on resume", 10.0):
        import helpers
        from langselect.config import load_config
        from langselect.datasets import save_dataset

        # Replay: repeated evaluations and report emissions are identical.
        rng = random.Random(10)
        items, matrix = random_matrix(rng, 20, [EN, Language.SPANISH, Language.HINDI])
        outcomes = {
            Strategy.ORACLE: evaluate(Strategy.ORACLE, items, matrix),
            Strategy.MAJORITY: evaluate(Strategy.MAJORITY, items, matrix),
        }
        report = build_report("custom", "test", outcomes)
        assert emit(report, "json") == emit(report, "json")
        assert evaluate(Strategy.ORACLE, items, matrix) == evaluate(Strategy.ORACLE, items, matrix)

        dataset_items = [helpers.make_item(f"q{i}") for i in range(3)]
        save_dataset(dataset_items, tmp_path / "data.jsonl")
        with StubServer() as stub:
            config_payload = {
                "dataset": {"path": "data.jsonl", "id": "custom"},
                "output_dir": "out",
                "languages": ["en"],
                "split": {"seed": 1, "train_count": 2, "test_count": 1},
                "chat_endpoint": {
                    "base_url": stub.base_url,
                    "model_name": "stub-model",
                    "max_retries": 0,
                    "timeout": 5,
                    "max_in_flight": 1,
                },
            }
            config_path = tmp_path / "config.json"
            config_path.write_text(json.dumps(config_payload))
            config = load_config(config_path)

            stub.fail_after = 2  # interrupt mid-run
            first = run_infer(config, backoff=0.001)
            assert first.exit_code != 0
            completed_first = set(stub.chat_bodies()[:2])
            stub.fail_after = None
            stub.requests.clear()
            second = run_infer(config, backoff=0.001)
            assert second.exit_code == 0
            second_bodies = set(stub.chat_bodies())
            # Completed cells are never re-requested.
            assert completed_first.isdisjoint(second_bodies)
            # Everything is now present exactly once.
            store = RunStore(store_dir(config, "stub-model"))
            final = build_matrix(store, dataset_items, "stub-model", [EN])
            assert all(cell(final, i.item_id, EN).isalpha() for i in dataset_items)
            again = build_matrix(store, dataset_items, "stub-model", [EN])
            assert final == again


def test_criterion_11_live_smoke():
    base_url = os.environ.get("LANGSELECT_SMOKE_BASE_URL")
    model = os.environ.get("LANGSELECT_SMOKE_MODEL")
    if not base_url or not model:
        print("acceptance 11 live smoke: SKIPPED (set LANGSELECT_SMOKE_BASE_URL and LANGSELECT_SMOKE_MODEL)")
        pytest.skip("live smoke is network-gated")
    with criterion(11, "live smoke", 600.0):
        from langselect.langid import DetectionError, detect_language
        from langselect.extraction import extract_reasoning_text
        from langselect.prompts import TemplateSet, build_reasoning_prompt
        import helpers

        endpoint = ModelEndpoint(
            base_url=base_url,
            model_name=model,
            api_key_ref=os.environ.get("LANGSELECT_SMOKE_API_KEY_REF", ""),
            max_retries=2,
            timeout=120.0,
        )
        templates = TemplateSet.bundled()
        languages = [EN, Language.SPANISH, Language.FRENCH]
        items = [helpers.make_item(f"q{i}") for i in range(20)]
        ok = 0
        verified = 0
        checked = 0
        for item in items:
            for lang in languages:
                prompt = build_reasoning_prompt(item, lang, templates)
                response = chat_complete(prompt, endpoint)
                label = extract_final_answer(response.text, item)
                if label is not None:
                    ok += 1
                reasoning = extract_reasoning_text(response.text)
                if reasoning:
                    try:
                        verified += detect_language(reasoning) == lang
                        checked += 1
                    except DetectionError:
                        pass
        total = len(items) * len(languages)
        rate = verified / checked if checked else float("nan")
        print(f"live smoke: ok={ok}/{total}, verified-language rate={rate:.4f}")
        assert ok / total >= 0.90
