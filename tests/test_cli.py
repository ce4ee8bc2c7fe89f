import base64
import hashlib
import itertools
import json
import logging
import re
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from langselect import cli as cli_module, clustering
from langselect.cli import main
from langselect.clustering import EmbeddingCache, embedding_text, item_embedding_key
from langselect.config import load_config
from langselect.datasets import DatasetId, load_dataset, save_dataset, split
from langselect import pipeline
from langselect.gateway import TransportError
from langselect.languages import Language
from langselect.pipeline import (
    EXIT_OK,
    EXIT_PARTIAL,
    EXIT_TRANSPORT,
    run_embed,
    run_evaluate,
    run_infer,
    run_select_llm,
    run_simulate,
    run_translate,
    selection_cache_path,
    store_dir,
    translation_file,
)
from langselect.store import INDEX_NAME, RunStore, read_manifest, utc_now
from langselect.synthetic import SyntheticSpec, generate

from helpers import make_item, write_templates
from stub_server import StubServer, echo_translation_responder, hash_embedding


def good_chat_responder(body: str, payload: dict) -> str:
    if "expert_language" in body:
        return json.dumps({"expert_language": "Thai"})
    if "_translation" in body:
        return echo_translation_responder(body, payload)
    return json.dumps({"reasoning_in_English": "the first option looks right", "final_answer": "A"})


@pytest.fixture
def pipeline_stub():
    with StubServer(chat_responder=good_chat_responder) as server:
        yield server


def write_pipeline_config(tmp_path, stub, languages=("en", "tr", "th"), n_items=6, **extra):
    items = [
        make_item(f"q{i}", gold="A", country="China" if i % 2 == 0 else None) for i in range(n_items)
    ]
    save_dataset(items, tmp_path / "data.jsonl")
    endpoint = {"base_url": stub.base_url, "model_name": "stub-model", "max_retries": 1, "timeout": 5}
    payload = {
        "dataset": {"path": "data.jsonl", "id": "custom"},
        "output_dir": "out",
        "languages": list(languages),
        "split": {"seed": 3, "train_count": n_items - 2, "test_count": 2},
        "k_list": [2],
        "seeds": [0],
        "chat_endpoint": endpoint,
        "translation_endpoint": endpoint,
        "embedding_endpoint": {**endpoint, "model_name": "stub-embedder"},
    }
    payload.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def cached_vectors(config) -> dict:
    """The vector ``evaluate`` finds for each dataset item: the cached one under its content key."""
    items = load_dataset(config.dataset_path, DatasetId.CUSTOM)
    return EmbeddingCache(pipeline.embeddings_path(config)).vectors(items)


def embedding_requests(stub) -> int:
    return sum(r["path"].endswith("/embeddings") for r in stub.requests)


class TestTranslateStage:
    def test_writes_one_file_per_non_english_language(self, tmp_path, pipeline_stub):
        config = load_config(write_pipeline_config(tmp_path, pipeline_stub))
        result = run_translate(config, backoff=0.001)
        assert result.exit_code == EXIT_OK
        for code in ("tr", "th"):
            path = translation_file(config, Language(code))
            assert path.exists()
            translated = load_dataset(path, DatasetId.CUSTOM, source_language=Language(code))
            assert len(translated) == 6
            assert all(t.question.startswith("[") for t in translated)
        assert not translation_file(config, Language.ENGLISH).exists()

    def test_rerun_is_zero_network_calls_and_identical_bytes(self, tmp_path, pipeline_stub):
        config = load_config(write_pipeline_config(tmp_path, pipeline_stub))
        run_translate(config, backoff=0.001)
        tr_path = translation_file(config, Language.TURKISH)
        before_bytes = tr_path.read_bytes()
        before_calls = len(pipeline_stub.requests)
        result = run_translate(config, backoff=0.001)
        assert result.exit_code == EXIT_OK
        assert len(pipeline_stub.requests) == before_calls
        assert tr_path.read_bytes() == before_bytes

    def test_dry_run_counts_without_calls(self, tmp_path, pipeline_stub):
        config = load_config(write_pipeline_config(tmp_path, pipeline_stub))
        result = run_translate(config, dry_run=True)
        # 6 items x (1 question + 4 choices) x 2 languages
        assert result.summary["planned_calls"] == 60
        assert pipeline_stub.requests == []

    def test_unreachable_endpoint_exits_transport_no_partial_files(self, tmp_path):
        with StubServer() as stub:
            config_path = write_pipeline_config(
                tmp_path,
                stub,
                translation_endpoint={
                    "base_url": "http://127.0.0.1:1",
                    "model_name": "t",
                    "max_retries": 0,
                    "timeout": 0.2,
                },
            )
        config = load_config(config_path)
        result = run_translate(config, languages=[Language.TURKISH], backoff=0.001)
        assert result.exit_code == EXIT_TRANSPORT
        translated = load_dataset(
            translation_file(config, Language.TURKISH), DatasetId.CUSTOM, source_language=Language.TURKISH
        )
        assert translated == []  # atomic write of an empty result, no torn file


class TestInferStage:
    def test_fills_all_cells(self, tmp_path, pipeline_stub):
        config = load_config(write_pipeline_config(tmp_path, pipeline_stub))
        run_translate(config, backoff=0.001)
        result = run_infer(config, backoff=0.001)
        assert result.exit_code == EXIT_OK
        assert result.summary["ok"] == 18  # 6 items x 3 languages
        assert result.summary["remaining_missing_cells"] == 0
        store = RunStore(store_dir(config, "stub-model"))
        assert len(store) == 18
        assert read_manifest(store.directory)["model_name"] == "stub-model"

    def test_created_at_defaults_to_the_time_of_each_record(self, tmp_path, pipeline_stub):
        config = load_config(write_pipeline_config(tmp_path, pipeline_stub))
        run_translate(config, backoff=0.001)
        before = utc_now()
        assert run_infer(config, backoff=0.001).exit_code == EXIT_OK
        after = utc_now()
        lines = (store_dir(config, "stub-model") / "records.jsonl").read_bytes().splitlines()
        times = [json.loads(line)["created_at"] for line in lines]
        assert len(times) == 18 and all(before <= time <= after and time.endswith("+00:00") for time in times)

    def test_rerun_zero_calls(self, tmp_path, pipeline_stub):
        config = load_config(write_pipeline_config(tmp_path, pipeline_stub))
        run_translate(config, backoff=0.001)
        run_infer(config, backoff=0.001)
        before = len(pipeline_stub.requests)
        result = run_infer(config, backoff=0.001)
        assert result.exit_code == EXIT_OK
        assert len(pipeline_stub.requests) == before
        assert result.summary["planned_calls"] == 0

    def test_missing_translations_exit_partial(self, tmp_path, pipeline_stub):
        config = load_config(write_pipeline_config(tmp_path, pipeline_stub))
        result = run_infer(config, backoff=0.001)  # translate never ran
        assert result.exit_code == EXIT_PARTIAL
        assert set(result.summary["untranslated_languages"]) == {"tr", "th"}
        # English cells still ran.
        assert result.summary["ok"] == 6

    def test_transport_failure_leaves_cell_missing_and_partial_exit(self, tmp_path):
        with StubServer(chat_responder=good_chat_responder) as stub:
            config = load_config(write_pipeline_config(tmp_path, stub, languages=("en",)))
            stub.fail_after = 3
            result = run_infer(config, backoff=0.001)
            assert result.exit_code == EXIT_PARTIAL
            assert result.summary["ok"] == 3
            assert result.summary["transport_failures"] == 3
            assert result.summary["remaining_missing_cells"] == 3
            stub.fail_after = None
            healed = run_infer(config, backoff=0.001)
            assert healed.exit_code == EXIT_OK
            assert healed.summary["ok"] == 3
            assert healed.summary["remaining_missing_cells"] == 0

    def test_dry_run(self, tmp_path, pipeline_stub):
        config = load_config(write_pipeline_config(tmp_path, pipeline_stub, languages=("en",)))
        result = run_infer(config, dry_run=True)
        assert result.summary["planned_calls"] == 6
        assert pipeline_stub.requests == []

    def test_invalid_outputs_recorded(self, tmp_path):
        def junk_responder(body, payload):
            return "no label to be found"

        with StubServer(chat_responder=junk_responder) as stub:
            config = load_config(write_pipeline_config(tmp_path, stub, languages=("en",)))
            result = run_infer(config, backoff=0.001)
        assert result.exit_code == EXIT_OK
        assert result.summary["invalid"] == 6
        assert result.summary["remaining_missing_cells"] == 0  # invalid cells are not missing


class TestSelectLlmStage:
    def test_caches_choice_per_test_item(self, tmp_path, pipeline_stub):
        config = load_config(write_pipeline_config(tmp_path, pipeline_stub))
        result = run_select_llm(config, backoff=0.001)
        assert result.exit_code == EXIT_OK
        cache = json.loads((config.output_dir / "selection_cache.json").read_text())
        assert len(cache) == 2  # test split size
        assert set(cache.values()) == {"th"}

    def test_rerun_zero_calls(self, tmp_path, pipeline_stub):
        config = load_config(write_pipeline_config(tmp_path, pipeline_stub))
        run_select_llm(config, backoff=0.001)
        before = len(pipeline_stub.requests)
        result = run_select_llm(config, backoff=0.001)
        assert len(pipeline_stub.requests) == before
        assert result.summary["planned_calls"] == 0

    def test_malformed_output_records_english_fallback(self, tmp_path):
        with StubServer(chat_responder=lambda b, p: "???") as stub:
            config = load_config(write_pipeline_config(tmp_path, stub))
            result = run_select_llm(config, backoff=0.001)
        assert result.exit_code == EXIT_OK
        cache = json.loads((config.output_dir / "selection_cache.json").read_text())
        assert set(cache.values()) == {"en"}


    def test_resume_where_no_request_succeeds_exits_transport(self, tmp_path, pipeline_stub):
        config = load_config(write_pipeline_config(tmp_path, pipeline_stub))
        pipeline_stub.status_queue = [400]
        assert run_select_llm(config, backoff=0.001).summary["selected"] == 1
        unreachable = replace(config.chat_endpoint, base_url="http://127.0.0.1:1", max_retries=0, timeout=0.2)
        result = run_select_llm(replace(config, chat_endpoint=unreachable), backoff=0.001)
        assert result.exit_code == EXIT_TRANSPORT  # the cached selection is not this run's success
        assert (result.summary["cached"], result.summary["selected"]) == (1, 1)


class TestEmbedStage:
    def test_embeds_split_items(self, tmp_path, pipeline_stub):
        config = load_config(write_pipeline_config(tmp_path, pipeline_stub))
        result = run_embed(config, backoff=0.001)
        assert result.exit_code == EXIT_OK
        assert (config.output_dir / "embeddings.jsonl").exists()

    def test_rerun_zero_calls(self, tmp_path, pipeline_stub):
        config = load_config(write_pipeline_config(tmp_path, pipeline_stub))
        run_embed(config, backoff=0.001)
        before = len(pipeline_stub.requests)
        result = run_embed(config, backoff=0.001)
        assert len(pipeline_stub.requests) == before
        assert result.summary["planned_calls"] == 0

    def test_unit_vectors_cached_and_rerun_reuses_them(self, tmp_path, pipeline_stub):
        config = load_config(write_pipeline_config(tmp_path, pipeline_stub))
        assert run_embed(config, backoff=0.001).exit_code == EXIT_OK
        path = config.output_dir / "embeddings.jsonl"
        vectors = cached_vectors(config)
        assert sorted(vectors) == [f"q{i}" for i in range(6)]  # every split item
        for values in vectors.values():
            assert values.shape == (8,)
            assert np.linalg.norm(values) == pytest.approx(1.0, abs=1e-9)
        before, before_bytes = len(pipeline_stub.requests), path.read_bytes()
        assert run_embed(config, backoff=0.001).summary["cached"] == 6
        assert len(pipeline_stub.requests) == before  # all cache hits
        assert path.read_bytes() == before_bytes

    def test_cache_file_round_trip(self, tmp_path, pipeline_stub):
        config = load_config(write_pipeline_config(tmp_path, pipeline_stub))
        run_embed(config, backoff=0.001)
        path = config.output_dir / "embeddings.jsonl"
        by_item = cached_vectors(config)
        for item in load_dataset(config.dataset_path, DatasetId.CUSTOM):
            raw = np.array(hash_embedding(embedding_text(item)))
            assert np.array_equal(by_item[item.item_id], raw / np.linalg.norm(raw[None, :], axis=1))
        header = json.loads(path.read_bytes().split(b"\n", 1)[0])
        assert set(header) == {"format", "version", "dim", "items"}

    def test_batch_failing_mid_run_exits_partial_and_keeps_other_batches(self, tmp_path, pipeline_stub, monkeypatch):
        config = load_config(
            write_pipeline_config(
                tmp_path,
                pipeline_stub,
                embedding_endpoint={"base_url": pipeline_stub.base_url, "model_name": "e", "max_in_flight": 1},
            )
        )
        monkeypatch.setattr(pipeline, "EMBED_BATCH_SIZE", 2)
        real_embed_texts, calls = clustering.embed_texts, []

        def second_batch_fails(texts, *args, **kwargs):
            calls.append(texts)
            if len(calls) == 2:
                raise TransportError("request failed after 2 attempts (status 503)")
            return real_embed_texts(texts, *args, **kwargs)

        monkeypatch.setattr(clustering, "embed_texts", second_batch_fails)
        result = run_embed(config, backoff=0.001)
        assert result.exit_code == EXIT_PARTIAL
        assert result.summary["embedded"] == 4
        assert len(cached_vectors(config)) == 4
        monkeypatch.setattr(clustering, "embed_texts", real_embed_texts)
        before = len(pipeline_stub.requests)
        rerun = run_embed(config, backoff=0.001)
        assert rerun.exit_code == EXIT_OK
        assert (rerun.summary["cached"], rerun.summary["planned_calls"]) == (4, 2)
        assert [r["payload"]["input"] for r in pipeline_stub.requests[before:]] == [calls[1]]
        assert len(cached_vectors(config)) == 6

    @pytest.mark.parametrize(
        "bad",
        [lambda v: [0.0] * len(v), lambda v: [float("nan"), *v[1:]], lambda v: [float("inf"), *v[1:]]],
        ids=["zero-norm", "nan", "inf"],
    )
    def test_degenerate_embedding_fails_only_its_batch(self, tmp_path, pipeline_stub, monkeypatch, bad):
        config = load_config(
            write_pipeline_config(
                tmp_path,
                pipeline_stub,
                embedding_endpoint={"base_url": pipeline_stub.base_url, "model_name": "e", "max_in_flight": 1},
            )
        )
        monkeypatch.setattr(pipeline, "EMBED_BATCH_SIZE", 2)
        real_embed_texts, calls = clustering.embed_texts, []

        def second_batch_degenerate(texts, *args, **kwargs):
            calls.append(texts)
            vectors = real_embed_texts(texts, *args, **kwargs)
            if len(calls) == 2:
                vectors[1] = bad(vectors[1])
            return vectors

        monkeypatch.setattr(clustering, "embed_texts", second_batch_degenerate)
        result = run_embed(config, backoff=0.001)
        assert result.exit_code == EXIT_PARTIAL
        assert result.summary["embedded"] == 4
        cached = cached_vectors(config)
        assert len(cached) == 4 and all(np.isfinite(v).all() for v in cached.values())
        failed = {i.item_id for i in load_dataset(config.dataset_path, DatasetId.CUSTOM) if embedding_text(i) in calls[1]}
        assert len(failed) == 2 and not failed & cached.keys()
        assert len(pipeline_stub.requests) == 3  # the third batch still ran

    def test_a_reply_that_is_no_embedding_fails_only_its_batch(self, tmp_path, pipeline_stub, monkeypatch):
        config = load_config(
            write_pipeline_config(
                tmp_path,
                pipeline_stub,
                embedding_endpoint={"base_url": pipeline_stub.base_url, "model_name": "e", "max_in_flight": 1},
            )
        )
        monkeypatch.setattr(pipeline, "EMBED_BATCH_SIZE", 2)
        real_embed_texts, calls = clustering.embed_texts, []

        def second_reply_malformed(texts, *args, **kwargs):
            calls.append(texts)
            pipeline_stub.raw_embedding_body = {"data": [[0.1, 0.2]] * len(texts)} if len(calls) == 2 else None
            return real_embed_texts(texts, *args, **kwargs)

        monkeypatch.setattr(clustering, "embed_texts", second_reply_malformed)
        result = run_embed(config, backoff=0.001)
        assert result.exit_code == EXIT_PARTIAL
        assert result.summary["embedded"] == 4
        failed = {i.item_id for i in load_dataset(config.dataset_path, DatasetId.CUSTOM) if embedding_text(i) in calls[1]}
        assert len(failed) == 2 and failed.isdisjoint(cached_vectors(config))
        assert len(cached_vectors(config)) == 4
        assert len(pipeline_stub.requests) == 3  # the third batch still ran


class TestEvaluateStage:
    def run_full_pipeline(self, tmp_path, stub):
        config = load_config(write_pipeline_config(tmp_path, stub, n_items=8))
        assert run_translate(config, backoff=0.001).exit_code == EXIT_OK
        assert run_infer(config, backoff=0.001).exit_code == EXIT_OK
        assert run_select_llm(config, backoff=0.001).exit_code == EXIT_OK
        assert run_embed(config, backoff=0.001).exit_code == EXIT_OK
        return config

    def test_full_pipeline_report(self, tmp_path, pipeline_stub):
        config = self.run_full_pipeline(tmp_path, pipeline_stub)
        result = run_evaluate(config)
        assert result.exit_code == EXIT_OK
        report = json.loads((config.output_dir / "reports" / "report.json").read_bytes())
        strategies = set(report["accuracy_by_strategy"])
        assert strategies == {
            "only_english", "majority", "global_language", "llm_selected",
            "country", "lsk_extractor", "oracle",
        }
        oracle = report["accuracy_by_strategy"]["oracle"]
        assert all(acc <= oracle for acc in report["accuracy_by_strategy"].values())
        assert report["cluster_size_sweep"] == {"2": report["accuracy_by_strategy"]["lsk_extractor"]}
        assert (config.output_dir / "reports" / "report.csv").exists()
        assert (config.output_dir / "reports" / "report.md").exists()
        assert (config.output_dir / "global_choice.json").exists()
        assert (config.output_dir / "cluster_model_k2.json").exists()

    def test_evaluate_rerun_byte_identical(self, tmp_path, pipeline_stub):
        config = self.run_full_pipeline(tmp_path, pipeline_stub)
        run_evaluate(config)
        report_path = config.output_dir / "reports" / "report.json"
        first = report_path.read_bytes()
        run_evaluate(config)
        assert report_path.read_bytes() == first

    def test_only_evaluate_writes_the_store_index(self, tmp_path, pipeline_stub):
        # A resumed network stage leaves every store file as it was, before and
        # after evaluate has written the store index (INDEX_NAME).
        config = self.run_full_pipeline(tmp_path, pipeline_stub)
        store_root = config.output_dir / "store"

        def store_files():
            return {str(p.relative_to(store_root)): p.read_bytes() for p in sorted(store_root.rglob("*")) if p.is_file()}

        for indexed in (False, True):
            before = store_files()
            assert any(name.endswith(INDEX_NAME) for name in before) is indexed
            for stage, run in NETWORK_STAGES.items():
                assert run(config, backoff=0.001).exit_code == EXIT_OK, stage
                assert store_files() == before, stage
            assert run_evaluate(config).exit_code == EXIT_OK

    def test_an_edited_item_has_no_vector_until_it_is_embedded_again(self, tmp_path, pipeline_stub):
        config = self.run_full_pipeline(tmp_path, pipeline_stub)
        assert "lsk_extractor" not in run_evaluate(config).summary["skipped_strategies"]
        items = load_dataset(config.dataset_path, DatasetId.CUSTOM)
        items[0] = replace(items[0], question="an edited question?")
        save_dataset(items, config.dataset_path)

        result = run_evaluate(config)
        assert result.summary["skipped_strategies"]["lsk_extractor"] == (
            "1 split items lack embeddings; rerun the embed stage"
        )
        before = embedding_requests(pipeline_stub)
        assert run_embed(config, backoff=0.001).summary["planned_calls"] == 1
        assert embedding_requests(pipeline_stub) == before + 1
        assert "lsk_extractor" not in run_evaluate(config).summary["skipped_strategies"]
        report = json.loads((config.output_dir / "reports" / "report.json").read_bytes())
        assert "lsk_extractor" in report["accuracy_by_strategy"]

    def test_an_added_item_with_the_text_of_a_cached_one_shares_its_vector(self, tmp_path, pipeline_stub):
        config = self.run_full_pipeline(tmp_path, pipeline_stub)
        items = load_dataset(config.dataset_path, DatasetId.CUSTOM)
        save_dataset([*items, replace(items[0], item_id="q8")], config.dataset_path)
        config = replace(config, split=replace(config.split, train_count=7))  # every item in the split

        before = embedding_requests(pipeline_stub)
        assert run_embed(config, backoff=0.001).summary["planned_calls"] == 0
        assert embedding_requests(pipeline_stub) == before
        assert "lsk_extractor" not in run_evaluate(config).summary["skipped_strategies"]
        vectors = cached_vectors(config)
        assert vectors["q8"] is vectors["q0"]

    def test_skips_are_named(self, tmp_path, pipeline_stub):
        config = load_config(write_pipeline_config(tmp_path, pipeline_stub, languages=("en",)))
        run_infer(config, backoff=0.001)
        result = run_evaluate(config)
        assert result.exit_code == EXIT_OK
        skipped = result.summary["skipped_strategies"]
        assert "select-llm" in skipped["llm_selected"]
        assert "embed" in skipped["lsk_extractor"]

    def test_evaluate_without_chat_endpoint_loads_the_store_once(self, tmp_path, pipeline_stub, monkeypatch):
        config = load_config(write_pipeline_config(tmp_path, pipeline_stub, languages=("en",)))
        run_infer(config, backoff=0.001)
        real_store = pipeline.RunStore
        built = []

        def counting_store(*args, **kwargs):
            built.append(args)
            return real_store(*args, **kwargs)

        monkeypatch.setattr(pipeline, "RunStore", counting_store)
        result = run_evaluate(replace(config, chat_endpoint=None))
        assert result.exit_code == EXIT_OK
        assert result.summary["model_name"] == "stub-model"
        assert len(built) == 1

    def test_country_skipped_without_metadata(self, tmp_path, pipeline_stub):
        items = [make_item(f"q{i}", gold="A") for i in range(6)]  # no countries
        save_dataset(items, tmp_path / "data.jsonl")
        config_path = write_pipeline_config(tmp_path, pipeline_stub, languages=("en",))
        save_dataset(items, tmp_path / "data.jsonl")
        config = load_config(config_path)
        run_infer(config, backoff=0.001)
        result = run_evaluate(config)
        assert "country" in result.summary["skipped_strategies"]
        report = json.loads((config.output_dir / "reports" / "report.json").read_bytes())
        assert "country" not in report["accuracy_by_strategy"]


# sha256 of each file ``simulate`` writes for the sample spec with k_list [12, 24, 48].
SAMPLE_SPEC_SHA256 = {
    "reports/report.json": "7a6460bfc3069dc5b13f2f33b58846f3b8a2a1a2046bff8c6c6207a06d6f2cfd",
    "store/custom__synthetic/records.jsonl": "27be24286a884990a5b920bd80729910abd3a21476a4c5c1de144a982b46680f",
    "items.jsonl": "046306e875a7092a2211afcc9de26d98c812d676b427bba1ee368be8ea30dd8d",
    "embeddings.jsonl": "57e6e4bcc79a56380c27ef2e1856770c32f92c76fdb7f9cca32aadb2b622f861",
    "global_choice.json": "b05cc9f54fbc90c05d933e76ceea69d37ed40e4f8ee0be000ecd51cab69a64a4",
    "cluster_model_k12.json": "b0ed4d51793bb2698f5066aff395af4a164251de43b3620ef9ebf5a9d4298c7c",
    "cluster_model_k24.json": "755444315744b8be338b978a1efd4231f50bc51d4e4120508e3a244e4eed6f51",
    "cluster_model_k48.json": "0764eb654e0aa4b48f83fe7b4be6700b4b0b235a5f86fdccc3cd32243fecf221",
}


class TestSimulateStage:
    def write_spec(self, tmp_path, **overrides):
        payload = {
            "n_items": 60,
            "k_true": 3,
            "dim": 8,
            "languages": ["en", "es", "hi", "th"],
            "expert_per_cluster": ["es", "hi", "th"],
            "p_expert": 1.0,
            "p_other": 0.0,
            "spread": 0.0,
            "separation": 0.5,
            "seed": 5,
        }
        payload.update(overrides)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(payload))
        return path

    def test_noiseless_simulate_all_seven_strategies(self, tmp_path):
        spec = self.write_spec(tmp_path)
        result = run_simulate(spec, tmp_path / "sim")
        assert result.exit_code == EXIT_OK
        report = json.loads((tmp_path / "sim" / "reports" / "report.json").read_bytes())
        assert set(report["accuracy_by_strategy"]) == {
            "only_english", "majority", "global_language", "llm_selected",
            "country", "lsk_extractor", "oracle",
        }
        assert report["accuracy_by_strategy"]["lsk_extractor"] == 1.0
        assert report["accuracy_by_strategy"]["oracle"] == 1.0
        assert report["config_snapshot"]["ground_truth"]["planted_experts_recovered"] == 3
        assert (tmp_path / "sim" / "items.jsonl").exists()
        assert (tmp_path / "sim" / "embeddings.jsonl").exists()
        assert (tmp_path / "sim" / "store" / "custom__synthetic" / "records.jsonl").exists()
        assert (tmp_path / "sim" / "global_choice.json").exists()

    def test_simulate_deterministic_reports(self, tmp_path):
        spec = self.write_spec(tmp_path, p_expert=0.8, p_other=0.2, spread=0.05)
        run_simulate(spec, tmp_path / "a")
        run_simulate(spec, tmp_path / "b")
        assert (tmp_path / "a" / "reports" / "report.json").read_bytes() == (
            tmp_path / "b" / "reports" / "report.json"
        ).read_bytes()

    def test_simulate_manifest_holds_spec_and_rerun_appends_nothing(self, tmp_path):
        spec = self.write_spec(tmp_path, p_expert=0.8, p_other=0.2, spread=0.05)
        payload = json.loads(spec.read_text(encoding="utf-8"))
        out = tmp_path / "sim"
        assert run_simulate(spec, out).exit_code == EXIT_OK
        store = out / "store" / "custom__synthetic"
        report_path = out / "reports" / "report.json"
        manifest = json.loads((store / "manifest.json").read_text(encoding="utf-8"))
        report = json.loads(report_path.read_bytes())
        assert manifest["synthetic_spec"] == payload
        assert report["config_snapshot"]["synthetic_spec"] == payload
        records_before = (store / "records.jsonl").read_text(encoding="utf-8").splitlines()
        report_before = report_path.read_bytes()
        assert len(records_before) == 60 * 4

        # The second run finds the manifest already written; first-write-wins
        # keeps the store free of duplicate records.
        assert run_simulate(spec, out).exit_code == EXIT_OK
        assert (store / "records.jsonl").read_text(encoding="utf-8").splitlines() == records_before
        assert report_path.read_bytes() == report_before

    def test_simulate_refuses_output_of_another_spec(self, tmp_path):
        out = tmp_path / "sim"
        assert run_simulate(self.write_spec(tmp_path, seed=1), out).exit_code == EXIT_OK
        kept = [
            out / "items.jsonl",
            out / "embeddings.jsonl",
            out / "store" / "custom__synthetic" / "records.jsonl",
            out / "reports" / "report.json",
        ]
        before = [path.read_bytes() for path in kept]
        result = CliRunner().invoke(
            main, ["simulate", "--spec", str(self.write_spec(tmp_path, seed=2)), "--output", str(out)]
        )
        assert result.exit_code == 2
        assert str(out) in result.output
        assert [path.read_bytes() for path in kept] == before

    def test_sample_spec_report_digest(self, tmp_path):
        spec = Path(__file__).resolve().parents[1] / "configs" / "sample_synthetic_spec.json"
        out = tmp_path / "sim"
        assert run_simulate(spec, out, k_list=[12, 24, 48]).exit_code == EXIT_OK

        def sha256_of(name):
            return hashlib.sha256((out / name).read_bytes()).hexdigest()

        assert {name: sha256_of(name) for name in SAMPLE_SPEC_SHA256} == SAMPLE_SPEC_SHA256
        # One evaluate writes the store index; its bytes pin the key columns it is written from.
        config = {
            "dataset": {"path": str(out / "items.jsonl"), "id": "custom"},
            "output_dir": str(out),
            "languages": [language.value for language in Language],
            "split": {"seed": 1, "train_count": 1920, "test_count": 480},
            "k_list": [12, 24],
            "seeds": [0],
        }
        (tmp_path / "evaluate.json").write_text(json.dumps(config), encoding="utf-8")
        assert run_evaluate(load_config(tmp_path / "evaluate.json")).exit_code == EXIT_OK
        assert sha256_of(f"store/custom__synthetic/{INDEX_NAME}") == (
            "abb3867b311aa2959762a7a3cf0b1815b86be307eab6ab79a74d0160c7fccc2e"
        )

    def test_sample_spec_vectors_read_back_as_from_json_lines_written_by_hand(self, tmp_path):
        spec = Path(__file__).resolve().parents[1] / "configs" / "sample_synthetic_spec.json"
        out = tmp_path / "sim"
        assert run_simulate(spec, out).exit_code == EXIT_OK
        items = load_dataset(out / "items.jsonl", DatasetId.CUSTOM)
        generated = generate(SyntheticSpec.from_json(spec)).vectors
        lines = tmp_path / "lines.jsonl"
        with lines.open("w", encoding="utf-8") as fh:
            for item in items:
                f8 = base64.b64encode(generated[item.item_id].astype("<f8").tobytes()).decode("ascii")
                entry = {"item_id": item.item_id, "key": item_embedding_key(item), "dim": 32, "f8": f8}
                fh.write(json.dumps(entry) + "\n")
        from_file = EmbeddingCache(out / "embeddings.jsonl").vectors(items)
        from_lines = EmbeddingCache(lines).vectors(items)
        assert len(from_file) == len(items) == 2400
        assert {i: v.tobytes() for i, v in from_file.items()} == {i: v.tobytes() for i, v in from_lines.items()}


# Runs ``langselect`` once per argument list (JSON) in one interpreter, then
# prints the exit codes and which modules of the HTTP stack were loaded.
OFFLINE_RUN = """
import json, sys
sys.path.insert(0, sys.argv[1])
from langselect.cli import main
codes = []
for args in json.loads(sys.argv[2]):
    try:
        main(args, standalone_mode=False)
        codes.append(0)  # report returns; the stages exit with their code
    except SystemExit as exc:
        codes.append(exc.code)
print(json.dumps({"codes": codes, "loaded": [name for name in ("http.client", "urllib.request") if name in sys.modules]}))
"""


class TestCliInterface:
    def test_offline_commands_leave_the_http_stack_unloaded(self, tmp_path):
        spec, out = TestSimulateStage().write_spec(tmp_path), tmp_path / "sim"
        config = {
            "dataset": {"path": str(out / "items.jsonl"), "id": "custom"},
            "output_dir": str(out),
            "languages": ["en", "es", "hi", "th"],
            "split": {"seed": 1, "train_count": 48, "test_count": 12},
            "k_list": [2],
            "seeds": [0],
        }
        (tmp_path / "evaluate.json").write_text(json.dumps(config), encoding="utf-8")
        runs = [
            ["simulate", "--spec", str(spec), "--output", str(out)],
            ["evaluate", "--config", str(tmp_path / "evaluate.json")],
            ["report", "--report", str(out / "reports" / "report.json"), "--output", str(tmp_path / "report.md")],
        ]
        src = Path(__file__).resolve().parents[1] / "src"
        result = subprocess.run(
            [sys.executable, "-c", OFFLINE_RUN, str(src), json.dumps(runs)], capture_output=True, text=True, timeout=120
        )
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout.splitlines()[-1]) == {"codes": [EXIT_OK, EXIT_OK, EXIT_OK], "loaded": []}
        assert (tmp_path / "report.md").read_bytes() == (out / "reports" / "report.md").read_bytes()

    def test_translate_dry_run_via_cli(self, tmp_path, pipeline_stub):
        config_path = write_pipeline_config(tmp_path, pipeline_stub)
        runner = CliRunner()
        result = runner.invoke(main, ["translate", "--config", str(config_path), "--dry-run"])
        assert result.exit_code == EXIT_OK, result.output
        assert '"planned_calls": 60' in result.output

    def test_bad_language_flag(self, tmp_path, pipeline_stub):
        config_path = write_pipeline_config(tmp_path, pipeline_stub)
        runner = CliRunner()
        result = runner.invoke(main, ["infer", "--config", str(config_path), "--languages", "xx"])
        assert result.exit_code != 0

    def test_language_outside_config_set_is_config_error(self, tmp_path, pipeline_stub):
        config_path = write_pipeline_config(tmp_path, pipeline_stub, languages=("en", "tr"))
        runner = CliRunner()
        result = runner.invoke(
            main, ["infer", "--config", str(config_path), "--languages", "th", "--dry-run"]
        )
        assert result.exit_code == 2

    def test_simulate_and_report_commands(self, tmp_path):
        spec = TestSimulateStage().write_spec(tmp_path)
        runner = CliRunner()
        result = runner.invoke(
            main, ["simulate", "--spec", str(spec), "--output", str(tmp_path / "sim")]
        )
        assert result.exit_code == EXIT_OK, result.output
        report_path = tmp_path / "sim" / "reports" / "report.json"
        rendered = runner.invoke(main, ["report", "--report", str(report_path), "--format", "markdown"])
        assert rendered.exit_code == 0
        assert "| oracle |" in rendered.output

    def test_report_command_reproduces_the_written_reports(self, tmp_path):
        # Languages out of canonical order and a k sweep out of numeric order:
        # report.json sorts its keys, the CSV and Markdown renderings do not.
        spec = TestSimulateStage().write_spec(
            tmp_path, languages=["en", "ar", "zh", "fr"], expert_per_cluster=["ar", "zh", "fr"]
        )
        runner = CliRunner()
        out = tmp_path / "sim"
        result = runner.invoke(main, ["simulate", "--spec", str(spec), "--output", str(out), "--k", "12,3"])
        assert result.exit_code == EXIT_OK, result.output
        report_path = out / "reports" / "report.json"
        for fmt, suffix in (("json", "json"), ("csv", "csv"), ("markdown", "md")):
            written = (out / "reports" / f"report.{suffix}").read_bytes()
            assert pipeline.rerender_report(report_path, fmt) == written, fmt
            rendered = tmp_path / f"rendered.{suffix}"
            args = ["report", "--report", str(report_path), "--format", fmt, "--output", str(rendered)]
            assert runner.invoke(main, args).exit_code == 0
            assert rendered.read_bytes() == written, fmt
        csv = (out / "reports" / "report.csv").read_text(encoding="utf-8")
        assert csv.index("cluster_size_sweep,3,") < csv.index("cluster_size_sweep,12,")
        assert "section,cluster_id,expert,member_count,acc_en,acc_ar,acc_zh,acc_fr\n" in csv

    @pytest.mark.parametrize("args", [pytest.param([], id="no-seed"), pytest.param(["--seed", ""], id="empty-seed")])
    def test_simulate_without_seeds_runs_run_simulates_default_seed_0(self, tmp_path, monkeypatch, args):
        spec, out = TestSimulateStage().write_spec(tmp_path), tmp_path / "sim"
        passed = []
        real = cli_module.run_simulate
        monkeypatch.setattr(cli_module, "run_simulate", lambda *a, **kw: passed.append(kw) or real(*a, **kw))
        result = CliRunner().invoke(main, ["simulate", "--spec", str(spec), "--output", str(out), *args])
        assert result.exit_code == EXIT_OK, result.output
        assert [sorted(kw) for kw in passed] == [["k_list", "test_count", "train_count"]]
        report = json.loads((out / "reports" / "report.json").read_bytes())
        assert report["config_snapshot"]["seeds"] == [0]

    @pytest.mark.parametrize(
        "args, message",
        [
            pytest.param(["--k", "3,0"], "k must be between 1 and the 50 train items, got [0]", id="k-0"),
            pytest.param(["--k", "51"], "got [51]", id="k-above-train-count"),
            pytest.param(["--seed=-1"], "k-means seeds must be non-negative, got [-1]", id="negative-seed"),
        ],
    )
    def test_simulate_refuses_bad_k_or_seed_before_writing(self, tmp_path, args, message):
        spec = TestSimulateStage().write_spec(tmp_path)  # 60 items: 50 train, 10 test
        out = tmp_path / "sim"
        result = CliRunner().invoke(main, ["simulate", "--spec", str(spec), "--output", str(out), *args])
        assert result.exit_code == 2, result.output
        assert message in result.output
        assert not out.exists()

    @pytest.mark.parametrize(
        "args, message",
        [
            pytest.param(["--train-count", "100"], "the split needs 110 items, the spec has 60", id="train-too-many"),
            pytest.param(["--train-count", "40", "--test-count", "21"], "needs 61 items, the spec has 60", id="sum"),
            pytest.param(["--train-count", "0"], "counts must be positive, got 0 and 10", id="train-0"),
            pytest.param(["--test-count", "0"], "counts must be positive, got 60 and 0", id="test-0"),
            pytest.param(["--test-count=-3"], "counts must be positive, got 63 and -3", id="test-negative"),
        ],
    )
    def test_simulate_refuses_bad_split_counts_before_writing(self, tmp_path, args, message):
        self.test_simulate_refuses_bad_k_or_seed_before_writing(tmp_path, args, message)

    @pytest.mark.parametrize(
        "args, k_list",
        [
            pytest.param(["--k", "0"], [2], id="flag-k-0"),
            pytest.param(["--seed", "0,-2"], [2], id="flag-negative-seed"),
            pytest.param([], [2, 7], id="config-k-above-train-count"),
        ],
    )
    def test_evaluate_refuses_bad_k_or_seed_before_writing(self, tmp_path, pipeline_stub, args, k_list):
        config_path = write_pipeline_config(tmp_path, pipeline_stub, n_items=8, k_list=k_list)  # 6 train items
        result = CliRunner().invoke(main, ["evaluate", "--config", str(config_path), *args])
        assert result.exit_code == 2, result.output
        assert "configuration error" in result.output
        out = tmp_path / "out"
        assert not (out / "global_choice.json").exists()
        assert not (out / "reports").exists()
        assert not list(out.glob("cluster_model_k*.json"))

    @pytest.mark.parametrize(
        "field, value",
        [
            pytest.param("k_list", ["x"], id="k-not-a-number"),
            pytest.param("seeds", ["x"], id="seed-not-a-number"),
            pytest.param("split", {"seed": "x", "train_count": 6, "test_count": 2}, id="split-seed-not-a-number"),
            pytest.param("k_list", 5, id="k-list-not-a-list"),
            pytest.param("languages", "en", id="languages-not-a-list"),
        ],
    )
    def test_evaluate_refuses_a_malformed_config_field(self, tmp_path, pipeline_stub, field, value):
        config_path = write_pipeline_config(tmp_path, pipeline_stub, n_items=8, **{field: value})
        result = CliRunner().invoke(main, ["evaluate", "--config", str(config_path)])
        assert result.exit_code == 2, result.output
        assert f"configuration error: '{field}" in result.output
        assert not (tmp_path / "out").exists()

    def test_evaluate_refuses_a_model_without_records(self, tmp_path, pipeline_stub):
        config_path = write_pipeline_config(tmp_path, pipeline_stub, languages=("en",))
        config = load_config(config_path)
        assert run_infer(config, backoff=0.001).exit_code == EXIT_OK
        payload = json.loads(config_path.read_text(encoding="utf-8"))
        payload["chat_endpoint"]["model_name"] = "stub-modle"  # a typo
        config_path.write_text(json.dumps(payload), encoding="utf-8")
        result = CliRunner().invoke(main, ["evaluate", "--config", str(config_path)])
        assert result.exit_code == 2, result.output
        assert "configuration error: no records of model 'stub-modle'" in result.output
        out = tmp_path / "out"
        assert [p.name for p in (out / "store").iterdir()] == [store_dir(config, "stub-model").name]
        assert not (out / "global_choice.json").exists()
        assert not (out / "reports").exists()

    @pytest.mark.parametrize("stage, args", [("evaluate", []), ("select-llm", ["--dry-run"]), ("embed", ["--dry-run"])])
    def test_a_split_larger_than_the_dataset_is_refused_before_writing(self, tmp_path, pipeline_stub, stage, args):
        split = {"seed": 3, "train_count": 6, "test_count": 4}
        config_path = write_pipeline_config(tmp_path, pipeline_stub, n_items=8, split=split)
        result = CliRunner().invoke(main, [stage, "--config", str(config_path), *args])
        assert result.exit_code == 2, result.output
        assert "configuration error: split needs 10 items, dataset has 8" in result.output
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("stage, args", [("evaluate", []), ("select-llm", ["--dry-run"])])
    @pytest.mark.parametrize(
        "cache, error",
        [
            ('{"q1": "xx"}', "item 'q1' has 'xx', not a language code"),
            ('{"q1": "th", "q2": [1]}', "item 'q2' has [1], not a language code"),
            ("[1, 2]", "not a JSON object"),
            ('{"q1": "th"', "not JSON: "),
        ],
        ids=["unknown-code", "list-code", "list", "truncated"],
    )
    def test_a_corrupt_selection_cache_is_refused_naming_it(self, tmp_path, pipeline_stub, stage, args, cache, error):
        config_path = write_pipeline_config(tmp_path, pipeline_stub, languages=("en",))
        config = load_config(config_path)
        assert run_infer(config, backoff=0.001).exit_code == EXIT_OK
        selection_cache_path(config).write_text(cache, encoding="utf-8")
        result = CliRunner().invoke(main, [stage, "--config", str(config_path), *args])
        assert result.exit_code == 2, result.output
        assert f"configuration error: {selection_cache_path(config)}: {error}" in result.output
        assert not (config.output_dir / "reports").exists()

    def test_missing_config_file(self):
        runner = CliRunner()
        result = runner.invoke(main, ["evaluate", "--config", "/nonexistent.json"])
        assert result.exit_code == 2


class TestAuthFailures:
    def test_translate_auth_error_preserves_progress(self, tmp_path, monkeypatch):
        monkeypatch.setenv("STUB_KEY", "right")
        with StubServer(chat_responder=good_chat_responder, require_key="right") as stub:
            config_path = write_pipeline_config(
                tmp_path,
                stub,
                languages=("en", "tr"),
                translation_endpoint={
                    "base_url": stub.base_url,
                    "model_name": "t",
                    "api_key_ref": "STUB_KEY",
                    "max_retries": 0,
                    "timeout": 5,
                    "max_in_flight": 1,
                },
            )
            config = load_config(config_path)
            # Key goes bad after the first two items' fields.
            original_post = None
            calls = {"n": 0}

            def flip_key_later(body, payload):
                calls["n"] += 1
                if calls["n"] == 10:  # two items done (5 fields each)
                    monkeypatch.setenv("STUB_KEY", "wrong")
                return good_chat_responder(body, payload)

            stub.chat_responder = flip_key_later
            result = run_translate(config, backoff=0.001)
            assert result.exit_code == 2
        translated = load_dataset(
            translation_file(config, Language.TURKISH), DatasetId.CUSTOM, source_language=Language.TURKISH
        )
        assert len(translated) == 2  # completed items were flushed

    def test_infer_auth_error_exits_config(self, tmp_path, monkeypatch):
        monkeypatch.setenv("STUB_KEY", "wrong")
        with StubServer(require_key="right") as stub:
            config_path = write_pipeline_config(
                tmp_path,
                stub,
                languages=("en",),
                chat_endpoint={
                    "base_url": stub.base_url,
                    "model_name": "m",
                    "api_key_ref": "STUB_KEY",
                    "max_retries": 0,
                    "timeout": 5,
                },
            )
            config = load_config(config_path)
            result = run_infer(config, backoff=0.001)
        assert result.exit_code == 2
        assert "error" in result.summary


def varied_chat_responder(body: str, payload: dict) -> str:
    """Like ``good_chat_responder``, but the expert language depends on the item."""
    if "expert_language" in body:
        number = int(re.search(r"question for q(\d+)\?", body).group(1))
        return json.dumps({"expert_language": "Thai" if number % 2 else "Turkish"})
    return good_chat_responder(body, payload)


def item_ids_in(bodies: list[str]) -> set[str]:
    return {found for body in bodies for found in re.findall(r"\bq\d+\b", body)}


class TestBoundedStages:
    """The network stages run up to ``max_in_flight`` calls at once."""

    def config(self, tmp_path, stub, max_in_flight, **extra):
        tmp_path.mkdir(exist_ok=True)
        endpoint = {
            "base_url": stub.base_url,
            "model_name": "stub-model",
            "max_retries": 1,
            "timeout": 5,
            "max_in_flight": max_in_flight,
        }
        extra.setdefault("chat_endpoint", endpoint)
        extra.setdefault("translation_endpoint", endpoint)
        extra.setdefault("embedding_endpoint", {**endpoint, "model_name": "stub-embedder"})
        split = {"seed": 3, "train_count": 2, "test_count": 6}
        return load_config(write_pipeline_config(tmp_path, stub, n_items=8, split=split, **extra))

    def test_outputs_match_a_serial_run(self, tmp_path, monkeypatch):
        monkeypatch.setattr(pipeline, "EMBED_BATCH_SIZE", 2)  # 8 items: 4 batches
        runs = {}
        stages = (("translate", run_translate), ("infer", run_infer), ("select", run_select_llm), ("embed", run_embed))
        with StubServer(chat_responder=varied_chat_responder, latency=0.02) as stub:
            for max_in_flight in (1, 4):
                config = self.config(tmp_path / f"mif{max_in_flight}", stub, max_in_flight)
                summaries, peaks = {}, {}
                stub.hold_until_overlap = 1.0 if max_in_flight > 1 else None
                for name, stage in stages:
                    stub.peak_in_flight = 0
                    result = stage(config, backoff=0.001)
                    assert result.exit_code == EXIT_OK
                    summaries[name] = json.dumps(result.summary)
                    peaks[name] = stub.peak_in_flight
                records = (store_dir(config, "stub-model") / "records.jsonl").read_text(encoding="utf-8")
                runs[max_in_flight] = {
                    "summaries": summaries,
                    "peaks": peaks,
                    "files": {
                        name: (config.output_dir / name).read_bytes()
                        for name in (
                            "translations/tr.jsonl", "translations/th.jsonl", "selection_cache.json", "embeddings.jsonl"
                        )
                    },
                    "records": sorted(
                        json.dumps({k: v for k, v in json.loads(line).items() if k != "created_at"})
                        for line in records.splitlines()
                    ),
                }
        serial, bounded = runs[1], runs[4]
        assert serial["peaks"] == {"translate": 1, "infer": 1, "select": 1, "embed": 1}
        assert all(1 < peak <= 4 for peak in bounded["peaks"].values()), bounded["peaks"]
        assert bounded["files"] == serial["files"]
        assert bounded["summaries"] == serial["summaries"]
        assert bounded["records"] == serial["records"]
        assert len(serial["records"]) == 8 * 3
        assert set(json.loads(serial["files"]["selection_cache.json"]).values()) == {"th", "tr"}

    def test_transport_failures_listed_in_dataset_order(self, tmp_path):
        with StubServer(chat_responder=good_chat_responder, latency=0.02) as stub:
            # q0 fails on its last choice, q3 on its question, so q3's task
            # finishes first.
            stub.fail_when = lambda body: "choice D of q0" in body or "for q3?" in body
            config = self.config(tmp_path, stub, 4)
            result = run_translate(config, backoff=0.001)
        assert result.exit_code == EXIT_PARTIAL
        expected = [
            {"item_id": "q0", "fields": ["choice_D"]},
            {"item_id": "q3", "fields": ["question"]},
        ]
        for code in ("tr", "th"):
            assert result.summary["languages"][code]["failed"] == expected
            assert result.summary["languages"][code]["written"] == 6
            written = load_dataset(translation_file(config, Language(code)), DatasetId.CUSTOM, source_language=Language(code))
            assert [i.item_id for i in written] == ["q1", "q2", "q4", "q5", "q6", "q7"]

    def test_auth_failure_keeps_whole_items_and_rerun_skips_them(self, tmp_path, monkeypatch):
        monkeypatch.setenv("STUB_KEY", "right")
        with StubServer(chat_responder=good_chat_responder, require_key="right", latency=0.02) as stub:
            endpoint = {
                "base_url": stub.base_url,
                "model_name": "t",
                "api_key_ref": "STUB_KEY",
                "max_retries": 0,
                "timeout": 5,
                "max_in_flight": 4,
            }
            config = self.config(tmp_path, stub, 4, languages=("en", "tr"), translation_endpoint=endpoint)
            lock = threading.Lock()
            served = {"n": 0}

            def key_goes_bad(body, payload):
                with lock:
                    served["n"] += 1
                    if served["n"] == 25:  # at most 4 items in flight, so at least 2 are whole
                        monkeypatch.setenv("STUB_KEY", "wrong")
                return good_chat_responder(body, payload)

            stub.chat_responder = key_goes_bad
            result = run_translate(config, backoff=0.001)
            assert result.exit_code == 2
            path = translation_file(config, Language.TURKISH)
            written = load_dataset(path, DatasetId.CUSTOM, source_language=Language.TURKISH)
            ids = [i.item_id for i in written]
            assert len(ids) >= 2
            assert ids == sorted(ids, key=lambda item_id: int(item_id[1:]))
            for item in written:
                assert item.question.startswith("[Turkish] ")
                assert all(c.text.startswith("[Turkish] ") for c in item.choices)

            monkeypatch.setenv("STUB_KEY", "right")
            stub.chat_responder = good_chat_responder
            before = len(stub.chat_bodies())
            rerun = run_translate(config, backoff=0.001)
            assert rerun.exit_code == EXIT_OK
            assert item_ids_in(stub.chat_bodies()[before:]).isdisjoint(ids)
        healed = load_dataset(path, DatasetId.CUSTOM, source_language=Language.TURKISH)
        assert [i.item_id for i in healed] == [f"q{n}" for n in range(8)]


NETWORK_STAGES = {
    "translate": run_translate,
    "infer": run_infer,
    "select-llm": run_select_llm,
    "embed": run_embed,
}


def all_endpoints(**fields):
    return {
        f"{kind}_endpoint": {"model_name": f"stub-{kind}", "max_in_flight": 1, **fields}
        for kind in ("chat", "translation", "embedding")
    }


class TestStageExitCodes:
    @pytest.mark.parametrize("stage", list(NETWORK_STAGES))
    def test_bad_key_exits_config_with_error(self, tmp_path, monkeypatch, stage):
        monkeypatch.setenv("STUB_KEY", "wrong")
        with StubServer(chat_responder=good_chat_responder, require_key="right") as stub:
            endpoints = all_endpoints(base_url=stub.base_url, api_key_ref="STUB_KEY", max_retries=0, timeout=5)
            config = load_config(write_pipeline_config(tmp_path, stub, languages=("en", "tr"), **endpoints))
            result = NETWORK_STAGES[stage](config, backoff=0.001)
            assert len(stub.requests) == 1  # the first 401 cancels every queued task
        assert result.exit_code == 2
        assert "401" in result.summary["error"]

    @pytest.mark.parametrize("stage", list(NETWORK_STAGES))
    def test_unreachable_endpoint_exits_transport(self, tmp_path, stage):
        with StubServer() as stub:
            endpoints = all_endpoints(base_url="http://127.0.0.1:1", max_retries=0, timeout=0.2)
            languages = ("en", "tr") if stage == "translate" else ("en",)  # infer: no untranslated cells
            config = load_config(write_pipeline_config(tmp_path, stub, languages=languages, **endpoints))
        result = NETWORK_STAGES[stage](config, backoff=0.001)
        assert result.exit_code == EXIT_TRANSPORT


class TestRejectedReply:
    """A reply the endpoint rejects (here a 400) fails only its own task."""

    @pytest.mark.parametrize("stage", ["translate", "infer", "select-llm"])
    def test_fails_only_its_task_and_rerun_calls_only_that_task(self, tmp_path, stage):
        with StubServer(chat_responder=good_chat_responder) as stub:
            endpoints = all_endpoints(base_url=stub.base_url, max_retries=1, timeout=5)
            split = {"seed": 3, "train_count": 2, "test_count": 6}
            config = load_config(write_pipeline_config(tmp_path, stub, n_items=8, split=split, **endpoints))
            if stage == "infer":
                assert run_translate(config, backoff=0.001).exit_code == EXIT_OK
            run = NETWORK_STAGES[stage]
            first = len(stub.requests)
            stub.status_queue = [400]
            result = run(config, backoff=0.001)
            assert result.exit_code == EXIT_PARTIAL
            failed_item = item_ids_in(stub.chat_bodies()[first : first + 1])
            assert len(failed_item) == 1

            if stage == "translate":
                written = load_dataset(
                    translation_file(config, Language.TURKISH), DatasetId.CUSTOM, source_language=Language.TURKISH
                )
                assert len(written) == 7 and failed_item.isdisjoint(i.item_id for i in written)
                assert result.summary["languages"]["th"]["written"] == 8
            elif stage == "infer":
                assert len(RunStore(store_dir(config, "stub-chat"))) == 8 * 3 - 1
                assert result.summary["remaining_missing_cells"] == 1
            else:
                cache = json.loads(selection_cache_path(config).read_text(encoding="utf-8"))
                assert len(cache) == 5 and failed_item.isdisjoint(cache)

            before = len(stub.requests)
            assert run(config, backoff=0.001).exit_code == EXIT_OK
            rerun_bodies = stub.chat_bodies()[before:]
        assert item_ids_in(rerun_bodies) == failed_item
        assert len(rerun_bodies) == (5 if stage == "translate" else 1)  # 1 question + 4 choices


class TestInterruptAndResume:
    """An interrupt at any task keeps every finished task, those in flight when
    it came included: the resumed run calls only the rest, and its outputs
    equal an uninterrupted run's."""

    OUTPUTS = (
        "translations/tr.jsonl",
        "translations/th.jsonl",
        "selection_cache.json",
        "embeddings.jsonl",
        "reports/report.json",
        "reports/report.csv",
        "reports/report.md",
    )

    def config(self, tmp_path, stub, max_in_flight):
        return TestBoundedStages().config(tmp_path, stub, max_in_flight)

    def outputs(self, config):
        files = {name: (config.output_dir / name).read_bytes() for name in self.OUTPUTS}
        records = (store_dir(config, "stub-model") / "records.jsonl").read_text(encoding="utf-8")
        files["records"] = sorted(
            json.dumps({k: v for k, v in json.loads(line).items() if k != "created_at"})
            for line in records.splitlines()
        )
        return files

    @pytest.mark.parametrize("max_in_flight", [1, 3])
    @pytest.mark.parametrize("stage", list(NETWORK_STAGES))
    def test_resume_repeats_no_finished_task_and_matches_an_uninterrupted_run(
        self, tmp_path, monkeypatch, stage, max_in_flight
    ):
        monkeypatch.setattr(pipeline, "EMBED_BATCH_SIZE", 2)  # 8 items: 4 batches
        owner, name = {
            "translate": (pipeline, "translate_item"),
            "infer": (pipeline, "chat_complete"),
            "select-llm": (pipeline, "chat_complete"),
            "embed": (clustering, "embed_texts"),
        }[stage]
        real_call = getattr(owner, name)
        calls = itertools.count(1)  # next() is atomic: the worker threads share it

        def interrupted_at_third_task(*args, **kwargs):
            if next(calls) == 3:
                raise KeyboardInterrupt
            return real_call(*args, **kwargs)

        with StubServer(chat_responder=varied_chat_responder) as stub:
            requests_by_stage = {}
            whole = self.config(tmp_path / "whole", stub, max_in_flight)
            for each, run in NETWORK_STAGES.items():
                before = len(stub.requests)
                assert run(whole, backoff=0.001).exit_code == EXIT_OK
                requests_by_stage[each] = len(stub.requests) - before
            assert run_evaluate(whole).exit_code == EXIT_OK

            config = self.config(tmp_path / "interrupted", stub, max_in_flight)
            for each, run in NETWORK_STAGES.items():
                if each == stage:
                    before = len(stub.requests)
                    monkeypatch.setattr(owner, name, interrupted_at_third_task)
                    with pytest.raises(KeyboardInterrupt):
                        run(config, backoff=0.001)
                    monkeypatch.setattr(owner, name, real_call)
                    assert len(stub.requests) > before  # two tasks finished
                assert run(config, backoff=0.001).exit_code == EXIT_OK
                if each == stage:
                    assert len(stub.requests) - before == requests_by_stage[stage]
            assert run_evaluate(config).exit_code == EXIT_OK
        assert self.outputs(config) == self.outputs(whole)


def test_evaluate_uses_bundled_blend_country_map(tmp_path):
    # All items are about China; with the bundled map the country strategy
    # must route every test item to Chinese.
    items = [make_item(f"q{i}", gold="A", country="China") for i in range(6)]
    with StubServer(chat_responder=good_chat_responder) as stub:
        config_path = write_pipeline_config(
            tmp_path, stub, languages=("en", "zh"), dataset={"path": "data.jsonl", "id": "blend"}
        )
        save_dataset(items, tmp_path / "data.jsonl")
        config = load_config(config_path)
        run_translate(config, backoff=0.001)
        run_infer(config, backoff=0.001)
        result = run_evaluate(config)
    assert result.exit_code == EXIT_OK
    report = json.loads((config.output_dir / "reports" / "report.json").read_bytes())
    assert report["language_distribution"]["country"] == {"zh": 2}


def test_lock_prevents_concurrent_drivers(tmp_path, pipeline_stub):
    from langselect.pipeline import RunLockedError, run_lock

    config = load_config(write_pipeline_config(tmp_path, pipeline_stub))
    with run_lock(config.output_dir):
        with pytest.raises(RunLockedError):
            run_translate(config, backoff=0.001)


# A bad input: each function breaks one file of a run and returns the command that
# reads it, and the file.
def cut_a_middle_record_line(tmp_path, config_path, config):
    path = store_dir(config, "stub-model") / "records.jsonl"
    lines = path.read_bytes().splitlines(keepends=True)
    lines[2] = lines[2][:40] + b"\n"
    path.write_bytes(b"".join(lines))
    return ["evaluate", "--config", str(config_path)], path


def corrupt_the_embedding_cache(tmp_path, config_path, config):
    path = pipeline.embeddings_path(config)
    path.write_text('{"item_id": "q0", "key": "k", "dim": 2, "f8": "not base64!"}\n', encoding="utf-8")
    return ["evaluate", "--config", str(config_path)], path


def put_a_non_utf8_byte_in_the_embedding_cache(tmp_path, config_path, config):
    path = pipeline.embeddings_path(config)
    path.write_bytes(b'{"item_id": "q0\xff", "key": "k", "dim": 2, "f8": "AAAAAAAAAAAAAAAAAAAAAA=="}\n')
    return ["evaluate", "--config", str(config_path)], path


def put_a_non_utf8_byte_in_an_item(tmp_path, config_path, config):
    lines = config.dataset_path.read_bytes().splitlines(keepends=True)
    assert b'"question": "' in lines[1]
    lines[1] = lines[1].replace(b'"question": "', b'"question": "\xff', 1)
    config.dataset_path.write_bytes(b"".join(lines))
    return ["evaluate", "--config", str(config_path)], config.dataset_path


def drop_the_choices_of_an_item(tmp_path, config_path, config):
    lines = config.dataset_path.read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[1])
    del record["choices"]
    lines[1] = json.dumps(record)
    config.dataset_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return ["evaluate", "--config", str(config_path)], config.dataset_path


def corrupt_the_manifest(tmp_path, config_path, config):
    path = store_dir(config, "stub-model") / "manifest.json"
    path.write_text('{"model_name": ', encoding="utf-8")
    return ["infer", "--config", str(config_path), "--dry-run"], path


def make_the_manifest_a_directory(tmp_path, config_path, config):
    path = store_dir(config, "stub-model") / "manifest.json"
    path.unlink()
    path.mkdir()
    return ["infer", "--config", str(config_path), "--dry-run"], path


def make_a_template_a_directory(tmp_path, config_path, config):
    directory = tmp_path / "templates"
    write_templates(directory, ["en"])
    (directory / "en.json").unlink()
    (directory / "en.json").mkdir()
    payload = json.loads(config_path.read_text(encoding="utf-8"))
    config_path.write_text(json.dumps({**payload, "template_dir": "templates"}), encoding="utf-8")
    return ["infer", "--config", str(config_path), "--dry-run"], directory / "en.json"


def drop_k_true_from_a_spec(tmp_path, config_path, config):
    spec = TestSimulateStage().write_spec(tmp_path)
    payload = json.loads(spec.read_text(encoding="utf-8"))
    del payload["k_true"]
    spec.write_text(json.dumps(payload), encoding="utf-8")
    return ["simulate", "--spec", str(spec), "--output", str(tmp_path / "sim")], spec


def map_a_country_to_no_language(tmp_path, config_path, config):
    path = tmp_path / "countries.json"
    path.write_text('{"a": "xx"}', encoding="utf-8")
    payload = json.loads(config_path.read_text(encoding="utf-8"))
    config_path.write_text(json.dumps({**payload, "country_map": "countries.json"}), encoding="utf-8")
    return ["evaluate", "--config", str(config_path)], path


def point_the_config_at_a_directory(field: str):
    """A breaks function that sets the config's ``field`` (its dataset path or country map) to a directory."""

    def breaks(tmp_path, config_path, config):
        directory = tmp_path / "a-directory"
        directory.mkdir()
        payload = json.loads(config_path.read_text(encoding="utf-8"))
        if field == "dataset":
            payload["dataset"]["path"] = directory.name
        else:
            payload[field] = directory.name
        config_path.write_text(json.dumps(payload), encoding="utf-8")
        return ["evaluate", "--config", str(config_path)], directory

    return breaks


def set_test_count_to_zero(tmp_path, config_path, config):
    payload = json.loads(config_path.read_text(encoding="utf-8"))
    payload["split"]["test_count"] = 0
    config_path.write_text(json.dumps(payload), encoding="utf-8")
    return ["evaluate", "--config", str(config_path)], config_path


@pytest.mark.parametrize(
    "breaks",
    [
        pytest.param(cut_a_middle_record_line, id="records-cut-middle-line"),
        pytest.param(corrupt_the_embedding_cache, id="embeddings-corrupt"),
        pytest.param(put_a_non_utf8_byte_in_the_embedding_cache, id="embeddings-not-utf8"),
        pytest.param(drop_the_choices_of_an_item, id="item-without-choices"),
        pytest.param(put_a_non_utf8_byte_in_an_item, id="item-not-utf8"),
        pytest.param(corrupt_the_manifest, id="manifest-corrupt"),
        pytest.param(drop_k_true_from_a_spec, id="spec-without-k-true"),
        pytest.param(map_a_country_to_no_language, id="country-map-bad-code"),
        pytest.param(set_test_count_to_zero, id="test-count-0"),
        pytest.param(point_the_config_at_a_directory("dataset"), id="dataset-a-directory"),
        pytest.param(point_the_config_at_a_directory("country_map"), id="country-map-a-directory"),
    ],
)
def test_a_bad_input_ends_in_one_line_naming_its_file(tmp_path, pipeline_stub, breaks):
    line, named = refusal_of(tmp_path, pipeline_stub, breaks)
    assert line.startswith("configuration error: ") and str(named) in line, line


@pytest.mark.parametrize(
    "breaks",
    [
        pytest.param(make_the_manifest_a_directory, id="manifest-a-directory"),
        pytest.param(make_a_template_a_directory, id="template-a-directory"),
    ],
)
def test_a_directory_in_place_of_a_json_file_ends_in_one_line_naming_it(tmp_path, pipeline_stub, breaks):
    line, named = refusal_of(tmp_path, pipeline_stub, breaks)
    assert line.startswith(f"configuration error: {named}: not readable: "), line


@pytest.mark.parametrize(
    "field, value, error",
    [
        pytest.param("question", 5, "question must be a string, not 5", id="question-a-number"),
        pytest.param("id", ["q1"], "item_id must be a string, not ['q1']", id="id-a-list"),
        pytest.param("answer", 1, "gold_label must be a string, not 1", id="answer-a-number"),
        pytest.param("country", {"name": "China"}, "country must be a string, not {'name': 'China'}", id="country-an-object"),
    ],
)
def test_an_item_field_that_is_no_string_ends_in_one_line_naming_its_line(tmp_path, pipeline_stub, field, value, error):
    config_path = write_pipeline_config(tmp_path, pipeline_stub, languages=("en",))
    path = tmp_path / "data.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[1] = json.dumps({**json.loads(lines[1]), field: value})
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    result = CliRunner().invoke(main, ["embed", "--config", str(config_path), "--dry-run"])
    assert result.exit_code == 2, result.output
    assert "Traceback" not in result.output
    assert result.stderr.splitlines() == [f"configuration error: {path}: line 2: {error}"]


@pytest.mark.parametrize(
    "stage, field, value",
    [("infer", "model_name", 5), ("select-llm", "base_url", ["x"])],
    ids=["infer-model-name-a-number", "select-llm-base-url-a-list"],
)
def test_an_endpoint_field_that_is_no_string_ends_in_one_line_naming_it(tmp_path, pipeline_stub, stage, field, value):
    endpoint = {"base_url": pipeline_stub.base_url, "model_name": "stub-model", field: value}
    config_path = write_pipeline_config(tmp_path, pipeline_stub, languages=("en",), chat_endpoint=endpoint)
    result = CliRunner().invoke(main, [stage, "--config", str(config_path), "--dry-run"])
    assert result.exit_code == 2, result.output
    assert "Traceback" not in result.output
    assert result.stderr.splitlines() == [
        f"configuration error: invalid chat endpoint block: {field} must be a string, not {value!r}"
    ]


def refusal_of(tmp_path, pipeline_stub, breaks) -> tuple[str, Path]:
    """The one line the CLI run ``breaks`` names ends in, exit 2, after ``breaks`` broke an input of
    a run with one complete infer stage; and the path ``breaks`` says the line must name."""
    config_path = write_pipeline_config(tmp_path, pipeline_stub, languages=("en",))
    # Every item has a country, so that evaluate reads the country map.
    save_dataset([make_item(f"q{i}", country="China") for i in range(6)], tmp_path / "data.jsonl")
    config = load_config(config_path)
    assert run_infer(config, backoff=0.001).exit_code == EXIT_OK
    args, named = breaks(tmp_path, config_path, config)
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 2, result.output
    assert "Traceback" not in result.output
    assert result.stdout == ""
    [line] = result.stderr.splitlines()
    return line, named


def cache_split_vectors(config, edit, *, json_lines: bool = False) -> tuple[list, list]:
    """Cache a 4-wide vector for each split item, given to ``edit(n, vector)`` first; the split.
    ``json_lines`` writes the cache by hand in the JSON-lines format read before the binary one."""
    train, test = split(load_dataset(config.dataset_path, DatasetId.CUSTOM), config.split)
    path, rng = pipeline.embeddings_path(config), np.random.default_rng(0)
    entries = [(item, edit(n, rng.normal(size=4))) for n, item in enumerate(train + test)]
    if json_lines:
        lines = (
            json.dumps({"item_id": i.item_id, "key": item_embedding_key(i), "dim": v.size, "f8": clustering.encode_f8(v)})
            for i, v in sorted(entries, key=lambda entry: entry[0].item_id)
        )
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        return train, test
    cache = EmbeddingCache(path)
    for item, vector in entries:
        cache.put(item_embedding_key(item), item.item_id, vector)
    cache.save()
    return train, test


def cache_line(config, item_id: str) -> int:
    """The number of the line of a JSON-lines embedding cache that holds ``item_id``'s vector."""
    lines = pipeline.embeddings_path(config).read_bytes().splitlines()
    return next(n for n, line in enumerate(lines, 1) if json.loads(line)["item_id"] == item_id)


def cache_row(config, item_id: str) -> int:
    """The number of the row of the embedding cache that holds ``item_id``'s vector."""
    header = json.loads(pipeline.embeddings_path(config).read_bytes().split(b"\n", 1)[0])
    return next(n for n, (cached, _) in enumerate(header["items"], 1) if cached == item_id)


def assert_both_stages_refuse_the_cache(config_path, message: str) -> None:
    """``evaluate`` and ``embed --dry-run`` each end in exit 2 and the one line ``message``."""
    for args in (["evaluate"], ["embed", "--dry-run"]):
        result = CliRunner().invoke(main, [*args, "--config", str(config_path)])
        assert result.exit_code == 2, result.output
        assert "Traceback" not in result.output
        assert result.stdout == ""
        assert result.stderr.splitlines() == [message]


def test_an_embedding_cache_of_two_widths_ends_evaluate_in_one_line_naming_the_item(tmp_path, pipeline_stub):
    config_path = write_pipeline_config(tmp_path, pipeline_stub, languages=("en",))
    config = load_config(config_path)
    assert run_infer(config, backoff=0.001).exit_code == EXIT_OK
    train, _ = cache_split_vectors(config, lambda n, vector: vector[:3] if n == 2 else vector, json_lines=True)
    line, path = cache_line(config, train[2].item_id), pipeline.embeddings_path(config)
    assert line > 1
    message = f"configuration error: {path}: line {line} corrupt: item {train[2].item_id}: width 3, not 4 as line 1"
    assert_both_stages_refuse_the_cache(config_path, message)


DEGENERATE = {
    "nan": lambda vector: vector * np.nan,
    "inf": lambda vector: np.concatenate([[np.inf], vector[1:]]),
    "zero-norm": lambda vector: vector * 0.0,
}


@pytest.mark.parametrize("split_part", ["train", "test"])
@pytest.mark.parametrize("bad", sorted(DEGENERATE))
def test_a_cached_vector_with_a_nan_is_left_out_of_evaluate_and_planned_again_by_embed(
    tmp_path, pipeline_stub, caplog, bad, split_part
):
    config_path = write_pipeline_config(tmp_path, pipeline_stub, languages=("en",))
    config = load_config(config_path)
    assert run_infer(config, backoff=0.001).exit_code == EXIT_OK
    at = 1 if split_part == "train" else config.split.train_count
    train, test = cache_split_vectors(config, lambda n, vector: DEGENERATE[bad](vector) if n == at else vector)
    item_id = (train + test)[at].item_id
    with caplog.at_level(logging.WARNING, logger="langselect.clustering"):
        result = CliRunner().invoke(main, ["evaluate", "--config", str(config_path)])
    assert result.exit_code == EXIT_OK, result.output
    assert json.loads(result.stdout)["skipped_strategies"]["lsk_extractor"] == (
        "1 split items lack embeddings; rerun the embed stage"
    )
    path, row = pipeline.embeddings_path(config), cache_row(config, item_id)
    assert caplog.messages == [f"{path}: row {row}, item {item_id}: a NaN, an inf or a zero norm; left uncached"]
    planned = CliRunner().invoke(main, ["embed", "--config", str(config_path), "--dry-run"])
    assert planned.exit_code == EXIT_OK, planned.output
    assert json.loads(planned.stdout)["planned_calls"] == 1


def test_a_test_vector_of_another_width_ends_evaluate_in_one_line_naming_the_item(tmp_path, pipeline_stub):
    config_path = write_pipeline_config(tmp_path, pipeline_stub, languages=("en",))
    config = load_config(config_path)
    assert run_infer(config, backoff=0.001).exit_code == EXIT_OK
    train, test = cache_split_vectors(
        config, lambda n, vector: vector[:3] if n == config.split.train_count else vector, json_lines=True
    )
    line, path = cache_line(config, test[0].item_id), pipeline.embeddings_path(config)
    assert line > 1
    message = f"configuration error: {path}: line {line} corrupt: item {test[0].item_id}: width 3, not 4 as line 1"
    assert_both_stages_refuse_the_cache(config_path, message)


def test_embed_rewrites_a_json_lines_cache_with_the_same_vectors_and_no_call(tmp_path, pipeline_stub):
    config_path = write_pipeline_config(tmp_path, pipeline_stub, languages=("en",))
    config = load_config(config_path)
    cache_split_vectors(config, lambda n, vector: vector, json_lines=True)
    before = cached_vectors(config)
    assert run_embed(config, backoff=0.001).summary["planned_calls"] == 0
    assert embedding_requests(pipeline_stub) == 0
    assert pipeline.embeddings_path(config).read_bytes().startswith(b'{"format": "langselect-embeddings", "version": 1')
    assert {i: v.tobytes() for i, v in cached_vectors(config).items()} == {i: v.tobytes() for i, v in before.items()}


def test_an_embed_whose_vectors_are_of_another_width_than_the_cache_ends_in_one_line_and_writes_nothing(
    tmp_path, monkeypatch
):
    monkeypatch.setattr(pipeline, "EMBED_BATCH_SIZE", 2)  # 8 items: 4 batches, one at a time
    with StubServer(embed_dim=16) as stub:
        config = TestBoundedStages().config(tmp_path, stub, 1)
        path = pipeline.embeddings_path(config)
        cache = EmbeddingCache(path)
        cache.put("key-of-an-edited-item", "q0", np.ones(8))
        cache.save()
        before = path.read_bytes()
        result = CliRunner().invoke(main, ["embed", "--config", str(tmp_path / "config.json")])
        assert embedding_requests(stub) == 1  # the first batch is refused; the other three are never paid for
    assert result.exit_code == 2, result.output
    assert "Traceback" not in result.output
    assert result.stderr.splitlines() == [
        f"configuration error: {path}: a vector of width 16 does not fit a cache of width 8"
    ]
    assert path.read_bytes() == before


@pytest.mark.parametrize(
    "content, error",
    [
        pytest.param(b'{"x": ', "not JSON: ", id="not-json"),
        pytest.param(b'{"x": 1}', "not a report: ", id="not-a-report"),
        pytest.param(b"[1]", "not a JSON object", id="a-list"),
    ],
)
@pytest.mark.parametrize("fmt", ["json", "csv", "markdown"])
def test_a_bad_report_ends_in_one_line_naming_its_file(tmp_path, fmt, content, error):
    path = tmp_path / "report.json"
    path.write_bytes(content)
    result = CliRunner().invoke(main, ["report", "--report", str(path), "--format", fmt])
    assert result.exit_code == 2, result.output
    assert "Traceback" not in result.output
    assert result.stdout == ""
    [line] = result.stderr.splitlines()
    assert line.startswith(f"configuration error: {path}: {error}"), line


@pytest.mark.parametrize(
    "name, content, error",
    [
        pytest.param("en.json", b'{"question_label": ', "not JSON: ", id="not-json"),
        pytest.param("en.json", b'{"question_label": "\xe9"}', "not JSON: 'utf-8' codec", id="not-utf8"),
        pytest.param("en.json", b'["Question:"]', "not a JSON object", id="a-list"),
        pytest.param("README.json", b"{}", "not a template: unknown language code: 'README'", id="readme"),
        pytest.param(
            "en.json",
            b'{"question_label": "Q:", "instruction": 1}',
            "template fields ['choices_label', 'instruction', 'reasoning_placeholder', 'answer_placeholder'] "
            "missing or not strings",
            id="missing-fields",
        ),
        pytest.param("tr.json", None, "no template for the languages ['tr']", id="no-template-for-a-language"),
    ],
)
@pytest.mark.parametrize("args", [["infer", "--dry-run"], ["evaluate"]], ids=["infer-dry-run", "evaluate"])
def test_a_bad_template_directory_ends_in_one_line_naming_it(tmp_path, pipeline_stub, args, name, content, error):
    directory = tmp_path / "templates"
    write_templates(directory, ["en", "tr"])
    config_path = write_pipeline_config(tmp_path, pipeline_stub, languages=("en", "tr"), template_dir="templates")
    if content is None:  # the named file is deleted: the directory is refused
        (directory / name).unlink()
        named = directory
    else:
        (directory / name).write_bytes(content)
        named = directory / name
    result = CliRunner().invoke(main, [*args, "--config", str(config_path)])
    assert result.exit_code == 2, result.output
    assert "Traceback" not in result.output
    assert result.stdout == ""
    [line] = result.stderr.splitlines()
    assert line.startswith(f"configuration error: {named}: {error}"), line
