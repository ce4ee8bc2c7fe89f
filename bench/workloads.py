"""The three workloads: input generation (set-up), the timed phase and the
output checks.

Set-up runs in the harness process and writes every input the program reads
into a fresh round directory. The timed phase runs in a child process
(``phase.py``) that imports langselect and calls it on those files, so its
peak RSS excludes set-up. Checks run in the harness on the facts each phase
returns.

Why these workloads:

- ``simulate-sample`` replays ``run_simulate`` on the sample synthetic spec
  (2,400 items x 16 languages, d = 32, k in {12, 24, 48}): the write-heavy
  path, 38,400 store appends with periodic fsyncs, no langid and no network.
  ``run_simulate`` itself is not called because it raises TypeError at the
  commit this benchmark was written against; its calls are made here in the
  same order, through the names ``langselect.pipeline`` resolves.
- ``evaluate-warm`` times ``pipeline.run_evaluate`` on a complete run
  directory: the read path, with zero appends. Reasoning texts are in each
  cell's own language, so langid and full-width (d = 768) k-means dominate.
- ``live-stages`` runs translate, infer, select-llm and embed against a stub
  endpoint with fixed latency and scheduled retryable faults, then a resume
  pass over all four stages: endpoint wait, concurrency, retries and restart
  cost.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import shutil
import subprocess
import sys
import time
import urllib.request
from dataclasses import replace
from pathlib import Path

import numpy as np

import stub

BENCH_DIR = Path(__file__).resolve().parent

LETTERS = "ABCD"
KMEANS_SEEDS = (0,)
K_LIST = (12, 24, 48)
MODEL_NAME = "bench-model"
FIXED_TIME = "1970-01-01T00:00:00+00:00"

# Sample synthetic spec (configs/sample_synthetic_spec.json at the commit
# this benchmark was written against); --seed replaces its "seed".
SIMULATE_SPEC = {
    "n_items": 2400,
    "k_true": 12,
    "dim": 32,
    "languages": ["en", "ar", "bn", "zh", "fr", "de", "hi", "it", "ja", "ko", "pt", "ru", "es", "th", "tr", "vi"],
    "expert_per_cluster": ["en", "ar", "bn", "zh", "fr", "de", "hi", "it", "ja", "ko", "pt", "ru"],
    "p_expert": 0.9,
    "p_other": 0.3,
    "spread": 0.01,
    "separation": 0.5,
}
ORACLE_TOLERANCE = 0.01

EVALUATE_SHAPE = {
    "items": 240,
    "train": 200,
    "test": 40,
    "languages": 16,
    "dim": 768,
    "k_true": 12,
    "spread": 0.02,
    "k_list": list(K_LIST),
    "reasoning_chars": 64,
    "p_expert": 0.8,
    "p_other": 0.35,
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


LIVE_SHAPE = {
    "items": 36,
    "train": 28,
    "test": 8,
    "languages": ["en", "ja"],
    "choices": 2,
    "latency_ms": stub.LATENCY_MS,
    "fault_every": stub.FAULT_EVERY,
    "embed_dim": stub.EMBED_DIM,
    "embed_batch": 64,
    "max_in_flight": nproc(),
    "max_retries": 3,
    "backoff_s": 0.005,
}

# sha256 of reports/report.json for the default seed, at the commit this
# benchmark was written against. A program change that alters the report
# fails this check on purpose.
PINNED_REPORT_SHA256 = {
    "simulate-sample": "7a6460bfc3069dc5b13f2f33b58846f3b8a2a1a2046bff8c6c6207a06d6f2cfd",
    "evaluate-warm": "c11ca7220623f00d8c356ee007232aa768bfe4fda45c9757626322c4f5c008f5",
}


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, ensure_ascii=False, indent=2) + "\n", encoding="utf-8")


def traced(tracer, name: str, fn, *args, **kwargs):
    return tracer.call(name, fn, *args, **kwargs) if tracer is not None else fn(*args, **kwargs)


def planted_vectors(rng: np.random.Generator, k: int, dim: int, n: int, spread: float) -> np.ndarray:
    centroids = rng.normal(size=(k, dim))
    centroids /= np.linalg.norm(centroids, axis=1, keepdims=True)
    X = centroids[np.arange(n) % k] + rng.normal(0.0, spread, size=(n, dim))
    return X / np.linalg.norm(X, axis=1, keepdims=True)


# --------------------------------------------------------------------------
# simulate-sample


class SimulateSample:
    name = "simulate-sample"
    cpu_bound = True

    def setup(self, round_dir: Path, seed: int) -> dict:
        spec = dict(SIMULATE_SPEC, seed=seed)
        write_json(round_dir / "spec.json", spec)
        return {"seed": seed, "k_list": list(K_LIST), "spec": spec}

    def phase(self, round_dir: Path, inputs: dict, tracer, index: int, state: dict) -> dict:
        return traced(tracer, "pipeline.run_simulate", self.simulate, round_dir / "spec.json", round_dir / f"run{index}", inputs)

    def cleanup(self, round_dir: Path, index: int) -> None:
        shutil.rmtree(round_dir / f"run{index}", ignore_errors=True)

    def simulate(self, spec_path: Path, out: Path, inputs: dict) -> dict:
        """``run_simulate``'s calls, in its order, through ``langselect.pipeline``."""
        from langselect import pipeline as P

        spec = P.SyntheticSpec.from_json(spec_path)
        data = P.generate(spec)
        with P.run_lock(out):
            P.save_dataset(data.items, out / "items.jsonl")
            cache = P.EmbeddingCache(out / "embeddings.jsonl")
            for item in data.items:
                cache.put(P.item_embedding_key(item), item.item_id, data.vectors[item.item_id])
            cache.save()

            spec_payload = json.loads(spec_path.read_text(encoding="utf-8"))
            store = P._synthetic_store(out / "store" / f"custom__{P.SYNTHETIC_MODEL_NAME}", data, spec_payload)
            matrix = P.build_matrix(store, data.items, P.SYNTHETIC_MODEL_NAME, data.matrix.languages)
            matrix_matches = matrix.cells == data.matrix.cells

            n_test = max(1, spec.n_items // 6)
            n_train = spec.n_items - n_test
            train, test = P.split(data.items, P.SplitSpec(seed=spec.seed, train_count=n_train, test_count=n_test))
            train_matrix = matrix.subset([i.item_id for i in train])
            test_matrix = matrix.subset([i.item_id for i in test])

            S = P.Strategy
            outcomes = {}
            if P.Language.ENGLISH in matrix.languages:
                outcomes[S.ONLY_ENGLISH] = P.evaluate(S.ONLY_ENGLISH, test, test_matrix)
            outcomes[S.MAJORITY] = P.evaluate(S.MAJORITY, test, test_matrix)
            outcomes[S.ORACLE] = P.evaluate(S.ORACLE, test, test_matrix)
            global_choice = P.train_global_language(train_matrix)
            outcomes[S.GLOBAL_LANGUAGE] = P.evaluate(S.GLOBAL_LANGUAGE, test, test_matrix, state=global_choice)
            country_map = P.CountryMap.from_entries({f"cluster-{c}": e for c, e in enumerate(data.experts)})
            outcomes[S.COUNTRY] = P.evaluate(S.COUNTRY, test, test_matrix, state=country_map)
            rng = random.Random(spec.seed ^ 0x5E1EC7)
            llm_cache = {i.item_id: rng.choice(list(matrix.languages)) for i in test}
            outcomes[S.LLM_SELECTED] = P.evaluate(S.LLM_SELECTED, test, test_matrix, state=llm_cache)

            ks = list(inputs["k_list"])
            sweep = {}
            cluster_model = None
            for k in ks:
                model = P.train_lsk_best(data.vectors, train_matrix, k, list(KMEANS_SEEDS))
                sweep[k] = P.evaluate(
                    S.LSK_EXTRACTOR, test, test_matrix, state=P.LskRouter(model=model, vectors=data.vectors)
                )
                P.write_atomic(out / f"cluster_model_k{k}.json", (model.to_json() + "\n").encode("utf-8"))
                if cluster_model is None:
                    cluster_model = model
            outcomes[S.LSK_EXTRACTOR] = sweep[ks[0]]

            recovered, total = P.planted_recovery(cluster_model, data)
            ground_truth = {
                "expected_oracle_accuracy": round(P.expected_oracle_accuracy(spec), 6),
                "measured_oracle_accuracy": round(outcomes[S.ORACLE].accuracy, 6),
                "planted_experts_recovered": recovered,
                "clusters": total,
                "p_expert": spec.p_expert,
                "p_other": spec.p_other,
            }
            snapshot = {
                "synthetic_spec": json.loads(spec_path.read_text(encoding="utf-8")),
                "ground_truth": ground_truth,
                "seeds": list(KMEANS_SEEDS),
                "split": {"train_count": n_train, "test_count": n_test, "seed": spec.seed},
            }
            report = P.build_report(
                P.DatasetId.CUSTOM.value,
                P.SYNTHETIC_MODEL_NAME,
                outcomes,
                global_language_choice=global_choice.language,
                cluster_model=cluster_model,
                cluster_size_sweep=sweep,
                verification_rate=None,
                config_snapshot=snapshot,
            )
            for fmt, suffix in (("json", "json"), ("csv", "csv"), ("markdown", "md")):
                P.write_atomic(out / "reports" / f"report.{suffix}", P.emit(report, fmt))

        return {
            "items": spec.n_items,
            "cells": spec.n_items * len(data.matrix.languages),
            "matrix_matches": matrix_matches,
            "accuracy": {s.value: o.accuracy for s, o in outcomes.items()},
            "expected_oracle_accuracy": P.expected_oracle_accuracy(spec),
            "report_sha256": sha256_file(out / "reports" / "report.json"),
        }

    def checks(self, facts: dict, inputs: dict) -> list[tuple[str, bool]]:
        acc = facts["accuracy"]
        oracle = acc["oracle"]
        return [
            ("matrix rebuilt from the store equals the generated matrix", facts["matrix_matches"]),
            ("every strategy's accuracy is at most the oracle's", all(a <= oracle for a in acc.values())),
            (
                "oracle accuracy within tolerance of expected_oracle_accuracy",
                abs(oracle - facts["expected_oracle_accuracy"]) <= ORACLE_TOLERANCE,
            ),
        ]


# --------------------------------------------------------------------------
# evaluate-warm


def reasoning_text(instruction: str, chars: int) -> str:
    """``chars`` characters of the template instruction, repeated as needed."""
    reps = chars // len(instruction) + 1
    return " ".join([instruction] * reps)[:chars].rstrip() or instruction[:chars]


class EvaluateWarm:
    name = "evaluate-warm"
    cpu_bound = True

    def setup(self, round_dir: Path, seed: int) -> dict:
        from langselect.clustering import EmbeddingCache, item_embedding_key
        from langselect.datasets import Choice, DatasetId, McqItem, save_dataset
        from langselect.languages import DEFAULT_LANGUAGES, canonical_sorted
        from langselect.prompts import TemplateSet, build_reasoning_prompt, prompt_hash, reasoning_key
        from langselect.selectors import save_selection_cache
        from langselect.store import InferenceRecord, RecordStatus

        shape = EVALUATE_SHAPE
        rng = np.random.default_rng(seed)
        languages = canonical_sorted(DEFAULT_LANGUAGES)[: shape["languages"]]
        templates = TemplateSet.bundled()
        texts = {l: reasoning_text(templates.get(l).instruction, shape["reasoning_chars"]) for l in languages}
        k_true = shape["k_true"]
        experts = [languages[int(i)] for i in rng.integers(len(languages), size=k_true)]

        items = [
            McqItem(
                item_id=f"custom/eval-{i:05d}",
                dataset_id=DatasetId.CUSTOM,
                question=f"Evaluation question {i} about topic {i % k_true}?",
                choices=tuple(Choice(l, f"answer {l} to question {i}") for l in LETTERS),
                gold_label=LETTERS[int(rng.integers(len(LETTERS)))],
                country=f"region-{i % k_true}",
            )
            for i in range(shape["items"])
        ]
        inputs_dir = round_dir / "inputs"
        out = round_dir / "run"
        save_dataset(items, inputs_dir / "items.jsonl")

        vectors = planted_vectors(rng, k_true, shape["dim"], len(items), shape["spread"])
        cache = EmbeddingCache(out / "embeddings.jsonl")
        for item, v in zip(items, vectors):
            cache.put(item_embedding_key(item), item.item_id, v)
        cache.save()

        lines = []
        for i, item in enumerate(items):
            expert = experts[i % k_true]
            for lang in languages:
                p = shape["p_expert"] if lang == expert else shape["p_other"]
                if rng.random() < p:
                    label = item.gold_label
                else:
                    wrong = [l for l in LETTERS if l != item.gold_label]
                    label = wrong[int(rng.integers(len(wrong)))]
                prompt = build_reasoning_prompt(item, lang, templates)
                raw = json.dumps({reasoning_key(lang): texts[lang], "final_answer": label}, ensure_ascii=False)
                record = InferenceRecord(
                    item_id=item.item_id,
                    language=lang,
                    model_name=MODEL_NAME,
                    prompt_hash=prompt_hash(prompt.body, MODEL_NAME),
                    raw_output=raw,
                    extracted_label=label,
                    status=RecordStatus.OK,
                    created_at=FIXED_TIME,
                )
                lines.append(record.to_json() + "\n")
        store = out / "store" / f"custom__{MODEL_NAME}"
        store.mkdir(parents=True, exist_ok=True)
        (store / "records.jsonl").write_text("".join(lines), encoding="utf-8")
        write_json(store / "manifest.json", {"model_name": MODEL_NAME, "dataset_id": "custom"})

        picks = {item.item_id: languages[int(rng.integers(len(languages)))] for item in items}
        save_selection_cache(picks, out / "selection_cache.json")
        country_map = {"_default": "en", **{f"region-{c}": e.value for c, e in enumerate(experts)}}
        write_json(inputs_dir / "country_map.json", country_map)
        write_json(
            inputs_dir / "config.json",
            {
                "dataset": {"path": "items.jsonl", "id": "custom"},
                "output_dir": "../run",
                "languages": [l.value for l in languages],
                "split": {"seed": seed, "train_count": shape["train"], "test_count": shape["test"]},
                "k_list": shape["k_list"],
                "seeds": list(KMEANS_SEEDS),
                "country_map": "country_map.json",
                "chat_endpoint": {
                    "base_url": "http://127.0.0.1:9/v1",
                    "model_name": MODEL_NAME,
                    "api_key_ref": "",
                    "max_retries": 3,
                    "timeout": 60,
                    "max_in_flight": nproc(),
                },
            },
        )
        return {"seed": seed, "records": len(lines), "items": len(items)}

    def phase(self, round_dir: Path, inputs: dict, tracer, index: int, state: dict) -> dict:
        from langselect import pipeline as P
        from langselect.config import load_config

        config = load_config(round_dir / "inputs" / "config.json")
        result = P.run_evaluate(config)
        report = P.reports_dir(config) / "report.json"
        return {
            "items": inputs["items"],
            "cells": inputs["records"],
            "exit_code": result.exit_code,
            "skipped_strategies": result.summary.get("skipped_strategies", {}),
            "verification": json.loads(report.read_text(encoding="utf-8"))["config_snapshot"]["verification"],
            "report_sha256": sha256_file(report),
        }

    def cleanup(self, round_dir: Path, index: int) -> None:
        """Every phase re-evaluates the same warm run directory."""

    def checks(self, facts: dict, inputs: dict) -> list[tuple[str, bool]]:
        return [
            ("run_evaluate exits 0", facts["exit_code"] == 0),
            ("no strategy is skipped", not facts["skipped_strategies"]),
            ("verification checked count equals the number of records", facts["verification"]["checked"] == inputs["records"]),
        ]


# --------------------------------------------------------------------------
# live-stages

LIVE_FILES = ("translations", "store", "selection_cache.json", "embeddings.jsonl")


def tree_digest(root: Path) -> dict[str, str]:
    """sha256 of every file under the resumable outputs, keyed by relative path."""
    out = {}
    for name in LIVE_FILES:
        path = root / name
        files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
        for f in files:
            if f.exists() and f.name != ".lock":
                out[str(f.relative_to(root))] = sha256_file(f)
    return out


def stub_stats(base_url: str) -> dict:
    with urllib.request.urlopen(base_url.rsplit("/v1", 1)[0] + "/stats", timeout=10) as resp:
        return json.loads(resp.read())


class LiveStages:
    name = "live-stages"
    cpu_bound = False
    stages = ("translate", "infer", "select_llm", "embed")

    def setup(self, round_dir: Path, seed: int) -> dict:
        from langselect.datasets import Choice, DatasetId, McqItem, save_dataset

        shape = LIVE_SHAPE
        rng = random.Random(seed)
        items = [
            McqItem(
                item_id=f"custom/live-{i:04d}",
                dataset_id=DatasetId.CUSTOM,
                question=f"Live question {i} number {rng.randrange(10**6)} about topic {i % 5}?",
                choices=tuple(Choice(l, f"choice {l} {rng.randrange(10**6)}") for l in LETTERS[: shape["choices"]]),
                gold_label=rng.choice(LETTERS[: shape["choices"]]),
            )
            for i in range(shape["items"])
        ]
        inputs_dir = round_dir / "inputs"
        save_dataset(items, inputs_dir / "items.jsonl")
        server = subprocess.Popen([sys.executable, str(BENCH_DIR / "stub.py")], stdout=subprocess.PIPE, text=True)
        try:
            return self._configure(round_dir, seed, server)
        except BaseException:
            stop_process(server)
            raise

    def _configure(self, round_dir: Path, seed: int, server: subprocess.Popen) -> dict:
        shape = LIVE_SHAPE
        try:
            port = json.loads(server.stdout.readline())["port"]
        except (ValueError, KeyError):
            raise RuntimeError("stub endpoint did not report its port") from None
        base_url = f"http://127.0.0.1:{port}/v1"
        endpoint = {
            "base_url": base_url,
            "api_key_ref": "",
            "max_retries": shape["max_retries"],
            "timeout": 30,
            "max_in_flight": shape["max_in_flight"],
        }
        write_json(
            round_dir / "inputs" / "config.json",
            {
                "dataset": {"path": "items.jsonl", "id": "custom"},
                "output_dir": "../run",
                "languages": shape["languages"],
                "split": {"seed": seed, "train_count": shape["train"], "test_count": shape["test"]},
                "k_list": [2],
                "seeds": list(KMEANS_SEEDS),
                "chat_endpoint": dict(endpoint, model_name=MODEL_NAME),
                "translation_endpoint": dict(endpoint, model_name="bench-translator"),
                "embedding_endpoint": dict(endpoint, model_name="bench-embedder"),
            },
        )
        languages = len(shape["languages"])
        planned = {
            "translate": shape["items"] * (languages - 1) * (1 + shape["choices"]),
            "infer": shape["items"] * languages,
            "select": shape["test"],
            "embed": math.ceil((shape["train"] + shape["test"]) / shape["embed_batch"]),
        }
        return {
            "seed": seed,
            "base_url": base_url,
            "planned_requests": planned,
            "_process": server,
        }

    def phase(self, round_dir: Path, inputs: dict, tracer, index: int, state: dict) -> dict:
        from langselect import pipeline as P
        from langselect.config import load_config

        config = replace(load_config(round_dir / "inputs" / "config.json"), output_dir=round_dir / f"run{index}")
        before = state.get("stub") or {key: dict.fromkeys(stub.KINDS, 0) for key in ("requests", "faults", "busy_s")}
        backoff = LIVE_SHAPE["backoff_s"]
        runs = {
            "translate": lambda: P.run_translate(config, backoff=backoff),
            "infer": lambda: P.run_infer(config, backoff=backoff),
            "select_llm": lambda: P.run_select_llm(config, backoff=backoff),
            "embed": lambda: P.run_embed(config, backoff=backoff),
        }
        stage_s, first = {}, {}
        for stage in self.stages:
            t0 = time.perf_counter()
            result = runs[stage]()
            stage_s[stage] = time.perf_counter() - t0
            first[stage] = {"exit_code": result.exit_code, "summary": result.summary}
        stats = stub_stats(inputs["base_url"])
        digest_before = tree_digest(config.output_dir)

        def resume():
            return {s: runs[s]() for s in self.stages}

        t0 = time.perf_counter()
        again = traced(tracer, "live.resume", resume)
        resume_s = time.perf_counter() - t0
        state["stub"] = stub_stats(inputs["base_url"])
        digest_after = tree_digest(config.output_dir)
        return {
            "stage_s": stage_s,
            "resume_s": resume_s,
            "first": first,
            "resume_exit_codes": {s: r.exit_code for s, r in again.items()},
            "stub": {key: {k: stats[key][k] - before[key][k] for k in stub.KINDS} for key in stats},
            "resume_requests": sum(state["stub"]["requests"].values()) - sum(stats["requests"].values()),
            "resume_identical": digest_before == digest_after and bool(digest_before),
        }

    def cleanup(self, round_dir: Path, index: int) -> None:
        shutil.rmtree(round_dir / f"run{index}", ignore_errors=True)

    def outcomes(self, facts: dict) -> dict[str, int]:
        """Operations of the first pass, and those failed after retries, by kind."""
        first = facts["first"]
        t = first["translate"]["summary"]
        pairs = sum(v["to_translate"] for v in t["languages"].values())
        pairs_failed = sum(len(v["failed"]) for v in t["languages"].values())
        infer = first["infer"]["summary"]
        select = first["select_llm"]["summary"]
        embed = first["embed"]
        return {
            "translate_pairs": pairs,
            "translate_failed": pairs_failed,
            "cells": infer.get("planned_calls", 0),
            "cells_failed": infer.get("transport_failures", 0) + infer.get("remaining_missing_cells", 0),
            "cells_filled": infer.get("ok", 0) + infer.get("invalid", 0),
            "selections": select.get("planned_calls", 0),
            "selections_failed": select.get("transport_failures", 0),
            "embeds": embed["summary"].get("planned_calls", 0),
            "embeds_failed": 0 if embed["exit_code"] == 0 else embed["summary"].get("planned_calls", 0),
        }

    def operations(self, facts: dict, inputs: dict) -> tuple[int, int]:
        """(attempted, failed after retries): items, cells and endpoint calls."""
        done = self.outcomes(facts)
        planned = sum(inputs["planned_requests"].values())
        served = sum(facts["stub"]["requests"].values()) - sum(facts["stub"]["faults"].values())
        attempted = done["translate_pairs"] + done["cells"] + done["selections"] + done["embeds"] + planned
        failed = (
            done["translate_failed"] + done["cells_failed"] + done["selections_failed"] + done["embeds_failed"]
            + max(0, planned - served)
        )
        return attempted, failed

    def checks(self, facts: dict, inputs: dict) -> list[tuple[str, bool]]:
        served = facts["stub"]
        planned = inputs["planned_requests"]
        return [
            ("every stage exits 0", all(f["exit_code"] == 0 for f in facts["first"].values())),
            ("every resumed stage exits 0", all(c == 0 for c in facts["resume_exit_codes"].values())),
            ("remaining_missing_cells is 0", facts["first"]["infer"]["summary"].get("remaining_missing_cells") == 0),
            (
                "stub requests equal planned calls plus retries",
                all(served["requests"][k] == planned[k] + served["faults"][k] for k in planned),
            ),
            ("resume pass makes zero requests", facts["resume_requests"] == 0),
            ("resume pass leaves outputs byte-identical", facts["resume_identical"]),
        ]


def stop_process(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()


WORKLOADS = {w.name: w for w in (SimulateSample(), EvaluateWarm(), LiveStages())}
