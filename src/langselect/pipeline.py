"""Pipeline stages behind the CLI subcommands.

The four network stages (translate, infer, select-llm, embed) share one shape:
plan the missing work under the run lock, stop there on a dry run, and hand
every task to ``run_bounded`` with what to do as each task ends and how to save
what finished. ``run_bounded`` owns finished work: on every exit, an auth
failure, an interrupt or a crash included, it waits for the tasks in flight and
passes each that finished to ``done`` on the calling thread, which makes every
write, before it saves; it alone turns the failed tasks into the exit code. A
task whose request fails at the endpoint (retries exhausted, or a rejected or
malformed reply) fails only itself.

Every stage is resumable and idempotent on completed work: reruns cost zero
network calls and rewrite byte-identical outputs. All writes are atomic
(write-temp-rename) and land under the configured output directory; a single
run directory is guarded against concurrent drivers by an advisory lock.

Exit codes: 0 complete; 2 configuration or auth problem; 3 run completed with
partial data (failed tasks or still-missing cells); 4 nothing succeeded because
the endpoint was unreachable.
"""

from __future__ import annotations

import fcntl
import json
import logging
import random
import re
from collections import Counter, defaultdict
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import dataclass, field
from hashlib import sha256
from itertools import islice
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence, TypeVar

import numpy as np

from .clustering import (
    ClusterModel,
    EmbeddingCache,
    LskRouter,
    assign_many,
    embed_items,
    item_embedding_key,
    stored_fit,
    train_array,
    train_lsk_best,
)
from .config import ConfigError, RunConfig
from .datasets import DatasetId, McqItem, SplitSpec, load_dataset, save_dataset, split
from .extraction import extract_expert_language, extract_final_answer, extract_reasoning_text
from .gateway import AuthError, GatewayError, ModelEndpoint, chat_complete
from .langid import DetectionError, detect_language
from .languages import Language
from .prompts import (
    HashRegistry,
    build_reasoning_prompt,
    build_selection_prompt,
    prompt_hash,
)
from .report import FORMATS, build_report, emit
from .selectors import (
    CountryMap,
    GlobalChoice,
    SelectorError,
    SelectorOutcome,
    Strategy,
    evaluate,
    load_selection_cache,
    save_selection_cache,
    train_global_language,
)
from .store import (
    DIGEST_SIZE,
    STATUS_OK,
    UNDETECTABLE,
    UNDETECTED,
    VERDICT,
    InferenceRecord,
    RecordStatus,
    ResponseMatrix,
    RunStore,
    build_matrix,
    json_string,
    matrix_counts,
    missing_cells,
    output_digest,
    read_json,
    read_manifest,
    record_line,
    utc_now,
    write_atomic,
)
from .synthetic import SYNTHETIC_MODEL_NAME, SyntheticSpec, SyntheticSpecError, expected_oracle_accuracy, generate
from .translation import translate_item

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PARTIAL = 3
EXIT_TRANSPORT = 4


@dataclass
class StageResult:
    exit_code: int
    summary: dict = field(default_factory=dict)


class RunLockedError(RuntimeError):
    pass


@contextmanager
def run_lock(output_dir: Path):
    """Advisory lock so two processes cannot drive one run directory."""
    output_dir.mkdir(parents=True, exist_ok=True)
    lock_path = output_dir / ".lock"
    fh = lock_path.open("w")
    try:
        try:
            fcntl.flock(fh.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            raise RunLockedError(f"another process is driving {output_dir}") from None
        yield
    finally:
        fh.close()


def _safe_name(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]", "_", name)


def translation_file(config: RunConfig, language: Language) -> Path:
    return config.output_dir / "translations" / f"{language.value}.jsonl"

def store_dir(config: RunConfig, model_name: str) -> Path:
    return config.output_dir / "store" / f"{config.dataset_id.value}__{_safe_name(model_name)}"

def embeddings_path(config: RunConfig) -> Path:
    return config.output_dir / "embeddings.jsonl"

def selection_cache_path(config: RunConfig) -> Path:
    return config.output_dir / "selection_cache.json"

def reports_dir(config: RunConfig) -> Path:
    return config.output_dir / "reports"


def load_items(config: RunConfig) -> list[McqItem]:
    return load_dataset(config.dataset_path, config.dataset_id)


def _resolve_languages(config: RunConfig, requested: Iterable[Language] | None) -> list[Language]:
    if requested is None:
        return list(config.languages)
    requested = list(requested)
    unknown = [l for l in requested if l not in config.languages]
    if unknown:
        raise ConfigError(f"languages {[l.value for l in unknown]} are not in the configured set")
    return requested


def config_snapshot(config: RunConfig, model_name: str) -> dict:
    snapshot = {
        "dataset_id": config.dataset_id.value,
        "dataset_sha256": sha256(config.dataset_path.read_bytes()).hexdigest(),
        "languages": [l.value for l in config.languages],
        "split": {
            "seed": config.split.seed,
            "train_count": config.split.train_count,
            "test_count": config.split.test_count,
        },
        "k_list": list(config.k_list),
        "seeds": list(config.seeds),
        "model_name": model_name,
        "prompt_template_sha256": config.templates.content_hashes(),
    }
    if config.translation_endpoint:
        snapshot["translation_model"] = config.translation_endpoint.model_name
    if config.embedding_endpoint:
        snapshot["embedding_model"] = config.embedding_endpoint.model_name
    return snapshot


Task = TypeVar("Task")
Result = TypeVar("Result")


def run_bounded(
    endpoint: ModelEndpoint,
    work: Callable[[Task], Result],
    tasks: Sequence[Task],
    done: Callable[[Task, Result | None, GatewayError | None], None],
    persist: Callable[[], None],
    summary: dict,
    failed: int = 0,
) -> StageResult:
    """Run ``work`` on every task, on at most ``endpoint.max_in_flight`` threads at
    once, each task submitted only when a thread is free for it; the stage's result.

    ``done(task, result, error)`` runs in this thread, and only here, for each
    task that finishes (``error`` None) or fails at the endpoint (``error`` a
    ``GatewayError``, ``result`` None). The first ``AuthError``, any other
    exception from ``work`` or ``done``, or an interrupt stops the run: no task
    is submitted after it, the running ones are waited for and each that
    finishes or fails at the endpoint still goes to ``done``. On every exit
    ``persist()`` then runs, and the stop is raised again; for an ``AuthError``
    the result is ``EXIT_CONFIG`` with ``summary["error"]``. Otherwise the exit
    code counts tasks, and ``failed`` failures found before: 0 with no failure;
    4 when none finished and every failure has ``transport`` set; else 3.
    """
    pool = ThreadPoolExecutor(max_workers=endpoint.max_in_flight)
    queued = iter(tasks)
    running: dict[Future, Task] = {}
    finished = transport = 0
    stop: BaseException | None = None

    def submit(count: int) -> None:
        for task in islice(queued, count):
            running[pool.submit(work, task)] = task

    def settle(futures: Iterable[Future]) -> None:
        nonlocal finished, failed, transport, stop
        for future in futures:
            task, error = running.pop(future), future.exception()
            if isinstance(error, AuthError) or error is not None and not isinstance(error, GatewayError):
                stop = stop or error
                continue
            if stop is None:
                submit(1)
            done(task, None if error else future.result(), error)
            if error is None:
                finished += 1
            else:
                failed += 1
                transport += error.transport

    try:
        submit(endpoint.max_in_flight)
        while running and stop is None:
            settle(wait(running, return_when=FIRST_COMPLETED)[0])
    except BaseException as exc:  # an interrupt, or an error from done
        stop = exc
    try:
        pool.shutdown(wait=True, cancel_futures=True)
        settle([future for future in running if not future.cancelled()])
    finally:
        persist()
    if isinstance(stop, AuthError):
        summary["error"] = str(stop)
        return StageResult(EXIT_CONFIG, summary)
    if stop is not None:
        raise stop
    if not failed:
        return StageResult(EXIT_OK, summary)
    return StageResult(EXIT_TRANSPORT if not finished and transport == failed else EXIT_PARTIAL, summary)


def run_translate(
    config: RunConfig,
    languages: Iterable[Language] | None = None,
    *,
    dry_run: bool = False,
    backoff: float = 0.5,
) -> StageResult:
    """Produce one translated dataset file per non-English language.

    Each (language, item) pair is one task. A language's file is written, in
    dataset order, once its last task is done; on any other exit (an auth
    failure, an interrupt) every language with finished items is written with
    those items.
    """
    endpoint = config.require_endpoint("translation")
    items = load_items(config)
    position = {item.item_id: n for n, item in enumerate(items)}
    targets = [l for l in _resolve_languages(config, languages) if l is not Language.ENGLISH]
    summary: dict = {"stage": "translate", "languages": {}, "planned_calls": 0}
    with run_lock(config.output_dir):
        translated: dict[Language, dict[str, McqItem]] = {}
        plan: list[tuple[Language, McqItem]] = []
        for target in targets:
            out_path = translation_file(config, target)
            existing: dict[str, McqItem] = {}
            if out_path.exists():
                existing = {
                    i.item_id: i
                    for i in load_dataset(out_path, config.dataset_id, source_language=target)
                }
            todo = [i for i in items if i.item_id not in existing]
            summary["languages"][target.value] = {"existing": len(existing), "to_translate": len(todo), "failed": []}
            summary["planned_calls"] += sum(1 + len(i.choices) for i in todo)
            translated[target] = existing
            plan.extend((target, item) for item in todo)
        if dry_run:
            return StageResult(EXIT_OK, summary)

        def write(target: Language) -> None:
            done = translated[target]
            ordered = [done[i.item_id] for i in items if i.item_id in done]
            save_dataset(ordered, translation_file(config, target))
            lang_summary = summary["languages"][target.value]
            lang_summary["failed"].sort(key=lambda f: position[f["item_id"]])
            lang_summary["written"] = len(ordered)

        planned = Counter(target for target, _ in plan)
        finished: Counter = Counter()
        for target in targets:
            if not planned[target]:
                write(target)

        def work(task: tuple[Language, McqItem]) -> McqItem:
            return translate_item(task[1], task[0], endpoint, backoff=backoff)

        def done(task: tuple[Language, McqItem], result: McqItem | None, error: GatewayError | None) -> None:
            target, item = task
            finished[target] += 1
            if error is None:
                translated[target][item.item_id] = result
            else:
                summary["languages"][target.value]["failed"].append(
                    {"item_id": error.item_id, "fields": [error.field]}
                )
            if finished[target] == planned[target]:
                write(target)

        def persist() -> None:
            for target in targets:
                if 0 < finished[target] < planned[target]:
                    write(target)

        return run_bounded(endpoint, work, plan, done, persist, summary)


def run_infer(
    config: RunConfig,
    languages: Iterable[Language] | None = None,
    *,
    dry_run: bool = False,
    backoff: float = 0.5,
) -> StageResult:
    """Fill missing response-matrix cells by calling the chat endpoint.

    Each cell is one task, whose record ``done`` appends to the run store; the
    store is closed (flushed and synced) on every exit.
    """
    endpoint = config.require_endpoint("chat")
    items = load_items(config)
    items_by_id = {i.item_id: i for i in items}
    langs = _resolve_languages(config, languages)

    per_language: dict[Language, dict[str, McqItem]] = {}
    untranslated_languages: list[str] = []
    for lang in langs:
        if lang is Language.ENGLISH:
            per_language[lang] = items_by_id
            continue
        path = translation_file(config, lang)
        if not path.exists():
            untranslated_languages.append(lang.value)
            continue
        per_language[lang] = {
            i.item_id: i for i in load_dataset(path, config.dataset_id, source_language=lang)
        }

    summary: dict = {
        "stage": "infer",
        "untranslated_languages": untranslated_languages,
        "ok": 0,
        "invalid": 0,
        "transport_failures": 0,
        "skipped_untranslated_cells": 0,
    }
    with run_lock(config.output_dir):
        with RunStore(store_dir(config, endpoint.model_name)) as store:
            if read_manifest(store.directory) is None:
                store.write_manifest(config_snapshot(config, endpoint.model_name))
            matrix = build_matrix(store, items, endpoint.model_name, list(per_language))
            plan: list[tuple[str, Language]] = []
            for item_id, lang in missing_cells(matrix):
                if item_id in per_language[lang]:
                    plan.append((item_id, lang))
                else:
                    summary["skipped_untranslated_cells"] += 1
            summary["planned_calls"] = len(plan)
            if dry_run:
                return StageResult(EXIT_OK, summary)

            registry = HashRegistry()

            def work(cell: tuple[str, Language]) -> InferenceRecord:
                item_id, lang = cell
                item = per_language[lang][item_id]
                prompt = build_reasoning_prompt(item, lang, config.templates)
                digest = registry.check(prompt.body, endpoint.model_name)
                response = chat_complete(prompt, endpoint, backoff=backoff)
                label = extract_final_answer(response.text, items_by_id[item_id])
                return InferenceRecord(
                    item_id=item_id,
                    language=lang,
                    model_name=endpoint.model_name,
                    prompt_hash=digest,
                    raw_output=response.text,
                    extracted_label=label,
                    status=RecordStatus.OK if label is not None else RecordStatus.INVALID_OUTPUT,
                    attempt_count=response.attempts,
                    created_at=utc_now(),
                )

            def done(cell: tuple[str, Language], record: InferenceRecord | None, error: GatewayError | None) -> None:
                if error is None:
                    store.record(record)
                    summary["ok" if record.status is RecordStatus.OK else "invalid"] += 1
                else:
                    summary["transport_failures"] += error.transport

            def persist() -> None:
                summary["conflicts"] = store.conflicts

            skipped = summary["skipped_untranslated_cells"] + len(untranslated_languages)
            result = run_bounded(endpoint, work, plan, done, persist, summary, failed=skipped)
            if result.exit_code != EXIT_CONFIG:
                remaining = len(missing_cells(build_matrix(store, items, endpoint.model_name, langs)))
                summary["remaining_missing_cells"] = remaining
    return result


def run_select_llm(
    config: RunConfig,
    *,
    dry_run: bool = False,
    backoff: float = 0.5,
) -> StageResult:
    """Ask the model itself for an expert language per test item, cached.

    The cache is saved on every exit with the selections finished so far.
    """
    endpoint = config.require_endpoint("chat")
    candidates = list(config.languages)
    _, test = split(load_items(config), config.split)
    cache_path = selection_cache_path(config)
    with run_lock(config.output_dir):
        cache = load_selection_cache(cache_path) if cache_path.exists() else {}
        todo = [i for i in test if i.item_id not in cache]
        summary: dict = {"stage": "select-llm", "cached": len(cache), "planned_calls": len(todo)}
        if dry_run:
            return StageResult(EXIT_OK, summary)
        summary["transport_failures"] = 0

        def ask(item: McqItem) -> str:
            return chat_complete(build_selection_prompt(item, candidates), endpoint, backoff=backoff).text

        def done(item: McqItem, text: str | None, error: GatewayError | None) -> None:
            if error is None:
                cache[item.item_id] = extract_expert_language(text, candidates)
            else:
                summary["transport_failures"] += error.transport

        def persist() -> None:
            save_selection_cache(cache, cache_path)
            summary["selected"] = len(cache)

        return run_bounded(endpoint, ask, todo, done, persist, summary)


EMBED_BATCH_SIZE = 64  # items per embeddings request


def run_embed(config: RunConfig, *, dry_run: bool = False, backoff: float = 0.5) -> StageResult:
    """Embed the source-language text of every split item, with caching.

    Each batch of ``EMBED_BATCH_SIZE`` uncached items is one task; the cache
    is saved on every exit with the vectors finished so far.
    """
    endpoint = config.require_endpoint("embedding")
    train, test = split(load_items(config), config.split)
    wanted = train + test
    with run_lock(config.output_dir):
        cache = EmbeddingCache(embeddings_path(config))
        cached = cache.vectors(wanted)
        todo = [i for i in wanted if i.item_id not in cached]
        summary: dict = {"stage": "embed", "cached": len(wanted) - len(todo), "planned_calls": len(todo)}
        if dry_run:
            return StageResult(EXIT_OK, summary)

        def work(batch: list[McqItem]) -> np.ndarray:
            return embed_items(batch, endpoint, backoff=backoff)

        unembedded: list[McqItem] = []

        def done(batch: list[McqItem], vectors: np.ndarray | None, error: GatewayError | None) -> None:
            if error is not None:
                unembedded.extend(batch)
                return
            for item, values in zip(batch, vectors):
                cache.put(item_embedding_key(item), item.item_id, values)

        batches = [todo[n : n + EMBED_BATCH_SIZE] for n in range(0, len(todo), EMBED_BATCH_SIZE)]
        result = run_bounded(endpoint, work, batches, done, cache.save, summary)
    if result.exit_code != EXIT_CONFIG:
        summary["embedded"] = len(wanted) - len(unembedded)
    return result


def bundled_country_map(dataset_id: DatasetId) -> CountryMap | None:
    """The country map shipped for ``dataset_id``, ``data/country_map_{id}.json``; None when none ships."""
    from importlib import resources

    resource = resources.files("langselect") / "data" / f"country_map_{dataset_id.value}.json"
    if not resource.is_file():
        return None
    with resources.as_file(resource) as path:
        return CountryMap.from_json(path)


def _verdict(raw_output: str) -> int:
    """``VERDICT`` of the language ``raw_output`` reasoned in; UNDETECTABLE for no reasoning text or no decision."""
    reasoning = extract_reasoning_text(raw_output)
    if not reasoning:
        return UNDETECTABLE
    try:
        return VERDICT[detect_language(reasoning)]
    except DetectionError:
        return UNDETECTABLE


def compute_verification_rate(store: RunStore, matrix: ResponseMatrix) -> tuple[float | None, dict]:
    """Fraction of the matrix's ok cells whose reasoning text is in the cell's language.

    ``matrix`` is ``build_matrix``'s on ``store``: a cell's record is the row it
    resolved for the cell (``matrix.rows``), the first-written ok record of the
    matrix's model for that (item, language). Records without extractable
    reasoning text, and texts the detector cannot classify, are excluded from
    the denominator (their counts are reported). Only rows whose verdict
    (``RunStore.verdicts``) is UNDETECTED are read back and detected, each
    distinct output once per call; ``RunStore.save_index`` keeps the verdicts.
    """
    rows = matrix.rows
    cells = np.flatnonzero(rows >= 0)
    cells = cells[np.frombuffer(store.statuses, dtype=np.uint8)[rows[cells]] == STATUS_OK]  # the ok cells
    rows = rows[cells]
    wanted = np.array([VERDICT[lang] for lang in matrix.languages], dtype=np.uint8)[cells % len(matrix.languages)]
    found: dict[bytes, int] = {}
    for row in rows[np.frombuffer(store.verdicts, dtype=np.uint8)[rows] == UNDETECTED].tolist():
        digest = bytes(store.digests[row * DIGEST_SIZE : (row + 1) * DIGEST_SIZE])
        if digest not in found:
            found[digest] = _verdict(store.output(row))
        store.verdicts[row] = found[digest]
    verdicts = np.frombuffer(store.verdicts, dtype=np.uint8)[rows]
    skipped = int(np.count_nonzero(verdicts == UNDETECTABLE))
    checked = len(rows) - skipped
    matched = int(np.count_nonzero(verdicts == wanted))
    return (matched / checked if checked else None), {"checked": checked, "matched": matched, "undetectable": skipped}


def _model_name_for_evaluate(config: RunConfig) -> str:
    if config.chat_endpoint is not None:
        return config.chat_endpoint.model_name
    store_root = config.output_dir / "store"
    candidates = sorted(p.name for p in store_root.glob("*")) if store_root.exists() else []
    if len(candidates) == 1:
        manifest = read_manifest(store_root / candidates[0])
        if manifest and "model_name" in manifest:
            return manifest["model_name"]
    raise ConfigError("cannot determine model name: add a chat_endpoint block to the config")


@dataclass
class Evaluation:
    """Every strategy's outcome on one test split, and what the reports show of it."""

    output_dir: Path
    outcomes: dict[Strategy, SelectorOutcome] = field(default_factory=dict)
    skipped: dict[str, str] = field(default_factory=dict)
    sweep: dict[int, SelectorOutcome] = field(default_factory=dict)
    global_choice: GlobalChoice | None = None
    cluster_model: ClusterModel | None = None

    def write_reports(self, dataset_id: str, model_name: str, snapshot: dict, rate: float | None) -> dict:
        """Write ``reports/report.<suffix>`` in each of ``FORMATS``; returns the summary fields for them."""
        report = build_report(
            dataset_id,
            model_name,
            self.outcomes,
            global_language_choice=self.global_choice.language,
            cluster_model=self.cluster_model,
            cluster_size_sweep=self.sweep,
            verification_rate=rate,
            config_snapshot=snapshot,
        )
        out_dir = self.output_dir / "reports"
        for fmt, suffix in FORMATS.items():
            write_atomic(out_dir / f"report.{suffix}", emit(report, fmt))
        return {"accuracy_by_strategy": report["accuracy_by_strategy"], "report_dir": str(out_dir)}


def _check_fit_parameters(ks: Sequence[int], seeds: Sequence[int], n_train: int) -> None:
    """Refuse a k-means sweep that cannot run: no k or seed, a k outside
    1 .. ``n_train``, or a negative seed."""
    if not ks or not seeds:
        raise ConfigError("at least one k and one k-means seed are required")
    bad_ks = [k for k in ks if not 1 <= k <= n_train]
    if bad_ks:
        raise ConfigError(f"k must be between 1 and the {n_train} train items, got {bad_ks}")
    bad_seeds = [s for s in seeds if s < 0]
    if bad_seeds:
        raise ConfigError(f"k-means seeds must be non-negative, got {bad_seeds}")


def evaluate_all(
    output_dir: Path,
    matrix: ResponseMatrix,
    train: Sequence[McqItem],
    test: Sequence[McqItem],
    ks: Sequence[int],
    seeds: Sequence[int],
    country_map: CountryMap | str,
    llm_choices: Mapping[str, Language] | str,
    vectors: Mapping[str, np.ndarray] | str,
) -> Evaluation:
    """Score the seven strategies on ``test``, training the learned ones on ``train``.

    Each optional strategy gets its state or, as a string, the reason it is
    skipped. The global-language choice and one cluster model per k are written
    to ``output_dir``; the model of the first k is the one reported. Each k's
    model file is read for its stored fit (``stored_fit``) before the fit, and a
    fit with the same ``fit_key`` is reused instead of made again.
    """
    train_matrix = matrix.subset([i.item_id for i in train])
    test_matrix = matrix.subset([i.item_id for i in test])
    ev = Evaluation(output_dir)
    if Language.ENGLISH in matrix.languages:
        ev.outcomes[Strategy.ONLY_ENGLISH] = evaluate(Strategy.ONLY_ENGLISH, test, test_matrix)
    else:
        ev.skipped["only_english"] = "English is not in the language set"
    ev.outcomes[Strategy.MAJORITY] = evaluate(Strategy.MAJORITY, test, test_matrix)
    ev.outcomes[Strategy.ORACLE] = evaluate(Strategy.ORACLE, test, test_matrix)

    ev.global_choice = train_global_language(train_matrix)
    ev.outcomes[Strategy.GLOBAL_LANGUAGE] = evaluate(
        Strategy.GLOBAL_LANGUAGE, test, test_matrix, state=ev.global_choice
    )
    write_atomic(output_dir / "global_choice.json", (ev.global_choice.to_json() + "\n").encode("utf-8"))

    for strategy, state in ((Strategy.COUNTRY, country_map), (Strategy.LLM_SELECTED, llm_choices)):
        if isinstance(state, str):
            ev.skipped[strategy.value] = state
            continue
        try:
            ev.outcomes[strategy] = evaluate(strategy, test, test_matrix, state=state)
        except SelectorError as exc:  # a selection cache that misses test items
            ev.skipped[strategy.value] = str(exc)

    if isinstance(vectors, str):
        ev.skipped["lsk_extractor"] = vectors
        return ev
    paths = {k: output_dir / f"cluster_model_k{k}.json" for k in ks}
    train_vectors = train_array(vectors, train_matrix.items)
    dim = train_vectors.X.shape[1]
    models = {
        k: train_lsk_best(vectors, train_matrix, k, seeds, train=train_vectors, stored=stored_fit(path, k, dim))
        for k, path in paths.items()
    }
    del train_vectors  # two copies of the train array: not held while the models are scored and encoded
    for k, model in models.items():
        ev.sweep[k] = evaluate(
            Strategy.LSK_EXTRACTOR, test, test_matrix, state=LskRouter(model=model, vectors=vectors)
        )
        write_atomic(paths[k], (model.to_json() + "\n").encode("utf-8"))
    ev.cluster_model = models[ks[0]]
    ev.outcomes[Strategy.LSK_EXTRACTOR] = ev.sweep[ks[0]]
    return ev


def run_evaluate(
    config: RunConfig,
    k_list: Sequence[int] | None = None,
    seeds: Sequence[int] | None = None,
) -> StageResult:
    """Run every applicable strategy on the test split and write the reports."""
    model_name = _model_name_for_evaluate(config)
    items = load_items(config)
    train, test = split(items, config.split)
    ks = list(k_list) if k_list else list(config.k_list)
    fit_seeds = list(seeds) if seeds else list(config.seeds)
    _check_fit_parameters(ks, fit_seeds, len(train))
    directory = store_dir(config, model_name)
    if not (directory / "records.jsonl").exists():
        raise ConfigError(f"no records of model {model_name!r} at {directory}; run the infer stage first")

    with run_lock(config.output_dir):
        store = RunStore(directory)
        matrix = build_matrix(store, items, model_name, config.languages)
        counts = matrix_counts(matrix)

        if not any(i.country for i in test):
            country_map = "dataset has no country metadata"
        elif config.country_map_path is not None:
            country_map = CountryMap.from_json(config.country_map_path)
        else:
            country_map = bundled_country_map(config.dataset_id) or CountryMap.default_only()

        cache_path = selection_cache_path(config)
        llm_choices = f"no selection cache at {cache_path}; run the select-llm stage"
        if cache_path.exists():
            llm_choices = load_selection_cache(cache_path)

        emb_path = embeddings_path(config)
        vectors = f"no embedding cache at {emb_path}; run the embed stage"
        if emb_path.exists():
            vectors = EmbeddingCache(emb_path).vectors(train + test)
            uncovered = len(train) + len(test) - len(vectors)
            if uncovered:
                vectors = f"{uncovered} split items lack embeddings; rerun the embed stage"

        ev = evaluate_all(
            config.output_dir, matrix, train, test, ks, fit_seeds, country_map, llm_choices, vectors
        )
        rate, verification_counts = compute_verification_rate(store, matrix)
        store.save_index()
        snapshot = config_snapshot(config, model_name)
        snapshot["k_list"] = ks
        snapshot["seeds"] = fit_seeds
        snapshot["cells"] = counts
        snapshot["verification"] = verification_counts
        snapshot["skipped_strategies"] = ev.skipped
        summary = {"stage": "evaluate", "model_name": model_name, "cells": counts}
        summary["skipped_strategies"] = ev.skipped
        summary.update(ev.write_reports(config.dataset_id.value, model_name, snapshot, rate))
    return StageResult(EXIT_OK, summary)


def rerender_report(report_path: Path, fmt: str) -> bytes:
    """``report.json`` at ``report_path`` in ``fmt``, the bytes ``evaluate`` wrote for it. ConfigError
    if no report, that is, if a format cannot render it: every format refuses the same files."""
    report = read_json(report_path, ConfigError)
    try:
        for check in FORMATS:
            emit(report, check)
    except (ValueError, LookupError, TypeError, AttributeError) as exc:
        raise ConfigError(f"{report_path}: not a report: {exc!r}") from None
    return emit(report, fmt)


def _synthetic_store(data_dir: Path, data, spec_payload: dict) -> RunStore:
    store = RunStore(data_dir)
    manifest = read_manifest(data_dir)
    if manifest is None:
        store.write_manifest(
            {
                "model_name": SYNTHETIC_MODEL_NAME,
                "dataset_id": DatasetId.CUSTOM.value,
                "languages": [l.value for l in data.matrix.languages],
                "synthetic_spec": spec_payload,
            }
        )
    elif manifest.get("synthetic_spec") != spec_payload:
        raise ConfigError(f"{data_dir} holds the run of another synthetic spec; use a new output directory")
    # Each line is record_line's, put together from pieces quoted and encoded
    # once per item, language and label around the cell's prompt hash.
    model, ok, created_at = map(json_string, (SYNTHETIC_MODEL_NAME, RecordStatus.OK.value, "1970-01-01T00:00:00+00:00"))
    line = record_line("\0", "\0", model, '"\0"', "\0", "\0", ok, "1", created_at) + "\n"
    begin, after_id, after_code, after_hash, after_raw, end = line.split("\0")
    codes = [(lang._value_, (json_string(lang._value_) + after_code).encode()) for lang in data.matrix.languages]
    raws = {label: json.dumps({"final_answer": chr(label)}) for label in set(data.matrix.cells)}  # all cells are ok
    by_label = {
        label: ((after_hash + json_string(raw) + after_raw + json_string(chr(label)) + end).encode(), output_digest(raw))
        for label, raw in raws.items()
    }

    def entries():
        width = len(codes)
        for row, item in enumerate(data.items):
            item_id = item.item_id
            start = (begin + json_string(item_id) + after_id).encode()
            for (code, middle), label in zip(codes, data.matrix.cells[row * width : (row + 1) * width]):
                phash = prompt_hash(f"synthetic:{item_id}:{code}", SYNTHETIC_MODEL_NAME)
                tail, digest = by_label[label]
                key = (item_id, code, SYNTHETIC_MODEL_NAME, phash)
                yield key, start + middle + phash.encode() + tail, STATUS_OK, label, digest

    store.append(entries())
    store.flush()
    return store


def run_simulate(
    spec_path: Path,
    output_dir: Path,
    *,
    k_list: Sequence[int] | None = None,
    seeds: Sequence[int] = (0,),
    train_count: int | None = None,
    test_count: int | None = None,
) -> StageResult:
    """End-to-end pipeline on synthetic data with ground-truth comparison.

    The generated items, embedding cache, and inference records are written in
    the same formats the live pipeline uses, then the matrix is rebuilt from
    the store and every strategy is evaluated against it. The LLM-selected
    stand-in is a seeded uniform-random language choice per test item; the
    country strategy routes through the planted cluster-to-expert map. Bad
    split counts, k or seed values are refused first, and the store is filled
    next, so an output directory holding another spec's run is refused before
    anything in it is written.
    """
    spec_payload = read_json(spec_path, SyntheticSpecError)
    try:
        spec = SyntheticSpec.from_dict(spec_payload)
    except (ValueError, TypeError) as exc:  # not a spec
        raise SyntheticSpecError(f"{spec_path}: {exc}") from None
    n_test = test_count if test_count is not None else max(1, spec.n_items // 6)
    n_train = train_count if train_count is not None else spec.n_items - n_test
    if n_train < 1 or n_test < 1:
        raise ConfigError(f"train and test counts must be positive, got {n_train} and {n_test}")
    if n_train + n_test > spec.n_items:
        raise ConfigError(f"the split needs {n_train + n_test} items, the spec has {spec.n_items}")
    ks = list(k_list) if k_list else [spec.k_true]
    _check_fit_parameters(ks, seeds, n_train)
    data = generate(spec)
    summary: dict = {"stage": "simulate", "n_items": spec.n_items, "k_true": spec.k_true}

    with run_lock(output_dir):
        with _synthetic_store(output_dir / "store" / f"custom__{SYNTHETIC_MODEL_NAME}", data, spec_payload) as store:
            matrix = build_matrix(store, data.items, SYNTHETIC_MODEL_NAME, data.matrix.languages)
        if matrix.cells != data.matrix.cells:  # pragma: no cover - replay safety net
            raise RuntimeError("matrix rebuilt from store does not match generated matrix")
        save_dataset(data.items, output_dir / "items.jsonl")
        cache = EmbeddingCache(output_dir / "embeddings.jsonl")
        for item in data.items:
            cache.put(item_embedding_key(item), item.item_id, data.vectors[item.item_id])
        cache.save()

        train, test = split(data.items, SplitSpec(seed=spec.seed, train_count=n_train, test_count=n_test))
        country_map = CountryMap.from_entries({f"cluster-{c}": e for c, e in enumerate(data.experts)})
        rng = random.Random(spec.seed ^ 0x5E1EC7)
        llm_choices = {i.item_id: rng.choice(list(matrix.languages)) for i in test}
        ev = evaluate_all(output_dir, matrix, train, test, ks, seeds, country_map, llm_choices, data.vectors)

        recovered, total = planted_recovery(ev.cluster_model, data)
        ground_truth = {
            "expected_oracle_accuracy": round(expected_oracle_accuracy(spec), 6),
            "measured_oracle_accuracy": round(ev.outcomes[Strategy.ORACLE].accuracy, 6),
            "planted_experts_recovered": recovered,
            "clusters": total,
            "p_expert": spec.p_expert,
            "p_other": spec.p_other,
        }
        snapshot = {
            "synthetic_spec": spec_payload,
            "ground_truth": ground_truth,
            "seeds": list(seeds),
            "split": {"train_count": n_train, "test_count": n_test, "seed": spec.seed},
        }
        summary["ground_truth"] = ground_truth
        summary.update(ev.write_reports(DatasetId.CUSTOM.value, SYNTHETIC_MODEL_NAME, snapshot, None))
    return StageResult(EXIT_OK, summary)


def planted_recovery(model: ClusterModel, data) -> tuple[int, int]:
    """How many fitted clusters chose their planted cluster's expert language.

    Each fitted cluster is matched to the planted cluster contributing the
    majority of its members (over all generated items; ties go to the lowest
    planted cluster id).
    """
    item_ids = list(data.cluster_of)
    fitted = assign_many(np.stack([data.vectors[i] for i in item_ids]), model.centroids)
    planted_by_fitted: dict[int, Counter] = defaultdict(Counter)
    for item_id, cluster in zip(item_ids, fitted):
        planted_by_fitted[int(cluster)][data.cluster_of[item_id]] += 1
    recovered = 0
    for cluster, planted in planted_by_fitted.items():
        majority_planted = max(sorted(planted), key=planted.__getitem__)
        recovered += model.expert_language[cluster] == data.experts[majority_planted]
    return recovered, model.k
