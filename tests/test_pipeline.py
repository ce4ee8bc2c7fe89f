"""The bounded executor and its failure triage, which drive the network stages,
and the reasoning-language verification rate that ``evaluate`` reports."""

import json
import logging
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from langselect import clustering, pipeline
from langselect import store as store_module
from langselect.clustering import EmbeddingCache, item_embedding_key
from langselect.config import load_config
from langselect.datasets import DatasetId, save_dataset, split
from langselect.gateway import AuthError, GatewayError, ModelEndpoint
from langselect.langid import DETECTOR_VERSION
from langselect.languages import Language
from langselect.prompts import prompt_hash
from langselect.store import (
    INDEX_NAME,
    UNDETECTABLE,
    UNDETECTED,
    VERDICT,
    InferenceRecord,
    RecordStatus,
    RunStore,
    build_matrix,
    matrix_counts,
)
from langselect.translation import ItemTranslationError

from helpers import make_item, read_index, stored_records, write_index


def endpoint(max_in_flight: int) -> ModelEndpoint:
    return ModelEndpoint(base_url="http://127.0.0.1:1", model_name="m", max_in_flight=max_in_flight)


class Work:
    """Records every task started and the peak number running at once.

    Task 0 returns at once (or raises ``first_error``); every other task
    takes ``seconds``.
    """

    def __init__(self, seconds: float, first_error: Exception | None = None):
        self.seconds = seconds
        self.first_error = first_error
        self.lock = threading.Lock()
        self.started: list[int] = []
        self.running = 0
        self.peak = 0

    def __call__(self, task: int) -> int:
        with self.lock:
            self.started.append(task)
            self.running += 1
            self.peak = max(self.peak, self.running)
        try:
            if task == 0 and self.first_error is not None:
                raise self.first_error
            if task:
                time.sleep(self.seconds)
            return task * 10
        finally:
            with self.lock:
                self.running -= 1


class Run:
    """``run_bounded``'s callbacks: every ``done`` call in order, and each ``persist``
    call with the number of ``done`` calls before it."""

    def __init__(self, stop_on_first: bool = False):
        self.stop_on_first = stop_on_first
        self.results: list = []
        self.persisted: list[int] = []

    def done(self, task, result, error) -> None:
        if self.stop_on_first:
            raise KeyboardInterrupt
        self.results.append((task, result, error))

    def persist(self) -> None:
        self.persisted.append(len(self.results))

    def __call__(self, work, tasks, max_in_flight: int = 2, **kwargs):
        return pipeline.run_bounded(endpoint(max_in_flight), work, tasks, self.done, self.persist, {}, **kwargs)


def test_passes_every_result_to_done_on_at_most_max_in_flight_threads(monkeypatch):
    pools = []

    class CountingPool(ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            pools.append(self._max_workers)

    monkeypatch.setattr(pipeline, "ThreadPoolExecutor", CountingPool)
    work = Work(seconds=0.02)
    run = Run()
    result = run(work, list(range(12)), max_in_flight=3)
    assert pools == [3]
    assert sorted(run.results) == [(task, task * 10, None) for task in range(12)]
    assert work.peak == 3
    assert result.exit_code == pipeline.EXIT_OK
    assert run.persisted == [12]


def test_task_errors_go_to_done_and_set_the_exit_code():
    # Per-task endpoint failures: a rejected reply, an untranslated item.
    rejected = GatewayError("rejected with status 400")
    untranslated = ItemTranslationError("q0", Language.THAI, "question", transport=True)
    for first_error in (rejected, untranslated):
        work = Work(seconds=0.0, first_error=first_error)
        run = Run()
        result = run(work, [0, 1, 2])
        results = {task: (result, error) for task, result, error in run.results}
        assert results.pop(0) == (None, first_error)
        assert results == {1: (10, None), 2: (20, None)}
        assert result.exit_code == pipeline.EXIT_PARTIAL
        assert run.persisted == [3]
    # Every task a transport failure: 4; a failure counted before the run as well: 3.
    for failed, exit_code in ((0, pipeline.EXIT_TRANSPORT), (1, pipeline.EXIT_PARTIAL)):
        run = Run()
        result = run(Work(seconds=0.0, first_error=untranslated), [0], failed=failed)
        assert (result.exit_code, run.results, run.persisted) == (exit_code, [(0, None, untranslated)], [1])
    assert Run()(Work(seconds=0.0, first_error=rejected), [0]).exit_code == pipeline.EXIT_PARTIAL


def test_other_task_errors_stop_the_run_and_are_raised_after_the_running_tasks_reach_done():
    running = threading.Event()

    def work(task: int) -> int:
        if task == 0:
            running.wait(timeout=5)
            raise ValueError("bug")
        running.set()
        time.sleep(0.1)
        return task * 10

    run = Run()
    with pytest.raises(ValueError, match="bug"):
        run(work, list(range(50)))
    # Task 0 fails while task 1 runs: no task is submitted after it, and task 1
    # is waited for and goes to done before persist.
    assert run.results == [(1, 10, None)]
    assert run.persisted == [1]


def test_an_interrupt_in_the_calling_thread_still_passes_every_finished_task_to_done(monkeypatch):
    work = Work(seconds=0.1)

    def interrupted_wait(futures, return_when):
        # Ctrl-C lands while the calling thread waits on three running tasks.
        deadline = time.monotonic() + 5
        while len(work.started) < 3 and time.monotonic() < deadline:
            time.sleep(0.001)
        raise KeyboardInterrupt

    monkeypatch.setattr(pipeline, "wait", interrupted_wait)
    run = Run()
    with pytest.raises(KeyboardInterrupt):
        run(work, list(range(50)), max_in_flight=3)
    assert sorted(work.started) == [0, 1, 2]
    assert sorted(run.results) == [(0, 0, None), (1, 10, None), (2, 20, None)]
    assert run.persisted == [3]


def test_keyboard_interrupt_in_done_cancels_queued_tasks():
    work = Work(seconds=0.2)
    run = Run(stop_on_first=True)
    with pytest.raises(KeyboardInterrupt):
        run(work, list(range(50)))
    # Task 0 ends at once, so its worker starts one more task before done
    # sees the result; every queued task after that is cancelled.
    assert len(work.started) <= 2 + 1
    assert run.persisted == [0]


def test_auth_error_cancels_queued_tasks_and_still_passes_running_ones_to_done():
    work = Work(seconds=0.1, first_error=AuthError("bad key"))
    run = Run()
    summary: dict = {}
    result = pipeline.run_bounded(endpoint(2), work, list(range(50)), run.done, run.persist, summary)
    assert (result.exit_code, result.summary) == (pipeline.EXIT_CONFIG, {"error": "bad key"})
    assert result.summary is summary
    assert len(work.started) <= 2 + 1
    assert sorted(task for task, _, _ in run.results) == sorted(work.started)[1:]
    assert all(error is None for _, _, error in run.results)
    assert run.persisted == [len(run.results)]


ENGLISH_TEXT = "The answer is B because it was the one that they have chosen."


def reasoning_record(item_id, language, text=ENGLISH_TEXT, model="m", status=RecordStatus.OK, prompt="h"):
    raw = {"final_answer": "B"} if text is None else {f"reasoning_in_{language.value}": text, "final_answer": "B"}
    return InferenceRecord(
        item_id=item_id,
        language=language,
        model_name=model,
        prompt_hash=prompt_hash(f"{prompt}-{item_id}", model),
        raw_output=json.dumps(raw, ensure_ascii=False),
        extracted_label="B" if status is RecordStatus.OK else None,
        status=status,
    )


@pytest.fixture
def verification_store(tmp_path):
    store = RunStore(tmp_path / "store")
    for record in [
        reasoning_record("q1", Language.ENGLISH, model="other"),
        reasoning_record("q2", Language.ENGLISH, status=RecordStatus.INVALID_OUTPUT),
        reasoning_record("q3", Language.GERMAN, "Der Ansatz ist nicht neu und die Ergebnisse sind klar."),
        reasoning_record("q4", Language.ENGLISH, text=None),
        reasoning_record("q5", Language.ENGLISH, "12345 67890 !!!"),
        reasoning_record("q6", Language.FRENCH),
        reasoning_record("q7", Language.ENGLISH),
    ]:
        store.record(record)
    yield store
    store.close()


EN_FR = [Language.ENGLISH, Language.FRENCH]


def verify(store, languages=EN_FR, item_ids=None):
    """The verification rate of model "m" over the matrix of ``item_ids``
    (by default every item ``store`` holds) in ``languages``."""
    if item_ids is None:
        item_ids = dict.fromkeys(record.item_id for record in stored_records(store))
    matrix = build_matrix(store, [make_item(i) for i in item_ids], "m", languages)
    return pipeline.compute_verification_rate(store, matrix)


def test_verification_rate_counts_only_ok_records_of_the_model_and_languages(verification_store):
    # q1 (other model), q2 (invalid output) and q3 (German, not requested) are
    # ignored; q4 (no reasoning key) and q5 (no detectable signal) are
    # undetectable; q6 is English text in a French cell; q7 matches.
    rate, counts = verify(verification_store)
    assert counts == {"checked": 2, "matched": 1, "undetectable": 2}
    assert rate == 0.5


def test_verification_rate_uses_the_given_detector(verification_store, monkeypatch):
    calls = []

    def always_french(text):
        calls.append(text)
        return Language.FRENCH

    monkeypatch.setattr(pipeline, "detect_language", always_french)
    rate, counts = verify(verification_store)
    assert sorted(calls) == sorted(["12345 67890 !!!", ENGLISH_TEXT, ENGLISH_TEXT])
    assert counts == {"checked": 3, "matched": 1, "undetectable": 1}
    assert rate == pytest.approx(1 / 3)


def test_verification_rate_is_none_when_nothing_is_checked(tmp_path):
    with RunStore(tmp_path / "store") as store:
        store.record(reasoning_record("q1", Language.ENGLISH, text=None))
        assert verify(store, [Language.ENGLISH]) == (None, {"checked": 0, "matched": 0, "undetectable": 1})


def test_verification_counts_the_record_each_matrix_cell_holds(tmp_path, detection_calls):
    # q1 is stored under two prompt hashes, and q9 is an item the dataset no
    # longer has: the matrix holds one ok cell, so verification checks one text.
    with RunStore(tmp_path / "store") as store:
        store.record(reasoning_record("q1", Language.ENGLISH))
        store.record(reasoning_record("q1", Language.ENGLISH, FRENCH_TEXT, prompt="h2"))
        store.record(reasoning_record("q9", Language.ENGLISH))
        matrix = build_matrix(store, [make_item("q1")], "m", [Language.ENGLISH])
        assert matrix_counts(matrix)["ok"] == 1
        rate, counts = pipeline.compute_verification_rate(store, matrix)
    assert (rate, counts) == (1.0, {"checked": 1, "matched": 1, "undetectable": 0})
    assert detection_calls["detect_language"] == 1


# --- The store's verdict column (``RunStore.verdicts``), kept in the store index (``records.index``).

FRENCH_TEXT = "Le modèle est entraîné dans les données et ce n'est pas pour une raison simple."


@pytest.fixture
def detection_calls(monkeypatch):
    """Counts the calls of the detector and of the reasoning-text extraction."""
    calls = {"detect_language": 0, "extract_reasoning_text": 0}
    for name in calls:
        real = getattr(pipeline, name)

        def counting(text, _name=name, _real=real):
            calls[_name] += 1
            return _real(text)

        monkeypatch.setattr(pipeline, name, counting)
    return calls


def evaluate_run(tmp_path, n_items=6, leave_out=()):
    """A run directory whose store holds one ok record, each with its own
    reasoning text, per (item, language) cell except ``leave_out``."""
    items = [make_item(f"q{i}") for i in range(n_items)]
    save_dataset(items, tmp_path / "data.jsonl")
    (tmp_path / "config.json").write_text(
        json.dumps(
            {
                "dataset": {"path": "data.jsonl", "id": "custom"},
                "output_dir": "out",
                "languages": ["en", "fr"],
                "split": {"seed": 3, "train_count": n_items - 2, "test_count": 2},
                "k_list": [2],
                "seeds": [0],
                "chat_endpoint": {"base_url": "http://127.0.0.1:1/v1", "model_name": "m"},
            }
        ),
        encoding="utf-8",
    )
    config = load_config(tmp_path / "config.json")
    with RunStore(pipeline.store_dir(config, "m")) as store:
        for item in items:
            for language, text in ((Language.ENGLISH, ENGLISH_TEXT), (Language.FRENCH, FRENCH_TEXT)):
                if (item.item_id, language) not in leave_out:
                    store.record(reasoning_record(item.item_id, language, f"{text} {item.item_id}"))
    return config


def report_bytes(config) -> bytes:
    return (pipeline.reports_dir(config) / "report.json").read_bytes()


def test_second_evaluate_of_an_unchanged_run_detects_nothing(tmp_path, detection_calls):
    config = evaluate_run(tmp_path)
    assert pipeline.run_evaluate(config).exit_code == pipeline.EXIT_OK
    assert detection_calls == {"detect_language": 12, "extract_reasoning_text": 12}
    cold = report_bytes(config)
    assert json.loads(cold)["config_snapshot"]["verification"] == {"checked": 12, "matched": 12, "undetectable": 0}

    detection_calls.update(dict.fromkeys(detection_calls, 0))
    assert pipeline.run_evaluate(config).exit_code == pipeline.EXIT_OK
    assert detection_calls == {"detect_language": 0, "extract_reasoning_text": 0}
    assert report_bytes(config) == cold


def store_files(directory) -> dict:
    """Every file of a store directory: its bytes, inode and modification time."""
    return {p.name: (p.read_bytes(), p.stat().st_ino, p.stat().st_mtime_ns) for p in sorted(directory.iterdir())}


@pytest.fixture
def parsed_lines(monkeypatch):
    """The lines of ``records.jsonl`` that opens of a store parse."""
    lines = []
    load, parse = RunStore._load, store_module._parse_line

    def counting(self):
        monkeypatch.setattr(store_module, "_parse_line", lambda text: lines.append(text) or parse(text))
        load(self)
        monkeypatch.setattr(store_module, "_parse_line", parse)

    monkeypatch.setattr(RunStore, "_load", counting)
    return lines


def test_second_evaluate_of_an_unchanged_run_reads_the_index_and_writes_no_store_file(tmp_path, parsed_lines):
    config = evaluate_run(tmp_path)
    directory = pipeline.store_dir(config, "m")
    assert pipeline.run_evaluate(config).exit_code == pipeline.EXIT_OK
    assert len(parsed_lines) == 12
    assert (directory / INDEX_NAME).exists()
    before = store_files(directory)
    cold = report_bytes(config)

    parsed_lines.clear()
    assert pipeline.run_evaluate(config).exit_code == pipeline.EXIT_OK
    assert parsed_lines == []
    assert store_files(directory) == before
    assert report_bytes(config) == cold


def test_evaluate_after_an_append_parses_only_the_appended_lines(tmp_path, parsed_lines):
    config = evaluate_run(tmp_path, leave_out={("q0", Language.FRENCH)})
    pipeline.run_evaluate(config)
    directory = pipeline.store_dir(config, "m")
    line_start = (directory / "records.jsonl").stat().st_size
    with RunStore(directory) as store:
        store.record(reasoning_record("q0", Language.FRENCH, f"{FRENCH_TEXT} q0"))
    warm_index = read_index(directory)[0]

    parsed_lines.clear()
    pipeline.run_evaluate(config)
    assert parsed_lines == [(directory / "records.jsonl").read_bytes()[line_start:-1].decode("utf-8")]  # no newline
    index, header = (directory / INDEX_NAME).read_bytes(), read_index(directory)[0]
    assert (warm_index["length"], warm_index["rows"]) == (line_start, 11)
    assert (header["length"], header["rows"]) == ((directory / "records.jsonl").stat().st_size, 12)
    warm = report_bytes(config)

    (directory / INDEX_NAME).unlink()
    pipeline.run_evaluate(config)
    assert report_bytes(config) == warm
    assert (directory / INDEX_NAME).read_bytes() == index


def test_cached_verdicts_count_as_a_fresh_detection_does(tmp_path, detection_calls):
    config = evaluate_run(tmp_path)
    directory = pipeline.store_dir(config, "m")
    with RunStore(directory) as store:
        cold = verify(store, config.languages)
        assert verify(store, config.languages) == cold == (1.0, {"checked": 12, "matched": 12, "undetectable": 0})
        store.save_index()
    with RunStore(directory) as store:  # the verdicts read back from the index
        assert verify(store, config.languages) == cold
    assert detection_calls["detect_language"] == 12


def test_one_appended_record_costs_one_detection(tmp_path, detection_calls):
    config = evaluate_run(tmp_path, leave_out={("q0", Language.FRENCH)})
    pipeline.run_evaluate(config)
    assert detection_calls["detect_language"] == 11
    with RunStore(pipeline.store_dir(config, "m")) as store:
        store.record(reasoning_record("q0", Language.FRENCH, f"{FRENCH_TEXT} q0"))

    detection_calls.update(dict.fromkeys(detection_calls, 0))
    pipeline.run_evaluate(config)
    assert detection_calls == {"detect_language": 1, "extract_reasoning_text": 1}
    verification = json.loads(report_bytes(config))["config_snapshot"]["verification"]
    assert verification == {"checked": 12, "matched": 12, "undetectable": 0}


def test_the_saved_index_holds_each_rows_verdict(verification_store):
    directory = verification_store.directory
    verification_store.close()
    with RunStore(directory) as store:
        verify(store)
        store.save_index()
    index, columns = read_index(directory)
    assert index["detector"] == {"version": DETECTOR_VERSION, "languages": [language.value for language in Language]}
    items = [index["items"][code] for code in np.frombuffer(columns["keys"], store_module._KEY)["codes"]["item"]]
    verdicts = dict(zip(items, columns["verdicts"]))
    # q1-q3 are in no ok cell of the matrix: not detected. q4 has no reasoning
    # text and q5 no detectable signal; q6 and q7 reasoned in English.
    assert verdicts == {
        **dict.fromkeys(["q1", "q2", "q3"], UNDETECTED),
        **dict.fromkeys(["q4", "q5"], UNDETECTABLE),
        **dict.fromkeys(["q6", "q7"], VERDICT[Language.ENGLISH]),
    }


def test_equal_outputs_are_detected_once(tmp_path, detection_calls):
    with RunStore(tmp_path / "store") as store:
        for item_id in ("q1", "q2", "q3"):  # one output, stored three times
            store.record(reasoning_record(item_id, Language.ENGLISH))
        store.record(reasoning_record("q4", Language.FRENCH, FRENCH_TEXT))
        assert verify(store)[1] == {"checked": 4, "matched": 4, "undetectable": 0}
        assert bytes(store.verdicts) == bytes([VERDICT[Language.ENGLISH]] * 3 + [VERDICT[Language.FRENCH]])
    assert detection_calls["detect_language"] == 2


def test_output_with_a_lone_surrogate_gets_a_verdict(tmp_path):
    record = reasoning_record("q1", Language.ENGLISH, ENGLISH_TEXT + " \ud800")
    with RunStore(tmp_path / "store") as store:
        store.record(record)
        rate, counts = verify(store, [Language.ENGLISH])
        assert bytes(store.verdicts) == bytes([VERDICT[Language.ENGLISH]])
    assert (rate, counts) == (1.0, {"checked": 1, "matched": 1, "undetectable": 0})


@pytest.mark.parametrize(
    "edit",
    [
        pytest.param(lambda detector: detector.update(version=detector["version"] + 1), id="detector-version"),
        pytest.param(lambda detector: detector["languages"].reverse(), id="language-order"),
    ],
)
def test_verdicts_of_another_detector_are_detected_again_without_a_parse(tmp_path, parsed_lines, detection_calls, edit):
    config = evaluate_run(tmp_path)
    pipeline.run_evaluate(config)
    index_path = pipeline.store_dir(config, "m") / INDEX_NAME
    good = index_path.read_bytes()
    cold = report_bytes(config)
    index, columns = read_index(index_path.parent)
    edit(index["detector"])
    write_index(index_path.parent, index, columns)

    parsed_lines.clear()
    detection_calls.update(dict.fromkeys(detection_calls, 0))
    pipeline.run_evaluate(config)
    assert parsed_lines == []
    assert detection_calls == {"detect_language": 12, "extract_reasoning_text": 12}
    assert index_path.read_bytes() == good  # rewritten, under this detector
    assert report_bytes(config) == cold


def test_no_evaluate_writes_a_verdicts_file(tmp_path):
    config = evaluate_run(tmp_path, leave_out={("q0", Language.FRENCH)})
    pipeline.run_evaluate(config)
    directory = pipeline.store_dir(config, "m")
    with RunStore(directory) as store:
        store.record(reasoning_record("q0", Language.FRENCH, f"{FRENCH_TEXT} q0"))
    pipeline.run_evaluate(config)
    pipeline.run_evaluate(config)
    assert sorted(p.name for p in directory.iterdir()) == [INDEX_NAME, "records.jsonl"]
    assert not list(config.output_dir.rglob("verdicts.json"))


# --- Stored k-means fits: each ``cluster_model_k{k}.json`` keeps its fit under its ``fit_key``.


@pytest.fixture
def fit_calls(monkeypatch):
    """(k, seed) of every ``kmeans_fit`` call."""
    calls = []
    real = clustering.kmeans_fit

    def counting(vectors, k, seed, **kwargs):
        calls.append((k, seed))
        return real(vectors, k, seed, **kwargs)

    monkeypatch.setattr(clustering, "kmeans_fit", counting)
    return calls


def fit_run(tmp_path, leave_out=()):
    """``evaluate_run`` over 16 items with random 8-d embeddings, k in {2, 3} and seeds {0, 1}."""
    config = replace(evaluate_run(tmp_path, n_items=16, leave_out=leave_out), k_list=(2, 3), seeds=(0, 1))
    rng = np.random.default_rng(0)
    cache = EmbeddingCache(pipeline.embeddings_path(config))
    for item in pipeline.load_items(config):
        cache.put(item_embedding_key(item), item.item_id, rng.normal(size=8))
    cache.save()
    return config


def model_path(config, k):
    return config.output_dir / f"cluster_model_k{k}.json"


def stored_fits(config) -> dict:
    """fit key -> (k, seed, centroids) of the model file of each k of ``config``."""
    models = [json.loads(model_path(config, k).read_bytes()) for k in config.k_list]
    return {model["fit_key"]: (model["k"], model["seed"], model["centroids_f8"]) for model in models}


def fit_key(config, k, fit_version):
    """The key of ``config``'s fit at k, as the fit code of ``fit_version`` names it."""
    train, _ = split(pipeline.load_items(config), config.split)
    vectors = EmbeddingCache(pipeline.embeddings_path(config)).vectors(train)
    array = clustering.train_array(vectors, [item.item_id for item in train])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(clustering, "FIT_VERSION", fit_version)
        return clustering._fit_key(array, k, sorted(set(config.seeds)))


def outputs(config) -> dict[str, bytes]:
    """Every file ``evaluate`` writes from the matrix: reports, global choice, cluster models."""
    out = config.output_dir
    paths = [*out.glob("reports/report.*"), out / "global_choice.json", *out.glob("cluster_model_k*.json")]
    return {str(p.relative_to(out)): p.read_bytes() for p in sorted(paths)}


def test_second_evaluate_of_an_unchanged_run_fits_nothing(tmp_path, fit_calls):
    config = fit_run(tmp_path)
    assert pipeline.run_evaluate(config).exit_code == pipeline.EXIT_OK
    assert sorted(fit_calls) == [(2, 0), (2, 1), (3, 0), (3, 1)]
    fits = stored_fits(config)
    assert sorted(k for k, _, _ in fits.values()) == [2, 3]

    fit_calls.clear()
    assert pipeline.run_evaluate(config).exit_code == pipeline.EXIT_OK
    assert fit_calls == []
    assert stored_fits(config) == fits


def test_cold_and_warm_evaluate_write_the_same_bytes(tmp_path, fit_calls):
    config = fit_run(tmp_path)
    pipeline.run_evaluate(config)
    cold = outputs(config)
    assert len(cold) == 6
    pipeline.run_evaluate(config)
    assert outputs(config) == cold

    # A cold run after the warm one, as well.
    for k in config.k_list:
        model_path(config, k).unlink()
    fit_calls.clear()
    pipeline.run_evaluate(config)
    assert len(fit_calls) == 4
    assert outputs(config) == cold


def test_appended_records_reuse_every_fit_and_count_in_the_experts(tmp_path, fit_calls):
    config = fit_run(tmp_path, leave_out={(f"q{i}", Language.FRENCH) for i in range(16)})
    pipeline.run_evaluate(config)
    before = outputs(config)
    with RunStore(pipeline.store_dir(config, "m")) as store:
        for i in range(16):
            record = reasoning_record(f"q{i}", Language.FRENCH, f"{FRENCH_TEXT} q{i}")
            store.record(record._replace(extracted_label="A"))

    fit_calls.clear()
    pipeline.run_evaluate(config)
    assert fit_calls == []
    warm = outputs(config)
    assert warm["cluster_model_k2.json"] != before["cluster_model_k2.json"]  # French accuracies now counted
    for k in config.k_list:
        model_path(config, k).unlink()
    pipeline.run_evaluate(config)
    assert outputs(config) == warm


def change_embedding(part):
    """A change of the embedding of one train (part 0) or test (part 1) item."""

    def change(config):
        item = split(pipeline.load_items(config), config.split)[part][0]
        cache = EmbeddingCache(pipeline.embeddings_path(config))
        cache.put(item_embedding_key(item), item.item_id, np.arange(1.0, 9.0))
        cache.save()
        return config

    return change


@pytest.mark.parametrize(
    "change, refits, kept_ks",
    [
        pytest.param(lambda c: replace(c, k_list=(2, 4)), [(4, 0), (4, 1)], [2, 4], id="k-list"),
        pytest.param(lambda c: replace(c, seeds=(0, 2)), [(2, 0), (2, 2), (3, 0), (3, 2)], [2, 3], id="seed-set"),
        pytest.param(
            lambda c: replace(c, split=replace(c.split, seed=4)), [(2, 0), (2, 1), (3, 0), (3, 1)], [2, 3], id="split"
        ),
        pytest.param(change_embedding(0), [(2, 0), (2, 1), (3, 0), (3, 1)], [2, 3], id="train-embedding"),
        pytest.param(change_embedding(1), [], [2, 3], id="test-embedding"),
    ],
)
def test_a_changed_input_refits_only_the_fits_it_changes(tmp_path, fit_calls, change, refits, kept_ks):
    config = fit_run(tmp_path)
    pipeline.run_evaluate(config)
    before = stored_fits(config)

    fit_calls.clear()
    config = change(config)
    pipeline.run_evaluate(config)
    assert sorted(fit_calls) == refits
    after = stored_fits(config)
    assert sorted(k for k, _, _ in after.values()) == kept_ks
    reused = set(after) & set(before)
    assert len(reused) == len(kept_ks) - len({k for k, _ in refits})
    assert all(after[key] == before[key] for key in reused)


def damage(config, path, how):
    if how == "missing":
        path.unlink()
    elif how == "truncated":
        path.write_bytes(path.read_bytes()[:-20])
    else:
        model = json.loads(path.read_bytes())
        if how == "no-key":  # as the model files of earlier versions are
            del model["fit_key"]
        elif how == "other-fit-version":
            model["fit_key"] = fit_key(config, model["k"], clustering.FIT_VERSION + 1)
        elif how == "wrong-row-count":
            model["centroids_f8"].pop()
        elif how == "wrong-width":  # with the fit's key intact, and a dim that matches the rows
            model["dim"] //= 2
            model["centroids_f8"] = [clustering.encode_f8(np.ones(model["dim"])) for _ in range(model["k"])]
        else:  # non-finite, with the fit's key intact
            model["centroids_f8"][0] = clustering.encode_f8(np.full(model["dim"], np.nan))
        path.write_text(json.dumps(model, indent=2), encoding="ascii")


# How a damaged model file is logged: a missing one at debug level, one that
# stores no fit of this version as a warning; one of another fit's key is the
# usual change of input.
LOGGED = {
    "missing": [logging.DEBUG],
    "truncated": [logging.WARNING],
    "no-key": [logging.WARNING],
    "other-fit-version": [],
    "wrong-row-count": [logging.WARNING],
    "wrong-width": [logging.WARNING],
    "non-finite": [logging.WARNING],
}


@pytest.mark.parametrize("how", list(LOGGED))
def test_a_model_file_without_this_fit_is_refit_to_a_cold_runs_bytes(
    tmp_path, detection_calls, fit_calls, caplog, how
):
    caplog.set_level(logging.DEBUG, logger="langselect.clustering")
    config = fit_run(tmp_path)
    pipeline.run_evaluate(config)
    assert (detection_calls["detect_language"], len(fit_calls)) == (32, 4)
    expected = outputs(config)
    path = model_path(config, 3)
    assert json.loads(path.read_bytes())["fit_key"] == fit_key(config, 3, clustering.FIT_VERSION)
    damage(config, path, how)

    detection_calls.update(dict.fromkeys(detection_calls, 0))
    fit_calls.clear()
    caplog.clear()
    pipeline.run_evaluate(config)
    assert detection_calls["detect_language"] == 0
    assert sorted(fit_calls) == [(3, 0), (3, 1)]
    assert [r.levelno for r in caplog.records if r.getMessage().startswith(f"{path}: ")] == LOGGED[how]
    assert outputs(config) == expected


def test_a_bad_derived_field_under_an_intact_fit_is_recomputed_without_a_refit(tmp_path, fit_calls, caplog):
    # Only the fit key, seed and centroids of a model file are read: the experts,
    # accuracies and member counts are recomputed on every run, whatever the file holds.
    caplog.set_level(logging.DEBUG, logger="langselect.clustering")
    config = fit_run(tmp_path)
    pipeline.run_evaluate(config)
    expected = outputs(config)
    path = model_path(config, 3)
    model = json.loads(path.read_bytes())
    model["expert_language"]["0"] = "xx"
    model["train_accuracy"] = "not read"
    del model["member_counts"]
    path.write_text(json.dumps(model, indent=2), encoding="ascii")

    fit_calls.clear()
    caplog.clear()
    pipeline.run_evaluate(config)
    assert fit_calls == []
    assert caplog.records == []
    assert outputs(config) == expected


def test_no_evaluate_reads_or_writes_a_kmeans_fits_file(tmp_path, fit_calls, caplog):
    caplog.set_level(logging.DEBUG)
    config = fit_run(tmp_path)
    pipeline.run_evaluate(config)
    assert not (config.output_dir / "kmeans_fits.json").exists()

    for k in config.k_list:
        model_path(config, k).unlink()
    old_fits = config.output_dir / "kmeans_fits.json"  # as earlier versions kept the fits
    old_fits.write_bytes(b'{"version": 1, "values": ')
    fit_calls.clear()
    pipeline.run_evaluate(config)
    assert len(fit_calls) == 4
    assert "kmeans_fits" not in caplog.text
    assert old_fits.read_bytes() == b'{"version": 1, "values": '


@pytest.mark.parametrize("dataset_id", list(DatasetId))
def test_a_country_map_ships_for_the_two_country_datasets_only(dataset_id):
    country_map = pipeline.bundled_country_map(dataset_id)
    assert (country_map is not None) == (dataset_id in (DatasetId.BLEND, DatasetId.CULTURE_ATLAS))
