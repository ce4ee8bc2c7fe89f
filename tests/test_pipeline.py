"""The bounded executor that drives the network stages, and the reasoning-language
verification rate that ``evaluate`` reports."""

import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from langselect import pipeline
from langselect.gateway import AuthError, ModelEndpoint
from langselect.languages import Language
from langselect.store import InferenceRecord, RecordStatus, RunStore


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


def test_yields_every_result_on_at_most_max_in_flight_threads(monkeypatch):
    pools = []

    class CountingPool(ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            pools.append(self._max_workers)

    monkeypatch.setattr(pipeline, "ThreadPoolExecutor", CountingPool)
    work = Work(seconds=0.02)
    results = list(pipeline.run_bounded(endpoint(3), work, list(range(12))))
    assert pools == [3]
    assert sorted(results) == [(task, task * 10, None) for task in range(12)]
    assert work.peak == 3


def test_task_errors_are_yielded_not_raised():
    work = Work(seconds=0.0, first_error=ValueError("bad task"))
    results = {task: (result, error) for task, result, error in pipeline.run_bounded(endpoint(2), work, [0, 1, 2])}
    result, error = results.pop(0)
    assert result is None and isinstance(error, ValueError)
    assert results == {1: (10, None), 2: (20, None)}


def test_keyboard_interrupt_in_consumer_cancels_queued_tasks():
    work = Work(seconds=0.2)
    with pytest.raises(KeyboardInterrupt):
        for _ in pipeline.run_bounded(endpoint(2), work, list(range(50))):
            raise KeyboardInterrupt
    # Task 0 ends at once, so its worker starts one more task before the
    # consumer sees the result; every queued task after that is cancelled.
    assert len(work.started) <= 2 + 1


def test_auth_error_cancels_queued_tasks_and_still_yields_running_ones():
    work = Work(seconds=0.1, first_error=AuthError("bad key"))
    results = list(pipeline.run_bounded(endpoint(2), work, list(range(50))))
    assert isinstance(results[0][2], AuthError)
    assert len(work.started) <= 2 + 1
    assert sorted(task for task, _, _ in results) == sorted(work.started)


ENGLISH_TEXT = "The answer is B because it was the one that they have chosen."


def reasoning_record(item_id, language, text=ENGLISH_TEXT, model="m", status=RecordStatus.OK):
    raw = {"final_answer": "B"} if text is None else {f"reasoning_in_{language.value}": text, "final_answer": "B"}
    return InferenceRecord(
        item_id=item_id,
        language=language,
        model_name=model,
        prompt_hash=f"h-{item_id}",
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


def test_verification_rate_counts_only_ok_records_of_the_model_and_languages(verification_store):
    # q1 (other model), q2 (invalid output) and q3 (German, not requested) are
    # ignored; q4 (no reasoning key) and q5 (no detectable signal) are
    # undetectable; q6 is English text in a French cell; q7 matches.
    rate, counts = pipeline.compute_verification_rate(
        verification_store, "m", [Language.ENGLISH, Language.FRENCH]
    )
    assert counts == {"checked": 2, "matched": 1, "undetectable": 2}
    assert rate == 0.5


def test_verification_rate_uses_the_given_detector(verification_store):
    calls = []

    def always_french(text):
        calls.append(text)
        return Language.FRENCH

    rate, counts = pipeline.compute_verification_rate(
        verification_store, "m", [Language.ENGLISH, Language.FRENCH], detector=always_french
    )
    assert sorted(calls) == sorted(["12345 67890 !!!", ENGLISH_TEXT, ENGLISH_TEXT])
    assert counts == {"checked": 3, "matched": 1, "undetectable": 1}
    assert rate == pytest.approx(1 / 3)


def test_verification_rate_is_none_when_nothing_is_checked(tmp_path):
    with RunStore(tmp_path / "store") as store:
        store.record(reasoning_record("q1", Language.ENGLISH, text=None))
        assert pipeline.compute_verification_rate(store, "m", [Language.ENGLISH]) == (
            None,
            {"checked": 0, "matched": 0, "undetectable": 1},
        )
