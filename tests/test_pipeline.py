"""The bounded executor that drives the network stages."""

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from langselect import pipeline
from langselect.gateway import AuthError, ModelEndpoint


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
