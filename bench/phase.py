"""Child process that runs the timed phases of one set-up round.

Usage: ``python3 phase.py <workload> <round dir> <trace 0|1> <budget s>``.
The harness (``run.py``) has already written the inputs into the round
directory. This process imports langselect from ``src/`` of the checkout,
installs the tracing wrappers when asked, and runs the workload's phase again
and again, each on a fresh output directory where the workload needs one, as
long as the next phase is expected to end within the budget (at least once).
Right before every phase it has ``reference.py``, in a process of its own,
time a fixed workload that uses nothing of langselect, so the harness can
tell how fast the host ran while the phases did. It prints one JSON line:
when it was ready (``time.monotonic``), each phase's wall time, CPU time (all
threads of this process), the reference CPU time before it and its facts,
and its peak RSS. With tracing on, the spans of every phase (one root span
each) are written to ``spans.jsonl`` in the round directory after the last
phase.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"


def install_tracing(tracer) -> None:
    """Wrap the names the production path resolves at call time."""
    import requests

    from langselect import clustering, pipeline, prompts, store, translation

    def wrap_attr(owner, attr: str, name) -> None:
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr)))

    layer_names = {
        "generate": "synthetic.generate",
        "save_dataset": "datasets.save_dataset",
        "load_dataset": "datasets.load_dataset",
        "split": "datasets.split",
        "build_matrix": "store.build_matrix",
        "matrix_counts": "store.matrix_counts",
        "missing_cells": "store.missing_cells",
        "train_global_language": "selectors.train_global_language",
        "load_selection_cache": "selectors.load_selection_cache",
        "EmbeddingCache": "clustering.embedding_cache_load",
        "embed_items": "clustering.embed_items",
        "detect_language": "langid.detect_language",
        "extract_reasoning_text": "extraction.extract_reasoning_text",
        "extract_final_answer": "extraction.extract_final_answer",
        "extract_expert_language": "extraction.extract_expert_language",
        "build_reasoning_prompt": "prompts.build_reasoning_prompt",
        "build_selection_prompt": "prompts.build_selection_prompt",
        "chat_complete": "gateway.chat_complete",
        "translate_item": "translation.translate_item",
        "build_report": "report.build_report",
        "emit": "report.emit",
        "compute_verification_rate": "pipeline.compute_verification_rate",
        "config_snapshot": "pipeline.config_snapshot",
        "planted_recovery": "pipeline.planted_recovery",
        "_synthetic_store": "pipeline.synthetic_store",
        "write_atomic": "pipeline.write_atomic",
        "run_translate": "pipeline.run_translate",
        "run_infer": "pipeline.run_infer",
        "run_select_llm": "pipeline.run_select_llm",
        "run_embed": "pipeline.run_embed",
        "run_evaluate": "pipeline.run_evaluate",
    }
    for attr, name in layer_names.items():
        wrap_attr(pipeline, attr, name)
    wrap_attr(pipeline, "evaluate", lambda strategy, *a, **kw: f"selectors.{strategy.value}")
    wrap_attr(pipeline, "train_lsk_best", lambda vectors, matrix, k, *a, **kw: f"clustering.train_lsk_best.k{k}")
    pipeline.ThreadPoolExecutor = tracer.pool_class()

    run_store = pipeline.RunStore

    def load_store(*args, **kwargs):
        loaded = tracer.call("store.load", run_store, *args, **kwargs)
        tracer.counts["store.load.records"] += len(loaded)
        return loaded

    pipeline.RunStore = load_store
    wrap_attr(translation, "chat_complete", "gateway.chat_complete")
    wrap_attr(clustering, "embed_texts", "gateway.embed_texts")
    wrap_attr(clustering.EmbeddingCache, "save", "clustering.embedding_cache_save")
    wrap_attr(store.RunStore, "record", "store.record")
    wrap_attr(store.RunStore, "flush", "store.flush")
    wrap_attr(store.ResponseMatrix, "subset", "store.subset")
    wrap_attr(prompts.HashRegistry, "check", "prompts.hash_registry_check")
    wrap_attr(requests, "post", "gateway.http_post")


class Reference:
    """The reference workload of ``reference.py``, run in a process of its
    own, so that its memory does not count in this process's peak RSS. Its
    BLAS runs on one thread: idle BLAS threads spin, and their CPU time would
    count in the reference's."""

    def __init__(self) -> None:
        one_thread = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")
        self.process = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "reference.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env={**os.environ, **one_thread},
        )

    def time(self) -> float:
        """CPU time of one run of the reference workload."""
        self.process.stdin.write("run\n")
        self.process.stdin.flush()
        return float(self.process.stdout.readline())

    def close(self) -> None:
        self.process.stdin.close()
        try:
            self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()


def peak_rss_kb() -> int:
    """Peak RSS of this process's own address space (VmHWM).

    ``ru_maxrss`` is not used: on Linux it keeps the high-water mark of the
    spawning parent's address space across exec, so it would count set-up.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv: list[str]) -> int:
    workload_name, round_dir, trace, budget_s = argv[0], Path(argv[1]), argv[2] == "1", float(argv[3])
    sys.path.insert(0, str(SRC))
    import langselect

    if not Path(langselect.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"langselect imported from {langselect.__file__}, not from {SRC}")
    import spans
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    inputs = json.loads((round_dir / "inputs.json").read_text(encoding="utf-8"))
    tracer = None
    if trace:
        tracer = spans.Tracer()
        install_tracing(tracer)
    ready = time.monotonic()

    reference = Reference()
    try:
        phases = run_phases(workload, round_dir, inputs, tracer, budget_s, reference)
    finally:
        reference.close()

    peak_kb = peak_rss_kb()
    if tracer is not None:
        tracer.write(round_dir / "spans.jsonl")
    print(json.dumps({"ready": ready, "phases": phases, "peak_rss_kb": peak_kb}))
    return 0


def run_phases(workload, round_dir: Path, inputs: dict, tracer, budget_s: float, reference: Reference) -> list[dict]:
    """Run the phase while the next one is expected to end within the budget
    (at least once), timing the reference right before each."""
    phases: list[dict] = []
    state: dict = {}
    began = time.perf_counter()
    while True:
        index = len(phases)
        reference_s = reference.time()
        t0, cpu0 = time.perf_counter(), time.process_time()
        if tracer is None:
            facts = workload.phase(round_dir, inputs, None, index, state)
        else:
            facts = tracer.call("bench.phase", workload.phase, round_dir, inputs, tracer, index, state)
        wall_s, cpu_s = time.perf_counter() - t0, time.process_time() - cpu0
        workload.cleanup(round_dir, index)
        phases.append(
            {
                "wall_s": wall_s,
                "cpu_s": cpu_s,
                "reference_s": reference_s,
                "facts": facts,
                "counts": tracer.take_counts() if tracer else {},
            }
        )
        if time.perf_counter() - began + wall_s > budget_s:
            break
    return phases


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
