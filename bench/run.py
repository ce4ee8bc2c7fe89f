"""langselect benchmark harness.

Usage, from the root of a checkout::

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

A run is a fixed number of set-up rounds that share ``--seconds``. A round
builds fresh inputs from ``--seed`` (set-up), then one child process times
the workload's phase as often as fits in the round's share, at least once,
and the program's outputs of every phase are checked. With ``--trace 0`` the
end-to-end metrics of BENCHMARK.json are medians over the phases (set-up time
and peak RSS over the rounds); with ``--trace 1`` untraced and traced rounds
alternate, the per-layer metrics are medians over the traced phases, and the
tracing overhead is traced minus untraced median wall time.

``phase_s`` is the time of one timed phase. On ``live-stages``, which waits
on a stub endpoint's fixed latency, it is the phase's wall time. On the
CPU-bound workloads it is the phase's CPU time at reference host speed: its
CPU time times ``host.speed``, which is ``REFERENCE_S`` over the median CPU
time of a fixed reference workload (``reference.py``) that the child has
timed right before every phase. The host these workloads run on is shared: its speed
moves by half again over minutes and vCPU time is stolen from it, so their
wall time spreads past any useful bound from run to run. The reference slows
down with the host, so the product keeps the program's cost and drops most
of the host's drift. Raw wall time is still printed, and reported as
``trace.untraced_wall_s``.

Every metric is printed by name and unit with its spread (interquartile range
over median) and sample count; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--workload all``
(the default) runs every workload, untraced and traced unless ``--trace`` is
given. The exit code is 1 when an output check fails and 2 when the checkout
has no ``src/langselect`` to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
from workloads import LIVE_SHAPE, PINNED_REPORT_SHA256, WORKLOADS, stop_process

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"
DEFAULT_SEED = 1
# Set-up rounds per run: untraced, or alternating untraced and traced. Each
# round gets an equal share of what is left of --seconds for its phases.
ROUNDS = 3
TRACED_ROUNDS = 4
# Median time of reference.reference_s on the reference host (2 vCPU Xeon,
# Python 3.11), the speed CPU-bound phase times are scaled to.
REFERENCE_S = 0.215
# Start no round this long after the first began, whatever --seconds says,
# so that one run ends well within three minutes.
HARD_STOP_S = 120.0
PHASE_TIMEOUT_S = 150.0

STRATEGIES = ("only_english", "majority", "global_language", "llm_selected", "country", "lsk_extractor", "oracle")
STAGES = ("translate", "infer", "select_llm", "embed")


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median."""
    if len(values) < 2 or not statistics.median(values):
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


# --------------------------------------------------------------------------
# one set-up round


def run_round(workload, round_dir: Path, seed: int, trace: bool, budget_s: float) -> dict:
    """Set up fresh inputs, then time phases in one child process."""
    round_dir.mkdir(parents=True)
    began = time.monotonic()
    inputs = workload.setup(round_dir, seed)
    process = inputs.pop("_process", None)
    try:
        (round_dir / "inputs.json").write_text(json.dumps(inputs), encoding="utf-8")
        child = subprocess.run(
            [sys.executable, str(BENCH_DIR / "phase.py"), workload.name, str(round_dir), str(int(trace)), str(budget_s)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=PHASE_TIMEOUT_S,
        )
    finally:
        if process is not None:
            stop_process(process)
    if child.returncode != 0:
        raise RuntimeError(f"{workload.name} phase failed (exit {child.returncode}):\n{child.stderr[-4000:]}")
    out = json.loads(child.stdout.strip().splitlines()[-1])
    phases = [dict(p, traced=trace, inputs=inputs) for p in out["phases"]]
    if trace:
        trees = spans.split_by_root(spans.read_spans(round_dir / "spans.jsonl"))
        for phase, tree in zip(phases, trees):
            phase["layers"] = layer_metrics(spans.Rollup(tree), phase["counts"], phase["facts"])
        keep = RUNS / "traces" / f"{workload.name}-seed{seed}.jsonl"
        keep.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(round_dir / "spans.jsonl", keep)
    return {
        "setup_s": out["ready"] - began,
        "peak_rss_mb": out["peak_rss_kb"] / 1024.0,
        "traced": trace,
        "phases": phases,
    }


def rates(workload_name: str, phase: dict) -> tuple[float, float]:
    """(items_per_s, cells_per_s) of one phase.

    live-stages: translated (item, language) pairs per second of the translate
    stage, and matrix cells filled per second of the infer stage. Offline
    workloads: items and matrix cells processed per second of the phase, at
    reference host speed.
    """
    facts = phase["facts"]
    if workload_name == "live-stages":
        done = WORKLOADS[workload_name].outcomes(facts)
        pairs = done["translate_pairs"] - done["translate_failed"]
        return pairs / facts["stage_s"]["translate"], done["cells_filled"] / facts["stage_s"]["infer"]
    return facts["items"] / phase["phase_s"], facts["cells"] / phase["phase_s"]


def run_checks(workload, phase: dict, first: dict | None, seed: int) -> list[tuple[str, bool]]:
    checks = workload.checks(phase["facts"], phase["inputs"])
    sha = phase["facts"].get("report_sha256")
    if sha is not None:
        if first is not None:
            checks.append(("report.json is byte-identical across phases", sha == first["facts"]["report_sha256"]))
        if seed == DEFAULT_SEED:
            checks.append(("report.json equals the pinned digest", sha == PINNED_REPORT_SHA256[workload.name]))
    return checks


# --------------------------------------------------------------------------
# per-layer roll-up of one traced phase


def layer_metrics(rollup, counts: dict, facts: dict) -> dict[str, float]:
    m: dict[str, float] = {}
    s, calls, durations = rollup.self_s, rollup.calls, rollup.durations

    def timed(name: str) -> None:
        m[f"{name}.s"] = s.get(name, 0.0)

    def pct(name: str, q: float) -> float:
        return spans.percentile_us(durations.get(name, []), q)

    timed("store.record")
    m["store.record.calls"] = calls.get("store.record", 0)
    m["store.record.p50_us"] = pct("store.record", 0.5)
    m["store.record.p90_us"] = pct("store.record", 0.9)
    timed("store.load")
    m["store.load.calls"] = calls.get("store.load", 0)
    m["store.load.records"] = counts.get("store.load.records", 0)
    for name in ("store.build_matrix", "store.subset", "store.matrix_counts"):
        timed(name)
    for strategy in STRATEGIES:
        timed(f"selectors.{strategy}")
    timed("selectors.train_global_language")
    for k in (12, 24, 48):
        timed(f"clustering.train_lsk_best.k{k}")
    timed("clustering.embedding_cache_load")
    timed("clustering.embedding_cache_save")
    timed("langid.detect_language")
    m["langid.detect_language.calls"] = calls.get("langid.detect_language", 0)
    m["langid.detect_language.p50_us"] = pct("langid.detect_language", 0.5)
    for name in (
        "extraction.extract_reasoning_text",
        "pipeline.compute_verification_rate",
        "synthetic.generate",
        "datasets.save_dataset",
        "datasets.load_dataset",
        "report.build_report",
        "report.emit",
    ):
        timed(name)

    # Endpoint calls and attempts, attributed to the stage that made them.
    latency_s = LIVE_SHAPE["latency_ms"] / 1000.0
    call_names = ("gateway.chat_complete", "gateway.embed_texts")
    attempts_of: dict[int, int] = {}
    for span in rollup.spans:
        if span[2] == "gateway.http_post" and span[1] is not None:
            attempts_of[span[1]] = attempts_of.get(span[1], 0) + 1
    per_stage = {stage: {"calls": 0, "attempts": 0} for stage in STAGES}
    call_ms, overhead_ms = [], []
    for span in rollup.spans:
        if span[2] not in call_names:
            continue
        stage = _stage_of(rollup, span)
        if stage not in per_stage:
            continue
        attempts = attempts_of.get(span[0], 0)
        per_stage[stage]["calls"] += 1
        per_stage[stage]["attempts"] += attempts
        duration = span[4] - span[3]
        call_ms.append(duration)
        overhead_ms.append(duration - latency_s * attempts)
    for stage, c in per_stage.items():
        m[f"gateway.{stage}.calls"] = c["calls"]
        m[f"gateway.{stage}.attempts"] = c["attempts"]
        m[f"gateway.{stage}.retries"] = c["attempts"] - c["calls"]
    m["gateway.call_ms.p50"] = spans.percentile_us(call_ms, 0.5) / 1000.0
    m["gateway.call_ms.p90"] = spans.percentile_us(call_ms, 0.9) / 1000.0
    m["gateway.overhead_ms.p50"] = spans.percentile_us(overhead_ms, 0.5) / 1000.0

    stub = facts.get("stub")
    stage_s = facts.get("stage_s", {})
    if stub is not None:
        done = WORKLOADS["live-stages"].outcomes(facts)
        requests = sum(stub["requests"].values())
        useful = (
            done["translate_pairs"] - done["translate_failed"]
            + done["cells_filled"]
            + done["selections"] - done["selections_failed"]
            + done["embeds"] - done["embeds_failed"]
        )
        m["stub.requests"] = requests
        m["stub.faults"] = sum(stub["faults"].values())
        m["stub.busy_s"] = sum(stub["busy_s"].values())
        m["live.concurrency"] = m["stub.busy_s"] / sum(stage_s.values())
        m["live.infer.concurrency"] = stub["busy_s"]["infer"] / stage_s["infer"]
        m["live.useful_ratio"] = useful / requests if requests else 0.0
        m["live.resume.s"] = facts["resume_s"]
        m["live.resume.calls"] = facts["resume_requests"]
    else:
        for name in ("stub.requests", "stub.faults", "stub.busy_s", "live.concurrency", "live.infer.concurrency",
                     "live.useful_ratio", "live.resume.s", "live.resume.calls"):
            m[name] = 0.0

    timed("translation.translate_item")
    m["translation.translate_item.calls"] = calls.get("translation.translate_item", 0)
    timed("prompts.build_reasoning_prompt")
    timed("extraction.extract_final_answer")
    for stage in (*STAGES, "evaluate"):
        timed(f"pipeline.run_{stage}")

    for layer, value in rollup.layer_self_s.items():
        m[f"layer.{layer}.self_s"] = value
    m["trace.self_sum_s"] = sum(rollup.layer_self_s.values())
    return m


def _stage_of(rollup, span) -> str | None:
    stage = None
    for node in rollup.ancestors(span):
        if node[2] == "live.resume":
            return "resume"
        if stage is None and node[2].startswith("pipeline.run_"):
            stage = node[2][len("pipeline.run_"):]
    return stage


# --------------------------------------------------------------------------
# one run of one workload


def run_workload(workload, seed: int, seconds: float, trace: bool, declared: dict) -> tuple[dict, bool]:
    base = RUNS / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(base, ignore_errors=True)
    plan = [i % 2 == 1 for i in range(TRACED_ROUNDS)] if trace else [False] * ROUNDS
    rounds: list[dict] = []
    phases: list[dict] = []
    attempted = failed = 0
    failures: list[str] = []
    began = time.monotonic()
    try:
        for index, traced in enumerate(plan):
            elapsed = time.monotonic() - began
            if elapsed > HARD_STOP_S:
                break
            round_dir = base / f"round{len(rounds)}"
            budget_s = (seconds - elapsed) / (len(plan) - index)
            rounds.append(run_round(workload, round_dir, seed, traced, budget_s))
            shutil.rmtree(round_dir, ignore_errors=True)
            for phase in rounds[-1]["phases"]:
                for name, ok in run_checks(workload, phase, phases[0] if phases else None, seed):
                    attempted += 1
                    if not ok:
                        failed += 1
                        failures.append(f"round {len(rounds) - 1} phase {len(phases)}: {name}")
                if workload.name == "live-stages":
                    ops, ops_failed = workload.operations(phase["facts"], phase["inputs"])
                    attempted += ops
                    failed += ops_failed
                phases.append(phase)
    finally:
        shutil.rmtree(base, ignore_errors=True)

    untraced = [p for p in phases if not p["traced"]]
    # Host speed over the run. The reference is timed next to every phase;
    # its median is steadier than any one timing of it.
    speed = REFERENCE_S / median([p["reference_s"] for p in phases])
    for phase in phases:
        phase["phase_s"] = phase["cpu_s"] * speed if workload.cpu_bound else phase["wall_s"]
    series: dict[str, list[float]] = {
        "setup_s": [r["setup_s"] for r in rounds],
        "phase_s": [p["phase_s"] for p in untraced],
        "peak_rss_mb": [r["peak_rss_mb"] for r in rounds if not r["traced"]],
        "items_per_s": [rates(workload.name, p)[0] for p in untraced],
        "cells_per_s": [rates(workload.name, p)[1] for p in untraced],
    }
    if trace:
        traced_phases = [p for p in phases if p["traced"]]
        for name in traced_phases[0]["layers"]:
            series[name] = [p["layers"][name] for p in traced_phases]
        series["trace.wall_s"] = [p["wall_s"] for p in traced_phases]
        series["trace.untraced_wall_s"] = [p["wall_s"] for p in untraced]
        series["trace.overhead_s"] = [median(series["trace.wall_s"]) - median(series["trace.untraced_wall_s"])]
    else:
        series["wall_s"] = [p["wall_s"] for p in untraced]
    series["host.speed"] = [speed]

    wanted = declared["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in series]
    if missing:
        raise RuntimeError(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    units = {m["name"]: m["unit"] for m in (*declared["end_to_end"], *declared["per_layer"])}

    print(f"== {workload.name}  seed {seed}  trace {int(trace)}  set-up rounds {len(rounds)}  phases {len(phases)}")
    print(f"   {'metric':40s} {'median':>14s} {'unit':8s} {'spread':>8s} {'n':>4s}")
    for name, values in series.items():
        print(f"   {name:40s} {median(values):14.6g} {units.get(name, ''):8s} {spread(values):8.3f} {len(values):4d}")
    print(f"   failed_ratio {failed / attempted if attempted else 0.0:.6g} ({failed} failed of {attempted} attempted)")
    for failure in failures:
        print(f"   CHECK FAILED {failure}")
    if trace:
        layers = {k: median(v) for k, v in series.items() if k.startswith("layer.")}
        top = max(layers, key=layers.get)
        print(f"   largest layer self time: {top} {layers[top]:.4f} s")
        names = {k: median(v) for k, v in series.items() if k.endswith(".s") and not k.startswith("live.")}
        top = max(names, key=names.get)
        print(f"   largest self time by name: {top} {names[top]:.4f} s")
        wait = median(series["stub.busy_s"])
        if wait:
            other = max(v for k, v in layers.items() if k != "layer.gateway.self_s")
            print(f"   endpoint wait (stub busy) {wait:.4f} s of gateway self time {layers['layer.gateway.self_s']:.4f} s;"
                  f" largest other layer {other:.4f} s")
    correct = failed == 0
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": median(series[m["name"]]), "unit": m["unit"]} for m in wanted},
    }
    return result, correct


def main(argv: list[str] | None = None) -> int:
    declared_path = ROOT / "BENCHMARK.json"
    if not (SRC / "langselect" / "__init__.py").is_file() or not declared_path.is_file():
        print(f"no program to measure: {SRC / 'langselect'} or {declared_path} is missing", file=sys.stderr)
        return 2
    declared = json.loads(declared_path.read_text(encoding="utf-8"))
    names = [w["name"] for w in declared["workloads"]]

    parser = argparse.ArgumentParser(description="Run the langselect benchmark.")
    parser.add_argument("--workload", default="all", choices=[*names, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=float(declared["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    selected = names if args.workload == "all" else [args.workload]
    modes = [bool(args.trace)] if args.trace is not None else [False, True]
    all_correct = True
    for name in selected:
        for trace in modes:
            result, correct = run_workload(WORKLOADS[name], args.seed, args.seconds, trace, declared)
            all_correct &= correct
            print(json.dumps(result), flush=True)
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
