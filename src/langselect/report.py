"""Evaluation reports: per-strategy accuracies, language distributions,
cluster heatmaps, and cluster-size sweeps, emitted as plot-ready tables.

A report is the plain JSON document ``report.json`` holds: ``build_report``
returns the dict that ``json.loads`` reads back from it, quantized to 4
decimals at build time, so every emission of it is byte-identical. The CSV
and Markdown emitters put strategies, languages and k in display order
whatever order the dict's keys come in, so a report re-rendered from its
``report.json`` equals the one rendered at build. Oracle dominance is
re-asserted at build; a violation is a selector bug, never a report to
publish.
"""

from __future__ import annotations

import io
import json
from collections import Counter
from fractions import Fraction

from .clustering import ClusterModel
from .languages import Language, canonical_index
from .selectors import SINGLE_LANGUAGE_STRATEGIES, SelectorOutcome, Strategy

_STRATEGY_RANK = {strategy.value: rank for rank, strategy in enumerate(Strategy)}  # declaration order

FORMATS = {"json": "json", "csv": "csv", "markdown": "md"}  # each format's report file suffix


class ReportError(ValueError):
    pass


class ReportIntegrityError(RuntimeError):
    """A theorem of the selector definitions failed; the run is buggy."""


def compute_accuracy(outcome: SelectorOutcome) -> Fraction:
    """Accuracy as an exact reduced rational."""
    if not outcome.per_item:
        raise ReportError("outcome has no items")
    return Fraction(outcome.correct_count, len(outcome.per_item))


def quantize(value: Fraction | float) -> float:
    """Fix the rendered precision (4 decimals) once, at report build time."""
    return float(f"{float(value):.4f}")


def language_distribution(outcome: SelectorOutcome) -> dict[Language, int]:
    """Counts of chosen languages; items with no choice (oracle misses) are
    omitted. Majority has no single chosen language and is excluded."""
    if outcome.strategy is Strategy.MAJORITY:
        raise ReportError("majority chooses no single language, so it has no language distribution")
    return dict(Counter(item.language for item in outcome.per_item if item.language is not None))


def cluster_heatmap(model: ClusterModel) -> list[dict]:
    """One row per cluster: expert language and per-language accuracies."""
    return [
        {
            "cluster_id": cluster,
            "expert": model.expert_language[cluster].value,
            "member_count": model.member_counts[cluster],
            "accuracy": {lang.value: quantize(acc) for lang, acc in model.train_accuracy[cluster].items()},
        }
        for cluster in sorted(model.expert_language)
    ]


def build_report(
    dataset_id: str,
    model_name: str,
    outcomes: dict[Strategy, SelectorOutcome],
    *,
    global_language_choice: Language | None = None,
    cluster_model: ClusterModel | None = None,
    cluster_size_sweep: dict[int, SelectorOutcome] | None = None,
    verification_rate: float | None = None,
    config_snapshot: dict | None = None,
) -> dict:
    """Assemble and integrity-check the report for one (dataset, model) run,
    as the dict its ``report.json`` reads back to."""
    exact = {strategy: compute_accuracy(outcome) for strategy, outcome in outcomes.items()}
    if Strategy.ORACLE in exact:
        oracle = exact[Strategy.ORACLE]
        offenders = [s.value for s, acc in exact.items() if acc > oracle]
        if offenders:
            raise ReportIntegrityError(
                f"oracle dominance violated by {offenders}; selector implementation is broken"
            )
    test_sizes = {len(outcome.per_item) for outcome in outcomes.values()}
    if len(test_sizes) > 1:
        raise ReportError(f"outcomes cover different test sizes: {sorted(test_sizes)}")

    distributions: dict[str, dict[str, int]] = {}
    for strategy, outcome in outcomes.items():
        if strategy is Strategy.MAJORITY:
            continue
        dist = language_distribution(outcome)
        if strategy in SINGLE_LANGUAGE_STRATEGIES and sum(dist.values()) != len(outcome.per_item):
            raise ReportIntegrityError(f"{strategy.value} distribution does not cover the test set")
        distributions[strategy.value] = {lang.value: n for lang, n in dist.items()}

    if verification_rate is not None and not 0.0 <= verification_rate <= 1.0:
        raise ReportError("verification_rate must be in [0, 1]")

    return {
        "dataset_id": dataset_id,
        "model_name": model_name,
        "accuracy_by_strategy": {strategy.value: quantize(acc) for strategy, acc in exact.items()},
        "global_language_choice": global_language_choice.value if global_language_choice else None,
        "language_distribution": distributions,
        "cluster_heatmap": cluster_heatmap(cluster_model) if cluster_model is not None else [],
        "cluster_size_sweep": {
            str(k): quantize(compute_accuracy(outcome)) for k, outcome in (cluster_size_sweep or {}).items()
        },
        "verification_rate": quantize(verification_rate) if verification_rate is not None else None,
        "config_snapshot": json.loads(json.dumps(config_snapshot or {})),
    }


def _by_strategy(mapping: dict) -> list[tuple]:
    return sorted(mapping.items(), key=lambda kv: _STRATEGY_RANK[kv[0]])


def _languages(codes) -> list[str]:
    """Language codes in canonical order."""
    return sorted(codes, key=lambda code: canonical_index(Language(code)))


def _by_k(sweep: dict) -> list[tuple]:
    return sorted(sweep.items(), key=lambda kv: int(kv[0]))


def _fmt(value: float | None) -> str:
    return "" if value is None else f"{value:.4f}"


def _emit_csv(report: dict) -> bytes:
    out = io.StringIO()
    out.write("section,strategy,accuracy\n")
    for strategy, acc in _by_strategy(report["accuracy_by_strategy"]):
        out.write(f"accuracy,{strategy},{_fmt(acc)}\n")
    out.write("\nsection,strategy,language,count\n")
    for strategy, dist in _by_strategy(report["language_distribution"]):
        for lang in _languages(dist):
            out.write(f"language_distribution,{strategy},{lang},{dist[lang]}\n")
    heatmap = report["cluster_heatmap"]
    languages = _languages(heatmap[0]["accuracy"]) if heatmap else []
    out.write("\nsection,cluster_id,expert,member_count")
    for lang in languages:
        out.write(f",acc_{lang}")
    out.write("\n")
    for row in heatmap:
        out.write(f"cluster_heatmap,{row['cluster_id']},{row['expert']},{row['member_count']}")
        for lang in languages:
            out.write(f",{_fmt(row['accuracy'][lang])}")
        out.write("\n")
    out.write("\nsection,k,accuracy\n")
    for k, acc in _by_k(report["cluster_size_sweep"]):
        out.write(f"cluster_size_sweep,{k},{_fmt(acc)}\n")
    out.write("\nsection,value\n")
    out.write(f"verification_rate,{_fmt(report['verification_rate'])}\n")
    return out.getvalue().encode("utf-8")


def _emit_markdown(report: dict) -> bytes:
    out = io.StringIO()
    out.write(f"# Evaluation report: {report['dataset_id']} / {report['model_name']}\n\n")
    out.write("## Accuracy by strategy\n\n")
    out.write("| strategy | accuracy |\n|---|---|\n")
    for strategy, acc in _by_strategy(report["accuracy_by_strategy"]):
        suffix = ""
        if strategy == Strategy.GLOBAL_LANGUAGE.value and report["global_language_choice"]:
            suffix = f" (chose {report['global_language_choice']})"
        out.write(f"| {strategy}{suffix} | {_fmt(acc)} |\n")
    distributions = report["language_distribution"]
    if distributions:
        out.write("\n## Language distribution (chosen language counts)\n\n")
        languages = sorted({lang for dist in distributions.values() for lang in dist})
        out.write("| strategy | " + " | ".join(languages) + " |\n")
        out.write("|---|" + "---|" * len(languages) + "\n")
        for strategy, dist in _by_strategy(distributions):
            out.write(f"| {strategy} | " + " | ".join(str(dist.get(lang, 0)) for lang in languages) + " |\n")
    heatmap = report["cluster_heatmap"]
    if heatmap:
        out.write("\n## Cluster experts and per-language training accuracy\n\n")
        languages = _languages(heatmap[0]["accuracy"])
        out.write("| cluster | expert | members | " + " | ".join(languages) + " |\n")
        out.write("|---|---|---|" + "---|" * len(languages) + "\n")
        for row in heatmap:
            accs = " | ".join(_fmt(row["accuracy"][lang]) for lang in languages)
            out.write(f"| {row['cluster_id']} | {row['expert']} | {row['member_count']} | {accs} |\n")
    if report["cluster_size_sweep"]:
        out.write("\n## Cluster-size sweep\n\n| k | accuracy |\n|---|---|\n")
        for k, acc in _by_k(report["cluster_size_sweep"]):
            out.write(f"| {k} | {_fmt(acc)} |\n")
    if report["verification_rate"] is not None:
        out.write(f"\n## Reasoning-language verification rate\n\n{_fmt(report['verification_rate'])}\n")
    return out.getvalue().encode("utf-8")


def emit(report: dict, format: str) -> bytes:
    """Serialize the report; bytes are deterministic for a fixed report."""
    if format == "json":
        return (json.dumps(report, ensure_ascii=False, indent=2, sort_keys=True) + "\n").encode("utf-8")
    if format == "csv":
        return _emit_csv(report)
    if format == "markdown":
        return _emit_markdown(report)
    raise ReportError(f"unknown format {format!r}; expected one of {tuple(FORMATS)}")
