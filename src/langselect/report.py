"""Evaluation reports: per-strategy accuracies, language distributions,
cluster heatmaps, and cluster-size sweeps, emitted as plot-ready tables.

Reports are value objects quantized to 4 decimals at build time, so every
emission of the same report is byte-identical and the JSON form round-trips
to an equal report. Oracle dominance is re-asserted at build; a violation is
a selector bug, never a report to publish.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, field
from fractions import Fraction

from .clustering import ClusterModel
from .languages import Language, canonical_sorted
from .selectors import SINGLE_LANGUAGE_STRATEGIES, SelectorOutcome, Strategy

_STRATEGY_ORDER = (
    Strategy.ONLY_ENGLISH,
    Strategy.MAJORITY,
    Strategy.GLOBAL_LANGUAGE,
    Strategy.LLM_SELECTED,
    Strategy.COUNTRY,
    Strategy.LSK_EXTRACTOR,
    Strategy.ORACLE,
)

FORMATS = ("json", "csv", "markdown")


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
    counts: dict[Language, int] = {}
    for item in outcome.per_item:
        if item.language is not None:
            counts[item.language] = counts.get(item.language, 0) + 1
    return {lang: counts[lang] for lang in canonical_sorted(counts)}


@dataclass(frozen=True)
class HeatmapRow:
    cluster_id: int
    expert: str
    member_count: int
    accuracy: dict[str, float]


def cluster_heatmap(model: ClusterModel) -> list[HeatmapRow]:
    """One row per cluster: expert language and per-language accuracies."""
    rows = []
    for cluster in sorted(model.expert_language):
        accs = model.train_accuracy[cluster]
        ordered = {lang.value: quantize(accs[lang]) for lang in canonical_sorted(accs)}
        rows.append(
            HeatmapRow(
                cluster_id=cluster,
                expert=model.expert_language[cluster].value,
                member_count=model.member_counts[cluster],
                accuracy=ordered,
            )
        )
    return rows


@dataclass(frozen=True)
class EvaluationReport:
    dataset_id: str
    model_name: str
    accuracy_by_strategy: dict[str, float]
    global_language_choice: str | None
    language_distribution: dict[str, dict[str, int]]
    cluster_heatmap: list[HeatmapRow]
    cluster_size_sweep: dict[int, float]
    verification_rate: float | None
    config_snapshot: dict = field(default_factory=dict)


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
) -> EvaluationReport:
    """Assemble and integrity-check the report for one (dataset, model) run."""
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
    for strategy in _STRATEGY_ORDER:
        outcome = outcomes.get(strategy)
        if outcome is None or strategy is Strategy.MAJORITY:
            continue
        dist = language_distribution(outcome)
        if strategy in SINGLE_LANGUAGE_STRATEGIES and sum(dist.values()) != len(outcome.per_item):
            raise ReportIntegrityError(f"{strategy.value} distribution does not cover the test set")
        distributions[strategy.value] = {lang.value: n for lang, n in dist.items()}

    if verification_rate is not None and not 0.0 <= verification_rate <= 1.0:
        raise ReportError("verification_rate must be in [0, 1]")

    return EvaluationReport(
        dataset_id=dataset_id,
        model_name=model_name,
        accuracy_by_strategy={
            strategy.value: quantize(exact[strategy]) for strategy in _STRATEGY_ORDER if strategy in exact
        },
        global_language_choice=global_language_choice.value if global_language_choice else None,
        language_distribution=distributions,
        cluster_heatmap=cluster_heatmap(cluster_model) if cluster_model is not None else [],
        cluster_size_sweep={
            k: quantize(compute_accuracy(outcome))
            for k, outcome in sorted((cluster_size_sweep or {}).items())
        },
        verification_rate=quantize(verification_rate) if verification_rate is not None else None,
        config_snapshot=dict(config_snapshot or {}),
    )


def _report_payload(report: EvaluationReport) -> dict:
    return {
        "dataset_id": report.dataset_id,
        "model_name": report.model_name,
        "accuracy_by_strategy": report.accuracy_by_strategy,
        "global_language_choice": report.global_language_choice,
        "language_distribution": report.language_distribution,
        "cluster_heatmap": [
            {
                "cluster_id": row.cluster_id,
                "expert": row.expert,
                "member_count": row.member_count,
                "accuracy": row.accuracy,
            }
            for row in report.cluster_heatmap
        ],
        "cluster_size_sweep": {str(k): v for k, v in report.cluster_size_sweep.items()},
        "verification_rate": report.verification_rate,
        "config_snapshot": report.config_snapshot,
    }


def report_from_json(data: bytes | str) -> EvaluationReport:
    payload = json.loads(data)
    return EvaluationReport(
        dataset_id=payload["dataset_id"],
        model_name=payload["model_name"],
        accuracy_by_strategy=dict(payload["accuracy_by_strategy"]),
        global_language_choice=payload.get("global_language_choice"),
        language_distribution={s: dict(d) for s, d in payload["language_distribution"].items()},
        cluster_heatmap=[
            HeatmapRow(
                cluster_id=row["cluster_id"],
                expert=row["expert"],
                member_count=row["member_count"],
                accuracy=dict(row["accuracy"]),
            )
            for row in payload["cluster_heatmap"]
        ],
        cluster_size_sweep={int(k): v for k, v in payload["cluster_size_sweep"].items()},
        verification_rate=payload.get("verification_rate"),
        config_snapshot=dict(payload.get("config_snapshot", {})),
    )


def _emit_json(report: EvaluationReport) -> bytes:
    return (json.dumps(_report_payload(report), ensure_ascii=False, indent=2, sort_keys=True) + "\n").encode("utf-8")


def _fmt(value: float | None) -> str:
    return "" if value is None else f"{value:.4f}"


def _emit_csv(report: EvaluationReport) -> bytes:
    out = io.StringIO()
    out.write("section,strategy,accuracy\n")
    for strategy, acc in report.accuracy_by_strategy.items():
        out.write(f"accuracy,{strategy},{_fmt(acc)}\n")
    out.write("\nsection,strategy,language,count\n")
    for strategy, dist in report.language_distribution.items():
        for lang, count in dist.items():
            out.write(f"language_distribution,{strategy},{lang},{count}\n")
    out.write("\nsection,cluster_id,expert,member_count")
    languages = list(report.cluster_heatmap[0].accuracy) if report.cluster_heatmap else []
    for lang in languages:
        out.write(f",acc_{lang}")
    out.write("\n")
    for row in report.cluster_heatmap:
        out.write(f"cluster_heatmap,{row.cluster_id},{row.expert},{row.member_count}")
        for lang in languages:
            out.write(f",{_fmt(row.accuracy[lang])}")
        out.write("\n")
    out.write("\nsection,k,accuracy\n")
    for k, acc in report.cluster_size_sweep.items():
        out.write(f"cluster_size_sweep,{k},{_fmt(acc)}\n")
    out.write("\nsection,value\n")
    out.write(f"verification_rate,{_fmt(report.verification_rate)}\n")
    return out.getvalue().encode("utf-8")


def _emit_markdown(report: EvaluationReport) -> bytes:
    out = io.StringIO()
    out.write(f"# Evaluation report: {report.dataset_id} / {report.model_name}\n\n")
    out.write("## Accuracy by strategy\n\n")
    out.write("| strategy | accuracy |\n|---|---|\n")
    for strategy, acc in report.accuracy_by_strategy.items():
        suffix = ""
        if strategy == Strategy.GLOBAL_LANGUAGE.value and report.global_language_choice:
            suffix = f" (chose {report.global_language_choice})"
        out.write(f"| {strategy}{suffix} | {_fmt(acc)} |\n")
    if report.language_distribution:
        out.write("\n## Language distribution (chosen language counts)\n\n")
        languages = sorted({lang for dist in report.language_distribution.values() for lang in dist})
        out.write("| strategy | " + " | ".join(languages) + " |\n")
        out.write("|---|" + "---|" * len(languages) + "\n")
        for strategy, dist in report.language_distribution.items():
            out.write(
                f"| {strategy} | " + " | ".join(str(dist.get(lang, 0)) for lang in languages) + " |\n"
            )
    if report.cluster_heatmap:
        out.write("\n## Cluster experts and per-language training accuracy\n\n")
        languages = list(report.cluster_heatmap[0].accuracy)
        out.write("| cluster | expert | members | " + " | ".join(languages) + " |\n")
        out.write("|---|---|---|" + "---|" * len(languages) + "\n")
        for row in report.cluster_heatmap:
            accs = " | ".join(_fmt(row.accuracy[lang]) for lang in languages)
            out.write(f"| {row.cluster_id} | {row.expert} | {row.member_count} | {accs} |\n")
    if report.cluster_size_sweep:
        out.write("\n## Cluster-size sweep\n\n| k | accuracy |\n|---|---|\n")
        for k, acc in report.cluster_size_sweep.items():
            out.write(f"| {k} | {_fmt(acc)} |\n")
    if report.verification_rate is not None:
        out.write(f"\n## Reasoning-language verification rate\n\n{_fmt(report.verification_rate)}\n")
    return out.getvalue().encode("utf-8")


def emit(report: EvaluationReport, format: str) -> bytes:
    """Serialize the report; bytes are deterministic for a fixed report."""
    if format == "json":
        return _emit_json(report)
    if format == "csv":
        return _emit_csv(report)
    if format == "markdown":
        return _emit_markdown(report)
    raise ReportError(f"unknown format {format!r}; expected one of {FORMATS}")
