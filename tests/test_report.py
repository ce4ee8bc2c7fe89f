import json
from fractions import Fraction

import pytest

from langselect.clustering import ClusterModel
from langselect.languages import Language
from langselect.report import (
    ReportError,
    ReportIntegrityError,
    build_report,
    cluster_heatmap,
    compute_accuracy,
    emit,
    language_distribution,
    quantize,
)
from langselect.selectors import ItemOutcome, SelectorOutcome, Strategy, evaluate, train_global_language

import numpy as np

from helpers import make_matrix

EN, ES, HI = Language.ENGLISH, Language.SPANISH, Language.HINDI


def outcome_of(strategy, flags, language=EN):
    per_item = tuple(
        ItemOutcome(item_id=f"q{i}", language=language, correct=bool(flag))
        for i, flag in enumerate(flags)
    )
    return SelectorOutcome(strategy=strategy, per_item=per_item)


class TestComputeAccuracy:
    def test_exact_rational(self, m1):
        items, matrix = m1
        oracle = evaluate(Strategy.ORACLE, items, matrix)
        frac = compute_accuracy(oracle)
        assert frac == Fraction(2, 3)
        assert f"{float(frac):.4f}" == "0.6667"
        assert quantize(frac) == 0.6667

    def test_zero_and_one(self):
        assert compute_accuracy(outcome_of(Strategy.ORACLE, [0, 0, 0])) == 0
        assert compute_accuracy(outcome_of(Strategy.ORACLE, [1, 1])) == 1

    def test_empty_outcome_errors(self):
        empty = SelectorOutcome(strategy=Strategy.ORACLE, per_item=())
        with pytest.raises(ReportError):
            compute_accuracy(empty)


class TestLanguageDistribution:
    def test_all_english(self):
        outcome = outcome_of(Strategy.ONLY_ENGLISH, [1] * 100)
        assert language_distribution(outcome) == {EN: 100}

    def test_llm_counts(self):
        per_item = tuple(
            ItemOutcome(f"q{i}", Language.ARABIC if i < 3 else EN, True) for i in range(10)
        )
        outcome = SelectorOutcome(strategy=Strategy.LLM_SELECTED, per_item=per_item)
        assert language_distribution(outcome) == {EN: 7, Language.ARABIC: 3}

    def test_oracle_m1_counts_unselected_item_omitted(self, m1):
        items, matrix = m1
        outcome = evaluate(Strategy.ORACLE, items, matrix)
        # q1 correct in en; q2's first correct language canonically is hi;
        # q3 has no correct language and is unselected.
        assert language_distribution(outcome) == {EN: 1, HI: 1}

    def test_majority_excluded(self):
        outcome = SelectorOutcome(strategy=Strategy.MAJORITY, per_item=(ItemOutcome("q", None, True),))
        with pytest.raises(ReportError):
            language_distribution(outcome)


def model_for_heatmap(k=3):
    return ClusterModel(
        k=k,
        seed=0,
        fit_key="",
        centroids=np.eye(k),
        expert_language={c: [HI, EN, ES][c % 3] for c in range(k)},
        train_accuracy={
            c: {EN: 0.25 * (c + 1) % 1.0, HI: 0.5, ES: 0.1} for c in range(k)
        },
        member_counts={c: 10 + c for c in range(k)},
    )


class TestClusterHeatmap:
    def test_one_row_per_cluster_canonical_columns(self):
        rows = cluster_heatmap(model_for_heatmap(k=12))
        assert len(rows) == 12
        assert [r["cluster_id"] for r in rows] == list(range(12))
        accuracy = {"en": 0.25, "hi": 0.5, "es": 0.1}
        assert rows[0] == {"cluster_id": 0, "expert": "hi", "member_count": 10, "accuracy": accuracy}
        assert "member_count,acc_en,acc_hi,acc_es\n" in emit(sample_report(), "csv").decode()

    def test_k1_single_row(self):
        rows = cluster_heatmap(model_for_heatmap(k=1))
        assert len(rows) == 1
        assert rows[0]["member_count"] == 10


def sample_report(verification_rate=0.969, sweep_ks=(12,)):
    outcomes = {
        Strategy.ONLY_ENGLISH: outcome_of(Strategy.ONLY_ENGLISH, [1, 0, 0]),
        Strategy.ORACLE: outcome_of(Strategy.ORACLE, [1, 1, 0], language=HI),
        Strategy.GLOBAL_LANGUAGE: outcome_of(Strategy.GLOBAL_LANGUAGE, [1, 0, 0], language=ES),
    }
    return build_report(
        "blend",
        "test-model",
        outcomes,
        global_language_choice=ES,
        cluster_model=model_for_heatmap(),
        cluster_size_sweep={k: outcomes[Strategy.ORACLE] for k in sweep_ks},
        verification_rate=verification_rate,
        config_snapshot={"note": "fixture"},
    )


class TestBuildAndEmit:
    def test_emit_json_deterministic_and_round_trips(self):
        report = sample_report()
        first = emit(report, "json")
        second = emit(report, "json")
        assert first == second
        assert json.loads(first) == report

    def test_emit_csv_and_markdown_deterministic(self):
        report = sample_report()
        assert emit(report, "csv") == emit(report, "csv")
        assert emit(report, "markdown") == emit(report, "markdown")

    def test_markdown_has_row_per_strategy(self):
        report = sample_report()
        text = emit(report, "markdown").decode()
        for strategy in report["accuracy_by_strategy"]:
            assert f"| {strategy}" in text

    def test_csv_sections(self):
        text = emit(sample_report(), "csv").decode()
        assert "section,strategy,accuracy" in text
        assert "cluster_size_sweep,12," in text
        assert "verification_rate,0.9690" in text

    def test_display_order_does_not_depend_on_key_order(self):
        report = sample_report(sweep_ks=(12, 3))

        def reversed_keys(value):
            if isinstance(value, dict):
                return {k: reversed_keys(v) for k, v in reversed(value.items())}
            if isinstance(value, list):
                return [reversed_keys(v) for v in value]
            return value

        shuffled = reversed_keys(report)
        for fmt in ("csv", "markdown"):
            assert emit(shuffled, fmt) == emit(report, fmt)
            assert emit(json.loads(emit(report, "json")), fmt) == emit(report, fmt)
        text = emit(shuffled, "csv").decode()
        strategies = [line.split(",")[1] for line in text.splitlines() if line.startswith("accuracy,")]
        assert strategies == ["only_english", "global_language", "oracle"]
        assert "section,cluster_id,expert,member_count,acc_en,acc_hi,acc_es\n" in text
        assert text.index("cluster_size_sweep,3,") < text.index("cluster_size_sweep,12,")
        markdown = emit(shuffled, "markdown").decode()
        assert "| strategy | en | es | hi |\n" in markdown  # alphabetical, unlike the heatmap
        assert "| cluster | expert | members | en | hi | es |\n" in markdown

    def test_unknown_format_rejected(self):
        with pytest.raises(ReportError):
            emit(sample_report(), "yaml")

    def test_accuracies_quantized_to_4_decimals(self):
        report = sample_report()
        assert report["accuracy_by_strategy"]["oracle"] == 0.6667
        assert report["accuracy_by_strategy"]["only_english"] == 0.3333

    def test_oracle_dominance_hard_fails(self):
        outcomes = {
            Strategy.ORACLE: outcome_of(Strategy.ORACLE, [1, 0, 0]),
            Strategy.ONLY_ENGLISH: outcome_of(Strategy.ONLY_ENGLISH, [1, 1, 0]),
        }
        with pytest.raises(ReportIntegrityError, match="dominance"):
            build_report("blend", "m", outcomes)

    def test_mismatched_test_sizes_rejected(self):
        outcomes = {
            Strategy.ORACLE: outcome_of(Strategy.ORACLE, [1, 1, 0]),
            Strategy.ONLY_ENGLISH: outcome_of(Strategy.ONLY_ENGLISH, [1, 0]),
        }
        with pytest.raises(ReportError, match="test sizes"):
            build_report("blend", "m", outcomes)

    def test_bad_verification_rate_rejected(self):
        with pytest.raises(ReportError):
            sample_report(verification_rate=1.2)

    def test_distribution_conservation_enforced(self):
        # A single-language strategy outcome with a None language violates
        # the conservation rule and must be rejected at build time.
        broken = SelectorOutcome(
            strategy=Strategy.LLM_SELECTED,
            per_item=(ItemOutcome("q0", None, False), ItemOutcome("q1", EN, True), ItemOutcome("q2", EN, True)),
        )
        outcomes = {
            Strategy.ORACLE: outcome_of(Strategy.ORACLE, [1, 1, 1]),
            Strategy.LLM_SELECTED: broken,
        }
        with pytest.raises(ReportIntegrityError, match="distribution"):
            build_report("blend", "m", outcomes)


def test_report_from_evaluated_matrix_end_to_end(m1):
    items, matrix = m1
    outcomes = {
        Strategy.ONLY_ENGLISH: evaluate(Strategy.ONLY_ENGLISH, items, matrix),
        Strategy.MAJORITY: evaluate(Strategy.MAJORITY, items, matrix),
        Strategy.GLOBAL_LANGUAGE: evaluate(
            Strategy.GLOBAL_LANGUAGE, items, matrix, state=train_global_language(matrix)
        ),
        Strategy.ORACLE: evaluate(Strategy.ORACLE, items, matrix),
    }
    report = build_report("custom", "test", outcomes, global_language_choice=EN)
    assert report["accuracy_by_strategy"]["oracle"] == 0.6667
    assert report["accuracy_by_strategy"]["majority"] == 0.3333
    assert json.loads(emit(report, "json")) == report
