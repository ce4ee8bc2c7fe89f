import json
import math

import numpy as np
import pytest

from langselect.languages import Language
from langselect.synthetic import (
    SyntheticSpec,
    SyntheticSpecError,
    expected_oracle_accuracy,
    generate,
)

from helpers import cell, cell_correct

EN, ES, HI, TH = Language.ENGLISH, Language.SPANISH, Language.HINDI, Language.THAI


def spec_with(**overrides):
    base = dict(
        n_items=120,
        k_true=3,
        dim=8,
        languages=(EN, ES, HI, TH),
        expert_per_cluster=(ES, HI, TH),
        p_expert=0.9,
        p_other=0.2,
        spread=0.05,
        separation=0.5,
        seed=1,
    )
    base.update(overrides)
    return SyntheticSpec(**base)


class TestSpecValidation:
    def test_valid_spec(self):
        spec_with()

    def test_p_other_above_p_expert_rejected(self):
        with pytest.raises(SyntheticSpecError):
            spec_with(p_expert=0.3, p_other=0.5)

    def test_equal_probabilities_allowed(self):
        spec_with(p_expert=0.4, p_other=0.4)

    def test_expert_count_must_match_k(self):
        with pytest.raises(SyntheticSpecError):
            spec_with(expert_per_cluster=(ES, HI))

    def test_expert_outside_languages_rejected(self):
        with pytest.raises(SyntheticSpecError):
            spec_with(expert_per_cluster=(ES, HI, Language.KOREAN))

    def test_k_bounded_by_items(self):
        with pytest.raises(SyntheticSpecError):
            spec_with(n_items=2, k_true=3)

    def test_from_json(self, tmp_path):
        payload = {
            "n_items": 60,
            "k_true": 2,
            "dim": 4,
            "languages": ["en", "es"],
            "expert_per_cluster": ["es", "en"],
            "p_expert": 1.0,
            "p_other": 0.0,
            "spread": 0.0,
            "separation": 0.4,
            "seed": 3,
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(payload))
        spec = SyntheticSpec.from_json(path)
        assert spec.n_items == 60
        assert spec.expert_per_cluster == (ES, EN)

    def test_from_json_missing_field(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"n_items": 5}))
        with pytest.raises(SyntheticSpecError, match="missing field"):
            SyntheticSpec.from_json(path)


class TestGenerate:
    def test_deterministic(self):
        spec = spec_with()
        a = generate(spec)
        b = generate(spec)
        assert a.items == b.items
        assert a.matrix == b.matrix
        assert all(np.array_equal(a.vectors[i], b.vectors[i]) for i in a.vectors)

    def test_shapes_and_memberships(self):
        spec = spec_with(n_items=90, k_true=3)
        data = generate(spec)
        assert len(data.items) == 90
        assert len(data.vectors) == 90
        sizes = [sum(1 for c in data.cluster_of.values() if c == k) for k in range(3)]
        assert sizes == [30, 30, 30]
        for item in data.items:
            assert item.country == f"cluster-{data.cluster_of[item.item_id]}"

    def test_vectors_unit_norm(self):
        data = generate(spec_with())
        for vec in data.vectors.values():
            assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-9)

    def test_separation_honored_exactly(self):
        spec = spec_with(k_true=3, separation=0.9, dim=16)
        data = generate(spec)
        for i in range(3):
            for j in range(i + 1, 3):
                assert np.linalg.norm(data.centroids[i] - data.centroids[j]) >= 0.9

    def test_infeasible_separation_errors(self):
        spec = spec_with(
            k_true=30, n_items=60, dim=2, separation=1.99, expert_per_cluster=(ES,) * 30
        )
        with pytest.raises(SyntheticSpecError, match="separation"):
            generate(spec)

    def test_cells_all_ok_and_consistent(self):
        data = generate(spec_with(n_items=40))
        for item in data.items:
            for lang in data.matrix.languages:
                assert cell(data.matrix, item.item_id, lang) in "ABCD"
        assert data.matrix.correct.tolist() == [
            [cell(data.matrix, item.item_id, lang) == item.gold_label for lang in data.matrix.languages]
            for item in data.items
        ]

    def test_noiseless_limit(self):
        spec = spec_with(p_expert=1.0, p_other=0.0, spread=0.0, n_items=30)
        data = generate(spec)
        for item_id, cluster in data.cluster_of.items():
            assert np.array_equal(data.vectors[item_id], data.centroids[cluster] / np.linalg.norm(data.centroids[cluster]))
            for lang in data.matrix.languages:
                assert cell_correct(data.matrix, item_id, lang) == (lang == spec.expert_per_cluster[cluster])

    def test_marginal_calibration_three_standard_errors(self):
        spec = spec_with(n_items=1200, k_true=3, p_expert=0.85, p_other=0.25, seed=9)
        data = generate(spec)
        expert_hits = expert_total = 0
        other_hits = other_total = 0
        for item_id, cluster in data.cluster_of.items():
            expert = spec.expert_per_cluster[cluster]
            for lang in data.matrix.languages:
                correct = cell_correct(data.matrix, item_id, lang)
                if lang == expert:
                    expert_total += 1
                    expert_hits += correct
                else:
                    other_total += 1
                    other_hits += correct
        for hits, total, p in [
            (expert_hits, expert_total, spec.p_expert),
            (other_hits, other_total, spec.p_other),
        ]:
            se = math.sqrt(p * (1 - p) / total)
            assert abs(hits / total - p) <= 3 * se

    def test_symmetric_spec_columns_near_p(self):
        spec = spec_with(n_items=1600, p_expert=0.5, p_other=0.5, seed=4)
        data = generate(spec)
        for lang, acc in zip(data.matrix.languages, data.matrix.correct.mean(axis=0)):
            se = math.sqrt(0.25 / 1600)
            assert abs(acc - 0.5) <= 4 * se


class TestClosedFormOracle:
    def test_formula(self):
        spec = spec_with(p_expert=0.9, p_other=0.3, languages=tuple(Language), expert_per_cluster=(ES, HI, TH))
        expected = 1 - (1 - 0.9) * (1 - 0.3) ** 15
        assert expected_oracle_accuracy(spec) == pytest.approx(expected)

    def test_empirical_oracle_matches(self):
        from langselect.selectors import Strategy, evaluate

        spec = spec_with(
            n_items=2400,
            k_true=12,
            dim=16,
            languages=tuple(Language),
            expert_per_cluster=tuple(Language)[:12],
            p_expert=0.9,
            p_other=0.3,
            seed=2,
        )
        data = generate(spec)
        outcome = evaluate(Strategy.ORACLE, data.items, data.matrix)
        assert abs(outcome.accuracy - expected_oracle_accuracy(spec)) <= 0.01
