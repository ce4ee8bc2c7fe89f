import dataclasses
import hashlib
import inspect
import itertools
import json
import logging
import os
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from langselect import clustering
from langselect.clustering import (
    ClusterModel,
    ClusteringError,
    EmbeddingCache,
    LskRouter,
    assign_many,
    decode_f8,
    embed_items,
    embedding_text,
    encode_f8,
    inertia,
    item_embedding_key,
    kmeans_fit,
    stored_fit,
    train_lsk_best,
)
from langselect.gateway import GatewayError, ModelEndpoint
from langselect.languages import Language, canonical_index
from langselect.selectors import train_global_language
from langselect.synthetic import SyntheticSpec, generate

from helpers import INVALID, MISSING, cell_correct, make_item, make_matrix, random_matrix
from stub_server import hash_embedding

EN, ES, HI = Language.ENGLISH, Language.SPANISH, Language.HINDI


def unit_rows(X):
    return X / np.linalg.norm(X, axis=1, keepdims=True)


def brute_force_best_inertia(X, k):
    """Exhaustive scan over all k^n assignments, optimal unit centroid per part."""
    n = len(X)
    best = np.inf
    for labels in itertools.product(range(k), repeat=n):
        labels = np.asarray(labels)
        total = 0.0
        for cluster in range(k):
            members = X[labels == cluster]
            if len(members) == 0:
                continue
            centroid = members.mean(axis=0)
            norm = np.linalg.norm(centroid)
            if norm <= 1e-12:
                # Optimal unit centroid undefined; any unit vector scores the same.
                centroid = np.zeros_like(centroid)
                centroid[0] = 1.0
            else:
                centroid = centroid / norm
            total += ((members - centroid) ** 2).sum()
        best = min(best, total)
    return best


def broadcast_squared_distances(X, centroids):
    """Frozen copy of the (n, k, d) broadcast kernel the expansion replaced."""
    return ((X[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)


class TestSquaredDistances:
    @pytest.mark.parametrize("d", [2, 32, 768])
    def test_matches_broadcast_on_unit_rows(self, d):
        rng = np.random.default_rng(d)
        X = unit_rows(rng.normal(size=(300, d)))
        for k in (1, 3, 12, 48):
            C = unit_rows(rng.normal(size=(k, d)))
            got, want = clustering._squared_distances(X, C), broadcast_squared_distances(X, C)
            assert got.shape == (300, k)
            assert np.allclose(got, want, rtol=0.0, atol=1e-12)
            assert np.array_equal(got.argmin(axis=1), want.argmin(axis=1))

    def test_matches_broadcast_on_non_unit_rows(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(200, 32)) * rng.uniform(0.1, 10.0, size=(200, 1))
        C = rng.normal(size=(12, 32)) * rng.uniform(0.1, 10.0, size=(12, 1))
        got, want = clustering._squared_distances(X, C), broadcast_squared_distances(X, C)
        scale = max((X**2).sum(axis=1).max(), (C**2).sum(axis=1).max())
        assert np.allclose(got, want, rtol=0.0, atol=1e-13 * scale)
        assert np.array_equal(got.argmin(axis=1), want.argmin(axis=1))
        assert inertia(X, C) == pytest.approx(want.min(axis=1).sum(), rel=1e-12)

    @pytest.mark.parametrize("d", [2, 32, 768])
    def test_exact_centroid_row_is_zero_and_nothing_is_negative(self, d):
        rng = np.random.default_rng(100 + d)
        X = unit_rows(rng.normal(size=(60, d)))
        rows = [3, 17, 42]
        for scale in (1.0, 3.0):
            d2 = clustering._squared_distances(scale * X, scale * X[rows])
            assert np.array_equal(d2[rows, [0, 1, 2]], np.zeros(3))
            assert (d2 >= 0.0).all()
        # Near-duplicates: the expansion cancels to within rounding of 0.
        near = unit_rows(X[rows] + 1e-9 * rng.normal(size=(3, d)))
        assert (clustering._squared_distances(near, X[rows]) >= 0.0).all()


@pytest.mark.parametrize(
    "row, unit",
    [([1e200, 1e200], [0.5**0.5] * 2), ([1e308, 0.0], [1.0, 0.0]), ([-1.7e308, 1.7e308], [-(0.5**0.5), 0.5**0.5])],
)
def test_a_finite_row_whose_norm_overflows_normalizes_to_its_direction(row, unit):
    X = np.array([row, [0.6, 0.8], [3.0, -4.0]])
    out = clustering._normalize_rows(X, "input vector")
    assert np.allclose(out[0], unit, rtol=0, atol=1e-15)
    assert out[1:].tobytes() == (X[1:] / np.linalg.norm(X[1:], axis=1, keepdims=True)).tobytes()


class TestKmeansFit:
    def test_k_equals_n_gives_zero_inertia(self):
        rng = np.random.default_rng(0)
        X = unit_rows(rng.normal(size=(6, 4)))
        centroids = kmeans_fit(X, k=6, seed=1)
        assert inertia(X, centroids) == pytest.approx(0.0, abs=1e-12)

    def test_k_one_is_normalized_mean(self):
        rng = np.random.default_rng(1)
        X = unit_rows(rng.normal(size=(40, 5)) + 2.0)
        centroids = kmeans_fit(X, k=1, seed=0)
        mean = X.mean(axis=0)
        expected = mean / np.linalg.norm(mean)
        assert np.allclose(centroids[0], expected, atol=1e-9)

    def test_antipodal_blobs_recovered(self):
        rng = np.random.default_rng(2)
        direction = np.zeros(8)
        direction[0] = 1.0
        a = unit_rows(direction + 0.01 * rng.normal(size=(50, 8)))
        b = unit_rows(-direction + 0.01 * rng.normal(size=(50, 8)))
        X = np.vstack([a, b])
        centroids = kmeans_fit(X, k=2, seed=0)
        labels = assign_many(X, centroids)
        assert len(set(labels[:50])) == 1
        assert len(set(labels[50:])) == 1
        assert labels[0] != labels[50]
        brute = brute_force_best_inertia(X[::10], 2)  # small slice, sanity check
        fitted = inertia(X[::10], kmeans_fit(X[::10], 2, seed=0))
        assert fitted <= brute * 1.05 + 1e-9

    def test_within_5pct_of_exhaustive_optimum_small_n(self):
        rng = np.random.default_rng(3)
        for n, k, d in [(8, 2, 2), (8, 3, 3), (10, 3, 2), (12, 2, 3)]:
            X = unit_rows(rng.normal(size=(n, d)))
            brute = brute_force_best_inertia(X, k)
            best_fitted = min(
                inertia(X, kmeans_fit(X, k, seed=s)) for s in range(100)
            )
            assert best_fitted <= brute * 1.05 + 1e-9, (n, k, d)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(4)
        X = unit_rows(rng.normal(size=(30, 6)))
        a = kmeans_fit(X, 4, seed=9)
        b = kmeans_fit(X, 4, seed=9)
        assert np.array_equal(a, b)

    def test_different_seeds_may_differ(self):
        rng = np.random.default_rng(5)
        X = unit_rows(rng.normal(size=(30, 6)))
        results = {kmeans_fit(X, 5, seed=s).tobytes() for s in range(8)}
        assert len(results) >= 2

    def test_invalid_k(self):
        X = unit_rows(np.random.default_rng(0).normal(size=(5, 3)))
        with pytest.raises(ClusteringError):
            kmeans_fit(X, 0, seed=0)
        with pytest.raises(ClusteringError):
            kmeans_fit(X, 6, seed=0)

    def test_duplicate_points_with_k_equal_n(self):
        X = unit_rows(np.ones((4, 3)))
        centroids = kmeans_fit(X, 4, seed=0)
        assert centroids.shape == (4, 3)

    def test_centroids_unit_norm(self):
        rng = np.random.default_rng(6)
        X = unit_rows(rng.normal(size=(50, 7)))
        centroids = kmeans_fit(X, 5, seed=2)
        assert np.allclose(np.linalg.norm(centroids, axis=1), 1.0, atol=1e-9)

    def test_centroids_match_a_reference_fit_with_the_broadcast_kernel(self, monkeypatch):
        rng = np.random.default_rng(8)
        X = unit_rows(rng.normal(size=(300, 32)))
        fitted = kmeans_fit(X, 8, seed=3)
        monkeypatch.setattr(clustering, "_squared_distances", broadcast_squared_distances)
        assert np.array_equal(fitted, kmeans_fit(X, 8, seed=3))

    def test_peak_memory_stays_within_a_few_copies_of_the_input(self):
        # numpy reports its buffers to tracemalloc; an (n, k, d) temporary
        # would be k/2 = 24 times the input here.
        X = np.random.default_rng(9).normal(size=(2000, 768))
        tracemalloc.start()
        try:
            kmeans_fit(X, 48, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * X.nbytes, (peak, X.nbytes)

    @pytest.mark.parametrize(
        "n, d, k, duplicates",
        [
            (300, 768, 24, False),  # 42-row blocks: eight blocks a step, the last partial
            (41, 5, 41, True),  # one block; duplicates exhaust the mass before k
            (5, 40_000, 3, False),  # wider than a block: one row at a time
            (200, 64, 12, True),
        ],
    )
    def test_init_equals_the_unblocked_formula(self, n, d, k, duplicates):
        def reference_pp_init(X, k, rng):
            n = X.shape[0]
            chosen = [int(rng.integers(n))]
            closest = ((X - X[chosen[0]]) ** 2).sum(axis=1)
            while len(chosen) < k:
                total = float(closest.sum())
                if total <= 0.0:
                    remaining = np.setdiff1d(np.arange(n), np.asarray(chosen))
                    idx = int(rng.choice(remaining))
                else:
                    idx = int(rng.choice(n, p=closest / total))
                chosen.append(idx)
                closest = np.minimum(closest, ((X - X[idx]) ** 2).sum(axis=1))
            return X[np.asarray(chosen)].copy()

        rng = np.random.default_rng(n + d)
        X = unit_rows(rng.normal(size=(n, d)))
        if duplicates:
            X[rng.integers(n, size=n - 3)] = X[0]
        for seed in range(3):
            blocked = clustering._kmeans_pp_init(X, k, np.random.default_rng(seed))
            assert blocked.tobytes() == reference_pp_init(X, k, np.random.default_rng(seed)).tobytes()


class TestAssign:
    def test_exact_centroid_match(self):
        centroids = np.eye(4)
        assert assign_many(centroids[[3, 1]], centroids).tolist() == [3, 1]

    def test_tie_goes_to_lowest_id(self):
        centroids = np.array([[1.0, 0.0], [0.0, 1.0]])
        midpoint = np.array([[0.5, 0.5]])
        assert assign_many(midpoint, centroids).tolist() == [0]
        # Equidistant from all 32 axes: an exact 32-way tie.
        assert assign_many(np.full((1, 32), 32**-0.5), np.eye(32)).tolist() == [0]

    def test_k_one_always_zero(self):
        centroids = np.array([[1.0, 0.0]])
        assert assign_many(np.array([[0.0, 1.0], [-1.0, 0.0]]), centroids).tolist() == [0, 0]

    def test_dimension_mismatch(self):
        centroids = np.eye(3)
        with pytest.raises(ClusteringError):
            assign_many(np.array([[1.0, 0.0]]), centroids)
        with pytest.raises(ClusteringError):
            assign_many(np.ones((2, 2)), centroids)


def vectors_for(matrix, dim=6, seed=0):
    rng = np.random.default_rng(seed)
    return {item_id: unit_rows(rng.normal(size=(1, dim)))[0] for item_id in matrix.items}


class TestTrainLsk:
    def test_expert_is_unique_maximizer(self):
        rows = {f"q{i}": {EN: False, HI: True, ES: False} for i in range(8)}
        _, matrix = make_matrix(rows)
        model = train_lsk_best(vectors_for(matrix), matrix, 2, [0])
        assert set(model.expert_language.values()) == {HI}

    def test_all_zero_accuracy_defaults_english(self):
        rows = {f"q{i}": {EN: False, HI: False, ES: False} for i in range(6)}
        _, matrix = make_matrix(rows)
        model = train_lsk_best(vectors_for(matrix), matrix, 2, [0])
        assert set(model.expert_language.values()) == {EN}

    def test_member_counts_sum_to_train_size(self):
        import random as _random

        _, matrix = random_matrix(_random.Random(0), 40, [EN, ES, HI])
        model = train_lsk_best(vectors_for(matrix), matrix, 5, [1])
        assert sum(model.member_counts.values()) == 40
        assert all(count > 0 for count in model.member_counts.values())

    def test_accuracy_recounts_cells_with_missing_and_invalid(self):
        import random as _random

        rng = _random.Random(58)
        values = (True, False, INVALID, MISSING)
        rows = {}
        for i in range(60):
            shared = rng.choice(values)  # Spanish and Hindi tie in every cluster
            rows[f"q{i}"] = {EN: rng.choice(values), ES: shared, HI: shared}
        _, matrix = make_matrix(rows, languages=[EN, ES, HI])
        # Blank every seventh cell to missing.
        blanked = bytes(b if n % 7 else ord(".") for n, b in enumerate(matrix.cells))
        matrix = dataclasses.replace(matrix, cells=blanked)
        vectors = vectors_for(matrix, seed=9)
        model = train_lsk_best(vectors, matrix, 5, [2])
        labels = assign_many(np.stack([vectors[i] for i in matrix.items]), model.centroids)
        assert sum(model.member_counts.values()) == len(matrix.items)
        assert model.member_counts == dict(enumerate(np.bincount(labels, minlength=5).tolist()))
        ties = 0
        for cluster, accs in model.train_accuracy.items():
            members = [item for item, label in zip(matrix.items, labels) if label == cluster]
            for lang in matrix.languages:
                hits = sum(1 for item in members if cell_correct(matrix, item, lang))
                assert accs[lang] == hits / len(members)
            tied = [lang for lang in matrix.languages if accs[lang] == max(accs.values())]
            assert model.expert_language[cluster] is min(tied, key=canonical_index)
            ties += len(tied) > 1
        assert ties > 0

    def test_expert_optimality_invariant(self):
        import random as _random

        for trial in range(10):
            _, matrix = random_matrix(_random.Random(trial), 30, [EN, ES, HI])
            model = train_lsk_best(vectors_for(matrix, seed=trial), matrix, 4, [trial])
            for cluster, accs in model.train_accuracy.items():
                expert = model.expert_language[cluster]
                assert all(accs[expert] >= acc for acc in accs.values())

    def test_k1_collapse_equals_global_language(self):
        import random as _random

        for trial in range(20):
            _, matrix = random_matrix(_random.Random(100 + trial), 25, [EN, ES, HI])
            vectors = vectors_for(matrix, seed=trial)
            model = train_lsk_best(vectors, matrix, 1, [0])
            assert model.expert_language[0] is train_global_language(matrix).language
            routed = LskRouter(model=model, vectors=vectors).route(list(vectors))
            assert set(routed) == {train_global_language(matrix).language}

    def test_missing_vector_errors(self):
        _, matrix = make_matrix({"q1": {EN: True}, "q2": {EN: False}})
        with pytest.raises(ClusteringError, match="without embeddings"):
            train_lsk_best({"q1": np.ones(3)}, matrix, 1, [0])

    def test_deterministic_model(self):
        import random as _random

        _, matrix = random_matrix(_random.Random(55), 30, [EN, ES])
        vectors = vectors_for(matrix, seed=5)
        assert train_lsk_best(vectors, matrix, 3, [2]).to_json() == train_lsk_best(vectors, matrix, 3, [2]).to_json()

    def test_the_stored_fit_reads_back_bit_exact(self, tmp_path):
        import random as _random

        _, matrix = random_matrix(_random.Random(56), 20, [EN, ES, HI])
        model = train_lsk_best(vectors_for(matrix, seed=6), matrix, 3, [4])
        path = tmp_path / "cluster_model_k3.json"
        path.write_text(model.to_json(), encoding="utf-8")
        fit_key, seed, centroids = stored_fit(path, 3, model.centroids.shape[1])
        assert (fit_key, seed) == (model.fit_key, 4)
        assert centroids.tobytes() == model.centroids.tobytes()
        # Bit for bit what the earlier text format, a JSON list of floats, read back.
        as_text = json.dumps([[float(v) for v in row] for row in model.centroids], indent=2)
        assert centroids.tobytes() == np.asarray(json.loads(as_text), dtype=np.float64).tobytes()
        assert set(json.loads(model.to_json())) == {
            "k", "seed", "fit_key", "dim", "centroids_f8", "expert_language", "train_accuracy", "member_counts"
        }

    @pytest.mark.parametrize(
        "centroids, error",
        [
            pytest.param(lambda c: c[:-1], "2 centroid rows, expected k = 3", id="fewer-rows"),
            pytest.param(lambda c: np.vstack([c, c]), "6 centroid rows, expected k = 3", id="more-rows"),
            pytest.param(lambda c: c[:0], "0 centroid rows, expected k = 3", id="no-rows"),
            pytest.param(lambda c: c[:, :-1], "bytes decoded, expected", id="narrower-rows"),
            pytest.param(lambda c: np.where(c == c[1, 2], np.nan, c), "non-finite centroid", id="nan"),
            pytest.param(lambda c: np.where(c == c[0, 0], np.inf, c), "non-finite centroid", id="inf"),
        ],
    )
    def test_a_fit_whose_centroids_are_not_k_finite_rows_of_the_width_is_refused(
        self, tmp_path, caplog, centroids, error
    ):
        import random as _random

        _, matrix = random_matrix(_random.Random(56), 20, [EN, ES, HI])
        model = train_lsk_best(vectors_for(matrix, seed=6), matrix, 3, [4])
        path = tmp_path / "cluster_model_k3.json"
        rows = [encode_f8(row) for row in centroids(model.centroids)]
        path.write_text(json.dumps({**json.loads(model.to_json()), "centroids_f8": rows}), encoding="utf-8")
        assert stored_fit(path, 3, model.centroids.shape[1]) is None
        [record] = caplog.records
        assert record.levelname == "WARNING" and error in record.getMessage()

    def test_best_of_seeds_prefers_lower_inertia(self):
        import random as _random

        _, matrix = random_matrix(_random.Random(57), 40, [EN, ES])
        vectors = vectors_for(matrix, seed=7)
        X = np.stack([vectors[i] for i in matrix.items])
        best = train_lsk_best(vectors, matrix, k=4, seeds=range(6))
        best_inertia = inertia(X, best.centroids)
        for s in range(6):
            single = train_lsk_best(vectors, matrix, 4, [s])
            assert best_inertia <= inertia(X, single.centroids) + 1e-9

    def test_a_k_sweep_hashes_the_train_array_once(self, monkeypatch):
        import random as _random

        hashed = []  # the byte count of each chunk a sha256 of clustering takes

        class CountingSha256:
            def __init__(self, data=b"", state=None):
                self.state = state or hashlib.sha256()
                self.update(data)

            def update(self, data):
                hashed.append(memoryview(data).nbytes)
                self.state.update(data)

            def copy(self):
                return CountingSha256(state=self.state.copy())

            def hexdigest(self):
                return self.state.hexdigest()

        monkeypatch.setattr(clustering, "hashlib", SimpleNamespace(sha256=CountingSha256))
        _, matrix = random_matrix(_random.Random(58), 40, [EN, ES])
        vectors = vectors_for(matrix, seed=8)
        train = clustering.train_array(vectors, matrix.items)
        models = [train_lsk_best(vectors, matrix, k, [0, 1], train=train) for k in (2, 3, 4)]
        assert hashed.count(train.X.nbytes) == 1
        assert sum(hashed) < 2 * train.X.nbytes
        assert len({model.fit_key for model in models}) == 3

    def test_the_fit_key_names_the_array_the_fit_version_numpy_k_and_the_seed_set(self, monkeypatch):
        import random as _random

        _, matrix = random_matrix(_random.Random(58), 40, [EN, ES])
        vectors = vectors_for(matrix, seed=8)
        train = clustering.train_array(vectors, matrix.items)
        X = np.stack([vectors[i] for i in matrix.items])
        expected = hashlib.sha256(json.dumps(list(X.shape)).encode("ascii") + X.astype("<f8").tobytes())
        expected.update(json.dumps([clustering.FIT_VERSION, np.__version__, 3, [0, 1]]).encode("ascii"))
        model = train_lsk_best(vectors, matrix, 3, [1, 0, 1], train=train)
        assert model.fit_key == expected.hexdigest()
        monkeypatch.setattr(clustering, "FIT_VERSION", clustering.FIT_VERSION + 1)
        assert clustering._fit_key(train, 3, [0, 1]) != model.fit_key

    def test_a_stored_model_gives_its_fit_only_under_the_same_key(self, monkeypatch):
        import random as _random

        _, matrix = random_matrix(_random.Random(59), 40, [EN, ES])
        vectors = vectors_for(matrix, seed=9)
        fitted = train_lsk_best(vectors, matrix, 3, [0, 1])
        planted = fitted.centroids[::-1].copy()
        monkeypatch.setattr(clustering, "_best_fit", lambda *args: pytest.fail("refit under the same key"))
        reused = train_lsk_best(vectors, matrix, 3, [0, 1], stored=(fitted.fit_key, 7, planted))
        assert reused.seed == 7 and reused.centroids.tobytes() == planted.tobytes()
        assert reused.fit_key == fitted.fit_key
        monkeypatch.undo()
        for other_key in ("", train_lsk_best(vectors, matrix, 3, [0, 2]).fit_key):
            assert train_lsk_best(vectors, matrix, 3, [0, 1], stored=(other_key, 7, planted)).to_json() == fitted.to_json()

    def test_best_of_seeds_peaks_near_two_copies_of_the_train_array(self):
        # The train array and its unit rows, plus O(n*k) and one cluster's
        # members: stacking or normalizing it again, or an (n, d) temporary
        # per k-means++ step, would each add a whole copy.
        n, d = 2000, 256
        items = [f"q{i}" for i in range(n)]
        matrix = make_matrix({i: {EN: True, ES: False} for i in items})[1]
        rng = np.random.default_rng(15)
        vectors = {i: rng.normal(size=d) for i in items}
        tracemalloc.start()
        try:
            train_lsk_best(vectors, matrix, 8, [0, 1])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * n * d * 8, (peak, n * d * 8)


class TestLskRouting:
    def test_route_composes_assign_and_expert(self):
        rows = {f"q{i}": {EN: i % 2 == 0, HI: i % 2 == 1} for i in range(10)}
        _, matrix = make_matrix(rows)
        vectors = vectors_for(matrix, seed=8)
        model = train_lsk_best(vectors, matrix, 2, [0])
        router = LskRouter(model=model, vectors=vectors)
        for item_id, vec in vectors.items():
            nearest = int(np.argmin(((model.centroids - vec) ** 2).sum(axis=1)))
            assert router.route([item_id]) == [model.expert_language[nearest]]
        assert router.route(list(vectors)) == [router.route([item_id])[0] for item_id in vectors]

    def test_far_outlier_still_routed(self):
        model = ClusterModel(
            k=1,
            seed=0,
            fit_key="",
            centroids=np.array([[1.0, 0.0]]),
            expert_language={0: Language.FRENCH},
            train_accuracy={0: {Language.FRENCH: 1.0}},
            member_counts={0: 5},
        )
        router = LskRouter(model=model, vectors={"q1": np.array([0.0, -1.0])})
        assert router.route(["q1"]) == [Language.FRENCH]

    def test_unknown_item_errors(self):
        model = ClusterModel(
            k=1,
            seed=0,
            fit_key="",
            centroids=np.array([[1.0, 0.0]]),
            expert_language={0: EN},
            train_accuracy={0: {EN: 1.0}},
            member_counts={0: 1},
        )
        router = LskRouter(model=model, vectors={"q1": np.array([1.0, 0.0])})
        with pytest.raises(ClusteringError, match="no embedding for item q2; run the embed stage"):
            router.route(["q1", "q2"])


class TestPlantedRecoverySmoke:
    def test_recovers_planted_experts(self):
        spec = SyntheticSpec(
            n_items=240,
            k_true=4,
            dim=16,
            languages=tuple(Language),
            expert_per_cluster=(HI, ES, Language.THAI, Language.ARABIC),
            p_expert=0.95,
            p_other=0.2,
            spread=0.05,
            separation=0.6,
            seed=11,
        )
        data = generate(spec)
        model = train_lsk_best(data.vectors, data.matrix, 4, [1])
        got = sorted(model.expert_language.values(), key=lambda l: l.value)
        assert got == sorted(spec.expert_per_cluster, key=lambda l: l.value)


class TestEmbedItems:
    """``embed_items`` embeds one batch; the embed stage's caching is tested in
    ``test_cli.TestEmbedStage``."""

    def test_one_unit_vector_per_item_in_order(self, stub):
        items = [make_item(f"q{i}") for i in range(5)]
        endpoint = ModelEndpoint(base_url=stub.base_url, model_name="embedder", timeout=5.0)
        vectors = embed_items(items, endpoint, backoff=0.001)
        assert vectors.shape == (5, 8)
        assert np.allclose(np.linalg.norm(vectors, axis=1), 1.0, atol=1e-9)
        expected = unit_rows(np.array([hash_embedding(embedding_text(i)) for i in items]))
        assert np.array_equal(vectors, expected)
        assert len(stub.requests) == 1

    def test_save_fsyncs_the_temp_file_before_the_rename(self, tmp_path, monkeypatch):
        path = tmp_path / "emb.jsonl"
        cache = EmbeddingCache(path)
        cache.put("k1", "q1", np.array([0.6, 0.8]))
        real_fsync = os.fsync
        synced = []

        def spy(fd):
            info = os.fstat(fd)
            synced.append((info.st_ino, info.st_size, path.exists()))
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", spy)
        cache.save()
        final = path.stat()
        assert synced == [(final.st_ino, final.st_size, False)]

    @pytest.mark.parametrize(
        "bad, problem",
        [([0.0, 0.0], "zero-norm"), ([float("nan"), 1.0], "non-finite"), ([float("-inf"), 1.0], "non-finite")],
        ids=["zero", "nan", "-inf"],
    )
    def test_a_degenerate_vector_from_endpoint_is_error(self, monkeypatch, bad, problem):
        items = [make_item("q0"), make_item("q1")]
        endpoint = ModelEndpoint(base_url="http://unused", model_name="embedder", timeout=5.0)
        monkeypatch.setattr("langselect.clustering.embed_texts", lambda texts, *a, **k: [[0.6, 0.8], bad])
        with pytest.raises(GatewayError, match=f"^degenerate embedding from endpoint: {problem} vector$"):
            embed_items(items, endpoint)

    def test_a_vector_from_endpoint_whose_norm_overflows_is_its_direction(self, monkeypatch):
        endpoint = ModelEndpoint(base_url="http://unused", model_name="embedder", timeout=5.0)
        monkeypatch.setattr("langselect.clustering.embed_texts", lambda texts, *a, **k: [[0.6, 0.8], [1e300, 1e300]])
        vectors = embed_items([make_item("q0"), make_item("q1")], endpoint)
        assert np.allclose(vectors, [[0.6, 0.8], [0.5**0.5, 0.5**0.5]], rtol=0, atol=1e-15)

    def test_embedding_text_uses_question_and_choices(self, dress_code_item):
        text = embedding_text(dress_code_item)
        assert dress_code_item.question in text
        for choice in dress_code_item.choices:
            assert choice.text in text


class TestF8Codec:
    def test_round_trip_is_bit_exact(self):
        edge = np.array([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, np.pi, -1.0 / 3.0])
        values = np.concatenate([edge, np.random.default_rng(12).normal(size=1000)])
        decoded = decode_f8(encode_f8(values), values.size)
        assert decoded.dtype == np.float64
        assert decoded.tobytes() == values.tobytes()

    @pytest.mark.parametrize(
        "text, match",
        [("not base64!", "bad base64"), (encode_f8(np.ones(3)), "24 bytes decoded, expected 32")],
    )
    def test_bad_text_or_length_is_error(self, text, match):
        with pytest.raises(ClusteringError, match=match):
            decode_f8(text, 4)


def legacy_line(item_id: str, key: str, values: np.ndarray) -> str:
    """A cache line as written before the f8 encoding: floats as JSON text."""
    return json.dumps({"item_id": item_id, "key": key, "dim": int(values.shape[0]), "values": values.tolist()}) + "\n"


def f8_line(item_id: str, key: str, values: np.ndarray) -> str:
    """A cache line as written before the binary format: the vector as ``encode_f8``'s base64."""
    return json.dumps({"item_id": item_id, "key": key, "dim": int(values.shape[0]), "f8": encode_f8(values)}) + "\n"


def write_lines(path, entries, line=f8_line) -> None:
    """A JSON-lines cache by hand: one ``line`` per ``(item_id, key, values)``."""
    path.write_text("".join(line(item_id, key, np.asarray(values, dtype=np.float64)) for item_id, key, values in entries))


def header_and_rows(path) -> tuple[dict, bytes]:
    header, rows = path.read_bytes().split(b"\n", 1)
    return json.loads(header), rows


def saved(path, vectors: dict) -> list:
    """Save ``{item_id: values}`` under each item's content key; the items."""
    items = [make_item(item_id) for item_id in vectors]
    cache = EmbeddingCache(path)
    for item in items:
        cache.put(item_embedding_key(item), item.item_id, np.asarray(vectors[item.item_id], dtype=np.float64))
    cache.save()
    return items


def as_bytes(vectors: dict) -> dict:
    return {item_id: np.asarray(values, dtype=np.float64).tobytes() for item_id, values in vectors.items()}


class TestEmbeddingCacheFile:
    def test_the_file_is_one_header_line_then_the_rows_by_item_id(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        rows = np.random.default_rng(15).normal(size=(3, 4))
        items = saved(path, {"q2": rows[2], "q0": rows[0], "q1": rows[1]})
        header, payload = header_and_rows(path)
        pairs = [[item.item_id, item_embedding_key(item)] for item in sorted(items, key=lambda i: i.item_id)]
        assert header == {"format": "langselect-embeddings", "version": 1, "dim": 4, "items": pairs}
        assert payload == rows.astype("<f8").tobytes()

    def test_round_trip_is_bit_identical_and_gives_views_of_one_array(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        rows = unit_rows(np.random.default_rng(16).normal(size=(4, 8)))
        rows[1, :3] = (-0.0, 5e-324, 1e308)
        items = saved(path, {f"q{n}": row for n, row in enumerate(rows)})
        loaded = EmbeddingCache(path).vectors(items)
        assert as_bytes(loaded) == as_bytes({f"q{n}": row for n, row in enumerate(rows)})
        base = loaded["q0"].base
        assert base is not None and base.nbytes == rows.nbytes
        assert all(values.base is base for values in loaded.values())

    def test_a_save_after_an_open_rewrites_the_same_bytes(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        saved(path, {f"q{n}": row for n, row in enumerate(np.random.default_rng(17).normal(size=(5, 3)))})
        before = path.read_bytes()
        EmbeddingCache(path).save()
        assert path.read_bytes() == before

    def test_an_empty_cache_saves_and_opens_empty(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        EmbeddingCache(path).save()
        assert header_and_rows(path) == ({"format": "langselect-embeddings", "version": 1, "dim": 0, "items": []}, b"")
        assert EmbeddingCache(path).vectors([make_item("q0")]) == {}

    def test_put_refuses_a_vector_of_another_width_than_the_cache(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        saved(path, {"q0": [0.6, 0.8]})
        before = path.read_bytes()
        cache = EmbeddingCache(path)
        message = rf"^{re.escape(str(path))}: a vector of width 3 does not fit a cache of width 2$"
        with pytest.raises(ClusteringError, match=message):
            cache.put("k1", "q1", np.ones(3))
        cache.save()
        assert path.read_bytes() == before
        # An empty cache takes the width of its first vector.
        empty = EmbeddingCache(tmp_path / "new.jsonl")
        empty.put("k1", "q1", np.ones(3))
        with pytest.raises(ClusteringError, match="a vector of width 2 does not fit a cache of width 3$"):
            empty.put("k2", "q2", np.ones(2))
        empty.save()
        assert header_and_rows(tmp_path / "new.jsonl")[0]["items"] == [["q1", "k1"]]

    @pytest.mark.parametrize("cut", [1, 8, 13])
    def test_a_payload_of_another_size_is_refused_naming_the_file(self, tmp_path, cut):
        path = tmp_path / "emb.jsonl"
        saved(path, {"q0": [0.6, 0.8], "q1": [0.8, 0.6]})
        path.write_bytes(path.read_bytes()[:-cut])
        expected = rf"^{re.escape(str(path))}: {32 - cut} bytes of rows, expected 32 for 2 rows of dim 2$"
        with pytest.raises(ClusteringError, match=expected):
            EmbeddingCache(path)

    def test_a_payload_longer_than_the_rows_is_refused(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        saved(path, {"q0": [0.6, 0.8]})
        path.write_bytes(path.read_bytes() + np.ones(2).tobytes())
        with pytest.raises(ClusteringError, match="32 bytes of rows, expected 16 for 1 rows of dim 2$"):
            EmbeddingCache(path)

    @pytest.mark.parametrize(
        "edit, match",
        [
            (lambda h: json.dumps(h)[:-1], "bad header: Unterminated string|bad header: Expecting"),
            (lambda h: {**h, "version": 2}, "bad header: version 2, expected 1"),
            (lambda h: {k: v for k, v in h.items() if k != "dim"}, "bad header: 'dim'"),
            (lambda h: {**h, "dim": "2"}, "bad header: dim '2' is no count"),
            (lambda h: {**h, "dim": True}, "bad header: dim True is no count"),
            (lambda h: {**h, "dim": -2}, "bad header: dim -2 is no count"),
            (lambda h: {**h, "items": {"q0": "k0"}}, r"bad header: items are not \[item_id, key\] string pairs"),
            (lambda h: {**h, "items": [["q0", "k0", "x"], ["q1", "k1"]]}, "bad header: items are not"),
            (lambda h: {**h, "items": [["q0", 5], ["q1", "k1"]]}, "bad header: items are not"),
            (lambda h: {**h, "items": [["q0", "k0"], ["q0", "k1"]]}, "bad header: item q0 repeated$"),
            (lambda h: {k: v for k, v in h.items() if k != "version"}, "bad header: 'version'"),
        ],
        ids=["not-json", "version", "no-dim", "dim-text", "dim-bool", "dim-negative", "items-object", "a-triple",
             "a-number-key", "repeated-item", "no-version"],
    )
    def test_a_bad_header_is_refused_naming_the_file(self, tmp_path, edit, match):
        path = tmp_path / "emb.jsonl"
        saved(path, {"q0": [0.6, 0.8], "q1": [0.8, 0.6]})
        header, rows = header_and_rows(path)
        edited = edit(header)  # a header, or the text of one
        text = edited if isinstance(edited, str) else json.dumps(edited)
        path.write_bytes(text.encode("ascii") + b"\n" + rows)
        with pytest.raises(ClusteringError, match=rf"^{re.escape(str(path))}: ") as info:
            EmbeddingCache(path)
        assert re.search(match, str(info.value)), info.value

    @pytest.mark.parametrize("bad", [[0.0, 0.0], [1e-13, 0.0], [float("nan"), 1.0], [float("-inf"), 1.0]])
    def test_a_degenerate_row_is_logged_by_its_row_number_and_dropped_at_the_next_save(self, tmp_path, caplog, bad):
        path = tmp_path / "emb.jsonl"
        items = saved(path, {"q0": [0.6, 0.8], "q1": bad, "q2": [0.8, 0.6]})
        with caplog.at_level(logging.WARNING, logger="langselect.clustering"):
            loaded = EmbeddingCache(path)
        assert caplog.messages == [f"{path}: row 2, item q1: a NaN, an inf or a zero norm; left uncached"]
        assert sorted(loaded.vectors(items)) == ["q0", "q2"]
        loaded.save()
        assert [item_id for item_id, _ in header_and_rows(path)[0]["items"]] == ["q0", "q2"]

    def test_a_finite_row_whose_norm_overflows_is_kept(self, tmp_path, caplog):
        path = tmp_path / "emb.jsonl"
        items = saved(path, {"q0": [1e300, 1e300], "q1": [1e300, np.inf]})
        with caplog.at_level(logging.WARNING, logger="langselect.clustering"):
            loaded = EmbeddingCache(path).vectors(items)
        assert caplog.messages == [f"{path}: row 2, item q1: a NaN, an inf or a zero norm; left uncached"]
        assert as_bytes(loaded) == as_bytes({"q0": [1e300, 1e300]})

    @pytest.mark.parametrize("line", [legacy_line, f8_line], ids=["values", "f8"])
    def test_a_json_lines_file_loads_bit_identical_and_save_rewrites_it_to_the_same_vectors(self, tmp_path, line):
        rng = np.random.default_rng(13)
        vectors = {f"q{i}": unit_rows(rng.normal(size=(1, 16)))[0] for i in range(5)}
        vectors["q0"][:3] = (-0.0, 5e-324, 1e308)
        path = tmp_path / "emb.jsonl"
        items = [make_item(item_id) for item_id in vectors]
        write_lines(path, [(i.item_id, item_embedding_key(i), vectors[i.item_id]) for i in items], line)

        assert as_bytes(EmbeddingCache(path).vectors(items)) == as_bytes(vectors)
        EmbeddingCache(path).save()
        header, rows = header_and_rows(path)
        assert header["items"] == [[i.item_id, item_embedding_key(i)] for i in items]
        assert rows == b"".join(vectors[i.item_id].tobytes() for i in items)
        assert as_bytes(EmbeddingCache(path).vectors(items)) == as_bytes(vectors)

    @pytest.mark.parametrize(
        "bad_line, match",
        [
            ('{"item_id": "q1", "key": "k1", "dim": 2, "f8": "####"}\n', "bad base64"),
            (f8_line("q1", "k1", np.ones(2)).replace('"dim": 2', '"dim": 3'), "expected 24"),
            (legacy_line("q1", "k1", np.ones(2)).replace('"dim": 2', '"dim": 3'), "expected dim 3"),
            ('{"item_id": "q1", "key": "k1", "di\n', "line 2 corrupt"),
            ('{"item_id": "q1", "key": "k1"\n', "line 2 corrupt: Expecting ',' delimiter: line 1 column 30"),
            (f8_line("q1", "k1", np.ones(2)).replace('"k1"', '["k1"]'), r"key \['k1'\] or item_id 'q1' is no string$"),
            (f8_line("q1", "k1", np.ones(2)).replace('"q1"', "1"), "key 'k1' or item_id 1 is no string$"),
        ],
    )
    def test_a_corrupt_json_line_names_file_and_line(self, tmp_path, bad_line, match):
        path = tmp_path / "emb.jsonl"
        write_lines(path, [("q0", "k0", [0.6, 0.8]), ("q2", "k2", [0.8, 0.6])])
        first, last = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text(first + bad_line + last, encoding="utf-8")
        with pytest.raises(ClusteringError, match=re.escape(f"{path}: line 2 corrupt")) as info:
            EmbeddingCache(path)
        assert re.search(match, str(info.value))

    def test_a_json_line_of_another_width_than_the_first_is_refused_naming_line_and_item(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        write_lines(path, [(f"q{n}", f"k{n}", np.ones(width)) for n, width in enumerate((3, 3, 4, 5))])
        with pytest.raises(ClusteringError, match=rf"^{re.escape(str(path))}: line 3 corrupt: item q2: width 4, not 3 as line 1$"):
            EmbeddingCache(path)

    @pytest.mark.parametrize("bad", [[0.0, 0.0], [1e-13, 0.0], [float("nan"), 1.0], [float("-inf"), 1.0]])
    def test_a_degenerate_json_line_is_logged_left_uncached_and_dropped_at_the_next_save(self, tmp_path, caplog, bad):
        path = tmp_path / "emb.jsonl"
        items = [make_item(f"q{n}") for n in range(3)]
        write_lines(path, [(i.item_id, item_embedding_key(i), v) for i, v in zip(items, ([0.6, 0.8], bad, [0.8, 0.6]))])
        with caplog.at_level(logging.WARNING, logger="langselect.clustering"):
            loaded = EmbeddingCache(path)
        assert caplog.messages == [f"{path}: line 2, item q1: a NaN, an inf or a zero norm; left uncached"]
        assert sorted(loaded.vectors(items)) == ["q0", "q2"]
        loaded.save()
        assert [item_id for item_id, _ in header_and_rows(path)[0]["items"]] == ["q0", "q2"]

    def test_load_peak_memory_under_one_and_a_half_times_the_vectors(self, tmp_path):
        n, d = 500, 3072
        path = tmp_path / "emb.jsonl"
        cache = EmbeddingCache(path)
        items = [make_item(f"q{i}") for i in range(n)]
        for item, v in zip(items, np.random.default_rng(14).normal(size=(n, d))):
            cache.put(item_embedding_key(item), item.item_id, v)
        cache.save()
        del cache
        tracemalloc.start()
        try:
            loaded = EmbeddingCache(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(loaded.vectors(items)) == n
        assert peak < 1.5 * n * d * 8, (peak, n * d * 8)

    def test_save_streams_the_rows_without_a_copy_of_the_vectors(self, tmp_path):
        n, d = 500, 3072
        cache = EmbeddingCache(tmp_path / "emb.jsonl")
        for i, v in enumerate(np.random.default_rng(18).normal(size=(n, d))):
            cache.put(f"k{i}", f"q{i}", v)
        tracemalloc.start()
        try:
            cache.save()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * n * d * 8, (peak, n * d * 8)


# A stored k-means fit (a cluster model file) is reused only under the
# FIT_VERSION that made it, which its ``fit_key`` hashes. An edit of the code
# below changes this digest: bump FIT_VERSION with it, so stale fits are made
# again, then update both.
FIT_CODE = (
    "_normalize_rows",
    "_kmeans_pp_init",
    "_squared_distances",
    "_repair_empty_clusters",
    "kmeans_fit",
    "inertia",
    "_best_fit",
)
PINNED_FIT = (2, "fa07940b0af8831e7e52a7fdcc769ed2acc0f43597a6494f04caf818d5c47dfa")


def test_fit_version_is_bumped_with_every_edit_of_the_fit_code():
    parts = [inspect.getsource(getattr(clustering, name)) for name in FIT_CODE]
    parts += [repr(clustering._MOVE_TOL), repr(clustering._MAX_ITER)]
    digest = hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()
    assert (clustering.FIT_VERSION, digest) == PINNED_FIT


def test_the_package_exports_the_seed_set_trainer():
    import langselect

    assert langselect.train_lsk_best is train_lsk_best
    assert "train_lsk_best" in langselect.__all__
    assert not hasattr(clustering, "train_lsk")
