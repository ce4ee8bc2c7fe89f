import dataclasses
import itertools
import os
import tracemalloc

import numpy as np
import pytest

from langselect import clustering
from langselect.clustering import (
    ClusterModel,
    ClusteringError,
    EmbeddingCache,
    LskRouter,
    assign,
    assign_many,
    embed_items,
    embedding_text,
    inertia,
    item_embedding_key,
    kmeans_fit,
    lsk_select,
    train_lsk,
    train_lsk_best,
)
from langselect.gateway import ModelEndpoint
from langselect.languages import Language, canonical_index
from langselect.selectors import train_global_language
from langselect.synthetic import SyntheticSpec, generate

from helpers import INVALID, MISSING, make_item, make_matrix, random_matrix
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


class TestAssign:
    def test_exact_centroid_match(self):
        centroids = np.eye(4)
        assert assign(centroids[3], centroids) == 3

    def test_tie_goes_to_lowest_id(self):
        centroids = np.array([[1.0, 0.0], [0.0, 1.0]])
        midpoint = np.array([0.5, 0.5])
        assert assign(midpoint, centroids) == 0
        # Equidistant from all 32 axes: an exact 32-way tie.
        assert assign(np.full(32, 32**-0.5), np.eye(32)) == 0

    def test_k_one_always_zero(self):
        centroids = np.array([[1.0, 0.0]])
        assert assign(np.array([0.0, 1.0]), centroids) == 0

    def test_dimension_mismatch(self):
        centroids = np.eye(3)
        with pytest.raises(ClusteringError):
            assign(np.array([1.0, 0.0]), centroids)
        with pytest.raises(ClusteringError):
            assign_many(np.ones((2, 2)), centroids)


def vectors_for(matrix, dim=6, seed=0):
    rng = np.random.default_rng(seed)
    return {item_id: unit_rows(rng.normal(size=(1, dim)))[0] for item_id in matrix.items}


class TestTrainLsk:
    def test_expert_is_unique_maximizer(self):
        rows = {f"q{i}": {EN: False, HI: True, ES: False} for i in range(8)}
        _, matrix = make_matrix(rows)
        model = train_lsk(vectors_for(matrix), matrix, k=2, seed=0)
        assert set(model.expert_language.values()) == {HI}

    def test_all_zero_accuracy_defaults_english(self):
        rows = {f"q{i}": {EN: False, HI: False, ES: False} for i in range(6)}
        _, matrix = make_matrix(rows)
        model = train_lsk(vectors_for(matrix), matrix, k=2, seed=0)
        assert set(model.expert_language.values()) == {EN}

    def test_member_counts_sum_to_train_size(self):
        import random as _random

        _, matrix = random_matrix(_random.Random(0), 40, [EN, ES, HI])
        model = train_lsk(vectors_for(matrix), matrix, k=5, seed=1)
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
        # A cell absent from the matrix reads as missing.
        kept = {key: cell for n, (key, cell) in enumerate(matrix.cells.items()) if n % 7}
        matrix = dataclasses.replace(matrix, cells=kept)
        vectors = vectors_for(matrix, seed=9)
        model = train_lsk(vectors, matrix, k=5, seed=2)
        labels = assign_many(np.stack([vectors[i] for i in matrix.items]), model.centroids)
        assert sum(model.member_counts.values()) == len(matrix.items)
        assert model.member_counts == dict(enumerate(np.bincount(labels, minlength=5).tolist()))
        ties = 0
        for cluster, accs in model.train_accuracy.items():
            members = [item for item, label in zip(matrix.items, labels) if label == cluster]
            for lang in matrix.languages:
                hits = sum(1 for item in members if matrix.cell(item, lang).correct)
                assert accs[lang] == hits / len(members)
            tied = [lang for lang in matrix.languages if accs[lang] == max(accs.values())]
            assert model.expert_language[cluster] is min(tied, key=canonical_index)
            ties += len(tied) > 1
        assert ties > 0

    def test_expert_optimality_invariant(self):
        import random as _random

        for trial in range(10):
            _, matrix = random_matrix(_random.Random(trial), 30, [EN, ES, HI])
            model = train_lsk(vectors_for(matrix, seed=trial), matrix, k=4, seed=trial)
            for cluster, accs in model.train_accuracy.items():
                expert = model.expert_language[cluster]
                assert all(accs[expert] >= acc for acc in accs.values())

    def test_k1_collapse_equals_global_language(self):
        import random as _random

        for trial in range(20):
            _, matrix = random_matrix(_random.Random(100 + trial), 25, [EN, ES, HI])
            vectors = vectors_for(matrix, seed=trial)
            model = train_lsk(vectors, matrix, k=1, seed=0)
            assert model.expert_language[0] is train_global_language(matrix).language
            any_vector = next(iter(vectors.values()))
            assert lsk_select(any_vector, model) is train_global_language(matrix).language

    def test_missing_vector_errors(self):
        _, matrix = make_matrix({"q1": {EN: True}, "q2": {EN: False}})
        with pytest.raises(ClusteringError, match="without embeddings"):
            train_lsk({"q1": np.ones(3)}, matrix, k=1, seed=0)

    def test_deterministic_model(self):
        import random as _random

        _, matrix = random_matrix(_random.Random(55), 30, [EN, ES])
        vectors = vectors_for(matrix, seed=5)
        assert train_lsk(vectors, matrix, 3, seed=2) == train_lsk(vectors, matrix, 3, seed=2)

    def test_json_round_trip_bit_exact(self):
        import random as _random

        _, matrix = random_matrix(_random.Random(56), 20, [EN, ES, HI])
        model = train_lsk(vectors_for(matrix, seed=6), matrix, k=3, seed=4)
        restored = ClusterModel.from_json(model.to_json())
        assert restored == model
        assert np.array_equal(restored.centroids, model.centroids)

    def test_best_of_seeds_prefers_lower_inertia(self):
        import random as _random

        _, matrix = random_matrix(_random.Random(57), 40, [EN, ES])
        vectors = vectors_for(matrix, seed=7)
        X = np.stack([vectors[i] for i in matrix.items])
        best = train_lsk_best(vectors, matrix, k=4, seeds=range(6))
        best_inertia = inertia(X, best.centroids)
        for s in range(6):
            single = train_lsk(vectors, matrix, k=4, seed=s)
            assert best_inertia <= inertia(X, single.centroids) + 1e-9


class TestLskRouting:
    def test_route_composes_assign_and_expert(self):
        rows = {f"q{i}": {EN: i % 2 == 0, HI: i % 2 == 1} for i in range(10)}
        _, matrix = make_matrix(rows)
        vectors = vectors_for(matrix, seed=8)
        model = train_lsk(vectors, matrix, k=2, seed=0)
        router = LskRouter(model=model, vectors=vectors)
        for item_id, vec in vectors.items():
            assert router.route(item_id) is model.expert_language[assign(vec, model.centroids)]

    def test_far_outlier_still_routed(self):
        model = ClusterModel(
            k=1,
            seed=0,
            centroids=np.array([[1.0, 0.0]]),
            expert_language={0: Language.FRENCH},
            train_accuracy={0: {Language.FRENCH: 1.0}},
            member_counts={0: 5},
        )
        assert lsk_select(np.array([0.0, -1.0]), model) is Language.FRENCH

    def test_unknown_item_errors(self):
        model = ClusterModel(
            k=1,
            seed=0,
            centroids=np.array([[1.0, 0.0]]),
            expert_language={0: EN},
            train_accuracy={0: {EN: 1.0}},
            member_counts={0: 1},
        )
        router = LskRouter(model=model, vectors={})
        with pytest.raises(ClusteringError, match="embed"):
            router.route("q1")


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
        model = train_lsk(data.vectors, data.matrix, k=4, seed=1)
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

    def test_zero_vector_from_endpoint_is_error(self, monkeypatch):
        items = [make_item("q0")]
        endpoint = ModelEndpoint(base_url="http://unused", model_name="embedder", timeout=5.0)
        monkeypatch.setattr(
            "langselect.clustering.embed_texts", lambda texts, *a, **k: [[0.0, 0.0, 0.0]]
        )
        with pytest.raises(ClusteringError, match="degenerate"):
            embed_items(items, endpoint)

    def test_embedding_text_uses_question_and_choices(self, dress_code_item):
        text = embedding_text(dress_code_item)
        assert dress_code_item.question in text
        for choice in dress_code_item.choices:
            assert choice.text in text
