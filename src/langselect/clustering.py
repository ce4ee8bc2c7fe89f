"""Expert-language routing by query clustering.

Training queries are embedded into a shared semantic space, clustered with
seeded k-means (k-means++ init, Lloyd iterations on the unit sphere), and each
cluster is assigned the language with the highest training accuracy over its
members. At test time a query routes to its nearest centroid's expert
language.

Embeddings are unit-normalized and distances are squared Euclidean, which is
monotone in cosine distance on the sphere while keeping centroid means exact.
They are expanded as ||x||^2 + ||c||^2 - 2 x.c and clamped at 0, so memory
stays O(n*k + n*d) at embedding widths of 768-3072.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .datasets import McqItem
from .gateway import ModelEndpoint, embed_texts
from .languages import Language, canonical_index
from .store import ResponseMatrix

logger = logging.getLogger(__name__)

_MOVE_TOL = 1e-6
_MAX_ITER = 100


class ClusteringError(RuntimeError):
    pass


def embedding_text(item: McqItem) -> str:
    """Text embedded for routing: source question plus its choice texts."""
    return "\n".join([item.question, *(c.text for c in item.choices)])


def _normalize_rows(X: np.ndarray, what: str) -> np.ndarray:
    norms = np.linalg.norm(X, axis=1, keepdims=True)
    if np.any(norms <= 1e-12):
        raise ClusteringError(f"degenerate embedding: zero-norm {what}")
    return X / norms


class EmbeddingCache:
    """JSONL-backed embedding cache keyed by item content hash."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._by_key: dict[str, np.ndarray] = {}
        self._item_key: dict[str, str] = {}
        if self.path.exists():
            with self.path.open("r", encoding="utf-8") as fh:
                for line in fh:
                    if not line.strip():
                        continue
                    entry = json.loads(line)
                    values = np.asarray(entry["values"], dtype=np.float64)
                    self._by_key[entry["key"]] = values
                    self._item_key[entry["item_id"]] = entry["key"]

    def __len__(self) -> int:
        return len(self._by_key)

    def get(self, key: str) -> np.ndarray | None:
        return self._by_key.get(key)

    def vectors_by_item(self) -> dict[str, np.ndarray]:
        return {item_id: self._by_key[key] for item_id, key in self._item_key.items()}

    def put(self, key: str, item_id: str, values: np.ndarray) -> None:
        self._by_key[key] = values
        self._item_key[item_id] = key

    def save(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(self.path.suffix + ".tmp")
        with tmp.open("w", encoding="utf-8") as fh:
            for item_id, key in sorted(self._item_key.items()):
                values = self._by_key[key]
                entry = {
                    "item_id": item_id,
                    "key": key,
                    "dim": int(values.shape[0]),
                    "values": [float(v) for v in values],
                }
                fh.write(json.dumps(entry) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        tmp.replace(self.path)


def item_embedding_key(item: McqItem) -> str:
    return hashlib.sha256(embedding_text(item).encode("utf-8")).hexdigest()[:24]


def embed_items(items: Sequence[McqItem], endpoint: ModelEndpoint, *, backoff: float = 0.5) -> np.ndarray:
    """One batch: a unit vector per item, as the rows of an array in item order."""
    vectors = embed_texts([embedding_text(i) for i in items], endpoint, backoff=backoff)
    return _normalize_rows(np.asarray(vectors, dtype=np.float64), "vector from endpoint")


def _kmeans_pp_init(X: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = X.shape[0]
    chosen: list[int] = [int(rng.integers(n))]
    closest = ((X - X[chosen[0]]) ** 2).sum(axis=1)
    while len(chosen) < k:
        total = float(closest.sum())
        if total <= 0.0:
            # All remaining mass on duplicates of chosen points; pick uniformly
            # among unchosen indices.
            remaining = np.setdiff1d(np.arange(n), np.asarray(chosen))
            idx = int(rng.choice(remaining))
        else:
            idx = int(rng.choice(n, p=closest / total))
        chosen.append(idx)
        closest = np.minimum(closest, ((X - X[idx]) ** 2).sum(axis=1))
    return X[np.asarray(chosen)].copy()


def _squared_distances(X: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """(n, k) squared distances as ||x||^2 + ||c||^2 - 2 x.c, clamped at 0.

    Rows need not be unit norm. Memory is O(n*k + n*d): no (n, k, d)
    temporary. ``einsum`` (unoptimized) keeps the cross term off BLAS, whose
    idle threads spin and burn CPU time on a small host.
    """
    d2 = np.einsum("ij,ij->i", X, X)[:, None] + np.einsum("ij,ij->i", centroids, centroids)[None, :]
    d2 -= 2.0 * np.einsum("ij,kj->ik", X, centroids)
    return np.maximum(d2, 0.0, out=d2)


def _repair_empty_clusters(labels: np.ndarray, d2: np.ndarray, k: int) -> np.ndarray:
    """Give each empty cluster the point currently farthest from its centroid."""
    labels = labels.copy()
    sizes = np.bincount(labels, minlength=k)
    own_d2 = d2[np.arange(len(labels)), labels]
    for cluster in range(k):
        if sizes[cluster] > 0:
            continue
        order = np.argsort(-own_d2, kind="stable")
        for idx in order:
            if sizes[labels[idx]] > 1:
                sizes[labels[idx]] -= 1
                labels[idx] = cluster
                sizes[cluster] = 1
                own_d2[idx] = 0.0
                break
        else:  # pragma: no cover - unreachable while n >= k
            raise ClusteringError("cannot repair empty cluster")
    return labels


def kmeans_fit(vectors: np.ndarray, k: int, seed: int) -> np.ndarray:
    """Seeded spherical k-means; returns (k, d) unit centroids.

    Deterministic given (row order, k, seed). Stops after 100 iterations or
    once the largest centroid movement drops below 1e-6. Within-cluster
    inertia is checked to be non-increasing every iteration.
    """
    X = np.asarray(vectors, dtype=np.float64)
    if X.ndim != 2:
        raise ClusteringError("vectors must be a 2-d array")
    n = X.shape[0]
    if k <= 0:
        raise ClusteringError("k must be >= 1")
    if k > n:
        raise ClusteringError(f"k={k} exceeds the {n} available vectors")
    X = _normalize_rows(X, "input vector")
    rng = np.random.default_rng(seed)
    centroids = _kmeans_pp_init(X, k, rng)
    previous_inertia = np.inf
    for _ in range(_MAX_ITER):
        d2 = _squared_distances(X, centroids)
        labels = d2.argmin(axis=1)
        inertia = float(d2[np.arange(n), labels].sum())
        if inertia > previous_inertia + 1e-9 * (1.0 + previous_inertia):
            raise AssertionError("k-means inertia increased between iterations")
        previous_inertia = inertia
        labels = _repair_empty_clusters(labels, d2, k)
        new_centroids = np.empty_like(centroids)
        for cluster in range(k):
            members = X[labels == cluster]
            new_centroids[cluster] = members.mean(axis=0)
        new_centroids = _normalize_rows(new_centroids, "centroid")
        movement = float(np.linalg.norm(new_centroids - centroids, axis=1).max())
        centroids = new_centroids
        if movement < _MOVE_TOL:
            break
    return centroids


def inertia(vectors: np.ndarray, centroids: np.ndarray) -> float:
    X = np.asarray(vectors, dtype=np.float64)
    d2 = _squared_distances(X, centroids)
    return float(d2.min(axis=1).sum())


def assign(vector: np.ndarray, centroids: np.ndarray) -> int:
    """Nearest-centroid id for one vector; ties go to the lowest cluster id."""
    return int(assign_many(np.asarray(vector)[None, :], centroids)[0])


def assign_many(vectors: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    X = np.asarray(vectors, dtype=np.float64)
    if X.shape[1] != centroids.shape[1]:
        raise ClusteringError(
            f"vector dimension {X.shape[1]} does not match centroids ({centroids.shape[1]})"
        )
    return _squared_distances(X, centroids).argmin(axis=1)


@dataclass(frozen=True)
class ClusterModel:
    """Fitted centroids plus per-cluster language accuracies and experts."""

    k: int
    seed: int
    centroids: np.ndarray
    expert_language: dict[int, Language]
    train_accuracy: dict[int, dict[Language, float]]
    member_counts: dict[int, int]

    def __eq__(self, other) -> bool:
        if not isinstance(other, ClusterModel):
            return NotImplemented
        return (
            self.k == other.k
            and self.seed == other.seed
            and np.array_equal(self.centroids, other.centroids)
            and self.expert_language == other.expert_language
            and self.train_accuracy == other.train_accuracy
            and self.member_counts == other.member_counts
        )

    def to_json(self) -> str:
        payload = {
            "k": self.k,
            "seed": self.seed,
            "centroids": [[float(v) for v in row] for row in self.centroids],
            "expert_language": {str(c): lang.value for c, lang in sorted(self.expert_language.items())},
            "train_accuracy": {
                str(c): {lang.value: acc for lang, acc in sorted(accs.items(), key=lambda kv: canonical_index(kv[0]))}
                for c, accs in sorted(self.train_accuracy.items())
            },
            "member_counts": {str(c): n for c, n in sorted(self.member_counts.items())},
        }
        return json.dumps(payload, ensure_ascii=False, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ClusterModel":
        data = json.loads(text)
        return cls(
            k=int(data["k"]),
            seed=int(data["seed"]),
            centroids=np.asarray(data["centroids"], dtype=np.float64),
            expert_language={int(c): Language(v) for c, v in data["expert_language"].items()},
            train_accuracy={
                int(c): {Language(lang): float(acc) for lang, acc in accs.items()}
                for c, accs in data["train_accuracy"].items()
            },
            member_counts={int(c): int(n) for c, n in data["member_counts"].items()},
        )


def train_lsk(
    vectors: Mapping[str, np.ndarray],
    train_matrix: ResponseMatrix,
    k: int,
    seed: int,
) -> ClusterModel:
    """Fit clusters over the training vectors and pick each cluster's expert."""
    missing = [i for i in train_matrix.items if i not in vectors]
    if missing:
        raise ClusteringError(f"train items without embeddings: {missing[:5]}")
    X = np.stack([np.asarray(vectors[i], dtype=np.float64) for i in train_matrix.items])
    centroids = kmeans_fit(X, k, seed)
    d2 = _squared_distances(_normalize_rows(X, "input vector"), centroids)
    labels = _repair_empty_clusters(d2.argmin(axis=1), d2, k)

    languages = train_matrix.languages
    correct = np.array(
        [[train_matrix.cell(item_id, lang).correct for lang in languages] for item_id in train_matrix.items],
        dtype=np.int64,
    )
    hits = np.zeros((k, len(languages)), dtype=np.int64)
    np.add.at(hits, labels, correct)
    sizes = np.bincount(labels, minlength=k)

    expert: dict[int, Language] = {}
    accuracy: dict[int, dict[Language, float]] = {}
    counts: dict[int, int] = {}
    for cluster in range(k):
        counts[cluster] = int(sizes[cluster])
        per_language = {lang: int(hits[cluster, j]) / counts[cluster] for j, lang in enumerate(languages)}
        accuracy[cluster] = per_language
        expert[cluster] = max(per_language, key=lambda lang: (per_language[lang], -canonical_index(lang)))
    return ClusterModel(
        k=k,
        seed=seed,
        centroids=centroids,
        expert_language=expert,
        train_accuracy=accuracy,
        member_counts=counts,
    )


def train_lsk_best(
    vectors: Mapping[str, np.ndarray],
    train_matrix: ResponseMatrix,
    k: int,
    seeds: Iterable[int],
) -> ClusterModel:
    """Best-of-inertia over several seeds; ties resolve to the lowest seed."""
    best: tuple[float, int, ClusterModel] | None = None
    X = np.stack([np.asarray(vectors[i], dtype=np.float64) for i in train_matrix.items])
    for seed in sorted(set(seeds)):
        model = train_lsk(vectors, train_matrix, k, seed)
        score = inertia(X, model.centroids)
        if best is None or score < best[0] - 1e-12:
            best = (score, seed, model)
    if best is None:
        raise ClusteringError("no seeds supplied")
    return best[2]


def lsk_select(vector: np.ndarray, model: ClusterModel) -> Language:
    return model.expert_language[assign(vector, model.centroids)]


@dataclass(frozen=True)
class LskRouter:
    """Binds a trained model to per-item test vectors for evaluation."""

    model: ClusterModel
    vectors: Mapping[str, np.ndarray]

    def route(self, item_id: str) -> Language:
        try:
            vector = self.vectors[item_id]
        except KeyError:
            raise ClusteringError(f"no embedding for item {item_id}; run the embed stage") from None
        return lsk_select(vector, self.model)
