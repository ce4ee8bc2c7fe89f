"""Synthetic benchmark generator with planted cluster structure.

Produces embeddings, items, and a fully populated response matrix whose
ground truth (cluster membership and per-cluster expert language) is known,
so selector and clustering behavior can be verified without any live model.
Correctness draws are independent across languages given the cluster, which
keeps the oracle expectation in closed form:
``1 - (1 - p_expert) * (1 - p_other) ** (|languages| - 1)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .datasets import Choice, DatasetId, McqItem
from .languages import Language, canonical_sorted
from .store import LABELS, ResponseMatrix, read_json

_REJECTION_ATTEMPTS_PER_CENTROID = 1000
_CHOICE_COUNT = 4

SYNTHETIC_MODEL_NAME = "synthetic"


class SyntheticSpecError(ValueError):
    pass


@dataclass(frozen=True)
class SyntheticSpec:
    n_items: int
    k_true: int
    dim: int
    languages: tuple[Language, ...]
    expert_per_cluster: tuple[Language, ...]
    p_expert: float
    p_other: float
    spread: float
    separation: float
    seed: int

    def __post_init__(self) -> None:
        if self.n_items < 1:
            raise SyntheticSpecError("n_items must be >= 1")
        if not 1 <= self.k_true <= self.n_items:
            raise SyntheticSpecError("k_true must be in [1, n_items]")
        if self.dim < 1:
            raise SyntheticSpecError("dim must be >= 1")
        if not self.languages:
            raise SyntheticSpecError("languages must be non-empty")
        if len(self.expert_per_cluster) != self.k_true:
            raise SyntheticSpecError("expert_per_cluster must have k_true entries")
        if any(lang not in self.languages for lang in self.expert_per_cluster):
            raise SyntheticSpecError("expert languages must be in the language set")
        # p_other == p_expert is allowed: it is the symmetric (no-signal) bench.
        if not 0.0 <= self.p_other <= self.p_expert <= 1.0:
            raise SyntheticSpecError("need 0 <= p_other <= p_expert <= 1")
        if self.spread < 0:
            raise SyntheticSpecError("spread must be non-negative")
        if self.separation < 0:
            raise SyntheticSpecError("separation must be non-negative")

    @classmethod
    def from_json(cls, path: str | Path) -> "SyntheticSpec":
        return cls.from_dict(read_json(path, SyntheticSpecError))

    @classmethod
    def from_dict(cls, data: dict) -> "SyntheticSpec":
        try:
            return cls(
                n_items=int(data["n_items"]),
                k_true=int(data["k_true"]),
                dim=int(data["dim"]),
                languages=tuple(Language(c) for c in data["languages"]),
                expert_per_cluster=tuple(Language(c) for c in data["expert_per_cluster"]),
                p_expert=float(data["p_expert"]),
                p_other=float(data["p_other"]),
                spread=float(data.get("spread", 0.05)),
                separation=float(data.get("separation", 0.5)),
                seed=int(data.get("seed", 0)),
            )
        except KeyError as exc:
            raise SyntheticSpecError(f"spec file missing field {exc}") from None


@dataclass(frozen=True)
class SyntheticData:
    items: list[McqItem]
    vectors: dict[str, np.ndarray]
    matrix: ResponseMatrix
    cluster_of: dict[str, int]
    experts: tuple[Language, ...]
    centroids: np.ndarray


def expected_oracle_accuracy(spec: SyntheticSpec) -> float:
    return 1.0 - (1.0 - spec.p_expert) * (1.0 - spec.p_other) ** (len(spec.languages) - 1)


def _sample_centroids(spec: SyntheticSpec, rng: np.random.Generator) -> np.ndarray:
    centroids: list[np.ndarray] = []
    attempts = 0
    budget = _REJECTION_ATTEMPTS_PER_CENTROID * spec.k_true
    while len(centroids) < spec.k_true:
        if attempts >= budget:
            raise SyntheticSpecError(
                f"could not place {spec.k_true} centroids at separation {spec.separation} in dim {spec.dim}"
            )
        attempts += 1
        candidate = rng.normal(size=spec.dim)
        norm = np.linalg.norm(candidate)
        if norm <= 1e-12:
            continue
        candidate = candidate / norm
        if all(np.linalg.norm(candidate - c) >= spec.separation for c in centroids):
            centroids.append(candidate)
    return np.asarray(centroids)


def generate(spec: SyntheticSpec) -> SyntheticData:
    """Deterministically generate (items, vectors, matrix, ground truth)."""
    rng = np.random.default_rng(spec.seed)
    centroids = _sample_centroids(spec, rng)
    languages = tuple(canonical_sorted(dict.fromkeys(spec.languages)))

    items: list[McqItem] = []
    vectors: dict[str, np.ndarray] = {}
    cluster_of: dict[str, int] = {}
    cells = bytearray()
    gold_map: dict[str, str] = {}

    labels = LABELS[:_CHOICE_COUNT]
    for i in range(spec.n_items):
        cluster = i % spec.k_true
        item_id = f"custom/synth-{i:05d}"
        vector = centroids[cluster].copy()
        if spec.spread > 0:
            vector = vector + rng.normal(0.0, spec.spread, size=spec.dim)
        norm = np.linalg.norm(vector)
        if norm <= 1e-12:  # pragma: no cover - needs spread >> 1
            vector = centroids[cluster].copy()
            norm = 1.0
        vectors[item_id] = vector / norm
        cluster_of[item_id] = cluster

        gold = labels[int(rng.integers(_CHOICE_COUNT))]
        item = McqItem(
            item_id=item_id,
            dataset_id=DatasetId.CUSTOM,
            question=f"Synthetic query {i} (topic {cluster})",
            choices=tuple(Choice(lab, f"option {lab} for item {i}") for lab in labels),
            gold_label=gold,
            country=f"cluster-{cluster}",
        )
        items.append(item)
        gold_map[item_id] = gold

        expert = spec.expert_per_cluster[cluster]
        wrong = [lab for lab in labels if lab != gold]
        for lang in languages:
            p = spec.p_expert if lang == expert else spec.p_other
            cells.append(ord(gold if rng.random() < p else wrong[int(rng.integers(len(wrong)))]))

    matrix = ResponseMatrix(
        languages=languages,
        items=tuple(gold_map),
        cells=bytes(cells),
        gold=gold_map,
    )
    return SyntheticData(
        items=items,
        vectors=vectors,
        matrix=matrix,
        cluster_of=cluster_of,
        experts=spec.expert_per_cluster,
        centroids=centroids,
    )
