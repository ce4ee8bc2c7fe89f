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

Persisted vectors keep their little-endian float64 bytes, so they read back
exactly. The embedding cache is one JSON header line and then the raw rows,
read into one array by ``np.fromfile`` (``EmbeddingCache``). Cluster centroids,
inside a JSON model file, are base64 of those bytes: about half the size of
the same floats as JSON text, and a small fraction of its encode and parse time.

Each cache is read by the key it is written under. A vector is found by its
item's content key (``item_embedding_key``), by ``embed`` and ``evaluate``
alike, so an edited item has no vector until it is embedded again and an item
with the text of a cached one shares its vector. A fit depends only on the
train array, k and the seeds, never on the response matrix, so a cluster model
file is also the fit cache: it names its fit by ``fit_key``, and the next
``evaluate`` of the same split reads back only that key, the seed and the
centroids (``stored_fit``) and reuses them under the same key.
"""

from __future__ import annotations

import base64
import hashlib
import json
import logging
import os
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .datasets import McqItem
from .gateway import GatewayError, ModelEndpoint, embed_texts
from .languages import Language, canonical_index
from .store import ResponseMatrix, read_json, write_atomic

logger = logging.getLogger(__name__)

_MOVE_TOL = 1e-6
_MAX_ITER = 100
_INIT_BLOCK_BYTES = 256 * 1024

# Names the code that turns a train array, k and seeds into centroids; a stored
# fit is reused only under the same version. Bump it with every change to
# what a fit computes: tests/test_clustering.py pins it to that code.
FIT_VERSION = 2


class ClusteringError(RuntimeError):
    pass


def embedding_text(item: McqItem) -> str:
    """Text embedded for routing: source question plus its choice texts."""
    return "\n".join([item.question, *(c.text for c in item.choices)])


def _normalize_rows(X: np.ndarray, what: str) -> np.ndarray:
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(X, axis=1, keepdims=True)
    if np.any(norms <= 1e-12):
        raise ClusteringError(f"degenerate embedding: zero-norm {what}")
    unit, huge = X / norms, np.isinf(norms[:, 0])
    if huge.any():  # a finite row whose norm overflows: scale it by its largest magnitude first
        scaled = X[huge] / np.abs(X[huge]).max(axis=1, keepdims=True)
        unit[huge] = scaled / np.linalg.norm(scaled, axis=1, keepdims=True)
    return unit


_F8 = np.dtype("<f8")


def encode_f8(values: np.ndarray) -> str:
    """Base64 of the little-endian float64 bytes of ``values``, flattened."""
    return base64.b64encode(np.ascontiguousarray(values, dtype=_F8).tobytes()).decode("ascii")


def decode_f8(text: str, dim: int) -> np.ndarray:
    """The ``dim`` float64 values ``encode_f8`` wrote, bit for bit."""
    try:
        raw = base64.b64decode(text, validate=True)
    except (TypeError, ValueError) as exc:  # binascii.Error is a ValueError
        raise ClusteringError(f"bad base64: {exc}") from None
    if len(raw) != 8 * dim:
        raise ClusteringError(f"{len(raw)} bytes decoded, expected {8 * dim} for dim {dim}")
    return np.frombuffer(raw, dtype=_F8).astype(np.float64)


def _cache_vector(entry: dict) -> np.ndarray:
    dim = entry["dim"]
    if "f8" in entry:
        return decode_f8(entry["f8"], dim)
    # Caches written before the f8 encoding hold the floats as text. They hold
    # paid endpoint calls, so they still load; the next save rewrites them.
    values = np.asarray(entry["values"], dtype=np.float64)
    if values.shape != (dim,):
        raise ClusteringError(f"{values.size} values, expected dim {dim}")
    return values


def _usable_rows(rows: np.ndarray) -> np.ndarray:
    """Per row of ``rows``, whether it is finite with a norm above 1e-12, as
    ``_normalize_rows`` needs; no (n, d) float64 temporary is made."""
    with np.errstate(over="ignore"):  # a norm past float64's range is not zero
        squares = np.einsum("ij,ij->i", rows, rows)
    usable = np.sqrt(squares) > 1e-12  # False for a NaN
    huge = np.flatnonzero(np.isinf(squares))  # an inf, or finite values whose squares overflow
    usable[huge] = np.isfinite(rows[huge]).all(axis=1)
    return usable


_FORMAT, _FORMAT_VERSION = "langselect-embeddings", 1
_HEADER_TAG = json.dumps({"format": _FORMAT})[:-1].encode("ascii")  # the first bytes of every header


class EmbeddingCache:
    """Embedding cache keyed by item content hash: one JSON header line (format
    tag, version, ``dim`` and the ``[item_id, key]`` pairs in item id order),
    then one little-endian float64 row of ``dim`` values per pair, read into
    one array by ``np.fromfile``; ``vectors`` gives views of its rows.

    The open refuses a bad header, a payload of another size than the rows and
    a repeated item id. A row with a NaN, an inf or a zero norm is logged and
    left uncached, so ``embed`` plans its item again and ``evaluate`` finds no
    vector for it. A file whose first line has no format tag is the JSON-lines
    cache written before (``_read_lines``); it opens with the same row checks,
    and the next ``save`` rewrites it.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._by_key: dict[str, np.ndarray] = {}
        self._item_key: dict[str, str] = {}
        self._dim: int | None = None  # the width of every vector: the file's rows', else the first put's
        if not self.path.exists():
            return
        with self.path.open("rb") as fh:
            first = fh.readline()
            if first.startswith(_HEADER_TAG):
                ids, keys, rows = self._read_rows(fh, first)
                unit, numbers = "row", range(1, len(ids) + 1)
            else:
                fh.seek(0)
                ids, keys, rows, numbers = self._read_lines(fh)
                unit = "line"
        self._dim = rows.shape[1] if len(rows) else None
        usable = _usable_rows(rows)
        for n in np.flatnonzero(~usable).tolist():
            what = "a NaN, an inf or a zero norm; left uncached"
            logger.warning("%s: %s %d, item %s: %s", self.path, unit, numbers[n], ids[n], what)
        for n in np.flatnonzero(usable).tolist():
            self._by_key[keys[n]] = rows[n]
            self._item_key[ids[n]] = keys[n]

    def _read_rows(self, fh, first: bytes) -> tuple[list[str], list[str], np.ndarray]:
        """The item ids, keys and (n, dim) rows of the file whose header line is ``first``."""
        try:
            header = json.loads(first)
            if header["version"] != _FORMAT_VERSION:
                raise ClusteringError(f"version {header['version']!r}, expected {_FORMAT_VERSION}")
            dim, pairs = header["dim"], header["items"]
            if type(dim) is not int or dim < 0:
                raise ClusteringError(f"dim {dim!r} is no count")
            if not isinstance(pairs, list) or not all(
                type(pair) is list and len(pair) == 2 and type(pair[0]) is str and type(pair[1]) is str
                for pair in pairs
            ):
                raise ClusteringError("items are not [item_id, key] string pairs")
        except (ClusteringError, ValueError, KeyError, TypeError) as exc:
            raise ClusteringError(f"{self.path}: bad header: {exc}") from None
        ids, keys = [pair[0] for pair in pairs], [pair[1] for pair in pairs]
        if len(set(ids)) < len(ids):
            repeated = next(item_id for item_id, count in Counter(ids).items() if count > 1)
            raise ClusteringError(f"{self.path}: bad header: item {repeated} repeated")
        size, n = os.fstat(fh.fileno()).st_size - fh.tell(), len(ids)
        if size != 8 * n * dim:
            raise ClusteringError(f"{self.path}: {size} bytes of rows, expected {8 * n * dim} for {n} rows of dim {dim}")
        return ids, keys, np.fromfile(fh, dtype=_F8, count=n * dim).reshape(n, dim)

    def _read_lines(self, fh) -> tuple[list[str], list[str], np.ndarray, list[int]]:
        """The item ids, keys, stacked rows and line numbers of a JSON-lines file: one
        line per item of ``item_id``, ``key``, ``dim`` and ``f8`` (``encode_f8``'s) or
        ``values``, every vector of the first line's width (else ``line N corrupt``)."""
        ids, keys, vectors, numbers = [], [], [], []
        width = None  # (the file's vector width, the line that set it)
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                entry = json.loads(line.rstrip(b"\n").decode("utf-8"))
                values = _cache_vector(entry)
                key, item_id = entry["key"], entry["item_id"]
                if type(key) is not str or type(item_id) is not str:
                    raise ClusteringError(f"key {key!r} or item_id {item_id!r} is no string")
                width = width or (values.size, lineno)
                if values.size != width[0]:
                    raise ClusteringError(f"item {item_id}: width {values.size}, not {width[0]} as line {width[1]}")
            except (ClusteringError, ValueError, KeyError, TypeError) as exc:
                raise ClusteringError(f"{self.path}: line {lineno} corrupt: {exc}") from None
            ids.append(item_id)
            keys.append(key)
            vectors.append(values)
            numbers.append(lineno)
        return ids, keys, np.stack(vectors) if vectors else np.empty((0, 0)), numbers

    def vectors(self, items: Iterable[McqItem]) -> dict[str, np.ndarray]:
        """``{item_id: vector}`` of each of ``items`` whose ``item_embedding_key`` is cached."""
        found = {item.item_id: self._by_key.get(item_embedding_key(item)) for item in items}
        return {item_id: values for item_id, values in found.items() if values is not None}

    def put(self, key: str, item_id: str, values: np.ndarray) -> None:
        """Cache ``values`` for ``item_id`` under ``key``; ClusteringError naming the file
        and both widths, caching nothing, for a vector of another width than the cache's."""
        if self._dim is not None and len(values) != self._dim:
            raise ClusteringError(f"{self.path}: a vector of width {len(values)} does not fit a cache of width {self._dim}")
        self._dim = len(values)
        self._by_key[key] = values
        self._item_key[item_id] = key

    def save(self) -> None:
        """Write the header and then the rows, one at a time, through ``write_atomic``."""
        pairs = sorted(self._item_key.items())
        header = {"format": _FORMAT, "version": _FORMAT_VERSION, "dim": self._dim or 0, "items": pairs}
        rows = (np.ascontiguousarray(self._by_key[key], dtype=_F8).tobytes() for _, key in pairs)
        write_atomic(self.path, chain([(json.dumps(header) + "\n").encode("ascii")], rows))


def item_embedding_key(item: McqItem) -> str:
    return hashlib.sha256(embedding_text(item).encode("utf-8")).hexdigest()[:24]


def embed_items(items: Sequence[McqItem], endpoint: ModelEndpoint, *, backoff: float = 0.5) -> np.ndarray:
    """One batch: a unit vector per item, as the rows of an array in item order."""
    vectors = np.asarray(embed_texts([embedding_text(i) for i in items], endpoint, backoff=backoff), dtype=np.float64)
    # A malformed reply fails this batch only, like any other bad reply. A NaN or inf passes the zero-norm check.
    if not np.isfinite(vectors).all():
        raise GatewayError("degenerate embedding from endpoint: non-finite vector")
    try:
        return _normalize_rows(vectors, "vector from endpoint")
    except ClusteringError:
        raise GatewayError("degenerate embedding from endpoint: zero-norm vector") from None


def _kmeans_pp_init(X: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding. Each step's squared distances, ``((X - x) ** 2).sum(axis=1)``
    bit for bit, are computed in row blocks of about 256 KB through one reused
    buffer, so no (n, d) temporary is made."""
    n, d = X.shape
    rows = max(1, _INIT_BLOCK_BYTES // (8 * d))
    buffer = np.empty((min(rows, n), d))
    step = np.empty(n)

    def distances_to(x: np.ndarray) -> np.ndarray:
        for start in range(0, n, rows):
            block = buffer[: min(rows, n - start)]
            np.subtract(X[start : start + rows], x, out=block)
            np.square(block, out=block)
            block.sum(axis=1, out=step[start : start + len(block)])
        return step

    chosen: list[int] = [int(rng.integers(n))]
    closest = distances_to(X[chosen[0]]).copy()
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
        np.minimum(closest, distances_to(X[idx]), out=closest)
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


def kmeans_fit(vectors: np.ndarray, k: int, seed: int, *, normalized: bool = False) -> np.ndarray:
    """Seeded spherical k-means; returns (k, d) unit centroids.

    Deterministic given (row order, k, seed). Stops after 100 iterations or
    once the largest centroid movement drops below 1e-6. Within-cluster
    inertia is checked to be non-increasing every iteration. ``normalized``
    says the rows are already what ``_normalize_rows`` returns, so they are
    used as given instead of copied.
    """
    X = np.asarray(vectors, dtype=np.float64)
    if X.ndim != 2:
        raise ClusteringError("vectors must be a 2-d array")
    n = X.shape[0]
    if k <= 0:
        raise ClusteringError("k must be >= 1")
    if k > n:
        raise ClusteringError(f"k={k} exceeds the {n} available vectors")
    if not normalized:
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


def assign_many(vectors: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Nearest-centroid id per row; ties go to the lowest cluster id."""
    X = np.asarray(vectors, dtype=np.float64)
    if X.shape[1] != centroids.shape[1]:
        raise ClusteringError(
            f"vector dimension {X.shape[1]} does not match centroids ({centroids.shape[1]})"
        )
    return _squared_distances(X, centroids).argmin(axis=1)


@dataclass(frozen=True, eq=False)
class ClusterModel:
    """Fitted centroids plus per-cluster language accuracies and experts.
    ``fit_key`` names the fit that gave ``seed`` and ``centroids`` (``_fit_key``)."""

    k: int
    seed: int
    fit_key: str
    centroids: np.ndarray
    expert_language: dict[int, Language]
    train_accuracy: dict[int, dict[Language, float]]
    member_counts: dict[int, int]

    def to_json(self) -> str:
        payload = {
            "k": self.k,
            "seed": self.seed,
            "fit_key": self.fit_key,
            "dim": int(self.centroids.shape[1]),
            "centroids_f8": [encode_f8(row) for row in self.centroids],
            "expert_language": {str(c): lang.value for c, lang in sorted(self.expert_language.items())},
            "train_accuracy": {
                str(c): {lang.value: acc for lang, acc in sorted(accs.items(), key=lambda kv: canonical_index(kv[0]))}
                for c, accs in sorted(self.train_accuracy.items())
            },
            "member_counts": {str(c): n for c, n in sorted(self.member_counts.items())},
        }
        return json.dumps(payload, ensure_ascii=False, indent=2)


def stored_fit(path: Path, k: int, dim: int) -> tuple[str, int, np.ndarray] | None:
    """The ``(fit_key, seed, centroids)`` the model file at ``path`` stores, or None,
    logged, if it stores no fit: a missing file at debug level; one that does not
    parse, names no fit, or whose centroids are not ``k`` finite rows of width
    ``dim`` as a warning. Nothing else of the file is read, since
    ``train_lsk_best`` recomputes the rest."""
    try:
        data = read_json(path, ClusteringError)
        fit_key, seed, rows = data["fit_key"], int(data["seed"]), data["centroids_f8"]
        if len(rows) != k:
            raise ClusteringError(f"{len(rows)} centroid rows, expected k = {k}")
        centroids = np.stack([decode_f8(row, dim) for row in rows])
        if not np.isfinite(centroids).all():
            raise ClusteringError("non-finite centroid")
        return fit_key, seed, centroids
    except FileNotFoundError:
        logger.debug("%s: not written yet; fitting", path)
    except (ClusteringError, ValueError, LookupError, TypeError) as exc:
        logger.warning("%s: ignored (%r); fitting again", path, exc)
    return None


class TrainArray(NamedTuple):
    """The train vectors of a k sweep, stacked, normalized and hashed once:
    ``X`` holds the vectors of ``items`` as rows, in that order, ``unit`` its
    unit rows and ``digest`` the sha256 of its shape and float64 bytes."""

    items: tuple[str, ...]
    X: np.ndarray
    unit: np.ndarray
    digest: hashlib._Hash


def train_array(vectors: Mapping[str, np.ndarray], items: Sequence[str]) -> TrainArray:
    """The ``TrainArray`` of ``items``; every item needs a vector, all of one width."""
    missing = [i for i in items if i not in vectors]
    if missing:
        raise ClusteringError(f"train items without embeddings: {missing[:5]}")
    X = np.stack([np.asarray(vectors[i], dtype=np.float64) for i in items])
    digest = hashlib.sha256(json.dumps(list(X.shape)).encode("ascii"))
    digest.update(np.ascontiguousarray(X, dtype=_F8))
    return TrainArray(tuple(items), X, _normalize_rows(X, "input vector"), digest)


def _fit_key(train: TrainArray, k: int, seeds: list[int]) -> str:
    """sha256 naming a fit: the train array's digest, FIT_VERSION, numpy's version, k and the seed set."""
    digest = train.digest.copy()
    digest.update(json.dumps([FIT_VERSION, np.__version__, k, seeds]).encode("ascii"))
    return digest.hexdigest()


def _best_fit(X: np.ndarray, unit: np.ndarray, k: int, seeds: Sequence[int]) -> tuple[int, np.ndarray]:
    """(seed, centroids) of the lowest inertia on ``X``; ties go to the lowest seed."""
    best: tuple[float, int, np.ndarray] | None = None
    for seed in seeds:
        centroids = kmeans_fit(unit, k, seed, normalized=True)
        score = inertia(X, centroids)
        if best is None or score < best[0] - 1e-12:
            best = (score, seed, centroids)
    return best[1], best[2]


def train_lsk_best(
    vectors: Mapping[str, np.ndarray],
    train_matrix: ResponseMatrix,
    k: int,
    seeds: Iterable[int],
    *,
    train: TrainArray | None = None,
    stored: tuple[str, int, np.ndarray] | None = None,
) -> ClusterModel:
    """Fit clusters over the training vectors and pick each cluster's expert.

    Of several seeds, the fit of lowest inertia wins; ties resolve to the
    lowest seed. ``stored``, the ``stored_fit`` of an earlier run, gives its
    seed and centroids instead when its ``fit_key`` is this fit's: the same
    train array, k, seed set and fit code. The experts, accuracies and member
    counts always come from ``train_matrix``. ``train``, the ``train_array``
    of ``train_matrix``'s items, saves stacking and normalizing the vectors
    again for each k.
    """
    seed_set = sorted(set(seeds))
    if not seed_set:
        raise ClusteringError("no seeds supplied")
    if train is None:
        train = train_array(vectors, train_matrix.items)
    elif train.items != train_matrix.items:
        raise ClusteringError("the train array is not of the train matrix's items")
    _, X, unit, _ = train
    fit_key = _fit_key(train, k, seed_set)
    if stored is not None and stored[0] == fit_key:
        _, seed, centroids = stored
    else:
        seed, centroids = _best_fit(X, unit, k, seed_set)
    d2 = _squared_distances(unit, centroids)
    labels = _repair_empty_clusters(d2.argmin(axis=1), d2, k)

    languages = train_matrix.languages
    hits = np.zeros((k, len(languages)), dtype=np.int64)
    np.add.at(hits, labels, train_matrix.correct.astype(np.int64))
    counts = dict(enumerate(np.bincount(labels, minlength=k).tolist()))
    accuracy = {c: {lang: int(hits[c, j]) / counts[c] for j, lang in enumerate(languages)} for c in counts}
    expert = {c: max(acc, key=lambda lang: (acc[lang], -canonical_index(lang))) for c, acc in accuracy.items()}
    return ClusterModel(
        k=k,
        seed=seed,
        fit_key=fit_key,
        centroids=centroids,
        expert_language=expert,
        train_accuracy=accuracy,
        member_counts=counts,
    )


@dataclass(frozen=True)
class LskRouter:
    """Binds a trained model to per-item test vectors of its centroids' width for evaluation."""

    model: ClusterModel
    vectors: Mapping[str, np.ndarray]

    def route(self, item_ids: Sequence[str]) -> list[Language]:
        """Each item's nearest cluster's expert language, in one assignment."""
        try:
            rows = [self.vectors[item_id] for item_id in item_ids]
        except KeyError as exc:
            raise ClusteringError(f"no embedding for item {exc.args[0]}; run the embed stage") from None
        return [self.model.expert_language[c] for c in assign_many(np.stack(rows), self.model.centroids).tolist()]
