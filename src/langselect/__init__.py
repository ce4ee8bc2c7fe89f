"""langselect: pick the reasoning language that makes a model answer best.

Builds per-query, per-language response matrices by orchestrating an external
chat model over translated multiple-choice datasets, then runs and compares
seven language-selection strategies, including cluster-based expert-language
routing and the hindsight oracle upper bound.
"""

from .clustering import ClusterModel, LskRouter, kmeans_fit, train_lsk_best
from .datasets import (
    ClaimRecord,
    DatasetId,
    McqItem,
    SplitSpec,
    load_claims,
    load_dataset,
    reformat_culture_atlas,
    save_dataset,
    split,
)
from .extraction import extract_expert_language, extract_final_answer
from .gateway import ModelEndpoint, chat_complete, embed_texts
from .languages import CANONICAL_ORDER, DEFAULT_LANGUAGES, Language, parse_language
from .report import build_report, emit
from .selectors import CountryMap, GlobalChoice, SelectorOutcome, Strategy, evaluate
from .store import InferenceRecord, ResponseMatrix, RunStore, build_matrix, missing_cells
from .synthetic import SyntheticSpec, generate

__version__ = "0.1.0"

__all__ = [
    "CANONICAL_ORDER",
    "ClaimRecord",
    "ClusterModel",
    "CountryMap",
    "DEFAULT_LANGUAGES",
    "DatasetId",
    "GlobalChoice",
    "InferenceRecord",
    "Language",
    "LskRouter",
    "McqItem",
    "ModelEndpoint",
    "ResponseMatrix",
    "RunStore",
    "SelectorOutcome",
    "SplitSpec",
    "Strategy",
    "SyntheticSpec",
    "build_matrix",
    "build_report",
    "chat_complete",
    "embed_texts",
    "emit",
    "evaluate",
    "extract_expert_language",
    "extract_final_answer",
    "generate",
    "kmeans_fit",
    "load_claims",
    "load_dataset",
    "missing_cells",
    "parse_language",
    "reformat_culture_atlas",
    "save_dataset",
    "split",
    "train_lsk_best",
]
