"""Run configuration: one JSON document describing a whole pipeline run.

Secrets never live in the config: endpoint blocks name the environment
variable holding the API key, and any ``${VAR}`` placeholder in a string
value is interpolated from the environment at load time.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field, fields
from pathlib import Path

from .datasets import DatasetError, DatasetId, SplitSpec
from .gateway import ModelEndpoint
from .languages import DEFAULT_LANGUAGES, Language
from .prompts import TemplateSet
from .store import read_json

_VAR_PATTERN = re.compile(r"\$\{([A-Za-z_][A-Za-z0-9_]*)\}")


class ConfigError(ValueError):
    pass


def _interpolate(value):
    if isinstance(value, str):
        def replace(match: re.Match) -> str:
            name = match.group(1)
            if name not in os.environ:
                raise ConfigError(f"config references unset environment variable {name!r}")
            return os.environ[name]

        return _VAR_PATTERN.sub(replace, value)
    if isinstance(value, list):
        return [_interpolate(v) for v in value]
    if isinstance(value, dict):
        return {k: _interpolate(v) for k, v in value.items()}
    return value


def _path(path: Path, block: dict, field: str) -> Path | None:
    """``block[field]`` of the config file at ``path`` as a path, a relative one
    taken from the file's directory; None when the field is absent or empty."""
    value = block.get(field)
    if not value:
        return None
    if not isinstance(value, str):
        raise ConfigError(f"{path}: {field!r} must be a path, not {value!r}")
    return path.parent / value


def _integer(field: str, value) -> int:
    """An integer field; a digit string, as ``${VAR}`` interpolation yields, counts."""
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            return int(value)
        except ValueError:
            pass
    raise ConfigError(f"{field!r}: {value!r} is not an integer")


def _list(data: dict, field: str) -> list:
    value = data[field]
    if not isinstance(value, list):
        raise ConfigError(f"{field!r} must be a list, not {value!r}")
    return value


def _endpoint(block: dict | None, name: str) -> ModelEndpoint | None:
    """The endpoint of the fields ``block`` sets, the others at ``ModelEndpoint``'s defaults; None for no block."""
    if block is None:
        return None
    try:
        settings = {f.name: block[f.name] for f in fields(ModelEndpoint) if f.name in block}
        for key in ("max_retries", "max_in_flight"):
            if key in settings:
                settings[key] = _integer(key, settings[key])
        if "timeout" in settings:
            settings["timeout"] = float(settings["timeout"])
        return ModelEndpoint(**settings)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {name} endpoint block: {exc}") from None


@dataclass(frozen=True)
class RunConfig:
    """One run's inputs. ``templates`` has one for each of ``languages``: ``load_config``
    reads and checks them, and the default, the bundled set, has one for every language."""

    dataset_path: Path
    dataset_id: DatasetId
    output_dir: Path
    languages: tuple[Language, ...]
    split: SplitSpec
    chat_endpoint: ModelEndpoint | None = None
    translation_endpoint: ModelEndpoint | None = None
    embedding_endpoint: ModelEndpoint | None = None
    k_list: tuple[int, ...] = (12,)
    seeds: tuple[int, ...] = (0,)
    country_map_path: Path | None = None
    templates: TemplateSet = field(default_factory=TemplateSet.bundled)

    def require_endpoint(self, which: str) -> ModelEndpoint:
        endpoint = getattr(self, f"{which}_endpoint")
        if endpoint is None:
            raise ConfigError(f"config has no {which}_endpoint block, required by this command")
        return endpoint


def load_config(path: str | Path) -> RunConfig:
    """The run the config file at ``path`` describes, its templates read and checked (those of
    ``template_dir``, else the bundled set); ConfigError naming the first file or directory that
    is bad: the config, the dataset or country map if not a file, or a template (``from_directory``)."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    data = _interpolate(read_json(path, ConfigError))

    dataset = data.get("dataset")
    if not isinstance(dataset, dict) or not dataset.get("path") or "id" not in dataset:
        raise ConfigError(f"{path}: 'dataset' block with 'path' and 'id' is required")
    dataset_path = _path(path, dataset, "path")
    if not dataset_path.is_file():
        raise ConfigError(f"dataset file not found: {dataset_path}")
    try:
        dataset_id = DatasetId(dataset["id"])
    except ValueError:
        raise ConfigError(f"unknown dataset id {dataset['id']!r}") from None

    if data.get("languages") is None:
        languages = DEFAULT_LANGUAGES
    else:
        try:
            languages = tuple(Language(c) for c in _list(data, "languages"))
        except ValueError as exc:
            raise ConfigError(f"'languages': {exc}") from None
        if not languages:
            raise ConfigError("language set must be non-empty")
        if len(set(languages)) != len(languages):
            raise ConfigError("language set has duplicates")

    split_block = data.get("split") or {}
    if not isinstance(split_block, dict):
        raise ConfigError(f"'split' must be an object, not {split_block!r}")
    try:
        split = SplitSpec(
            seed=_integer("split.seed", split_block.get("seed", 0)),
            train_count=_integer("split.train_count", split_block.get("train_count", 0)),
            test_count=_integer("split.test_count", split_block.get("test_count", 0)),
        )
    except DatasetError as exc:
        raise ConfigError(f"'split': {exc}") from None
    if "test_count" in split_block and split.test_count < 1:  # every stage that reads a split needs test items
        raise ConfigError(f"{path}: 'split.test_count' must be positive, not {split.test_count}")

    output_dir = _path(path, data, "output_dir")
    if output_dir is None:
        raise ConfigError(f"{path}: 'output_dir' is required")
    country_map = _path(path, data, "country_map")
    if country_map is not None and not country_map.is_file():
        raise ConfigError(f"country map file not found: {country_map}")
    template_dir = _path(path, data, "template_dir")
    templates = TemplateSet.from_directory(template_dir, languages) if template_dir else TemplateSet.bundled()

    settings = {key: tuple(_integer(key, n) for n in _list(data, key)) for key in ("k_list", "seeds") if key in data}
    if "k_list" in settings and not (settings["k_list"] and min(settings["k_list"]) >= 1):
        raise ConfigError("k_list must contain positive integers")
    if settings.get("seeds") == ():
        raise ConfigError("seeds must be non-empty")

    return RunConfig(
        dataset_path=dataset_path,
        dataset_id=dataset_id,
        output_dir=output_dir,
        languages=languages,
        split=split,
        chat_endpoint=_endpoint(data.get("chat_endpoint"), "chat"),
        translation_endpoint=_endpoint(data.get("translation_endpoint"), "translation"),
        embedding_endpoint=_endpoint(data.get("embedding_endpoint"), "embedding"),
        country_map_path=country_map,
        templates=templates,
        **settings,  # only the fields the file sets: the others keep RunConfig's defaults
    )
