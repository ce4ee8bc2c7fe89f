import json
import re

import pytest

from langselect.config import ConfigError, load_config
from langselect.datasets import DatasetId
from langselect.gateway import ModelEndpoint
from langselect.languages import DEFAULT_LANGUAGES, Language

from helpers import make_item, write_templates
from langselect.datasets import save_dataset


def write_config(tmp_path, **overrides):
    save_dataset([make_item(f"q{i}") for i in range(4)], tmp_path / "data.jsonl")
    payload = {
        "dataset": {"path": "data.jsonl", "id": "custom"},
        "output_dir": "out",
        "split": {"seed": 1, "train_count": 2, "test_count": 2},
        "chat_endpoint": {
            "base_url": "http://localhost:9",
            "model_name": "chat-model",
            "api_key_ref": "CHAT_KEY",
        },
    }
    payload.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def test_minimal_config_defaults(tmp_path):
    config = load_config(write_config(tmp_path))
    assert config.dataset_id is DatasetId.CUSTOM
    assert config.languages == DEFAULT_LANGUAGES
    assert config.k_list == (12,)
    assert config.seeds == (0,)
    assert config.split.train_count == 2
    assert config.chat_endpoint.model_name == "chat-model"
    assert config.translation_endpoint is None


def test_an_endpoint_block_gets_the_endpoint_defaults_for_the_fields_it_leaves_out(tmp_path):
    endpoint = {"base_url": "http://localhost:9", "model_name": "chat-model", "timeout": "5"}
    config = load_config(write_config(tmp_path, chat_endpoint=endpoint))
    assert config.chat_endpoint == ModelEndpoint(base_url="http://localhost:9", model_name="chat-model", timeout=5.0)


def test_language_subset_and_k_list(tmp_path):
    config = load_config(write_config(tmp_path, languages=["en", "tr"], k_list=[2, 4], seeds=[1, 2]))
    assert config.languages == (Language.ENGLISH, Language.TURKISH)
    assert config.k_list == (2, 4)
    assert config.seeds == (1, 2)


def test_env_interpolation(tmp_path, monkeypatch):
    monkeypatch.setenv("MODEL_OVERRIDE", "interp-model")
    config = load_config(
        write_config(
            tmp_path,
            chat_endpoint={"base_url": "http://x", "model_name": "${MODEL_OVERRIDE}"},
        )
    )
    assert config.chat_endpoint.model_name == "interp-model"


def test_missing_env_var_is_config_error(tmp_path, monkeypatch):
    monkeypatch.delenv("NOPE_VAR", raising=False)
    path = write_config(
        tmp_path, chat_endpoint={"base_url": "http://x", "model_name": "${NOPE_VAR}"}
    )
    with pytest.raises(ConfigError, match="NOPE_VAR"):
        load_config(path)


def test_missing_dataset_file(tmp_path):
    path = write_config(tmp_path, dataset={"path": "ghost.jsonl", "id": "custom"})
    with pytest.raises(ConfigError, match="dataset file not found"):
        load_config(path)


def test_duplicate_languages_rejected(tmp_path):
    path = write_config(tmp_path, languages=["en", "en"])
    with pytest.raises(ConfigError, match="duplicates"):
        load_config(path)


def test_unknown_dataset_id(tmp_path):
    path = write_config(tmp_path, dataset={"path": "data.jsonl", "id": "mystery"})
    with pytest.raises(ConfigError, match="unknown dataset id"):
        load_config(path)


def test_endpoint_required_error(tmp_path):
    config = load_config(write_config(tmp_path))
    with pytest.raises(ConfigError, match="translation_endpoint"):
        config.require_endpoint("translation")


@pytest.mark.parametrize(
    "content, message",
    [
        pytest.param(b"{not json", "not JSON: Expecting property name", id="not-json"),
        pytest.param(b"[1]", "not a JSON object", id="a-list"),
        pytest.param(b'{"output_dir": "\xe9"}', "not JSON: 'utf-8' codec can't decode byte 0xe9", id="not-utf8"),
    ],
)
def test_invalid_json(tmp_path, content, message):
    path = tmp_path / "broken.json"
    path.write_bytes(content)
    with pytest.raises(ConfigError, match=re.escape(f"{path}: {message}")):
        load_config(path)


@pytest.mark.parametrize(
    "overrides, message",
    [
        pytest.param({"k_list": ["x"]}, "'k_list': 'x' is not an integer", id="k-not-a-number"),
        pytest.param({"seeds": ["x"]}, "'seeds': 'x' is not an integer", id="seed-not-a-number"),
        pytest.param({"seeds": [None]}, "'seeds': None is not an integer", id="seed-null"),
        pytest.param({"seeds": [True]}, "'seeds': True is not an integer", id="seed-boolean"),
        pytest.param({"k_list": [2.7]}, "'k_list': 2.7 is not an integer", id="k-fraction"),
        pytest.param({"split": {"seed": "x"}}, "'split.seed': 'x' is not an integer", id="split-seed"),
        pytest.param({"split": {"train_count": -1}}, "'split': split counts must be non-negative", id="split-negative"),
        pytest.param({"split": [1, 2]}, "'split' must be an object", id="split-not-an-object"),
        pytest.param({"k_list": 5}, "'k_list' must be a list, not 5", id="k-list-not-a-list"),
        pytest.param({"languages": "en"}, "'languages' must be a list, not 'en'", id="languages-not-a-list"),
        pytest.param({"languages": ["en", "xx"]}, "'languages': 'xx' is not a valid Language", id="unknown-language"),
        pytest.param(
            {"chat_endpoint": {"base_url": "http://x", "model_name": "m", "max_in_flight": 2.5}},
            "invalid chat endpoint block: 'max_in_flight': 2.5 is not an integer",
            id="endpoint-fraction",
        ),
        pytest.param(
            {"chat_endpoint": {"base_url": "http://x", "model_name": 5}},
            "invalid chat endpoint block: model_name must be a string, not 5",
            id="endpoint-model-name-a-number",
        ),
        pytest.param(
            {"chat_endpoint": {"base_url": ["x"], "model_name": "m"}},
            "invalid chat endpoint block: base_url must be a string, not ['x']",
            id="endpoint-base-url-a-list",
        ),
        pytest.param(
            {"chat_endpoint": {"base_url": "http://x", "model_name": "m", "api_key_ref": None}},
            "invalid chat endpoint block: api_key_ref must be a string, not None",
            id="endpoint-key-ref-null",
        ),
        pytest.param(
            {"chat_endpoint": {"model_name": "m"}},
            "required positional argument: 'base_url'",
            id="endpoint-without-url",
        ),
        pytest.param({"output_dir": 5}, "'output_dir' must be a path, not 5", id="output-dir-not-a-path"),
    ],
)
def test_a_malformed_field_is_a_config_error_naming_it(tmp_path, overrides, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_config(write_config(tmp_path, **overrides))


def test_numbers_from_environment_placeholders_are_read(tmp_path, monkeypatch):
    monkeypatch.setenv("K", "4")
    monkeypatch.setenv("SPLIT_SEED", "9")
    config = load_config(write_config(tmp_path, k_list=["${K}", 2], seeds=["${K}"], split={"seed": "${SPLIT_SEED}"}))
    assert config.k_list == (4, 2)
    assert config.seeds == (4,)
    assert config.split.seed == 9


def test_relative_paths_are_taken_from_the_config_directory(tmp_path):
    write_templates(tmp_path / "templates", ["en"])
    (tmp_path / "map.json").write_text("{}", encoding="utf-8")
    absolute = tmp_path / "elsewhere"
    config = load_config(
        write_config(tmp_path, output_dir=str(absolute), country_map="map.json", template_dir="templates", languages=["en"])
    )
    assert config.dataset_path == tmp_path / "data.jsonl"
    assert config.output_dir == absolute
    assert config.country_map_path == tmp_path / "map.json"
    assert config.templates.get(Language.ENGLISH).instruction == "instruction (en)"
