"""Command-line pipeline driver.

Each stage is a subcommand; expensive network stages (translate, infer,
select-llm, embed) call only for what their outputs lack and support
--dry-run to print the planned call counts without touching the network. They
send at most the endpoint's ``max_in_flight`` requests at once and keep every
finished task on any exit, an interrupt included, so a rerun calls only what
is left.

A bad config or template (both read at config load), dataset, run store, manifest,
cache, country map, spec or report, or a locked run directory, is refused in one
place, ``_refuse_bad_input``: one line naming the file, exit 2.
"""

from __future__ import annotations

import json
import logging
import sys
from pathlib import Path
from typing import Callable

import click

from .clustering import ClusteringError
from .config import ConfigError, load_config
from .datasets import DatasetError
from .languages import Language, UnknownLanguageError, parse_language
from .pipeline import (
    EXIT_CONFIG,
    RunLockedError,
    StageResult,
    rerender_report,
    run_embed,
    run_evaluate,
    run_infer,
    run_select_llm,
    run_simulate,
    run_translate,
)
from .report import FORMATS
from .selectors import SelectorError
from .store import StoreError
from .synthetic import SyntheticSpecError


def _parse_languages(value: str | None) -> list[Language] | None:
    if value is None:
        return None
    try:
        return [parse_language(code.strip()) for code in value.split(",") if code.strip()]
    except UnknownLanguageError as exc:
        raise click.BadParameter(str(exc))


def _parse_ints(value: str | None) -> list[int] | None:
    if value is None:
        return None
    try:
        return [int(v) for v in value.split(",") if v.strip()]
    except ValueError:
        raise click.BadParameter(f"expected comma-separated integers, got {value!r}")


# What a bad config, dataset, run directory, cache, map, spec or report raises.
BAD_INPUT = (ConfigError, RunLockedError, DatasetError, StoreError, ClusteringError, SelectorError, SyntheticSpecError)


def _refuse_bad_input(action: Callable):
    """``action()``; a bad input ends it in one ``configuration error`` line, exit 2, no traceback."""
    try:
        return action()
    except BAD_INPUT as exc:
        click.echo(f"configuration error: {exc}", err=True)
        sys.exit(EXIT_CONFIG)


def _run_stage(stage: Callable[[], StageResult]) -> None:
    """Run ``stage`` through ``_refuse_bad_input``, print its summary and exit with its code."""
    result = _refuse_bad_input(stage)
    click.echo(json.dumps(result.summary, ensure_ascii=False, indent=2, sort_keys=True))
    sys.exit(result.exit_code)


config_option = click.option("--config", "config_path", required=True, type=click.Path(exists=True))
languages_option = click.option("--languages", default=None, help="Comma-separated language codes")
dry_run_option = click.option("--dry-run", is_flag=True, help="Print planned network calls and exit")


@click.group()
@click.option("-v", "--verbose", is_flag=True)
def main(verbose: bool) -> None:
    """Language-selection evaluation pipeline."""
    logging.basicConfig(
        level=logging.DEBUG if verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )


@main.command()
@config_option
@languages_option
@dry_run_option
def translate(config_path: str, languages: str | None, dry_run: bool) -> None:
    """Translate the dataset into each configured non-English language."""
    _run_stage(lambda: run_translate(load_config(config_path), _parse_languages(languages), dry_run=dry_run))


@main.command()
@config_option
@languages_option
@dry_run_option
def infer(config_path: str, languages: str | None, dry_run: bool) -> None:
    """Run reasoning inference for every missing (item, language) cell."""
    _run_stage(lambda: run_infer(load_config(config_path), _parse_languages(languages), dry_run=dry_run))


@main.command(name="select-llm")
@config_option
@dry_run_option
def select_llm(config_path: str, dry_run: bool) -> None:
    """Ask the model for an expert language per test item (cached)."""
    _run_stage(lambda: run_select_llm(load_config(config_path), dry_run=dry_run))


@main.command()
@config_option
@dry_run_option
def embed(config_path: str, dry_run: bool) -> None:
    """Embed split items for cluster-based routing (cached)."""
    _run_stage(lambda: run_embed(load_config(config_path), dry_run=dry_run))


@main.command()
@config_option
@click.option("--k", "k_values", default=None, help="Comma-separated cluster counts (overrides config)")
@click.option("--seed", "seeds", default=None, help="Comma-separated k-means seeds (overrides config)")
def evaluate(config_path: str, k_values: str | None, seeds: str | None) -> None:
    """Evaluate all applicable strategies and write reports."""
    _run_stage(lambda: run_evaluate(load_config(config_path), _parse_ints(k_values), _parse_ints(seeds)))


@main.command()
@click.option("--spec", "spec_path", required=True, type=click.Path(exists=True))
@click.option("--output", "output_dir", required=True, type=click.Path())
@click.option("--k", "k_values", default=None, help="Comma-separated cluster counts (default: the planted k)")
@click.option("--seed", "seeds", default="0", show_default=True, help="Comma-separated k-means seeds")
@click.option("--train-count", type=int, default=None)
@click.option("--test-count", type=int, default=None)
def simulate(
    spec_path: str,
    output_dir: str,
    k_values: str | None,
    seeds: str,
    train_count: int | None,
    test_count: int | None,
) -> None:
    """Generate a planted synthetic benchmark and evaluate it end to end."""
    _run_stage(
        lambda: run_simulate(
            Path(spec_path),
            Path(output_dir),
            k_list=_parse_ints(k_values),
            seeds=_parse_ints(seeds) or [0],
            train_count=train_count,
            test_count=test_count,
        )
    )


@main.command()
@click.option("--report", "report_path", required=True, type=click.Path(exists=True))
@click.option("--format", "fmt", type=click.Choice(list(FORMATS)), default="markdown")
@click.option("--output", "output_path", default=None, type=click.Path())
def report(report_path: str, fmt: str, output_path: str | None) -> None:
    """Re-render a stored report.json to another format."""
    data = _refuse_bad_input(lambda: rerender_report(Path(report_path), fmt))
    if output_path:
        Path(output_path).write_bytes(data)
        click.echo(f"wrote {output_path}")
    else:
        click.echo(data.decode("utf-8"), nl=False)


if __name__ == "__main__":
    main()
