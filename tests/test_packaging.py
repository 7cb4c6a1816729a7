"""The package metadata matches the code it describes."""

from __future__ import annotations

import importlib
import tomllib
from pathlib import Path

import repro.cli

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def _project() -> dict:
    with PYPROJECT.open("rb") as handle:
        return tomllib.load(handle)["project"]


def test_console_script_resolves_to_cli_main() -> None:
    target = _project()["scripts"]["repro-rings"]
    module, _, attribute = target.partition(":")
    assert getattr(importlib.import_module(module), attribute) is repro.cli.main


def test_numpy_is_a_declared_dependency() -> None:
    assert "numpy" in _project()["dependencies"]
