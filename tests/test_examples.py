"""Smoke tests: the shipped examples must run end to end."""

import importlib.util
import sys
from pathlib import Path


EXAMPLES = Path(__file__).resolve().parents[1] / "examples"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def test_quickstart_runs(capsys):
    _load("quickstart").main()
    out = capsys.readouterr().out
    assert "3 nearest cars" in out
    assert "GPU:" in out


def test_tuning_example_importable():
    module = _load("tuning")
    assert callable(module.main)


def test_ridesharing_importable():
    module = _load("ridesharing")
    assert callable(module.main)


def test_fleet_comparison_importable():
    module = _load("fleet_comparison")
    assert callable(module.main)


def test_dispatch_console_importable():
    module = _load("dispatch_console")
    assert callable(module.main)
