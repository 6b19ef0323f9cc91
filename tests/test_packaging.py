import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"


def test_every_declared_dependency_imports():
    with open(PYPROJECT, "rb") as fh:
        requirements = tomllib.load(fh)["project"]["dependencies"]
    for requirement in requirements:
        name = re.match(r"[A-Za-z0-9_.-]+", requirement).group(0)
        importlib.import_module(name.replace("-", "_"))


def test_suite_collects_without_pythonpath():
    # pyproject's pytest settings put src/ on sys.path, so a bare
    # `python -m pytest` from the root works without installing the package
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q",
         "-p", "no:cacheprovider", "tests/test_cli.py"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_benchmark_tracing_installs():
    # perfbench/tracing.py wraps opertail functions by name and fails on a
    # name that is gone; a fresh interpreter keeps the wrappers out of this one
    code = ("import sys; sys.path[:0] = ['src', 'perfbench']\n"
            "import opertail, opertail.cli, opertail.verify, opertail.kernels, tracing\n"
            "tracing.install(tracing.Tracer(), opertail)\n")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_cli_bad_config_exits_2_without_traceback(tmp_path):
    # exit 1 means a failed check; a crash would exit 1 too, which only a
    # separate process shows
    config = tmp_path / "config.json"
    config.write_text("5")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-m", "opertail.cli", "eval", "--config",
                           str(config), "--out", str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
