import importlib
import json
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


def test_cli_import_leaves_out_quadrature_and_root_finding():
    # scipy.integrate and scipy.optimize load where they are used, so the
    # closed-form paths (here a sample) need only numpy and scipy.special
    code = ("import sys; sys.path.insert(0, 'src')\n"
            "import opertail.cli\n"
            "from opertail import InvertedDirichlet, LiouvilleParams\n"
            "LiouvilleParams([1.0, 1.0], InvertedDirichlet(3.0)).sample(10, 1)\n"
            "print([m for m in ('scipy.integrate', 'scipy.optimize') if m in sys.modules])\n")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip() == "[]"


def test_readme_quick_start_runs():
    # the README's Python quick start, verbatim, in a fresh interpreter: a
    # renamed or deleted API, or a RuntimeWarning, fails it
    readme = (ROOT / "README.md").read_text()
    code = re.search(r"## Quick start\n\n```python\n(.*?)```", readme, re.S).group(1)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", code],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
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


def test_library_leaves_warnings_unfiltered():
    # a warning the library raises reaches the caller: no module of the
    # package silences one, or changes the caller's warning filters
    pattern = re.compile(r"\b(catch_warnings|simplefilter|filterwarnings)\b")
    hits = [f"{path.name}:{n}" for path in sorted((ROOT / "src" / "opertail").rglob("*.py"))
            for n, line in enumerate(path.read_text().splitlines(), 1)
            if pattern.search(line)]
    assert hits == []


def test_benchmark_worker_import_path():
    # perfbench/worker.py imports only opertail and opertail.cli, then reads
    # opertail.kernels.BACKEND on every pass
    code = ("import sys; sys.path.insert(0, 'src')\n"
            "import opertail, opertail.cli\n"
            "print(opertail.kernels.BACKEND)\n")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip() == "numpy"


_ID = {"a": [1.0, 1.0], "g": {"type": "inverted_dirichlet", "theta": 3.0}}


@pytest.mark.parametrize("command, config", [
    ("eval", {"distribution": _ID,
              "task": {"evaluator": "joint_density", "grid": {"num": 1e5}}}),
    ("sample", {"distribution": _ID, "seed": 1, "task": {"n": 1e11}}),
    ("verify", {"task": {"suite": "orthant-mc", "params": {"n": 1e11}}}),
])
def test_cli_out_of_memory_exits_2(tmp_path, command, config):
    # each run asks for one array of tens of GiB or more; under a 3 GiB
    # address-space limit numpy refuses it before anything is allocated
    resource = pytest.importorskip("resource")
    limit = 3 << 30

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-m", "opertail.cli", command, "--config",
                           str(path), "--out", str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, timeout=120,
                          preexec_fn=cap_address_space)
    assert proc.returncode == 2, proc.stderr
    assert "config error: out of memory" in proc.stderr
    assert "Traceback" not in proc.stderr
