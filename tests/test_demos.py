"""Smoke tests: every demo, and the README's Python code and command lines, run to completion,
and every name the README calls exists."""

import importlib
import os
import pkgutil
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import simocap

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(argv, cwd=None):
    # a fresh interpreter that finds this checkout's package first and, like
    # the test suite, turns any numpy RuntimeWarning into an error
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", *argv],
        env=env, cwd=cwd, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    done = _run([str(demo)])
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()


def test_readme_python_blocks_run(tmp_path):
    # every ```python block of the README, in order, as one script
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.MULTILINE | re.DOTALL)
    assert blocks
    done = _run(["-c", "\n".join(blocks)], cwd=tmp_path)
    assert done.returncode == 0, done.stderr


# math notation the README writes as calls, such as Gamma(k, theta) and O(1/log L)
_README_NOTATION = {"E", "Gamma", "O", "Q", "exp", "log", "log1p", "psi", "sqrt"}


def test_readme_names_only_what_exists():
    # every name the README writes as a call in backticks, `name(` or `sc.name(`, is an
    # attribute of simocap or of one of its modules (__main__ runs the command line on import)
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    called = set(re.findall(r"`(?:\w+\.)*(\w+)\(", readme)) - _README_NOTATION
    assert called
    modules = [simocap] + [importlib.import_module(f"simocap.{info.name}")
                           for info in pkgutil.iter_modules(simocap.__path__)
                           if not info.name.startswith("__")]
    missing = sorted(name for name in called if not any(hasattr(m, name) for m in modules))
    assert not missing, f"the README calls names that simocap does not have: {missing}"


def test_readme_command_lines_run(tmp_path):
    # every `simocap ...` line of the README's command-line block, continuation
    # lines joined, in order and in one directory, so ingest reads the channel
    # that gen-synthetic wrote
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Command line\n", 1)[1]
    block = re.search(r"^```bash\n(.*?)^```", section, flags=re.MULTILINE | re.DOTALL).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line) for line in lines if line.startswith("simocap ")]
    assert {argv[1] for argv in commands} == {
        "waterfill", "bounds-sweep", "mpe-study", "gen-synthetic", "ingest"
    }
    for argv in commands:
        done = _run(["-m", "simocap", *argv[1:]], cwd=tmp_path)
        assert done.returncode == 0, (argv, done.stderr)

