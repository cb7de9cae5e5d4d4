"""Every demo script and the README's Python example run to completion
against the package in ``src/``, so a renamed or removed public name cannot
break them unnoticed."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import fasloc

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = (ROOT / "README.md").read_text(encoding="utf-8")


def run_script(path, cwd):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, str(path)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    proc = run_script(demo, tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_readme_library_example_runs(tmp_path):
    example = tmp_path / "readme_example.py"
    example.write_text(re.search(r"```python\n(.*?)```", README, re.S).group(1))
    proc = run_script(example, tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_readme_counts_the_exported_names():
    count = int(re.search(r"exports (\d+) names", README).group(1))
    assert count == len(fasloc.__all__)
