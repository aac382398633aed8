"""Every demo script runs to completion against the package in ``src``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from wittid.linalg import Kernel, SubspaceBasis

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(script)], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr


def readme_quick_start() -> str:
    """The fenced Python block under "Library quick start" in README.md."""
    section = (ROOT / "README.md").read_text().split("## Library quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_quick_start_runs():
    namespace = {}
    exec(compile(readme_quick_start(), "README.md", "exec"), namespace)
    # subspace_equal compares the identities' kernel form with a span
    assert isinstance(namespace["ident"], Kernel)
    assert isinstance(namespace["cons"], SubspaceBasis)
