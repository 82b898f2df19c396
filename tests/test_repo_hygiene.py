"""The repository tracks no generated bytecode.

``.gitignore`` lists ``__pycache__/``, but a file added before that rule
(or with ``git add -f``) stays tracked and goes stale as soon as its
source changes.  Skips outside a git checkout (an sdist, an archive).
"""

import shutil
import subprocess
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


def _tracked_files() -> list[str]:
    if shutil.which("git") is None:
        pytest.skip("git is not installed")
    result = subprocess.run(
        ["git", "ls-files", "-z"], cwd=REPO_ROOT, capture_output=True, check=False
    )
    if result.returncode != 0:
        pytest.skip("not a git checkout")
    return [path for path in result.stdout.decode().split("\0") if path]


def test_no_bytecode_is_tracked():
    offenders = [
        path
        for path in _tracked_files()
        if "__pycache__/" in path or path.endswith(".pyc")
    ]
    assert offenders == []
