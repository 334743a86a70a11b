"""The user-facing docs and the CI workflow name only things that exist."""

import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md", ".github/workflows/ci.yml")
#: every file in the tree as ``/relative/path`` (``.git`` apart)
TREE = ["/" + path.relative_to(ROOT).as_posix() for path in ROOT.rglob("*")
        if path.is_file() and ".git" not in path.relative_to(ROOT).parts]


@pytest.mark.parametrize("doc", DOCS)
def test_named_modules_scripts_and_files_exist(doc):
    text = (ROOT / doc).read_text()
    missing = [
        f"python -m {module}"
        for module in re.findall(r"python3? -m (repro(?:\.\w+)*)", text)
        if importlib.util.find_spec(module) is None
    ] + [
        f"python {script}"
        for script in re.findall(r"python3? ([\w./-]+\.py)\b", text)
        if not (ROOT / script).is_file()
    ] + [
        f"`{token}`"
        for token in re.findall(r"`([^`\s]+\.(?:py|json|yml))`", text)
        if not any(path.endswith("/" + token) for path in TREE)
    ]
    assert not missing, f"{doc} names things that do not exist: {missing}"
