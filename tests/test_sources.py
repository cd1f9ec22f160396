"""The sources keep to the oldest Python that ``pyproject.toml`` supports."""

from __future__ import annotations

import ast
import re

import pytest

from conftest import ROOT

SOURCES = sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "scripts").rglob("*.py")])


def test_the_promised_python_is_3_10():
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert re.search(r'^requires-python = ">=3\.10"$', pyproject, re.MULTILINE)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_every_source_parses_as_python_3_10(path):
    # feature_version rejects syntax newer than 3.10, such as ``except*``;
    # the interpreter running the tests may be newer
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
