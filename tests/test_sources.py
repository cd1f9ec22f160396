"""The sources keep to the oldest Python that ``pyproject.toml`` supports,
and every public name in ``src/`` has a caller."""

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


# Public names that no code in src/, scripts/ or bench/ uses, each kept on purpose.
UNCALLED_BY_DESIGN = {
    "eval_atom": "the documented meaning of one ordering atom on one path; "
                 "the acceptance tests check rule verdicts against it",
    "eval_rule": "one rule over one chain, without a whole rule set; "
                 "the acceptance tests use it",
    "load_run_record": "reads run.json back (docs/formats.md), for checking a run afterwards",
    "verify_artifacts": "re-hashes a run's artifacts against run.json (README, docs/formats.md)",
    "save_receipt": "writes a deployment receipt atomically (docs/formats.md)",
    "load_receipt": "reads a deployment receipt back (docs/formats.md)",
}

_DOTTED_NAME = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")


def _defined(stmt: ast.stmt) -> set[str]:
    """The module-level names a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = (stmt.targets if isinstance(stmt, ast.Assign)
               else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return {node.id for target in targets for node in ast.walk(target)
            if isinstance(node, ast.Name)}


def _referenced(stmt: ast.stmt) -> set[str]:
    """Every name a statement uses: as a name, an attribute, an import, or a
    dotted string such as the benchmark tracer's ``"LlmGateway.complete"``."""
    out: set[str] = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.update(node.name.split("."))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and _DOTTED_NAME.fullmatch(node.value)):
            out.update(node.value.split("."))
    return out


def test_every_public_name_has_a_caller():
    defined: dict[str, str] = {}
    used: set[str] = set()
    for top in ("src", "scripts", "bench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            package = path.name == "__init__.py"
            for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
                names = _defined(stmt)
                if package and (isinstance(stmt, ast.ImportFrom) or names == {"__all__"}):
                    continue  # a re-export is no use
                used |= _referenced(stmt) - names  # nor is the definition itself
                if top == "src":
                    defined.update((name, path.relative_to(ROOT).as_posix())
                                   for name in names if not name.startswith("_"))
    uncalled = {name: where for name, where in defined.items() if name not in used}
    unexpected = {name: where for name, where in uncalled.items()
                  if name not in UNCALLED_BY_DESIGN}
    assert sorted(uncalled) == sorted(UNCALLED_BY_DESIGN), unexpected
