"""The sources keep to the oldest Python that ``pyproject.toml`` supports,
every public name and method in ``src/`` has a caller and every defaulted
parameter a caller that passes it."""

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


def test_every_public_method_has_a_caller():
    """Every public method or property of a class in ``src/`` is read as an
    attribute somewhere in ``src/``, ``scripts/`` or ``bench/``. Uses are
    matched by name alone, not by class, so a ``to_dict`` passes whenever
    any ``to_dict`` is called."""
    methods: dict[str, str] = {}
    used: set[str] = set()
    for top in ("src", "scripts", "bench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif top == "src" and isinstance(node, ast.ClassDef):
                    where = path.relative_to(ROOT).as_posix()
                    methods.update((f"{node.name}.{stmt.name}", where) for stmt in node.body
                                   if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                                   and not stmt.name.startswith("_"))
    uncalled = {name: where for name, where in methods.items()
                if name.rpartition(".")[2] not in used}
    assert uncalled == {}


# Defaulted parameters that no code in src/, scripts/ or bench/ passes, each
# kept on purpose; the functions in UNCALLED_BY_DESIGN are left out as a whole.
# Calls are matched by the callee's name, so a call of any function of that
# name counts.
UNPASSED_BY_DESIGN = {
    ("build_gateway", "transport"): "the tests hand the gateway a fake endpoint through it",
    ("generate_instance", "current_model"): "the paper's PC3 prompt updates a current "
                                            "model; the tests drive that update",
}


def _defaulted(function: ast.FunctionDef | ast.AsyncFunctionDef,
               method: bool) -> list[tuple[str, int | None]]:
    """Each defaulted parameter with the index of the positional argument of a
    call that fills it, or None when only a keyword can."""
    args = function.args
    positional = [*args.posonlyargs, *args.args]
    first = len(positional) - len(args.defaults)
    offset = 1 if method else 0  # the instance or class a method is called on
    out: list[tuple[str, int | None]] = [
        (arg.arg, index - offset) for index, arg in enumerate(positional) if index >= first]
    out += [(arg.arg, None) for arg, default in zip(args.kwonlyargs, args.kw_defaults)
            if default is not None]
    return out


def _definitions(tree: ast.Module):
    """(call name, parameter, positional index or None) for each defaulted
    parameter of a function or method; ``__init__`` is called by its class."""
    owner = {stmt: node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
             for stmt in node.body}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            cls = owner.get(node)
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in node.decorator_list)
            name = cls.name if cls is not None and node.name == "__init__" else node.name
            for param, index in _defaulted(node, method=cls is not None and not static):
                yield name, param, index


def _callee(func: ast.expr) -> str | None:
    return (func.id if isinstance(func, ast.Name)
            else func.attr if isinstance(func, ast.Attribute) else None)


def _calls(tree: ast.Module):
    """(callee name, call) for each call; ``cls(...)`` inside a class calls
    that class."""
    owner: dict[ast.AST, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            owner.update((inner, node.name) for inner in ast.walk(node))
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = _callee(node.func)
            yield (owner.get(node, name) if name == "cls" else name), node


def _passes(call: ast.Call, param: str, index: int | None) -> bool:
    """Whether ``call`` may fill ``param``: by keyword, by position, or
    through ``*`` or ``**``."""
    positional = 0
    for arg in call.args:
        if isinstance(arg, ast.Starred):
            return True
        positional += 1
    if index is not None and positional > index:
        return True
    return any(keyword.arg in (None, param) for keyword in call.keywords)


def test_every_defaulted_parameter_is_passed():
    defaulted: dict[tuple[str, str], tuple[int | None, str]] = {}
    calls: dict[str, list[ast.Call]] = {}
    bases: dict[str, set[str]] = {}
    # a function or class handed to a call as a value is called where this
    # test cannot follow, so its parameters count as passed
    handed: set[str] = set()
    for top in ("src", "scripts", "bench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            if top == "src":
                where = path.relative_to(ROOT).as_posix()
                defaulted.update(((name, param), (index, where))
                                 for name, param, index in _definitions(tree))
            for name, call in _calls(tree):
                calls.setdefault(name, []).append(call)
                handed.update(_callee(arg) for arg in
                              [*call.args, *(keyword.value for keyword in call.keywords)])
            for node in ast.walk(tree):
                if isinstance(node, ast.ClassDef):
                    bases.setdefault(node.name, set()).update(map(_callee, node.bases))

    def callers(name: str) -> list[ast.Call]:
        """Calls of ``name``, and of every class that inherits from it."""
        found = list(calls.get(name, ()))
        for sub, parents in bases.items():
            if name in parents:
                found += callers(sub)
        return found

    unpassed = {f"{name}({param}=)": where
                for (name, param), (index, where) in defaulted.items()
                if name not in UNCALLED_BY_DESIGN and name not in handed
                and not any(_passes(call, param, index) for call in callers(name))}
    expected = {f"{name}({param}=)" for name, param in UNPASSED_BY_DESIGN}
    unexpected = {name: where for name, where in unpassed.items() if name not in expected}
    assert sorted(unpassed) == sorted(expected), unexpected
