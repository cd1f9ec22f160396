"""Whole runs through ``cli.main`` fail closed on mutated inputs.

Each example splices one edit into one completion of a replay store, into
the JSON text of one value of a config file or an ``eval`` manifest, or into
one other input file, runs the command twice into the same output directory,
and checks that the run ends in a verdict or a typed error: exit 0, 1 or 2,
never ``internal error:``, a ``run.json`` that matches the exit code, and the
same stdout, exit code and artifact bytes both times.
"""

import contextlib
import copy
import io
import json
import shutil
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from sdv_guard.pipeline.cli import main

from conftest import FIXTURES

_CATALOGS = ["--vss", str(FIXTURES / "catalogs" / "vss.json"),
             "--can", str(FIXTURES / "catalogs" / "can.json")]
_TOPOLOGY = FIXTURES / "topology"

# a valid config for the s3 corrective run; its store path is absolute
_CONFIG = {
    "top_k": 20, "token_budget": 4096, "max_iterations": 2, "max_extraction_retries": 1,
    "mode": "replay", "store_path": str(FIXTURES / "replay" / "s3_corrective.json"),
    "out_dir": "out",
}


def _absolute_manifest(path: Path) -> dict:
    """The manifest with every scenario path absolute, so that a mutated copy
    elsewhere still finds them."""
    manifest = json.loads(path.read_text(encoding="utf-8"))
    for scenario in manifest["scenarios"]:
        for key in ("code", "vss", "can", "replay", "rules"):
            if key in scenario:
                scenario[key] = str((path.parent / scenario[key]).resolve())
    return manifest


# each command as (option, file) pairs plus its flags; one file is mutated. A
# file given as a JSON document is written by the test, and is the mutated one.
_COMMANDS = {
    "s1": ("analyze-safety", {"--code": FIXTURES / "code" / "s1.py",
                              "--rules": FIXTURES / "rules" / "rules-s1.txt",
                              "--replay": FIXTURES / "replay" / "s1.json"}, _CATALOGS),
    "s3": ("analyze-safety", {"--code": FIXTURES / "code" / "s3.py",
                              "--rules": FIXTURES / "rules" / "rules-s3.txt",
                              "--replay": FIXTURES / "replay" / "s3_corrective.json"},
           [*_CATALOGS, "--auto-correct", "--max-iterations", "2"]),
    "fix": ("analyze-topology", {"--model": _TOPOLOGY / "system-bad.puml",
                                 "--constraints": _TOPOLOGY / "security.ocl",
                                 "--replay": FIXTURES / "replay" / "topology.json"},
            ["--auto-correct", "--max-iterations", "2"]),
    "generate": ("analyze-topology", {"--requirements": _TOPOLOGY / "requirements.txt",
                                      "--guidelines": _TOPOLOGY / "guidelines.txt",
                                      "--replay": FIXTURES / "replay" / "topology.json"}, []),
    "topo": ("analyze-topology", {"--model": _TOPOLOGY / "system.puml",
                                  "--constraints": _TOPOLOGY / "security.ocl"}, []),
    "topo-json": ("analyze-topology", {"--model": _TOPOLOGY / "system.json",
                                       "--constraints": _TOPOLOGY / "security.ocl"}, []),
    "s3-config": ("analyze-safety", {"--code": FIXTURES / "code" / "s3.py",
                                     "--rules": FIXTURES / "rules" / "rules-s3.txt",
                                     "--config": _CONFIG}, [*_CATALOGS, "--auto-correct"]),
    "eval": ("eval", {"--manifest": _absolute_manifest(FIXTURES / "harness" / "manifest.json")},
             ["--runs", "2"]),
}
# (command, the option whose file is mutated); a store has one completion
# mutated, a JSON document one value
_TARGETS = [("s1", "--replay"), ("s3", "--replay"), ("fix", "--replay"),
            ("generate", "--replay"), ("s1", "--rules"), ("s1", "--code"),
            ("topo", "--model"), ("topo-json", "--model"), ("topo", "--constraints"),
            ("s3-config", "--config"), ("eval", "--manifest")]

_PIECES = st.sampled_from([
    "", "\n", " ", "{", "}", "[", "]", '"', ",", ":", "null", "-1", "1e999", "NaN",
    "é", "\x00", "\\u0000", "```", "```json\n", "@startuml\n", "@enduml\n", "start\n", "stop\n",
    ":A;\n", "if (x) then (yes)\n", "else (no)\n", "endif\n", "note right: input=x\n",
    "object o : Camera\n", "o --> o : network\n", "context Message inv X: ", "self.",
    " and ", " implies ", "not (", "(", ")", " before ", "r: ", "alias x = *\n", "forbid ",
]) | st.text(max_size=6)


@st.composite
def _edits(draw):
    """(start, deleted length, inserted text); the start wraps around the text."""
    return (draw(st.integers(0, 10 ** 6)), draw(st.integers(0, 40)),
            draw(_PIECES) * draw(st.sampled_from([1, 1, 1, 40])))


def _splice(text: str, edit) -> str:
    start, length, piece = edit
    start %= len(text) + 1
    return text[:start] + piece + text[start + length:]


def _splice_value(document, edit, pick: int) -> str:
    """The JSON text of ``document`` with ``edit`` spliced into the JSON text
    of one of its scalar values."""
    document = copy.deepcopy(document)
    leaves = []

    def walk(node):
        for key, value in (node.items() if isinstance(node, dict) else enumerate(node)):
            if isinstance(value, (dict, list)):
                walk(value)
            else:
                leaves.append((node, key))

    walk(document)
    node, key = leaves[pick % len(leaves)]
    value, node[key] = node[key], "\x00"
    return json.dumps(document, indent=2).replace('"\\u0000"', _splice(json.dumps(value), edit))


def _mutated_input(option: str, source: Path | dict, edit, pick: int) -> str:
    if isinstance(source, dict):
        return _splice_value(source, edit, pick)
    text = source.read_text(encoding="utf-8")
    if option != "--replay":
        return _splice(text, edit)
    store = json.loads(text)
    digest = sorted(store)[pick % len(store)]
    store[digest] = _splice(store[digest], edit)
    return json.dumps(store)


def _run(argv: list[str], out: Path):
    shutil.rmtree(out, ignore_errors=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(["--out", str(out), *argv])
    artifacts = ({path.name: path.read_bytes() for path in out.iterdir()}
                 if out.is_dir() else {})
    return code, stdout.getvalue(), stderr.getvalue(), artifacts


@settings(max_examples=300, deadline=None, derandomize=True)
@given(target=st.sampled_from(_TARGETS), edit=_edits(), pick=st.integers(0, 100))
def test_mutated_runs_fail_closed_and_repeat(target, edit, pick):
    name, option = target
    command, files, flags = _COMMANDS[name]
    with tempfile.TemporaryDirectory() as tmp:
        source = files[option]
        mutated = Path(tmp) / f"input{'.json' if isinstance(source, dict) else source.suffix}"
        mutated.write_text(_mutated_input(option, source, edit, pick),
                           encoding="utf-8")
        argv = [command, *flags]
        for opt, path in files.items():
            pair = [opt, str(mutated if opt == option else path)]
            # --config is the program's option, so it comes before the command
            argv = [*pair, *argv] if opt == "--config" else [*argv, *pair]
        out = Path(tmp) / "out"
        code, stdout, stderr, artifacts = _run(argv, out)

        assert code in (0, 1, 2), stderr
        assert "internal error:" not in stderr
        record = artifacts.pop("run.json", None)
        if stderr.startswith("error: stage "):
            assert record is not None, stderr
        if record is not None:
            assert json.loads(record)["verdict"] == ("pass", "violated", "error")[code]
        # the same inputs give the same run, the record's timestamps aside
        again_code, again_stdout, _stderr, again = _run(argv, out)
        again.pop("run.json", None)
        assert (again_code, again_stdout, again) == (code, stdout, artifacts)
