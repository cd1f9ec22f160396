#!/usr/bin/env python3
"""Run the README's commands under other Python interpreters and compare.

Usage: python scripts/cross_python.py PY [PY ...]

Every ``sdv-guard`` command in the README's shell blocks is run as
``PY -m sdv_guard.pipeline.cli ARGS``, with this checkout's ``src/`` first on
``PYTHONPATH``, once under the running interpreter and once under each
``PY``. Each interpreter runs the commands in order in a temporary directory
of its own that links ``fixtures/``, so every ``--out`` path is the same
relative path under each. The stdout and exit code of each command, and the
bytes of every file written under ``out/`` except ``run.json`` (which holds
timestamps), must equal the running interpreter's. Each ``PY`` then runs
the same commands again, in order, through ``cli.main`` in a single process
of its own, which must give what its one process per command gave.

Each ``PY`` is first asked its version with ``PY -c ...``; one that cannot
start, exits non-zero or hangs cannot run Python and is not compared. Prints
one line per interpreter, ``cannot run`` and why, or the version compared
and ``same`` or the number of differences, with each difference under it.
Exits 0 when every interpreter agrees, 1 when one differs, and 2 when no
interpreter is given or one cannot run Python.
"""

from __future__ import annotations

import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
VERSION_TIMEOUT_S = 60  # for an interpreter to report its version
_SHELL_BLOCK = re.compile(r"^```sh\n(.*?)^```", re.MULTILINE | re.DOTALL)


def readme_commands() -> list[list[str]]:
    """The arguments of each ``sdv-guard`` command in the README's shell
    blocks, in order, with continuation lines joined and comments dropped."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    commands = []
    for block in _SHELL_BLOCK.findall(text):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["sdv-guard"]:
                commands.append(words[1:])
    return commands


# Runs the commands it reads as JSON from stdin through ``cli.main`` in this
# one process and writes each exit code and the hex of its stdout bytes,
# encoded as the interpreter's own stdout would encode them.
_ONE_PROCESS = """\
import contextlib, io, json, sys
from sdv_guard.pipeline import cli
done = []
for args in json.load(sys.stdin):
    buffer = io.BytesIO()
    stdout = io.TextIOWrapper(buffer, encoding=sys.stdout.encoding,
                              errors=sys.stdout.errors, write_through=True)
    with contextlib.redirect_stdout(stdout):
        try:
            code = cli.main(args)
        except SystemExit as exc:
            code = exc.code or 0
    done.append([code, buffer.getvalue().hex()])
json.dump(done, sys.stdout)
"""


def run_all(python: str, commands: list[list[str]], *,
            one_process: bool = False) -> dict[str, bytes | str]:
    """What ``python`` gives for ``commands``: per command its exit code and
    stdout, and per file under ``out/`` but ``run.json`` its bytes. Each
    command runs in a process of its own, or with ``one_process`` all of
    them in one; a command that one process did not finish has no result."""
    env = {name: value for name, value in os.environ.items()
           if not name.startswith("SDVGUARD_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    results: dict[str, bytes | str] = {}
    with tempfile.TemporaryDirectory() as work:
        base = Path(work)
        (base / "fixtures").symlink_to(ROOT / "fixtures", target_is_directory=True)
        if one_process:
            done = subprocess.run([python, "-c", _ONE_PROCESS], input=json.dumps(commands),
                                  cwd=base, env=env, capture_output=True, text=True,
                                  timeout=600)
            outcomes = [(code, bytes.fromhex(stdout)) for code, stdout in
                        (json.loads(done.stdout) if done.returncode == 0 else [])]
        else:
            outcomes = []
            for args in commands:
                done = subprocess.run([python, "-m", "sdv_guard.pipeline.cli", *args],
                                      cwd=base, env=env, capture_output=True, timeout=600)
                outcomes.append((done.returncode, done.stdout))
        for index, (args, (code, stdout)) in enumerate(zip(commands, outcomes), start=1):
            name = f"command {index} ({' '.join(args[:3])} ...)"
            results[f"{name} exit code"] = str(code)
            results[f"{name} stdout"] = stdout
        for path in sorted((base / "out").rglob("*")):
            if path.is_file() and path.name != "run.json":
                results[path.relative_to(base).as_posix()] = path.read_bytes()
    return results


def differences(expected: dict, actual: dict) -> list[str]:
    return [f"{name}: {'missing' if name not in actual else 'extra' if name not in expected else 'differs'}"
            for name in sorted(expected.keys() | actual.keys())
            if expected.get(name) != actual.get(name)]


def python_version(python: str) -> str:
    """The version ``python`` reports. A ``RuntimeError`` says why when it
    cannot start, exits non-zero or does not answer in time, as a shell
    shim for an interpreter that is not installed does."""
    try:
        done = subprocess.run([python, "-c", "import sys; print(sys.version.split()[0])"],
                              capture_output=True, text=True, timeout=VERSION_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as exc:
        raise RuntimeError(exc) from None
    if done.returncode != 0:
        said = (done.stderr or done.stdout).strip().splitlines()
        raise RuntimeError(f"exit code {done.returncode}" + (f": {said[0]}" if said else ""))
    return done.stdout.strip()


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    status = 0
    runnable = []  # (interpreter, its version)
    for python in argv:
        try:
            runnable.append((python, python_version(python)))
        except RuntimeError as exc:
            print(f"{python}: cannot run: {exc}")
            status = 2
    if not runnable:
        return status
    commands = readme_commands()
    reference = run_all(sys.executable, commands)
    for python, version in runnable:
        try:
            separate = run_all(python, commands)
            found = [*differences(reference, separate),
                     *(f"one process: {line}" for line in
                       differences(separate, run_all(python, commands, one_process=True)))]
        except (OSError, subprocess.TimeoutExpired) as exc:
            print(f"{python}: cannot run: {exc}")
            status = 2
            continue
        print(f"{python}: {'same' if not found else f'{len(found)} differences'}"
              f" (Python {version}, {len(commands)} commands, {len(reference)} results)")
        for line in found:
            print(f"  {line}")
        if found:
            status = max(status, 1)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
