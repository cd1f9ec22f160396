"""``scripts/cross_python.py`` compares the README commands across Python
interpreters; run against the interpreter running the tests it finds no
difference."""

import importlib.util
import subprocess
import sys

import pytest

from conftest import ROOT

SCRIPT = ROOT / "scripts" / "cross_python.py"
_SPEC = importlib.util.spec_from_file_location("cross_python", SCRIPT)
cross_python = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(cross_python)


def test_the_readme_commands_are_found():
    commands = cross_python.readme_commands()
    assert [args[args.index("--out") + 1] if "--out" in args else args[0]
            for args in commands] == [
        "out/s1", "out/s3", "out/topo", "out/bad", "out/fix", "extract-signals",
        "out/chain", "check-chain", "eval", "eval"]
    assert commands[-1][-6:] == ["--runs", "200", "--fault-rate", "0.3", "--seed", "1"]


def test_differences_name_each_missing_extra_and_changed_result():
    expected = {"a": b"1", "b": b"2", "c": "0"}
    assert cross_python.differences(expected, dict(expected)) == []
    assert cross_python.differences(expected, {"a": b"1", "c": "1", "d": b""}) == [
        "b: missing", "c: differs", "d: extra"]


def test_the_running_interpreter_agrees_with_itself():
    done = subprocess.run([sys.executable, str(SCRIPT), sys.executable],
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
    version = sys.version.split()[0]
    assert done.stdout == f"{sys.executable}: same (Python {version}, 10 commands, 54 results)\n"


def test_no_interpreter_is_a_usage_error():
    done = subprocess.run([sys.executable, str(SCRIPT)], capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 2
    assert done.stderr.startswith("Usage: python scripts/cross_python.py PY")


def _fake_python(tmp_path, body: str):
    fake = tmp_path / "python-fake"
    fake.write_text(f"#!/bin/sh\n{body}\n")
    fake.chmod(0o755)
    return fake


def test_an_interpreter_that_cannot_run_python_exits_2(tmp_path):
    # as a pyenv shim for a version that is not installed
    fake = _fake_python(tmp_path, "echo 'python3.10: command not found' >&2\nexit 127")
    missing = tmp_path / "no-such-python"
    done = subprocess.run([sys.executable, str(SCRIPT), str(fake), str(missing)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    first, second = done.stdout.splitlines()
    assert first == f"{fake}: cannot run: exit code 127: python3.10: command not found"
    assert second.startswith(f"{missing}: cannot run: [Errno 2] No such file or directory")


def test_an_interpreter_that_hangs_cannot_run(tmp_path, monkeypatch):
    fake = _fake_python(tmp_path, "exec sleep 5")
    monkeypatch.setattr(cross_python, "VERSION_TIMEOUT_S", 0.2)
    with pytest.raises(RuntimeError, match="timed out after 0.2 seconds"):
        cross_python.python_version(str(fake))
    assert cross_python.python_version(sys.executable) == sys.version.split()[0]


def test_a_difference_in_one_process_is_a_difference(monkeypatch, capsys):
    # the interpreter agrees with the reference command by command, but not
    # when it runs every command in one process
    def run_all(python, commands, *, one_process=False):
        return {"command 1 stdout": b"leaked" if one_process else b"ok", "out/a": b"1"}

    monkeypatch.setattr(cross_python, "run_all", run_all)
    monkeypatch.setattr(cross_python, "python_version", lambda python: "3.99.0")
    assert cross_python.main(["py"]) == 1
    assert capsys.readouterr().out == (
        f"py: 1 differences (Python 3.99.0, {len(cross_python.readme_commands())} commands, "
        "2 results)\n  one process: command 1 stdout: differs\n")


def test_a_one_process_run_that_does_not_finish_has_no_command_results(tmp_path):
    fake = _fake_python(tmp_path, "exit 1")
    commands = cross_python.readme_commands()
    assert cross_python.run_all(str(fake), commands, one_process=True) == {}
