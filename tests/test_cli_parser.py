"""``cli.main`` builds its argument parser once per process and shares it:
no call sees what an earlier call parsed, errors and help go where and as
wide as they would from a parser built for that call."""

import argparse
import contextlib
import io
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from sdv_guard.pipeline import cli

from conftest import FIXTURES, ROOT

_CATALOGS = ["--vss", str(FIXTURES / "catalogs" / "vss.json"),
             "--can", str(FIXTURES / "catalogs" / "can.json")]
_CHECK_S1 = ["check-chain", "--chain", str(FIXTURES / "chains" / "s1.puml"),
             "--rules", str(FIXTURES / "rules" / "rules-s1.txt")]


def _safety(scenario: str, store: str, *flags: str) -> list[str]:
    return ["analyze-safety", "--code", str(FIXTURES / "code" / f"{scenario}.py"), *_CATALOGS,
            "--rules", str(FIXTURES / "rules" / f"rules-{scenario}.txt"),
            "--replay", str(FIXTURES / "replay" / f"{store}.json"), *flags]


def _eval(*flags: str) -> list[str]:
    return ["eval", "--manifest", str(FIXTURES / "harness" / "manifest-fault.json"),
            "--runs", "20", *flags]


def _call(argv: list[str]):
    """The exit code, stdout and stderr of ``cli.main(argv)``; a usage error's
    ``SystemExit`` gives its code."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, stdout.getvalue(), stderr.getvalue()


def test_the_parser_is_not_built_at_import():
    probe = ("import argparse\n"
             "built = []\n"
             "init = argparse.ArgumentParser.__init__\n"
             "argparse.ArgumentParser.__init__ = "
             "lambda self, *a, **k: (built.append(1), init(self, *a, **k))[1]\n"
             "import sdv_guard.pipeline.cli\n"
             "print(len(built))\n")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          cwd=ROOT, env={"PYTHONPATH": str(ROOT / "src")}, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "0\n", "")


def test_the_parser_is_built_during_the_first_call_only(monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli._parser.cache_clear()
    seen = []
    for argv in (_CHECK_S1, _eval(), _CHECK_S1):
        assert _call(argv)[0] in (0, 1)
        seen.append(len(built))
    # the program's parser and one per subcommand, all in the first call
    assert seen == [7, 7, 7]
    assert built[0] == "sdv-guard"


# per call its output directory and its arguments. s1 writes to the default
# directory, and eval reads no config file but would hand one to a later
# analysis, whose top_k of 1 misses the replay store: an --out or --config
# left over from an earlier call shows in s1.
_SEQUENCE = {
    "s3 corrected": ("s3", ["--out", "s3", *_safety("s3", "s3_corrective", "--auto-correct",
                                                    "--max-iterations", "2")]),
    "s1": ("out", _safety("s1", "s1")),
    "eval with faults": (None, ["--config", "top-k-1.json",
                                *_eval("--fault-rate", "0.3", "--seed", "1")]),
    "eval": (None, _eval()),
}


def _run_in_order(names, fresh: bool):
    """Per call its exit code, stdout, stderr and artifact bytes but
    ``run.json``'s; with ``fresh``, each call on a newly built parser."""
    results = {}
    for name in names:
        out, argv = _SEQUENCE[name]
        if out is not None:
            shutil.rmtree(out, ignore_errors=True)
        if fresh:
            cli._parser.cache_clear()
        code, stdout, stderr = _call(argv)
        artifacts = ({path.name: path.read_bytes() for path in sorted(Path(out).iterdir())
                      if path.name != "run.json"}
                     if out is not None and Path(out).is_dir() else {})
        results[name] = (code, stdout, stderr, artifacts)
    return results


def test_no_call_sees_what_an_earlier_call_parsed(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("top-k-1.json").write_text('{"top_k": 1}')
    order = list(_SEQUENCE)
    fresh = _run_in_order(order, fresh=True)
    assert [fresh[name][0] for name in order] == [0, 1, 0, 0]
    assert fresh["s1"][1].endswith("\nartifacts: out\n")
    assert "safety_iter2.json" in fresh["s3 corrected"][3]
    assert "safety_iter2.json" not in fresh["s1"][3]
    assert fresh["eval with faults"][1] != fresh["eval"][1]
    assert _run_in_order(order, fresh=False) == fresh
    assert _run_in_order(order[::-1], fresh=False) == fresh


def test_a_usage_error_goes_to_the_current_stderr_and_the_next_call_runs():
    assert _call(_CHECK_S1)[0] == 1  # the parser is built before the error
    code, stdout, stderr = _call(["analyze-safety", "--code",
                                  str(FIXTURES / "code" / "s1.py"), *_CATALOGS])
    assert (code, stdout) == (2, "")
    assert stderr.startswith("usage: sdv-guard analyze-safety [-h] --code FILE")
    assert stderr.endswith("error: the following arguments are required: --rules\n")
    code, stdout, stderr = _call(_CHECK_S1)
    assert (code, stderr) == (1, "")
    assert stdout.startswith("overall: violated\n")


def _help(parser: argparse.ArgumentParser, argv: list[str]) -> str:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), pytest.raises(SystemExit) as exit_:
        parser.parse_args(argv)
    assert exit_.value.code == 0
    return stdout.getvalue()


@pytest.mark.parametrize("argv", [["--help"], ["analyze-topology", "--help"], ["eval", "-h"]])
def test_help_wraps_at_the_width_set_after_the_parser_was_built(monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "120")
    cli._parser.cache_clear()
    wide = _call(argv)
    assert wide[0] == 0
    monkeypatch.setenv("COLUMNS", "44")
    narrow = _call(argv)
    assert narrow == (0, _help(cli._parser.__wrapped__(), argv), "")
    assert narrow[1].count("\n") > wide[1].count("\n")
