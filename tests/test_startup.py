"""Start-up pin: importing the pipeline, or running any safety command, never
loads the topology package; ``analyze-topology`` loads it when it runs."""

import contextlib
import io
import json
import os
import subprocess
import sys

from conftest import ROOT
from sdv_guard.pipeline import cli
from test_cross_python import cross_python

# Imports the pipeline, then runs the commands it reads as JSON from stdin
# through ``cli.main``, the safety ones first; writes each exit code and
# stdout, and the topology modules loaded when the safety commands are done.
_ONE_PROCESS = """\
import contextlib, io, json, sys
from sdv_guard.pipeline import cli, config, deploy, runs

def run(args):
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(args)
    return [code, stdout.getvalue()]

commands = json.load(sys.stdin)
safety = [run(args) for args in commands if "analyze-topology" not in args]
loaded = sorted(name for name in sys.modules if name.startswith("sdv_guard.topology"))
topology = [run(args) for args in commands if "analyze-topology" in args]
json.dump({"safety": safety, "loaded": loaded, "topology": topology}, sys.stdout)
"""


def _run(args) -> list:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(args)
    return [code, stdout.getvalue()]


def test_safety_commands_never_load_the_topology_package(tmp_path, monkeypatch):
    commands = cross_python.readme_commands()
    topology = [args for args in commands if "analyze-topology" in args]
    work = tmp_path / "one-process"
    for base in (work, tmp_path):
        base.mkdir(exist_ok=True)
        (base / "fixtures").symlink_to(ROOT / "fixtures", target_is_directory=True)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}
    done = subprocess.run([sys.executable, "-c", _ONE_PROCESS], input=json.dumps(commands),
                          cwd=work, env=env, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)

    assert result["loaded"] == []
    # check-chain and analyze-safety on s1 find the violation; the rest pass
    assert [code for code, _stdout in result["safety"]] == [1, 0, 0, 0, 1, 0, 0]
    # the topology runs that follow give what they give in this process
    monkeypatch.chdir(tmp_path)
    assert result["topology"] == [_run(args) for args in topology]
    assert [code for code, _stdout in result["topology"]] == [0, 1, 0]
