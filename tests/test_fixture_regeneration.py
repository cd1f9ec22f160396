"""The committed fixtures are exactly what ``scripts/generate_fixtures.py``
writes. The replay stores are keyed by prompt digests, so this is the check
that prompt text and the recorded stores still agree."""

import shutil
import subprocess
import sys

from conftest import ROOT


def test_generate_fixtures_reproduces_the_committed_files(tmp_path):
    for name in ("src", "scripts", "fixtures"):
        shutil.copytree(ROOT / name, tmp_path / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
    subprocess.run([sys.executable, str(tmp_path / "scripts" / "generate_fixtures.py")],
                   cwd=tmp_path, check=True, capture_output=True, timeout=120)

    def files(root):
        return {p.relative_to(root): p.read_bytes()
                for p in sorted(root.rglob("*")) if p.is_file()}

    regenerated, committed = files(tmp_path / "fixtures"), files(ROOT / "fixtures")
    assert sorted(regenerated) == sorted(committed)
    changed = [str(p) for p in committed if regenerated[p] != committed[p]]
    assert not changed, f"generate_fixtures.py rewrote {changed}"
