"""Artifact hand-off stub: copy a run directory somewhere and keep a receipt.

Deployment here means making analysis artifacts available to whatever sits
downstream — a shared directory in the simplest setup, an HTTP collector in
a networked one. The receipt records a digest per file so a later
``verify_receipt`` can prove the deployed copy is still the one produced by
the run; directory deployments are re-hashed in place, endpoint deployments
cannot be re-read and verification says so instead of guessing.
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple

from ..errors import ConfigurationError, DeploymentError
from ..util import dump_json, load_json, mismatched_files, read_text, sha256_bytes, write_atomic


class Receipt(NamedTuple):
    target: str
    kind: str  # "directory" | "endpoint"
    files: tuple[tuple[str, str], ...]  # (relative path, sha256), sorted

    def to_dict(self) -> dict:
        return {
            "target": self.target,
            "kind": self.kind,
            "files": {name: digest for name, digest in self.files},
        }


def _collect(source_dir: Path) -> list[tuple[str, bytes]]:
    """Each file under ``source_dir`` by its relative path, sorted, with its
    bytes, each read once; a file that cannot be read is a
    ``ConfigurationError``."""
    if not source_dir.is_dir():
        raise ConfigurationError(f"artifact directory '{source_dir}' does not exist")
    files: list[tuple[str, bytes]] = []
    for path in sorted(source_dir.rglob("*")):
        if path.is_file():
            rel = path.relative_to(source_dir).as_posix()
            try:
                files.append((rel, path.read_bytes()))
            except OSError as exc:
                raise ConfigurationError(f"cannot read artifact '{rel}': {exc}") from exc
    if not files:
        raise ConfigurationError(f"artifact directory '{source_dir}' is empty")
    return files


def deploy_stub(source_dir: str | Path, target: str) -> Receipt:
    """Copy artifacts to a directory, or POST them to an http(s) endpoint.

    Endpoint mode sends one JSON body per file: {"path", "sha256", "content"}
    with the content as UTF-8 text (artifacts are text files); a file that is
    not UTF-8 is a DeploymentError before anything is sent. Any transport
    or non-2xx failure raises DeploymentError; nothing is retried.
    """
    source_dir = Path(source_dir)
    collected = _collect(source_dir)
    files = tuple((rel, sha256_bytes(data)) for rel, data in collected)
    if target.startswith(("http://", "https://")):
        import requests

        bodies = []
        for (rel, data), (_, digest) in zip(collected, files):
            try:
                content = data.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise DeploymentError(f"artifact '{rel}' is not UTF-8 text: {exc}") from None
            bodies.append({"path": rel, "sha256": digest, "content": content})
        for body in bodies:
            try:
                response = requests.post(target, json=body, timeout=30.0)
            except requests.RequestException as exc:
                raise DeploymentError(f"endpoint '{target}' unreachable: {exc}") from exc
            if response.status_code // 100 != 2:
                raise DeploymentError(
                    f"endpoint '{target}' rejected '{body['path']}' with status "
                    f"{response.status_code}"
                )
        return Receipt(target=target, kind="endpoint", files=files)
    target_dir = Path(target)
    for rel, data in collected:  # the bytes the receipt's digests were taken from
        destination = target_dir / rel
        try:
            write_atomic(destination, data, "deployed artifact")
        except ConfigurationError as exc:  # raised from the OSError or ValueError
            raise DeploymentError(
                f"cannot copy '{rel}' to '{destination}': {exc.__cause__}") from exc.__cause__
    return Receipt(target=str(target_dir), kind="directory", files=files)


def save_receipt(receipt: Receipt, path: str | Path) -> None:
    write_atomic(path, dump_json(receipt.to_dict()), "receipt")


def load_receipt(path: str | Path) -> Receipt:
    raw = load_json(read_text(path, "receipt", f"receipt '{path}' does not exist"),
                    ConfigurationError, f"receipt '{path}'")
    if not isinstance(raw, dict) or not isinstance(raw.get("files"), dict):
        raise ConfigurationError(f"receipt '{path}' is malformed")
    return Receipt(
        target=str(raw.get("target", "")),
        kind=str(raw.get("kind", "")),
        files=tuple(sorted((str(k), str(v)) for k, v in raw["files"].items())),
    )


def verify_receipt(receipt: Receipt) -> list[str]:
    """Re-hash a directory deployment; returns the files that changed or vanished."""
    if receipt.kind != "directory":
        raise DeploymentError(
            "endpoint deployments cannot be re-verified from this side")
    return mismatched_files(Path(receipt.target),
                            ((rel, rel, digest) for rel, digest in receipt.files))
