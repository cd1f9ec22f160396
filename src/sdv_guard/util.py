"""Small shared helpers: tokenization, name normalization, digests, canonical JSON."""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

_TOKEN_RE = re.compile(r"[a-z0-9]+")
_NORM_RE = re.compile(r"[^a-z0-9]+")


def tokenize(text: str) -> list[str]:
    """Lowercase, split on non-alphanumeric runs, drop empty pieces."""
    return _TOKEN_RE.findall(text.lower())


def normalize_name(text: str) -> str:
    """Lowercase, collapse every non-alphanumeric run to one hyphen, trim hyphens.

    Idempotent: applying it twice gives the same result.
    """
    return _NORM_RE.sub("-", text.lower()).strip("-")


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def mismatched_files(base: Path, expected) -> list[str]:
    """Re-hash recorded files under ``base``; ``expected`` yields
    (name, relative path, sha256). Returns, in order, the names whose file is
    missing or no longer matches its digest."""
    mismatched: list[str] = []
    for name, rel, digest in expected:
        try:
            actual = sha256_bytes((base / rel).read_bytes())
        except FileNotFoundError:
            actual = None
        if actual != digest:
            mismatched.append(name)
    return mismatched


def canonical_json(value) -> str:
    """Deterministic JSON: sorted keys, compact separators, unicode kept."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def token_estimate(text: str) -> int:
    """Size estimate used for chunk budgeting: one token per four characters, rounded up."""
    return (len(text) + 3) // 4
