"""Small shared helpers: tokenization, name normalization, digests, file
reading and atomic writing, JSON in both directions, and PlantUML framing."""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
from pathlib import Path

from .errors import CatalogParseError, ConfigurationError, SdvGuardError

_TOKEN_RE = re.compile(r"[a-z0-9]+")
_NORM_RE = re.compile(r"[^a-z0-9]+")
# for lowercased ASCII text: a-z and 0-9 stay, every other character becomes
# a space; a table that maps every ASCII character keeps str.translate fast
_ASCII_SEPARATORS = str.maketrans({c: c if "a" <= c <= "z" or "0" <= c <= "9" else " "
                                   for c in map(chr, range(128))})


def tokenize(text: str) -> list[str]:
    """Lowercase, split on non-alphanumeric runs, drop empty pieces."""
    text = text.lower()
    if text.isascii():  # the same tokens, found faster than by the pattern
        return text.translate(_ASCII_SEPARATORS).split()
    return _TOKEN_RE.findall(text)


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
    missing, unreadable or no longer matches its digest."""
    mismatched: list[str] = []
    for name, rel, digest in expected:
        try:
            actual = sha256_bytes((base / rel).read_bytes())
        except OSError:
            actual = None
        if actual != digest:
            mismatched.append(name)
    return mismatched


def read_text(path: str | Path, what: str, missing: str | None = None) -> str:
    """Read a UTF-8 text file. Every failure is a ``ConfigurationError``
    naming the ``what`` file; ``missing`` replaces the not-found message."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ConfigurationError(missing or f"{what} file '{path}' does not exist") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read {what} file '{path}': {exc}") from exc


def write_atomic(path: str | Path, text: str) -> None:
    """Write UTF-8 text beside ``path``, then swap it in: a crash mid-write
    leaves the old file whole, and no temporary file behind."""
    path = Path(path)
    partial = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        partial.write_text(text, encoding="utf-8")
        os.replace(partial, path)
    finally:
        partial.unlink(missing_ok=True)


class RepeatedKeys(dict):
    """A decoded JSON object in which a key repeats: the dict keeps the last
    value of each key, ``pairs`` every pair in document order."""

    def __init__(self, pairs: list[tuple[str, object]]):
        super().__init__(pairs)
        self.pairs = pairs


def _object(pairs: list[tuple[str, object]]) -> dict:
    obj = dict(pairs)
    return obj if len(obj) == len(pairs) else RepeatedKeys(pairs)


def _reject_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


# RFC 8259 section 6, with surrounding whitespace: group 1 is the number,
# groups 2 and 3 its fraction and exponent
_NUMBER_RE = re.compile(r"\s*(-?(?:0|[1-9][0-9]*)(\.[0-9]+)?([eE][-+]?[0-9]+)?)\s*")


def parse_number(text: str) -> int | float:
    """Read a decimal number in JSON's grammar (RFC 8259 section 6),
    surrounding whitespace allowed: an int, or a float when it has a fraction
    or an exponent. Any other text is a ValueError. A number beyond a float's
    range, or with more digits than ``int()`` converts, is an OverflowError."""
    match = _NUMBER_RE.fullmatch(text)
    if match is None:
        raise ValueError(f"'{text}' is not a number")
    number, fraction, exponent = match.groups()
    if fraction is None and exponent is None:
        try:
            return int(number)
        except ValueError:  # past int()'s digit limit
            raise OverflowError(f"number {number} is out of range") from None
    return _json_float(number)


def _json_float(text: str) -> float:
    """A number in JSON's grammar that has a fraction or an exponent, as a
    float; beyond a float's range it is an OverflowError."""
    value = float(text)
    if value in (math.inf, -math.inf):
        raise OverflowError(f"number {text} is out of range")
    return value


def load_json(text: str, error_type: type[SdvGuardError], what: str):
    """Decode strict JSON (RFC 8259: no NaN or Infinity) with no number beyond
    a float's range into plain values; an object whose key repeats is a
    ``RepeatedKeys``. Any failure, too deep a nesting included, is an
    ``error_type`` naming ``what``."""
    try:
        return json.loads(text, object_pairs_hook=_object, parse_float=_json_float,
                          parse_constant=_reject_constant)
    except (RecursionError, ValueError, OverflowError) as exc:
        if isinstance(exc, json.JSONDecodeError) and issubclass(error_type, CatalogParseError):
            raise error_type(exc.msg, line=exc.lineno, column=exc.colno) from exc
        raise error_type(f"{what} is not valid JSON: {exc}") from exc


def dump_json(value, *, sort_keys: bool = True, ensure_ascii: bool = True) -> str:
    """The one layout of every indented JSON file: 2-space indent, a final
    newline; keys sorted and non-ASCII escaped unless a flag says otherwise."""
    return json.dumps(value, indent=2, sort_keys=sort_keys, ensure_ascii=ensure_ascii) + "\n"


def canonical_json(value) -> str:
    """Deterministic JSON: sorted keys, compact separators, unicode kept."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def token_estimate(text: str) -> int:
    """Size estimate used for chunk budgeting: one token per four characters, rounded up."""
    return (len(text) + 3) // 4


def plantuml_body(text: str, error_type: type[SdvGuardError]) -> list[tuple[int, str]]:
    """The numbered, stripped lines between ``@startuml`` and ``@enduml``,
    blank and ``'`` comment lines dropped. A missing or nested delimiter is an
    ``error_type`` carrying its line number."""
    content = [(n, line) for n, raw in enumerate(text.splitlines(), start=1)
               if (line := raw.strip())]
    if not content or content[0][1] != "@startuml":
        raise error_type("diagram must begin with @startuml",
                         line=content[0][0] if content else 1)
    if content[-1][1] != "@enduml":
        raise error_type("diagram must end with @enduml", line=content[-1][0])
    body = []
    for lineno, line in content[1:-1]:
        if line in ("@startuml", "@enduml"):
            raise error_type("nested diagram delimiter", line=lineno)
        if not line.startswith("'"):
            body.append((lineno, line))
    return body
