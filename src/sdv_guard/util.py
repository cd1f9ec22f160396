"""Small shared helpers: tokenization, name normalization, digests, file
reading and atomic writing, JSON in both directions, the lexer and token
stream of the rule and constraint grammars, and PlantUML framing."""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
from collections.abc import Iterator
from contextlib import suppress
from dataclasses import dataclass
from pathlib import Path

from .errors import CatalogParseError, ConfigurationError, SdvGuardError

_TOKEN_RE = re.compile(r"[a-z0-9]+")
# for lowercased ASCII text: a-z and 0-9 stay, every other character becomes
# a space; a table that maps every ASCII character keeps str.translate fast
_ASCII_SEPARATORS = str.maketrans({c: c if "a" <= c <= "z" or "0" <= c <= "9" else " "
                                   for c in map(chr, range(128))})
# the same, except that a line break stays one
_LINE_SEPARATORS = {**_ASCII_SEPARATORS, ord("\n"): "\n"}


def tokenize(text: str) -> list[str]:
    """The maximal runs of ASCII ``a-z0-9`` in the lowercased text: every
    other character, a non-ASCII letter or digit included, separates."""
    text = text.lower()
    if text.isascii():  # the same tokens, found faster than by the pattern
        return text.translate(_ASCII_SEPARATORS).split()
    return _TOKEN_RE.findall(text)


def tokenize_each(texts: list[str]) -> Iterator[list[str]]:
    """``tokenize`` of each text, lazily. ASCII texts without a line break are
    lowercased and translated as one joined text, then split line by line."""
    joined = "\n".join(texts)
    if joined.isascii() and joined.count("\n") == len(texts) - 1:
        return map(str.split, joined.lower().translate(_LINE_SEPARATORS).split("\n"))
    return map(tokenize, texts)


def normalize_name(text: str) -> str:
    """The tokens of ``text`` joined by hyphens: lowercased, every run of
    characters outside ASCII ``a-z0-9`` collapsed to one hyphen, hyphens
    trimmed, so "Café (ok)" becomes ``caf-ok``.

    Idempotent: applying it twice gives the same result.
    """
    return "-".join(tokenize(text))


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def mismatched_files(base: Path, expected) -> list[str]:
    """Re-hash recorded files under ``base``; ``expected`` yields
    (name, relative path, sha256). Returns, in order, the names whose file is
    missing, unreadable or no longer matches its digest. A path that is
    absolute or holds ``..`` could leave ``base``: it is a
    ``ConfigurationError`` and is never read."""
    mismatched: list[str] = []
    for name, rel, digest in expected:
        if Path(rel).is_absolute() or ".." in Path(rel).parts:
            raise ConfigurationError(f"recorded path '{rel}' of '{name}' leaves '{base}'")
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


_NEW_FILE = os.O_WRONLY | os.O_CREAT | os.O_TRUNC


def write_atomic(path: str | Path, text: str, what: str) -> None:
    """The program's one file writer. Write UTF-8 text to ``<path>.<pid>.tmp``,
    creating a missing parent directory, then swap it in over ``path``: a
    process that dies mid-write leaves the old file whole (nothing calls
    fsync, so a power loss may not), and a failed write leaves no temporary
    file behind. Every failure is a ``ConfigurationError`` naming the
    ``what`` file."""
    path = os.fspath(path)
    partial = f"{path}.{os.getpid()}.tmp"
    data = memoryview(text.encode("utf-8"))
    try:
        try:
            fd = os.open(partial, _NEW_FILE, 0o666)
        except FileNotFoundError:  # no parent directory yet
            os.makedirs(os.path.dirname(partial), exist_ok=True)
            fd = os.open(partial, _NEW_FILE, 0o666)
        try:
            while data:  # os.write may write less than it is given
                data = data[os.write(fd, data):]
        finally:
            os.close(fd)
        os.replace(partial, path)
    except BaseException as exc:
        with suppress(OSError):  # as when there was no file to remove
            os.unlink(partial)
        if isinstance(exc, OSError):
            raise ConfigurationError(f"cannot write {what} '{path}': {exc}") from exc
        raise


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


# a \uD800-\uDFFF escape; text read as UTF-8 holds no surrogate itself, so
# only such an escape can put a lone surrogate into a decoded string (text
# without a backslash, as most catalogs are, skips the search)
_SURROGATE_ESCAPE_RE = re.compile(r"\\u[dD][89a-fA-F]")


def _reject_lone_surrogates(value) -> None:
    """A ValueError when a string in the decoded ``value`` (a key included)
    holds a surrogate that is not part of a pair, which no UTF-8 writer can
    write."""
    stack = [value]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            try:
                item.encode("utf-8")
            except UnicodeEncodeError as exc:
                raise ValueError(f"a string holds the lone surrogate "
                                 f"U+{ord(item[exc.start]):04X}") from None
        elif isinstance(item, dict):  # a RepeatedKeys with every pair
            for pair in item.pairs if isinstance(item, RepeatedKeys) else item.items():
                stack.extend(pair)
        elif isinstance(item, list):
            stack.extend(item)


# the decoder's hooks for strict JSON: a RepeatedKeys where a key repeats, no
# float beyond its range, no NaN or Infinity
_STRICT = {"object_pairs_hook": _object, "parse_float": _json_float,
           "parse_constant": _reject_constant}


def _strict_strings(value, text: str):
    """``value``, decoded from ``text``, unless a string in it holds a lone
    surrogate (a ValueError)."""
    if "\\" in text and _SURROGATE_ESCAPE_RE.search(text):
        _reject_lone_surrogates(value)
    return value


def load_json(text: str, error_type: type[SdvGuardError], what: str):
    """Decode strict JSON (RFC 8259: no NaN or Infinity) with no number beyond
    a float's range and no lone surrogate in a string into plain values; an
    object whose key repeats is a ``RepeatedKeys``. Any failure, too deep a
    nesting included, is an ``error_type`` naming ``what``."""
    try:
        return _strict_strings(json.loads(text, **_STRICT), text)
    except (RecursionError, ValueError, OverflowError) as exc:
        if isinstance(exc, json.JSONDecodeError) and issubclass(error_type, CatalogParseError):
            raise error_type(exc.msg, line=exc.lineno, column=exc.colno) from exc
        raise error_type(f"{what} is not valid JSON: {exc}") from exc


# first_json_array decodes from each "[" on a window of the text, from
# _FIRST_WINDOW characters on, doubled while a decode fails within
# _WINDOW_MARGIN of the window's end, where a literal, escape or number cut
# short may be what failed
_FIRST_WINDOW = 1024
_WINDOW_MARGIN = 16
# most characters its failed decodes may read in all: _SCAN_FACTOR times the
# text's length, plus _SCAN_ALLOWANCE. Each "[" inside an unclosed one reads
# on to where the outer one failed, so deep nesting before a long tail would
# multiply the text's length by the depth.
_SCAN_FACTOR = 4
_SCAN_ALLOWANCE = 65_536


def first_json_array(text: str, error_type: type[SdvGuardError], what: str) -> list | None:
    """The first JSON array in ``text``, which may sit in prose, decoded as
    ``load_json`` decodes; None when there is none. A ``[`` where no JSON
    starts is skipped, but an array that is JSON and breaks a strict rule
    (NaN, a number beyond a float's range, a lone surrogate, too deep a
    nesting) is an ``error_type`` naming ``what``, and so is text whose
    skipped ``[`` read more than a few times its length.

    Each decode reads a window of the text that ends in a NUL, which JSON
    accepts nowhere, so the scan stops in the window and a skipped ``[``
    costs what the decoder read from it: decoding from ``[`` in the whole
    text would cost its offset too, which a ``JSONDecodeError`` counts the
    lines of. A decode that ends clear of the window's end reads the text as
    a decode of the whole text would; one that breaks a strict rule is
    repeated on the rest of the text, as a number it converted may have been
    cut short."""
    decoder = json.JSONDecoder(**_STRICT)
    budget = _SCAN_FACTOR * len(text) + _SCAN_ALLOWANCE
    start, size = text.find("["), _FIRST_WINDOW
    while start != -1:
        window = text[start:start + size]
        try:  # JSON that starts with "[" is an array
            value, end = decoder.raw_decode(window + "\0")
            return _strict_strings(value, window[:end])
        except json.JSONDecodeError as exc:
            budget -= exc.pos
            if budget < 0:
                raise error_type(f"{what} holds too many '[' that start no JSON array "
                                 f"to scan them all") from None
            if exc.pos >= size - _WINDOW_MARGIN and len(window) == size:
                size *= 2  # the decode may have run out of window
            else:
                start, size = text.find("[", start + 1), _FIRST_WINDOW
        except RecursionError:
            raise error_type(f"{what} nests JSON too deeply to parse") from None
        except (ValueError, OverflowError) as exc:
            if start + size < len(text):  # a number cut short may be what broke
                size = len(text) - start
                continue
            raise error_type(f"{what} is not valid JSON: {exc}") from exc
    return None


def dump_json(value, *, sort_keys: bool = True, ensure_ascii: bool = True) -> str:
    """The one layout of every indented JSON file: 2-space indent, a final
    newline; keys sorted and non-ASCII escaped unless a flag says otherwise."""
    return json.dumps(value, indent=2, sort_keys=sort_keys, ensure_ascii=ensure_ascii) + "\n"


def json_scalars(values, ensure_ascii: bool = True) -> list[str]:
    """The JSON text of each scalar in ``values``, exactly as ``json.dumps(value,
    ensure_ascii=ensure_ascii)`` writes it, for the writers that lay out a
    large document themselves. It comes from one ``json.dumps`` of the list
    with ",\n" between items, which the text of no scalar holds: a string's
    line breaks are escaped."""
    text = json.dumps(list(values), ensure_ascii=ensure_ascii, separators=(",\n", ": "))
    return text[1:-1].split(",\n") if text != "[]" else []


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
    body = content[1:-1]
    for lineno, line in body:
        if line in ("@startuml", "@enduml"):
            raise error_type("nested diagram delimiter", line=lineno)
    return [pair for pair in body if pair[1][0] != "'"]


# ---------------------------------------------------------------------------
# the front end of the rule and constraint grammars

# most levels an expression of either grammar may nest; deeper input is
# rejected rather than left to exhaust a parser's, compiler's or evaluator's
# recursion
MAX_NESTING = 64


@dataclass(frozen=True)
class Token:
    kind: str  # the pattern's group name, or a keyword's own text
    text: str
    position: int


def lex(text: str, pattern: re.Pattern, error_type: type[SdvGuardError],
        keywords: frozenset[str]) -> list[Token]:
    """The tokens of ``text``, one named group of ``pattern`` per kind, less
    ``WS`` and ``COMMENT``; a character no group matches is an ``error_type``."""
    tokens: list[Token] = []
    index = 0
    while index < len(text):
        match = pattern.match(text, index)
        if match is None:
            raise error_type(f"unexpected character '{text[index]}'", position=index)
        if match.lastgroup not in ("WS", "COMMENT"):
            value = match.group()
            tokens.append(Token(value if value in keywords else match.lastgroup, value, index))
        index = match.end()
    return tokens


class TokenStream:
    """The tokens of one text, for a recursive-descent parser. A subclass sets
    its grammar's ``pattern``, ``keywords`` and ``error_type`` for ``lex``,
    and the ``end_message`` for text that ends too soon."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = lex(text, self.pattern, self.error_type, self.keywords)
        self.index = 0
        self.depth = 0  # levels nest() opened and the parser has not closed

    def peek(self) -> Token | None:
        return self.tokens[self.index] if self.index < len(self.tokens) else None

    def at(self, kind: str) -> bool:
        return self.index < len(self.tokens) and self.tokens[self.index].kind == kind

    def take(self, kind: str | None = None) -> Token:
        token = self.peek()
        if token is None:
            raise self.error_type(self.end_message, position=len(self.text))
        if kind is not None and token.kind != kind:
            raise self.error_type(f"expected {kind}, got '{token.text}'",
                                  position=token.position)
        self.index += 1
        return token

    def nest(self, token: Token) -> None:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.too_deep(token)

    def too_deep(self, token: Token) -> SdvGuardError:
        return self.error_type(f"expression nests deeper than {MAX_NESTING} levels",
                               position=token.position)
