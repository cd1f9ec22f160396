"""VSS signal and CAN message catalogs.

The catalogs are the ground truth the rest of the pipeline validates against.
Both are plain JSON files:

* Signal catalog: a nested tree. A node with a ``datatype`` field is a leaf
  signal; a node with a ``children`` object is a branch. A node with neither
  is also treated as a branch whose object-valued keys are its children (the
  compact form). Leaf fields: ``type`` (sensor|actuator|attribute, default
  attribute), ``datatype`` (boolean|int|float|string|enum), ``unit``, ``min``,
  ``max``, ``allowed`` (required, non-empty, for enum), ``description``.
  Paths join the key segments with dots.

* Message catalog: an array of message objects with ``frame_id`` (a JSON
  integer, or a string of ASCII decimal digits or of "0x"/"0X" and ASCII hex
  digits, whitespace around it allowed; at most 29 bits), ``name``, ``dlc``
  (0..64 bytes) and ``signals``: objects with ``name``, ``start_bit``,
  ``bit_length`` (>= 1), ``scale`` (non-zero), ``offset`` and optional
  ``min``/``max``/``unit``; the numeric fields must be JSON numbers. Every
  signal must fit the frame: start_bit + bit_length <= dlc * 8.

A parsed catalog is its entries, one per leaf or message, sorted by key; an
entry is a named tuple, which the parsers build positionally. A leaf's
``type``, a branch's ``description``, a message's ``dlc`` and its signals'
bit layout, ``scale`` and ``offset`` are checked, then dropped.
The normalized-alias map behind ``lookup_normalized`` is built on its first
call, from the entries alone, so a catalog stays observably immutable. Only
``extraction`` reads that map, and only after an exact lookup misses.
"""

from __future__ import annotations

import re
from collections import Counter
from typing import NamedTuple

from .errors import CatalogError, CatalogParseError, SchemaError
from .util import load_json, normalize_name, parse_number

VSS_DATATYPES = ("boolean", "int", "float", "string", "enum")

FRAME_ID_MAX = (1 << 29) - 1

_LEAF_FIELDS = frozenset(("type", "datatype", "unit", "min", "max", "allowed", "description"))
_BRANCH_FIELDS = frozenset(("type", "description", "children"))
_LEAF_KINDS = ("sensor", "actuator", "attribute")


class CatalogEntry(NamedTuple):
    """Flattened, retrieval-ready view of one signal or message.

    ``text`` is the searchable surface; ``datatype``/``bounds``/``allowed``
    drive value validation. A message entry gets a numeric payload
    interpretation only when the message carries exactly one signal.
    """

    key: str
    protocol: str  # "VSS" | "CAN"
    text: str
    datatype: str | None = None
    bounds: tuple[float | None, float | None] | None = None
    allowed: tuple[str, ...] | None = None


class ValueVerdict(NamedTuple):
    ok: bool
    violation: str | None = None  # type-mismatch | below-min | above-max | not-allowed
    detail: str | None = None


class Catalog:
    """The entries of a parsed catalog, sorted by key, and their lookups."""

    def __init__(self, entries: tuple[CatalogEntry, ...]):
        self.entries = entries
        self._entry_by_key = {entry.key: entry for entry in entries}
        self._by_normalized_key: dict[str, tuple[CatalogEntry, ...]] | None = None

    def lookup_entry(self, key: str) -> CatalogEntry | None:
        return self._entry_by_key.get(key)

    def lookup_normalized(self, name: str) -> tuple[CatalogEntry, ...]:
        """The entries whose key normalizes as ``name`` does, in catalog order."""
        if self._by_normalized_key is None:  # built on first use, from the entries alone
            groups: dict[str, list[CatalogEntry]] = {}
            for entry in self.entries:
                groups.setdefault(normalize_name(entry.key), []).append(entry)
            self._by_normalized_key = {k: tuple(v) for k, v in groups.items()}
        return self._by_normalized_key.get(normalize_name(name), ())


def _float(value, label: str, *args) -> float:
    """A JSON number as a float. ``label.format(*args)`` names the field in
    the error, so that text is built only for an error. Callers test
    ``type(value) is float`` first, the common case, and skip the call."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(label.format(*args) + " must be a number")
    try:
        return float(value)
    except OverflowError:  # an integer past a float's range
        raise SchemaError(label.format(*args) + " is out of range") from None


_MISSING = object()


def _int(obj: dict, name: str, context: str, *args) -> int:
    """The required JSON integer field ``name``; ``context.format(*args)``
    names the object in the error. Callers may test ``type(value) is int``
    first and skip the call."""
    value = obj.get(name, _MISSING)
    if type(value) is int:
        return value
    context = context.format(*args)  # an error follows, unless value subclasses int
    if value is _MISSING:
        raise SchemaError(f"{context} is missing '{name}'")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{context} field '{name}' must be a number")
    if not isinstance(value, int):
        raise SchemaError(f"{context} field '{name}' must be an integer")
    return value


def _opt_str(path: str, fields: dict, name: str) -> str | None:
    value = fields.get(name)
    if value is not None and not isinstance(value, str):
        raise SchemaError(f"field '{name}' of '{path}' must be a string")
    return value


def _unknown_field(path: str, fields: dict, allowed: frozenset[str]) -> SchemaError:
    return SchemaError(f"node '{path}' has unknown field '{min(fields.keys() - allowed)}'")


# ---------------------------------------------------------------------------
# signal catalog parsing


def parse_vss_catalog(text: str) -> Catalog:
    """Parse the signal tree; every leaf reachable from the root becomes an
    entry. Every path, branches included, must be unique."""
    doc = load_json(text, CatalogParseError, "signal catalog")
    if not isinstance(doc, dict):
        raise SchemaError("signal catalog root must be an object")
    entries, paths = _walk_vss(doc)
    if len(set(paths)) < len(paths):  # "A.B" as one key and as "A" -> "B"
        repeated = min(path for path, count in Counter(paths).items() if count > 1)
        raise CatalogError(f"duplicate signal path '{repeated}'")
    entries.sort()  # the keys are unique, so they alone decide the order
    return Catalog(tuple(entries))


def _walk_vss(root: dict) -> tuple[list[CatalogEntry], list[str]]:
    """The entry of every leaf under ``root``, and the path of every node,
    depth first in document order, so the first fault in document order is
    the one reported. The stack is explicit: any depth the JSON decoder
    accepts is walked."""
    entries: list[CatalogEntry] = []
    paths: list[str] = []
    stack = [("", iter(root.items()))]
    while stack:
        prefix, members = stack[-1]
        for key, value in members:
            if not key:
                raise SchemaError(f"empty node name under '{prefix or '<root>'}'")
            path = f"{prefix}.{key}" if prefix else key
            paths.append(path)
            if isinstance(value, dict) and "datatype" in value:
                entries.append(_vss_leaf(path, value))
            else:
                stack.append((path, iter(_vss_branch(path, value).items())))
                break
        else:
            stack.pop()
    return entries, paths


def _vss_branch(path: str, fields) -> dict:
    """A branch's children."""
    if not isinstance(fields, dict):
        raise SchemaError(f"node '{path}' must be an object")
    if "children" in fields:
        if not fields.keys() <= _BRANCH_FIELDS:
            raise _unknown_field(path, fields, _BRANCH_FIELDS)
        kind = fields.get("type", "branch")
        if kind != "branch":
            raise SchemaError(f"node '{path}' has children but type '{kind}'")
        _opt_str(path, fields, "description")  # checked, not kept
        if not isinstance(fields["children"], dict):
            raise SchemaError(f"children of '{path}' must be an object")
        return fields["children"]
    # compact branch form: object-valued keys are the children
    kind = fields.get("type")
    if kind in _LEAF_KINDS:
        raise SchemaError(f"leaf '{path}' is missing its datatype")
    if kind not in (None, "branch"):
        raise SchemaError(f"node '{path}' has invalid type '{kind}'")
    children = {k: v for k, v in fields.items()
                if isinstance(v, dict) and k not in ("type", "description")}
    scalars = [k for k, v in fields.items()
               if not isinstance(v, dict) and k not in ("type", "description")]
    if scalars and not children:
        raise SchemaError(f"leaf '{path}' is missing its datatype")
    if scalars:
        raise SchemaError(
            f"node '{path}' mixes scalar field '{scalars[0]}' with child nodes"
        )
    _opt_str(path, fields, "description")  # checked, not kept
    return children


def _vss_leaf(path: str, fields: dict) -> CatalogEntry:
    if not fields.keys() <= _LEAF_FIELDS:
        raise _unknown_field(path, fields, _LEAF_FIELDS)
    kind = fields.get("type", "attribute")  # checked, not kept
    if kind not in _LEAF_KINDS:
        raise SchemaError(f"leaf '{path}' has invalid type '{kind}'")
    datatype = fields["datatype"]
    if datatype not in VSS_DATATYPES:
        raise SchemaError(f"leaf '{path}' has invalid datatype '{datatype}'")
    lo, hi = fields.get("min"), fields.get("max")
    if lo is not None and type(lo) is not float:
        lo = _float(lo, "field '{}' of '{}'", "min", path)
    if hi is not None:
        if type(hi) is not float:
            hi = _float(hi, "field '{}' of '{}'", "max", path)
        if lo is not None and lo > hi:
            raise SchemaError(f"leaf '{path}' has min {lo} greater than max {hi}")
    allowed = fields.get("allowed")
    if allowed is not None:
        if not isinstance(allowed, list) or not allowed or not all(
            isinstance(v, str) for v in allowed
        ):
            raise SchemaError(f"leaf '{path}' allowed must be a non-empty string list")
        allowed = tuple(allowed)
    if datatype == "enum" and not allowed:
        raise SchemaError(f"enum leaf '{path}' must declare its allowed values")
    if datatype != "enum" and allowed:
        raise SchemaError(f"leaf '{path}' declares allowed values but is not an enum")
    unit = _opt_str(path, fields, "unit")
    description = _opt_str(path, fields, "description")
    text = f"{path} {datatype}"
    if unit:
        text += " " + unit
    if description:
        text += " " + description
    return CatalogEntry(path, "VSS", text, datatype,
                        None if lo is None and hi is None else (lo, hi), allowed)


# ---------------------------------------------------------------------------
# message catalog parsing


def parse_can_catalog(text: str) -> Catalog:
    """Parse the message array; every message becomes an entry. Names and
    frame ids must be unique."""
    doc = load_json(text, CatalogParseError, "message catalog")
    if not isinstance(doc, list):
        raise SchemaError("message catalog root must be an array")
    messages = sorted([_parse_message(i, obj) for i, obj in enumerate(doc)],
                      key=lambda message: message[0].key)
    names: set[str] = set()
    frames: set[int] = set()
    for entry, frame_id in messages:
        if entry.key in names:
            raise CatalogError(f"duplicate message name '{entry.key}'")
        if frame_id in frames:
            raise CatalogError(f"duplicate frame id 0x{frame_id:X}")
        names.add(entry.key)
        frames.add(frame_id)
    return Catalog(tuple(entry for entry, _ in messages))


# ASCII digits only: decimal, or hexadecimal after 0x/0X
_FRAME_ID_RE = re.compile(r"\s*(?:0[xX]([0-9a-fA-F]+)|([0-9]+))\s*")


def _parse_frame_id(raw) -> int:
    if type(raw) is int:
        value = raw
    elif isinstance(raw, str) and (match := _FRAME_ID_RE.fullmatch(raw)):
        hexadecimal, decimal = match.groups()
        try:
            value = int(decimal) if hexadecimal is None else int(hexadecimal, 16)
        except ValueError:  # past int()'s digit limit
            raise SchemaError(f"invalid frame_id {raw!r}") from None
    else:
        raise SchemaError(f"invalid frame_id {raw!r}")
    if value < 0 or value > FRAME_ID_MAX:
        raise SchemaError(f"frame_id 0x{value:X} outside the 29-bit identifier range")
    return value


_SIGNAL = "message '{}' signal '{}'"
_SIGNAL_FIELD = _SIGNAL + " field '{}'"


def _parse_message(index: int, obj) -> tuple[CatalogEntry, int]:
    """One message's entry and frame id."""
    if not isinstance(obj, dict):
        raise SchemaError(f"message[{index}] must be an object")
    name = obj.get("name")
    if not isinstance(name, str) or not name:
        raise SchemaError(f"message[{index}] must have a non-empty name")
    frame_id = _parse_frame_id(obj.get("frame_id"))
    dlc = _int(obj, "dlc", "message '{}'", name)
    if dlc < 0 or dlc > 64:
        raise SchemaError(f"message '{name}' dlc {dlc} outside 0..64")
    raw_signals = obj.get("signals", [])
    if not isinstance(raw_signals, list):
        raise SchemaError(f"message '{name}' signals must be an array")
    seen: set[str] = set()
    words = [name, "CAN message", f"0x{frame_id:X}"]
    for sig_obj in raw_signals:
        sig_name, unit, lo, hi = _parse_can_signal(name, sig_obj, dlc)
        if sig_name in seen:
            raise CatalogError(f"message '{name}' has duplicate signal '{sig_name}'")
        seen.add(sig_name)
        words.append(sig_name)
        if unit:
            words.append(unit)
    datatype = bounds = None
    if len(raw_signals) == 1:  # one signal: the payload is its value
        datatype = "float"
        if lo is not None or hi is not None:
            bounds = (lo, hi)
    return CatalogEntry(name, "CAN", " ".join(words), datatype, bounds), frame_id


def _parse_can_signal(message: str, obj, dlc: int
                      ) -> tuple[str, str | None, float | None, float | None]:
    """Check one signal; return its name, unit, min and max."""
    if not isinstance(obj, dict):
        raise SchemaError(f"message '{message}' signal must be an object")
    name = obj.get("name")
    if not isinstance(name, str) or not name:
        raise SchemaError(f"message '{message}' signal must have a non-empty name")
    start_bit, bit_length = obj.get("start_bit"), obj.get("bit_length")
    if type(start_bit) is not int:
        start_bit = _int(obj, "start_bit", _SIGNAL, message, name)
    if type(bit_length) is not int:
        bit_length = _int(obj, "bit_length", _SIGNAL, message, name)
    if start_bit < 0:
        raise SchemaError(f"{_SIGNAL.format(message, name)} start_bit must be non-negative")
    if bit_length < 1:
        raise SchemaError(f"{_SIGNAL.format(message, name)} bit_length must be at least 1")
    if start_bit + bit_length > dlc * 8:
        raise SchemaError(
            f"{_SIGNAL.format(message, name)} spans bits {start_bit}..{start_bit + bit_length - 1}, "
            f"outside the {dlc * 8}-bit frame"
        )
    scale, offset = obj.get("scale", 1), obj.get("offset", 0)
    if type(scale) is not float:
        scale = _float(scale, _SIGNAL_FIELD, message, name, "scale")
    if scale == 0:
        raise SchemaError(f"{_SIGNAL.format(message, name)} scale must be non-zero")
    if type(offset) is not float:
        _float(offset, _SIGNAL_FIELD, message, name, "offset")  # checked, not kept
    lo, hi = obj.get("min"), obj.get("max")
    if lo is not None and type(lo) is not float:
        lo = _float(lo, _SIGNAL_FIELD, message, name, "min")
    if hi is not None:
        if type(hi) is not float:
            hi = _float(hi, _SIGNAL_FIELD, message, name, "max")
        if lo is not None and lo > hi:
            raise SchemaError(
                f"{_SIGNAL.format(message, name)} has min {lo} greater than max {hi}")
    unit = obj.get("unit")
    if unit is not None and not isinstance(unit, str):
        raise SchemaError(f"{_SIGNAL.format(message, name)} unit must be a string")
    return name, unit, lo, hi


# ---------------------------------------------------------------------------
# value validation

_TRUE_FALSE = ("true", "false")


def validate_value(entry: CatalogEntry, value: str) -> ValueVerdict:
    """Check a textual value against the entry's datatype, bounds and allowed set.

    Bounds are inclusive. An entry with no datatype (a multi-signal message)
    accepts any value.
    """
    if entry.datatype is None:
        return ValueVerdict(ok=True)
    text = value.strip()
    if entry.datatype == "boolean":
        if text.lower() not in _TRUE_FALSE:
            return ValueVerdict(False, "type-mismatch", f"'{value}' is not a boolean")
        return ValueVerdict(ok=True)
    if entry.datatype == "string":
        return ValueVerdict(ok=True)
    if entry.datatype == "enum":
        if entry.allowed and text in entry.allowed:
            return ValueVerdict(ok=True)
        return ValueVerdict(False, "not-allowed",
                            f"'{value}' not in {list(entry.allowed or ())}")
    # numeric datatypes: a number in JSON's grammar, an int for an int entry
    try:
        number = parse_number(text)
    except (ValueError, OverflowError):
        number = None
    if number is None or (entry.datatype == "int" and type(number) is not int):
        return ValueVerdict(False, "type-mismatch",
                            f"'{value}' is not a {entry.datatype}")
    if type(number) is int:
        try:
            number = float(number)
        except OverflowError:
            pass  # too large for a float: compared with the bounds exactly
    if entry.bounds:
        lo, hi = entry.bounds
        if lo is not None and number < lo:
            return ValueVerdict(False, "below-min", f"{number} < {lo}")
        if hi is not None and number > hi:
            return ValueVerdict(False, "above-max", f"{number} > {hi}")
    return ValueVerdict(ok=True)
