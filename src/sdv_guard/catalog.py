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

Catalogs are immutable after construction; parsing the canonical serialized
form yields an identical catalog. The normalized-alias map behind
``lookup_normalized`` is built on its first call, from the entries alone, so
building it late changes no answer: a catalog stays observably immutable.
Only ``extraction`` reads that map, and only after an exact lookup misses.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass

from .errors import CatalogError, CatalogParseError, SchemaError
from .util import RepeatedKeys, dump_json, load_json, normalize_name, parse_number

VSS_KINDS = ("sensor", "actuator", "attribute", "branch")
VSS_DATATYPES = ("boolean", "int", "float", "string", "enum")

FRAME_ID_MAX = (1 << 29) - 1

_LEAF_FIELDS = frozenset(("type", "datatype", "unit", "min", "max", "allowed", "description"))
_BRANCH_FIELDS = frozenset(("type", "description", "children"))
_LEAF_KINDS = ("sensor", "actuator", "attribute")


@dataclass(frozen=True)
class VssSignal:
    path: str
    kind: str
    datatype: str | None = None
    unit: str | None = None
    min: float | None = None
    max: float | None = None
    allowed: tuple[str, ...] | None = None
    description: str | None = None

    @property
    def is_branch(self) -> bool:
        return self.kind == "branch"


@dataclass(frozen=True)
class CanSignal:
    name: str
    start_bit: int
    bit_length: int
    scale: float = 1.0
    offset: float = 0.0
    min: float | None = None
    max: float | None = None
    unit: str | None = None


@dataclass(frozen=True)
class CanMessage:
    frame_id: int
    name: str
    dlc: int
    signals: tuple[CanSignal, ...] = ()


@dataclass(frozen=True)
class CatalogEntry:
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


@dataclass(frozen=True)
class ValueVerdict:
    ok: bool
    violation: str | None = None  # type-mismatch | below-min | above-max | not-allowed
    detail: str | None = None


def _frozen(cls, fields: dict):
    """``cls(**fields)`` for a frozen dataclass ``cls``, given every field in
    declaration order. It stores ``fields`` as the instance dict at once,
    where ``__init__`` calls ``object.__setattr__`` per field. The instance
    is frozen, hashable and equal by value all the same."""
    obj = object.__new__(cls)
    object.__setattr__(obj, "__dict__", fields)
    return obj


class _Catalog:
    """The entry lookups both catalogs share."""

    entries: tuple[CatalogEntry, ...]
    _entry_by_key: dict[str, CatalogEntry]
    _by_normalized_key: dict[str, tuple[CatalogEntry, ...]] | None = None

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


class SignalCatalog(_Catalog):
    """Immutable signal tree index: every path (branches included) is unique."""

    def __init__(self, nodes: list[tuple[VssSignal, CatalogEntry | None]]):
        """``nodes``: each signal with its entry (None for a branch), in any order."""
        by_path: dict[str, VssSignal] = {}
        entry_by_key: dict[str, CatalogEntry] = {}
        for sig, entry in sorted(nodes, key=lambda node: node[0].path):
            if sig.path in by_path:
                raise CatalogError(f"duplicate signal path '{sig.path}'")
            by_path[sig.path] = sig
            if entry is not None:
                entry_by_key[sig.path] = entry
        self.signals = tuple(by_path.values())
        self._by_path = by_path
        self.entries = tuple(entry_by_key.values())
        self._entry_by_key = entry_by_key

    def lookup(self, path: str) -> VssSignal | None:
        return self._by_path.get(path)

    def __eq__(self, other) -> bool:
        return isinstance(other, SignalCatalog) and self.signals == other.signals

    def __len__(self) -> int:
        return len(self.signals)


class MessageCatalog(_Catalog):
    """Immutable message index keyed by name and by frame id."""

    def __init__(self, messages: list[tuple[CanMessage, CatalogEntry]]):
        """``messages``: each message with its entry, in any order."""
        by_name: dict[str, CanMessage] = {}
        by_frame: dict[int, CanMessage] = {}
        entry_by_key: dict[str, CatalogEntry] = {}
        for msg, entry in sorted(messages, key=lambda message: message[0].name):
            if msg.name in by_name:
                raise CatalogError(f"duplicate message name '{msg.name}'")
            if msg.frame_id in by_frame:
                raise CatalogError(f"duplicate frame id 0x{msg.frame_id:X}")
            by_name[msg.name] = msg
            by_frame[msg.frame_id] = msg
            entry_by_key[msg.name] = entry
        self.messages = tuple(by_name.values())
        self._by_name = by_name
        self._by_frame = by_frame
        self.entries = tuple(entry_by_key.values())
        self._entry_by_key = entry_by_key

    def lookup(self, name: str) -> CanMessage | None:
        return self._by_name.get(name)

    def lookup_frame(self, frame_id: int) -> CanMessage | None:
        return self._by_frame.get(frame_id)

    def __eq__(self, other) -> bool:
        return isinstance(other, MessageCatalog) and self.messages == other.messages

    def __len__(self) -> int:
        return len(self.messages)


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


def parse_vss_catalog(text: str) -> SignalCatalog:
    """Parse the signal tree; every leaf reachable from the root becomes a signal."""
    doc = load_json(text, CatalogParseError, "signal catalog")
    if not isinstance(doc, dict):
        raise SchemaError("signal catalog root must be an object")
    return SignalCatalog(_walk_vss(doc))


def _walk_vss(root: dict) -> list[tuple[VssSignal, CatalogEntry | None]]:
    """Every node under ``root`` with its entry, depth first in document
    order, so the first fault in document order is the one reported. The
    stack is explicit: any depth the JSON decoder accepts is walked."""
    out: list[tuple[VssSignal, CatalogEntry | None]] = []
    stack = [("", *_members(root))]
    while stack:
        prefix, members, seen = stack[-1]
        for key, value in members:
            if not key:
                raise SchemaError(f"empty node name under '{prefix or '<root>'}'")
            path = f"{prefix}.{key}" if prefix else key
            if seen is not None:
                if key in seen:
                    raise CatalogError(f"duplicate signal path '{path}'")
                seen.add(key)
            node, children = _vss_node(path, value)
            out.append(node)
            if children is not None:
                stack.append((path, *_members(children)))
                break
        else:
            stack.pop()
    return out


def _members(obj: dict):
    """The members of a decoded object in document order, and the set that
    catches a repeated name: only an object whose key repeats needs one."""
    if isinstance(obj, RepeatedKeys):
        return iter(obj.pairs), set()
    return iter(obj.items()), None


def _vss_node(path: str, fields) -> tuple[tuple[VssSignal, CatalogEntry | None], dict | None]:
    """One node's signal and entry, and a branch's children."""
    if type(fields) is not dict:
        if not isinstance(fields, dict):
            raise SchemaError(f"node '{path}' must be an object")
        if isinstance(fields, RepeatedKeys):
            counts = Counter(key for key, _ in fields.pairs)
            dupe = next(key for key, n in counts.items() if n > 1)
            raise CatalogError(f"duplicate field '{dupe}' in node '{path}'")
    if "datatype" in fields:
        return _vss_leaf(path, fields), None
    if "children" in fields:
        if not fields.keys() <= _BRANCH_FIELDS:
            raise _unknown_field(path, fields, _BRANCH_FIELDS)
        kind = fields.get("type", "branch")
        if kind != "branch":
            raise SchemaError(f"node '{path}' has children but type '{kind}'")
        branch = _branch(path, fields)
        if not isinstance(fields["children"], dict):
            raise SchemaError(f"children of '{path}' must be an object")
        return branch, fields["children"]
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
    return _branch(path, fields), children


def _branch(path: str, fields: dict) -> tuple[VssSignal, None]:
    return VssSignal(path=path, kind="branch",
                     description=_opt_str(path, fields, "description")), None


def _vss_leaf(path: str, fields: dict) -> tuple[VssSignal, CatalogEntry]:
    if not fields.keys() <= _LEAF_FIELDS:
        raise _unknown_field(path, fields, _LEAF_FIELDS)
    kind = fields.get("type", "attribute")
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
    return _frozen(VssSignal, {
        "path": path, "kind": kind, "datatype": datatype, "unit": unit,
        "min": lo, "max": hi, "allowed": allowed, "description": description,
    }), _frozen(CatalogEntry, {
        "key": path, "protocol": "VSS", "text": text, "datatype": datatype,
        "bounds": None if lo is None and hi is None else (lo, hi), "allowed": allowed,
    })


def serialize_vss_catalog(catalog: SignalCatalog) -> str:
    """Canonical tree form: explicit children objects, sorted keys, fixed field order."""
    root: dict = {}
    nodes: dict[str, dict] = {}
    for sig in catalog.signals:
        node: dict = {}
        if sig.is_branch:
            node["type"] = "branch"
            if sig.description is not None:
                node["description"] = sig.description
            node["children"] = {}
        else:
            node["type"] = sig.kind
            node["datatype"] = sig.datatype
            for name in ("unit", "min", "max"):
                value = getattr(sig, name)
                if value is not None:
                    node[name] = value
            if sig.allowed is not None:
                node["allowed"] = list(sig.allowed)
            if sig.description is not None:
                node["description"] = sig.description
        nodes[sig.path] = node
        head, _, tail = sig.path.rpartition(".")
        if head:
            parent = nodes.get(head)
            if parent is None or "children" not in parent:
                raise CatalogError(f"signal '{sig.path}' has no branch parent '{head}'")
            parent["children"][tail] = node
        else:
            root[sig.path] = node
    return dump_json(root, ensure_ascii=False)


# ---------------------------------------------------------------------------
# message catalog parsing


def parse_can_catalog(text: str) -> MessageCatalog:
    doc = load_json(text, CatalogParseError, "message catalog")
    if not isinstance(doc, list):
        raise SchemaError("message catalog root must be an array")
    return MessageCatalog([_parse_message(i, obj) for i, obj in enumerate(doc)])


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


def _parse_message(index: int, obj) -> tuple[CanMessage, CatalogEntry]:
    """One message and its entry."""
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
    signals = []
    seen: set[str] = set()
    words = [name, "CAN message", f"0x{frame_id:X}"]
    for sig_obj in raw_signals:
        sig = _parse_can_signal(name, sig_obj, dlc)
        if sig.name in seen:
            raise CatalogError(f"message '{name}' has duplicate signal '{sig.name}'")
        seen.add(sig.name)
        signals.append(sig)
        words.append(sig.name)
        if sig.unit:
            words.append(sig.unit)
    datatype = bounds = None
    if len(signals) == 1:
        only = signals[0]
        datatype = "float"
        if only.min is not None or only.max is not None:
            bounds = (only.min, only.max)
    return _frozen(CanMessage, {
        "frame_id": frame_id, "name": name, "dlc": dlc, "signals": tuple(signals),
    }), _frozen(CatalogEntry, {
        "key": name, "protocol": "CAN", "text": " ".join(words), "datatype": datatype,
        "bounds": bounds, "allowed": None,
    })


def _parse_can_signal(message: str, obj, dlc: int) -> CanSignal:
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
        offset = _float(offset, _SIGNAL_FIELD, message, name, "offset")
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
    return _frozen(CanSignal, {
        "name": name, "start_bit": start_bit, "bit_length": bit_length,
        "scale": scale, "offset": offset, "min": lo, "max": hi, "unit": unit,
    })


def serialize_can_catalog(catalog: MessageCatalog) -> str:
    """Canonical array form: messages sorted by name, hex frame ids, fixed field order."""
    out = []
    for msg in catalog.messages:
        entry: dict = {
            "frame_id": f"0x{msg.frame_id:X}",
            "name": msg.name,
            "dlc": msg.dlc,
            "signals": [],
        }
        for sig in msg.signals:
            sig_obj: dict = {
                "name": sig.name,
                "start_bit": sig.start_bit,
                "bit_length": sig.bit_length,
                "scale": sig.scale,
                "offset": sig.offset,
            }
            for name in ("min", "max", "unit"):
                value = getattr(sig, name)
                if value is not None:
                    sig_obj[name] = value
            entry["signals"].append(sig_obj)
        out.append(entry)
    return dump_json(out, sort_keys=False, ensure_ascii=False)


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
