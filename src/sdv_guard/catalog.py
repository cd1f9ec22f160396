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

* Message catalog: an array of message objects with ``frame_id`` (decimal int
  or "0x..." hex string, at most 29 bits), ``name``, ``dlc`` (0..64 bytes) and
  ``signals``: objects with ``name``, ``start_bit``, ``bit_length`` (>= 1),
  ``scale`` (non-zero), ``offset`` and optional ``min``/``max``/``unit``; the
  numeric fields must be JSON numbers. Every signal must fit the frame:
  start_bit + bit_length <= dlc * 8.

Catalogs are immutable after construction; parsing the canonical serialized
form yields an identical catalog.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field

from .errors import CatalogError, CatalogParseError, SchemaError
from .util import RepeatedKeys, canonical_json, load_json, normalize_name

VSS_KINDS = ("sensor", "actuator", "attribute", "branch")
VSS_DATATYPES = ("boolean", "int", "float", "string", "enum")

FRAME_ID_MAX = (1 << 29) - 1

_LEAF_FIELDS = {"type", "datatype", "unit", "min", "max", "allowed", "description"}
_BRANCH_FIELDS = {"type", "description", "children"}


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


class SignalCatalog:
    """Immutable signal tree index: every path (branches included) is unique."""

    def __init__(self, signals: list[VssSignal] | tuple[VssSignal, ...]):
        ordered = tuple(sorted(signals, key=lambda s: s.path))
        by_path: dict[str, VssSignal] = {}
        for sig in ordered:
            if sig.path in by_path:
                raise CatalogError(f"duplicate signal path '{sig.path}'")
            by_path[sig.path] = sig
        self.signals = ordered
        self._by_path = by_path
        self.entries = tuple(
            _vss_entry(sig) for sig in ordered if not sig.is_branch
        )
        self._entry_by_key = {e.key: e for e in self.entries}
        self._entries_by_normalized_key = _by_normalized_key(self.entries)

    def lookup(self, path: str) -> VssSignal | None:
        return self._by_path.get(path)

    def lookup_entry(self, key: str) -> CatalogEntry | None:
        return self._entry_by_key.get(key)

    def lookup_normalized(self, name: str) -> tuple[CatalogEntry, ...]:
        return self._entries_by_normalized_key.get(normalize_name(name), ())

    def __eq__(self, other) -> bool:
        return isinstance(other, SignalCatalog) and self.signals == other.signals

    def __len__(self) -> int:
        return len(self.signals)


class MessageCatalog:
    """Immutable message index keyed by name and by frame id."""

    def __init__(self, messages: list[CanMessage] | tuple[CanMessage, ...]):
        ordered = tuple(sorted(messages, key=lambda m: m.name))
        by_name: dict[str, CanMessage] = {}
        by_frame: dict[int, CanMessage] = {}
        for msg in ordered:
            if msg.name in by_name:
                raise CatalogError(f"duplicate message name '{msg.name}'")
            if msg.frame_id in by_frame:
                raise CatalogError(f"duplicate frame id 0x{msg.frame_id:X}")
            by_name[msg.name] = msg
            by_frame[msg.frame_id] = msg
        self.messages = ordered
        self._by_name = by_name
        self._by_frame = by_frame
        self.entries = tuple(_can_entry(msg) for msg in ordered)
        self._entry_by_key = {e.key: e for e in self.entries}
        self._entries_by_normalized_key = _by_normalized_key(self.entries)

    def lookup(self, name: str) -> CanMessage | None:
        return self._by_name.get(name)

    def lookup_frame(self, frame_id: int) -> CanMessage | None:
        return self._by_frame.get(frame_id)

    def lookup_entry(self, key: str) -> CatalogEntry | None:
        return self._entry_by_key.get(key)

    def lookup_normalized(self, name: str) -> tuple[CatalogEntry, ...]:
        return self._entries_by_normalized_key.get(normalize_name(name), ())

    def __eq__(self, other) -> bool:
        return isinstance(other, MessageCatalog) and self.messages == other.messages

    def __len__(self) -> int:
        return len(self.messages)


def _by_normalized_key(entries) -> dict[str, tuple[CatalogEntry, ...]]:
    """Entries grouped by normalized key, in catalog order, for alias lookup."""
    out: dict[str, list[CatalogEntry]] = {}
    for entry in entries:
        out.setdefault(normalize_name(entry.key), []).append(entry)
    return {k: tuple(v) for k, v in out.items()}


def _vss_entry(sig: VssSignal) -> CatalogEntry:
    parts = [sig.path]
    if sig.datatype:
        parts.append(sig.datatype)
    if sig.unit:
        parts.append(sig.unit)
    if sig.description:
        parts.append(sig.description)
    bounds = None
    if sig.min is not None or sig.max is not None:
        bounds = (sig.min, sig.max)
    return CatalogEntry(
        key=sig.path,
        protocol="VSS",
        text=" ".join(parts),
        datatype=sig.datatype,
        bounds=bounds,
        allowed=sig.allowed,
    )


def _can_entry(msg: CanMessage) -> CatalogEntry:
    parts = [msg.name, "CAN message", f"0x{msg.frame_id:X}"]
    for sig in msg.signals:
        parts.append(sig.name)
        if sig.unit:
            parts.append(sig.unit)
    datatype = None
    bounds = None
    if len(msg.signals) == 1:
        only = msg.signals[0]
        datatype = "float"
        if only.min is not None or only.max is not None:
            bounds = (only.min, only.max)
    return CatalogEntry(
        key=msg.name,
        protocol="CAN",
        text=" ".join(parts),
        datatype=datatype,
        bounds=bounds,
    )


# ---------------------------------------------------------------------------
# signal catalog parsing


def parse_vss_catalog(text: str) -> SignalCatalog:
    """Parse the signal tree; every leaf reachable from the root becomes a signal."""
    doc = load_json(text, CatalogParseError, "signal catalog")
    if not isinstance(doc, dict):
        raise SchemaError("signal catalog root must be an object")
    return SignalCatalog(_walk_vss(doc))


def _walk_vss(root: dict) -> list[VssSignal]:
    """Every node under ``root``, depth first in document order, so the
    first fault in document order is the one reported. The stack is
    explicit: any depth the JSON decoder accepts is walked."""
    out: list[VssSignal] = []
    stack = [("", _in_order(root), set())]
    while stack:
        prefix, members, seen = stack[-1]
        for key, value in members:
            if not key:
                raise SchemaError(f"empty node name under '{prefix or '<root>'}'")
            path = f"{prefix}.{key}" if prefix else key
            if key in seen:
                raise CatalogError(f"duplicate signal path '{path}'")
            seen.add(key)
            signal, children = _vss_node(path, value)
            out.append(signal)
            if children is not None:
                stack.append((path, _in_order(children), set()))
                break
        else:
            stack.pop()
    return out


def _in_order(obj: dict):
    """The members of a decoded object in document order, repeats included."""
    return iter(obj.pairs if isinstance(obj, RepeatedKeys) else obj.items())


def _vss_node(path: str, fields) -> tuple[VssSignal, dict | None]:
    """One node's signal, and a branch's children."""
    if not isinstance(fields, dict):
        raise SchemaError(f"node '{path}' must be an object")
    if isinstance(fields, RepeatedKeys):
        counts = Counter(key for key, _ in fields.pairs)
        dupe = next(key for key, n in counts.items() if n > 1)
        raise CatalogError(f"duplicate field '{dupe}' in node '{path}'")
    if "datatype" in fields:
        return _leaf_signal(path, fields), None
    if "children" in fields:
        _check_fields(path, fields, _BRANCH_FIELDS)
        kind = fields.get("type", "branch")
        if kind != "branch":
            raise SchemaError(f"node '{path}' has children but type '{kind}'")
        branch = VssSignal(path=path, kind="branch",
                           description=_opt_str(path, fields, "description"))
        if not isinstance(fields["children"], dict):
            raise SchemaError(f"children of '{path}' must be an object")
        return branch, fields["children"]
    # compact branch form: object-valued keys are the children
    kind = fields.get("type")
    if kind in ("sensor", "actuator", "attribute"):
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
    return VssSignal(path=path, kind="branch",
                     description=_opt_str(path, fields, "description")), children


def _check_fields(path: str, fields: dict, allowed: set[str]) -> None:
    unknown = sorted(set(fields) - allowed)
    if unknown:
        raise SchemaError(f"node '{path}' has unknown field '{unknown[0]}'")


def _opt_str(path: str, fields: dict, name: str) -> str | None:
    value = fields.get(name)
    if value is not None and not isinstance(value, str):
        raise SchemaError(f"field '{name}' of '{path}' must be a string")
    return value


def _number(value, label: str, integer: bool = False):
    """A JSON number field: an int when ``integer``, else a float. ``label``
    names the field in the error."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{label} must be a number")
    if not integer:
        return float(value)
    if not isinstance(value, int):
        raise SchemaError(f"{label} must be an integer")
    return value


def _bounds(subject: str, fields: dict, label) -> tuple[float | None, float | None]:
    """The optional ``min``/``max`` numbers (null means absent); ``label(name)``
    names a field in the errors."""
    lo, hi = fields.get("min"), fields.get("max")
    lo = None if lo is None else _number(lo, label("min"))
    hi = None if hi is None else _number(hi, label("max"))
    if lo is not None and hi is not None and lo > hi:
        raise SchemaError(f"{subject} has min {lo} greater than max {hi}")
    return lo, hi


def _leaf_signal(path: str, fields: dict) -> VssSignal:
    _check_fields(path, fields, _LEAF_FIELDS)
    kind = fields.get("type", "attribute")
    if kind not in ("sensor", "actuator", "attribute"):
        raise SchemaError(f"leaf '{path}' has invalid type '{kind}'")
    datatype = fields["datatype"]
    if datatype not in VSS_DATATYPES:
        raise SchemaError(f"leaf '{path}' has invalid datatype '{datatype}'")
    lo, hi = _bounds(f"leaf '{path}'", fields, lambda name: f"field '{name}' of '{path}'")
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
    return VssSignal(
        path=path,
        kind=kind,
        datatype=datatype,
        unit=_opt_str(path, fields, "unit"),
        min=lo,
        max=hi,
        allowed=allowed,
        description=_opt_str(path, fields, "description"),
    )


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
    return json.dumps(root, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


# ---------------------------------------------------------------------------
# message catalog parsing


def parse_can_catalog(text: str) -> MessageCatalog:
    doc = load_json(text, CatalogParseError, "message catalog")
    if not isinstance(doc, list):
        raise SchemaError("message catalog root must be an array")
    messages = [_parse_message(i, obj) for i, obj in enumerate(doc)]
    return MessageCatalog(messages)


def _parse_frame_id(raw) -> int:
    if isinstance(raw, bool):
        raise SchemaError(f"invalid frame_id {raw!r}")
    if isinstance(raw, int):
        value = raw
    elif isinstance(raw, str):
        text = raw.strip().lower()
        try:
            value = int(text, 16) if text.startswith("0x") else int(text, 10)
        except ValueError:
            raise SchemaError(f"invalid frame_id {raw!r}") from None
    else:
        raise SchemaError(f"invalid frame_id {raw!r}")
    if value < 0 or value > FRAME_ID_MAX:
        raise SchemaError(f"frame_id 0x{value:X} outside the 29-bit identifier range")
    return value


def _required_int(ctx: str, obj: dict, name: str) -> int:
    if name not in obj:
        raise SchemaError(f"{ctx} is missing '{name}'")
    return _number(obj[name], f"{ctx} field '{name}'", integer=True)


def _parse_message(index: int, obj) -> CanMessage:
    ctx = f"message[{index}]"
    if not isinstance(obj, dict):
        raise SchemaError(f"{ctx} must be an object")
    name = obj.get("name")
    if not isinstance(name, str) or not name:
        raise SchemaError(f"{ctx} must have a non-empty name")
    ctx = f"message '{name}'"
    frame_id = _parse_frame_id(obj.get("frame_id"))
    dlc = _required_int(ctx, obj, "dlc")
    if dlc < 0 or dlc > 64:
        raise SchemaError(f"{ctx} dlc {dlc} outside 0..64")
    raw_signals = obj.get("signals", [])
    if not isinstance(raw_signals, list):
        raise SchemaError(f"{ctx} signals must be an array")
    signals = []
    seen: set[str] = set()
    for sig_obj in raw_signals:
        sig = _parse_can_signal(ctx, sig_obj, dlc)
        if sig.name in seen:
            raise CatalogError(f"{ctx} has duplicate signal '{sig.name}'")
        seen.add(sig.name)
        signals.append(sig)
    return CanMessage(frame_id=frame_id, name=name, dlc=dlc, signals=tuple(signals))


def _parse_can_signal(ctx: str, obj, dlc: int) -> CanSignal:
    if not isinstance(obj, dict):
        raise SchemaError(f"{ctx} signal must be an object")
    name = obj.get("name")
    if not isinstance(name, str) or not name:
        raise SchemaError(f"{ctx} signal must have a non-empty name")
    sctx = f"{ctx} signal '{name}'"
    start_bit = _required_int(sctx, obj, "start_bit")
    bit_length = _required_int(sctx, obj, "bit_length")
    if start_bit < 0:
        raise SchemaError(f"{sctx} start_bit must be non-negative")
    if bit_length < 1:
        raise SchemaError(f"{sctx} bit_length must be at least 1")
    if start_bit + bit_length > dlc * 8:
        raise SchemaError(
            f"{sctx} spans bits {start_bit}..{start_bit + bit_length - 1}, "
            f"outside the {dlc * 8}-bit frame"
        )
    scale = _number(obj.get("scale", 1), f"{sctx} field 'scale'")
    if scale == 0:
        raise SchemaError(f"{sctx} scale must be non-zero")
    offset = _number(obj.get("offset", 0), f"{sctx} field 'offset'")
    lo, hi = _bounds(sctx, obj, lambda name: f"{sctx} field '{name}'")
    unit = obj.get("unit")
    if unit is not None and not isinstance(unit, str):
        raise SchemaError(f"{sctx} unit must be a string")
    return CanSignal(
        name=name, start_bit=start_bit, bit_length=bit_length,
        scale=scale, offset=offset, min=lo, max=hi, unit=unit,
    )


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
    return json.dumps(out, indent=2, ensure_ascii=False) + "\n"


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
    # numeric datatypes; NaN is no number, since no bound could ever reject it
    try:
        number = float(int(text, 10)) if entry.datatype == "int" else float(text)
    except OverflowError:
        number = int(text, 10)  # too large for a float: compared with the bounds exactly
    except ValueError:
        number = math.nan
    if isinstance(number, float) and math.isnan(number):
        return ValueVerdict(False, "type-mismatch",
                            f"'{value}' is not a {entry.datatype}")
    if entry.bounds:
        lo, hi = entry.bounds
        if lo is not None and number < lo:
            return ValueVerdict(False, "below-min", f"{number} < {lo}")
        if hi is not None and number > hi:
            return ValueVerdict(False, "above-max", f"{number} > {hi}")
    return ValueVerdict(ok=True)
