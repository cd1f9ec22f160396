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
  ``scale`` (non-zero), ``offset`` and optional ``min``/``max``/``unit``. Every
  signal must fit the frame: start_bit + bit_length <= dlc * 8.

Catalogs are immutable after construction; parsing the canonical serialized
form yields an identical catalog.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .errors import CatalogError, CatalogParseError, SchemaError
from .util import canonical_json, normalize_name

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


def _load_json_pairs(text: str):
    try:
        return json.loads(text, object_pairs_hook=lambda pairs: pairs)
    except json.JSONDecodeError as exc:
        raise CatalogParseError(exc.msg, line=exc.lineno, column=exc.colno) from exc


def _pairs_to_value(value):
    """Rebuild plain values (the pairs hook wraps every object as a list of pairs)."""
    if isinstance(value, list) and value and all(
        isinstance(p, tuple) and len(p) == 2 for p in value
    ):
        return {k: _pairs_to_value(v) for k, v in value}
    if isinstance(value, list):
        return [_pairs_to_value(v) for v in value]
    return value


def _is_pairs(value) -> bool:
    return isinstance(value, list) and all(
        isinstance(p, tuple) and len(p) == 2 for p in value
    )


def parse_vss_catalog(text: str) -> SignalCatalog:
    """Parse the signal tree; every leaf reachable from the root becomes a signal."""
    doc = _load_json_pairs(text)
    if not _is_pairs(doc):
        raise SchemaError("signal catalog root must be an object")
    signals: list[VssSignal] = []
    _walk_vss(doc, "", signals)
    return SignalCatalog(signals)


def _walk_vss(pairs, prefix: str, out: list[VssSignal]) -> None:
    seen: set[str] = set()
    for key, value in pairs:
        if not key:
            raise SchemaError(f"empty node name under '{prefix or '<root>'}'")
        path = f"{prefix}.{key}" if prefix else key
        if key in seen:
            raise CatalogError(f"duplicate signal path '{path}'")
        seen.add(key)
        if not _is_pairs(value):
            raise SchemaError(f"node '{path}' must be an object")
        fields = {k: v for k, v in value}
        if len(fields) != len(value):
            dupe = [k for k, _ in value if [x for x, _ in value].count(k) > 1][0]
            raise CatalogError(f"duplicate field '{dupe}' in node '{path}'")
        if "datatype" in fields:
            out.append(_leaf_signal(path, fields))
        elif "children" in fields:
            _check_fields(path, fields, _BRANCH_FIELDS)
            kind = fields.get("type", "branch")
            if kind != "branch":
                raise SchemaError(f"node '{path}' has children but type '{kind}'")
            out.append(VssSignal(path=path, kind="branch",
                                 description=_opt_str(path, fields, "description")))
            children = fields["children"]
            if not _is_pairs(children):
                raise SchemaError(f"children of '{path}' must be an object")
            _walk_vss(children, path, out)
        else:
            # compact branch form: object-valued keys are the children
            kind = fields.get("type")
            if kind in ("sensor", "actuator", "attribute"):
                raise SchemaError(f"leaf '{path}' is missing its datatype")
            if kind not in (None, "branch"):
                raise SchemaError(f"node '{path}' has invalid type '{kind}'")
            child_pairs = [(k, v) for k, v in value
                           if _is_pairs(v) and k not in ("type", "description")]
            scalars = [k for k, v in value
                       if not _is_pairs(v) and k not in ("type", "description")]
            if scalars and not child_pairs:
                raise SchemaError(f"leaf '{path}' is missing its datatype")
            if scalars:
                raise SchemaError(
                    f"node '{path}' mixes scalar field '{scalars[0]}' with child nodes"
                )
            out.append(VssSignal(path=path, kind="branch",
                                 description=_opt_str(path, fields, "description")))
            _walk_vss(child_pairs, path, out)


def _check_fields(path: str, fields: dict, allowed: set[str]) -> None:
    unknown = sorted(set(fields) - allowed)
    if unknown:
        raise SchemaError(f"node '{path}' has unknown field '{unknown[0]}'")


def _opt_str(path: str, fields: dict, name: str) -> str | None:
    value = fields.get(name)
    if value is None:
        return None
    value = _pairs_to_value(value)
    if not isinstance(value, str):
        raise SchemaError(f"field '{name}' of '{path}' must be a string")
    return value


def _opt_number(path: str, fields: dict, name: str) -> float | None:
    value = fields.get(name)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"field '{name}' of '{path}' must be a number")
    return float(value)


def _leaf_signal(path: str, fields: dict) -> VssSignal:
    _check_fields(path, fields, _LEAF_FIELDS)
    kind = _pairs_to_value(fields.get("type", "attribute"))
    if kind not in ("sensor", "actuator", "attribute"):
        raise SchemaError(f"leaf '{path}' has invalid type '{kind}'")
    datatype = _pairs_to_value(fields["datatype"])
    if datatype not in VSS_DATATYPES:
        raise SchemaError(f"leaf '{path}' has invalid datatype '{datatype}'")
    lo = _opt_number(path, fields, "min")
    hi = _opt_number(path, fields, "max")
    if lo is not None and hi is not None and lo > hi:
        raise SchemaError(f"leaf '{path}' has min {lo} greater than max {hi}")
    allowed = fields.get("allowed")
    if allowed is not None:
        allowed = _pairs_to_value(allowed)
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
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CatalogParseError(exc.msg, line=exc.lineno, column=exc.colno) from exc
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


def _req_number(ctx: str, obj: dict, name: str, integer: bool = False):
    if name not in obj:
        raise SchemaError(f"{ctx} is missing '{name}'")
    value = obj[name]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{ctx} field '{name}' must be a number")
    if integer:
        if not isinstance(value, int):
            raise SchemaError(f"{ctx} field '{name}' must be an integer")
        return value
    return float(value)


def _parse_message(index: int, obj) -> CanMessage:
    ctx = f"message[{index}]"
    if not isinstance(obj, dict):
        raise SchemaError(f"{ctx} must be an object")
    name = obj.get("name")
    if not isinstance(name, str) or not name:
        raise SchemaError(f"{ctx} must have a non-empty name")
    ctx = f"message '{name}'"
    frame_id = _parse_frame_id(obj.get("frame_id"))
    dlc = _req_number(ctx, obj, "dlc", integer=True)
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
    start_bit = _req_number(sctx, obj, "start_bit", integer=True)
    bit_length = _req_number(sctx, obj, "bit_length", integer=True)
    if start_bit < 0:
        raise SchemaError(f"{sctx} start_bit must be non-negative")
    if bit_length < 1:
        raise SchemaError(f"{sctx} bit_length must be at least 1")
    if start_bit + bit_length > dlc * 8:
        raise SchemaError(
            f"{sctx} spans bits {start_bit}..{start_bit + bit_length - 1}, "
            f"outside the {dlc * 8}-bit frame"
        )
    scale = float(obj.get("scale", 1))
    if scale == 0:
        raise SchemaError(f"{sctx} scale must be non-zero")
    offset = float(obj.get("offset", 0))
    lo = obj.get("min")
    hi = obj.get("max")
    for bound, label in ((lo, "min"), (hi, "max")):
        if bound is not None and (isinstance(bound, bool) or not isinstance(bound, (int, float))):
            raise SchemaError(f"{sctx} field '{label}' must be a number")
    lo = None if lo is None else float(lo)
    hi = None if hi is None else float(hi)
    if lo is not None and hi is not None and lo > hi:
        raise SchemaError(f"{sctx} has min {lo} greater than max {hi}")
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
    # numeric datatypes
    try:
        if entry.datatype == "int":
            number = float(int(text, 10))
        else:
            number = float(text)
    except ValueError:
        return ValueVerdict(False, "type-mismatch",
                            f"'{value}' is not a {entry.datatype}")
    if entry.bounds:
        lo, hi = entry.bounds
        if lo is not None and number < lo:
            return ValueVerdict(False, "below-min", f"{number} < {lo}")
        if hi is not None and number > hi:
            return ValueVerdict(False, "above-max", f"{number} > {hi}")
    return ValueVerdict(ok=True)
