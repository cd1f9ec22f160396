"""The catalog parsers against the code they replaced.

Three references are kept here, with only their names changed, and with
local copies of the signal and message classes they built:

* ``_ref_parse_vss_catalog``, the pair-list VSS parser: it decoded every
  JSON object as a list of pairs and walked that form recursively.
* ``_RefSignalCatalog`` and ``_RefMessageCatalog``, the catalogs as they
  were: each derived its entries from the sorted signals or messages in a
  second pass (``_ref_vss_entry``, ``_ref_can_entry``) and built the
  normalized-alias map up front (``_ref_by_normalized_key``).
* ``_ref_parse_can_catalog``, the CAN parser that formatted each error
  context up front and read a ``frame_id`` string with ``int()``.

``parse_vss_catalog`` and ``parse_can_catalog`` must give the same entries
and the same answer to every lookup, or the same error type and message, on
the fixture catalogs, on bench catalogs and on random catalogs with repeated
keys and several faults.

The intended differences are kept out of the random catalogs, and
``test_intended_differences_from_the_reference`` and
``test_intended_frame_id_differences_from_the_reference`` pin them down:

* The pair form could not tell an empty array from an empty object, so the
  VSS reference accepts ``[]`` where an object is required. The new parser
  rejects it.
* A message that prints an object value printed the pair list (``[]``,
  ``[('a', 1)]``); it now prints the object (``{}``, ``{'a': 1}``).
* A ``frame_id`` string is ASCII decimal digits, or ``0x``/``0X`` and ASCII
  hex digits. ``int()`` also took other digits, underscores and a sign.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass

import pytest

from bench import generators as gen
from sdv_guard.catalog import (
    FRAME_ID_MAX,
    VSS_DATATYPES,
    CatalogEntry,
    parse_can_catalog,
    parse_vss_catalog,
)
from sdv_guard.errors import CatalogError, CatalogParseError, SchemaError, SdvGuardError
from sdv_guard.util import load_json, normalize_name
from conftest import FIXTURES

# ---------------------------------------------------------------------------
# the reference's signal and message classes, as they were


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


# ---------------------------------------------------------------------------
# the reference: the pair-list parser, as it was

_LEAF_FIELDS = {"type", "datatype", "unit", "min", "max", "allowed", "description"}
_BRANCH_FIELDS = {"type", "description", "children"}


def _load_json_pairs(text: str):
    try:
        return json.loads(text, object_pairs_hook=lambda pairs: pairs)
    except json.JSONDecodeError as exc:
        raise CatalogParseError(exc.msg, line=exc.lineno, column=exc.colno) from exc


def _pairs_to_value(value):
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


def _ref_parse_vss_catalog(text: str) -> _RefSignalCatalog:
    doc = _load_json_pairs(text)
    if not _is_pairs(doc):
        raise SchemaError("signal catalog root must be an object")
    signals: list[VssSignal] = []
    _ref_walk_vss(doc, "", signals)
    return _RefSignalCatalog(signals)


def _ref_walk_vss(pairs, prefix: str, out: list[VssSignal]) -> None:
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
            out.append(_ref_leaf_signal(path, fields))
        elif "children" in fields:
            _ref_check_fields(path, fields, _BRANCH_FIELDS)
            kind = fields.get("type", "branch")
            if kind != "branch":
                raise SchemaError(f"node '{path}' has children but type '{kind}'")
            out.append(VssSignal(path=path, kind="branch",
                                 description=_ref_opt_str(path, fields, "description")))
            children = fields["children"]
            if not _is_pairs(children):
                raise SchemaError(f"children of '{path}' must be an object")
            _ref_walk_vss(children, path, out)
        else:
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
                                 description=_ref_opt_str(path, fields, "description")))
            _ref_walk_vss(child_pairs, path, out)


def _ref_check_fields(path: str, fields: dict, allowed: set[str]) -> None:
    unknown = sorted(set(fields) - allowed)
    if unknown:
        raise SchemaError(f"node '{path}' has unknown field '{unknown[0]}'")


def _ref_opt_str(path: str, fields: dict, name: str) -> str | None:
    value = fields.get(name)
    if value is None:
        return None
    value = _pairs_to_value(value)
    if not isinstance(value, str):
        raise SchemaError(f"field '{name}' of '{path}' must be a string")
    return value


def _ref_opt_number(path: str, fields: dict, name: str) -> float | None:
    value = fields.get(name)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"field '{name}' of '{path}' must be a number")
    return float(value)


def _ref_leaf_signal(path: str, fields: dict) -> VssSignal:
    _ref_check_fields(path, fields, _LEAF_FIELDS)
    kind = _pairs_to_value(fields.get("type", "attribute"))
    if kind not in ("sensor", "actuator", "attribute"):
        raise SchemaError(f"leaf '{path}' has invalid type '{kind}'")
    datatype = _pairs_to_value(fields["datatype"])
    if datatype not in VSS_DATATYPES:
        raise SchemaError(f"leaf '{path}' has invalid datatype '{datatype}'")
    lo = _ref_opt_number(path, fields, "min")
    hi = _ref_opt_number(path, fields, "max")
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
        unit=_ref_opt_str(path, fields, "unit"),
        min=lo,
        max=hi,
        allowed=allowed,
        description=_ref_opt_str(path, fields, "description"),
    )


# ---------------------------------------------------------------------------
# the reference: the catalogs, their entries and alias map, as they were


class _RefSignalCatalog:
    def __init__(self, signals):
        ordered = tuple(sorted(signals, key=lambda s: s.path))
        by_path: dict[str, VssSignal] = {}
        for sig in ordered:
            if sig.path in by_path:
                raise CatalogError(f"duplicate signal path '{sig.path}'")
            by_path[sig.path] = sig
        self.signals = ordered
        self._by_path = by_path
        self.entries = tuple(
            _ref_vss_entry(sig) for sig in ordered if not sig.is_branch
        )
        self._entry_by_key = {e.key: e for e in self.entries}
        self._entries_by_normalized_key = _ref_by_normalized_key(self.entries)

    def lookup(self, path: str) -> VssSignal | None:
        return self._by_path.get(path)

    def lookup_entry(self, key: str) -> CatalogEntry | None:
        return self._entry_by_key.get(key)

    def lookup_normalized(self, name: str) -> tuple[CatalogEntry, ...]:
        return self._entries_by_normalized_key.get(normalize_name(name), ())


class _RefMessageCatalog:
    def __init__(self, messages):
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
        self.entries = tuple(_ref_can_entry(msg) for msg in ordered)
        self._entry_by_key = {e.key: e for e in self.entries}
        self._entries_by_normalized_key = _ref_by_normalized_key(self.entries)

    def lookup(self, name: str) -> CanMessage | None:
        return self._by_name.get(name)

    def lookup_frame(self, frame_id: int) -> CanMessage | None:
        return self._by_frame.get(frame_id)

    def lookup_entry(self, key: str) -> CatalogEntry | None:
        return self._entry_by_key.get(key)

    def lookup_normalized(self, name: str) -> tuple[CatalogEntry, ...]:
        return self._entries_by_normalized_key.get(normalize_name(name), ())


def _ref_by_normalized_key(entries) -> dict[str, tuple[CatalogEntry, ...]]:
    out: dict[str, list[CatalogEntry]] = {}
    for entry in entries:
        out.setdefault(normalize_name(entry.key), []).append(entry)
    return {k: tuple(v) for k, v in out.items()}


def _ref_vss_entry(sig: VssSignal) -> CatalogEntry:
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


def _ref_can_entry(msg: CanMessage) -> CatalogEntry:
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
# the reference: the CAN parser, as it was


def _ref_parse_can_catalog(text: str) -> _RefMessageCatalog:
    doc = load_json(text, CatalogParseError, "message catalog")
    if not isinstance(doc, list):
        raise SchemaError("message catalog root must be an array")
    messages = [_ref_parse_message(i, obj) for i, obj in enumerate(doc)]
    return _RefMessageCatalog(messages)


def _ref_parse_frame_id(raw) -> int:
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


def _ref_number(value, label: str, integer: bool = False):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{label} must be a number")
    if not integer:
        return float(value)
    if not isinstance(value, int):
        raise SchemaError(f"{label} must be an integer")
    return value


def _ref_bounds(subject: str, fields: dict, label) -> tuple[float | None, float | None]:
    lo, hi = fields.get("min"), fields.get("max")
    lo = None if lo is None else _ref_number(lo, label("min"))
    hi = None if hi is None else _ref_number(hi, label("max"))
    if lo is not None and hi is not None and lo > hi:
        raise SchemaError(f"{subject} has min {lo} greater than max {hi}")
    return lo, hi


def _ref_required_int(ctx: str, obj: dict, name: str) -> int:
    if name not in obj:
        raise SchemaError(f"{ctx} is missing '{name}'")
    return _ref_number(obj[name], f"{ctx} field '{name}'", integer=True)


def _ref_parse_message(index: int, obj) -> CanMessage:
    ctx = f"message[{index}]"
    if not isinstance(obj, dict):
        raise SchemaError(f"{ctx} must be an object")
    name = obj.get("name")
    if not isinstance(name, str) or not name:
        raise SchemaError(f"{ctx} must have a non-empty name")
    ctx = f"message '{name}'"
    frame_id = _ref_parse_frame_id(obj.get("frame_id"))
    dlc = _ref_required_int(ctx, obj, "dlc")
    if dlc < 0 or dlc > 64:
        raise SchemaError(f"{ctx} dlc {dlc} outside 0..64")
    raw_signals = obj.get("signals", [])
    if not isinstance(raw_signals, list):
        raise SchemaError(f"{ctx} signals must be an array")
    signals = []
    seen: set[str] = set()
    for sig_obj in raw_signals:
        sig = _ref_parse_can_signal(ctx, sig_obj, dlc)
        if sig.name in seen:
            raise CatalogError(f"{ctx} has duplicate signal '{sig.name}'")
        seen.add(sig.name)
        signals.append(sig)
    return CanMessage(frame_id=frame_id, name=name, dlc=dlc, signals=tuple(signals))


def _ref_parse_can_signal(ctx: str, obj, dlc: int) -> CanSignal:
    if not isinstance(obj, dict):
        raise SchemaError(f"{ctx} signal must be an object")
    name = obj.get("name")
    if not isinstance(name, str) or not name:
        raise SchemaError(f"{ctx} signal must have a non-empty name")
    sctx = f"{ctx} signal '{name}'"
    start_bit = _ref_required_int(sctx, obj, "start_bit")
    bit_length = _ref_required_int(sctx, obj, "bit_length")
    if start_bit < 0:
        raise SchemaError(f"{sctx} start_bit must be non-negative")
    if bit_length < 1:
        raise SchemaError(f"{sctx} bit_length must be at least 1")
    if start_bit + bit_length > dlc * 8:
        raise SchemaError(
            f"{sctx} spans bits {start_bit}..{start_bit + bit_length - 1}, "
            f"outside the {dlc * 8}-bit frame"
        )
    scale = _ref_number(obj.get("scale", 1), f"{sctx} field 'scale'")
    if scale == 0:
        raise SchemaError(f"{sctx} scale must be non-zero")
    offset = _ref_number(obj.get("offset", 0), f"{sctx} field 'offset'")
    lo, hi = _ref_bounds(sctx, obj, lambda name: f"{sctx} field '{name}'")
    unit = obj.get("unit")
    if unit is not None and not isinstance(unit, str):
        raise SchemaError(f"{sctx} unit must be a string")
    return CanSignal(
        name=name, start_bit=start_bit, bit_length=bit_length,
        scale=scale, offset=offset, min=lo, max=hi, unit=unit,
    )


# ---------------------------------------------------------------------------
# comparison


def _outcome(parse, text: str):
    try:
        return "ok", parse(text)
    except SdvGuardError as exc:
        return type(exc).__name__, str(exc)


def _probes(entries) -> list[str]:
    """Every key, its underscore alias and its normalized form, and one absent name."""
    probes = ["no such key"]
    for entry in entries:
        probes += [entry.key, entry.key.replace(".", "_"), normalize_name(entry.key)]
    return probes


def _view(catalog) -> tuple:
    """What a caller can observe of a catalog: its entries, and every lookup
    on the probe names."""
    probes = _probes(catalog.entries)
    lookups = [(catalog.lookup_entry(p), catalog.lookup_normalized(p)) for p in probes]
    return catalog.entries, lookups


def _assert_built_whole(catalog) -> None:
    """Each entry is an immutable ``CatalogEntry`` that equals, hashes and
    prints like one built from its own fields."""
    for entry in catalog.entries:
        assert type(entry) is CatalogEntry, entry
        built = CatalogEntry(*entry)
        assert (entry, hash(entry), repr(entry)) == (built, hash(built), repr(built))
        with pytest.raises(AttributeError):
            entry.key = None


def _assert_same(parse, reference, text: str) -> tuple:
    new, ref = _outcome(parse, text), _outcome(reference, text)
    if new[0] == ref[0] == "ok":
        assert _view(new[1]) == _view(ref[1]), text
        _assert_built_whole(new[1])
    else:
        assert new == ref, text
    return new


def _assert_same_vss(text: str) -> tuple:
    return _assert_same(parse_vss_catalog, _ref_parse_vss_catalog, text)


def _assert_same_can(text: str) -> tuple:
    return _assert_same(parse_can_catalog, _ref_parse_can_catalog, text)


def test_fixture_catalog_matches_reference():
    outcome = _assert_same_vss((FIXTURES / "catalogs" / "vss.json").read_text(encoding="utf-8"))
    assert outcome[0] == "ok"


@pytest.mark.parametrize("seed", range(1, 6))
def test_bench_catalogs_match_reference(seed):
    text, leaves = gen.vss_catalog(random.Random(seed), 300)
    outcome = _assert_same_vss(text)
    assert outcome[0] == "ok"
    assert len(outcome[1].entries) == len(leaves)


# random catalogs: JSON written by hand so keys can repeat at the root,
# under ``children`` and inside a node. No empty arrays, and no object
# where a message would print it (``type``, ``datatype``): those are the
# intended differences.


class _Obj(list):
    """An object as written, pairs in order, repeats allowed."""


def _dump(value) -> str:
    if isinstance(value, _Obj):
        return "{" + ", ".join(f"{json.dumps(k)}: {_dump(v)}" for k, v in value) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(_dump(v) for v in value) + "]"
    return json.dumps(value)


_NAMES = ("A", "B", "C", "Speed", "")
_SCALARS = (5, -1.5, "x", True, None, [1, 2], ["a"], ["a", 1])
_BAD_FIELDS = {
    "type": ("relay", 3, None, ["sensor"], "branch"),
    "datatype": ("voltage", 7, None),
    "unit": (5, ["V"], None),
    "min": ("x", True, None, 1000),
    "max": ("y", False, None, -1000),
    "allowed": (["a", 1], "ab", ["a"], None),
    "description": (3, None, _Obj([("k", 1), ("k", 2)])),
    "frequency": (10,),
}


def _random_node(rng: random.Random, depth: int, fault: float):
    """A node; each choice goes wrong with probability ``fault``."""
    if rng.random() < fault / 3:
        return rng.choice(_SCALARS)
    roll = rng.random()
    if depth <= 0 or roll < 0.45:
        return _leaf(rng, fault)
    if roll < 0.75:
        pairs = [("type", "branch")] if rng.random() < 0.7 else []
        if rng.random() < fault:
            pairs = [("type", rng.choice(("sensor", "relay", 5)))]
        if rng.random() < 0.3:
            pairs.append(("description", "d" if rng.random() >= fault else 4))
        children = (_random_children(rng, depth - 1, fault) if rng.random() >= fault / 2
                    else rng.choice(_SCALARS))
        pairs.append(("children", children))
        if rng.random() < fault / 3:
            pairs.append(("unit", "x"))
        rng.shuffle(pairs)
        return _Obj(pairs)
    # compact form
    pairs = list(_random_children(rng, depth - 1, fault))
    if rng.random() < 0.3:
        kind = "branch" if rng.random() >= fault else rng.choice(("sensor", "relay"))
        pairs.append(("type", kind))
    if rng.random() < fault / 2:
        pairs.append(("unit", "x"))
    if rng.random() < 0.2:
        pairs.append(("description", "d"))
    rng.shuffle(pairs)
    return _Obj(pairs)


def _leaf(rng: random.Random, fault: float):
    datatype = rng.choice(("float", "int", "boolean", "string", "enum"))
    pairs = [("datatype", datatype), ("type", rng.choice(("sensor", "actuator", "attribute")))]
    if datatype == "enum":
        pairs.append(("allowed", ["a", "b"]))
    if datatype in ("float", "int") and rng.random() < 0.6:
        pairs += [("min", 0), ("max", rng.choice((1, 10.5, 250)))]
    pairs += [(name, value) for name, value in (("unit", "km/h"), ("description", "text"))
              if rng.random() < 0.4]
    for name, values in _BAD_FIELDS.items():
        if rng.random() < fault / 3:
            pairs.append((name, rng.choice(values)))
    if rng.random() < fault / 6:
        pairs.append(rng.choice(pairs))  # a repeated field
    if rng.random() < fault / 6:
        pairs = [p for p in pairs if p[0] != "datatype"]
    rng.shuffle(pairs)
    return _Obj(pairs)


def _random_children(rng: random.Random, depth: int, fault: float) -> _Obj:
    repeat = 2 * fault if fault else rng.choice((0.0, 0.0, 0.3))
    return _Obj((rng.choice(_NAMES[:-1]) if rng.random() < repeat
                 else "" if rng.random() < fault / 4 else f"N{i}",
                 _random_node(rng, depth, fault))
                for i in range(rng.randint(1, 4)))


def _random_catalog(rng: random.Random) -> str:
    fault = rng.choice((0.0, 0.02, 0.1, 0.3))
    if rng.random() < fault / 5:
        return _dump(rng.choice(_SCALARS))
    return _dump(_random_children(rng, rng.randint(0, 4), fault))


@pytest.mark.parametrize("leaf", [
    {"datatype": "int", "unit": 5, "description": 3},
    {"datatype": "int", "type": "relay", "min": "x"},
    {"datatype": "voltage", "min": "x", "frequency": 1},
    {"datatype": "float", "min": "x", "max": "y"},
    {"datatype": "float", "min": 5, "max": 1, "allowed": "a"},
    {"datatype": "enum", "allowed": [], "unit": 5},
    {"datatype": "boolean", "allowed": ["a"], "description": 3},
    {"datatype": "int", "max": True, "unit": ["V"]},
])
def test_the_first_of_several_leaf_faults_matches_reference(leaf):
    # a random catalog seldom plants two faults in one leaf
    assert _assert_same_vss(json.dumps({"V": {"children": {"L": leaf}}}))[0] == "SchemaError"


def test_random_catalogs_match_reference():
    outcomes: dict[str, int] = {}
    for seed in range(4000):
        kind, detail = _assert_same_vss(_random_catalog(random.Random(seed)))
        if kind == "CatalogError" and detail.startswith("duplicate signal path"):
            kind = "duplicate signal path"
        outcomes[kind] = outcomes.get(kind, 0) + 1
    # the generator must reach successes, schema errors and both kinds of repeat
    assert min(outcomes.get(kind, 0) for kind in ("ok", "SchemaError", "CatalogError")) > 300
    assert outcomes.get("duplicate signal path", 0) > 30


@pytest.mark.parametrize("text, reference, new", [
    # empty arrays: accepted by the reference, rejected now
    ("[]", ("ok", ()), ("SchemaError", "signal catalog root must be an object")),
    ('{"Vehicle": []}', ("ok", (VssSignal("Vehicle", "branch"),)),
     ("SchemaError", "node 'Vehicle' must be an object")),
    ('{"Vehicle": {"children": []}}', ("ok", (VssSignal("Vehicle", "branch"),)),
     ("SchemaError", "children of 'Vehicle' must be an object")),
    ('{"Vehicle": {"Speed": []}}',
     ("ok", (VssSignal("Vehicle", "branch"), VssSignal("Vehicle.Speed", "branch"))),
     ("SchemaError", "leaf 'Vehicle' is missing its datatype")),
    # object values in messages
    ('{"V": {"type": {}, "datatype": "int"}}',
     ("SchemaError", "leaf 'V' has invalid type '[]'"),
     ("SchemaError", "leaf 'V' has invalid type '{}'")),
    ('{"V": {"type": {"a": 1}}}',
     ("SchemaError", "node 'V' has invalid type '[('a', 1)]'"),
     ("SchemaError", "node 'V' has invalid type '{'a': 1}'")),
])
def test_intended_differences_from_the_reference(text, reference, new):
    assert _signals(_outcome(_ref_parse_vss_catalog, text)) == reference
    assert _signals(_outcome(parse_vss_catalog, text)) == new


def _signals(outcome: tuple) -> tuple:
    kind, detail = outcome
    return (kind, detail.signals) if kind == "ok" else outcome


# ---------------------------------------------------------------------------
# message catalogs


def test_fixture_message_catalog_matches_reference():
    outcome = _assert_same_can((FIXTURES / "catalogs" / "can.json").read_text(encoding="utf-8"))
    assert outcome[0] == "ok"


@pytest.mark.parametrize("seed", range(1, 6))
def test_bench_message_catalogs_match_reference(seed):
    rng = random.Random(seed)
    gen.vss_catalog(rng, 300)  # the bench draws the message catalog second
    text, frames = gen.can_catalog(rng, 120)
    outcome = _assert_same_can(text)
    assert outcome[0] == "ok"
    assert len(outcome[1].entries) == len(frames)


# random message catalogs, written by hand so keys can repeat inside an
# object (the last value counts, in both parsers). No frame_id string with a
# sign, an underscore or a non-ASCII digit: those are intended differences.

_MESSAGE_NAMES = ("Brake_Cmd", "brake-cmd", "BRAKE.CMD", "Speed")
_FRAME_IDS = ("0x1A", "0X1a", " 0x1f\t", "26", " 31 ", "007", "0", 1 << 29, -1,
              "0x", "", "12z", "0xZZ", "0x 1F", "1e3", True, 12.0, None, ["0x1"], {"id": 1})
_SIGNAL_FAULTS = {
    "start_bit": ("0", 1.5, True, None, -1, 70),
    "bit_length": (0, 70, 2.0, "8", False),
    "scale": (0, "x", True, None, [], 0.0),
    "offset": ("nan", {}, None),
    "min": ("1", True, 500, -1e3),
    "max": ("y", False, -500, 1e3),
    "unit": (5, ["N"], ""),
    "name": ("", 7, None),
}


def _random_signal(rng: random.Random, fault: float):
    if rng.random() < fault / 4:
        return rng.choice(("S", 5, [], None))
    pairs = [("name", rng.choice(("S", "T", "Speed", "Torque"))),
             ("start_bit", rng.choice((0, 8, 16))), ("bit_length", rng.choice((1, 8, 16)))]
    pairs += [(name, value) for name, value in (
        ("scale", rng.choice((1, 0.5, 0.01))), ("offset", rng.choice((0, -40, 2.5))),
        ("min", rng.choice((0, -10, 0.5))), ("max", rng.choice((100, 250.0))),
        ("unit", rng.choice(("N", "deg", "%"))), ("comment", "ignored"),
    ) if rng.random() < 0.6]
    for name, values in _SIGNAL_FAULTS.items():
        if rng.random() < fault / 3:
            pairs.append((name, rng.choice(values)))  # repeats: the last one counts
    if rng.random() < fault / 3:
        pairs = [p for p in pairs if p[0] != rng.choice(("start_bit", "bit_length", "name"))]
    rng.shuffle(pairs)
    return _Obj(pairs)


def _random_message(rng: random.Random, index: int, fault: float):
    if rng.random() < fault / 5:
        return rng.choice(("M", 5, [], None))
    name = rng.choice(_MESSAGE_NAMES) if rng.random() < 0.3 else f"M{index}"
    frame_id = (rng.choice(_FRAME_IDS) if rng.random() < fault
                else rng.choice((rng.randrange(0x100, 0x110), f"0x{rng.randrange(0x100, 0x110):X}")))
    pairs = [("name", name if rng.random() >= fault / 4 else rng.choice(("", 5, None))),
             ("frame_id", frame_id),
             ("dlc", rng.choice((8, 8, 4)) if rng.random() >= fault / 2
              else rng.choice((65, -1, 8.0, "8", True, None, 1)))]
    if rng.random() < fault / 4:
        pairs.pop(rng.randrange(3))
    if rng.random() < 0.9:
        signals = [_random_signal(rng, fault) for _ in range(rng.randint(0, 3))]
        pairs.append(("signals", signals if rng.random() >= fault / 4
                      else rng.choice(("S", {}, 5))))
    rng.shuffle(pairs)
    return _Obj(pairs)


def _random_message_catalog(rng: random.Random) -> str:
    fault = rng.choice((0.0, 0.02, 0.1, 0.3))
    if rng.random() < fault / 5:
        return _dump(rng.choice((_Obj([("name", "M")]), "x", 5, None)))
    return _dump([_random_message(rng, i, fault) for i in range(rng.randint(0, 6))])


def test_random_message_catalogs_match_reference():
    outcomes: Counter = Counter()
    for seed in range(3000):
        kind, detail = _assert_same_can(_random_message_catalog(random.Random(seed)))
        if kind == "CatalogError":
            kind = detail.split(" ")[1] if detail.startswith("duplicate") else "duplicate signal"
        outcomes[kind] += 1
    # successes, schema errors and every kind of repeat
    assert min(outcomes[kind] for kind in ("ok", "SchemaError")) > 300, outcomes
    assert min(outcomes[kind] for kind in ("message", "frame", "duplicate signal")) > 20, outcomes


@pytest.mark.parametrize("raw, reference", [
    ("１２", ("ok", 12)),
    ("٣", ("ok", 3)),
    ("1_000", ("ok", 1000)),
    ("0x_1F", ("ok", 31)),
    (" +12 ", ("ok", 12)),
    ("0x１F", ("ok", 31)),
    ("0X1_f", ("ok", 31)),
    ("-5", ("SchemaError", "frame_id 0x-5 outside the 29-bit identifier range")),
])
def test_intended_frame_id_differences_from_the_reference(raw, reference):
    text = json.dumps([{"frame_id": raw, "name": "M", "dlc": 1}])
    ref = _outcome(_ref_parse_can_catalog, text)
    assert ((ref[0], ref[1].messages[0].frame_id) if ref[0] == "ok" else ref) == reference
    assert _outcome(parse_can_catalog, text) == ("SchemaError", f"invalid frame_id {raw!r}")


# ---------------------------------------------------------------------------
# aliases


def test_ambiguous_aliases_match_reference():
    vss = json.dumps({"Vehicle": {"Speed": {"datatype": "float"}},
                      "Vehicle_Speed": {"datatype": "int"}, "vehicle-speed": {"datatype": "int"}})
    can = json.dumps([{"frame_id": n, "name": name, "dlc": 1}
                      for n, name in enumerate(_MESSAGE_NAMES)])
    for text, parse in ((vss, _assert_same_vss), (can, _assert_same_can)):
        catalog = parse(text)[1]
        matches = catalog.lookup_normalized(catalog.entries[0].key.replace(".", "_"))
        assert len(matches) == 3, [e.key for e in matches]
        assert list(matches) == [e for e in catalog.entries if e in matches]
