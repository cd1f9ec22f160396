"""The VSS catalog parser against the pair-list parser it replaced.

``_ref_parse_vss_catalog`` below is the earlier parser, kept as the oracle
with only its functions renamed: it decoded every JSON object as a list of
pairs and walked that form recursively. ``parse_vss_catalog`` now walks plain dicts. Both must give
the same signals, or the same error type and message, on the fixture
catalog, on bench catalogs and on random catalogs with repeated keys and
several faults.

Two differences are intended, so the random catalogs avoid them and
``test_intended_differences_from_the_reference`` pins them down:

* The pair form could not tell an empty array from an empty object, so the
  reference accepts ``[]`` where an object is required. The new parser
  rejects it.
* A message that prints an object value printed the pair list (``[]``,
  ``[('a', 1)]``); it now prints the object (``{}``, ``{'a': 1}``).
"""

from __future__ import annotations

import json
import random

import pytest

from bench import generators as gen
from sdv_guard.catalog import SignalCatalog, VssSignal, VSS_DATATYPES, parse_vss_catalog
from sdv_guard.errors import CatalogError, CatalogParseError, SchemaError, SdvGuardError
from conftest import FIXTURES

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


def _ref_parse_vss_catalog(text: str) -> SignalCatalog:
    doc = _load_json_pairs(text)
    if not _is_pairs(doc):
        raise SchemaError("signal catalog root must be an object")
    signals: list[VssSignal] = []
    _ref_walk_vss(doc, "", signals)
    return SignalCatalog(signals)


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
# comparison


def _outcome(parse, text: str):
    try:
        return "ok", parse(text).signals
    except SdvGuardError as exc:
        return type(exc).__name__, str(exc)


def _assert_same(text: str) -> tuple:
    new = _outcome(parse_vss_catalog, text)
    assert new == _outcome(_ref_parse_vss_catalog, text), text
    return new


def test_fixture_catalog_matches_reference():
    outcome = _assert_same((FIXTURES / "catalogs" / "vss.json").read_text(encoding="utf-8"))
    assert outcome[0] == "ok"


@pytest.mark.parametrize("seed", range(1, 6))
def test_bench_catalogs_match_reference(seed):
    text, leaves = gen.vss_catalog(random.Random(seed), 300)
    outcome = _assert_same(text)
    assert outcome[0] == "ok"
    assert sum(not s.is_branch for s in outcome[1]) == len(leaves)


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


def test_random_catalogs_match_reference():
    outcomes: dict[str, int] = {}
    for seed in range(4000):
        kind, detail = _assert_same(_random_catalog(random.Random(seed)))
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
    assert _outcome(_ref_parse_vss_catalog, text) == reference
    assert _outcome(parse_vss_catalog, text) == new
