"""Catalog parsing, canonical serialization, and value validation."""

import json

import pytest

from sdv_guard.catalog import (
    CatalogEntry,
    CatalogError,
    parse_can_catalog,
    parse_vss_catalog,
    serialize_can_catalog,
    serialize_vss_catalog,
    validate_value,
)
from sdv_guard.errors import CatalogParseError, SchemaError


# ---------------------------------------------------------------------------
# signal catalog


def test_fixture_signal_catalog_shape(signal_catalog):
    leaves = [s for s in signal_catalog.signals if not s.is_branch]
    assert len(leaves) == 11
    assert len(signal_catalog.entries) == 11

    target = signal_catalog.lookup("Vehicle.Speed.Target")
    assert target.kind == "actuator"
    assert target.datatype == "float"
    assert (target.min, target.max) == (0.0, 30.0)
    assert target.unit == "km/h"

    entry = signal_catalog.lookup_entry("Vehicle.Speed.Target")
    assert entry.protocol == "VSS"
    assert entry.bounds == (0.0, 30.0)

    mode = signal_catalog.lookup("Vehicle.ADAS.Mode")
    assert mode.datatype == "enum"
    assert mode.allowed == ("off", "assist", "autonomous")

    branch = signal_catalog.lookup("Vehicle.ADAS")
    assert branch.is_branch
    assert signal_catalog.lookup_entry("Vehicle.ADAS") is None


def test_compact_branch_form_equivalent_to_explicit_children():
    explicit = json.dumps({
        "Vehicle": {
            "type": "branch",
            "children": {
                "Speed": {"type": "sensor", "datatype": "float", "min": 0, "max": 100},
            },
        }
    })
    compact = json.dumps({
        "Vehicle": {
            "Speed": {"type": "sensor", "datatype": "float", "min": 0, "max": 100},
        }
    })
    assert parse_vss_catalog(explicit) == parse_vss_catalog(compact)


def test_signal_catalog_round_trip(signal_catalog, vss_text):
    canonical = serialize_vss_catalog(signal_catalog)
    again = parse_vss_catalog(canonical)
    assert again == signal_catalog
    assert serialize_vss_catalog(again) == canonical


@pytest.mark.parametrize("node, message_part", [
    ({"datatype": "enum"}, "allowed"),
    ({"datatype": "float", "min": 5, "max": 1}, "min 5.0 greater than max"),
    ({"datatype": "float", "allowed": ["x"]}, "not an enum"),
    ({"datatype": "voltage"}, "invalid datatype"),
    ({"type": "sensor"}, "missing its datatype"),
    ({"datatype": "float", "frequency": 10}, "unknown field"),
    ({"type": "relay", "datatype": "boolean"}, "invalid type"),
])
def test_signal_schema_errors(node, message_part):
    with pytest.raises(SchemaError, match=message_part):
        parse_vss_catalog(json.dumps({"Leaf": node}))


def test_signal_duplicate_key_rejected():
    # JSON allows repeated keys; the parser must not silently keep one
    text = '{"A": {"datatype": "float"}, "A": {"datatype": "int"}}'
    with pytest.raises(CatalogError, match="duplicate signal path 'A'"):
        parse_vss_catalog(text)


def test_signal_scalar_mixed_with_children_rejected():
    text = json.dumps({
        "Vehicle": {
            "unit": "km/h",
            "Speed": {"datatype": "float"},
        }
    })
    with pytest.raises(SchemaError, match="mixes scalar field"):
        parse_vss_catalog(text)


def test_signal_catalog_bad_json_carries_position():
    with pytest.raises(CatalogParseError, match="line 1"):
        parse_vss_catalog("{nope}")


# ---------------------------------------------------------------------------
# message catalog


def test_fixture_message_catalog_shape(message_catalog):
    assert len(message_catalog) == 6
    brake = message_catalog.lookup("BrakeCmd")
    assert brake.frame_id == 0x101
    assert brake.dlc == 8
    assert message_catalog.lookup_frame(0x101) is brake

    entry = message_catalog.lookup_entry("BrakeCmd")
    assert entry.protocol == "CAN"
    assert entry.datatype == "float"  # single-signal payload interpretation
    assert entry.bounds == (0.0, 100.0)

    # two signals -> no scalar payload interpretation
    speed = message_catalog.lookup_entry("SpeedReport")
    assert speed.datatype is None
    assert speed.bounds is None


def test_frame_id_hex_and_decimal_are_equivalent():
    hex_form = json.dumps([{"frame_id": "0x1A", "name": "M", "dlc": 1}])
    dec_form = json.dumps([{"frame_id": 26, "name": "M", "dlc": 1}])
    assert parse_can_catalog(hex_form) == parse_can_catalog(dec_form)


def test_message_catalog_round_trip(message_catalog):
    canonical = serialize_can_catalog(message_catalog)
    again = parse_can_catalog(canonical)
    assert again == message_catalog
    assert serialize_can_catalog(again) == canonical


@pytest.mark.parametrize("message, message_part", [
    ({"frame_id": 1 << 29, "name": "M", "dlc": 1}, "29-bit"),
    ({"frame_id": -1, "name": "M", "dlc": 1}, "29-bit"),
    ({"frame_id": "0xZZ", "name": "M", "dlc": 1}, "invalid frame_id"),
    ({"frame_id": 1, "name": "", "dlc": 1}, "non-empty name"),
    ({"frame_id": 1, "name": "M", "dlc": 65}, "outside 0..64"),
    ({"frame_id": 1, "name": "M"}, "missing 'dlc'"),
    ({"frame_id": 1, "name": "M", "dlc": 1,
      "signals": [{"name": "S", "start_bit": 0, "bit_length": 9}]}, "outside the 8-bit frame"),
    ({"frame_id": 1, "name": "M", "dlc": 1,
      "signals": [{"name": "S", "start_bit": 0, "bit_length": 0}]}, "at least 1"),
    ({"frame_id": 1, "name": "M", "dlc": 1,
      "signals": [{"name": "S", "start_bit": 0, "bit_length": 1, "scale": 0}]}, "non-zero"),
    ({"frame_id": 1, "name": "M", "dlc": 1,
      "signals": [{"name": "S", "start_bit": 0, "bit_length": 1, "min": 2, "max": 1}]},
     "min 2.0 greater than max"),
    *(({"frame_id": 1, "name": "M", "dlc": 1,
        "signals": [{"name": "S", "start_bit": 0, "bit_length": 1, field: value}]},
       f"signal 'S' field '{field}' must be a number")
      for field, value in (("scale", "x"), ("scale", []), ("scale", True), ("scale", None),
                           ("offset", "nan"), ("offset", {}), ("max", "1"))),
    ({"frame_id": 1, "name": "M", "dlc": 1,
      "signals": [{"name": "S", "start_bit": 0, "bit_length": 1, "scale": 0, "offset": "x"}]},
     "scale must be non-zero"),
])
def test_message_schema_errors(message, message_part):
    with pytest.raises(SchemaError, match=message_part):
        parse_can_catalog(json.dumps([message]))


def test_duplicate_message_identity_rejected():
    two_names = [{"frame_id": 1, "name": "M", "dlc": 1},
                 {"frame_id": 2, "name": "M", "dlc": 1}]
    with pytest.raises(CatalogError, match="duplicate message name"):
        parse_can_catalog(json.dumps(two_names))
    two_frames = [{"frame_id": 3, "name": "A", "dlc": 1},
                  {"frame_id": 3, "name": "B", "dlc": 1}]
    with pytest.raises(CatalogError, match="duplicate frame id"):
        parse_can_catalog(json.dumps(two_frames))


# ---------------------------------------------------------------------------
# value validation


def _entry(**kw) -> CatalogEntry:
    base = dict(key="K", protocol="VSS", text="K")
    base.update(kw)
    return CatalogEntry(**base)


def test_validate_value_bounds_are_inclusive():
    entry = _entry(datatype="float", bounds=(0.0, 30.0))
    assert validate_value(entry, "0").ok
    assert validate_value(entry, "30.0").ok
    below = validate_value(entry, "-0.001")
    assert (below.ok, below.violation) == (False, "below-min")
    above = validate_value(entry, "30.001")
    assert (above.ok, above.violation) == (False, "above-max")
    assert "30.001 > 30.0" in above.detail


def test_validate_value_types():
    assert validate_value(_entry(datatype="boolean"), "true").ok
    assert validate_value(_entry(datatype="boolean"), "FALSE").ok
    bad_bool = validate_value(_entry(datatype="boolean"), "1")
    assert bad_bool.violation == "type-mismatch"

    assert validate_value(_entry(datatype="int", bounds=(0, 10)), "7").ok
    assert validate_value(_entry(datatype="int"), "7.5").violation == "type-mismatch"
    assert validate_value(_entry(datatype="float"), "abc").violation == "type-mismatch"

    assert validate_value(_entry(datatype="string"), "anything at all").ok

    enum_entry = _entry(datatype="enum", allowed=("off", "assist"))
    assert validate_value(enum_entry, "assist").ok
    assert validate_value(enum_entry, "sport").violation == "not-allowed"


@pytest.mark.parametrize("datatype", ["float", "int"])
@pytest.mark.parametrize("text", ["nan", "NaN", " -nan "])
def test_validate_value_nan_is_no_number(datatype, text):
    # every comparison with NaN is false, so no bound could reject it
    verdict = validate_value(_entry(datatype=datatype, bounds=(0.0, 250.0)), text)
    assert (verdict.ok, verdict.violation) == (False, "type-mismatch")
    assert verdict.detail == f"'{text}' is not a {datatype}"


@pytest.mark.parametrize("bounds, text, verdict", [
    ((0, 10), "1" * 400, (False, "above-max")),
    ((0, 10), "-" + "1" * 400, (False, "below-min")),
    ((None, 10), "-" + "1" * 400, (True, None)),
    (None, "1" * 400, (True, None)),
], ids=["above-max", "below-min", "no-min", "unbounded"])
def test_validate_value_int_too_large_for_a_float(bounds, text, verdict):
    # float(int) overflows past ~308 digits; the int is compared exactly
    result = validate_value(_entry(datatype="int", bounds=bounds), text)
    assert (result.ok, result.violation) == verdict
    if not result.ok:
        assert result.detail.startswith(text + (" > " if text[0] == "1" else " < "))


def test_validate_value_without_datatype_accepts_anything():
    # a multi-signal message has no single payload interpretation
    assert validate_value(_entry(protocol="CAN", datatype=None), "whatever").ok
