"""Catalog parsing and value validation."""

import json

import pytest

from sdv_guard.catalog import (
    CatalogEntry,
    CatalogError,
    parse_can_catalog,
    parse_vss_catalog,
    validate_value,
)
from sdv_guard.errors import CatalogParseError, SchemaError
from conftest import ROOT


# ---------------------------------------------------------------------------
# signal catalog


def test_fixture_signal_catalog_shape(signal_catalog):
    assert len(signal_catalog.entries) == 11
    keys = [entry.key for entry in signal_catalog.entries]
    assert keys == sorted(keys)

    target = signal_catalog.lookup_entry("Vehicle.Speed.Target")
    assert target.protocol == "VSS"
    assert target.datatype == "float"
    assert target.bounds == (0.0, 30.0)
    assert target.text.startswith("Vehicle.Speed.Target float km/h ")
    assert target.allowed is None

    mode = signal_catalog.lookup_entry("Vehicle.ADAS.Mode")
    assert mode.datatype == "enum"
    assert mode.allowed == ("off", "assist", "autonomous")
    assert mode.bounds is None

    # a branch has no entry
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
    assert parse_vss_catalog(explicit).entries == parse_vss_catalog(compact).entries


HUGE = 10 ** 400  # an integer past a float's range


@pytest.mark.parametrize("node, message_part", [
    ({"datatype": "enum"}, "allowed"),
    ({"datatype": "float", "min": 5, "max": 1}, "min 5.0 greater than max"),
    ({"datatype": "float", "allowed": ["x"]}, "not an enum"),
    ({"datatype": "voltage"}, "invalid datatype"),
    ({"type": "sensor"}, "missing its datatype"),
    ({"datatype": "float", "frequency": 10}, "unknown field"),
    ({"type": "relay", "datatype": "boolean"}, "invalid type"),
    ({"datatype": "int", "min": -HUGE}, "^field 'min' of 'Leaf' is out of range$"),
    ({"datatype": "int", "max": HUGE}, "^field 'max' of 'Leaf' is out of range$"),
    # a branch's description is checked, though not kept
    ({"children": {}, "description": 4}, "^field 'description' of 'Leaf' must be a string$"),
    ({"C": {"datatype": "int"}, "description": 4},
     "^field 'description' of 'Leaf' must be a string$"),
])
def test_signal_schema_errors(node, message_part):
    with pytest.raises(SchemaError, match=message_part):
        parse_vss_catalog(json.dumps({"Leaf": node}))


def test_signal_duplicate_key_rejected():
    # JSON allows repeated keys; the parser must not silently keep one
    text = '{"A": {"datatype": "float"}, "A": {"datatype": "int"}}'
    with pytest.raises(CatalogError, match="duplicate signal path 'A'"):
        parse_vss_catalog(text)


@pytest.mark.parametrize("text", [
    '{"A.B": {"datatype": "int"}, "A": {"B": {"datatype": "int"}}}',
    '{"A": {"children": {"B": {"datatype": "int"}}}, "A.B": {"datatype": "float"}}',
    '{"A.B": {"C": {"datatype": "int"}}, "A": {"B": {"D": {"datatype": "int"}}}}',
])
def test_signal_path_given_as_one_key_and_as_a_branch_rejected(text):
    # each key is unique in its object; only the joined paths collide
    with pytest.raises(CatalogError, match="duplicate signal path 'A.B'"):
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
    assert len(message_catalog.entries) == 6
    keys = [entry.key for entry in message_catalog.entries]
    assert keys == sorted(keys)

    entry = message_catalog.lookup_entry("BrakeCmd")
    assert entry.protocol == "CAN"
    assert entry.text.startswith("BrakeCmd CAN message 0x101 ")
    assert entry.datatype == "float"  # single-signal payload interpretation
    assert entry.bounds == (0.0, 100.0)

    # two signals -> no scalar payload interpretation
    speed = message_catalog.lookup_entry("SpeedReport")
    assert speed.datatype is None
    assert speed.bounds is None


def test_frame_id_hex_and_decimal_are_equivalent():
    hex_form = json.dumps([{"frame_id": "0x1A", "name": "M", "dlc": 1}])
    dec_form = json.dumps([{"frame_id": 26, "name": "M", "dlc": 1}])
    assert parse_can_catalog(hex_form).entries == parse_can_catalog(dec_form).entries


@pytest.mark.parametrize("raw", ["0x1A", "0X1a", " 0x1a\t", "26", "\n26 ", "026", "\u2003 26"])
def test_frame_id_strings_of_ascii_digits(raw):
    text = json.dumps([{"frame_id": raw, "name": "M", "dlc": 1}])
    assert parse_can_catalog(text).entries[0].text == "M CAN message 0x1A"


@pytest.mark.parametrize("raw", ["１２", "٣", "1_000", "0x_1F", "0x1_F", " +12 ", "-5", "0x",
                                 "0x 1F", "0b11", "1e3", "", " "])
def test_frame_id_strings_outside_the_grammar_are_rejected(raw):
    text = json.dumps([{"frame_id": raw, "name": "M", "dlc": 1}])
    with pytest.raises(SchemaError) as err:
        parse_can_catalog(text)
    assert str(err.value) == f"invalid frame_id {raw!r}"


def test_frame_id_past_the_integer_digit_limit_is_rejected():
    # int() refuses decimal strings of more than 4,300 digits
    raw = "1" * 5000
    text = json.dumps([{"frame_id": raw, "name": "M", "dlc": 1}])
    with pytest.raises(SchemaError) as err:
        parse_can_catalog(text)
    assert str(err.value) == f"invalid frame_id {raw!r}"


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
    *(({"frame_id": 1, "name": "M", "dlc": 1,
        "signals": [{"name": "S", "start_bit": 0, "bit_length": 1, field: value}]},
       f"^message 'M' signal 'S' field '{field}' is out of range$")
      for field, value in (("scale", HUGE), ("offset", -HUGE), ("min", -HUGE), ("max", HUGE))),
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


def test_parsed_objects_are_frozen_and_equal_by_value(signal_catalog, message_catalog):
    # the parsers build these positionally; they must be the same values as
    # entries built by field name
    for obj in (*signal_catalog.entries, *message_catalog.entries):
        assert type(obj) is CatalogEntry
        for built in (CatalogEntry(**obj._asdict()), CatalogEntry(*obj)):
            assert (obj, hash(obj), repr(obj)) == (built, hash(built), repr(built))
        with pytest.raises(AttributeError):
            obj.key = None


def test_alias_lookup_finds_the_entry_under_any_separators(vss_text):
    catalog = parse_vss_catalog(vss_text)
    target = catalog.lookup_entry("Vehicle.Speed.Target")
    assert catalog.lookup_normalized("vehicle_speed_target") == (target,)
    assert catalog.lookup_normalized("Vehicle-Speed-Target") == (target,)
    assert catalog.lookup_normalized("no such signal") == ()


# ---------------------------------------------------------------------------
# the examples in docs/formats.md


def _format_section(number: int) -> str:
    text = (ROOT / "docs" / "formats.md").read_text(encoding="utf-8")
    return text.split(f"\n## {number}. ", 1)[1].split("\n## ", 1)[0]


@pytest.mark.parametrize("number, parse, key, text", [
    (1, parse_vss_catalog, "Vehicle.Speed.Target",
     "Vehicle.Speed.Target float km/h Requested target speed for the driving function"),
    (2, parse_can_catalog, "BrakeCmd", "BrakeCmd CAN message 0x101 Force N"),
], ids=["vss", "can"])
def test_format_example_parses_to_the_quoted_retrieval_text(number, parse, key, text):
    section = _format_section(number)
    assert f'`"{text}"`' in " ".join(section.split())  # as quoted in the prose
    catalog = parse(section.split("```json\n", 1)[1].split("```", 1)[0])
    assert catalog.lookup_entry(key).text == text


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


@pytest.mark.parametrize("datatype", ["float", "int"])
@pytest.mark.parametrize("text", [
    "inf", "-inf", "Infinity", "1_000", "+5", ".5", "5.", "05", "-05", "0x10", "1e999",
    "１２", "٣", "5 5", "", "--5", "1e", "e5",
])
def test_validate_value_reads_only_json_numbers(datatype, text):
    # each was a number to float() or int(); none is one in JSON's grammar
    verdict = validate_value(_entry(datatype=datatype, bounds=(0.0, None)), text)
    assert (verdict.ok, verdict.violation) == (False, "type-mismatch")
    assert verdict.detail == f"'{text}' is not a {datatype}"


@pytest.mark.parametrize("datatype, text, verdict", [
    ("float", " 7 ", (True, None, None)),
    ("float", "\t-0.5e1\n", (False, "below-min", "-5.0 < 0.0")),
    ("float", "1E+2", (True, None, None)),
    ("float", "250.5", (False, "above-max", "250.5 > 250.0")),
    ("int", " 250 ", (True, None, None)),
    ("int", "1e2", (False, "type-mismatch", "'1e2' is not a int")),
    ("int", "7.0", (False, "type-mismatch", "'7.0' is not a int")),
    ("float", "1" * 400, (False, "above-max", "1" * 400 + " > 250.0")),
])
def test_validate_value_json_numbers(datatype, text, verdict):
    result = validate_value(_entry(datatype=datatype, bounds=(0.0, 250.0)), text)
    assert (result.ok, result.violation, result.detail) == verdict


def test_validate_value_without_datatype_accepts_anything():
    # a multi-signal message has no single payload interpretation
    assert validate_value(_entry(protocol="CAN", datatype=None), "whatever").ok
