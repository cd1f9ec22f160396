"""Extraction-response parsing and catalog validation of extracted entries."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdv_guard.catalog import CatalogEntry, parse_vss_catalog
from sdv_guard.errors import ConfigurationError, ExtractionFormatError
from sdv_guard.extraction import (
    REASON_OUT_OF_RANGE,
    REASON_PROTOCOL_MISMATCH,
    REASON_TYPE_MISMATCH,
    REASON_UNKNOWN_NAME,
    ExtractedEntry,
    build_extraction_prompt,
    build_extraction_retry_prompt,
    extract_entries,
    parse_extraction_response,
    validate_entries,
)
from sdv_guard.retrieval import Chunk

from conftest import scripted_gateway


def _chunk(*texts: str) -> Chunk:
    entries = tuple(
        CatalogEntry(key=f"k{i}", protocol="VSS", text=t)
        for i, t in enumerate(texts)
    )
    return Chunk(entries=entries, token_estimate=sum(len(t) for t in texts))


def _entry(name, type_="float", value=None, protocol="VSS") -> ExtractedEntry:
    return ExtractedEntry(name=name, type=type_, value=value, protocol=protocol)


# ---------------------------------------------------------------------------
# response parsing


def test_parse_response_reads_fenced_array_with_prose():
    completion = (
        "Here are the extracted entries.\n"
        "```json\n"
        "[\n"
        '  {"name": "Vehicle.Speed.Target", "type": "float",'
        ' "value": 25.0, "protocol": "VSS"},\n'
        '  {"protocol": "can", "value": 50, "name": "BrakeCmd", "type": "float"}\n'
        "]\n"
        "```\n"
        "Both were found in the source."
    )
    entries = parse_extraction_response(completion)
    assert entries == [
        _entry("Vehicle.Speed.Target", "float", "25.0", "VSS"),
        _entry("BrakeCmd", "float", "50", "CAN"),
    ]


def test_parse_response_value_coercion():
    array = json.dumps([
        {"name": "a", "type": "boolean", "value": True, "protocol": "VSS"},
        {"name": "b", "type": "boolean", "value": False, "protocol": "VSS"},
        {"name": "c", "type": "float", "value": 25.0, "protocol": "VSS"},
        {"name": "d", "type": "int", "value": 7, "protocol": "VSS"},
        {"name": "e", "type": "string", "value": "text", "protocol": "VSS"},
        {"name": "f", "type": "string", "protocol": "VSS"},
    ])
    values = [e.value for e in parse_extraction_response(array)]
    assert values == ["true", "false", "25.0", "7", "text", None]


def test_parse_response_skips_non_json_brackets():
    completion = (
        "Signals [sensor side] first, then actuators [output side]:\n"
        '[{"name": "x", "type": "float", "protocol": "VSS"}]'
    )
    entries = parse_extraction_response(completion)
    assert [e.name for e in entries] == ["x"]


@pytest.mark.parametrize("completion, message", [
    ("no array here", "no JSON array"),
    ("[1, 2]", "not an object"),
    ('[{"type": "float", "protocol": "VSS"}]', "missing field 'name'"),
    ('[{"name": "x", "protocol": "VSS"}]', "missing field 'type'"),
    ('[{"name": "x", "type": "float"}]', "missing field 'protocol'"),
    ('[{"name": "x", "type": "float", "protocol": null}]', "missing field"),
    ('[{"name": "  ", "type": "float", "protocol": "VSS"}]', "empty name"),
    ('[{"name": "x", "type": "float", "protocol": "LIN"}]', "unknown protocol"),
    pytest.param("[" * 3000, "nests JSON too deeply", id="nested-3000-deep"),
])
def test_parse_response_rejects_malformed(completion, message):
    with pytest.raises(ExtractionFormatError, match=message):
        parse_extraction_response(completion)


# ---------------------------------------------------------------------------
# chunked extraction


def test_extract_entries_unions_chunks_and_deduplicates():
    chunk_a = _chunk("Vehicle.Speed.Target float")
    chunk_b = _chunk("BrakeCmd frame")
    first = json.dumps([
        {"name": "Vehicle.Speed.Target", "type": "float", "value": 25.0,
         "protocol": "VSS"},
        {"name": "BrakeCmd", "type": "float", "value": 50, "protocol": "CAN"},
    ])
    second = json.dumps([
        # exact duplicate -> dropped; new value for the same name -> kept
        {"name": "BrakeCmd", "type": "float", "value": 50, "protocol": "CAN"},
        {"name": "BrakeCmd", "type": "float", "value": 60, "protocol": "CAN"},
    ])
    prompts = []
    gateway = scripted_gateway([first, second], record_prompts=prompts)
    entries = extract_entries("code body", [chunk_a, chunk_b], gateway)
    assert [(e.name, e.value) for e in entries] == [
        ("Vehicle.Speed.Target", "25.0"),
        ("BrakeCmd", "50"),
        ("BrakeCmd", "60"),
    ]
    # one prompt per chunk, each grounded by that chunk's text
    assert len(prompts) == 2
    assert "Vehicle.Speed.Target float" in prompts[0]
    assert "BrakeCmd frame" in prompts[1]
    assert prompts[0] == build_extraction_prompt("code body", chunk_a)


def test_extract_entries_preconditions():
    gateway = scripted_gateway([])
    with pytest.raises(ConfigurationError, match="source code"):
        extract_entries("", [_chunk("t")], gateway)
    with pytest.raises(ConfigurationError, match="chunk"):
        extract_entries("code", [], gateway)


# ---------------------------------------------------------------------------
# validation against the catalogs


def test_validate_accepts_exact_alias_and_valueless(signal_catalog, message_catalog):
    report = validate_entries([
        _entry("Vehicle.Speed.Target", "float", "25.0"),
        _entry("Vehicle_Speed_Target", "float", "20.0"),       # alias form
        _entry("Vehicle.ADAS.ObstacleDetection.Camera", "boolean"),
        _entry("BrakeCmd", "frame", "50", "CAN"),              # CAN: type not checked
        _entry("SpeedReport", "frame", "whatever", "CAN"),     # multi-signal: any value
    ], signal_catalog, message_catalog)
    assert report.rejected == ()
    assert [a.resolved_key for a in report.accepted] == [
        "Vehicle.Speed.Target",
        "Vehicle.Speed.Target",
        "Vehicle.ADAS.ObstacleDetection.Camera",
        "BrakeCmd",
        "SpeedReport",
    ]
    # the two distinct accepted values for one key are surfaced, not merged
    assert report.notes == (
        "conflicting values for Vehicle.Speed.Target: 20.0, 25.0",
    )


@pytest.mark.parametrize("entry, reason, detail_part", [
    (_entry("Vehicle.Imaginary.Signal", "boolean"),
     REASON_UNKNOWN_NAME, "not in the VSS catalog"),
    (_entry("GhostCmd", "frame", "1", "CAN"),
     REASON_UNKNOWN_NAME, "not in the CAN catalog"),
    (_entry("BrakeCmd", "float", "50", "VSS"),
     REASON_PROTOCOL_MISMATCH, "belongs to the CAN catalog"),
    (_entry("Vehicle.ADAS.Brake", "boolean", "true", "CAN"),
     REASON_PROTOCOL_MISMATCH, "belongs to the VSS catalog"),
    (_entry("Vehicle.Speed.Target", "string", "25.0"),
     REASON_TYPE_MISMATCH, "declared 'string', catalog says 'float'"),
    (_entry("Vehicle.ADAS.Brake", "boolean", "maybe"),
     REASON_TYPE_MISMATCH, "boolean"),
    (_entry("Vehicle.Speed.Target", "float", "30.001"),
     REASON_OUT_OF_RANGE, "above-max: 30.001 > 30.0"),
    (_entry("Vehicle.ADAS.SteeringAngle", "float", "40.0"),
     REASON_OUT_OF_RANGE, "above-max"),
    (_entry("Vehicle.ADAS.SteeringAngle", "float", "-15.5"),
     REASON_OUT_OF_RANGE, "below-min"),
    (_entry("Vehicle.ADAS.Mode", "enum", "race"),
     REASON_OUT_OF_RANGE, "not-allowed"),
    (_entry("BrakeCmd", "frame", "150", "CAN"),
     REASON_OUT_OF_RANGE, "above-max"),
])
def test_validate_rejections(signal_catalog, message_catalog,
                             entry, reason, detail_part):
    report = validate_entries([entry], signal_catalog, message_catalog)
    assert report.accepted == ()
    (rej,) = report.rejected
    assert rej.reason == reason
    assert detail_part in rej.detail


def test_validate_type_synonyms_pass(signal_catalog, message_catalog):
    report = validate_entries([
        _entry("Vehicle.Speed.Target", "double", "25.0"),
        _entry("Vehicle.ADAS.Brake", "bool", "true"),
        _entry("Vehicle.Powertrain.Motor.Speed", "uint16", "1200"),
    ], signal_catalog, message_catalog)
    assert report.rejected == ()


def test_validate_ambiguous_alias(message_catalog):
    # two distinct paths that normalize identically: an alias spelling must
    # not be guessed between them
    text = json.dumps({
        "Vehicle": {
            "type": "branch",
            "children": {
                "Speed_Target": {"type": "sensor", "datatype": "float"},
                "Speed": {
                    "type": "branch",
                    "children": {
                        "Target": {"type": "actuator", "datatype": "float"},
                    },
                },
            },
        }
    })
    catalog = parse_vss_catalog(text)
    report = validate_entries(
        [_entry("vehicle speed target", "float", "5.0")],
        catalog, message_catalog,
    )
    (rej,) = report.rejected
    assert rej.reason == REASON_UNKNOWN_NAME
    assert "multiple catalog keys" in rej.detail


def test_report_to_dict_shape(signal_catalog, message_catalog):
    report = validate_entries([
        _entry("Vehicle.Speed.Target", "float", "25.0"),
        _entry("Nope", "float", "1"),
    ], signal_catalog, message_catalog)
    data = report.to_dict()
    assert data["accepted"] == [{
        "name": "Vehicle.Speed.Target", "type": "float", "value": "25.0",
        "protocol": "VSS", "resolved_key": "Vehicle.Speed.Target",
    }]
    assert data["rejected"][0]["reason"] == REASON_UNKNOWN_NAME
    assert data["source_digest"] == ""
    assert data["notes"] == []


_NAMES = st.sampled_from([
    "Vehicle.Speed.Target", "Vehicle.ADAS.Brake", "Vehicle.ADAS.Mode",
    "BrakeCmd", "SpeedReport", "Vehicle.Made.Up", "NoSuchCmd",
])
_ENTRIES = st.builds(
    ExtractedEntry,
    name=_NAMES,
    type=st.sampled_from(["float", "boolean", "enum", "frame", "string"]),
    value=st.one_of(st.none(), st.sampled_from(["25.0", "true", "assist", "999", "x"])),
    protocol=st.sampled_from(["VSS", "CAN"]),
)


@settings(max_examples=150, deadline=None)
@given(entries=st.lists(_ENTRIES, max_size=12))
def test_validation_partitions_every_entry(entries, signal_catalog, message_catalog):
    report = validate_entries(entries, signal_catalog, message_catalog)
    assert len(report.accepted) + len(report.rejected) == len(entries)
    kept = [a.entry for a in report.accepted] + [r.entry for r in report.rejected]
    assert sorted(kept, key=repr) == sorted(entries, key=repr)
    known = {REASON_UNKNOWN_NAME, REASON_TYPE_MISMATCH,
             REASON_OUT_OF_RANGE, REASON_PROTOCOL_MISMATCH}
    assert {r.reason for r in report.rejected} <= known


# ---------------------------------------------------------------------------
# retry prompt and digests


def test_retry_prompt_lists_failures(signal_catalog, message_catalog):
    chunk = _chunk("catalog text")
    report = validate_entries([_entry("Ghost", "float", "1")],
                              signal_catalog, message_catalog)
    prompt = build_extraction_retry_prompt("code", chunk, report.rejected)
    assert prompt.startswith(build_extraction_prompt("code", chunk))
    assert "- Ghost (VSS): unknown-name ('Ghost' is not in the VSS catalog)" in prompt
    assert prompt.endswith("Re-extract the entry list using only catalog names.")
