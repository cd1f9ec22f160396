"""Every text parser fails closed: rule files, OCL constraints and object
diagrams raise only ``SdvGuardError`` subclasses, whatever the text.

Each parser gets arbitrary text and mutated fixture files: lines deleted,
cut short, given a new right-hand side after ``=``, or with grammar fragments
inserted. Activity diagrams are fuzzed
in ``test_eventchain.py`` and the JSON inputs in ``test_json_inputs.py``.
"""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdv_guard.errors import SdvGuardError
from sdv_guard.safety_rules import parse_rules
from sdv_guard.topology import default_metamodel, import_class_diagram, parse_constraints

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"

_RULE_PIECES = st.one_of(
    st.sampled_from([
        "r: require a before b", "r: forbid not (a after b)", "alias a = b*, c?",
        "alias = x", "# comment", "require", "forbid", "not", "and", "or", "before",
        "after", "(", ")", ":", "=", ",", "(" * 200 + "a before b" + ")" * 200,
        "not " * 200 + "a before b",
    ]),
    st.text(max_size=12),
)

_OCL_PIECES = st.one_of(
    st.sampled_from([
        "context Message", "context Nowhere", "inv X:", "inv :", "self", "self.target",
        ".oclIsTypeOf(Ethernet)", ".toReal()", "let a : Real = 1.0 in", "implies", "and",
        "or", "not", "=", "<>", "<=", ">", "'text'", "'unclosed", "MessageStandardKind::",
        "MessageStandardKind::IEEE-1722", "-- comment", "(", ")", "9" * 5000,
        "1" + "0" * 400 + ".0", "(" * 300, "not " * 300,
    ]),
    st.text(max_size=12),
)

_VALUES = st.one_of(
    st.from_regex(r"-?[0-9]{1,12}(\.[0-9]{1,4})?", fullmatch=True),
    # bare digit runs around int()'s conversion limit, and reals past a float's range
    st.sampled_from([4299, 4300, 4301, 6000]).map(lambda n: "7" * n),
    st.sampled_from([300, 308, 309, 400]).map(lambda n: "-1" + "0" * n + ".5"),
    st.sampled_from(["true", "false", "'q'", '"q"', "IEEE-1722", '"', "''"]),
    st.text(max_size=8),
)
_IDS = st.sampled_from(["hpc1", "m_steer", "a", "x.y", "9"])
_DIAGRAM_PIECES = st.one_of(
    st.builds("object {} : {}".format, _IDS, st.sampled_from(["Message", "Ethernet", "X"])),
    st.builds("{} : {} = {}".format, _IDS, st.sampled_from(["extra", "name"]), _VALUES),
    st.builds("{} --> {} : {}".format, _IDS, _IDS, st.sampled_from(["source", "target"])),
    st.sampled_from(["@startuml", "@enduml", "' comment", "", "object", "a -> : b"]),
    st.text(max_size=12),
)


@st.composite
def _mutated(draw, texts: list[str], pieces, values):
    """A fixture text with a few lines deleted, cut short, given a new value
    or inserted."""
    lines = draw(st.sampled_from(texts)).splitlines()
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(lines)))
        edit = draw(st.sampled_from(["delete", "cut", "value", "insert"]))
        if edit == "delete" and at < len(lines):
            del lines[at]
        elif edit == "cut" and at < len(lines):
            lines[at] = lines[at][:draw(st.integers(0, len(lines[at])))]
        elif edit == "value" and at < len(lines) and " = " in lines[at]:
            lines[at] = lines[at].rsplit(" = ", 1)[0] + " = " + draw(values)
        else:
            lines.insert(at, draw(pieces))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


def _texts(*patterns: str) -> list[str]:
    return [path.read_text(encoding="utf-8")
            for pattern in patterns for path in sorted(FIXTURES.glob(pattern))]


_METAMODEL = default_metamodel()
PARSERS = {
    # name: (parser, fixture texts, inserted lines, values after " = ")
    "rules": (parse_rules, _texts("rules/*.txt"), _RULE_PIECES, _RULE_PIECES),
    "constraints": (lambda text: parse_constraints(text, _METAMODEL),
                    _texts("topology/*.ocl"), _OCL_PIECES, _OCL_PIECES),
    "object diagram": (import_class_diagram, _texts("topology/*.puml"),
                       _DIAGRAM_PIECES, _VALUES),
}


@pytest.mark.parametrize("name", sorted(PARSERS))
def test_text_parsers_fail_only_with_toolkit_errors(name):
    parse, texts, pieces, values = PARSERS[name]
    assert texts
    mutated = _mutated(texts, pieces, values)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(text=st.one_of(mutated, mutated, st.lists(pieces, max_size=8).map("\n".join),
                          st.text()))
    def run(text):
        try:
            parse(text)
        except SdvGuardError:
            pass

    run()

