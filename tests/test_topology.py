"""Metamodel/instance parsing, conformance, constraints, and model operations."""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sdv_guard.errors import (
    ConfigurationError,
    ConstraintError,
    GenerationError,
    InstanceParseError,
    MetamodelError,
    ModelImportError,
)
from sdv_guard.topology import (
    InstanceModel,
    ModelObject,
    TopologyReport,
    VERDICT_FAIL,
    VERDICT_NOT_APPLICABLE,
    VERDICT_PASS,
    build_constraints_prompt,
    build_instance_prompt,
    conform,
    correct_instance,
    default_metamodel,
    eval_constraints,
    export_class_diagram,
    generate_constraints,
    generate_instance,
    import_class_diagram,
    parse_constraints,
    parse_instance,
    parse_metamodel,
    render_topology_report,
    serialize_instance,
    serialize_metamodel,
)

from sdv_guard.pipeline.cli import main
from sdv_guard.topology.ocl import MAX_NESTING, ConstraintVerdict
from sdv_guard.util import dump_json

from conftest import scripted_gateway


@pytest.fixture(scope="module")
def metamodel():
    return default_metamodel()


@pytest.fixture(scope="module")
def system_model(fixtures_dir):
    text = (fixtures_dir / "topology" / "system.puml").read_text()
    return import_class_diagram(text)


@pytest.fixture(scope="module")
def security_constraints(fixtures_dir, metamodel):
    text = (fixtures_dir / "topology" / "security.ocl").read_text()
    return parse_constraints(text, metamodel)


def _model(*objects: ModelObject) -> InstanceModel:
    return InstanceModel(list(objects))


# ---------------------------------------------------------------------------
# metamodel


def test_default_metamodel_shape(metamodel):
    names = metamodel.class_names()
    assert names[0] == "Component"
    assert {"Camera", "Lidar", "ZoneECU", "Ethernet", "CANFD",
            "Message", "VSSMessage"} <= set(names)
    assert metamodel.classes["Component"].abstract
    assert metamodel.classes["Network"].abstract
    assert set(metamodel.enums) == {"MessageStandardKind", "VSSCategory"}
    assert metamodel.enums["MessageStandardKind"].literals \
        == ("IEEE-1722", "RAW", "VSS-CAN")


def test_subclass_relation(metamodel):
    assert "Camera" in metamodel.subclasses("Component")
    assert "VSSMessage" in metamodel.subclasses("Message")
    assert "Message" in metamodel.subclasses("Message")
    assert "Message" not in metamodel.subclasses("VSSMessage")
    assert "Camera" not in metamodel.subclasses("Network")
    assert "NoSuchClass" not in metamodel.subclasses("Component")
    assert metamodel.subclasses("NoSuchClass") == frozenset()


def test_inherited_attributes(metamodel):
    attrs = metamodel.attributes("VSSMessage")
    assert set(attrs) == {"source", "target", "network", "standard",
                          "payloadValue", "vssPath", "category"}
    assert attrs["source"].category == "ref"
    assert attrs["source"].target == "Component"
    assert attrs["standard"].category == "enum"
    assert metamodel.resolve_attribute("Camera", "name").kind == "string"
    assert metamodel.resolve_attribute("Camera", "vssPath") is None


def test_attribute_table_is_read_only(metamodel):
    attrs = metamodel.attributes("VSSMessage")
    with pytest.raises(TypeError):
        attrs["stray"] = attrs["source"]
    assert "stray" not in metamodel.attributes("VSSMessage")
    assert dict(metamodel.attributes("NoSuchClass")) == {}


def test_metamodel_serialization_round_trip(metamodel):
    assert parse_metamodel(serialize_metamodel(metamodel)) == metamodel


@pytest.mark.parametrize("doc, message", [
    ("not json", "not valid JSON"),
    ("[]", "'classes' array"),
    ('{"classes": []}', "declares no classes"),
    ('{"classes": [{"name": "bad name"}]}', "invalid class name"),
    ('{"classes": [{"name": "A", "attributes": [{"name": "x", "kind": "blob"}]}]}',
     "invalid kind"),
    ('{"classes": [{"name": "A", "attributes": '
     '[{"name": "x", "kind": "int"}, {"name": "x", "kind": "int"}]}]}',
     "repeats an attribute"),
    ('{"classes": [{"name": "A"}, {"name": "A"}]}', "duplicate class name"),
    ('{"classes": [{"name": "A", "parent": "Ghost"}]}', "extends unknown"),
    ('{"classes": [{"name": "A", "attributes": [{"name": "x", "kind": "enum(E)"}]}]}',
     "unknown enum"),
    ('{"classes": [{"name": "A", "attributes": [{"name": "x", "kind": "ref(B)"}]}]}',
     "references unknown class"),
    ('{"classes": [{"name": "A", "parent": "B"}, {"name": "B", "parent": "A"}]}',
     "inheritance cycle"),
    ('{"classes": [{"name": "A"}], "enums": [{"name": "E", "literals": []}]}',
     "non-empty literal list"),
    ('{"classes": [{"name": "A"}], "enums": [{"name": "E", "literals": ["x", "x"]}]}',
     "repeats a literal"),
    ('{"classes": [{"name": "A"}], "enums": [{"name": "E", "literals": ["x"]}, '
     '{"name": "E", "literals": ["y"]}]}', "duplicate enum name"),
    ('{"classes": [{"name": "A"}], "enums": [1]}', "enum declarations must be objects"),
    ('{"classes": [{"name": "A"}], "enums": "xy"}', "'enums' must be an array"),
    ('{"classes": [{"name": "A"}], "enums": null}', "'enums' must be an array"),
    ('{"classes": [{"name": "A", "attributes": 3}]}', "'A' attributes must be an array"),
    ('{"classes": [{"name": "A", "attributes": {"x": "int"}}]}',
     "'A' attributes must be an array"),
    *((f'{{"classes": [{{"name": "A", "abstract": {value}}}]}}',
       "class 'A' abstract must be true or false")
      for value in ('"false"', '"true"', "0", "1", "[]", "{}")),
])
def test_metamodel_rejects(doc, message):
    with pytest.raises(MetamodelError, match=message):
        parse_metamodel(doc)


@pytest.mark.parametrize("field, abstract", [
    (', "abstract": true', True),
    (', "abstract": false', False),
    (', "abstract": null', False),
    ("", False),
])
def test_metamodel_abstract_is_a_boolean(field, abstract):
    metamodel = parse_metamodel(f'{{"classes": [{{"name": "A"{field}}}]}}')
    assert metamodel.classes["A"].abstract is abstract


# ---------------------------------------------------------------------------
# instance models (JSON form)


def test_instance_json_round_trip(fixtures_dir):
    text = (fixtures_dir / "topology" / "system.json").read_text()
    model = parse_instance(text)
    assert len(model) == 23
    assert serialize_instance(model) == text  # the fixture is canonical
    assert parse_instance(serialize_instance(model)) == model


@pytest.mark.parametrize("doc, message", [
    ("nope", "not valid JSON"),
    ("[]", "'objects' array"),
    ('{"objects": [{"id": "x y", "class": "A"}]}', "invalid object id"),
    ('{"objects": [{"id": "x"}]}', "missing its class"),
    ('{"objects": [{"id": "x", "class": "A", "attributes": []}]}',
     "must be objects"),
    ('{"objects": [{"id": "x", "class": "A", "attributes": {"a": [1]}}]}',
     "must be a scalar"),
    ('{"objects": [{"id": "x", "class": "A", "references": {"r": 5}}]}',
     "must be an object id"),
    ('{"objects": [{"id": "x", "class": "A", "references": {"r": "ghost"}}]}',
     "unknown object 'ghost'"),
    ('{"objects": [{"id": "x", "class": "A"}, {"id": "x", "class": "B"}]}',
     "duplicate object id"),
    ('{"objects": [{"id": "x", "class": "A-B"}]}', "object 'x' has an invalid class name 'A-B'"),
    ('{"objects": [{"id": "x", "class": "A", "attributes": {"a.b": 1}}]}',
     "object 'x' has an invalid attribute name 'a.b'"),
    ('{"objects": [{"id": "x", "class": "A", "references": {"": "x"}}]}',
     "object 'x' has an invalid reference name ''"),
    ('{"objects": [{"id": "x", "class": "A", "attributes": {"a": null}}]}',
     "attribute 'x.a' is null"),
    ('{"objects": [{"id": "x", "class": "A", "references": {"r": "a\\nb"}}]}',
     "unknown object 'a\\\\nb'"),
])
def test_instance_json_rejects(doc, message):
    with pytest.raises(InstanceParseError, match=message):
        parse_instance(doc)


# "$" also matches before a final newline; every name is matched whole
@pytest.mark.parametrize("doc, message", [
    ('{"classes": [{"name": "A\\n"}]}', "invalid class name"),
    ('{"classes": [{"name": "A", "attributes": [{"name": "x\\n", "kind": "int"}]}]}',
     "invalid attribute name"),
    ('{"classes": [{"name": "A", "attributes": [{"name": "x", "kind": "string\\n"}]}]}',
     "invalid kind"),
    ('{"classes": [{"name": "A", "attributes": [{"name": "x", "kind": "enum(E)\\n"}]}], '
     '"enums": [{"name": "E", "literals": ["a"]}]}', "invalid kind"),
    ('{"classes": [{"name": "A"}], "enums": [{"name": "E\\n", "literals": ["a"]}]}',
     "invalid enum name"),
])
def test_metamodel_names_with_a_final_newline_are_rejected(doc, message):
    with pytest.raises(MetamodelError, match=message):
        parse_metamodel(doc)


def test_a_bad_name_is_reported_at_the_first_object_that_holds_it():
    doc = json.dumps({"objects": [
        {"id": "a", "class": "Camera", "attributes": {"name": "x"}},
        {"id": "b", "class": "Camera", "attributes": {"name": "y", "bad-key": 1}},
        {"id": "c", "class": "Camera", "attributes": {"bad-key": 2}},
    ]})
    with pytest.raises(InstanceParseError, match="^object 'b' has an invalid attribute name"):
        parse_instance(doc)


def test_an_object_id_with_a_final_newline_is_rejected():
    with pytest.raises(InstanceParseError, match="invalid object id 'o1\\\\n'"):
        parse_instance('{"objects": [{"id": "o1\\n", "class": "Camera"}]}')


# every character str.splitlines ends a line at, none of which an
# object-diagram line can hold
LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


def test_line_breaks_are_the_characters_splitlines_breaks_at():
    text = "".join(map(chr, [*range(0xD800), *range(0xE000, 0x110000)]))
    assert {line[-1] for line in text.splitlines(keepends=True)[:-1]} == set(LINE_BREAKS)


@pytest.mark.parametrize("escaped", [False, True])
@pytest.mark.parametrize("value", [f"a{c}b" for c in LINE_BREAKS] + ["x\r", "\u2028"])
def test_a_string_attribute_with_a_line_break_is_rejected(value, escaped):
    # ensure_ascii escapes every line break; without it only the control
    # characters are escaped, and U+0085, U+2028 and U+2029 stay raw
    doc = json.dumps({"objects": [{"id": "cam", "class": "Camera",
                                   "attributes": {"name": value}}]}, ensure_ascii=escaped)
    with pytest.raises(InstanceParseError, match="attribute 'cam.name' holds a line break"):
        parse_instance(doc)


def test_strings_the_object_diagram_can_hold_still_parse():
    values = ["a\tb", "\u00e9\u2603 \\n", '"q"', "\x1f", "\u0084\u2027"]
    model = parse_instance(json.dumps({"objects": [
        {"id": f"c{i}", "class": "Camera", "attributes": {"name": value}}
        for i, value in enumerate(values)]}))
    assert [model.get(f"c{i}").attrs["name"] for i in range(len(values))] == values
    assert import_class_diagram(export_class_diagram(model)) == model


def test_cli_rejects_a_model_with_a_line_break_in_a_string(tmp_path, fixtures_dir, capsys):
    model = tmp_path / "m.json"
    model.write_text(json.dumps({"objects": [{"id": "cam", "class": "Camera",
                                              "attributes": {"name": "a\nb"}}]}))
    code = main(["--out", str(tmp_path / "out"), "analyze-topology", "--model", str(model),
                 "--constraints", str(fixtures_dir / "topology" / "security.ocl")])
    out, err = capsys.readouterr()
    assert code == 2
    assert err.startswith("error: ") and "'cam.name' holds a line break" in err
    assert out == ""


# ---------------------------------------------------------------------------
# object-diagram import/export


def test_import_the_demo_topology(system_model):
    assert len(system_model) == 23
    steer_msg = system_model.get("m_steer")
    assert steer_msg.cls == "Message"
    assert steer_msg.attrs["payloadValue"] == "12.5"  # quoted: stays a string
    assert steer_msg.attrs["standard"] == "RAW"       # bare enum literal
    assert steer_msg.refs == {"source": "zone1", "target": "steer1",
                              "network": "canfd0"}
    assert system_model.get("v_speed").attrs["vssPath"] == "Vehicle.Speed.Target"


def test_export_import_fixpoint(system_model):
    exported = export_class_diagram(system_model)
    again = import_class_diagram(exported)
    assert again == system_model
    assert export_class_diagram(again) == exported


def test_scalar_forms_round_trip():
    text = (
        "@startuml\n"
        "object m : Message\n"
        "m : payloadValue = \"25.0\"\n"
        "object n : Message\n"
        "n : payloadValue = plain-word\n"
        "@enduml\n"
    )
    model = import_class_diagram(text)
    assert model.get("m").attrs["payloadValue"] == "25.0"
    assert model.get("n").attrs["payloadValue"] == "plain-word"
    exported = export_class_diagram(model)
    # number-like strings must stay quoted or they would re-import as floats
    assert 'm : payloadValue = "25.0"' in exported
    assert "n : payloadValue = plain-word" in exported
    assert import_class_diagram(exported) == model


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.lists(st.one_of(st.integers(), st.floats(allow_nan=False, allow_infinity=False)),
                max_size=6))
@example([10000000000000000.0, 1e-05, -2.5e300, 5e-324, 10 ** 40])
@example([False, True, 0, 1])  # booleans, kept apart from the numbers 0 and 1
def test_numbers_round_trip_through_the_object_diagram(values):
    attrs = {f"a{i}": value for i, value in enumerate(values)}
    model = _model(ModelObject(id="o", cls="Thing", attrs=attrs))
    again = import_class_diagram(export_class_diagram(model))
    assert again == model
    assert [type(v) for v in again.get("o").attrs.values()] == [type(v) for v in values]


def test_unquoted_scalars_parse_by_shape():
    model = import_class_diagram(
        "@startuml\n"
        "object o : Thing\n"
        "o : a = 25.0\n"
        "o : b = -3\n"
        "o : c = true\n"
        "o : d = 'quoted'\n"
        "o : e = 1e+16\n"
        "o : f = -2E-3\n"
        "o : g = \"1e5\"\n"
        "o : h = false\n"
        "@enduml\n"
    )
    attrs = model.get("o").attrs
    assert attrs == {"a": 25.0, "b": -3, "c": True, "d": "quoted",
                     "e": 1e16, "f": -0.002, "g": "1e5", "h": False}
    assert attrs["c"] is True and attrs["h"] is False
    assert isinstance(attrs["e"], float)
    # a number-like string stays quoted on export
    assert 'o : g = "1e5"' in export_class_diagram(model)


@pytest.mark.parametrize("word", ["012", "-01", "+5", ".5", "5.", "1e", "0x1F", "1_000", "١٢"])
def test_unquoted_words_outside_the_number_grammar_are_strings(word):
    # only JSON's number grammar reads as a number; these stay words and
    # export quoted, so they re-import as the same strings
    model = import_class_diagram(f"@startuml\nobject o : Thing\no : a = {word}\n@enduml\n")
    assert model.get("o").attrs == {"a": word}
    exported = export_class_diagram(model)
    assert f'o : a = "{word}"' in exported
    assert import_class_diagram(exported) == model


@pytest.mark.parametrize("text, message, line", [
    ("object x : A\n@enduml\n", "must begin with @startuml", 1),
    ("@startuml\nobject x : A\n", "must end with @enduml", 2),
    ("@startuml\nobject x : A\nobject x : B\n@enduml\n", "duplicate object", 3),
    ("@startuml\nobject x : A\nx --> y : r\n@enduml\n", "undeclared object 'y'", 3),
    ("@startuml\ny : a = 1\n@enduml\n", "undeclared object 'y'", 2),
    ("@startuml\nobject x : A\nx : a = 1\nx : a = 2\n@enduml\n",
     "duplicate attribute", 4),
    ("@startuml\nobject x : A\nx --> x : r\nx --> x : r\n@enduml\n",
     "duplicate reference", 4),
    ("@startuml\nclass x {}\n@enduml\n", "unsupported line", 2),
    ("' note\n@startuml\n@enduml\n", "must begin with @startuml", 1),
    ("@startuml\nobject x : A\n\n@startuml\n@enduml\n", "nested diagram delimiter", 4),
    # more digits than int() converts, and a real too large for a float
    ("@startuml\nobject x : A\nx : a = " + "9" * 5000 + "\n@enduml\n",
     "number out of range", 3),
    ("@startuml\nobject x : A\nx : a = -1" + "0" * 400 + ".5\n@enduml\n",
     "number out of range", 3),
    ("@startuml\nobject x : A\nx : a = 1E400\n@enduml\n", "number out of range", 3),
])
def test_import_rejects(text, message, line):
    with pytest.raises(ModelImportError, match=message) as err:
        import_class_diagram(text)
    assert err.value.line == line


# ---------------------------------------------------------------------------
# conformance


def test_demo_topology_conforms(system_model, metamodel):
    report = conform(system_model, metamodel)
    assert report.ok
    assert report.render_text() == "conformant\n"


def _violations(model, metamodel):
    return {(v.object_id, v.kind) for v in conform(model, metamodel).violations}


def test_conformance_violation_kinds(metamodel):
    cam = ModelObject(id="cam", cls="Camera", attrs={"name": "front"})
    model = _model(
        cam,
        ModelObject(id="ufo", cls="Spaceship"),
        ModelObject(id="comp", cls="Component", attrs={"name": "x"}),
        ModelObject(id="badattr", cls="Camera", attrs={"speed": 1}),
        ModelObject(id="badkind", cls="Camera", attrs={"name": 5}),
        ModelObject(id="refattr", cls="Message", attrs={"source": "cam"}),
        ModelObject(id="dangle", cls="Message", refs={"source": "ghost"}),
        ModelObject(id="illtyped", cls="Message",
                    refs={"network": "cam"}),  # Camera is not a Network
        ModelObject(id="refkind", cls="Camera", refs={"name": "cam"}),
    )
    assert _violations(model, metamodel) == {
        ("ufo", "unknown-class"),
        ("comp", "abstract-class"),
        ("badattr", "unknown-attribute"),
        ("badkind", "kind-mismatch"),
        ("refattr", "kind-mismatch"),
        ("dangle", "dangling-reference"),
        ("illtyped", "ill-typed-reference"),
        ("refkind", "kind-mismatch"),
    }


def test_conformance_enum_values(metamodel):
    good = ModelObject(id="m", cls="Message", attrs={"standard": "IEEE-1722"})
    bad = ModelObject(id="n", cls="Message", attrs={"standard": "ieee"})
    assert _violations(_model(good), metamodel) == set()
    assert _violations(_model(bad), metamodel) == {("n", "kind-mismatch")}


# ---------------------------------------------------------------------------
# constraints: parsing and typing


def test_shipped_constraints_parse(security_constraints):
    assert [(c.name, c.context) for c in security_constraints.constraints] == [
        ("SteeringCommandWithinLimits", "Message"),
        ("HPCtoZoneEthernetIEEE1722", "Message"),
        ("TargetSpeedWithinSafetyLimit", "VSSMessage"),
    ]


@pytest.mark.parametrize("text, message", [
    ("context Ghost inv X: self.payloadValue = 'a'", "unknown context class"),
    ("context Message inv X: self.payloadValue = 'a'\n"
     "context Message inv X: self.payloadValue = 'b'",
     "duplicate constraint name"),
    ("context Message inv X: self.payloadValue", "must be boolean"),
    ("context Message inv X: self.missing = 'a'", "no attribute 'missing'"),
    ("context Message inv X: sSelf.payloadValue = 'a'", "unknown name 'sSelf'"),
    ("context Message inv X: self.payloadValue.toUpper() = 'a'",
     "unsupported operation 'toUpper'"),
    ("context Message inv X: self.standard = Ghost::RAW", "unknown enum 'Ghost'"),
    ("context Message inv X: self.standard = MessageStandardKind::GHOST",
     "no literal 'GHOST'"),
    ("context Message inv X: self.payloadValue implies self.payloadValue",
     "'implies' needs boolean"),
    ("context Message inv X: self.payloadValue < 3", "needs numeric operands"),
    ("context Message inv X: not self.payloadValue = 'a'",
     "'not' needs a boolean"),
    ("context Message inv X: let x : Real = 'a' in x <= 1.0",
     "declares Real but binds String"),
    ("context Message inv X: let x : Widget = 1 in x <= 1.0",
     "unknown let type"),
    ("context Message inv X: self.standard = 'RAW'",
     "cannot compare"),
    ("context Message inv X: self.payloadValue == 'a'", "unexpected"),
    ("context Message\nself.payloadValue = 'a'", "expected 'inv'"),
    ("context Message inv X: let x : Real = 1" + "0" * 400 + ".0 in x <= 1.0",
     "number out of range"),
    ("context Message inv X: let x : Integer = " + "9" * 5000 + " in x <= 1",
     "number out of range"),
    ("context Message inv X: let x : Integer = 012 in x <= 1", "invalid number '012'"),
    ("context Message inv X: let x : Integer = ٣ in x <= 1", "invalid number '٣'"),
])
def test_constraint_rejects(metamodel, text, message):
    with pytest.raises(ConstraintError, match=message):
        parse_constraints(text, metamodel)


def test_constraint_error_carries_symbol(metamodel):
    with pytest.raises(ConstraintError) as err:
        parse_constraints(
            "context Message inv X: self.payloadValue.size() > 0", metamodel
        )
    assert err.value.symbol == "size"


_LEAF = "self.target.oclIsTypeOf(SteeringActuator)"  # three levels deep


@pytest.mark.parametrize("body", [
    "(" * 3000 + _LEAF + ")" * 3000,
    "not " * 3000 + _LEAF,
    "let x : Real = 1.0 in " * 3000 + _LEAF,
    " implies ".join([_LEAF] * 3000),
    " and ".join([_LEAF] * 3000),
    " or ".join([_LEAF] * 3000),
    "self" + ".target" * 3000 + ".oclIsTypeOf(ZoneECU)",
])
def test_deep_constraints_are_rejected_with_a_position(metamodel, body):
    with pytest.raises(ConstraintError, match="nests deeper than") as err:
        parse_constraints(f"context Message inv Deep: {body}", metamodel)
    assert err.value.position is not None


def test_nesting_limit_counts_parentheses(metamodel):
    def text(levels):
        return f"context Message inv P: {'(' * levels}{_LEAF}{')' * levels}"

    parse_constraints(text(MAX_NESTING), metamodel)
    with pytest.raises(ConstraintError, match="nests deeper than") as err:
        parse_constraints(text(MAX_NESTING + 1), metamodel)
    assert err.value.position == len("context Message inv P: ") + MAX_NESTING


def test_nesting_limit_counts_tree_height(metamodel):
    # a chain of k conjuncts over three-level leaves is k + 2 levels deep
    def text(terms):
        return "context Message inv C: " + " and ".join([_LEAF] * terms)

    constraints = parse_constraints(text(MAX_NESTING - 2), metamodel)
    report = eval_constraints(_steer_message("1.0"), constraints, metamodel)
    assert _verdict_of(report, "C", "m").verdict == VERDICT_PASS
    with pytest.raises(ConstraintError, match="nests deeper than") as err:
        parse_constraints(text(MAX_NESTING - 1), metamodel)
    assert err.value.position == len("context Message inv C: ")


def test_is_type_of_is_exact(metamodel):
    # a VSSMessage is a Message by inheritance but not *exactly* one
    constraints = parse_constraints(
        "context VSSMessage inv Exact: self.oclIsTypeOf(Message)", metamodel
    )
    vmsg = ModelObject(id="v", cls="VSSMessage")
    report = eval_constraints(_model(vmsg), constraints, metamodel)
    (row,) = report.rows
    assert row.verdict == VERDICT_FAIL


# ---------------------------------------------------------------------------
# constraints: evaluation


HUGE_REAL_METAMODEL = (
    '{"classes": [{"name": "Thing", "attributes": [{"name": "x", "kind": "real"}]}]}'
)
HUGE_REAL_MODEL = "@startuml\nobject t : Thing\nt : x = 1" + "0" * 400 + "\n@enduml\n"
HUGE_REAL_CONSTRAINTS = (
    "context Thing inv Equal: self.x = 1.0\n"
    "context Thing inv Positive: self.x.toReal() > 0.0\n"
)


def test_an_int_beyond_a_float_fails_its_rows_with_a_reason():
    metamodel = parse_metamodel(HUGE_REAL_METAMODEL)
    report = eval_constraints(import_class_diagram(HUGE_REAL_MODEL),
                              parse_constraints(HUGE_REAL_CONSTRAINTS, metamodel),
                              metamodel)
    equal = _verdict_of(report, "Equal", "t")
    assert (equal.verdict, equal.reason) == (VERDICT_FAIL, "")
    positive = _verdict_of(report, "Positive", "t")
    assert positive.verdict == VERDICT_FAIL
    assert positive.reason == "toReal cannot convert an int this large"


def test_cli_analyze_topology_fails_an_int_beyond_a_float(tmp_path, capsys):
    for name, text in [("mm.json", HUGE_REAL_METAMODEL), ("m.puml", HUGE_REAL_MODEL),
                       ("c.ocl", HUGE_REAL_CONSTRAINTS)]:
        (tmp_path / name).write_text(text)
    code = main(["--out", str(tmp_path / "out"), "analyze-topology",
                 "--metamodel", str(tmp_path / "mm.json"),
                 "--model", str(tmp_path / "m.puml"),
                 "--constraints", str(tmp_path / "c.ocl")])
    out, err = capsys.readouterr()
    assert code == 1
    assert out.startswith("overall: fail")
    assert "internal error" not in err


@pytest.mark.parametrize("left, right, same", [
    (2 ** 53 + 1, float(2 ** 53), False),  # equal only once rounded to a float
    (2 ** 53, float(2 ** 53), True),
    (3, 3.0, True),
])
def test_numbers_compare_exactly(left, right, same):
    metamodel = parse_metamodel(
        '{"classes": [{"name": "Thing", "attributes": ['
        '{"name": "i", "kind": "int"}, {"name": "r", "kind": "real"}]}]}'
    )
    model = _model(ModelObject(id="t", cls="Thing", attrs={"i": left, "r": right}))
    constraints = parse_constraints(
        "context Thing inv Same: self.i = self.r\n"
        "context Thing inv Differ: self.i <> self.r\n", metamodel)
    report = eval_constraints(model, constraints, metamodel)
    assert _verdict_of(report, "Same", "t").verdict == (VERDICT_PASS if same else VERDICT_FAIL)
    assert _verdict_of(report, "Differ", "t").verdict == (VERDICT_FAIL if same else VERDICT_PASS)


def test_int_literals_are_exact():
    metamodel = parse_metamodel(
        '{"classes": [{"name": "Thing", "attributes": [{"name": "i", "kind": "int"}]}]}')
    model = _model(ModelObject(id="t", cls="Thing", attrs={"i": 2 ** 53 + 1}))
    constraints = parse_constraints(
        "context Thing inv Same: self.i = 9007199254740993\n"
        "context Thing inv Rounded: self.i = 9007199254740992\n"
        "context Thing inv Above: self.i > 9007199254740992\n", metamodel)
    report = eval_constraints(model, constraints, metamodel)
    assert [_verdict_of(report, name, "t").verdict for name in ("Same", "Rounded", "Above")] \
        == [VERDICT_PASS, VERDICT_FAIL, VERDICT_PASS]


def _steer_message(payload: str):
    return import_class_diagram(
        "@startuml\n"
        "object zone : ZoneECU\n"
        "object steer : SteeringActuator\n"
        "object bus : CANFD\n"
        "object m : Message\n"
        f'm : payloadValue = "{payload}"\n'
        "m : standard = RAW\n"
        "m --> zone : source\n"
        "m --> steer : target\n"
        "m --> bus : network\n"
        "@enduml\n"
    )


def _verdict_of(report, constraint, object_id):
    for row in report.rows:
        if row.constraint == constraint and row.object_id == object_id:
            return row
    raise AssertionError(f"no row for {constraint}/{object_id}")


@pytest.mark.parametrize("payload, expected", [
    ("15.0", VERDICT_PASS),
    ("-15.0", VERDICT_PASS),
    ("16.0", VERDICT_FAIL),
    ("-15.01", VERDICT_FAIL),
])
def test_steering_angle_boundaries(metamodel, security_constraints,
                                   payload, expected):
    report = eval_constraints(_steer_message(payload), security_constraints,
                              metamodel)
    assert _verdict_of(report, "SteeringCommandWithinLimits", "m").verdict \
        == expected


def test_non_numeric_steering_payload_fails_with_reason(metamodel,
                                                        security_constraints):
    report = eval_constraints(_steer_message("hard left"), security_constraints,
                              metamodel)
    row = _verdict_of(report, "SteeringCommandWithinLimits", "m")
    assert row.verdict == VERDICT_FAIL
    assert "toReal cannot convert 'hard left'" in row.reason


@pytest.mark.parametrize("payload", [
    "nan", "NaN", "inf", "-Infinity", "1_000", "+5", "0x10", ".5", "5.", "05", "１２", "1e999",
    "1" * 400,
])
def test_to_real_reads_only_json_numbers(metamodel, payload):
    # "nan" once became NaN, every comparison with it was false, and a
    # negated bound passed
    constraints = parse_constraints(
        "context Message inv NotAbove: not (self.payloadValue.toReal() > 15.0)\n"
        "context Message inv AtMost: self.payloadValue.toReal() <= 15.0\n", metamodel)
    report = eval_constraints(_steer_message(payload), constraints, metamodel)
    for name in ("NotAbove", "AtMost"):
        row = _verdict_of(report, name, "m")
        assert (row.verdict, row.reason) == (VERDICT_FAIL, f"toReal cannot convert '{payload}'")


@pytest.mark.parametrize("payload, expected", [
    (" 15 ", VERDICT_PASS), ("1.5e1", VERDICT_PASS), ("-0", VERDICT_PASS), ("15.000001", VERDICT_FAIL),
])
def test_to_real_reads_json_numbers_with_surrounding_whitespace(metamodel, payload, expected):
    constraints = parse_constraints(
        "context Message inv AtMost: self.payloadValue.toReal() <= 15.0\n", metamodel)
    report = eval_constraints(_steer_message(payload), constraints, metamodel)
    assert _verdict_of(report, "AtMost", "m").verdict == expected


def test_false_antecedent_short_circuits(metamodel, security_constraints):
    # same non-numeric payload, but the target is no steering actuator: the
    # consequent (and its toReal fault) must never run
    model = import_class_diagram(
        "@startuml\n"
        "object zone : ZoneECU\n"
        "object act : GenericActuator\n"
        "object bus : CANFD\n"
        "object m : Message\n"
        "m : payloadValue = free-text\n"
        "m --> zone : source\n"
        "m --> act : target\n"
        "m --> bus : network\n"
        "@enduml\n"
    )
    report = eval_constraints(model, security_constraints, metamodel)
    row = _verdict_of(report, "SteeringCommandWithinLimits", "m")
    assert row.verdict == VERDICT_PASS
    assert row.reason == ""


def _hpc_zone_message(network_cls: str, standard: str):
    return import_class_diagram(
        "@startuml\n"
        "object hpc : HighPerformanceComputer\n"
        "object zone : ZoneECU\n"
        f"object net : {network_cls}\n"
        "object m : Message\n"
        f"m : standard = {standard}\n"
        "m --> hpc : source\n"
        "m --> zone : target\n"
        "m --> net : network\n"
        "@enduml\n"
    )


@pytest.mark.parametrize("network, standard, expected", [
    ("Ethernet", "IEEE-1722", VERDICT_PASS),
    ("CANFD", "IEEE-1722", VERDICT_FAIL),
    ("Ethernet", "RAW", VERDICT_FAIL),
])
def test_hpc_to_zone_transport_rule(metamodel, security_constraints,
                                    network, standard, expected):
    report = eval_constraints(_hpc_zone_message(network, standard),
                              security_constraints, metamodel)
    assert _verdict_of(report, "HPCtoZoneEthernetIEEE1722", "m").verdict \
        == expected


def _vss_message(path: str, payload: str):
    return import_class_diagram(
        "@startuml\n"
        "object zone : ZoneECU\n"
        "object act : GenericActuator\n"
        "object bus : CANFD\n"
        "object v : VSSMessage\n"
        f'v : vssPath = "{path}"\n'
        f'v : payloadValue = "{payload}"\n'
        "v : standard = VSS-CAN\n"
        "v : category = actuator-command\n"
        "v --> zone : source\n"
        "v --> act : target\n"
        "v --> bus : network\n"
        "@enduml\n"
    )


@pytest.mark.parametrize("path, payload, expected", [
    ("Vehicle.Speed.Target", "30.0", VERDICT_PASS),
    ("Vehicle.Speed.Target", "30.01", VERDICT_FAIL),
    ("Vehicle.Speed.Current", "99.0", VERDICT_PASS),  # rule does not apply
])
def test_target_speed_limit(metamodel, security_constraints,
                            path, payload, expected):
    report = eval_constraints(_vss_message(path, payload),
                              security_constraints, metamodel)
    assert _verdict_of(report, "TargetSpeedWithinSafetyLimit", "v").verdict \
        == expected


def test_context_gates_applicability(metamodel, security_constraints):
    # the speed constraint is typed against VSSMessage: a plain Message is
    # not-applicable, never a failure
    report = eval_constraints(_steer_message("1.0"), security_constraints,
                              metamodel)
    row = _verdict_of(report, "TargetSpeedWithinSafetyLimit", "m")
    assert row.verdict == VERDICT_NOT_APPLICABLE
    zone = _verdict_of(report, "SteeringCommandWithinLimits", "zone")
    assert zone.verdict == VERDICT_NOT_APPLICABLE


def test_every_constraint_object_pair_gets_a_row(system_model, metamodel,
                                                 security_constraints):
    report = eval_constraints(system_model, security_constraints, metamodel)
    assert len(report.rows) == 3 * 23
    counts = {}
    for row in report.rows:
        counts.setdefault(row.constraint, {"pass": 0, "fail": 0, "n/a": 0})
        key = {"pass": "pass", "fail": "fail",
               "not-applicable": "n/a"}[row.verdict]
        counts[row.constraint][key] += 1
    # 11 messages (VSSMessage included), 12 component/network objects
    assert counts["SteeringCommandWithinLimits"] \
        == {"pass": 11, "fail": 0, "n/a": 12}
    assert counts["HPCtoZoneEthernetIEEE1722"] \
        == {"pass": 11, "fail": 0, "n/a": 12}
    assert counts["TargetSpeedWithinSafetyLimit"] \
        == {"pass": 3, "fail": 0, "n/a": 20}
    assert report.overall == VERDICT_PASS
    # rows come grouped by constraint, objects in id order within each
    first_block = report.rows[:23]
    assert all(r.constraint == "SteeringCommandWithinLimits" for r in first_block)
    ids = [r.object_id for r in first_block]
    assert ids == sorted(ids)


def test_bad_topology_fixture_fails_only_on_the_steering_payload(
        fixtures_dir, metamodel, security_constraints):
    text = (fixtures_dir / "topology" / "system-bad.puml").read_text()
    model = import_class_diagram(text)
    assert conform(model, metamodel).ok  # well-formed, just unsafe
    report = eval_constraints(model, security_constraints, metamodel)
    assert [(r.constraint, r.object_id) for r in report.failing] \
        == [("SteeringCommandWithinLimits", "m_steer")]
    assert report.overall == VERDICT_FAIL


def test_render_topology_report_layout(metamodel, security_constraints):
    report = eval_constraints(_steer_message("16.0"), security_constraints,
                              metamodel)
    text = render_topology_report(report)
    lines = text.splitlines()
    assert lines[0] == "overall: fail"
    assert "SteeringCommandWithinLimits m fail" in lines
    assert "TargetSpeedWithinSafetyLimit m not-applicable" in lines
    assert text.endswith("\n")
    data = json.loads(report.to_json())
    assert data["overall"] == "fail"
    assert {"constraint", "object", "verdict"} <= set(data["rows"][0])


def test_report_rows_leave_out_reason_exactly_when_it_is_empty(metamodel):
    constraints = parse_constraints(
        "context Message inv Real: self.payloadValue.toReal() > 0.0\n"
        "inv Raw: self.standard = MessageStandardKind::RAW", metamodel)
    model = _model(*(ModelObject(f"m{payload}", "Message",
                                 attrs={"payloadValue": payload, "standard": "RAW"})
                     for payload in ("1", "-1", "x")),
                   ModelObject("cam", "Camera", attrs={"name": "c"}))
    report = eval_constraints(model, constraints, metamodel)
    assert {(r.verdict, bool(r.reason)) for r in report.rows} == {
        (VERDICT_PASS, False), (VERDICT_FAIL, False), (VERDICT_FAIL, True),
        (VERDICT_NOT_APPLICABLE, False)}
    rows = json.loads(report.to_json())["rows"]
    assert len(rows) == len(report.rows)
    for row, verdict in zip(rows, report.rows):
        expected = {"constraint": verdict.constraint, "object": verdict.object_id,
                    "verdict": verdict.verdict}
        if verdict.reason:
            expected["reason"] = verdict.reason
        assert row == expected
        assert list(row) == sorted(expected)  # the file's keys are sorted


def test_report_rows_are_hashable_immutable_and_equal_by_value(metamodel,
                                                               security_constraints):
    first = eval_constraints(_steer_message("hard left"), security_constraints, metamodel)
    second = eval_constraints(_steer_message("hard left"), security_constraints, metamodel)
    assert first == second
    assert first.rows == second.rows and first.rows is not second.rows
    assert {hash(row) for row in first.rows} == {hash(row) for row in second.rows}
    assert len(set(first.rows + second.rows)) == len(first.rows)
    row = _verdict_of(first, "SteeringCommandWithinLimits", "m")
    assert row == ConstraintVerdict("SteeringCommandWithinLimits", "m", VERDICT_FAIL,
                                    row.reason)
    assert row != ConstraintVerdict("SteeringCommandWithinLimits", "m", VERDICT_FAIL)
    assert ConstraintVerdict("c", "o", VERDICT_PASS).reason == ""
    with pytest.raises(AttributeError):
        row.verdict = VERDICT_PASS
    with pytest.raises(TypeError):
        row[2] = VERDICT_PASS
    assert first.failing == tuple(r for r in first.rows if r.verdict == VERDICT_FAIL)
    assert first.failing is first.failing  # worked out once


# names the object diagram cannot hold, and a value it cannot hold
@pytest.mark.parametrize("obj, message", [
    pytest.param({"id": "cam", "class": "Camera", "attributes": {"bad\nkey": "x"}},
                 "object 'cam' has an invalid attribute name 'bad\\nkey'", id="attribute-key"),
    pytest.param({"id": "cam", "class": "Bad\nClass"},
                 "object 'cam' has an invalid class name 'Bad\\nClass'", id="class"),
    pytest.param({"id": "cam", "class": "Camera", "references": {"bad\nkey": "ok"}},
                 "object 'cam' has an invalid reference name 'bad\\nkey'", id="reference-key"),
    pytest.param({"id": "cam", "class": "Camera", "attributes": {"name": None}},
                 "attribute 'cam.name' is null, which no object-diagram line can hold",
                 id="null-value"),
])
def test_cli_rejects_a_model_the_object_diagram_cannot_hold(tmp_path, fixtures_dir, capsys,
                                                            obj, message):
    model = tmp_path / "m.json"
    model.write_text(json.dumps({"objects": [{"id": "ok", "class": "Camera"}, obj]}))
    code = main(["--out", str(tmp_path / "out"), "analyze-topology", "--model", str(model),
                 "--constraints", str(fixtures_dir / "topology" / "security.ocl")])
    out, err = capsys.readouterr()
    assert code == 2
    assert err == f"error: stage 'model' failed: {message}\n"
    assert out == ""
    assert not list((tmp_path / "out").rglob("conformance.txt"))


# ---------------------------------------------------------------------------
# model_iterN.json and topology_iterN.json: byte for byte dump_json's text

# quotes, backslashes, control characters, non-ASCII text and pieces of the
# layout itself
_TEXT = st.one_of(
    st.sampled_from(['"', "\\", "\n", "\x00\x1f\x7f", "\u00e9", "\U0001f600", "\u2028",
                     "},\n        {", "{}", ": ", ""]),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=6))
_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(),
                     st.integers(min_value=-2 ** 100, max_value=2 ** 100),
                     st.floats(), st.just(-0.0), _TEXT)
_OBJECTS = st.lists(st.builds(ModelObject, id=_TEXT, cls=_TEXT,
                              attrs=st.dictionaries(_TEXT, _SCALARS, max_size=4),
                              refs=st.dictionaries(_TEXT, _TEXT, max_size=3)),
                    max_size=6, unique_by=lambda obj: obj.id)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_OBJECTS)
@example([])
@example([ModelObject("b", "C"),
          ModelObject("a", "C", attrs={"x": None, "y": -0.0, "z": 10 ** 30}, refs={"r": "b"})])
def test_serialize_instance_writes_what_dump_json_writes(objects):
    expected = dump_json({"objects": [
        {"id": obj.id, "class": obj.cls, "attributes": obj.attrs, "references": obj.refs}
        for obj in sorted(objects, key=lambda obj: obj.id)]}, ensure_ascii=False)
    assert serialize_instance(_model(*objects)) == expected


_VERDICTS = st.sampled_from([VERDICT_PASS, VERDICT_FAIL, VERDICT_NOT_APPLICABLE])


def _report_dict(report: TopologyReport) -> dict:
    """The document ``to_json`` writes, built row by row: a row's reason is
    left out exactly when it is empty."""
    return {
        "overall": report.overall,
        "rows": [
            {"constraint": constraint, "object": object_id, "verdict": verdict,
             "reason": reason} if reason else
            {"constraint": constraint, "object": object_id, "verdict": verdict}
            for constraint, object_id, verdict, reason in report.rows
        ],
    }


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.builds(ConstraintVerdict, _TEXT, _TEXT, _VERDICTS, st.just("") | _TEXT),
                max_size=8))
@example([])
@example([ConstraintVerdict("c", "o", VERDICT_PASS)])
@example([ConstraintVerdict("c", "o", VERDICT_FAIL, 'say "no"\n\u00e9'),
          ConstraintVerdict("c", "p", VERDICT_NOT_APPLICABLE)])
def test_report_json_writes_what_dump_json_writes(rows):
    report = TopologyReport(tuple(rows))
    assert report.to_json() == dump_json(_report_dict(report))


def _large_objects(count: int, text: str) -> list[ModelObject]:
    """``count`` objects with every scalar type among their attributes and a
    reference to the next object, each string ending in ``text``."""
    scalars = [None, True, False, 0, 1, -7, 2 ** 70, 0.5, -0.0, 1e300, f"v{text}"]
    return [ModelObject(f"o{i:04d}{text}", f"C{i % 5}{text}",
                        attrs={f"a{j}{text}": scalars[(i + j) % len(scalars)] for j in range(i % 4)},
                        refs={} if i % 3 == 0 else {f"next{text}": f"o{(i + 1) % count:04d}{text}"})
            for i in range(count)]


@pytest.mark.parametrize("text", ["", '\u00e9 "\\\n\U0001f600'], ids=["ascii", "awkward"])
def test_serialize_instance_writes_a_large_model_as_dump_json(text):
    objects = _large_objects(2_000, text)
    expected = dump_json({"objects": [
        {"id": obj.id, "class": obj.cls, "attributes": obj.attrs, "references": obj.refs}
        for obj in sorted(objects, key=lambda obj: obj.id)]}, ensure_ascii=False)
    assert serialize_instance(_model(*reversed(objects))) == expected


@pytest.mark.parametrize("text", ["", '\u00e9 "\\\n\U0001f600'], ids=["ascii", "awkward"])
def test_report_json_writes_a_large_report_as_dump_json(text):
    verdicts = [VERDICT_PASS, VERDICT_FAIL, VERDICT_NOT_APPLICABLE]
    report = TopologyReport(tuple(
        ConstraintVerdict(f"c{i % 7}{text}", f"o{i % 1_300}{text}", verdicts[i % 3],
                          f"reason {i % 11}{text}" if i % 3 == 1 else "")
        for i in range(10_000)))
    assert report.to_json() == dump_json(_report_dict(report))


# ---------------------------------------------------------------------------
# gateway-backed operations

GOOD_DIAGRAM = (
    "@startuml\n"
    "object cam : Camera\n"
    'cam : name = "front camera"\n'
    "@enduml\n"
)


def test_instance_prompt_bindings(metamodel):
    prompt = build_instance_prompt("Connect the camera.", metamodel)
    assert "(none)" in prompt
    assert "Connect the camera." in prompt
    assert '"classes"' in prompt  # the metamodel rides along as JSON

    model = import_class_diagram(GOOD_DIAGRAM)
    update = build_instance_prompt("Add a lidar.", metamodel, current_model=model)
    assert "object cam : Camera" in update
    assert "(none)" not in update


def test_generate_instance_happy_path(metamodel):
    gateway = scripted_gateway([f"Model follows.\n```plantuml\n{GOOD_DIAGRAM}```"])
    model = generate_instance("Connect the camera.", metamodel, gateway)
    assert model.get("cam").attrs["name"] == "front camera"


def test_generate_instance_retries_once(metamodel):
    prompts = []
    gateway = scripted_gateway(
        ["no diagram in this reply", GOOD_DIAGRAM],
        record_prompts=prompts,
    )
    model = generate_instance("Connect the camera.", metamodel, gateway)
    assert len(model) == 1
    assert len(prompts) == 2
    assert "The previous attempt was rejected" in prompts[1]
    assert "no @startuml block" in prompts[1]


def test_generate_instance_rejects_non_conforming(metamodel):
    ufo = "@startuml\nobject x : Spaceship\n@enduml\n"
    gateway = scripted_gateway([ufo, GOOD_DIAGRAM])
    model = generate_instance("Connect.", metamodel, gateway)
    assert model.get("cam") is not None


def test_generate_instance_fails_after_two_attempts(metamodel):
    gateway = scripted_gateway(["nope", "still nope"])
    with pytest.raises(GenerationError) as err:
        generate_instance("Connect.", metamodel, gateway)
    assert err.value.attempts == ("nope", "still nope")


def test_blank_requirements_are_an_identity_update(metamodel):
    current = import_class_diagram(GOOD_DIAGRAM)
    # an empty completion queue raises on any gateway call, proving none happen
    assert generate_instance("  ", metamodel, scripted_gateway([]),
                             current_model=current) is current
    with pytest.raises(ConfigurationError, match="requirements"):
        generate_instance("", metamodel, scripted_gateway([]))


def test_generate_constraints_happy_and_empty(metamodel):
    completion = (
        "```ocl\n"
        "context Message\n"
        "inv PayloadPresent:\n"
        "  self.payloadValue <> ''\n"
        "```\n"
    )
    constraints = generate_constraints("Payloads are mandatory.", metamodel,
                                       scripted_gateway([completion]))
    assert len(constraints) == 1
    assert constraints.constraints[0].name == "PayloadPresent"
    # nothing to ground on -> empty set, no gateway call
    assert len(generate_constraints("   ", metamodel, scripted_gateway([]))) == 0


def test_generate_constraints_retry_and_failure(metamodel):
    bad = "context Ghost\ninv X:\n  self.payloadValue = 'a'\n"
    good = "context Message\ninv X:\n  self.payloadValue = 'a'\n"
    constraints = generate_constraints("g", metamodel,
                                       scripted_gateway([bad, good]))
    assert len(constraints) == 1
    with pytest.raises(GenerationError) as err:
        generate_constraints("g", metamodel, scripted_gateway([bad, bad]))
    assert len(err.value.attempts) == 2


def test_correct_instance_flow(metamodel, security_constraints):
    broken = _steer_message("20.0")
    report = eval_constraints(broken, security_constraints, metamodel)
    assert report.overall == VERDICT_FAIL

    fixed_diagram = export_class_diagram(_steer_message("12.0"))
    prompts = []
    gateway = scripted_gateway([fixed_diagram], record_prompts=prompts)
    corrected = correct_instance(broken, report, metamodel, gateway)
    assert corrected.get("m").attrs["payloadValue"] == "12.0"
    fresh = eval_constraints(corrected, security_constraints, metamodel)
    assert fresh.overall == VERDICT_PASS
    # the correction prompt carries both the current model and the verdict list
    assert 'm : payloadValue = "20.0"' in prompts[0]
    assert "SteeringCommandWithinLimits m fail" in prompts[0]


def test_correct_instance_needs_a_failure(metamodel, security_constraints):
    clean = _steer_message("1.0")
    report = eval_constraints(clean, security_constraints, metamodel)
    with pytest.raises(ValueError, match="at least one failure"):
        correct_instance(clean, report, metamodel, scripted_gateway([]))


def test_constraints_prompt_carries_guidelines(metamodel):
    prompt = build_constraints_prompt("No open ports.", metamodel)
    assert "No open ports." in prompt
    assert '"classes"' in prompt
