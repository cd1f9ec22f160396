"""Activity-diagram parsing, canonical chain documents, path enumeration."""

import json
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdv_guard.errors import (
    ChainGenerationError,
    DiagramParseError,
    SdvGuardError,
    StructureError,
    TransformError,
    UnsupportedStructureError,
)
from sdv_guard.eventchain import (
    build_chain_prompt,
    chain_digest,
    enumerate_paths,
    extract_diagram_block,
    generate_chain,
    parse_activity_diagram,
    parse_chain_document,
    render_relevant_entries,
    serialize_chain,
    strip_fences,
    to_chain_document,
)
from sdv_guard.extraction import AcceptedEntry, ExtractedEntry
from sdv_guard.llm_gateway import prompt_digest
from sdv_guard.pipeline.cli import main
from sdv_guard.safety_rules import check, parse_rules
from sdv_guard.safety_rules import check, parse_rules, render_report
from sdv_guard.util import sha256_text

from conftest import scripted_gateway


def _doc(text: str):
    return to_chain_document(parse_activity_diagram(text))


LINEAR = """\
@startuml
start
:First step;
:Second step;
stop
@enduml
"""


# ---------------------------------------------------------------------------
# parsing


def test_parse_branching_fixture(fixtures_dir):
    text = (fixtures_dir / "chains" / "s1.puml").read_text()
    graph = parse_activity_diagram(text)
    kinds = [n.kind for n in graph.nodes]
    assert kinds == ["start", "action", "decision", "action", "action",
                     "action", "merge", "stop"]
    sense = graph.nodes[1]
    assert sense.label == "Camera sense"
    notes = dict(sense.notes)
    assert notes["input"] == "Vehicle.ADAS.ObstacleDetection.Camera"
    assert notes["input_format"] == "vss boolean"
    assert "output" not in notes
    decision = graph.nodes[2]
    assert decision.label == "pedestrian in frame?"
    guards = {e.guard for e in graph.edges if e.src == decision.id}
    assert guards == {"yes", "no"}


def test_labels_normalize_to_events(fixtures_dir):
    text = (fixtures_dir / "chains" / "s1.puml").read_text()
    document = _doc(text)
    assert [event for _, event in document.events] == [
        "camera-sense", "pedestrian-camera-detected", "accelerate", "cruise",
    ]


def test_if_without_else_gets_an_implicit_no_arm():
    document = _doc("""\
@startuml
start
if (risk?) then (yes)
  :Mitigate;
endif
stop
@enduml
""")
    paths = enumerate_paths(document)
    assert [p.events for p in paths] == [("mitigate",), ()]


@pytest.mark.parametrize("text, message", [
    ("start\nstop", "must begin with @startuml"),
    ("@startuml\nstart\nstop", "must end with @enduml"),
    ("@startuml\n@startuml\nstart\nstop\n@enduml", "nested diagram delimiter"),
    ("@startuml\nstart\nfork\nstop\n@enduml", "unsupported directive 'fork'"),
    ("@startuml\nstart\nelse (no)\nstop\n@enduml", "'else' outside an if"),
    ("@startuml\nstart\nendif\nstop\n@enduml", "'endif' without a matching"),
    ("@startuml\nstart\nif (x?) then (yes)\n:A;\nstop\n@enduml",
     "never closed"),
    ("@startuml\nstart\nif (x?) then (yes)\n:A;\nelse\n:B;\nelse\n:C;\n"
     "endif\nstop\n@enduml", "duplicate 'else'"),
    ("@startuml\nstart\n:A;\nnote right: colour=red\nstop\n@enduml",
     "unknown note key 'colour'"),
    ("@startuml\nstart\nnote right: input=x\n:A;\nstop\n@enduml",
     "no preceding action"),
    ("@startuml\nstart\n:A;\nnote right: input=x\nnote right: input=y\n"
     "stop\n@enduml", "duplicate note key"),
])
def test_parse_errors(text, message):
    with pytest.raises(DiagramParseError, match=message):
        parse_activity_diagram(text)


def test_parse_error_carries_line_number():
    with pytest.raises(DiagramParseError) as err:
        parse_activity_diagram("@startuml\nstart\n:A;\nfloat on\nstop\n@enduml")
    assert err.value.line == 4


@pytest.mark.parametrize("text, message", [
    ("@startuml\nstart\n:A;\nstop\nstart\n:B;\nstop\n@enduml",
     "exactly one start"),
    ("@startuml\nstart\n:A;\n@enduml", "no stop node"),
])
def test_structure_errors(text, message):
    with pytest.raises(StructureError, match=message):
        parse_activity_diagram(text)


def test_nodes_behind_thousands_of_exits_that_reach_no_stop_are_named():
    # 5,000 early exits, then a merge and an action that reach no stop; the
    # stop check names both, and only them
    lines = ["@startuml", "start"]
    for _ in range(5000):
        lines += ["if (exit?) then (yes)", "stop", "endif"]
    lines += [":Stranded;", "@enduml"]
    with pytest.raises(StructureError) as err:
        parse_activity_diagram("\n".join(lines))
    assert str(err.value) == "cannot reach any stop: n15001, n15002"


def test_comments_and_blank_lines_are_ignored():
    graph = parse_activity_diagram(
        "@startuml\n' a comment\n\nstart\n\n:Only step;\n' more\nstop\n@enduml"
    )
    assert [n.kind for n in graph.nodes] == ["start", "action", "stop"]


# ---------------------------------------------------------------------------
# canonical documents


def test_serialize_parse_round_trip_is_byte_stable(fixtures_dir):
    for name in ("s1", "s2", "s3", "s3-corrected"):
        text = (fixtures_dir / "chains" / f"{name}.puml").read_text()
        document = to_chain_document(parse_activity_diagram(text),
                                     source_digest="sd",
                                     generation_prompt_digest="gd")
        serialized = serialize_chain(document)
        reparsed = parse_chain_document(serialized)
        assert serialize_chain(reparsed) == serialized
        assert reparsed.metadata == (("generation_prompt_digest", "gd"),
                                     ("source_digest", "sd"))
        assert chain_digest(reparsed) == chain_digest(document)


def test_serialized_shape(fixtures_dir):
    text = (fixtures_dir / "chains" / "s3.puml").read_text()
    data = json.loads(serialize_chain(_doc(text)))
    assert set(data) == {"nodes", "edges", "metadata"}
    actions = [n for n in data["nodes"] if n["kind"] == "action"]
    assert [a["event"] for a in actions] == [
        "camera-sense", "brake", "pedestrian-camera-detected",
    ]
    assert actions[1]["notes"] == {
        "output": "Vehicle.ADAS.Brake", "output_format": "vss boolean",
    }
    assert all(set(e) <= {"from", "to", "guard"} for e in data["edges"])


def test_empty_action_label_cannot_become_an_event():
    graph = parse_activity_diagram("@startuml\nstart\n:!!!;\nstop\n@enduml")
    with pytest.raises(TransformError, match="no label"):
        to_chain_document(graph)


@pytest.mark.parametrize("payload, message", [
    ("nonsense", "not valid JSON"),
    ("[]", "must be a JSON object"),
    ('{"nodes": [{"kind": "action"}]}', "missing its id"),
    ('{"nodes": [{"id": "a", "kind": "start"}, {"id": "a", "kind": "stop"}]}',
     "duplicate chain node id"),
    ('{"nodes": [{"id": "a", "kind": "loop"}]}', "unknown kind"),
    ('{"nodes": [{"id": "a", "kind": "action", "label": "A"}]}',
     "missing its event"),
    ('{"nodes": [{"id": "a", "kind": "action", "event": "Not Normal"}]}',
     "not normalized"),
    ('{"nodes": [{"id": "a", "kind": "action", "event": "a", '
     '"notes": {"colour": "x"}}]}', "unknown note"),
    ('{"nodes": [{"id": "a", "kind": "start"}], '
     '"edges": [{"from": "a", "to": "zz"}]}', "unknown nodes"),
    ('{"nodes": [], "metadata": []}', "metadata must be an object"),
])
def test_parse_chain_document_rejects(payload, message):
    with pytest.raises(TransformError, match=message):
        parse_chain_document(payload)


_START = '{"id": "a", "kind": "start"}'


@pytest.mark.parametrize("payload, message", [
    ('{"nodes": [1]}', "'nodes' entries must be objects"),
    ('{"nodes": "ab"}', "'nodes' must be an array"),
    ('{"nodes": null}', "'nodes' must be an array"),
    ('{"nodes": {"a": {"kind": "start"}}}', "'nodes' must be an array"),
    ('{"nodes": [], "edges": [3]}', "'edges' entries must be objects"),
    ('{"nodes": [], "edges": {"from": "a", "to": "a"}}', "'edges' must be an array"),
    (f'{{"nodes": [{_START}], "edges": [{{"from": ["a"], "to": "a"}}]}}',
     "'from' must be a node id"),
    (f'{{"nodes": [{_START}], "edges": [{{"from": "a", "to": {{}}}}]}}',
     "'to' must be a node id"),
    ('{"nodes": [{"id": "a", "kind": "start", "label": 5}]}', "label must be a string"),
    (f'{{"nodes": [{_START}], "edges": [{{"from": "a", "to": "a", "guard": []}}]}}',
     "guard must be a string"),
    # str() would turn these into text that is not in the file: "None", "{'a': 1}"
    ('{"nodes": [{"id": "a", "kind": "action", "event": "a", "notes": {"input": null}}]}',
     "chain node 'a' note 'input' must be a string"),
    ('{"nodes": [{"id": "a", "kind": "action", "event": "a", "notes": {"output": {"a": 1}}}]}',
     "chain node 'a' note 'output' must be a string"),
    ('{"nodes": [{"id": "a", "kind": "action", "event": "a", "notes": {"input": 7}}]}',
     "chain node 'a' note 'input' must be a string"),
    (f'{{"nodes": [{_START}], "metadata": {{"source_digest": null}}}}',
     "chain metadata 'source_digest' must be a string"),
    (f'{{"nodes": [{_START}], "metadata": {{"extra": {{"a": 1}}}}}}',
     "chain metadata 'extra' must be a string"),
    (f'{{"nodes": [{_START}], "metadata": {{"n": [1]}}}}',
     "chain metadata 'n' must be a string"),
    pytest.param("[" * 100_000 + "]" * 100_000, "not valid JSON", id="nested-100000-deep"),
])
def test_malformed_chain_document_shapes_fail_closed(tmp_path, capsys, payload, message):
    """Fields of the wrong JSON type are TransformErrors, so ``check-chain``
    reports them as errors, not as internal errors."""
    with pytest.raises(TransformError, match=message):
        parse_chain_document(payload)
    chain, rules = tmp_path / "chain.json", tmp_path / "rules.txt"
    chain.write_text(payload)
    rules.write_text("r: a before b\n")
    assert main(["check-chain", "--chain", str(chain), "--rules", str(rules)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


# ---------------------------------------------------------------------------
# path enumeration


def test_paths_of_the_branching_fixture(fixtures_dir):
    document = _doc((fixtures_dir / "chains" / "s1.puml").read_text())
    paths = enumerate_paths(document)
    assert [p.events for p in paths] == [
        ("camera-sense", "pedestrian-camera-detected", "accelerate"),
        ("camera-sense", "cruise"),
    ]
    # steps carry their event and the owning node; a step's position is its
    # index on the path, which a report writes out
    assert [s.node_id for s in paths[0].steps] == ["n2", "n4", "n5"]
    assert len(paths[0]) == 3
    # "ghost" never occurs, so the forbidden rule holds on every path
    report = check(document, parse_rules("r: forbid ghost before ghost\n")).to_dict()
    assert [w["path"] for w in report["rules"][0]["witnesses"]] == [
        [{"position": i, "event": s.event, "node": s.node_id} for i, s in enumerate(p.steps)]
        for p in paths
    ]
    assert [s["position"] for s in report["rules"][0]["witnesses"][0]["path"]] == [0, 1, 2]


def test_three_decisions_give_eight_paths():
    blocks = "\n".join(
        f"if (risk {i}?) then (yes)\n  :Mitigate {i};\nendif" for i in (1, 2, 3)
    )
    document = _doc(f"@startuml\nstart\n{blocks}\nstop\n@enduml")
    paths = enumerate_paths(document)
    assert len(paths) == 8
    # declaration order: the all-yes path first, all-no path last
    assert paths[0].events == ("mitigate-1", "mitigate-2", "mitigate-3")
    assert paths[-1].events == ()


def test_cycle_is_rejected_at_enumeration():
    looped = json.dumps({
        "nodes": [
            {"id": "s", "kind": "start"},
            {"id": "a", "kind": "action", "label": "A", "event": "a"},
            {"id": "z", "kind": "stop"},
        ],
        "edges": [
            {"from": "s", "to": "a"},
            {"from": "a", "to": "a"},
            {"from": "a", "to": "z"},
        ],
    })
    document = parse_chain_document(looped)  # representable on purpose
    with pytest.raises(UnsupportedStructureError, match="cycle"):
        enumerate_paths(document)


def test_dead_end_is_rejected_at_enumeration():
    document = parse_chain_document(json.dumps({
        "nodes": [
            {"id": "s", "kind": "start"},
            {"id": "a", "kind": "action", "label": "A", "event": "a"},
        ],
        "edges": [{"from": "s", "to": "a"}],
    }))
    with pytest.raises(StructureError, match="dead-ends"):
        enumerate_paths(document)


# ---------------------------------------------------------------------------
# fuzzing: parse, enumerate and check fail only with toolkit errors

_FUZZ_RULES = parse_rules(
    "r1: a before b\nalias a = a*\n\nr2: forbid b after ab and not c before c\n"
)

# diagrams: well-formed statement trees, then a few lines inserted or deleted
_JUNK_LINES = st.one_of(
    st.sampled_from([
        "start", "stop", ":A;", ":;", ":!!!;", "if (y) then", "else", "else (yes)", "endif",
        "note right: input=x", "note right: colour=x", "' comment", "", "fork",
        "@startuml", "@enduml",
    ]),
    st.text(max_size=12),
)
_ACTIONS = st.sampled_from([
    [":A;"], [":B;"], [":Ab;"], [":C c;"], [":Ab;", "note right: output=x"], ["stop"],
])


def _if_lines(arms) -> list[str]:
    yes, no = arms
    lines = ["if (x) then (yes)", *(line for stmt in yes for line in stmt)]
    if no is not None:
        lines += ["else (no)", *(line for stmt in no for line in stmt)]
    return lines + ["endif"]


_STATEMENT = st.recursive(_ACTIONS, lambda stmt: st.tuples(
    st.lists(stmt, max_size=3), st.none() | st.lists(stmt, max_size=3)).map(_if_lines),
    max_leaves=10)
_EDITS = st.lists(st.tuples(st.integers(0, 40), st.none() | _JUNK_LINES), max_size=2)


def _diagram(statements, edits) -> str:
    """The statements between start and stop, then each edit: a line
    deleted (None) or inserted."""
    lines = ["@startuml", "start", *(line for stmt in statements for line in stmt),
             "stop", "@enduml"]
    for index, line in edits:
        if line is None:
            del lines[index % len(lines)]
        else:
            lines.insert(index % (len(lines) + 1), line)
    return "\n".join(lines)

# chain documents: a well-formed node list with random, mostly forward
# edges, fields of any JSON type, or any JSON value
_IDS = ("s", "a", "b", "c", "d", "m", "z")
_GOOD_NODES = [
    {"id": "a", "kind": "action", "label": "A", "event": "a"},
    {"id": "b", "kind": "action", "label": "B", "event": "b"},
    {"id": "c", "kind": "action", "event": "ab", "notes": {"input": "x"}},
    {"id": "d", "kind": "decision"}, {"id": "m", "kind": "merge"}, {"id": "z", "kind": "stop"},
]


def _edges(outgoing) -> list[dict]:
    """Edges out of each node but the last in _IDS order; a forward one
    targets a later node, so all-forward edges make a DAG."""
    edges = []
    for src, targets in enumerate(outgoing):
        for target, forward, guard in targets:
            dst = src + 1 + target % (len(_IDS) - 1 - src) if forward else target
            edges.append({"from": _IDS[src], "to": _IDS[dst],
                          **({} if guard is None else {"guard": guard})})
    return edges


_JSON_LEAF = st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=4))
_JSON = st.recursive(_JSON_LEAF, lambda inner: st.one_of(
    st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6)
_GRAPH_NODES = st.permutations(_GOOD_NODES).map(
    lambda nodes: [{"id": "s", "kind": "start"}, *nodes])
_TARGET = st.tuples(st.integers(0, len(_IDS) - 1), st.sampled_from([True, True, True, False]),
                    st.sampled_from([None, "yes", "no"]))
_GRAPH_EDGES = st.lists(st.lists(_TARGET, min_size=1, max_size=2),
                        min_size=len(_IDS) - 1, max_size=len(_IDS) - 1).map(_edges)
_NODE = st.fixed_dictionaries({
    "id": st.one_of(st.sampled_from(_IDS), _JSON),
    "kind": st.one_of(st.sampled_from(["start", "stop", "action", "decision", "merge"]), _JSON),
}, optional={
    "label": st.one_of(st.text(max_size=4), _JSON),
    "event": st.one_of(st.sampled_from(["a", "ab", "b", "c", "Not Normal"]), _JSON),
    "notes": st.one_of(st.dictionaries(st.sampled_from(["input", "colour"]), _JSON), _JSON),
})
_EDGE = st.fixed_dictionaries({
    "from": st.one_of(st.sampled_from(_IDS), _JSON),
    "to": st.one_of(st.sampled_from(_IDS), _JSON),
}, optional={"guard": _JSON})
_DOCUMENT = st.one_of(
    st.fixed_dictionaries({"nodes": _GRAPH_NODES, "edges": _GRAPH_EDGES}),
    st.fixed_dictionaries({}, optional={
        "nodes": st.one_of(_GRAPH_NODES, st.lists(_NODE, max_size=6), _JSON),
        "edges": st.one_of(_GRAPH_EDGES, st.lists(_EDGE, max_size=4), _JSON),
        "metadata": _JSON,
    }),
    _JSON,
)


def _enumerate_and_check(document) -> None:
    enumerate_paths(document)
    render_report(check(document, _FUZZ_RULES))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(statements=st.lists(_STATEMENT, max_size=5), edits=_EDITS)
def test_fuzzed_diagrams_raise_only_toolkit_errors(statements, edits):
    try:
        _enumerate_and_check(to_chain_document(parse_activity_diagram(
            _diagram(statements, edits))))
    except SdvGuardError:
        pass


# the structure check rests on how the parser builds a graph: it adds each
# edge when it creates the edge's target, and the grammar fixes how many
# edges leave an action, a decision and a stop
_OUT_EDGES = {"action": 1, "decision": 2, "stop": 0}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(statements=st.lists(_STATEMENT, max_size=5), edits=_EDITS)
def test_parsed_diagrams_keep_the_construction_invariants(statements, edits):
    try:
        graph = parse_activity_diagram(_diagram(statements, edits))
    except SdvGuardError:
        return
    created = {node.id: index for index, node in enumerate(graph.nodes)}
    assert all(created[edge.src] < created[edge.dst] for edge in graph.edges)
    targets = [created[edge.dst] for edge in graph.edges]
    assert targets == sorted(targets)
    out = Counter(edge.src for edge in graph.edges)
    for node in graph.nodes:
        if node.kind in _OUT_EDGES:
            assert out[node.id] == _OUT_EDGES[node.kind], node


@settings(max_examples=300, deadline=None, derandomize=True)
@given(raw=_DOCUMENT)
def test_fuzzed_chain_documents_raise_only_toolkit_errors(raw):
    try:
        _enumerate_and_check(parse_chain_document(json.dumps(raw)))
    except SdvGuardError:
        pass


# ---------------------------------------------------------------------------
# generation helpers


def test_strip_fences_and_extract_block():
    completion = (
        "Updated diagram:\n```plantuml\n@startuml\nstart\n:A;\nstop\n"
        "@enduml\n```\ntrailing remark\n"
    )
    assert "```" not in strip_fences(completion)
    block = extract_diagram_block(completion)
    assert block == "@startuml\nstart\n:A;\nstop\n@enduml\n"
    assert extract_diagram_block("no diagram here") is None
    assert extract_diagram_block("@enduml first\n@startuml\nlater") is None


def _accepted(protocol, key, value=None):
    entry = ExtractedEntry(name=key, type="float", value=value, protocol=protocol)
    return AcceptedEntry(entry=entry, resolved_key=key)


def test_render_relevant_entries():
    assert render_relevant_entries([]) == "(none)"
    text = render_relevant_entries([
        _accepted("VSS", "Vehicle.Speed.Target", "25.0"),
        _accepted("CAN", "BrakeCmd"),
    ])
    assert text == "VSS Vehicle.Speed.Target = 25.0\nCAN BrakeCmd"


def test_generate_chain_happy_path():
    completion = "Here you go:\n```plantuml\n" + LINEAR + "```\n"
    prompts = []
    gateway = scripted_gateway([completion], record_prompts=prompts)
    block, document = generate_chain("code", "@startuml\n@enduml", [], gateway)
    assert block == LINEAR
    assert document.graph == parse_activity_diagram(block)
    assert dict(document.metadata) == {
        "source_digest": sha256_text("code"),
        "generation_prompt_digest": prompt_digest(prompts[0]),
    }


def test_generate_chain_prompt_embeds_all_three_bindings():
    prompts = []
    gateway = scripted_gateway([LINEAR], record_prompts=prompts)
    generate_chain("CODE-TEXT", "CHAIN-TEXT",
                   [_accepted("CAN", "BrakeCmd", "50")], gateway)
    (prompt,) = prompts
    assert prompt == build_chain_prompt("CODE-TEXT", "CHAIN-TEXT",
                                        "CAN BrakeCmd = 50")
    assert "CODE-TEXT" in prompt and "CHAIN-TEXT" in prompt


def test_generate_chain_without_block_keeps_raw_completion():
    gateway = scripted_gateway(["I could not produce a diagram, sorry."])
    with pytest.raises(ChainGenerationError) as err:
        generate_chain("code", "chain", [], gateway)
    assert "no @startuml block" in str(err.value)
    assert err.value.raw_text == "I could not produce a diagram, sorry."
    assert err.value.cause is None


def test_generate_chain_with_unparseable_block_carries_cause():
    bad = "```\n@startuml\nstart\nfork\nstop\n@enduml\n```"
    gateway = scripted_gateway([bad])
    with pytest.raises(ChainGenerationError) as err:
        generate_chain("code", "chain", [], gateway)
    assert "does not parse" in str(err.value)
    assert isinstance(err.value.cause, DiagramParseError)
    assert "@startuml" in err.value.raw_text
