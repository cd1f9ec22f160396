"""The activity-diagram parser and the chain writer against the code they
replaced.

The first reference below is the earlier parser, kept verbatim: it matched
each action line with a regex and built each ``Node`` twice, its framing
built a new pair for each body line, and its structure check built forward,
backward and outgoing maps, flooded the graph both ways and checked the
outgoing edges of every action, decision and stop. On any text both must
give an equal graph, or the same error: type and message.

The earlier event naming is kept too: ``normalize_name`` as a regex
substitution, and ``to_chain_document`` naming one action at a time with it.
On any text, and on any parsed graph, both must agree.

The second is the earlier chain serializer, kept verbatim: it built a dict
per node and edge and handed the whole document to ``canonical_json``. On
any document both must give the same text.
"""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdv_guard import eventchain
from sdv_guard.errors import DiagramParseError, SdvGuardError, StructureError, TransformError
from sdv_guard.eventchain import (
    NODE_KINDS,
    NOTE_KEYS,
    _ELSE_RE,
    _IF_RE,
    _NOTE_RE,
    ActivityGraph,
    ChainDocument,
    Edge,
    Node,
    parse_chain_document,
    serialize_chain,
)
from sdv_guard.pipeline.cli import main
from sdv_guard.util import canonical_json, json_scalars, normalize_name, sha256_text

from conftest import FIXTURES
from test_eventchain import _EDITS, _JUNK_LINES, _STATEMENT, _diagram, _if_lines

_ACTION_RE = re.compile(r"^:(?P<label>.*);$")

# ---------------------------------------------------------------------------
# reference: the earlier parser, framing and structure check


def plantuml_body(text: str, error_type: type[SdvGuardError]) -> list[tuple[int, str]]:
    content = [(n, line) for n, raw in enumerate(text.splitlines(), start=1)
               if (line := raw.strip())]
    if not content or content[0][1] != "@startuml":
        raise error_type("diagram must begin with @startuml",
                         line=content[0][0] if content else 1)
    if content[-1][1] != "@enduml":
        raise error_type("diagram must end with @enduml", line=content[-1][0])
    body = []
    for lineno, line in content[1:-1]:
        if line in ("@startuml", "@enduml"):
            raise error_type("nested diagram delimiter", line=lineno)
        if not line.startswith("'"):
            body.append((lineno, line))
    return body


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.nodes: list[Node] = []
        self.edges: list[Edge] = []
        self.counter = 0
        # dangling edge sources waiting for their target: (node_id, guard)
        self.frontier: list[tuple[str, str | None]] = []
        self.if_stack: list[dict] = []
        self.last_action: str | None = None
        self.notes: dict[str, list[tuple[str, str]]] = {}

    def new_node(self, kind: str, label: str = "") -> str:
        self.counter += 1
        node_id = f"n{self.counter}"
        self.nodes.append(Node(id=node_id, kind=kind, label=label))
        return node_id

    def connect(self, node_id: str) -> None:
        for src, guard in self.frontier:
            self.edges.append(Edge(src=src, dst=node_id, guard=guard))
        self.frontier = []

    def parse(self) -> ActivityGraph:
        for lineno, line in plantuml_body(self.text, DiagramParseError):
            if line == "start":
                node_id = self.new_node("start")
                self.frontier = [(node_id, None)]
                self.last_action = None
            elif line == "stop":
                node_id = self.new_node("stop")
                self.connect(node_id)
                self.last_action = None
            elif match := _ACTION_RE.match(line):
                node_id = self.new_node("action", label=match.group("label").strip())
                self.connect(node_id)
                self.frontier = [(node_id, None)]
                self.last_action = node_id
            elif match := _IF_RE.match(line):
                node_id = self.new_node("decision", label=match.group("cond").strip())
                self.connect(node_id)
                guard = (match.group("guard") or "yes").strip()
                self.if_stack.append({
                    "decision": node_id,
                    "arms": [],
                    "has_else": False,
                    "line": lineno,
                })
                self.frontier = [(node_id, guard)]
                self.last_action = None
            elif match := _ELSE_RE.match(line):
                if not self.if_stack:
                    raise DiagramParseError("'else' outside an if block", line=lineno)
                frame = self.if_stack[-1]
                if frame["has_else"]:
                    raise DiagramParseError("duplicate 'else' in if block", line=lineno)
                frame["arms"].append(self.frontier)
                frame["has_else"] = True
                guard = (match.group("guard") or "no").strip()
                self.frontier = [(frame["decision"], guard)]
                self.last_action = None
            elif line == "endif":
                if not self.if_stack:
                    raise DiagramParseError("'endif' without a matching 'if'", line=lineno)
                frame = self.if_stack.pop()
                arms = frame["arms"] + [self.frontier]
                if not frame["has_else"]:
                    arms.append([(frame["decision"], "no")])
                incoming = [pair for arm in arms for pair in arm]
                if incoming:
                    node_id = self.new_node("merge")
                    self.frontier = incoming
                    self.connect(node_id)
                    self.frontier = [(node_id, None)]
                else:
                    self.frontier = []
                self.last_action = None
            elif match := _NOTE_RE.match(line):
                self._attach_note(lineno, match.group("key"), match.group("value").strip())
            else:
                raise DiagramParseError(f"unsupported directive '{line}'", line=lineno)
        if self.if_stack:
            raise DiagramParseError(
                "if block is never closed", line=self.if_stack[-1]["line"]
            )
        nodes = tuple(
            Node(id=n.id, kind=n.kind, label=n.label,
                 notes=tuple(self.notes.get(n.id, ())))
            for n in self.nodes
        )
        graph = ActivityGraph(nodes=nodes, edges=tuple(self.edges))
        _validate_structure(graph)
        return graph

    def _attach_note(self, lineno: int, key: str, value: str) -> None:
        if key not in NOTE_KEYS:
            raise DiagramParseError(
                f"unknown note key '{key}' (expected one of {', '.join(NOTE_KEYS)})",
                line=lineno,
            )
        if self.last_action is None:
            raise DiagramParseError("note has no preceding action", line=lineno)
        existing = self.notes.setdefault(self.last_action, [])
        if any(name == key for name, _ in existing):
            raise DiagramParseError(f"duplicate note key '{key}'", line=lineno)
        existing.append((key, value))


def _validate_structure(graph: ActivityGraph) -> None:
    starts = [n for n in graph.nodes if n.kind == "start"]
    stops = [n for n in graph.nodes if n.kind == "stop"]
    if len(starts) != 1:
        raise StructureError(
            f"diagram must have exactly one start node, found {len(starts)}"
        )
    if not stops:
        raise StructureError("diagram has no stop node")

    forward: dict[str, list[str]] = {n.id: [] for n in graph.nodes}
    backward: dict[str, list[str]] = {n.id: [] for n in graph.nodes}
    outgoing: dict[str, list[Edge]] = {n.id: [] for n in graph.nodes}
    for edge in graph.edges:
        forward[edge.src].append(edge.dst)
        backward[edge.dst].append(edge.src)
        outgoing[edge.src].append(edge)

    reachable = _flood([starts[0].id], forward)
    unreachable = sorted(set(forward) - reachable)
    if unreachable:
        raise StructureError(
            "unreachable from start: " + ", ".join(unreachable)
        )
    reaches_stop = _flood([stop.id for stop in stops], backward)
    stranded = sorted(set(forward) - reaches_stop)
    if stranded:
        raise StructureError(
            "cannot reach any stop: " + ", ".join(stranded)
        )
    for node in graph.nodes:
        out = outgoing[node.id]
        if node.kind == "action" and len(out) != 1:
            raise StructureError(
                f"action '{node.id}' must have exactly one outgoing edge, has {len(out)}"
            )
        if node.kind == "decision":
            guards = [e.guard or "" for e in out]
            if len(out) < 2:
                raise StructureError(
                    f"decision '{node.id}' must have at least two outgoing edges"
                )
            if len(set(guards)) != len(guards):
                raise StructureError(
                    f"decision '{node.id}' has duplicate guards"
                )
        if node.kind == "stop" and out:
            raise StructureError(f"stop '{node.id}' must have no outgoing edges")


def _flood(origins: list[str], adjacency: dict[str, list[str]]) -> set[str]:
    """Every node reachable from any of ``origins``, the origins included."""
    seen = set(origins)
    queue = list(origins)
    while queue:
        current = queue.pop()
        for nxt in adjacency[current]:
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return seen


def _reference(text: str) -> ActivityGraph:
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# both sides


def _outcome(fn, arg):
    try:
        return fn(arg)
    except SdvGuardError as exc:
        return type(exc), str(exc)


def _same(text: str):
    expected = _outcome(_reference, text)
    assert _outcome(eventchain.parse_activity_diagram, text) == expected
    return expected


def test_the_two_sides_are_different_parsers():
    assert eventchain._Parser is not _Parser
    assert eventchain.plantuml_body is not plantuml_body
    assert eventchain._validate_structure is not _validate_structure


@pytest.mark.parametrize("path", sorted((FIXTURES / "chains").glob("*.puml")),
                         ids=lambda path: path.name)
def test_fixture_diagrams_parse_to_equal_graphs(path):
    assert isinstance(_same(path.read_text(encoding="utf-8")), ActivityGraph)


def _body(*lines: str) -> str:
    return "\n".join(["@startuml", *lines, "@enduml"])


# every structure error a diagram can reach, and diagrams too large to
# check by hand; None where the diagram parses
@pytest.mark.parametrize("text, message", [
    pytest.param(_body("start", ":A;", "stop", "start", "stop"),
                 "diagram must have exactly one start node, found 2", id="two-starts"),
    pytest.param(_body(":A;", "stop"),
                 "diagram must have exactly one start node, found 0", id="no-start"),
    pytest.param(_body("start", ":A;"), "diagram has no stop node", id="no-stop"),
    pytest.param(_body(":A;", "start", ":B;", "stop"),
                 "unreachable from start: n1", id="action-before-start"),
    pytest.param(_body("start", "stop", ":A;", ":B;", "stop"),
                 "unreachable from start: n3, n4, n5", id="actions-after-a-stop"),
    pytest.param(_body("if (x) then (yes)", "start", "else (no)", "endif", "stop"),
                 "unreachable from start: n1", id="start-inside-an-arm"),
    pytest.param(_body("start", "if (x) then (yes)", "stop", "else (no)", ":A;", "endif"),
                 "cannot reach any stop: n4, n5", id="stranded-arm"),
    pytest.param(_body("start", "stop", *[f":A{i};" for i in range(8)], "stop"),
                 "unreachable from start: n10, n11, n3, n4, n5, n6, n7, n8, n9",
                 id="unreachable-ids-in-text-order"),
    pytest.param(_body("start", "if (x) then (yes)", "stop", "else (no)",
                       *[f":A{i};" for i in range(8)], "endif"),
                 "cannot reach any stop: n10, n11, n12, n4, n5, n6, n7, n8, n9",
                 id="stranded-ids-in-text-order"),
    pytest.param(_body("start", "if (x) then (no)", ":A;", "endif", "stop"),
                 "decision 'n2' has duplicate guards", id="implicit-no-twice"),
    pytest.param(_body("start", "if (x) then (a)", "else (a)", "endif",
                       "if (y) then ( )", "else ()", "endif", "stop"),
                 "decision 'n2' has duplicate guards", id="first-duplicate-named"),
    pytest.param(_body("start", *["if (exit?) then (yes)", "stop", "endif"] * 2000,
                       ":Stranded;"),
                 "cannot reach any stop: n6001, n6002", id="2000-exits"),
    pytest.param(_body("start", *[f":Step {i};" for i in range(1500)], "stop"), None,
                 id="1500-actions"),
    pytest.param(_body("start", *["if (a?) then (yes)", ":A;", "else (no)", ":B;",
                                  "endif"] * 12, "stop"), None, id="12-decisions"),
])
def test_structure_checks_match_the_reference(text, message):
    outcome = _same(text)
    if message is None:
        assert isinstance(outcome, ActivityGraph)
    else:
        assert outcome == (StructureError, message)


@settings(max_examples=2000, deadline=None, derandomize=True)
@given(statements=st.lists(_STATEMENT, max_size=5), edits=_EDITS)
def test_fuzzed_diagrams_match_the_reference(statements, edits):
    _same(_diagram(statements, edits))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(lines=st.lists(_JUNK_LINES, max_size=12))
def test_junk_diagrams_match_the_reference(lines):
    _same(_body(*lines))


# ---------------------------------------------------------------------------
# reference: the earlier event naming

_NORM_RE = re.compile(r"[^a-z0-9]+")


def _ref_normalize_name(text: str) -> str:
    return _NORM_RE.sub("-", text.lower()).strip("-")


def _ref_to_chain_document(graph: ActivityGraph, source_digest: str = "",
                           generation_prompt_digest: str = "") -> ChainDocument:
    events: list[tuple[str, str]] = []
    for node in graph.nodes:
        if node.kind != "action":
            continue
        event = _ref_normalize_name(node.label)
        if not event:
            raise TransformError(
                f"action '{node.id}' has no label to derive an event from"
            )
        events.append((node.id, event))
    metadata = (
        ("source_digest", source_digest),
        ("generation_prompt_digest", generation_prompt_digest),
    )
    return ChainDocument(graph=graph, events=tuple(events), metadata=metadata)


# characters whose lowercase is ASCII (KELVIN SIGN) or longer than one
# character (I WITH DOT ABOVE), other letters and digits outside ASCII, each
# kind of line break, and separators ASCII and not
_NAME_CHARS = "aZ9 -_.:;()\t\n\r\x0b\x1c\x85\u2028\u2029\u212aİßﬁé١\u00a0\u3000"


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(text=st.one_of(st.text(), st.text(alphabet=_NAME_CHARS, max_size=12),
                      st.text(alphabet=st.characters(max_codepoint=127))))
def test_normalize_name_is_the_regex_form(text):
    assert normalize_name(text) == _ref_normalize_name(text)


@pytest.mark.parametrize("text, name", [
    ("Pedestrian (camera) detected", "pedestrian-camera-detected"),
    ("\u212a", "k"), ("\u212aelvin", "kelvin"), ("İ", "i"), ("İstanbul", "i-stanbul"),
    ("Café", "caf"), ("Straße 2", "stra-e-2"), ("a\nb", "a-b"), ("\n", ""), ("", ""),
    (" ", ""), ("---", ""), ("é", ""), ("-Ab-", "ab"),
])
def test_normalize_name_examples(text, name):
    assert normalize_name(text) == _ref_normalize_name(text) == name


# labels mostly on one line; a line break in one splits its line
_LABELS = st.one_of(
    st.sampled_from(["A", "Ab", "C c", "", " ", "  ", "Café", "İ", "\u212a", "é", "Straße 2",
                     "Pedestrian (camera) detected", "a;b", ":x:", "\u2003y\u2003"]),
    st.text(alphabet=_NAME_CHARS.translate({ord(c): None for c in "\n\r\x0b\x1c\x85\u2028\u2029"}),
            max_size=6),
    st.text(max_size=4))
# notes that attach; an edit's junk line may repeat a key or name an unknown one
_NOTES = st.lists(st.sampled_from(["note right: input=x", "note right: output = y é",
                                   "note right:input_format=json", "note right: output_format="]),
                  max_size=2, unique=True)
# an action with any label and up to two notes, or now and then a stop; as
# statements, in if blocks whose arms may be empty
_RICH_STATEMENT = st.recursive(
    st.builds(lambda label, notes: [f":{label};", *notes], _LABELS, _NOTES)
    | st.sampled_from([["stop"], [":A;"], [":Ab;", "note right: output=x"]]),
    lambda stmt: st.tuples(st.lists(stmt, max_size=3),
                           st.none() | st.lists(stmt, max_size=3)).map(_if_lines),
    max_leaves=10)


def _same_document(graph: ActivityGraph) -> None:
    """``to_chain_document`` of a parsed graph gives the reference's
    document, or its error, and serializes as the reference does."""
    expected = _outcome(_ref_to_chain_document, graph)
    document = _outcome(eventchain.to_chain_document, graph)
    assert document == expected
    if isinstance(document, ChainDocument):
        assert serialize_chain(document) == _ref_serialize_chain(document)


@pytest.mark.parametrize("lines, outcome", [
    (["start", ":;", "stop"], (TransformError,
                               "action 'n2' has no label to derive an event from")),
    (["start", ":A;", ": ;", "stop"], (TransformError,
                                       "action 'n3' has no label to derive an event from")),
    (["start", ":é;", "stop"], (TransformError,
                                "action 'n2' has no label to derive an event from")),
    (["start", ":Café;", "note right: input=x", "note right: output=y", ":İ;", "stop"],
     (("n2", "caf"), ("n3", "i"))),
    (["start", ":\u212a;", "if (x) then (yes)", "else (no)", "endif", "stop"], (("n2", "k"),)),
    (["start", "if (x) then (yes)", "endif", ":A;", "stop"], (("n4", "a"),)),
])
def test_named_diagrams_match_the_reference(lines, outcome):
    graph = _same(_body(*lines))
    _same_document(graph)
    document = _outcome(eventchain.to_chain_document, graph)
    assert (document.events if isinstance(document, ChainDocument) else document) == outcome


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(statements=st.lists(_RICH_STATEMENT, max_size=5), edits=st.just([]) | _EDITS)
def test_diagrams_with_notes_and_any_label_match_the_reference(statements, edits):
    graph = _same(_diagram(statements, edits))
    if isinstance(graph, ActivityGraph):
        _same_document(graph)


# ---------------------------------------------------------------------------
# reference: the earlier chain serializer


def _ref_serialize_chain(document: ChainDocument) -> str:
    """Canonical JSON form; equal documents serialize to identical bytes."""
    events = dict(document.events)
    nodes = []
    for node in document.graph.nodes:
        obj: dict = {"id": node.id, "kind": node.kind, "label": node.label}
        if node.id in events:
            obj["event"] = events[node.id]
        if node.notes:
            obj["notes"] = {k: v for k, v in node.notes}
        nodes.append(obj)
    edges = []
    for edge in document.graph.edges:
        obj = {"from": edge.src, "to": edge.dst}
        if edge.guard is not None:
            obj["guard"] = edge.guard
        edges.append(obj)
    return canonical_json({
        "nodes": nodes,
        "edges": edges,
        "metadata": {k: v for k, v in document.metadata},
    })


# strings that JSON must escape or that sit at the edge of what it keeps:
# quotes, backslashes, every control character, line and paragraph
# separators, DEL, non-BMP text, the writer's own separators, and ""
_AWKWARD = ['"', "\\", *map(chr, range(0x20)), "\u2028", "\u2029", "\x7f", "\u00e9",
            "\U0001f600", "/", ",\n  ", "}", "{", '","', ""]
_TEXT = st.lists(st.sampled_from(_AWKWARD) | st.text(max_size=3), max_size=4).map("".join)


@st.composite
def _documents(draw) -> ChainDocument:
    """A chain document built directly, so any string may sit anywhere: node
    ids (some repeated), kinds, labels, notes, events for some nodes (and
    for ids no node has), edges between nodes or unknown ids, with or
    without a guard, and metadata."""
    ids = draw(st.lists(_TEXT, max_size=6))
    nodes = tuple(Node(node_id, draw(st.sampled_from(NODE_KINDS) | _TEXT), draw(_TEXT),
                       tuple(draw(st.lists(st.tuples(st.sampled_from(NOTE_KEYS) | _TEXT,
                                                     _TEXT), max_size=3))))
                  for node_id in ids)
    endpoint = st.sampled_from(ids) | _TEXT if ids else _TEXT
    edges = tuple(draw(st.lists(st.builds(Edge, endpoint, endpoint, st.none() | _TEXT),
                                max_size=8)))
    events = tuple(draw(st.lists(st.tuples(endpoint, _TEXT), max_size=4)))
    metadata = tuple(draw(st.lists(st.tuples(_TEXT, _TEXT), max_size=3)))
    return ChainDocument(graph=ActivityGraph(nodes=nodes, edges=edges),
                         events=events, metadata=metadata)


def test_the_two_sides_are_different_serializers():
    assert serialize_chain.__code__ is not _ref_serialize_chain.__code__


def test_json_strings_write_each_string_as_canonical_json():
    assert json_scalars(_AWKWARD, ensure_ascii=False) == list(map(canonical_json, _AWKWARD))
    assert json_scalars([], ensure_ascii=False) == []
    assert json_scalars(iter(["a"]), ensure_ascii=False) == ['"a"']


@settings(max_examples=500, deadline=None, derandomize=True)
@given(texts=st.lists(_TEXT | st.text(), max_size=6))
def test_fuzzed_strings_match_canonical_json(texts):
    assert json_scalars(texts, ensure_ascii=False) == list(map(canonical_json, texts))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(document=_documents())
def test_fuzzed_documents_serialize_as_the_reference(document):
    text = serialize_chain(document)
    assert text == _ref_serialize_chain(document)
    assert document.text == text


@pytest.mark.parametrize("path", sorted((FIXTURES / "chains").glob("*.puml")),
                         ids=lambda path: path.name)
def test_fixture_chains_serialize_as_the_reference(path):
    document = eventchain.to_chain_document(
        eventchain.parse_activity_diagram(path.read_text(encoding="utf-8")),
        source_digest="\"s\"", generation_prompt_digest="\u2028")
    text = serialize_chain(document)
    assert text == _ref_serialize_chain(document)
    assert serialize_chain(parse_chain_document(text)) == text


def test_a_long_chain_serializes_as_the_reference():
    # thousands of strings, and a None guard on most edges, in one json_scalars call
    statements = "\n".join(f":step {i} \u00e9 \"q\";" if i % 50 else
                           f"if (mode {i}?) then (yes)\n:branch {i};\nendif"
                           for i in range(1_500))
    document = eventchain.to_chain_document(eventchain.parse_activity_diagram(
        f"@startuml\nstart\n{statements}\nstop\n@enduml\n"))
    assert len(document.graph.nodes) > 1_500
    assert serialize_chain(document) == _ref_serialize_chain(document)


def test_the_readme_scenario_keeps_its_chain_digest(tmp_path, capsys):
    out = tmp_path / "s1"
    code = main(["--out", str(out), "analyze-safety", "--code", str(FIXTURES / "code" / "s1.py"),
                 "--vss", str(FIXTURES / "catalogs" / "vss.json"),
                 "--can", str(FIXTURES / "catalogs" / "can.json"),
                 "--rules", str(FIXTURES / "rules" / "rules-s1.txt"),
                 "--replay", str(FIXTURES / "replay" / "s1.json")])
    assert code == 1
    digest = "bf737cf9a993de0632507dab10196ae3c9bcfc18ba9ca36014bb11c53befde8d"
    assert f"chain: {digest}\n" in capsys.readouterr().out
    text = (out / "chain_iter1.json").read_text(encoding="utf-8")
    assert sha256_text(text.removesuffix("\n")) == digest
    assert _ref_serialize_chain(parse_chain_document(text)) + "\n" == text
