"""Activity-diagram event chains: parsing, canonical documents, path enumeration.

The accepted PlantUML subset is exactly:

    @startuml / @enduml        block delimiters
    start / stop               one start, one or more stops
    :Some label;               action node
    if (cond) then (yes)       decision; arms end at else/endif
    else (no)
    endif
    note right: key=value      attached to the closest preceding action;
                               keys: input, input_format, output, output_format
    ' comment                  ignored

Anything else is a parse error: unknown directives fail closed rather than
being skipped. Labels are normalized into event names by lowercasing,
collapsing each run of characters outside ASCII ``a-z0-9`` to one hyphen
and trimming, so ":Pedestrian (camera) detected;" becomes
``pedestrian-camera-detected`` and ":Café;" becomes ``caf``.

A parsed graph serializes to a canonical JSON document:

    {"nodes": [{"id", "kind", "label", "event"?, "notes"?}, ...],
     "edges": [{"from", "to", "guard"?}, ...],
     "metadata": {"source_digest": ..., "generation_prompt_digest": ...}}

``serialize_chain`` writes that text directly, without building the dict,
byte for byte as ``canonical_json`` would write it; a document keeps its
text once written (``ChainDocument.text``), so the artifact and the digest
share it. Nodes, edges and event steps are named tuples, built with
``tuple.__new__`` from their fields where many are built at once; the parser
builds each node once, when its line is read, and a note line replaces its
action's node.

Parsing that document back yields an equal document. The canonical form can
encode cycles and dead ends; ``ChainOrder`` is the one walk that rejects them.
It checks a document's graph and orders it once, without recursion, into
straight runs that hold their event steps and distinct events, and both
``enumerate_paths`` (every maximal start-to-stop path, edges followed in
declaration order) and ``safety_rules.check`` start from it: a path's steps
are the steps of the runs it walks, joined.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from operator import itemgetter
from typing import NamedTuple

from .errors import (
    ChainGenerationError,
    DiagramParseError,
    StructureError,
    TransformError,
    UnsupportedStructureError,
)
from .llm_gateway import PC2, CompletionRequest, LlmGateway, prompt_digest, render_prompt
from .util import (
    canonical_json,
    json_scalars,
    load_json,
    normalize_name,
    plantuml_body,
    sha256_text,
    tokenize_each,
)

NODE_KINDS = ("start", "stop", "action", "decision", "merge")
NOTE_KEYS = ("input", "input_format", "output", "output_format")

_IF_RE = re.compile(r"^if\s*\((?P<cond>[^)]*)\)\s*then(?:\s*\((?P<guard>[^)]*)\))?$")
_ELSE_RE = re.compile(r"^else(?:\s*\((?P<guard>[^)]*)\))?$")
_NOTE_RE = re.compile(
    r"^note\s+right\s*:\s*(?P<key>[A-Za-z_][A-Za-z0-9_]*)\s*=\s*(?P<value>.*)$"
)


# a named tuple built from a tuple of its fields, without its argument handling
_new = tuple.__new__


class Node(NamedTuple):
    id: str
    kind: str
    label: str = ""
    notes: tuple[tuple[str, str], ...] = ()


class Edge(NamedTuple):
    src: str
    dst: str
    guard: str | None = None


@dataclass(frozen=True)
class ActivityGraph:
    nodes: tuple[Node, ...]
    edges: tuple[Edge, ...]


class EventStep(NamedTuple):
    """One action on a path; its position is its index in the path's steps."""

    event: str
    node_id: str


@dataclass(frozen=True)
class EventSequence:
    steps: tuple[EventStep, ...]

    @property
    def events(self) -> tuple[str, ...]:
        return tuple(map(itemgetter(0), self.steps))

    def __len__(self) -> int:
        return len(self.steps)


@dataclass(frozen=True)
class ChainDocument:
    graph: ActivityGraph
    events: tuple[tuple[str, str], ...]  # (action node id, normalized event)
    metadata: tuple[tuple[str, str], ...] = ()

    @cached_property
    def text(self) -> str:
        """The canonical JSON form, written once per document."""
        return serialize_chain(self)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        # in creation order; a note line replaces its action's Node
        self.nodes: list[Node] = []
        self.edges: list[Edge] = []
        # dangling edge sources waiting for their target: (node_id, guard)
        self.frontier: list[tuple[str, str | None]] = []
        self.if_stack: list[dict] = []
        self.last_action: int | None = None  # the index in nodes of a note's action

    def new_node(self, kind: str, label: str = "") -> str:
        node_id = f"n{len(self.nodes) + 1}"
        self.nodes.append(_new(Node, (node_id, kind, label, ())))
        return node_id

    def connect(self, node_id: str) -> None:
        """Edges from every dangling source, all created earlier, to the node
        just created: ``edges`` stays in the order its targets were made."""
        for src, guard in self.frontier:
            self.edges.append(_new(Edge, (src, node_id, guard)))
        self.frontier = []

    def parse(self) -> ActivityGraph:
        for lineno, line in plantuml_body(self.text, DiagramParseError):
            # an action; a body line is stripped and holds no line break
            if line[0] == ":" and line[-1] == ";":
                node_id = self.new_node("action", line[1:-1].strip())
                self.connect(node_id)
                self.frontier = [(node_id, None)]
                self.last_action = len(self.nodes) - 1
            elif line == "start":
                node_id = self.new_node("start")
                self.frontier = [(node_id, None)]
                self.last_action = None
            elif line == "stop":
                node_id = self.new_node("stop")
                self.connect(node_id)
                self.last_action = None
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
        graph = ActivityGraph(nodes=tuple(self.nodes), edges=tuple(self.edges))
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
        node = self.nodes[self.last_action]
        if any(name == key for name, _ in node.notes):
            raise DiagramParseError(f"duplicate note key '{key}'", line=lineno)
        self.nodes[self.last_action] = node._replace(notes=(*node.notes, (key, value)))


def parse_activity_diagram(text: str) -> ActivityGraph:
    return _Parser(text).parse()


def _validate_structure(graph: ActivityGraph) -> None:
    """Check a parsed graph. Each edge's source was created before its target
    and the edges come in target-creation order, so one pass forward over the
    edges finds every node reachable from the start, and one pass backward
    every node that reaches a stop. On a graph that passes both, the grammar
    has given each action one outgoing edge, each decision its two guarded
    edges and each stop none, so only a decision's guards are left to check."""
    starts = [n.id for n in graph.nodes if n.kind == "start"]
    reaches_stop = {n.id for n in graph.nodes if n.kind == "stop"}
    if len(starts) != 1:
        raise StructureError(
            f"diagram must have exactly one start node, found {len(starts)}"
        )
    if not reaches_stop:
        raise StructureError("diagram has no stop node")

    # each flood holds node ids only, so it missed some if it holds fewer
    reachable = set(starts)
    for edge in graph.edges:
        if edge.src in reachable:
            reachable.add(edge.dst)
    if len(reachable) < len(graph.nodes):
        raise StructureError("unreachable from start: " + ", ".join(
            sorted(n.id for n in graph.nodes if n.id not in reachable)))
    for edge in reversed(graph.edges):
        if edge.dst in reaches_stop:
            reaches_stop.add(edge.src)
    if len(reaches_stop) < len(graph.nodes):
        raise StructureError("cannot reach any stop: " + ", ".join(
            sorted(n.id for n in graph.nodes if n.id not in reaches_stop)))
    guards: dict[str, set[str]] = {}
    for edge in graph.edges:
        if edge.guard is not None:  # only a decision's edges carry one
            guards.setdefault(edge.src, set()).add(edge.guard)
    for node in graph.nodes:
        if node.kind == "decision" and len(guards[node.id]) < 2:
            raise StructureError(
                f"decision '{node.id}' has duplicate guards"
            )


# ---------------------------------------------------------------------------
# chain documents


def to_chain_document(graph: ActivityGraph, source_digest: str = "",
                      generation_prompt_digest: str = "") -> ChainDocument:
    """Normalize action labels into events, as ``normalize_name`` does but
    with one ``tokenize_each`` call for all of them, and wrap the graph with
    metadata."""
    actions = [node for node in graph.nodes if node.kind == "action"]
    events = list(map("-".join, tokenize_each([node.label for node in actions])))
    if "" in events:
        raise TransformError(
            f"action '{actions[events.index('')].id}' has no label to derive an event from"
        )
    metadata = (
        ("source_digest", source_digest),
        ("generation_prompt_digest", generation_prompt_digest),
    )
    return ChainDocument(graph=graph, events=tuple(zip(map(itemgetter(0), actions), events)),
                         metadata=metadata)


def serialize_chain(document: ChainDocument) -> str:
    """Canonical JSON form; equal documents serialize to identical bytes.

    The text is ``canonical_json`` of the document as a dict (nodes with
    ``id``, ``kind``, ``label`` and, when present, ``event`` and ``notes``;
    edges with ``from``, ``to`` and, when present, ``guard``; the metadata),
    written without building that dict: every string comes from one
    ``json_scalars`` call, and each node and edge is one f-string with its
    keys in sorted order. ``ChainDocument.text`` keeps it.
    """
    nodes, edges = document.graph.nodes, document.graph.edges
    events = dict(document.events)
    # each event, then each node's id, kind and label, then each edge's
    # source, target and guard; zip draws from its arguments left to right
    # and stops at the first one exhausted, so each zip below takes exactly
    # its own share
    texts = iter(json_scalars(chain(events.values(),
                                    chain.from_iterable(map(itemgetter(0, 1, 2), nodes)),
                                    chain.from_iterable(edges)), ensure_ascii=False))
    event_text = dict(zip(events, texts))
    node_texts = []
    for node, node_id, kind, label in zip(nodes, texts, texts, texts):
        event = event_text.get(node.id)
        if node.notes:
            lead = "{" if event is None else f'{{"event":{event},'
            node_texts.append(f'{lead}"id":{node_id},"kind":{kind},"label":{label},'
                              f'"notes":{canonical_json(dict(node.notes))}}}')
        elif event is None:
            node_texts.append(f'{{"id":{node_id},"kind":{kind},"label":{label}}}')
        else:
            node_texts.append(f'{{"event":{event},"id":{node_id},"kind":{kind},'
                              f'"label":{label}}}')
    edge_texts = [f'{{"from":{src},"to":{dst}}}' if edge.guard is None
                  else f'{{"from":{src},"guard":{guard},"to":{dst}}}'
                  for edge, src, dst, guard in zip(edges, texts, texts, texts)]
    return (f'{{"edges":[{",".join(edge_texts)}],'
            f'"metadata":{canonical_json(dict(document.metadata))},'
            f'"nodes":[{",".join(node_texts)}]}}')


def parse_chain_document(text: str) -> ChainDocument:
    """Inverse of serialize_chain; validates the document's shape, ids, kinds
    and edge endpoints only.

    Every malformed shape (a field of the wrong JSON type) is a
    ``TransformError`` naming the field. Cycles and dead ends are
    representable here on purpose: ``ChainOrder`` rejects them when the
    paths are enumerated or checked, not at document parse time.
    """
    raw = load_json(text, TransformError, "chain document")
    if not isinstance(raw, dict):
        raise TransformError("chain document must be a JSON object")
    nodes = []
    events = []
    ids: set[str] = set()
    for obj in _objects(raw, "nodes"):
        kind = obj.get("kind")
        node_id = obj.get("id")
        if not isinstance(node_id, str) or not node_id:
            raise TransformError("chain node is missing its id")
        if node_id in ids:
            raise TransformError(f"duplicate chain node id '{node_id}'")
        ids.add(node_id)
        if kind not in NODE_KINDS:
            raise TransformError(f"chain node '{node_id}' has unknown kind '{kind}'")
        notes = obj.get("notes", {})
        if not isinstance(notes, dict):
            raise TransformError(f"chain node '{node_id}' notes must be an object")
        for key, value in notes.items():
            if key not in NOTE_KEYS:
                raise TransformError(f"chain node '{node_id}' has unknown note '{key}'")
            if not isinstance(value, str):
                raise TransformError(f"chain node '{node_id}' note '{key}' must be a string")
        label = obj.get("label", "")
        if not isinstance(label, str):
            raise TransformError(f"chain node '{node_id}' label must be a string")
        nodes.append(_new(Node, (node_id, kind, label, tuple(notes.items()))))
        if kind == "action":
            event = obj.get("event")
            if not isinstance(event, str) or not event:
                raise TransformError(f"action '{node_id}' is missing its event")
            if event != normalize_name(event):
                raise TransformError(
                    f"action '{node_id}' event '{event}' is not normalized"
                )
            events.append((node_id, event))
    edges = []
    for obj in _objects(raw, "edges"):
        src, dst, guard = obj.get("from"), obj.get("to"), obj.get("guard")
        for end, value in (("from", src), ("to", dst)):
            if not isinstance(value, str):
                raise TransformError(f"chain edge '{end}' must be a node id, got {value!r}")
        if src not in ids or dst not in ids:
            raise TransformError(f"edge {src!r} -> {dst!r} references unknown nodes")
        if guard is not None and not isinstance(guard, str):
            raise TransformError(f"edge {src!r} -> {dst!r} guard must be a string")
        edges.append(_new(Edge, (src, dst, guard)))
    metadata = raw.get("metadata", {})
    if not isinstance(metadata, dict):
        raise TransformError("chain metadata must be an object")
    for key, value in metadata.items():
        if not isinstance(value, str):
            raise TransformError(f"chain metadata '{key}' must be a string")
    return ChainDocument(
        graph=ActivityGraph(nodes=tuple(nodes), edges=tuple(edges)),
        events=tuple(events),
        metadata=tuple(sorted(metadata.items())),
    )


def _objects(raw: dict, field: str) -> list[dict]:
    """The array ``raw[field]`` (empty when absent), checked to hold only objects."""
    items = raw.get(field, [])
    if not isinstance(items, list):
        raise TransformError(f"chain document '{field}' must be an array")
    if not all(isinstance(item, dict) for item in items):
        raise TransformError(f"chain document '{field}' entries must be objects")
    return items


def chain_digest(document: ChainDocument) -> str:
    return sha256_text(document.text)


class Run(NamedTuple):
    """A straight run: a maximal chain of reachable nodes in which each node
    but the last has one outgoing edge, to a node with one incoming edge.
    Every path that enters a run walks all of it, so its steps are built
    once and shared by every path through it. ``events`` lists the run's
    distinct events in order of first occurrence."""

    nodes: tuple[str, ...]
    steps: tuple[EventStep, ...]  # its actions, in order
    events: tuple[str, ...]  # its distinct events, in order of first occurrence
    successors: tuple[int, ...]  # runs the last node's edges enter, in declaration
    # order, as indices into ChainOrder.runs; empty after a stop


class ChainOrder:
    """A chain document's start-reachable graph, checked and cut into straight
    runs in topological order, once.

    The one walk over a chain's graph: iterative, following edges in
    declaration order, walking each straight run in one go and marking nodes
    in progress and finished. It raises the structure errors (not exactly
    one start, a cycle, a dead end) for the first offending node in that
    order; a node it has fully explored holds no error, so it is never
    entered twice. ``runs[0]`` starts at the start node, and every edge
    between runs goes to a later one. Edges are counted, not neighbours: a
    decision whose two edges both enter its merge (both arms empty) ends its
    run, and each edge enters the merge's run once. Each reachable action's
    ``EventStep`` is built here, once, in its run; ``events`` is the set of
    the runs' events.
    """

    def __init__(self, document: ChainDocument):
        graph = document.graph
        starts = [n for n in graph.nodes if n.kind == "start"]
        if len(starts) != 1:
            raise StructureError(
                f"path enumeration needs exactly one start node, found {len(starts)}"
            )
        kinds = {n.id: n.kind for n in graph.nodes}
        events = dict(document.events)
        # the targets of each node's edges, in declaration order; a node
        # without edges has no entry
        outgoing: dict[str, list[str]] = {}
        for edge in graph.edges:
            targets = outgoing.get(edge.src)
            if targets is None:
                outgoing[edge.src] = [edge.dst]
            else:
                targets.append(edge.dst)
        incoming = Counter(map(itemgetter(1), graph.edges))
        # (nodes, steps, exits) per run, in the order the walk leaves them;
        # only a run's first node can be an edge's target from another run
        finished: list[tuple[list[str], list[EventStep], list[str]]] = []
        entered: set[str] = set()  # first nodes of the runs entered
        on_stack: set[str] = set()
        stack: list = [(starts[0].id, None)]  # (node to enter, None) or (None, run to leave)
        while stack:
            node_id, leaving = stack.pop()
            if leaving is not None:
                on_stack.difference_update(leaving[0])
                finished.append(leaving)
                continue
            if node_id in on_stack:
                raise UnsupportedStructureError(
                    f"chain contains a cycle through node '{node_id}'"
                )
            if node_id in entered:
                continue
            entered.add(node_id)
            nodes: list[str] = []
            steps: list[EventStep] = []
            while True:
                nodes.append(node_id)
                on_stack.add(node_id)
                kind = kinds[node_id]
                if kind == "action":
                    steps.append(_new(EventStep, (events[node_id], node_id)))
                # a stop ends every path through it
                exits = [] if kind == "stop" else outgoing.get(node_id, [])
                if not exits and kind != "stop":
                    raise StructureError(f"node '{node_id}' dead-ends before any stop")
                # a cycle back into the run is raised when the walk enters
                # its target, next
                if len(exits) != 1 or incoming[exits[0]] != 1 or exits[0] in on_stack:
                    break
                node_id = exits[0]
            run = (nodes, steps, exits)
            stack.append((None, run))
            stack.extend((dst, None) for dst in reversed(exits))
        finished.reverse()
        index = {nodes[0]: i for i, (nodes, _steps, _exits) in enumerate(finished)}
        self.runs = [Run(tuple(nodes), tuple(steps),
                         tuple(dict.fromkeys(map(itemgetter(0), steps))),
                         tuple(index[dst] for dst in exits))
                     for nodes, steps, exits in finished]
        # the distinct events of the reachable actions
        self.events: set[str] = set().union(*(run.events for run in self.runs))


def enumerate_paths(document: ChainDocument) -> list[EventSequence]:
    """Every maximal start-to-stop path, edges followed in declaration order.

    Returns the action-event sequences; decision and merge nodes contribute
    no events. The graph is checked by ``ChainOrder`` first, so a cycle
    raises an unsupported-structure error naming a node on it. The paths
    are then walked run by run with an explicit stack; each entry carries
    the path length its run starts at, so entering it first cuts the steps
    back to that length, then appends the run's steps.
    """
    order = ChainOrder(document)
    paths: list[EventSequence] = []
    steps: list[EventStep] = []
    stack = [(0, 0)]  # (run, position)
    while stack:
        run, position = stack.pop()
        del steps[position:]
        steps.extend(order.runs[run].steps)
        successors = order.runs[run].successors
        if not successors:
            paths.append(EventSequence(steps=tuple(steps)))
        stack.extend((dst, len(steps)) for dst in reversed(successors))
    return paths


# ---------------------------------------------------------------------------
# chain generation


def render_relevant_entries(accepted) -> str:
    """Stable text form of accepted entries for the chain-update construct."""
    lines = []
    for acc in accepted:
        line = f"{acc.entry.protocol} {acc.resolved_key}"
        if acc.entry.value is not None:
            line += f" = {acc.entry.value}"
        lines.append(line)
    return "\n".join(lines) if lines else "(none)"


def build_chain_prompt(code: str, current_chain: str, relevant_text: str) -> str:
    return render_prompt(PC2, {
        "current-event-chain": current_chain,
        "code": code,
        "relevant messages/signals": relevant_text,
    })


def _is_fence(line: str) -> bool:
    return line.lstrip().startswith("```")


def strip_fences(text: str) -> str:
    """Drop Markdown code-fence lines, keeping everything between them."""
    return "\n".join(line for line in text.splitlines() if not _is_fence(line))


def fenced_block(text: str) -> str | None:
    """The lines between the first two code-fence lines; None without two."""
    lines = text.splitlines()
    fences = [index for index, line in enumerate(lines) if _is_fence(line)]
    if len(fences) < 2:
        return None
    return "\n".join(lines[fences[0] + 1:fences[1]])


def extract_diagram_block(text: str) -> str | None:
    lines = strip_fences(text).splitlines()
    start = end = None
    for index, line in enumerate(lines):
        if line.strip() == "@startuml" and start is None:
            start = index
        elif line.strip() == "@enduml" and start is not None:
            end = index
            break
    if start is None or end is None:
        return None
    return "\n".join(lines[start:end + 1]) + "\n"


def generate_chain(code: str, current_chain: str, relevant, gateway: LlmGateway,
                   ) -> tuple[str, ChainDocument]:
    """Ask the gateway for an updated diagram and lift it into a chain document.

    Returns the extracted ``@startuml`` block and its document, whose
    metadata holds the SHA-256 of the code and the digest of the prompt
    sent. A completion without a parseable block raises a generation error
    carrying the raw completion and the parse failure.
    """
    prompt = build_chain_prompt(code, current_chain, render_relevant_entries(relevant))
    completion = gateway.complete(CompletionRequest(prompt=prompt))
    block = extract_diagram_block(completion)
    if block is None:
        raise ChainGenerationError(
            "completion contains no @startuml block", raw_text=completion,
        )
    try:
        graph = parse_activity_diagram(block)
    except (DiagramParseError, StructureError) as exc:
        raise ChainGenerationError(
            f"generated diagram does not parse: {exc}", raw_text=completion, cause=exc,
        ) from exc
    return block, to_chain_document(graph, source_digest=sha256_text(code),
                                    generation_prompt_digest=prompt_digest(prompt))
