"""Rule checking and path enumeration against the recursive references.

``check`` and ``eval_rule`` run a product of precedence monitors over the
chain's DAG and never enumerate passing paths; ``enumerate_paths`` walks the
paths with an explicit stack. The references below are the implementations
they replaced, kept verbatim: a recursive path enumerator, and a checker that
evaluates every atom on every path it yields. Both sides must give equal
paths and reports, byte-identical rendered text and the same structure
errors.
"""

import json
import random
from fnmatch import fnmatchcase

import pytest

from bench import generators as gen
from sdv_guard.errors import StructureError, UnsupportedStructureError
from sdv_guard.eventchain import (
    ActivityGraph,
    ChainDocument,
    Edge,
    EventSequence,
    EventStep,
    Node,
    chain_digest,
    enumerate_paths,
    parse_activity_diagram,
    parse_chain_document,
    to_chain_document,
)
from sdv_guard.safety_rules import (
    VERDICT_PASS,
    VERDICT_VIOLATED,
    AndExpr,
    NotExpr,
    OrExpr,
    RuleAtom,
    RuleResult,
    RuleSet,
    SafetyReport,
    SafetyRule,
    Witness,
    check,
    eval_atom,
    eval_rule,
    parse_rules,
    render_report,
)


# ---------------------------------------------------------------------------
# reference: recursive path enumeration, and evaluation over every path


def _ref_enumerate_paths(document: ChainDocument) -> list[EventSequence]:
    """Every maximal start-to-stop path, edges followed in declaration order.

    Returns the action-event sequences; decision and merge nodes contribute
    no events. Cycles raise an unsupported-structure error naming a node on
    the cycle.
    """
    graph = document.graph
    starts = [n for n in graph.nodes if n.kind == "start"]
    if len(starts) != 1:
        raise StructureError(
            f"path enumeration needs exactly one start node, found {len(starts)}"
        )
    outgoing: dict[str, list[Edge]] = {n.id: [] for n in graph.nodes}
    for edge in graph.edges:
        outgoing[edge.src].append(edge)
    kinds = {n.id: n.kind for n in graph.nodes}
    events = dict(document.events)

    paths: list[EventSequence] = []
    on_stack: set[str] = set()
    steps: list[EventStep] = []

    def walk(node_id: str) -> None:
        if node_id in on_stack:
            raise UnsupportedStructureError(
                f"chain contains a cycle through node '{node_id}'"
            )
        kind = kinds[node_id]
        appended = False
        if kind == "action":
            steps.append(EventStep(
                position=len(steps), event=events[node_id], node_id=node_id,
            ))
            appended = True
        if kind == "stop":
            paths.append(EventSequence(steps=tuple(steps)))
            return
        edges = outgoing[node_id]
        if not edges:
            raise StructureError(f"node '{node_id}' dead-ends before any stop")
        on_stack.add(node_id)
        try:
            for edge in edges:
                walk(edge.dst)
        finally:
            on_stack.discard(node_id)
            if appended:
                steps.pop()

    walk(starts[0].id)
    return paths


def _ref_matches(chain_event, rule_event, rule):
    if chain_event == rule_event:
        return True
    if rule is None:
        return False
    return any(
        fnmatchcase(chain_event, pattern)
        for pattern in rule.alias_patterns(rule_event)
    )


def _ref_positions(sequence, event, rule):
    return [
        step.position
        for step in sequence.steps
        if _ref_matches(step.event, event, rule)
    ]


def _ref_eval_atom(sequence, atom, rule=None):
    lefts = _ref_positions(sequence, atom.left, rule)
    rights = _ref_positions(sequence, atom.right, rule)
    if atom.op == "before":
        return all(any(l < r for l in lefts) for r in rights)
    return all(any(r < l for r in rights) for l in lefts)


def _ref_eval_expr(expr, sequence, rule=None):
    if isinstance(expr, RuleAtom):
        return _ref_eval_atom(sequence, expr, rule)
    if isinstance(expr, NotExpr):
        return not _ref_eval_expr(expr.child, sequence, rule)
    if isinstance(expr, AndExpr):
        return all(_ref_eval_expr(c, sequence, rule) for c in expr.children)
    if isinstance(expr, OrExpr):
        return any(_ref_eval_expr(c, sequence, rule) for c in expr.children)
    raise TypeError(f"unknown expression node {expr!r}")


def _ref_expr_atoms(expr):
    if isinstance(expr, RuleAtom):
        return [expr]
    if isinstance(expr, NotExpr):
        return _ref_expr_atoms(expr.child)
    out = []
    for child in expr.children:
        out.extend(_ref_expr_atoms(child))
    return out


def _ref_eval_rule(document, rule):
    witnesses = []
    atoms = _ref_expr_atoms(rule.expr)
    for sequence in _ref_enumerate_paths(document):
        value = _ref_eval_expr(rule.expr, sequence, rule)
        ok = value if rule.mode == "require" else not value
        if not ok:
            seen = {}
            for atom in atoms:
                seen.setdefault(atom.text(), _ref_eval_atom(sequence, atom, rule))
            witnesses.append(Witness(
                sequence=sequence,
                atom_values=tuple(sorted(seen.items())),
                expr_value=value,
            ))
    verdict = VERDICT_VIOLATED if witnesses else VERDICT_PASS
    return RuleResult(rule=rule, verdict=verdict, witnesses=tuple(witnesses))


def _ref_check(document, ruleset):
    results = tuple(_ref_eval_rule(document, rule) for rule in ruleset.rules)
    return SafetyReport(results=results, chain_digest=chain_digest(document))


def _assert_same(document, ruleset):
    assert enumerate_paths(document) == _ref_enumerate_paths(document)
    expected = _ref_check(document, ruleset)
    actual = check(document, ruleset)
    assert actual.to_dict() == expected.to_dict()
    assert render_report(actual) == render_report(expected)
    assert actual == expected
    for rule, result in zip(ruleset.rules, expected.results):
        assert eval_rule(document, rule) == result


def _outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except (StructureError, UnsupportedStructureError) as exc:
        return (type(exc), str(exc))


# ---------------------------------------------------------------------------
# seeded random diagrams and rule files

_LABELS = ("A", "B", "C", "Brake", "Detect cam", "Detect lidar", "Detect (radar)", "Warn")
_RULE_EVENTS = ("a", "b", "c", "brake", "detect-cam", "detect-lidar", "detect-radar",
                "warn", "detect", "ghost")
_ALIASES = ("alias detect = detect-*", "alias brake = b*, warn",
            "alias ghost = *-radar", "alias a = c")


def _block(rng, depth: int, lines: list[str]) -> bool:
    """Append a random statement list; False once every way through it stopped."""
    for _ in range(rng.randint(0, 3)):
        if depth >= 3 or rng.random() < 0.45:
            lines.append(f":{rng.choice(_LABELS)};")
            continue
        lines.append(f"if (c{len(lines)}) then (yes)")
        alive = _arm(rng, depth, lines)
        if rng.random() < 0.6:
            lines.append("else (no)")
            alive = _arm(rng, depth, lines) or alive
        else:
            alive = True
        lines.append("endif")
        if not alive:
            return False
    return True


def _arm(rng, depth: int, lines: list[str]) -> bool:
    alive = _block(rng, depth + 1, lines)
    if alive and rng.random() < 0.2:
        lines.append("stop")
        return False
    return alive


def _random_diagram(rng) -> ChainDocument:
    lines = ["@startuml", "start"]
    if _block(rng, 0, lines):
        lines.append("stop")
    lines.append("@enduml")
    return to_chain_document(parse_activity_diagram("\n".join(lines) + "\n"))


def _random_expr(rng, depth: int) -> str:
    terms = []
    for _ in range(rng.randint(1, 2) if depth < 2 else 1):
        factors = [_random_factor(rng, depth) for _ in range(rng.randint(1, 2))]
        terms.append(" and ".join(factors))
    return " or ".join(terms)


def _random_factor(rng, depth: int) -> str:
    choice = rng.random()
    if depth < 3 and choice < 0.2:
        return "not " + _random_factor(rng, depth + 1)
    if depth < 3 and choice < 0.4:
        return f"({_random_expr(rng, depth + 1)})"
    left = rng.choice(_RULE_EVENTS)
    right = left if rng.random() < 0.15 else rng.choice(_RULE_EVENTS)
    return f"{left} {rng.choice(('before', 'after'))} {right}"


def _random_rules(rng) -> RuleSet:
    stanzas = []
    for index in range(rng.randint(1, 3)):
        lines = rng.sample(_ALIASES, rng.randint(0, 2))
        mode = rng.choice(("", "require ", "forbid "))
        lines.append(f"r{index}: {mode}{_random_expr(rng, 0)}")
        stanzas.append("\n".join(lines))
    return parse_rules("\n\n".join(stanzas) + "\n")


@pytest.mark.parametrize("seed", range(400))
def test_random_diagrams_match_reference(seed):
    rng = random.Random(seed)
    document = _random_diagram(rng)
    _assert_same(document, _random_rules(rng))


def test_fixture_chains_match_reference(fixtures_dir):
    ruleset = parse_rules((fixtures_dir / "rules" / "rules-all.txt").read_text())
    for name in ("s1", "s2", "s3", "s3-corrected"):
        text = (fixtures_dir / "chains" / f"{name}.puml").read_text()
        _assert_same(to_chain_document(parse_activity_diagram(text)), ruleset)


@pytest.mark.parametrize("decisions, rules, violated", [(4, 3, 1), (6, 4, 2), (8, 2, 2)])
def test_benchmark_diagrams_match_reference(decisions, rules, violated):
    case = gen.activity_case(random.Random(decisions), "case", decisions, rules, violated)
    document = to_chain_document(parse_activity_diagram(case.diagram))
    _assert_same(document, parse_rules(case.rules))


def test_hand_built_expressions_match_reference():
    """Repeated atoms, an empty conjunction and disjunction, deep 'not' chains."""
    document = _random_diagram(random.Random(7))
    atom = RuleAtom("a", "before", "b")
    exprs = [
        AndExpr((atom, atom, NotExpr(atom))),
        OrExpr((AndExpr(()), OrExpr(()))),
        AndExpr((OrExpr(()), RuleAtom("a", "after", "a"))),
        NotExpr(NotExpr(NotExpr(OrExpr((atom, RuleAtom("warn", "before", "warn")))))),
    ]
    rules = tuple(SafetyRule(name=f"h{i}", expr=expr, mode=mode)
                  for i, expr in enumerate(exprs) for mode in ("require", "forbid"))
    rules = tuple(SafetyRule(name=f"{r.name}{r.mode}", expr=r.expr, mode=r.mode) for r in rules)
    _assert_same(document, RuleSet(rules=rules))


# ---------------------------------------------------------------------------
# structure errors


def _graph_document(nodes, edges) -> ChainDocument:
    """A document over (id, kind) nodes; actions get their id as event."""
    return parse_chain_document(json.dumps({
        "nodes": [{"id": i, "kind": k, **({"label": i, "event": i} if k == "action" else {})}
                  for i, k in nodes],
        "edges": [{"from": s, "to": d} for s, d in edges],
    }))


_ONE_RULE = parse_rules("r: a before b\n")

_BROKEN = {
    "cycle": ([("s", "start"), ("a", "action"), ("z", "stop")],
              [("s", "a"), ("a", "a"), ("a", "z")]),
    "cycle-after-finished-branch": (
        [("s", "start"), ("d", "decision"), ("a", "action"), ("m", "merge"),
         ("b", "action"), ("c", "action"), ("z", "stop")],
        [("s", "d"), ("d", "a"), ("d", "b"), ("a", "m"), ("m", "z"),
         ("b", "c"), ("c", "m"), ("c", "b")]),
    "dead-end": ([("s", "start"), ("a", "action")], [("s", "a")]),
    "dead-end-after-shared-node": (
        [("s", "start"), ("d", "decision"), ("a", "action"), ("b", "action"),
         ("x", "decision"), ("z", "stop")],
        [("s", "d"), ("d", "a"), ("d", "b"), ("a", "z"), ("b", "a"), ("b", "x")]),
    "no-start": ([("a", "action"), ("z", "stop")], [("a", "z")]),
    "two-starts": ([("s", "start"), ("t", "start"), ("z", "stop")], [("s", "z"), ("t", "z")]),
}


@pytest.mark.parametrize("name", sorted(_BROKEN))
def test_structure_errors_match_reference(name):
    document = _graph_document(*_BROKEN[name])
    expected = _outcome(_ref_check, document, _ONE_RULE)
    assert expected[0] in (StructureError, UnsupportedStructureError)
    assert _outcome(check, document, _ONE_RULE) == expected
    assert _outcome(eval_rule, document, _ONE_RULE.rules[0]) \
        == _outcome(_ref_eval_rule, document, _ONE_RULE.rules[0])
    assert _outcome(enumerate_paths, document) == _outcome(_ref_enumerate_paths, document)


@pytest.mark.parametrize("seed", range(300))
def test_random_graphs_match_reference(seed):
    """Arbitrary small digraphs: cycles, dead ends, stops with edges, parallel edges."""
    rng = random.Random(seed)
    count = rng.randint(2, 8)
    kinds = ["start"] + [rng.choice(("action", "action", "decision", "merge", "stop"))
                         for _ in range(count - 2)] + ["stop"]
    nodes = [(f"n{i}", kind) for i, kind in enumerate(kinds)]
    edges = []
    for i in range(count):
        for _ in range(rng.choice((0, 1, 1, 2))):
            # mostly forward edges, so that some graphs are valid chains
            forward = i + 1 < count and rng.random() < 0.85
            edges.append((f"n{i}", f"n{rng.randrange(i + 1 if forward else 0, count)}"))
    document = _graph_document(nodes, edges)
    document = ChainDocument(
        graph=document.graph,
        events=tuple((node_id, rng.choice(("a", "b", "c"))) for node_id, _ in document.events),
    )
    ruleset = parse_rules("r1: a before b\n\nr2: forbid c after a or not b before b\n")
    assert _outcome(check, document, ruleset) == _outcome(_ref_check, document, ruleset)
    assert _outcome(enumerate_paths, document) == _outcome(_ref_enumerate_paths, document)


def test_empty_ruleset_checks_no_structure():
    document = _graph_document(*_BROKEN["cycle"])
    report = check(document, RuleSet(rules=()))
    assert report.results == ()
    assert report.overall == VERDICT_PASS
    assert report.chain_digest == chain_digest(document)


def test_parallel_edges_give_one_witness_each():
    graph = ActivityGraph(
        nodes=(Node("s", "start"), Node("a", "action", "A"), Node("z", "stop")),
        edges=(Edge("s", "a"), Edge("a", "z"), Edge("a", "z")),
    )
    document = ChainDocument(graph=graph, events=(("a", "a"),))
    report = check(document, parse_rules("r: b before a\n"))
    assert [w.sequence for w in report.results[0].witnesses] \
        == [EventSequence(steps=enumerate_paths(document)[0].steps)] * 2
    _assert_same(document, parse_rules("r: b before a\n"))


# ---------------------------------------------------------------------------
# paths too long for the recursive reference


@pytest.mark.parametrize("actions", [1500, 20000])
def test_long_linear_chain_is_one_path(actions):
    case = gen.linear_case(random.Random(actions), "linear", actions, 2)
    document = to_chain_document(parse_activity_diagram(case.diagram))
    [path] = enumerate_paths(document)
    assert len(path) == actions
    assert [step.position for step in path.steps] == list(range(actions))
    assert path.events == tuple(event for _node, event in document.events)
    assert [step.node_id for step in path.steps] == [node for node, _event in document.events]


# ---------------------------------------------------------------------------
# atom semantics against the position-based reference


_ATOM_RULE = parse_rules(
    "r: a before b\nalias detect = detect-*, *-radar\nalias brake = b*\nalias a = c\n"
).rules[0]
_ATOM_EVENTS = ("a", "b", "c", "brake", "brake-hard", "detect-cam", "lidar-radar", "warn")
_ATOM_NAMES = ("a", "b", "c", "brake", "detect", "warn", "ghost")


@pytest.mark.parametrize("seed", range(200))
def test_eval_atom_matches_reference(seed):
    rng = random.Random(seed)
    events = [rng.choice(_ATOM_EVENTS) for _ in range(rng.randint(0, 8))]
    sequence = EventSequence(steps=tuple(
        EventStep(position=i, event=e, node_id=f"n{i}") for i, e in enumerate(events)))
    for _ in range(10):
        left = rng.choice(_ATOM_NAMES)
        right = left if rng.random() < 0.25 else rng.choice(_ATOM_NAMES)
        atom = RuleAtom(left, rng.choice(("before", "after")), right)
        for rule in (None, _ATOM_RULE):
            assert eval_atom(sequence, atom, rule) == _ref_eval_atom(sequence, atom, rule)
