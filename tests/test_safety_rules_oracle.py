"""Rule checking and path enumeration against the implementations they replaced.

``check`` runs a product of precedence monitors over the chain's straight
runs, moving each state once per run by the run's first-touch table, and
never enumerates passing paths; ``enumerate_paths`` walks the runs with an explicit
stack. The references below are kept verbatim: a recursive path
enumerator; a checker that evaluates every atom on every path it yields;
and the per-node checker, which stepped the same monitors at every node in
three passes over the graph. All must give equal paths and reports,
byte-identical rendered text and the same structure errors. The references
list every witness, so their reports are cut to the first MAX_WITNESSES per
rule, with a count of the rest, before they are compared.
"""

import json
import random
from fnmatch import fnmatchcase

import pytest

from bench import generators as gen
from bench.workloads import CHAIN_SCHEDULE, LINEAR_ACTIONS, LINEAR_CHAINS
from sdv_guard import safety_rules
from sdv_guard.errors import StructureError, UnsupportedStructureError
from sdv_guard.eventchain import (
    ActivityGraph,
    ChainDocument,
    ChainOrder,
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
    _OPENED,
    _UNSEEN,
    _VIOLATED,
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
    _compile,
    _sides,
    _stands_for,
    _truth,
    parse_rules,
    render_report,
)

from conftest import atom_holds


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
            steps.append(EventStep(event=events[node_id], node_id=node_id))
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
        position
        for position, step in enumerate(sequence.steps)
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


# ---------------------------------------------------------------------------
# reference: the per-node checker, with the per-node walk it ran on


class _NodeOrder:
    """A chain document's start-reachable graph, checked and ordered once.

    The one walk over a chain's graph: iterative, following edges in
    declaration order, marking nodes in progress and finished. It raises
    the structure errors (not exactly one start, a cycle, a dead end) for
    the first offending node in that order; a node it has fully explored
    holds no error, so it is never entered twice.
    """

    def __init__(self, document: ChainDocument):
        graph = document.graph
        starts = [n for n in graph.nodes if n.kind == "start"]
        if len(starts) != 1:
            raise StructureError(
                f"path enumeration needs exactly one start node, found {len(starts)}"
            )
        self.start = starts[0].id
        self.kinds = {n.id: n.kind for n in graph.nodes}
        events = dict(document.events)
        self.events: dict[str, str] = {}  # per reachable action node
        outgoing: dict[str, list[str]] = {n.id: [] for n in graph.nodes}
        for edge in graph.edges:
            outgoing[edge.src].append(edge.dst)
        # successors in declaration order; a stop ends every path through it
        self.successors: dict[str, list[str]] = {}
        finished: list[str] = []
        on_stack: set[str] = set()
        stack = [(self.start, False)]  # (node, leaving it)
        while stack:
            node_id, leaving = stack.pop()
            if leaving:
                on_stack.discard(node_id)
                finished.append(node_id)
                continue
            if node_id in on_stack:
                raise UnsupportedStructureError(
                    f"chain contains a cycle through node '{node_id}'"
                )
            if node_id in self.successors:
                continue
            if self.kinds[node_id] == "action":
                self.events[node_id] = events[node_id]
            if self.kinds[node_id] == "stop":
                self.successors[node_id] = []
                finished.append(node_id)
                continue
            if not outgoing[node_id]:
                raise StructureError(f"node '{node_id}' dead-ends before any stop")
            self.successors[node_id] = outgoing[node_id]
            on_stack.add(node_id)
            stack.append((node_id, True))
            stack.extend((dst, False) for dst in reversed(outgoing[node_id]))
        finished.reverse()
        self.topological = finished


def _advance(state: int, opens: bool, closes: bool) -> int:
    """One step of a precedence monitor on an event that opens and/or closes it.

    ``A before B`` opens on A and is violated by a B while unseen; the
    closing side is tested first, so a B that is also an A violates it.
    """
    if state != _UNSEEN:
        return state
    return _VIOLATED if closes else _OPENED if opens else _UNSEEN


def _node_rule_monitor(order: _NodeOrder, rule: SafetyRule):
    """The rule as a product of precedence monitors, one per distinct atom.

    Returns ``(initial, step, verdict)``. A state holds one of _UNSEEN,
    _OPENED, _VIOLATED per atom, moved by ``_advance``.
    ``step(state, node_id)`` is the state after that node;
    ``verdict(state)`` is ``(fails, atom values, expression value)`` for a
    path that ends in that state.
    """
    atoms, program = _compile(rule.expr)
    sides = [_sides(atom) for atom in atoms]
    chain_events = set(order.events.values())
    # the chain events each rule event stands for: itself and its aliases' matches
    stands_for = {name: _stands_for(rule, name, chain_events)
                  for name in {name for side in sides for name in side}}
    # (opens, closes) per atom, for each chain event that touches some atom
    effects = {
        event: tuple((event in stands_for[opening], event in stands_for[closing])
                     for opening, closing in sides)
        for event in set().union(*stands_for.values())
    }
    texts = [atom.text() for atom in atoms]
    transitions: dict[tuple[tuple[int, ...], str], tuple[int, ...]] = {}
    verdicts: dict[tuple[int, ...], tuple[bool, tuple[tuple[str, bool], ...], bool]] = {}

    def step(state: tuple[int, ...], node_id: str) -> tuple[int, ...]:
        event = order.events.get(node_id)
        effect = effects.get(event)
        if effect is None:
            return state
        key = (state, event)
        nxt = transitions.get(key)
        if nxt is None:
            nxt = transitions[key] = tuple(
                _advance(s, opens, closes) for s, (opens, closes) in zip(state, effect)
            )
        return nxt

    def verdict(state: tuple[int, ...]):
        found = verdicts.get(state)
        if found is None:
            values = [s != _VIOLATED for s in state]
            value = _truth(program, values)
            found = verdicts[state] = (
                not value if rule.mode == "require" else value,
                tuple(sorted(zip(texts, values))),
                value,
            )
        return found

    return (_UNSEEN,) * len(atoms), step, verdict


def _node_eval_rule(order: _NodeOrder, rule: SafetyRule) -> RuleResult:
    initial, step, verdict = _node_rule_monitor(order, rule)
    kinds, successors = order.kinds, order.successors

    # forward: per node, the monitor states it can be entered in and the
    # state it leaves in for each
    moves: dict[str, dict[tuple[int, ...], tuple[int, ...]]] = {}
    entry = {order.start: {initial}}
    for node_id in order.topological:
        move = moves[node_id] = {}
        for state in entry[node_id]:
            move[state] = step(state, node_id)
        for dst in successors[node_id]:
            entry.setdefault(dst, set()).update(move.values())

    # backward: per node, the entry states from which some path fails the rule
    failing: dict[str, set[tuple[int, ...]]] = {}
    for node_id in reversed(order.topological):
        bad = failing[node_id] = set()
        for state, after in moves[node_id].items():
            if kinds[node_id] == "stop":
                if verdict(after)[0]:
                    bad.add(state)
                continue
            for dst in successors[node_id]:
                if after in failing[dst]:
                    bad.add(state)
                    break

    # pruned walk in declaration order: only failing (node, state) pairs are
    # entered; None on the stack drops the last step once its subtree is done
    witnesses: list[Witness] = []
    steps: list[EventStep] = []
    stack = [(order.start, initial)] if initial in failing[order.start] else []
    while stack:
        item = stack.pop()
        if item is None:
            steps.pop()
            continue
        node_id, state = item
        event = order.events.get(node_id)
        if event is not None:
            steps.append(EventStep(event=event, node_id=node_id))
            stack.append(None)
        after = moves[node_id][state]
        if kinds[node_id] == "stop":
            _fails, atom_values, value = verdict(after)
            witnesses.append(Witness(
                sequence=EventSequence(steps=tuple(steps)),
                atom_values=atom_values,
                expr_value=value,
            ))
            continue
        for dst in reversed(successors[node_id]):
            if after in failing[dst]:
                stack.append((dst, after))
    verdict_text = VERDICT_VIOLATED if witnesses else VERDICT_PASS
    return RuleResult(rule=rule, verdict=verdict_text, witnesses=tuple(witnesses))


def _node_check(document, ruleset):
    if not ruleset.rules:
        return SafetyReport(results=(), chain_digest=chain_digest(document))
    order = _NodeOrder(document)
    results = tuple(_node_eval_rule(order, rule) for rule in ruleset.rules)
    return SafetyReport(results=results, chain_digest=chain_digest(document))


def _listed(report: SafetyReport) -> SafetyReport:
    """A reference report as the checker lists it: the first MAX_WITNESSES
    witnesses of each rule, and the number of the rest."""
    limit = safety_rules.MAX_WITNESSES
    return SafetyReport(results=tuple(
        RuleResult(rule=r.rule, verdict=r.verdict, witnesses=r.witnesses[:limit],
                   unlisted=max(0, len(r.witnesses) - limit))
        for r in report.results), chain_digest=report.chain_digest)


def _assert_reports_equal(actual: SafetyReport, expected: SafetyReport) -> None:
    assert actual.to_dict() == expected.to_dict()
    assert render_report(actual) == render_report(expected)
    assert actual == expected


def _assert_same_as_node_checker(document, ruleset):
    _assert_reports_equal(check(document, ruleset), _listed(_node_check(document, ruleset)))


def _assert_same(document, ruleset):
    assert enumerate_paths(document) == _ref_enumerate_paths(document)
    expected = _listed(_ref_check(document, ruleset))
    actual = check(document, ruleset)
    _assert_reports_equal(actual, expected)
    _assert_reports_equal(actual, _listed(_node_check(document, ruleset)))
    for rule, result in zip(ruleset.rules, expected.results):  # each rule on its own
        assert check(document, RuleSet(rules=(rule,))).results == (result,)


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
    assert _outcome(_node_check, document, _ONE_RULE) == expected
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
    assert _outcome(check, document, ruleset) == _outcome(_node_check, document, ruleset)
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
# straight runs


def _run_breaking_diagram(rng) -> ChainDocument:
    """A random diagram whose runs break in unusual places: arms of 0 to 50
    actions, empty arms (parallel decision-to-merge edges), a decision right
    after a merge, and stops inside arms. At most six decisions."""
    decisions = [6]

    def actions(lines, count):
        lines.extend(f":{rng.choice(_LABELS)};" for _ in range(count))

    def block(depth, lines) -> bool:
        for _ in range(rng.randint(1, 3)):
            if depth >= 2 or not decisions[0] or rng.random() < 0.3:
                actions(lines, rng.choice((1, 2, rng.randint(3, 50))))
                continue
            decisions[0] -= 1
            lines.append(f"if (c{len(lines)}) then (yes)")
            alive = arm(depth, lines)
            if rng.random() < 0.6:
                lines.append("else (no)")
                alive = arm(depth, lines) or alive
            else:
                alive = True
            lines.append("endif")
            if not alive:
                return False
        return True

    def arm(depth, lines) -> bool:
        actions(lines, rng.choice((0, 0, 1, rng.randint(2, 50))))
        alive = block(depth + 1, lines) if rng.random() < 0.4 else True
        if alive and rng.random() < 0.2:
            lines.append("stop")
            return False
        return alive

    lines = ["@startuml", "start"]
    if block(0, lines):
        lines.append("stop")
    lines.append("@enduml")
    return to_chain_document(parse_activity_diagram("\n".join(lines) + "\n"))


def _random_dag(rng) -> ChainDocument:
    """A valid chain document no diagram parses to: forward edges only, one
    to three (parallel ones too) from each node but stops, so that actions,
    decisions and stops get several incoming edges; some stops have edges,
    and some nodes are unreachable but have edges into reachable ones."""
    count = rng.randint(3, 12)
    kinds = ["start"] + [rng.choice(("action", "action", "action", "decision", "merge", "stop"))
                         for _ in range(count - 2)] + ["stop"]
    edges = []
    for i, kind in enumerate(kinds[:-1]):
        fanout = (rng.random() < 0.2) if kind == "stop" else rng.choice((1, 1, 2, 3))
        edges += [(f"n{i}", f"n{rng.randrange(i + 1, count)}") for _ in range(fanout)]
    document = _graph_document(list((f"n{i}", kind) for i, kind in enumerate(kinds)), edges)
    return ChainDocument(
        graph=document.graph,
        events=tuple((node_id, rng.choice(("a", "b", "brake", "warn", "detect-cam")))
                     for node_id, _ in document.events),
    )


def _reachable(document: ChainDocument) -> set[str]:
    start = next(n.id for n in document.graph.nodes if n.kind == "start")
    kinds = {n.id: n.kind for n in document.graph.nodes}
    seen, todo = {start}, [start]
    while todo:
        node_id = todo.pop()
        if kinds[node_id] == "stop":
            continue
        for edge in document.graph.edges:
            if edge.src == node_id and edge.dst not in seen:
                seen.add(edge.dst)
                todo.append(edge.dst)
    return seen


def _run_paths(order: ChainOrder) -> list[list[tuple[str, str]]]:
    """The (event, node id) steps of every path, as concatenated runs."""
    paths = []

    def walk(index, steps):
        run = order.runs[index]
        steps = steps + list(run.steps)
        if not run.successors:
            paths.append(steps)
        for dst in run.successors:
            assert dst > index
            walk(dst, steps)

    walk(0, [])
    return paths


def _assert_runs(document: ChainDocument) -> None:
    order = ChainOrder(document)
    nodes = [node_id for run in order.runs for node_id in run.nodes]
    assert sorted(nodes) == sorted(_reachable(document))
    assert order.runs[0].nodes[0] == next(n.id for n in document.graph.nodes if n.kind == "start")
    kinds = {n.id: n.kind for n in document.graph.nodes}
    events = dict(document.events)
    for run in order.runs:
        assert run.steps == tuple((events[n], n) for n in run.nodes if kinds[n] == "action")
        assert all(kinds[n] != "stop" for n in run.nodes[:-1])
        assert (kinds[run.nodes[-1]] == "stop") == (not run.successors)
    assert _run_paths(order) == [[(s.event, s.node_id) for s in path.steps]
                                 for path in _ref_enumerate_paths(document)]


def test_linear_chain_is_one_run():
    case = gen.linear_case(random.Random(3), "linear", LINEAR_ACTIONS, 2)
    document = to_chain_document(parse_activity_diagram(case.diagram))
    [run] = ChainOrder(document).runs
    assert run.nodes == tuple(n.id for n in document.graph.nodes)
    assert run.steps == tuple((event, node_id) for node_id, event in document.events)
    assert run.successors == ()


@pytest.mark.parametrize("decisions", [1, 2, 5, 12])
def test_sequential_decisions_give_three_runs_each(decisions):
    """start..decision 1; each arm; each merge with the next decision, the
    last merge with the stop."""
    lines = ["@startuml", "start", ":Sense;"]
    for i in range(decisions):
        lines += [f"if (c{i}) then (yes)", f":Yes {i};", "else (no)", f":No {i};", "endif"]
    document = to_chain_document(parse_activity_diagram("\n".join(lines + ["stop", "@enduml"])))
    order = ChainOrder(document)
    assert len(order.runs) == 3 * decisions + 1
    _assert_runs(document)


@pytest.mark.parametrize("seed", range(100))
def test_runs_cover_each_reachable_node_once(seed):
    rng = random.Random(seed)
    for document in (_random_diagram(rng), _run_breaking_diagram(rng), _random_dag(rng)):
        _assert_runs(document)


def test_empty_arms_end_the_decisions_run():
    document = to_chain_document(parse_activity_diagram(
        "@startuml\nstart\nif (c) then (yes)\nelse (no)\nendif\n:A;\nstop\n@enduml\n"))
    runs = ChainOrder(document).runs
    assert [run.nodes for run in runs] == [("n1", "n2"), ("n3", "n4", "n5")]
    assert runs[0].successors == (1, 1)
    _assert_same(document, parse_rules("r: b before a\n"))


@pytest.mark.parametrize("seed", range(150))
def test_run_breaking_diagrams_match_references(seed):
    rng = random.Random(seed)
    _assert_same(_run_breaking_diagram(rng), _random_rules(rng))


@pytest.mark.parametrize("seed", range(200))
def test_random_dags_match_references(seed):
    rng = random.Random(seed)
    _assert_same(_random_dag(rng), _random_rules(rng))


@pytest.mark.parametrize("seed", [1, 2])
def test_chain_scale_cases_match_node_checker(seed):
    """Every request of the benchmark's chain-scale pool, built as it builds them."""
    rng = random.Random(seed)
    cases = [gen.activity_case(rng, f"chain{i}-d{d}-r{n}", d, n, v)
             for i, (d, n, v) in enumerate(CHAIN_SCHEDULE)]
    cases += [gen.linear_case(rng, f"linear{i}", LINEAR_ACTIONS, 2) for i in range(LINEAR_CHAINS)]
    for case in cases:
        document = to_chain_document(parse_activity_diagram(case.diagram))
        report = check(document, parse_rules(case.rules))
        assert {r.rule.name: r.verdict for r in report.results} == case.verdicts
        _assert_same_as_node_checker(document, parse_rules(case.rules))


@pytest.mark.parametrize("actions", [1500, 20000])
def test_long_linear_chains_match_node_checker(actions):
    case = gen.linear_case(random.Random(actions), "linear", actions, 6)
    assert "violated" in case.verdicts.values() and "pass" in case.verdicts.values()
    document = to_chain_document(parse_activity_diagram(case.diagram))
    _assert_same_as_node_checker(document, parse_rules(case.rules))


def test_witnesses_past_the_cap_are_counted(monkeypatch):
    """With the cap at 3, the witnesses are the reference's first three and
    the count of the rest makes up the length of its list."""
    monkeypatch.setattr(safety_rules, "MAX_WITNESSES", 3)
    cut = 0
    for seed in range(100):
        rng = random.Random(seed)
        document, ruleset = _random_diagram(rng), _random_rules(rng)
        _assert_same(document, ruleset)
        for result, expected in zip(check(document, ruleset).results,
                                    _ref_check(document, ruleset).results):
            assert len(result.witnesses) + result.unlisted == len(expected.witnesses)
            cut += result.unlisted > 0
    assert cut > 10


# ---------------------------------------------------------------------------
# paths too long for the recursive reference


@pytest.mark.parametrize("actions", [1500, 20000])
def test_long_linear_chain_is_one_path(actions):
    case = gen.linear_case(random.Random(actions), "linear", actions, 2)
    document = to_chain_document(parse_activity_diagram(case.diagram))
    [path] = enumerate_paths(document)
    assert len(path) == actions
    # "ghost" never occurs, so the forbidden rule holds on the one path
    [rule] = check(document, parse_rules("r: forbid ghost before ghost\n")).to_dict()["rules"]
    assert [s["position"] for s in rule["witnesses"][0]["path"]] == list(range(actions))
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
def test_atom_truth_matches_reference(seed):
    rng = random.Random(seed)
    events = [rng.choice(_ATOM_EVENTS) for _ in range(rng.randint(0, 8))]
    sequence = EventSequence(steps=tuple(
        EventStep(event=e, node_id=f"n{i}") for i, e in enumerate(events)))
    for _ in range(10):
        left = rng.choice(_ATOM_NAMES)
        right = left if rng.random() < 0.25 else rng.choice(_ATOM_NAMES)
        atom = RuleAtom(left, rng.choice(("before", "after")), right)
        assert atom_holds(events, atom) == _ref_eval_atom(sequence, atom)
        assert atom_holds(events, atom, _ATOM_RULE.aliases) \
            == _ref_eval_atom(sequence, atom, _ATOM_RULE)


# ---------------------------------------------------------------------------
# metamorphic relation: actions whose events no rule names change no result.
# The references above share the checker's parsing and its alias lookup, so
# this relation is checked against the inputs alone: which events a rule
# names is read from its atoms and alias lines, not through the checker


_FILLERS = ("idle", "idle-radar", "detect-idle", "bus")  # "idle" no rule names


def _rule_names(rule: SafetyRule, event: str) -> bool:
    """Whether an atom of ``rule`` names ``event``, directly or through one
    of the alias globs given for that atom's event."""
    aliases = dict(rule.aliases)
    return any(event == side or any(fnmatchcase(event, p) for p in aliases.get(side, ()))
               for atom in _ref_expr_atoms(rule.expr) for side in (atom.left, atom.right))


def _with_fillers(rng, document: ChainDocument, fillers: list[str]) -> ChainDocument:
    """``document`` with one to four actions of ``fillers`` events, each
    inserted on a random edge; every edge keeps its place among its source's
    outgoing edges."""
    nodes, edges, events = list(document.graph.nodes), list(document.graph.edges), \
        list(document.events)
    for index in range(rng.randint(1, 4)):
        node_id, event = f"filler{index}", rng.choice(fillers)
        nodes.append(Node(node_id, "action", event))
        events.append((node_id, event))
        at = rng.randrange(len(edges))
        edges[at:at + 1] = [edges[at]._replace(dst=node_id), Edge(node_id, edges[at].dst)]
    return ChainDocument(graph=ActivityGraph(nodes=tuple(nodes), edges=tuple(edges)),
                         events=tuple(events))


def _named_view(rule: SafetyRule, result: RuleResult) -> list:
    """Each listed witness as the events ``rule`` names, its atom values and
    its expression value."""
    return [(tuple(e for e in w.sequence.events if _rule_names(rule, e)),
             w.atom_values, w.expr_value) for w in result.witnesses]


@pytest.mark.parametrize("seed", range(400))
def test_actions_that_no_rule_names_change_no_result(seed):
    rng = random.Random(seed)
    document = _random_diagram(rng)
    ruleset = _random_rules(rng)
    fillers = [e for e in _FILLERS if not any(_rule_names(r, e) for r in ruleset.rules)]
    padded = _with_fillers(rng, document, fillers)
    assert len(padded.events) > len(document.events)
    for rule, before, after in zip(ruleset.rules, check(document, ruleset).results,
                                   check(padded, ruleset).results):
        assert after.verdict == before.verdict
        assert len(after.witnesses) + after.unlisted == len(before.witnesses) + before.unlisted
        if not before.unlisted and not after.unlisted:
            assert _named_view(rule, after) == _named_view(rule, before)
