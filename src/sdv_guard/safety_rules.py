"""Temporal ordering rules over event-chain paths.

Rule files are plain text, one rule per blank-line-separated stanza:

    name: [require|forbid] <expr>
    alias <event> = <pattern>[, <pattern>...]     (zero or more per stanza)
    # comment lines are ignored anywhere

Grammar, loosest binding first:

    expr   := term ('or' term)*
    term   := factor ('and' factor)*
    factor := 'not' factor | '(' expr ')' | atom
    atom   := EVENT ('before'|'after') EVENT

'not' and parentheses nest at most ``MAX_NESTING`` levels deep. An EVENT is
one or more identifier words; consecutive words are joined with hyphens and
normalized, so ``camera-pedestrian detected`` and
``camera-pedestrian-detected`` name the same event. Alias lines map a rule
event to extra label patterns (shell-style globs over normalized events) so
differently spelled chain labels can satisfy the same rule.

Atom semantics over one path (a finite event sequence):

* ``A before B`` holds iff every occurrence of B has an occurrence of A at a
  strictly smaller position; vacuously true when B never occurs.
* ``A after B``  holds iff every occurrence of A has an occurrence of B at a
  strictly smaller position; vacuously true when A never occurs.

Hence ``A after B`` == ``B before A``, and ``A before A`` is false exactly
when A occurs. A ``require`` rule passes iff its expression is true on every
path; ``forbid`` passes iff it is false on every path. The first
``MAX_WITNESSES`` failing paths, and no more than ``MAX_WITNESS_STEPS``
steps of them but always the first, are recorded as witnesses with the
truth value of every atom on that path; the rest are counted.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fnmatch import translate
from operator import itemgetter
from typing import NamedTuple

from .errors import RuleParseError, UnsupportedStructureError
from .eventchain import (
    ChainDocument,
    ChainOrder,
    EventStep,
    chain_digest,
    fenced_block,
    strip_fences,
)
from .llm_gateway import PC2B, CompletionRequest, LlmGateway, render_prompt
# MAX_NESTING, the limit shared with OCL constraints, is re-exported
from .util import MAX_NESTING, TokenStream, normalize_name

MODES = ("require", "forbid")
VERDICT_PASS = "pass"
VERDICT_VIOLATED = "violated"
_NAME_RE = re.compile(r"^[A-Za-z0-9_-]+$")
# precedence-monitor states of one atom; _OPENED and _VIOLATED never change
_UNSEEN, _OPENED, _VIOLATED = 0, 1, 2
# longest witness path rendered event by event; a longer one shows only the
# events its rule names. Every path the old recursive checker could walk, one
# stack frame per node under Python's default limit of 1,000, is shorter.
MAX_RENDERED_PATH = 1000
# most witnesses listed per rule; the report counts the violating paths past it
MAX_WITNESSES = 1000
# most steps the listed witnesses of one rule may hold together; the first
# witness is listed whatever its length, and the paths past the cap are
# counted. The largest total of the fixtures, the tests and the bench's
# chain pools is 25,000 (1,000 witnesses of 25 steps).
MAX_WITNESS_STEPS = 50_000
# most (run, monitor state) pairs one rule may reach; the monitor product can
# grow as 2^atoms, so a rule past it fails closed rather than run for minutes
MAX_MONITOR_PAIRS = 250_000


@dataclass(frozen=True)
class RuleAtom:
    left: str
    op: str  # "before" | "after"
    right: str

    def text(self) -> str:
        return f"{self.left} {self.op} {self.right}"


@dataclass(frozen=True)
class NotExpr:
    child: "Expr"


@dataclass(frozen=True)
class AndExpr:
    children: tuple["Expr", ...]


@dataclass(frozen=True)
class OrExpr:
    children: tuple["Expr", ...]


Expr = RuleAtom | NotExpr | AndExpr | OrExpr


class SafetyRule(NamedTuple):
    name: str
    expr: Expr
    mode: str = "require"
    aliases: tuple[tuple[str, tuple[str, ...]], ...] = ()

    def alias_patterns(self, event: str) -> tuple[str, ...]:
        for name, patterns in self.aliases:
            if name == event:
                return patterns
        return ()


class Witness(NamedTuple):
    sequence: tuple[EventStep, ...]
    atom_values: tuple[tuple[str, bool], ...]
    expr_value: bool


class RuleResult(NamedTuple):
    rule: SafetyRule
    verdict: str  # "pass" | "violated"
    witnesses: tuple[Witness, ...]
    unlisted: int = 0  # violating paths past the witnesses listed


class SafetyReport(NamedTuple):
    results: tuple[RuleResult, ...]
    chain_digest: str

    @property
    def overall(self) -> str:
        return VERDICT_VIOLATED if self.violated else VERDICT_PASS

    @property
    def violated(self) -> tuple[RuleResult, ...]:
        return tuple(r for r in self.results if r.verdict == VERDICT_VIOLATED)

    def to_dict(self) -> dict:
        return {
            "chain_digest": self.chain_digest,
            "overall": self.overall,
            "rules": [
                {
                    "name": r.rule.name,
                    "mode": r.rule.mode,
                    "verdict": r.verdict,
                    "witnesses": [
                        {
                            "path": [
                                {"position": position, "event": s.event, "node": s.node_id}
                                for position, s in enumerate(w.sequence)
                            ],
                            "atoms": [[text, value] for text, value in w.atom_values],
                            "value": w.expr_value,
                        }
                        for w in r.witnesses
                    ],
                    # only when the witness list is cut
                    **({"unlisted_violating_paths": r.unlisted} if r.unlisted else {}),
                }
                for r in self.results
            ],
        }


# ---------------------------------------------------------------------------
# parsing


class _ExprParser(TokenStream):
    pattern = re.compile(r"(?P<WS>\s+)|(?P<PAREN>[()])|(?P<WORD>[A-Za-z0-9_-]+)")
    keywords = frozenset({"and", "or", "not", "before", "after", "require", "forbid"})
    error_type = RuleParseError
    end_message = "unexpected end of rule"

    def parse(self) -> Expr:
        expr = self.expr()
        leftover = self.peek()
        if leftover is not None:
            raise RuleParseError(
                f"unexpected '{leftover.text}' after expression",
                position=leftover.position,
            )
        return expr

    def expr(self) -> Expr:
        children = [self.term()]
        while self.at("or"):
            self.take()
            children.append(self.term())
        return children[0] if len(children) == 1 else OrExpr(tuple(children))

    def term(self) -> Expr:
        children = [self.factor()]
        while self.at("and"):
            self.take()
            children.append(self.factor())
        return children[0] if len(children) == 1 else AndExpr(tuple(children))

    def factor(self) -> Expr:
        token = self.peek()
        if token is None:
            raise RuleParseError("expected an atom", position=len(self.text))
        if token.text not in ("not", "("):
            return self.atom()
        self.nest(self.take())
        if token.text == "not":
            inner = NotExpr(self.factor())
        else:
            inner = self.expr()
            closing = self.take()
            if closing.text != ")":
                raise RuleParseError("expected ')'", position=closing.position)
        self.depth -= 1
        return inner

    def atom(self) -> RuleAtom:
        left = self.event()
        op = self.take()
        if op.text not in ("before", "after"):
            raise RuleParseError(
                f"expected 'before' or 'after', got '{op.text}'", position=op.position
            )
        right = self.event()
        return RuleAtom(left=left, op=op.text, right=right)

    def event(self) -> str:
        words: list[str] = []
        while self.at("WORD"):  # keywords and parentheses end an event
            words.append(self.take().text)
        if not words:
            token = self.peek()
            position = token.position if token else len(self.text)
            raise RuleParseError("expected an event name", position=position)
        return normalize_name("-".join(words))


def parse_rules(text: str) -> tuple[SafetyRule, ...]:
    """Parse a rule file: stanzas of one rule line plus optional alias lines."""
    lines = [line for line in text.splitlines() if not line.strip().startswith("#")]
    stanzas: list[list[str]] = []
    current: list[str] = []
    for line in lines:
        if line.strip():
            current.append(line.strip())
        elif current:
            stanzas.append(current)
            current = []
    if current:
        stanzas.append(current)

    rules: list[SafetyRule] = []
    names: set[str] = set()
    for stanza in stanzas:
        rule_lines = [l for l in stanza if not l.startswith("alias ")]
        alias_lines = [l for l in stanza if l.startswith("alias ")]
        if not rule_lines:
            raise RuleParseError("stanza has alias lines but no rule")
        rule_text = " ".join(rule_lines)
        name, _, rest = rule_text.partition(":")
        if not _:
            raise RuleParseError(f"rule '{rule_text[:40]}' is missing ':'")
        name = name.strip()
        if not _NAME_RE.match(name):
            raise RuleParseError(f"invalid rule name '{name}'")
        if name in names:
            raise RuleParseError(f"duplicate rule name '{name}'")
        names.add(name)
        rest = rest.strip()
        mode = "require"
        first_word = rest.split(maxsplit=1)[0] if rest else ""
        if first_word in MODES:
            mode = first_word
            rest = rest[len(first_word):].strip()
        expr = _ExprParser(rest).parse()
        aliases = tuple(_parse_alias(line) for line in alias_lines)
        seen_alias = set()
        for alias_name, _patterns in aliases:
            if alias_name in seen_alias:
                raise RuleParseError(f"duplicate alias for event '{alias_name}'")
            seen_alias.add(alias_name)
        rules.append(SafetyRule(name=name, expr=expr, mode=mode, aliases=aliases))
    return tuple(rules)


def _parse_alias(line: str) -> tuple[str, tuple[str, ...]]:
    body = line[len("alias "):]
    event, sep, patterns = body.partition("=")
    if not sep:
        raise RuleParseError(f"alias line '{line}' is missing '='")
    event = normalize_name(event)
    if not event:
        raise RuleParseError(f"alias line '{line}' names no event")
    parts = [p.strip().lower() for p in patterns.split(",")]
    parts = [p for p in parts if p]
    if not parts:
        raise RuleParseError(f"alias for '{event}' lists no patterns")
    return event, tuple(parts)


# ---------------------------------------------------------------------------
# evaluation


def _stands_for(rule: SafetyRule, rule_event: str, events: set[str]) -> set[str]:
    """The members of ``events`` that ``rule_event`` names: itself, and the
    matches of its alias globs, each glob compiled once."""
    found = events & {rule_event}
    for pattern in rule.alias_patterns(rule_event):
        match = re.compile(translate(pattern)).match
        found.update(e for e in events if match(e))
    return found


def _sides(atom: RuleAtom) -> tuple[str, str]:
    """The (opening, closing) events of an atom: ``A after B`` is ``B before A``."""
    return (atom.left, atom.right) if atom.op == "before" else (atom.right, atom.left)


def _compile(expr: Expr) -> tuple[list[RuleAtom], list[tuple[str, int]]]:
    """The distinct atoms of ``expr`` and ``expr`` as a post-order program.

    Program steps are ``("atom", atom index)``, ``("not", 1)`` and
    ``("and" | "or", child count)``. The tree is walked without recursion.
    """
    nodes: list[Expr] = []
    stack = [expr]
    while stack:
        node = stack.pop()
        nodes.append(node)
        if isinstance(node, NotExpr):
            stack.append(node.child)
        elif isinstance(node, (AndExpr, OrExpr)):
            stack.extend(node.children)
        elif not isinstance(node, RuleAtom):
            raise TypeError(f"unknown expression node {node!r}")
    atoms: dict[RuleAtom, int] = {}
    program: list[tuple[str, int]] = []
    for node in reversed(nodes):  # children before parents, left to right
        if isinstance(node, RuleAtom):
            program.append(("atom", atoms.setdefault(node, len(atoms))))
        elif isinstance(node, NotExpr):
            program.append(("not", 1))
        else:
            program.append(("and" if isinstance(node, AndExpr) else "or", len(node.children)))
    return list(atoms), program


def _truth(program: list[tuple[str, int]], atom_values: list[bool]) -> bool:
    values: list[bool] = []
    for op, arg in program:
        if op == "atom":
            values.append(atom_values[arg])
        elif op == "not":
            values.append(not values.pop())
        else:
            split = len(values) - arg
            args = values[split:]
            del values[split:]
            values.append(all(args) if op == "and" else any(args))
    return values.pop()


def _touches(rule: SafetyRule, atoms: list[RuleAtom],
             events: set[str]) -> dict[str, dict[int, int]]:
    """Per member of ``events`` that some atom names, directly or through an
    alias: {atom index: the state that event moves the atom to from _UNSEEN}.
    ``A before B`` opens on A and is violated by a B; the closing side wins,
    so a B that is also an A violates it."""
    sides = [_sides(atom) for atom in atoms]
    stands_for = {name: _stands_for(rule, name, events)
                  for name in {name for side in sides for name in side}}
    touches: dict[str, dict[int, int]] = {}
    for index, side in enumerate(sides):
        for state, name in zip((_OPENED, _VIOLATED), side):
            for event in stands_for[name]:
                touches.setdefault(event, {})[index] = state
    return touches


def _eval_rule(order: ChainOrder, rule: SafetyRule) -> RuleResult:
    # a product of precedence monitors: a state holds one of _UNSEEN,
    # _OPENED, _VIOLATED per distinct atom
    atoms, program = _compile(rule.expr)
    touches = _touches(rule, atoms, order.events)
    texts = [atom.text() for atom in atoms]
    verdicts: dict[tuple[int, ...], tuple[bool, tuple[tuple[str, bool], ...], bool]] = {}

    def verdict(state: tuple[int, ...]):  # (fails, atom values, expression value)
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

    initial = (_UNSEEN,) * len(atoms)
    runs = order.runs

    # forward: per run, the monitor states it can be entered in and the
    # state it leaves in for each. A monitor leaves _UNSEEN for good at the
    # first event that touches it, so a run moves a state by its first-touch
    # table: the state the first touching event gives each atom it touches
    moves: list[dict[tuple[int, ...], tuple[int, ...]]] = []
    entry: list[set[tuple[int, ...]]] = [set() for _ in runs]
    entry[0].add(initial)
    pairs = 0
    for index, run in enumerate(runs):
        pairs += len(entry[index])
        if pairs > MAX_MONITOR_PAIRS:
            raise UnsupportedStructureError(
                f"rule '{rule.name}' reaches {pairs} (run, monitor state) pairs, "
                f"more than the limit of {MAX_MONITOR_PAIRS}")
        first: dict[int, int] = {}
        for event in reversed(run.events):  # earlier events overwrite later ones
            if event in touches:
                first.update(touches[event])
        move = {}
        for state in entry[index]:
            after = state
            if first:
                after = list(state)
                for atom, value in first.items():
                    if after[atom] == _UNSEEN:
                        after[atom] = value
                after = tuple(after)
            move[state] = after
        moves.append(move)
        for dst in run.successors:
            entry[dst].update(move.values())

    # backward: per run and entry state, the number of paths on from there
    # that fail the rule; parallel edges count once each
    counts: list[dict[tuple[int, ...], int]] = [{} for _ in runs]
    for index in range(len(runs) - 1, -1, -1):
        successors = runs[index].successors
        count = counts[index]
        for state, after in moves[index].items():
            if successors:
                count[state] = sum(counts[dst][after] for dst in successors)
            else:
                count[state] = 1 if verdict(after)[0] else 0

    # walk in declaration order entering only failing (run, state) pairs, up
    # to MAX_WITNESSES witnesses of MAX_WITNESS_STEPS steps in all; each
    # stack entry carries the path length its run starts at, so entering it
    # first cuts the steps back to that
    violating = counts[0][initial]
    witnesses: list[Witness] = []
    steps: list[EventStep] = []
    listed_steps = 0
    stack = [(0, initial, 0)] if violating else []
    while stack and len(witnesses) < MAX_WITNESSES:
        index, state, position = stack.pop()
        del steps[position:]
        steps.extend(runs[index].steps)
        after = moves[index][state]
        successors = runs[index].successors
        if not successors:
            listed_steps += len(steps)
            if witnesses and listed_steps > MAX_WITNESS_STEPS:
                break
            _fails, atom_values, value = verdict(after)
            witnesses.append(Witness(
                sequence=tuple(steps),
                atom_values=atom_values,
                expr_value=value,
            ))
            continue
        for dst in reversed(successors):
            if counts[dst][after]:
                stack.append((dst, after, len(steps)))
    verdict_text = VERDICT_VIOLATED if violating else VERDICT_PASS
    return RuleResult(rule=rule, verdict=verdict_text, witnesses=tuple(witnesses),
                      unlisted=violating - len(witnesses))


def check(document: ChainDocument, rules: tuple[SafetyRule, ...]) -> SafetyReport:
    """Check every rule on every path of the chain.

    The graph is checked and cut into straight runs once, by ``ChainOrder``.
    Per rule, the reachable monitor states are propagated forward over the
    runs in topological order, each run moving a state by its first-touch
    table, built once from ``Run.events``: the state that the first event
    touching each atom gives it, taken by the atoms still _UNSEEN;
    the number of failing paths on from each (run, state) pair is counted
    backward; and a walk in edge-declaration order that enters only pairs
    with failing paths emits the first MAX_WITNESSES witnesses, stopping
    before one that would take them past MAX_WITNESS_STEPS steps. The report
    counts the violating paths past them. Cost: O(run events + touched
    atoms) per run, plus a pass over the run's touched atoms and a copy of
    the state per (run, state) pair, plus the listed witnesses' size. A rule
    whose forward pass reaches more than MAX_MONITOR_PAIRS (run, state) pairs
    is an ``UnsupportedStructureError``. An empty tuple of rules checks nothing,
    not even the structure.
    """
    if not rules:
        return SafetyReport(results=(), chain_digest=chain_digest(document))
    order = ChainOrder(document)
    results = tuple(_eval_rule(order, rule) for rule in rules)
    return SafetyReport(results=results, chain_digest=chain_digest(document))


def _abbreviated_path(events: tuple[str, ...], rule: SafetyRule) -> str:
    """A path longer than MAX_RENDERED_PATH events, shown as the events that
    the rule's atoms name, directly or through an alias, with each run of
    other events replaced by its length."""
    named = _touches(rule, _compile(rule.expr)[0], set(events))
    parts: list[str] = []
    skipped = 0
    for event in events:
        if event not in named:
            skipped += 1
            continue
        if skipped:
            parts.append(f"({skipped} other events)")
            skipped = 0
        parts.append(event)
    if skipped:
        parts.append(f"({skipped} other events)")
    return " -> ".join(parts)


def render_report(report: SafetyReport) -> str:
    """Stable human-readable form; also the analysis-outcome text for correction."""
    lines = [f"overall: {report.overall}", f"chain: {report.chain_digest}"]
    for result in report.results:
        lines.append(f"rule {result.rule.name} [{result.rule.mode}]: {result.verdict}")
        for index, witness in enumerate(result.witnesses):
            events = tuple(map(itemgetter(0), witness.sequence))
            if len(events) > MAX_RENDERED_PATH:
                path_text = _abbreviated_path(events, result.rule)
            else:
                path_text = " -> ".join(events) or "(empty path)"
            lines.append(f"  witness {index + 1}: {path_text}")
            for atom_text, value in witness.atom_values:
                lines.append(f"    {atom_text}: {'true' if value else 'false'}")
        if result.unlisted:
            lines.append(f"  ({result.unlisted} more violating paths)")
    return "\n".join(lines) + "\n"


def build_correction_prompt(code: str, report: SafetyReport) -> str:
    return render_prompt(PC2B, {"result": render_report(report), "code": code})


def suggest_correction(code: str, report: SafetyReport, gateway: LlmGateway) -> str:
    """Ask the gateway for corrected code; requires at least one violation.

    The code is the completion's first fenced block, or else the whole
    completion with any stray fence lines dropped; stripped, with one
    trailing newline.
    """
    if not report.violated:
        raise ValueError("correction needs a report with at least one violation")
    prompt = build_correction_prompt(code, report)
    completion = gateway.complete(CompletionRequest(prompt=prompt))
    block = fenced_block(completion)
    return (strip_fences(completion) if block is None else block).strip() + "\n"
