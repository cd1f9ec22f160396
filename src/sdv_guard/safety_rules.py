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

An EVENT is one or more identifier words; consecutive words are joined with
hyphens and normalized, so ``camera-pedestrian detected`` and
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
path; ``forbid`` passes iff it is false on every path. Each failing path is
recorded as a witness with the truth value of every atom on that path.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fnmatch import fnmatchcase

from .errors import RuleParseError
from .eventchain import ChainDocument, EventSequence, chain_digest, enumerate_paths
from .llm_gateway import PC2B, CompletionRequest, LlmGateway, render_prompt
from .util import normalize_name

MODES = ("require", "forbid")
VERDICT_PASS = "pass"
VERDICT_VIOLATED = "violated"
_KEYWORDS = {"and", "or", "not", "before", "after", "require", "forbid"}
_WORD_RE = re.compile(r"[A-Za-z0-9_-]+")
_NAME_RE = re.compile(r"^[A-Za-z0-9_-]+$")


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


@dataclass(frozen=True)
class SafetyRule:
    name: str
    expr: Expr
    mode: str = "require"
    aliases: tuple[tuple[str, tuple[str, ...]], ...] = ()

    def alias_patterns(self, event: str) -> tuple[str, ...]:
        for name, patterns in self.aliases:
            if name == event:
                return patterns
        return ()


@dataclass(frozen=True)
class RuleSet:
    rules: tuple[SafetyRule, ...]

    def __len__(self) -> int:
        return len(self.rules)


@dataclass(frozen=True)
class Witness:
    sequence: EventSequence
    atom_values: tuple[tuple[str, bool], ...]
    expr_value: bool


@dataclass(frozen=True)
class RuleResult:
    rule: SafetyRule
    verdict: str  # "pass" | "violated"
    witnesses: tuple[Witness, ...]


@dataclass(frozen=True)
class SafetyReport:
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
                                {"position": s.position, "event": s.event, "node": s.node_id}
                                for s in w.sequence.steps
                            ],
                            "atoms": [[text, value] for text, value in w.atom_values],
                            "value": w.expr_value,
                        }
                        for w in r.witnesses
                    ],
                }
                for r in self.results
            ],
        }


# ---------------------------------------------------------------------------
# parsing


@dataclass(frozen=True)
class _Token:
    text: str
    position: int


def _lex(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    index = 0
    while index < len(text):
        char = text[index]
        if char.isspace():
            index += 1
            continue
        if char in "()":
            tokens.append(_Token(char, index))
            index += 1
            continue
        match = _WORD_RE.match(text, index)
        if not match:
            raise RuleParseError(f"unexpected character '{char}'", position=index)
        tokens.append(_Token(match.group(0), index))
        index = match.end()
    return tokens


class _ExprParser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _lex(text)
        self.index = 0

    def peek(self) -> _Token | None:
        return self.tokens[self.index] if self.index < len(self.tokens) else None

    def take(self) -> _Token:
        token = self.peek()
        if token is None:
            raise RuleParseError("unexpected end of rule", position=len(self.text))
        self.index += 1
        return token

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
        while (tok := self.peek()) is not None and tok.text == "or":
            self.take()
            children.append(self.term())
        return children[0] if len(children) == 1 else OrExpr(tuple(children))

    def term(self) -> Expr:
        children = [self.factor()]
        while (tok := self.peek()) is not None and tok.text == "and":
            self.take()
            children.append(self.factor())
        return children[0] if len(children) == 1 else AndExpr(tuple(children))

    def factor(self) -> Expr:
        token = self.peek()
        if token is None:
            raise RuleParseError("expected an atom", position=len(self.text))
        if token.text == "not":
            self.take()
            return NotExpr(self.factor())
        if token.text == "(":
            self.take()
            inner = self.expr()
            closing = self.take()
            if closing.text != ")":
                raise RuleParseError("expected ')'", position=closing.position)
            return inner
        return self.atom()

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
        while (tok := self.peek()) is not None:
            if tok.text in _KEYWORDS or tok.text in "()":
                break
            words.append(self.take().text)
        if not words:
            token = self.peek()
            position = token.position if token else len(self.text)
            raise RuleParseError("expected an event name", position=position)
        return normalize_name("-".join(words))


def parse_rules(text: str) -> RuleSet:
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
    return RuleSet(rules=tuple(rules))


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


def _matches(chain_event: str, rule_event: str, rule: SafetyRule | None) -> bool:
    if chain_event == rule_event:
        return True
    if rule is None:
        return False
    return any(
        fnmatchcase(chain_event, pattern)
        for pattern in rule.alias_patterns(rule_event)
    )


def _positions(sequence: EventSequence, event: str, rule: SafetyRule | None) -> list[int]:
    return [
        step.position
        for step in sequence.steps
        if _matches(step.event, event, rule)
    ]


def eval_atom(sequence: EventSequence, atom: RuleAtom,
              rule: SafetyRule | None = None) -> bool:
    """Truth of one ordering atom on one path (see module docstring)."""
    lefts = _positions(sequence, atom.left, rule)
    rights = _positions(sequence, atom.right, rule)
    if atom.op == "before":
        return all(any(l < r for l in lefts) for r in rights)
    return all(any(r < l for r in rights) for l in lefts)


def eval_expr(expr: Expr, sequence: EventSequence,
              rule: SafetyRule | None = None) -> bool:
    if isinstance(expr, RuleAtom):
        return eval_atom(sequence, expr, rule)
    if isinstance(expr, NotExpr):
        return not eval_expr(expr.child, sequence, rule)
    if isinstance(expr, AndExpr):
        return all(eval_expr(c, sequence, rule) for c in expr.children)
    if isinstance(expr, OrExpr):
        return any(eval_expr(c, sequence, rule) for c in expr.children)
    raise TypeError(f"unknown expression node {expr!r}")


def expr_atoms(expr: Expr) -> list[RuleAtom]:
    if isinstance(expr, RuleAtom):
        return [expr]
    if isinstance(expr, NotExpr):
        return expr_atoms(expr.child)
    out: list[RuleAtom] = []
    for child in expr.children:
        out.extend(expr_atoms(child))
    return out


def eval_rule(document: ChainDocument, rule: SafetyRule) -> RuleResult:
    """Evaluate one rule over every enumerated path of the chain."""
    witnesses: list[Witness] = []
    atoms = expr_atoms(rule.expr)
    for sequence in enumerate_paths(document):
        value = eval_expr(rule.expr, sequence, rule)
        ok = value if rule.mode == "require" else not value
        if not ok:
            seen: dict[str, bool] = {}
            for atom in atoms:
                seen.setdefault(atom.text(), eval_atom(sequence, atom, rule))
            witnesses.append(Witness(
                sequence=sequence,
                atom_values=tuple(sorted(seen.items())),
                expr_value=value,
            ))
    verdict = VERDICT_VIOLATED if witnesses else VERDICT_PASS
    return RuleResult(rule=rule, verdict=verdict, witnesses=tuple(witnesses))


def check(document: ChainDocument, ruleset: RuleSet) -> SafetyReport:
    results = tuple(eval_rule(document, rule) for rule in ruleset.rules)
    return SafetyReport(results=results, chain_digest=chain_digest(document))


def render_report(report: SafetyReport) -> str:
    """Stable human-readable form; also the analysis-outcome text for correction."""
    lines = [f"overall: {report.overall}", f"chain: {report.chain_digest}"]
    for result in report.results:
        lines.append(f"rule {result.rule.name} [{result.rule.mode}]: {result.verdict}")
        for index, witness in enumerate(result.witnesses):
            path_text = " -> ".join(witness.sequence.events) or "(empty path)"
            lines.append(f"  witness {index + 1}: {path_text}")
            for atom_text, value in witness.atom_values:
                lines.append(f"    {atom_text}: {'true' if value else 'false'}")
    return "\n".join(lines) + "\n"


def build_correction_prompt(code: str, report: SafetyReport) -> str:
    return render_prompt(PC2B, {"result": render_report(report), "code": code})


def suggest_correction(code: str, report: SafetyReport, gateway: LlmGateway) -> str:
    """Ask the gateway for corrected code; requires at least one violation."""
    if not report.violated:
        raise ValueError("correction needs a report with at least one violation")
    prompt = build_correction_prompt(code, report)
    return gateway.complete(CompletionRequest(prompt=prompt))
