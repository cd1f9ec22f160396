"""The rule and constraint parsers against the parsers they replaced.

Both grammars lex with ``util.lex`` and parse over ``util.TokenStream``,
which enforces the one ``MAX_NESTING``. The references below are the
earlier lexers and parsers, kept verbatim, each with its own token type,
lexer loop and nesting guard. On any text both sides must give the same
tokens (text and position, and kind for OCL), the same parse, and the same
error: type, message and position.
"""

import ast
import re
from dataclasses import dataclass
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdv_guard import safety_rules
from sdv_guard.errors import ConstraintError, RuleParseError
from sdv_guard.safety_rules import AndExpr, Expr, NotExpr, OrExpr, RuleAtom, parse_rules
from sdv_guard.topology import default_metamodel, ocl, parse_constraints
from sdv_guard.topology.ocl import (
    AndOp,
    Compare,
    Constraint,
    EnumLit,
    Implies,
    IsTypeOf,
    Let,
    Nav,
    NotOp,
    NumberLit,
    OclExpr,
    OrOp,
    SelfRef,
    StringLit,
    ToReal,
    VarRef,
    _height,
)
from sdv_guard.util import normalize_name, parse_number

from conftest import FIXTURES, ROOT
from test_text_inputs import _OCL_PIECES, _RULE_PIECES, _mutated, _texts

# the limit both references enforced, each with its own copy
MAX_NESTING = 64

# ---------------------------------------------------------------------------
# reference: the rule lexer and parser

_RULE_KEYWORDS = {"and", "or", "not", "before", "after", "require", "forbid"}
_WORD_RE = re.compile(r"[A-Za-z0-9_-]+")


@dataclass(frozen=True)
class _RuleToken:
    text: str
    position: int


def _ref_rule_lex(text: str) -> list[_RuleToken]:
    tokens: list[_RuleToken] = []
    index = 0
    while index < len(text):
        char = text[index]
        if char.isspace():
            index += 1
            continue
        if char in "()":
            tokens.append(_RuleToken(char, index))
            index += 1
            continue
        match = _WORD_RE.match(text, index)
        if not match:
            raise RuleParseError(f"unexpected character '{char}'", position=index)
        tokens.append(_RuleToken(match.group(0), index))
        index = match.end()
    return tokens


class _RefExprParser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _ref_rule_lex(text)
        self.index = 0
        self.depth = 0  # enclosing 'not's and parentheses

    def peek(self) -> _RuleToken | None:
        return self.tokens[self.index] if self.index < len(self.tokens) else None

    def take(self) -> _RuleToken:
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
        if token.text not in ("not", "("):
            return self.atom()
        self.take()
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise RuleParseError(
                f"expression nests deeper than {MAX_NESTING} levels", position=token.position
            )
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
        while (tok := self.peek()) is not None:
            if tok.text in _RULE_KEYWORDS or tok.text in "()":
                break
            words.append(self.take().text)
        if not words:
            token = self.peek()
            position = token.position if token else len(self.text)
            raise RuleParseError("expected an event name", position=position)
        return normalize_name("-".join(words))


# ---------------------------------------------------------------------------
# reference: the constraint lexer and parser

_TOKEN_SPEC = [
    ("WS", r"[ \t\r\n]+"),
    ("COMMENT", r"--[^\n]*"),
    ("NUMBER", r"-?\d+(?:\.\d+)?"),
    ("STRING", r"'[^']*'"),
    ("IDENT", r"[A-Za-z_][A-Za-z0-9_]*(?:-[A-Za-z0-9_]+)*"),
    ("COLONCOLON", r"::"),
    ("LE", r"<="),
    ("GE", r">="),
    ("NE", r"<>"),
    ("LT", r"<"),
    ("GT", r">"),
    ("EQ", r"="),
    ("LPAREN", r"\("),
    ("RPAREN", r"\)"),
    ("DOT", r"\."),
    ("COLON", r":"),
]
_OCL_TOKEN_RE = re.compile("|".join(f"(?P<{name}>{pattern})" for name, pattern in _TOKEN_SPEC))

_OCL_KEYWORDS = {"context", "inv", "let", "in", "implies", "and", "or", "not", "self"}

_CMP_OPS = {"EQ": "=", "NE": "<>", "LT": "<", "LE": "<=", "GT": ">", "GE": ">="}


@dataclass(frozen=True)
class _OclToken:
    kind: str
    text: str
    position: int


def _ref_ocl_lex(text: str) -> list[_OclToken]:
    tokens: list[_OclToken] = []
    index = 0
    while index < len(text):
        match = _OCL_TOKEN_RE.match(text, index)
        if match is None:
            raise ConstraintError(
                f"unexpected character '{text[index]}'", position=index
            )
        kind = match.lastgroup
        if kind not in ("WS", "COMMENT"):
            value = match.group(0)
            if kind == "IDENT" and value in _OCL_KEYWORDS:
                kind = value  # keyword tokens carry their own kind
            tokens.append(_OclToken(kind=kind, text=value, position=index))
        index = match.end()
    return tokens


class _RefOclParser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _ref_ocl_lex(text)
        self.index = 0
        self.depth = 0

    def peek(self) -> _OclToken | None:
        return self.tokens[self.index] if self.index < len(self.tokens) else None

    def take(self, kind: str | None = None) -> _OclToken:
        token = self.peek()
        if token is None:
            raise ConstraintError("unexpected end of constraint text",
                                  position=len(self.text))
        if kind is not None and token.kind != kind:
            raise ConstraintError(
                f"expected {kind}, got '{token.text}'", position=token.position
            )
        self.index += 1
        return token

    def at(self, kind: str) -> bool:
        token = self.peek()
        return token is not None and token.kind == kind

    def nest(self, token: _OclToken) -> None:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise _ref_too_deep(token)

    def document(self) -> list[Constraint]:
        constraints: list[Constraint] = []
        while self.peek() is not None:
            self.take("context")
            context_cls = self.take("IDENT").text
            if not self.at("inv"):
                raise ConstraintError(
                    "expected 'inv' after context declaration",
                    position=self.peek().position if self.peek() else len(self.text),
                )
            while self.at("inv"):
                self.take("inv")
                name = self.take("IDENT").text
                self.take("COLON")
                first = self.peek()
                body = self.expr()
                if _height(body) > MAX_NESTING:
                    raise _ref_too_deep(first)
                constraints.append(Constraint(name=name, context=context_cls, body=body))
        return constraints

    def expr(self) -> OclExpr:
        if self.at("let"):
            return self.let_expr()
        return self.implies_expr()

    def let_expr(self) -> Let:
        self.nest(self.take("let"))
        var = self.take("IDENT").text
        self.take("COLON")
        type_name = self.take("IDENT").text
        self.take("EQ")
        value = self.expr()
        self.take("in")
        body = self.expr()
        self.depth -= 1
        return Let(var=var, type_name=type_name, value=value, body=body)

    def implies_expr(self) -> OclExpr:
        left = self.or_expr()
        if self.at("implies"):
            self.nest(self.take("implies"))
            right = self.expr()
            self.depth -= 1
            return Implies(left=left, right=right)
        return left

    def or_expr(self) -> OclExpr:
        left = self.and_expr()
        while self.at("or"):
            self.take("or")
            left = OrOp(left=left, right=self.and_expr())
        return left

    def and_expr(self) -> OclExpr:
        left = self.comparison()
        while self.at("and"):
            self.take("and")
            left = AndOp(left=left, right=self.comparison())
        return left

    def comparison(self) -> OclExpr:
        left = self.operand()
        token = self.peek()
        if token is not None and token.kind in _CMP_OPS:
            self.take()
            right = self.operand()
            return Compare(op=_CMP_OPS[token.kind], left=left, right=right)
        return left

    def operand(self) -> OclExpr:
        if self.at("not"):
            self.nest(self.take("not"))
            child = self.operand()
            self.depth -= 1
            return NotOp(child=child)
        return self.postfix()

    def postfix(self) -> OclExpr:
        expr = self.atom()
        while self.at("DOT"):
            self.take("DOT")
            name = self.take("IDENT").text
            if self.at("LPAREN"):
                lparen = self.take("LPAREN")
                if name == "oclIsTypeOf":
                    cls = self.take("IDENT").text
                    self.take("RPAREN")
                    expr = IsTypeOf(target=expr, class_name=cls)
                elif name == "toReal":
                    self.take("RPAREN")
                    expr = ToReal(target=expr)
                else:
                    raise ConstraintError(
                        f"unsupported operation '{name}'",
                        position=lparen.position, symbol=name,
                    )
            else:
                expr = Nav(target=expr, attr=name)
        return expr

    def atom(self) -> OclExpr:
        token = self.peek()
        if token is None:
            raise ConstraintError("expected an expression", position=len(self.text))
        if token.kind == "self":
            self.take()
            return SelfRef()
        if token.kind == "NUMBER":
            self.take()
            try:  # an int literal stays exact
                value = parse_number(token.text)
            except ValueError:
                raise ConstraintError(f"invalid number '{token.text}'",
                                      position=token.position) from None
            except OverflowError:
                raise ConstraintError("number out of range", position=token.position) from None
            return NumberLit(value=value, is_real="." in token.text)
        if token.kind == "STRING":
            self.take()
            return StringLit(value=token.text[1:-1])
        if token.kind == "LPAREN":
            self.nest(self.take())
            inner = self.expr()
            self.take("RPAREN")
            self.depth -= 1
            return inner
        if token.kind == "IDENT":
            self.take()
            if self.at("COLONCOLON"):
                self.take("COLONCOLON")
                literal = self.take("IDENT").text
                return EnumLit(enum=token.text, literal=literal)
            return VarRef(name=token.text)
        raise ConstraintError(
            f"unexpected '{token.text}'", position=token.position
        )


def _ref_too_deep(token: _OclToken) -> ConstraintError:
    return ConstraintError(
        f"expression nests deeper than {MAX_NESTING} levels", position=token.position
    )


# ---------------------------------------------------------------------------
# the property: any text, both sides alike

_RULE_WORDS = st.sampled_from([
    "and", "or", "not", "before", "after", "require", "forbid", "(", ")", "a", "b-c", "x_1",
    "-", "_", "Brake", "0", "12", "a before b", "c-d after e", "(a before b)",
    "not c after d", "not " * 70, "(" * 70,
])
_OCL_WORDS = st.sampled_from([
    "context", "inv", "let", "in", "implies", "and", "or", "not", "self", "Message",
    "oclIsTypeOf", "toReal", "(", ")", ".", ":", "::", "=", "<>", "<", "<=", ">", ">=",
    "E::lit-x", "a-b-", "9a", "'", "'q'", "''", "0", "12", "-3", "1.5", "-0.25", "1.",
    "1" * 30, "--", "-- note\n", "self.name = 'a'", "self.x.toReal() >= -1.5",
    "self.oclIsTypeOf(Message)", "let v : Real = 2 in v < 3", "not " * 70, "(" * 70,
])
# spaces: ASCII ones, Unicode ones and a separator that str.isspace() counts
_SPACES = st.sampled_from([" ", "\t", "\n", "\r\n", "\x0b", "\x0c", "\u00a0", "\u2003",
                           "\x1c", "\u3000"])
# symbols of neither grammar, comments and quotes in rules, and any character
_STRAY = st.one_of(st.sampled_from(["#", "@", "!", "$", ",", ";", '"', "\\", "é", "٣", "１",
                                    "\x00", "\U0001f600", "--", "'", "'q'", "."]),
                   st.characters())


@st.composite
def _phrases(draw, words, separators: list[str]):
    """Grammar words, up to two spaces or stray symbols among them, joined
    by one separator."""
    parts = draw(st.lists(words, max_size=10))
    for _ in range(draw(st.integers(0, 2))):
        parts.insert(draw(st.integers(0, len(parts))), draw(_SPACES | _STRAY))
    return draw(st.sampled_from(separators)).join(parts)


_RULE_TEXTS = _phrases(_RULE_WORDS, [" ", " ", "\t", "\u00a0", "\u2003", "\x1c"])
_OCL_TEXTS = st.builds("{}{}".format,
                       st.sampled_from(["", "context Message inv N: ",
                                        "context Message\ninv N:\n  "]),
                       _phrases(_OCL_WORDS, [" ", " ", "\n", "\r\n", ""]))


def _outcome(call, *args):
    """("ok", result) or ("error", type, message, position)."""
    try:
        return "ok", call(*args)
    except (RuleParseError, ConstraintError) as exc:
        return "error", type(exc), str(exc), exc.position


def _rule_tokens(lex, text):
    return [(token.text, token.position) for token in lex(text)]


def _ocl_tokens(lex, text):
    return [(token.kind, token.text, token.position) for token in lex(text)]


@settings(max_examples=600, deadline=None, derandomize=True)
@given(text=_RULE_TEXTS)
def test_rule_lexer_and_parser_match_the_reference(text):
    assert (_outcome(_rule_tokens, lambda t: safety_rules._ExprParser(t).tokens, text)
            == _outcome(_rule_tokens, _ref_rule_lex, text))
    assert (_outcome(lambda t: safety_rules._ExprParser(t).parse(), text)
            == _outcome(lambda t: _RefExprParser(t).parse(), text))


@settings(max_examples=600, deadline=None, derandomize=True)
@given(text=_OCL_TEXTS)
def test_constraint_lexer_and_parser_match_the_reference(text):
    assert (_outcome(_ocl_tokens, lambda t: ocl._Parser(t).tokens, text)
            == _outcome(_ocl_tokens, _ref_ocl_lex, text))
    assert (_outcome(lambda t: ocl._Parser(t).document(), text)
            == _outcome(lambda t: _RefOclParser(t).document(), text))


@pytest.mark.parametrize("text, message", [
    ("a before b\u00a0and\x1cc-d after\u2003e", None),
    ("not (a before b) or c after d", None),
    ("a", "unexpected end of rule (at position 1)"),
    ("a before", "expected an event name (at position 8)"),
    ("a before b \u00a7", "unexpected character '\u00a7' (at position 11)"),
    ("a before b)", "unexpected ')' after expression (at position 10)"),
    ("(a before b", "unexpected end of rule (at position 11)"),
    ("(" * 65 + "a before b" + ")" * 65,
     "expression nests deeper than 64 levels (at position 64)"),
    ("not " * 65 + "a before b", "expression nests deeper than 64 levels (at position 256)"),
])
def test_rule_cases_match_the_reference(text, message):
    outcome = _outcome(lambda t: safety_rules._ExprParser(t).parse(), text)
    assert outcome == _outcome(lambda t: _RefExprParser(t).parse(), text)
    assert outcome[0] == "ok" if message is None else outcome[2] == message


_CONTEXT = "context Message inv N: "


@pytest.mark.parametrize("text, message", [
    (_CONTEXT + "self.name = 'a' -- note", None),
    (_CONTEXT + "let x : Real = 1.5 in x > -2", None),
    (_CONTEXT + "self.name\u00a0= 'a'", "unexpected character '\u00a0' (at position 32)"),
    (_CONTEXT + "self.name =", "expected an expression (at position 34)"),
    (_CONTEXT + "self.", "unexpected end of constraint text (at position 28)"),
    ("context Message N", "expected 'inv' after context declaration (at position 16)"),
    ("context 1", "expected IDENT, got '1' (at position 8)"),
    (_CONTEXT + "(" * 65 + "self" + ")" * 65,
     "expression nests deeper than 64 levels (at position 87)"),
    (_CONTEXT + " and ".join(["self.name = 'a'"] * 64),
     "expression nests deeper than 64 levels (at position 23)"),
])
def test_constraint_cases_match_the_reference(text, message):
    outcome = _outcome(lambda t: ocl._Parser(t).document(), text)
    assert outcome == _outcome(lambda t: _RefOclParser(t).document(), text)
    assert outcome[0] == "ok" if message is None else outcome[2] == message


# ---------------------------------------------------------------------------
# whole files: parse_rules and parse_constraints with either parser

_METAMODEL = default_metamodel()


def _parse_rules(text, reference: bool):
    parser = _RefExprParser if reference else safety_rules._ExprParser
    with mock.patch.object(safety_rules, "_ExprParser", parser):
        return _outcome(parse_rules, text)


def _parse_constraints(text, reference: bool):
    parser = _RefOclParser if reference else ocl._Parser
    with mock.patch.object(ocl, "_Parser", parser):
        return _outcome(parse_constraints, text, _METAMODEL)


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("rules/*.txt"))
                         + [FIXTURES / "topology" / "security.ocl"], ids=lambda p: p.name)
def test_fixture_files_parse_alike(path):
    parse = _parse_constraints if path.suffix == ".ocl" else _parse_rules
    text = path.read_text(encoding="utf-8")
    outcome = parse(text, reference=False)
    assert outcome[0] == "ok" and len(outcome[1]) > 0
    assert outcome == parse(text, reference=True)


@pytest.mark.parametrize("parse, texts, pieces", [
    (_parse_rules, _texts("rules/*.txt"), _RULE_PIECES),
    (_parse_constraints, _texts("topology/*.ocl"), _OCL_PIECES),
], ids=["rules", "constraints"])
def test_mutated_files_parse_alike(parse, texts, pieces):
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(text=_mutated(texts, pieces, pieces))
    def run(text):
        assert parse(text, reference=False) == parse(text, reference=True)

    run()


# ---------------------------------------------------------------------------
# one front end


def _front_end_sites(source: str, filename: str) -> set[tuple[str, str]]:
    """(file, what) for every assignment to ``MAX_NESTING`` and every
    ``peek`` or ``take`` method of a class in ``source``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        target = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        if target == "MAX_NESTING" and isinstance(node.ctx, ast.Store):
            found.add((filename, "MAX_NESTING"))
        elif isinstance(node, ast.ClassDef):
            found |= {(filename, f"{node.name}.{item.name}") for item in node.body
                      if isinstance(item, ast.FunctionDef) and item.name in ("peek", "take")}
    return found


def test_the_grammars_share_one_front_end():
    # the nesting limit and the token stream exist once, in util
    found = set()
    for path in sorted((ROOT / "src").rglob("*.py")):
        found |= _front_end_sites(path.read_text(encoding="utf-8"),
                                  path.relative_to(ROOT / "src").as_posix())
    assert found == {("sdv_guard/util.py", "MAX_NESTING"),
                     ("sdv_guard/util.py", "TokenStream.peek"),
                     ("sdv_guard/util.py", "TokenStream.take")}


@pytest.mark.parametrize("source", [
    "MAX_NESTING = 64",
    "MAX_NESTING: int = 64",
    "MAX_NESTING += 1",
    "limit, MAX_NESTING = 1, 2",
    "class P:\n    MAX_NESTING = 64",
    "def f(parser):\n    parser.MAX_NESTING = 64",
    "class P:\n    def peek(self):\n        pass",
    "class P(Base):\n    def take(self, kind=None):\n        pass",
])
def test_the_front_end_pin_sees_each_copy(source):
    assert _front_end_sites(source, "m.py")
