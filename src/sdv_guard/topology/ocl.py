"""Security constraints over instance models: a small OCL subset.

Constraint files hold one or more blocks:

    context <Class>
    inv <Name>:
        <expr>

Expression forms, loosest binding first: ``implies`` (right-associative),
``or``, ``and``, comparisons (``=``, ``<>``, ``<``, ``<=``, ``>``, ``>=``),
``not`` (binds tighter than comparisons, as in OCL), ``let x : T = e in e``,
``self`` navigation chains (``self.target.name``), ``e.oclIsTypeOf(C)``
(exact type, never a subclass), ``e.toReal()``, parentheses, and literals:
reals, integers, single-quoted strings and enum literals ``E::lit`` (the
literal part may contain hyphens). An expression nests at most
``MAX_NESTING`` levels, counting parentheses, ``not``, ``let`` and ``implies``
while parsing and the height of the finished expression tree.

Everything type-checks against the metamodel under the context class before
any evaluation. At evaluation time a constraint applies to every object
whose class equals the context class or inherits from it; other objects are
reported not-applicable. Boolean connectives short-circuit, so a false
antecedent never evaluates its consequent. Runtime faults (``toReal`` on a
non-numeric string, navigation to an unset attribute) fail the constraint
for that object with the fault as the reason: analysis errs on the side of
flagging.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import NamedTuple

from ..errors import ConstraintError
from ..util import MAX_NESTING, TokenStream, json_scalars, parse_number
from .model import InstanceModel, Metamodel, ModelObject

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

_CMP_OPS = {"EQ": "=", "NE": "<>", "LT": "<", "LE": "<=", "GT": ">", "GE": ">="}

_LET_TYPES = {"Real", "Integer", "String", "Boolean"}


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class SelfRef:
    pass


@dataclass(frozen=True)
class VarRef:
    name: str


@dataclass(frozen=True)
class Nav:
    target: "OclExpr"
    attr: str


@dataclass(frozen=True)
class IsTypeOf:
    target: "OclExpr"
    class_name: str


@dataclass(frozen=True)
class ToReal:
    target: "OclExpr"


@dataclass(frozen=True)
class NumberLit:
    value: int | float
    is_real: bool


@dataclass(frozen=True)
class StringLit:
    value: str


@dataclass(frozen=True)
class EnumLit:
    enum: str
    literal: str


@dataclass(frozen=True)
class Compare:
    op: str
    left: "OclExpr"
    right: "OclExpr"


@dataclass(frozen=True)
class NotOp:
    child: "OclExpr"


@dataclass(frozen=True)
class AndOp:
    left: "OclExpr"
    right: "OclExpr"


@dataclass(frozen=True)
class OrOp:
    left: "OclExpr"
    right: "OclExpr"


@dataclass(frozen=True)
class Implies:
    left: "OclExpr"
    right: "OclExpr"


@dataclass(frozen=True)
class Let:
    var: str
    type_name: str
    value: "OclExpr"
    body: "OclExpr"


OclExpr = (SelfRef | VarRef | Nav | IsTypeOf | ToReal | NumberLit | StringLit
           | EnumLit | Compare | NotOp | AndOp | OrOp | Implies | Let)


@dataclass(frozen=True)
class Constraint:
    name: str
    context: str
    body: OclExpr


@dataclass(frozen=True)
class ConstraintSet:
    constraints: tuple[Constraint, ...]

    def __len__(self) -> int:
        return len(self.constraints)


class _Parser(TokenStream):
    pattern = re.compile("|".join(f"(?P<{kind}>{regex})" for kind, regex in _TOKEN_SPEC))
    keywords = frozenset({"context", "inv", "let", "in", "implies", "and", "or", "not", "self"})
    error_type = ConstraintError
    end_message = "unexpected end of constraint text"

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
                    raise self.too_deep(first)
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


def _height(expr: OclExpr) -> int:
    """Levels in the expression tree, a leaf being one, found without recursion."""
    height, stack = 0, [(expr, 1)]
    while stack:
        node, level = stack.pop()
        height = max(height, level)
        stack.extend((child, level + 1) for child in vars(node).values()
                     if isinstance(child, OclExpr))
    return height


# ---------------------------------------------------------------------------
# compilation: type checking and evaluation in one pass over the tree

_BOOL = "Boolean"
_REAL = "Real"
_INT = "Integer"
_STR = "String"

_KIND_TO_TYPE = {"string": _STR, "real": _REAL, "int": _INT, "bool": _BOOL}

# connective -> (keyword, left value that decides the result, that result)
_CONNECTIVES = {AndOp: ("and", False, False), OrOp: ("or", True, True),
                Implies: ("implies", False, True)}


def _is_numeric(t) -> bool:
    return t in (_REAL, _INT)


class _EvalFault(Exception):
    pass


def _boolean(value) -> bool:
    if not isinstance(value, bool):
        raise _EvalFault(f"expected a boolean, got {value!r}")
    return value


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# each ordering operator's comparison; the compiler binds one per Compare
_ORDERINGS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def _same(left, right) -> bool:
    """``=`` at run time: objects by id, numbers exactly (an int against a
    float too), any other values of one type by value."""
    if isinstance(left, ModelObject) or isinstance(right, ModelObject):
        return (isinstance(left, ModelObject) and isinstance(right, ModelObject)
                and left.id == right.id)
    if type(left) is type(right) or (_is_number(left) and _is_number(right)):
        return left == right
    raise _EvalFault(f"cannot compare {left!r} with {right!r}")


def _constant(value):
    return lambda model, scope: value


class _Compiler:
    """Type-checks an expression tree and builds its evaluator in one walk.

    ``compile`` returns ``(static type, evaluator)``. The evaluator is
    ``fn(model, scope)``, where ``scope`` maps ``self`` and let variables to
    values. Static errors raise ConstraintError at compile time; runtime
    faults raise _EvalFault when the evaluator runs. Evaluators never rely on
    the static types, so models that skipped conformance get the same
    runtime checks.
    """

    def __init__(self, metamodel: Metamodel, context_cls: str, constraint: str):
        self.metamodel = metamodel
        self.context_cls = context_cls
        self.constraint = constraint

    def fail(self, message: str, symbol: str | None = None):
        raise ConstraintError(
            f"constraint '{self.constraint}': {message}", symbol=symbol
        )

    def compile(self, expr: OclExpr, env: dict[str, object]):
        if isinstance(expr, SelfRef):
            return ("Object", self.context_cls), lambda model, scope: scope["self"]
        if isinstance(expr, VarRef):
            name = expr.name
            if name not in env:
                self.fail(f"unknown name '{name}'", symbol=name)
            return env[name], lambda model, scope: scope[name]
        if isinstance(expr, NumberLit):
            return (_REAL if expr.is_real else _INT), _constant(expr.value)
        if isinstance(expr, StringLit):
            return _STR, _constant(expr.value)
        if isinstance(expr, EnumLit):
            enum = self.metamodel.enums.get(expr.enum)
            if enum is None:
                self.fail(f"unknown enum '{expr.enum}'", symbol=expr.enum)
            if expr.literal not in enum.literals:
                self.fail(
                    f"enum '{expr.enum}' has no literal '{expr.literal}'",
                    symbol=expr.literal,
                )
            return ("Enum", expr.enum), _constant(expr.literal)
        if isinstance(expr, Nav):
            target_type, target = self.compile(expr.target, env)
            name = expr.attr
            if not (isinstance(target_type, tuple) and target_type[0] == "Object"):
                self.fail(f"cannot navigate '{name}' on a non-object value",
                          symbol=name)
            attr = self.metamodel.resolve_attribute(target_type[1], name)
            if attr is None:
                self.fail(
                    f"class '{target_type[1]}' has no attribute '{name}'",
                    symbol=name,
                )
            if attr.category == "ref":
                result = ("Object", attr.target)
            elif attr.category == "enum":
                result = ("Enum", attr.target)
            else:
                result = _KIND_TO_TYPE[attr.category]

            def navigate(model, scope):
                obj = target(model, scope)
                if not isinstance(obj, ModelObject):
                    raise _EvalFault(f"cannot navigate '{name}' on {obj!r}")
                if name in obj.refs:
                    resolved = model.get(obj.refs[name])
                    if resolved is None:
                        raise _EvalFault(f"reference '{obj.id}.{name}' dangles")
                    return resolved
                if name in obj.attrs:
                    return obj.attrs[name]
                raise _EvalFault(f"object '{obj.id}' has no value for '{name}'")
            return result, navigate
        if isinstance(expr, IsTypeOf):
            target_type, target = self.compile(expr.target, env)
            class_name = expr.class_name
            if not (isinstance(target_type, tuple) and target_type[0] == "Object"):
                self.fail("oclIsTypeOf applies to objects only", symbol=class_name)
            if class_name not in self.metamodel.classes:
                self.fail(f"unknown class '{class_name}'", symbol=class_name)

            def is_type_of(model, scope):
                obj = target(model, scope)
                if not isinstance(obj, ModelObject):
                    raise _EvalFault("oclIsTypeOf applies to objects only")
                return obj.cls == class_name
            return _BOOL, is_type_of
        if isinstance(expr, ToReal):
            target_type, target = self.compile(expr.target, env)
            if target_type not in (_STR, _REAL, _INT):
                self.fail("toReal applies to strings and numbers only")

            def to_real(model, scope):
                value = target(model, scope)
                if isinstance(value, bool):
                    raise _EvalFault("toReal cannot convert a boolean")
                if isinstance(value, (int, float)):
                    try:
                        return float(value)
                    except OverflowError:
                        raise _EvalFault("toReal cannot convert an int this large") from None
                if isinstance(value, str):
                    try:
                        return float(parse_number(value))
                    except (ValueError, OverflowError):
                        raise _EvalFault(
                            f"toReal cannot convert '{value}'"
                        ) from None
                raise _EvalFault(f"toReal cannot convert {value!r}")
            return _REAL, to_real
        if isinstance(expr, Compare):
            left_type, left = self.compile(expr.left, env)
            right_type, right = self.compile(expr.right, env)
            op = expr.op
            ordering = _ORDERINGS.get(op)
            if ordering is None:
                if not _comparable(left_type, right_type):
                    self.fail(f"cannot compare {_type_name(left_type)} "
                              f"with {_type_name(right_type)}")
                negate = op == "<>"
                return _BOOL, lambda model, scope: _same(left(model, scope),
                                                         right(model, scope)) != negate
            if not (_is_numeric(left_type) and _is_numeric(right_type)):
                self.fail(f"'{op}' needs numeric operands")

            def order(model, scope):
                lhs, rhs = left(model, scope), right(model, scope)
                if _is_number(lhs) and _is_number(rhs):
                    return ordering(lhs, rhs)
                raise _EvalFault(f"'{op}' needs numeric operands")
            return _BOOL, order
        if isinstance(expr, NotOp):
            child_type, child = self.compile(expr.child, env)
            if child_type != _BOOL:
                self.fail("'not' needs a boolean operand")
            return _BOOL, lambda model, scope: not _boolean(child(model, scope))
        if isinstance(expr, (AndOp, OrOp, Implies)):
            word, decider, decided = _CONNECTIVES[type(expr)]
            left_type, left = self.compile(expr.left, env)
            if left_type != _BOOL:
                self.fail(f"'{word}' needs boolean operands")
            right_type, right = self.compile(expr.right, env)
            if right_type != _BOOL:
                self.fail(f"'{word}' needs boolean operands")

            def connective(model, scope):
                if _boolean(left(model, scope)) == decider:
                    return decided  # short circuit: right is never evaluated
                return _boolean(right(model, scope))
            return _BOOL, connective
        if isinstance(expr, Let):
            declared = expr.type_name
            if declared not in _LET_TYPES:
                self.fail(f"unknown let type '{declared}'", symbol=declared)
            value_type, value = self.compile(expr.value, env)
            widens = declared == _REAL and _is_numeric(value_type)
            if not widens and value_type != declared:
                self.fail(
                    f"let '{expr.var}' declares {declared} but binds "
                    f"{_type_name(value_type)}"
                )
            var = expr.var
            body_type, body = self.compile(expr.body, {**env, var: declared})

            def let(model, scope):
                inner = dict(scope)
                inner[var] = value(model, scope)
                return body(model, inner)
            return body_type, let
        raise TypeError(f"unknown expression node {expr!r}")


def _comparable(left, right) -> bool:
    if _is_numeric(left) and _is_numeric(right):
        return True
    if left == right and not isinstance(left, tuple):
        return True
    if isinstance(left, tuple) and isinstance(right, tuple):
        return left[0] == right[0] and (left[0] == "Object" or left[1] == right[1])
    return False


def _type_name(t) -> str:
    if isinstance(t, tuple):
        return f"{t[0]}({t[1]})"
    return str(t)


def _compile(constraint: Constraint, metamodel: Metamodel):
    """Type-check one constraint against the metamodel; return its evaluator."""
    if constraint.context not in metamodel.classes:
        raise ConstraintError(
            f"constraint '{constraint.name}': unknown context class "
            f"'{constraint.context}'",
            symbol=constraint.context,
        )
    compiler = _Compiler(metamodel, constraint.context, constraint.name)
    result, evaluate = compiler.compile(constraint.body, {})
    if result != _BOOL:
        raise ConstraintError(
            f"constraint '{constraint.name}' must be boolean, got {_type_name(result)}"
        )
    return evaluate


def parse_constraints(text: str, metamodel: Metamodel) -> ConstraintSet:
    """Parse and type-check a constraint file against the metamodel."""
    constraints = _Parser(text).document()
    names: set[str] = set()
    for constraint in constraints:
        if constraint.name in names:
            raise ConstraintError(f"duplicate constraint name '{constraint.name}'")
        names.add(constraint.name)
        _compile(constraint, metamodel)
    return ConstraintSet(constraints=tuple(constraints))


# ---------------------------------------------------------------------------
# evaluation


VERDICT_PASS = "pass"
VERDICT_FAIL = "fail"
VERDICT_NOT_APPLICABLE = "not-applicable"


class ConstraintVerdict(NamedTuple):
    constraint: str
    object_id: str
    verdict: str
    reason: str = ""


@dataclass(frozen=True)
class TopologyReport:
    rows: tuple[ConstraintVerdict, ...]

    @cached_property  # rows never change, so the first read serves every later one
    def failing(self) -> tuple[ConstraintVerdict, ...]:
        return tuple(r for r in self.rows if r.verdict == VERDICT_FAIL)

    @property
    def overall(self) -> str:
        return VERDICT_FAIL if self.failing else VERDICT_PASS

    def to_json(self) -> str:
        """The document of ``topology_iterN.json``, byte for byte what
        ``dump_json`` writes: ``overall``, then one object per row with its
        constraint, object, verdict and, only when not empty, reason. The
        layout is written here, with the text of each distinct string from
        one ``json_scalars`` call."""
        if not self.rows:
            return f'{{\n  "overall": "{self.overall}",\n  "rows": []\n}}\n'
        strings = list(set(chain.from_iterable(self.rows)))
        text = dict(zip(strings, json_scalars(strings)))
        rows = ",\n    ".join([
            f'{{\n      "constraint": {text[constraint]},\n      "object": {text[object_id]},\n'
            f'      "reason": {text[reason]},\n      "verdict": {text[verdict]}\n    }}'
            if reason else
            f'{{\n      "constraint": {text[constraint]},\n      "object": {text[object_id]},\n'
            f'      "verdict": {text[verdict]}\n    }}'
            for constraint, object_id, verdict, reason in self.rows])
        return f'{{\n  "overall": "{self.overall}",\n  "rows": [\n    {rows}\n  ]\n}}\n'


def eval_constraints(model: InstanceModel, constraints: ConstraintSet,
                     metamodel: Metamodel) -> TopologyReport:
    """Evaluate every constraint against every object; nothing is skipped silently.

    Each constraint is type-checked against ``metamodel`` again, once, and a
    constraint that does not check raises ConstraintError. The rows follow
    the constraints in file order and, within each, every object by id.
    """
    rows: list[ConstraintVerdict] = []
    append = rows.append
    new = tuple.__new__  # ConstraintVerdict(...) without its argument handling
    objects = sorted(model.objects.values(), key=lambda o: o.id)
    for constraint in constraints.constraints:
        evaluate = _compile(constraint, metamodel)
        applicable = metamodel.subclasses(constraint.context)
        name = constraint.name
        for obj in objects:
            if obj.cls not in applicable:
                append(new(ConstraintVerdict,
                           (name, obj.id, VERDICT_NOT_APPLICABLE, "")))
                continue
            try:
                value = evaluate(model, {"self": obj})
                if not isinstance(value, bool):
                    raise _EvalFault(f"constraint produced {value!r}, not a boolean")
            except _EvalFault as fault:
                append(new(ConstraintVerdict, (name, obj.id, VERDICT_FAIL, str(fault))))
                continue
            append(new(ConstraintVerdict,
                       (name, obj.id, VERDICT_PASS if value else VERDICT_FAIL, "")))
    return TopologyReport(rows=tuple(rows))


def render_topology_report(report: TopologyReport) -> str:
    """One line per (constraint, object): the pass/fail list used downstream."""
    lines = [f"overall: {report.overall}"]
    for row in report.rows:
        line = f"{row.constraint} {row.object_id} {row.verdict}"
        if row.reason:
            line += f" ({row.reason})"
        lines.append(line)
    return "\n".join(lines) + "\n"
