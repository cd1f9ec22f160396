"""The topology layer against reference implementations.

``parse_constraints`` and ``eval_constraints`` compile each constraint in one
typed pass, ``conform`` reads per-class tables, and ``Metamodel`` answers
class questions from tables built once. The references below are the
separate type checker, tree-walking evaluator, per-object conformance check
and parent-chain walks they replaced. Both sides must give the same errors,
the same reports and the same class answers.
"""

import json
import random

import pytest

from sdv_guard.errors import ConstraintError, MetamodelError
from sdv_guard.topology import (
    Attribute,
    ConformanceReport,
    ConformanceViolation,
    ConstraintSet,
    EnumDef,
    InstanceModel,
    MetaClass,
    Metamodel,
    ModelObject,
    TopologyReport,
    VERDICT_FAIL,
    VERDICT_NOT_APPLICABLE,
    VERDICT_PASS,
    conform,
    default_metamodel,
    eval_constraints,
    import_class_diagram,
    parse_constraints,
    parse_instance,
    parse_metamodel,
    render_topology_report,
)
from sdv_guard.topology.ocl import (
    AndOp,
    Compare,
    ConstraintVerdict,
    EnumLit,
    Implies,
    IsTypeOf,
    Let,
    Nav,
    NotOp,
    NumberLit,
    OrOp,
    SelfRef,
    StringLit,
    ToReal,
    VarRef,
    _Parser,
)

# ---------------------------------------------------------------------------
# reference: parent-chain walks


def _ref_is_subclass(metamodel, child, ancestor):
    current = child
    while current is not None:
        if current == ancestor:
            return True
        cls = metamodel.classes.get(current)
        current = cls.parent if cls else None
    return False


def _ref_all_attributes(metamodel, class_name):
    chain = []
    current = metamodel.classes.get(class_name)
    while current is not None:
        chain.append(current)
        current = metamodel.classes.get(current.parent) if current.parent else None
    out = {}
    for cls in reversed(chain):
        for attr in cls.attributes:
            out[attr.name] = attr
    return out


def _ref_resolve_attribute(metamodel, class_name, attr_name):
    return _ref_all_attributes(metamodel, class_name).get(attr_name)


def _ref_category(attr):
    return attr.kind.split("(", 1)[0]


def _ref_target(attr):
    if "(" in attr.kind:
        return attr.kind[attr.kind.index("(") + 1:-1]
    return None


# ---------------------------------------------------------------------------
# reference: conformance, one object at a time


def _ref_value_matches(kind_category, value, enum):
    if kind_category == "string":
        return isinstance(value, str)
    if kind_category == "bool":
        return isinstance(value, bool)
    if kind_category == "int":
        return isinstance(value, int) and not isinstance(value, bool)
    if kind_category == "real":
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind_category == "enum":
        return isinstance(value, str) and enum is not None and value in enum.literals
    return False


def _ref_conform(model, metamodel):
    """Check every object against its class: kinds, targets, abstractness."""
    violations = []
    for obj in model.objects.values():
        cls = metamodel.classes.get(obj.cls)
        if cls is None:
            violations.append(ConformanceViolation(
                obj.id, "unknown-class", f"class '{obj.cls}' is not in the metamodel"
            ))
            continue
        if cls.abstract:
            violations.append(ConformanceViolation(
                obj.id, "abstract-class", f"class '{obj.cls}' is abstract"
            ))
        declared = _ref_all_attributes(metamodel, obj.cls)
        for name, value in obj.attrs.items():
            attr = declared.get(name)
            if attr is None:
                violations.append(ConformanceViolation(
                    obj.id, "unknown-attribute", f"'{obj.cls}' declares no '{name}'"
                ))
                continue
            if _ref_category(attr) == "ref":
                violations.append(ConformanceViolation(
                    obj.id, "kind-mismatch",
                    f"'{name}' is a reference, assign it under references"
                ))
                continue
            enum = (metamodel.enums.get(_ref_target(attr))
                    if _ref_category(attr) == "enum" else None)
            if not _ref_value_matches(_ref_category(attr), value, enum):
                violations.append(ConformanceViolation(
                    obj.id, "kind-mismatch",
                    f"'{name}' = {value!r} does not match kind {attr.kind}"
                ))
        for name, target_id in obj.refs.items():
            attr = declared.get(name)
            if attr is None:
                violations.append(ConformanceViolation(
                    obj.id, "unknown-attribute", f"'{obj.cls}' declares no '{name}'"
                ))
                continue
            if _ref_category(attr) != "ref":
                violations.append(ConformanceViolation(
                    obj.id, "kind-mismatch",
                    f"'{name}' has kind {attr.kind}, not a reference"
                ))
                continue
            target = model.get(target_id)
            if target is None:
                violations.append(ConformanceViolation(
                    obj.id, "dangling-reference",
                    f"'{name}' points to missing object '{target_id}'"
                ))
                continue
            if target.cls not in metamodel.classes or not _ref_is_subclass(
                metamodel, target.cls, _ref_target(attr)
            ):
                violations.append(ConformanceViolation(
                    obj.id, "ill-typed-reference",
                    f"'{name}' must target {_ref_target(attr)}, got {target.cls} '{target_id}'"
                ))
    return ConformanceReport(violations=tuple(violations))


# ---------------------------------------------------------------------------
# reference: type checker

_BOOL, _REAL, _INT, _STR = "Boolean", "Real", "Integer", "String"
_KIND_TO_TYPE = {"string": _STR, "real": _REAL, "int": _INT, "bool": _BOOL}
_LET_TYPES = {"Real", "Integer", "String", "Boolean"}


def _is_numeric(t):
    return t in (_REAL, _INT)


def _comparable(left, right):
    if _is_numeric(left) and _is_numeric(right):
        return True
    if left == right and not isinstance(left, tuple):
        return True
    if isinstance(left, tuple) and isinstance(right, tuple):
        return left[0] == right[0] and (left[0] == "Object" or left[1] == right[1])
    return False


def _type_name(t):
    if isinstance(t, tuple):
        return f"{t[0]}({t[1]})"
    return str(t)


class _RefTypeChecker:
    def __init__(self, metamodel, context_cls, constraint):
        self.metamodel = metamodel
        self.context_cls = context_cls
        self.constraint = constraint

    def fail(self, message, symbol=None):
        raise ConstraintError(f"constraint '{self.constraint}': {message}", symbol=symbol)

    def check(self, expr, env):
        if isinstance(expr, SelfRef):
            return ("Object", self.context_cls)
        if isinstance(expr, VarRef):
            if expr.name not in env:
                self.fail(f"unknown name '{expr.name}'", symbol=expr.name)
            return env[expr.name]
        if isinstance(expr, NumberLit):
            return _REAL if expr.is_real else _INT
        if isinstance(expr, StringLit):
            return _STR
        if isinstance(expr, EnumLit):
            enum = self.metamodel.enums.get(expr.enum)
            if enum is None:
                self.fail(f"unknown enum '{expr.enum}'", symbol=expr.enum)
            if expr.literal not in enum.literals:
                self.fail(f"enum '{expr.enum}' has no literal '{expr.literal}'",
                          symbol=expr.literal)
            return ("Enum", expr.enum)
        if isinstance(expr, Nav):
            target = self.check(expr.target, env)
            if not (isinstance(target, tuple) and target[0] == "Object"):
                self.fail(f"cannot navigate '{expr.attr}' on a non-object value",
                          symbol=expr.attr)
            attr = _ref_resolve_attribute(self.metamodel, target[1], expr.attr)
            if attr is None:
                self.fail(f"class '{target[1]}' has no attribute '{expr.attr}'",
                          symbol=expr.attr)
            if attr.category == "ref":
                return ("Object", attr.target)
            if attr.category == "enum":
                return ("Enum", attr.target)
            return _KIND_TO_TYPE[attr.category]
        if isinstance(expr, IsTypeOf):
            target = self.check(expr.target, env)
            if not (isinstance(target, tuple) and target[0] == "Object"):
                self.fail("oclIsTypeOf applies to objects only", symbol=expr.class_name)
            if expr.class_name not in self.metamodel.classes:
                self.fail(f"unknown class '{expr.class_name}'", symbol=expr.class_name)
            return _BOOL
        if isinstance(expr, ToReal):
            target = self.check(expr.target, env)
            if target not in (_STR, _REAL, _INT):
                self.fail("toReal applies to strings and numbers only")
            return _REAL
        if isinstance(expr, Compare):
            left = self.check(expr.left, env)
            right = self.check(expr.right, env)
            if expr.op in ("<", "<=", ">", ">="):
                if not (_is_numeric(left) and _is_numeric(right)):
                    self.fail(f"'{expr.op}' needs numeric operands")
            else:
                if not _comparable(left, right):
                    self.fail(f"cannot compare {_type_name(left)} with {_type_name(right)}")
            return _BOOL
        if isinstance(expr, NotOp):
            if self.check(expr.child, env) != _BOOL:
                self.fail("'not' needs a boolean operand")
            return _BOOL
        if isinstance(expr, (AndOp, OrOp, Implies)):
            word = {"AndOp": "and", "OrOp": "or", "Implies": "implies"}[type(expr).__name__]
            if self.check(expr.left, env) != _BOOL or self.check(expr.right, env) != _BOOL:
                self.fail(f"'{word}' needs boolean operands")
            return _BOOL
        if isinstance(expr, Let):
            if expr.type_name not in _LET_TYPES:
                self.fail(f"unknown let type '{expr.type_name}'", symbol=expr.type_name)
            value = self.check(expr.value, env)
            declared = expr.type_name
            if declared == _REAL and _is_numeric(value):
                pass
            elif value != declared:
                self.fail(f"let '{expr.var}' declares {declared} but binds {_type_name(value)}")
            inner = dict(env)
            inner[expr.var] = declared
            return self.check(expr.body, inner)
        raise TypeError(f"unknown expression node {expr!r}")


def _ref_parse_constraints(text, metamodel):
    constraints = _Parser(text).document()
    names = set()
    for constraint in constraints:
        if constraint.name in names:
            raise ConstraintError(f"duplicate constraint name '{constraint.name}'")
        names.add(constraint.name)
        if constraint.context not in metamodel.classes:
            raise ConstraintError(
                f"constraint '{constraint.name}': unknown context class "
                f"'{constraint.context}'",
                symbol=constraint.context,
            )
        checker = _RefTypeChecker(metamodel, constraint.context, constraint.name)
        result = checker.check(constraint.body, {})
        if result != _BOOL:
            raise ConstraintError(
                f"constraint '{constraint.name}' must be boolean, got {_type_name(result)}"
            )
    return ConstraintSet(constraints=tuple(constraints))


# ---------------------------------------------------------------------------
# reference: evaluator


class _RefFault(Exception):
    pass


class _RefEvaluator:
    def __init__(self, model):
        self.model = model

    def eval(self, expr, env):
        if isinstance(expr, SelfRef):
            return env["self"]
        if isinstance(expr, VarRef):
            return env[expr.name]
        if isinstance(expr, NumberLit):
            return expr.value
        if isinstance(expr, StringLit):
            return expr.value
        if isinstance(expr, EnumLit):
            return expr.literal
        if isinstance(expr, Nav):
            target = self.eval(expr.target, env)
            if not isinstance(target, ModelObject):
                raise _RefFault(f"cannot navigate '{expr.attr}' on {target!r}")
            if expr.attr in target.refs:
                resolved = self.model.get(target.refs[expr.attr])
                if resolved is None:
                    raise _RefFault(f"reference '{target.id}.{expr.attr}' dangles")
                return resolved
            if expr.attr in target.attrs:
                return target.attrs[expr.attr]
            raise _RefFault(f"object '{target.id}' has no value for '{expr.attr}'")
        if isinstance(expr, IsTypeOf):
            target = self.eval(expr.target, env)
            if not isinstance(target, ModelObject):
                raise _RefFault("oclIsTypeOf applies to objects only")
            return target.cls == expr.class_name
        if isinstance(expr, ToReal):
            value = self.eval(expr.target, env)
            if isinstance(value, bool):
                raise _RefFault("toReal cannot convert a boolean")
            if isinstance(value, (int, float)):
                try:
                    return float(value)
                except OverflowError:
                    raise _RefFault("toReal cannot convert an int this large") from None
            if isinstance(value, str):
                try:
                    return float(value.strip())
                except ValueError:
                    raise _RefFault(f"toReal cannot convert '{value}'") from None
            raise _RefFault(f"toReal cannot convert {value!r}")
        if isinstance(expr, Compare):
            left = self.eval(expr.left, env)
            right = self.eval(expr.right, env)
            return self._compare(expr.op, left, right)
        if isinstance(expr, NotOp):
            return not self._boolean(self.eval(expr.child, env))
        if isinstance(expr, AndOp):
            if not self._boolean(self.eval(expr.left, env)):
                return False
            return self._boolean(self.eval(expr.right, env))
        if isinstance(expr, OrOp):
            if self._boolean(self.eval(expr.left, env)):
                return True
            return self._boolean(self.eval(expr.right, env))
        if isinstance(expr, Implies):
            if not self._boolean(self.eval(expr.left, env)):
                return True
            return self._boolean(self.eval(expr.right, env))
        if isinstance(expr, Let):
            inner = dict(env)
            inner[expr.var] = self.eval(expr.value, env)
            return self.eval(expr.body, inner)
        raise TypeError(f"unknown expression node {expr!r}")

    @staticmethod
    def _boolean(value):
        if not isinstance(value, bool):
            raise _RefFault(f"expected a boolean, got {value!r}")
        return value

    @staticmethod
    def _compare(op, left, right):
        numeric = (
            isinstance(left, (int, float)) and not isinstance(left, bool)
            and isinstance(right, (int, float)) and not isinstance(right, bool)
        )
        if op in ("<", "<=", ">", ">="):
            if not numeric:
                raise _RefFault(f"'{op}' needs numeric operands")
            return {"<": left < right, "<=": left <= right,
                    ">": left > right, ">=": left >= right}[op]
        if isinstance(left, ModelObject) or isinstance(right, ModelObject):
            same = (isinstance(left, ModelObject) and isinstance(right, ModelObject)
                    and left.id == right.id)
        elif numeric or type(left) is type(right):
            same = left == right
        else:
            raise _RefFault(f"cannot compare {left!r} with {right!r}")
        return same if op == "=" else not same


def _ref_eval_constraints(model, constraints, metamodel):
    evaluator = _RefEvaluator(model)
    rows = []
    objects = sorted(model.objects.values(), key=lambda o: o.id)
    for constraint in constraints.constraints:
        for obj in objects:
            if not _ref_is_subclass(metamodel, obj.cls, constraint.context):
                rows.append(ConstraintVerdict(constraint.name, obj.id, VERDICT_NOT_APPLICABLE))
                continue
            try:
                value = evaluator.eval(constraint.body, {"self": obj})
                if not isinstance(value, bool):
                    raise _RefFault(f"constraint produced {value!r}, not a boolean")
            except _RefFault as fault:
                rows.append(ConstraintVerdict(constraint.name, obj.id, VERDICT_FAIL,
                                              reason=str(fault)))
                continue
            verdict = VERDICT_PASS if value else VERDICT_FAIL
            rows.append(ConstraintVerdict(constraint.name, obj.id, verdict))
    return TopologyReport(rows=tuple(rows))


# ---------------------------------------------------------------------------
# inputs

# A metamodel with every attribute kind, a three-level lineage and an
# attribute redeclared lower down, so bool/number/enum comparisons and
# nearest-declaration lookup are both exercised.
_RICH_METAMODEL = """{
  "classes": [
    {"name": "Node", "abstract": true, "attributes": [
      {"name": "label", "kind": "string"}, {"name": "rate", "kind": "int"}]},
    {"name": "Sensor", "parent": "Node", "attributes": [
      {"name": "rate", "kind": "real"}, {"name": "secure", "kind": "bool"},
      {"name": "count", "kind": "int"}, {"name": "mode", "kind": "enum(Mode)"},
      {"name": "peer", "kind": "ref(Node)"}]},
    {"name": "SmartSensor", "parent": "Sensor", "attributes": [
      {"name": "level", "kind": "enum(Level)"}, {"name": "text", "kind": "string"}]},
    {"name": "Bus", "attributes": [
      {"name": "speed", "kind": "real"}, {"name": "owner", "kind": "ref(Sensor)"}]}
  ],
  "enums": [
    {"name": "Mode", "literals": ["on", "off", "auto-x"]},
    {"name": "Level", "literals": ["low", "high"]}
  ]
}"""

_RICH_CONSTRAINTS = """
context Sensor
inv SecureImpliesFast:
  self.secure implies self.rate > 2.5
inv CountNotThree:
  not (self.count = 3) or self.mode = Mode::auto-x
inv ModeDiffers:
  self.mode <> Mode::off and self.count >= 1
inv PeerIsSelf:
  self.peer = self
inv PeerExact:
  self.peer.oclIsTypeOf(SmartSensor) implies self.peer.label = 'p'
inv LetBool:
  let s : Boolean = self.secure in s = s or not s
inv LetInt:
  let c : Integer = self.count in c < 10
inv LetRealFromInt:
  let r : Real = self.count in r.toReal() <= 7.5
inv NumberMix:
  self.count = self.rate
inv RateToReal:
  self.rate.toReal() >= 0
context SmartSensor
inv TextToReal:
  self.text.toReal() < 100
inv Level:
  self.level = Level::high implies let x : String = self.text in x <> 'bad'
inv SecureAsBool:
  self.secure
context Bus
inv OwnerPeer:
  self.owner.peer.oclIsTypeOf(Sensor) or self.speed = 1
inv NestedLet:
  let a : Real = self.speed in let b : Real = a in a = b and b <= 100.0
context Node
inv Labelled:
  self.label <> ''
"""

_SECURITY_EXTRA = """
context Message
inv SourceNamed:
  self.source.name <> '' and not self.source.oclIsTypeOf(Camera)
inv StandardRaw:
  self.standard = MessageStandardKind::RAW or self.payloadValue = 'x'
inv SameEnds:
  self.source = self.target implies self.network.name = 'loop'
context VSSMessage
inv Category:
  self.category <> VSSCategory::status implies self.vssPath.toReal() > -1
context Component
inv Named:
  let n : String = self.name in n = 'front camera' or n <> 'front camera'
"""

# Values of every Python scalar type, so a non-conformant model puts wrong
# kinds under every attribute.
_SCALARS = (True, False, 0, 1, 3, -2, 2.5, 7.0, 3.0, "", "1.5", " 4 ", "x",
            "on", "off", "auto-x", "high", "low", "bad", "p", "RAW",
            "IEEE-1722", "status", "sensing", "Vehicle.Speed.Target", None)


def _random_model(rng, metamodel, size):
    classes = list(metamodel.class_names()) + ["Ghost"]
    ids = [f"o{i}" for i in range(size)]
    objects = []
    for object_id in ids:
        cls = rng.choice(classes)
        declared = sorted(_ref_all_attributes(metamodel, cls))
        names = declared + ["stray"]
        attrs, refs = {}, {}
        for name in names:
            roll = rng.random()
            if roll < 0.25:
                continue  # unset
            if roll < 0.45:
                refs[name] = rng.choice(ids + ["missing"])  # maybe dangling
            else:
                attrs[name] = rng.choice(_SCALARS)
        objects.append(ModelObject(id=object_id, cls=cls, attrs=attrs, refs=refs))
    rng.shuffle(objects)
    return InstanceModel(objects)


def _assert_same_reports(model, constraints, metamodel):
    expected = _ref_eval_constraints(model, constraints, metamodel)
    actual = eval_constraints(model, constraints, metamodel)
    assert render_topology_report(actual) == render_topology_report(expected)
    assert json.loads(actual.to_json()) == json.loads(expected.to_json())
    return actual


def _error(fn, *args):
    try:
        fn(*args)
    except ConstraintError as err:
        return type(err), str(err), err.symbol, err.position
    return None


# ---------------------------------------------------------------------------
# tests: parse-time errors

_REJECTS = [
    "context Ghost inv X: self.payloadValue = 'a'",
    "context Message inv X: self.payloadValue = 'a'\n"
    "context Message inv X: self.payloadValue = 'b'",
    "context Message inv X: self.payloadValue",
    "context Message inv X: self.missing = 'a'",
    "context Message inv X: sSelf.payloadValue = 'a'",
    "context Message inv X: self.payloadValue.toUpper() = 'a'",
    "context Message inv X: self.standard = Ghost::RAW",
    "context Message inv X: self.standard = MessageStandardKind::GHOST",
    "context Message inv X: self.payloadValue implies self.payloadValue",
    "context Message inv X: self.payloadValue < 3",
    "context Message inv X: not self.payloadValue = 'a'",
    "context Message inv X: let x : Real = 'a' in x <= 1.0",
    "context Message inv X: let x : Widget = 1 in x <= 1.0",
    "context Message inv X: self.standard = 'RAW'",
    "context Message inv X: self.payloadValue == 'a'",
    "context Message\nself.payloadValue = 'a'",
    "context Message inv X: self.payloadValue.size() > 0",
    # left operand fails before the right one is checked
    "context Message inv X: self.nope = 1 and self.other = 2",
    "context Message inv X: self.payloadValue and self.nope = 1",
    "context Message inv X: self.payloadValue = 'a' and self.nope = 1",
    "context Message inv X: self.payloadValue = 'a' or self.payloadValue",
    "context Message inv X: self.payloadValue = 'a' implies 3",
    "context Message inv X: self.standard or self.nope",
    # a let type name is checked before its value
    "context Message inv X: let x : Widget = self.nope in true = x",
    "context Message inv X: let x : Integer = 1.5 in x = 1",
    "context Message inv X: let x : String = self.source in x = 'a'",
    "context Message inv X: let x : Boolean = 1 = 1 in y",
    "context Message inv X: let x : Real = 1 in x.name = 'a'",
    # toReal and comparisons
    "context Message inv X: self.source.toReal() = 1",
    "context Message inv X: self.standard.toReal() = 1",
    "context Message inv X: self.payloadValue.toReal() = 'a'",
    "context Message inv X: self.source < self.target",
    "context Message inv X: self.nope < self.other",
    "context Message inv X: 1 < self.nope",
    "context Message inv X: self.source = self.standard",
    "context Message inv X: self.standard = VSSCategory::status",
    "context Message inv X: self.payloadValue.oclIsTypeOf(Camera)",
    "context Message inv X: self.source.oclIsTypeOf(Ghost)",
    "context Message inv X: self.payloadValue.name = 'a'",
    "context Message inv X: not not self.payloadValue",
    "context Message inv X: self.source.network = self.network",
    "context VSSMessage inv X: self.category = MessageStandardKind::RAW",
    "context Message inv X: self.standard = MessageStandardKind::RAW\n"
    "context Message inv Y: self.payloadValue",
]


@pytest.mark.parametrize("text", _REJECTS)
def test_parse_errors_match_reference(text):
    metamodel = default_metamodel()
    expected = _error(_ref_parse_constraints, text, metamodel)
    assert expected is not None
    assert _error(parse_constraints, text, metamodel) == expected


_RICH_REJECTS = [
    "context Sensor inv X: self.secure = 1",
    "context Sensor inv X: self.secure < true",
    "context Sensor inv X: self.secure.toReal() = 1.0",
    "context Sensor inv X: self.count = self.label",
    "context Sensor inv X: self.mode = Level::low",
    "context Sensor inv X: let b : Boolean = self.count in b",
    "context Sensor inv X: let i : Integer = self.rate in i = 1",
    "context Sensor inv X: self.count and self.secure",
    "context Sensor inv X: self.secure or self.count",
    "context SmartSensor inv X: self.level implies self.secure",
    "context Bus inv X: self.owner.level = Level::low",
]


@pytest.mark.parametrize("text", _RICH_REJECTS)
def test_typed_errors_match_reference(text):
    metamodel = parse_metamodel(_RICH_METAMODEL)
    expected = _error(_ref_parse_constraints, text, metamodel)
    assert expected is not None
    assert _error(parse_constraints, text, metamodel) == expected


# ---------------------------------------------------------------------------
# tests: reports


@pytest.fixture(scope="module")
def security_text(fixtures_dir):
    return (fixtures_dir / "topology" / "security.ocl").read_text(encoding="utf-8")


@pytest.mark.parametrize("extra", [False, True])
@pytest.mark.parametrize("name", ["system.json", "system-bad.puml"])
def test_fixture_reports_match_reference(fixtures_dir, security_text, name, extra):
    metamodel = default_metamodel()
    text = (fixtures_dir / "topology" / name).read_text(encoding="utf-8")
    model = parse_instance(text) if name.endswith(".json") else import_class_diagram(text)
    source = security_text + (_SECURITY_EXTRA if extra else "")
    constraints = parse_constraints(source, metamodel)
    assert constraints == _ref_parse_constraints(source, metamodel)
    report = _assert_same_reports(model, constraints, metamodel)
    assert report.rows


@pytest.mark.parametrize("seed", range(12))
def test_seeded_default_models_match_reference(security_text, seed):
    metamodel = default_metamodel()
    constraints = parse_constraints(security_text + _SECURITY_EXTRA, metamodel)
    model = _random_model(random.Random(seed), metamodel, 40)
    _assert_same_reports(model, constraints, metamodel)


@pytest.mark.parametrize("seed", range(12))
def test_seeded_rich_models_match_reference(seed):
    metamodel = parse_metamodel(_RICH_METAMODEL)
    constraints = parse_constraints(_RICH_CONSTRAINTS, metamodel)
    model = _random_model(random.Random(100 + seed), metamodel, 40)
    report = _assert_same_reports(model, constraints, metamodel)
    assert {r.verdict for r in report.rows} == {
        VERDICT_PASS, VERDICT_FAIL, VERDICT_NOT_APPLICABLE}
    assert any(r.reason for r in report.rows)


def _hand_built_faults():
    return InstanceModel([
        ModelObject("a", "Sensor", attrs={"secure": "yes", "rate": True, "count": 3.0,
                                          "mode": "off", "label": 1}),
        ModelObject("b", "SmartSensor", attrs={"text": " 12 ", "level": "high",
                                               "secure": 1, "peer": "a"},
                    refs={"peer": "b", "label": "a"}),
        ModelObject("c", "SmartSensor", attrs={"text": "bad", "level": "high",
                                               "count": False, "rate": "2"},
                    refs={"peer": "gone"}),
        ModelObject("d", "Bus", attrs={"speed": 1, "owner": "b"}, refs={"owner": "b"}),
        ModelObject("e", "Bus", attrs={"speed": "fast"}, refs={"owner": "nowhere"}),
        ModelObject("f", "Ghost", attrs={"label": ""}),
        ModelObject("g", "Sensor"),
    ])


def test_hand_built_faults_match_reference():
    metamodel = parse_metamodel(_RICH_METAMODEL)
    constraints = parse_constraints(_RICH_CONSTRAINTS, metamodel)
    report = _assert_same_reports(_hand_built_faults(), constraints, metamodel)
    reasons = {r.reason for r in report.rows if r.reason}
    assert "reference 'c.peer' dangles" in reasons
    assert "object 'g' has no value for 'secure'" in reasons


# ---------------------------------------------------------------------------
# tests: conformance


def _assert_same_conformance(model, metamodel):
    expected = _ref_conform(model, metamodel)
    actual = conform(model, metamodel)
    assert actual == expected  # the same violations, in the same order
    assert actual.render_text() == expected.render_text()
    return actual


@pytest.mark.parametrize("name", ["system.json", "system.puml", "system-bad.puml"])
def test_fixture_conformance_matches_reference(fixtures_dir, name):
    text = (fixtures_dir / "topology" / name).read_text(encoding="utf-8")
    model = parse_instance(text) if name.endswith(".json") else import_class_diagram(text)
    assert _assert_same_conformance(model, default_metamodel()).ok


@pytest.mark.parametrize("source", ["default", "rich"])
def test_hand_built_faults_conform_as_the_reference(source):
    metamodel = (default_metamodel() if source == "default"
                 else parse_metamodel(_RICH_METAMODEL))
    assert not _assert_same_conformance(_hand_built_faults(), metamodel).ok


def _subclass_references(model, metamodel):
    """(object id, reference) pairs that point at a strict subclass of the
    class the reference declares."""
    pairs = set()
    for obj in model.objects.values():
        declared = _ref_all_attributes(metamodel, obj.cls)
        for name, target_id in obj.refs.items():
            attr, target = declared.get(name), model.get(target_id)
            if (attr is not None and _ref_category(attr) == "ref" and target is not None
                    and target.cls in metamodel.classes and target.cls != _ref_target(attr)
                    and _ref_is_subclass(metamodel, target.cls, _ref_target(attr))):
                pairs.add((obj.id, name))
    return pairs


@pytest.mark.parametrize("source", ["default", "rich"])
def test_seeded_faulty_models_conform_as_the_reference(source):
    metamodel = (default_metamodel() if source == "default"
                 else parse_metamodel(_RICH_METAMODEL))
    kinds, messages, allowed = set(), [], 0
    for seed in range(12):
        model = _random_model(random.Random(200 + seed), metamodel, 40)
        report = _assert_same_conformance(model, metamodel)
        kinds |= {v.kind for v in report.violations}
        messages += [v.message for v in report.violations]
        flagged = {(v.object_id, v.message.split("'")[1]) for v in report.violations}
        subclass_refs = _subclass_references(model, metamodel)
        assert not subclass_refs & flagged  # a subclass is an allowed target
        allowed += len(subclass_refs)
    assert kinds == {"unknown-class", "abstract-class", "unknown-attribute",
                     "kind-mismatch", "dangling-reference", "ill-typed-reference"}
    assert any(m.endswith("is a reference, assign it under references") for m in messages)
    assert any(m.endswith("not a reference") for m in messages)
    assert any(" = '" in m and "does not match kind enum(" in m for m in messages)
    assert allowed


# ---------------------------------------------------------------------------
# tests: class tables


def _class_answers(metamodel, names):
    return [
        (name, metamodel.subclasses(name)) for name in names
    ], [
        (name, dict(metamodel.attributes(name)),
         [(attr, metamodel.resolve_attribute(name, attr)) for attr in names])
        for name in names
    ]


def _ref_class_answers(metamodel, names):
    return [
        (name, frozenset(c for c in metamodel.classes if _ref_is_subclass(metamodel, c, name)))
        for name in names
    ], [
        (name, _ref_all_attributes(metamodel, name),
         [(attr, _ref_resolve_attribute(metamodel, name, attr)) for attr in names])
        for name in names
    ]


@pytest.mark.parametrize("source", ["default", "rich"])
def test_class_tables_match_reference(source):
    metamodel = (default_metamodel() if source == "default"
                 else parse_metamodel(_RICH_METAMODEL))
    names = list(metamodel.class_names()) + ["Ghost"]
    attr_names = sorted({a for n in names for a in _ref_all_attributes(metamodel, n)})
    assert _class_answers(metamodel, names) == _ref_class_answers(metamodel, names)
    for name in names:
        for attr in attr_names + ["missing"]:
            assert (metamodel.resolve_attribute(name, attr)
                    == _ref_resolve_attribute(metamodel, name, attr))


@pytest.mark.parametrize("kind", ["string", "real", "int", "bool", "enum(Mode)",
                                  "ref(Sensor)", "enum()", "odd(", "a(b(c))"])
def test_attribute_category_and_target_match_reference(kind):
    attr = Attribute("x", kind)
    assert (attr.category, attr.target) == (_ref_category(attr), _ref_target(attr))
    # still equal, hashed and shown by name and kind alone
    assert attr == Attribute("x", kind) and hash(attr) == hash(Attribute("x", kind))
    assert attr != Attribute("y", kind)
    assert repr(attr) == f"Attribute(name='x', kind={kind!r})"
    with pytest.raises(AttributeError):
        attr.category = "string"


def test_directly_built_metamodel_with_an_undeclared_parent():
    metamodel = Metamodel(
        classes=(
            MetaClass("X", parent="Ghost", attributes=(Attribute("a", "int"),)),
            MetaClass("Y", parent="X", attributes=(Attribute("a", "string"),
                                                   Attribute("b", "bool"))),
            MetaClass("Z"),
        ),
        enums=(EnumDef("E", ("p", "q")),),
    )
    names = ["X", "Y", "Z", "Ghost", "Other"]
    assert _class_answers(metamodel, names) == _ref_class_answers(metamodel, names)
    assert metamodel.subclasses("Ghost") == {"X", "Y"}
    assert metamodel.subclasses("X") == {"X", "Y"}


def test_directly_built_cycle_raises():
    with pytest.raises(MetamodelError, match="inheritance cycle through 'A'"):
        Metamodel(
            classes=(MetaClass("A", parent="B"), MetaClass("B", parent="A")),
            enums=(),
        )
    with pytest.raises(MetamodelError, match="inheritance cycle through 'S'"):
        Metamodel(classes=(MetaClass("S", parent="S"),), enums=())
