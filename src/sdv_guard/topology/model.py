"""Metamodel and instance models for vehicle network topologies.

A metamodel is a JSON document:

    {"classes": [{"name", "abstract"?, "parent"?,
                  "attributes": [{"name", "kind"}, ...]}, ...],
     "enums": [{"name", "literals": [...]}, ...]}

Attribute kinds: ``string``, ``real``, ``int``, ``bool``, ``enum(E)`` and
``ref(C)``. Class names are unique, inheritance is acyclic, and every
enum/ref target must exist. The default vehicle-topology metamodel ships as
package data and is loaded with :func:`default_metamodel`.

An instance model is a JSON document:

    {"objects": [{"id", "class",
                  "attributes": {name: scalar, ...},
                  "references": {name: object-id, ...}}, ...]}

Instances can also be exchanged as PlantUML object diagrams:

    @startuml
    object hpc1 : HighPerformanceComputer
    hpc1 : name = "front HPC"
    object m1 : Message
    m1 : standard = IEEE-1722
    m1 --> hpc1 : source
    @enduml

Attribute lines assign scalars (quoted strings, numbers, true/false, or bare
enum literals); labeled arrows assign references. The diagram is framed like
an activity diagram (blank and ``'`` comment lines are ignored, a nested
delimiter is rejected). Import and export are inverses over this subset.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from dataclasses import dataclass, field
from importlib import resources
from itertools import chain, islice
from types import MappingProxyType

from ..errors import InstanceParseError, MetamodelError, ModelImportError
from ..util import dump_json, json_scalars, load_json, parse_number, plantuml_body

# a class, enum, attribute or reference name, and an object id: the one
# grammar of both instance forms, the JSON one and the object diagram
_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_ID = r"[A-Za-z_][A-Za-z0-9_.-]*"
# matched whole (fullmatch): "$" would also match before a final newline
KIND_RE = re.compile(rf"string|real|int|bool|enum\(({_NAME})\)|ref\(({_NAME})\)")
_NAME_RE = re.compile(_NAME)
_ID_RE = re.compile(_ID)
# the characters str.splitlines ends a line at; no object-diagram line can hold one
_LINE_BREAK_RE = re.compile("[\n\r\x0b\x0c\x1c-\x1e\x85\u2028\u2029]")


@dataclass(frozen=True)
class Attribute:
    """Equal by name and kind; ``category`` and ``target`` are read from the
    kind once, when the attribute is made."""

    name: str
    kind: str
    # 'string' | 'real' | 'int' | 'bool' | 'enum' | 'ref'
    category: str = field(init=False, repr=False, compare=False)
    # the enum or class name of an enum()/ref() kind, else None
    target: str | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        category, paren, rest = self.kind.partition("(")
        object.__setattr__(self, "category", category)
        object.__setattr__(self, "target", rest[:-1] if paren else None)


@dataclass(frozen=True)
class MetaClass:
    name: str
    abstract: bool = False
    parent: str | None = None
    attributes: tuple[Attribute, ...] = ()


@dataclass(frozen=True)
class EnumDef:
    name: str
    literals: tuple[str, ...]


class Metamodel:
    def __init__(self, classes: tuple[MetaClass, ...], enums: tuple[EnumDef, ...]):
        self.classes = {c.name: c for c in classes}
        self.enums = {e.name: e for e in enums}
        self._order = tuple(c.name for c in classes)
        # per class: its merged attributes; per class name: the declared
        # classes whose lineage (the class itself, then its ancestors, up to
        # an undeclared one that ends the chain) holds it
        self._attributes: dict[str, Mapping[str, Attribute]] = {}
        subclasses: dict[str, set[str]] = {}
        for cls in self.classes.values():
            lineage = [cls.name]
            current = cls.parent
            while current is not None:
                if current in lineage:
                    raise MetamodelError(f"inheritance cycle through '{current}'")
                lineage.append(current)
                ancestor = self.classes.get(current)
                current = ancestor.parent if ancestor else None
            for name in lineage:
                subclasses.setdefault(name, set()).add(cls.name)
            merged: dict[str, Attribute] = {}
            for name in reversed(lineage):
                if name in self.classes:
                    merged.update((a.name, a) for a in self.classes[name].attributes)
            self._attributes[cls.name] = MappingProxyType(merged)
        self._subclasses = {name: frozenset(names) for name, names in subclasses.items()}

    def class_names(self) -> tuple[str, ...]:
        return self._order

    def subclasses(self, ancestor: str) -> frozenset[str]:
        """The declared classes that are ``ancestor`` or inherit from it."""
        return self._subclasses.get(ancestor, frozenset())

    def attributes(self, class_name: str) -> Mapping[str, Attribute]:
        """Own and inherited attributes, nearest declaration wins: the
        metamodel's own table, read-only, empty for an undeclared class."""
        return self._attributes.get(class_name) or MappingProxyType({})

    def resolve_attribute(self, class_name: str, attr_name: str) -> Attribute | None:
        return self.attributes(class_name).get(attr_name)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Metamodel)
            and self.classes == other.classes
            and self.enums == other.enums
        )


def parse_metamodel(text: str) -> Metamodel:
    raw = load_json(text, MetamodelError, "metamodel")
    if not isinstance(raw, dict) or not isinstance(raw.get("classes"), list):
        raise MetamodelError("metamodel must be an object with a 'classes' array")
    if not raw["classes"]:
        raise MetamodelError("metamodel declares no classes")

    enums: list[EnumDef] = []
    if not isinstance(raw.get("enums", []), list):
        raise MetamodelError("metamodel 'enums' must be an array")
    for obj in raw.get("enums", []):
        if not isinstance(obj, dict):
            raise MetamodelError("enum declarations must be objects")
        name = obj.get("name")
        literals = obj.get("literals")
        if not isinstance(name, str) or not _NAME_RE.fullmatch(name):
            raise MetamodelError(f"invalid enum name {name!r}")
        if not isinstance(literals, list) or not literals or not all(
            isinstance(l, str) and l for l in literals
        ):
            raise MetamodelError(f"enum '{name}' needs a non-empty literal list")
        if len(set(literals)) != len(literals):
            raise MetamodelError(f"enum '{name}' repeats a literal")
        enums.append(EnumDef(name=name, literals=tuple(literals)))
    enum_names = {e.name for e in enums}
    if len(enum_names) != len(enums):
        raise MetamodelError("duplicate enum name")

    classes: list[MetaClass] = []
    for obj in raw["classes"]:
        if not isinstance(obj, dict):
            raise MetamodelError("class declarations must be objects")
        name = obj.get("name")
        if not isinstance(name, str) or not _NAME_RE.fullmatch(name):
            raise MetamodelError(f"invalid class name {name!r}")
        attributes = []
        if not isinstance(obj.get("attributes", []), list):
            raise MetamodelError(f"class '{name}' attributes must be an array")
        for attr in obj.get("attributes", []):
            attr_name = attr.get("name") if isinstance(attr, dict) else None
            kind = attr.get("kind") if isinstance(attr, dict) else None
            if not isinstance(attr_name, str) or not _NAME_RE.fullmatch(attr_name):
                raise MetamodelError(f"class '{name}' has an invalid attribute name")
            if not isinstance(kind, str) or not KIND_RE.fullmatch(kind):
                raise MetamodelError(
                    f"attribute '{name}.{attr_name}' has invalid kind {kind!r}"
                )
            attributes.append(Attribute(name=attr_name, kind=kind))
        if len({a.name for a in attributes}) != len(attributes):
            raise MetamodelError(f"class '{name}' repeats an attribute name")
        parent = obj.get("parent")
        if parent is not None and not isinstance(parent, str):
            raise MetamodelError(f"class '{name}' has an invalid parent")
        abstract = obj.get("abstract")
        if abstract is not None and not isinstance(abstract, bool):
            raise MetamodelError(f"class '{name}' abstract must be true or false")
        classes.append(MetaClass(
            name=name,
            abstract=bool(abstract),
            parent=parent,
            attributes=tuple(attributes),
        ))

    names = [c.name for c in classes]
    if len(set(names)) != len(names):
        dupe = sorted({n for n in names if names.count(n) > 1})[0]
        raise MetamodelError(f"duplicate class name '{dupe}'")
    by_name = {c.name: c for c in classes}
    for cls in classes:
        if cls.parent is not None and cls.parent not in by_name:
            raise MetamodelError(f"class '{cls.name}' extends unknown '{cls.parent}'")
        for attr in cls.attributes:
            if attr.category == "enum" and attr.target not in enum_names:
                raise MetamodelError(
                    f"attribute '{cls.name}.{attr.name}' uses unknown enum "
                    f"'{attr.target}'"
                )
            if attr.category == "ref" and attr.target not in by_name:
                raise MetamodelError(
                    f"attribute '{cls.name}.{attr.name}' references unknown class "
                    f"'{attr.target}'"
                )
    # the constructor rejects inheritance cycles
    return Metamodel(classes=tuple(classes), enums=tuple(enums))


def serialize_metamodel(metamodel: Metamodel) -> str:
    doc = {
        "classes": [
            {
                "name": cls.name,
                **({"abstract": True} if cls.abstract else {}),
                **({"parent": cls.parent} if cls.parent else {}),
                "attributes": [
                    {"name": a.name, "kind": a.kind} for a in cls.attributes
                ],
            }
            for cls in (metamodel.classes[name] for name in metamodel.class_names())
        ],
        "enums": [
            {"name": e.name, "literals": list(e.literals)}
            for e in metamodel.enums.values()
        ],
    }
    return dump_json(doc, sort_keys=False, ensure_ascii=False)


def default_metamodel() -> Metamodel:
    """The vehicle-topology metamodel shipped as package data."""
    text = resources.files("sdv_guard").joinpath("data/metamodel.json").read_text("utf-8")
    return parse_metamodel(text)


# ---------------------------------------------------------------------------
# instance models


@dataclass
class ModelObject:
    id: str
    cls: str
    attrs: dict[str, object] = field(default_factory=dict)
    refs: dict[str, str] = field(default_factory=dict)


class InstanceModel:
    def __init__(self, objects: list[ModelObject]):
        self.objects: dict[str, ModelObject] = {}
        for obj in objects:
            if obj.id in self.objects:
                raise InstanceParseError(f"duplicate object id '{obj.id}'")
            self.objects[obj.id] = obj

    def get(self, object_id: str) -> ModelObject | None:
        return self.objects.get(object_id)

    def __len__(self) -> int:
        return len(self.objects)

    def __eq__(self, other) -> bool:
        return isinstance(other, InstanceModel) and self.objects == other.objects


_SCALAR_TYPES = (str, int, float, bool)


def parse_instance(text: str) -> InstanceModel:
    """Parse the canonical JSON form; references must resolve syntactically."""
    raw = load_json(text, InstanceParseError, "instance model")
    if not isinstance(raw, dict) or not isinstance(raw.get("objects"), list):
        raise InstanceParseError("instance model must be an object with an 'objects' array")
    objects: list[ModelObject] = []
    # the class names and keys already matched against _NAME_RE: a model
    # holds thousands of objects but few distinct names
    names: set[str] = set()

    def check_name(name: str, what: str, object_id: str) -> None:
        if not _NAME_RE.fullmatch(name):
            raise InstanceParseError(f"object '{object_id}' has an invalid {what} {name!r}")
        names.add(name)

    for obj in raw["objects"]:
        if not isinstance(obj, dict):
            raise InstanceParseError("every object declaration must be an object")
        object_id = obj.get("id")
        cls = obj.get("class")
        if not isinstance(object_id, str) or not _ID_RE.fullmatch(object_id):
            raise InstanceParseError(f"invalid object id {object_id!r}")
        if not isinstance(cls, str) or not cls:
            raise InstanceParseError(f"object '{object_id}' is missing its class")
        if cls not in names:
            check_name(cls, "class name", object_id)
        attrs = obj.get("attributes", {})
        refs = obj.get("references", {})
        if not isinstance(attrs, dict) or not isinstance(refs, dict):
            raise InstanceParseError(
                f"object '{object_id}' attributes/references must be objects"
            )
        for name, value in attrs.items():
            if name not in names:
                check_name(name, "attribute name", object_id)
            if value is None:
                raise InstanceParseError(
                    f"attribute '{object_id}.{name}' is null, which no object-diagram "
                    f"line can hold"
                )
            if not isinstance(value, _SCALAR_TYPES):
                raise InstanceParseError(
                    f"attribute '{object_id}.{name}' must be a scalar"
                )
            if isinstance(value, str) and _LINE_BREAK_RE.search(value):
                raise InstanceParseError(
                    f"attribute '{object_id}.{name}' holds a line break, "
                    f"which no object-diagram line can"
                )
        for name, value in refs.items():
            if name not in names:
                check_name(name, "reference name", object_id)
            if not isinstance(value, str):
                raise InstanceParseError(
                    f"reference '{object_id}.{name}' must be an object id"
                )
        objects.append(ModelObject(
            id=object_id, cls=cls, attrs=dict(attrs), refs=dict(refs),
        ))
    model = InstanceModel(objects)
    for obj in model.objects.values():
        for name, target in obj.refs.items():
            if target not in model.objects:
                raise InstanceParseError(
                    f"reference '{obj.id}.{name}' points to unknown object {target!r}"
                )
    return model


def serialize_instance(model: InstanceModel) -> str:
    """The canonical JSON form: the objects by id, each ``{"id", "class",
    "attributes", "references"}``, byte for byte what ``dump_json(...,
    ensure_ascii=False)`` writes. The layout is written here, with the text
    of the names and scalars from ``json_scalars``."""
    objects = sorted(model.objects.values(), key=lambda o: o.id)
    if not objects:
        return '{\n  "objects": []\n}\n'
    # the attributes of each object, then the references of each, by name
    dicts = ([sorted(obj.attrs.items()) for obj in objects]
             + [sorted(obj.refs.items()) for obj in objects])
    texts = json_scalars(chain.from_iterable(chain.from_iterable(dicts)), ensure_ascii=False)
    members = iter([f"{name}: {value}" for name, value in zip(texts[::2], texts[1::2])])
    bodies = [",\n        ".join(islice(members, len(pairs))) for pairs in dicts]
    bodies = [f"{{\n        {body}\n      }}" if body else "{}" for body in bodies]
    ids = json_scalars([obj.id for obj in objects], ensure_ascii=False)
    classes = json_scalars([obj.cls for obj in objects], ensure_ascii=False)
    items = ",\n    ".join([
        f'{{\n      "attributes": {attributes},\n      "class": {cls},\n      "id": {object_id},\n'
        f'      "references": {references}\n    }}'
        for attributes, cls, object_id, references
        in zip(bodies, classes, ids, bodies[len(objects):])])
    return f'{{\n  "objects": [\n    {items}\n  ]\n}}\n'


# ---------------------------------------------------------------------------
# conformance


@dataclass(frozen=True)
class ConformanceViolation:
    object_id: str
    kind: str
    message: str


@dataclass(frozen=True)
class ConformanceReport:
    violations: tuple[ConformanceViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def render_text(self) -> str:
        if self.ok:
            return "conformant\n"
        lines = [
            f"{v.object_id}: {v.kind}: {v.message}" for v in self.violations
        ]
        return "\n".join(lines) + "\n"


def _value_matches(kind_category: str, value, enum: EnumDef | None) -> bool:
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


def conform(model: InstanceModel, metamodel: Metamodel) -> ConformanceReport:
    """Check every object against its class: kinds, targets, abstractness."""
    violations: list[ConformanceViolation] = []
    objects = model.objects
    for obj in objects.values():
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
        declared = metamodel.attributes(obj.cls)
        for name, value in obj.attrs.items():
            attr = declared.get(name)
            if attr is None:
                violations.append(ConformanceViolation(
                    obj.id, "unknown-attribute", f"'{obj.cls}' declares no '{name}'"
                ))
                continue
            category = attr.category
            if category == "ref":
                violations.append(ConformanceViolation(
                    obj.id, "kind-mismatch",
                    f"'{name}' is a reference, assign it under references"
                ))
                continue
            enum = metamodel.enums.get(attr.target) if category == "enum" else None
            if not _value_matches(category, value, enum):
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
            if attr.category != "ref":
                violations.append(ConformanceViolation(
                    obj.id, "kind-mismatch",
                    f"'{name}' has kind {attr.kind}, not a reference"
                ))
                continue
            target = objects.get(target_id)
            if target is None:
                violations.append(ConformanceViolation(
                    obj.id, "dangling-reference",
                    f"'{name}' points to missing object '{target_id}'"
                ))
                continue
            if target.cls not in metamodel.subclasses(attr.target):
                violations.append(ConformanceViolation(
                    obj.id, "ill-typed-reference",
                    f"'{name}' must target {attr.target}, got {target.cls} '{target_id}'"
                ))
    return ConformanceReport(violations=tuple(violations))


# ---------------------------------------------------------------------------
# PlantUML object-diagram import/export

_OBJECT_RE = re.compile(rf"^object\s+(?P<id>{_ID})\s*:\s*(?P<cls>{_NAME})$")
_ATTR_RE = re.compile(rf"^(?P<id>{_ID})\s*:\s*(?P<name>{_NAME})\s*=\s*(?P<value>.+)$")
_ARROW_RE = re.compile(rf"^(?P<src>{_ID})\s*-+>\s*(?P<dst>{_ID})\s*:\s*(?P<name>{_NAME})$")
# the first characters of a number (util.parse_number) once stripped
_NUMBER_STARTS = frozenset("-0123456789")
# a string that exports unquoted: it imports back as the same string, and no
# number has this form
_BARE_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_-]*")


def _parse_scalar(raw: str, lineno: int):
    text = raw.strip()
    if len(text) >= 2 and text[0] == text[-1] and text[0] in ("'", '"'):
        return text[1:-1]
    if text == "true":
        return True
    if text == "false":
        return False
    if text[:1] not in _NUMBER_STARTS:
        return text  # bare word: enum literal or unquoted string
    try:
        return parse_number(text)
    except ValueError:
        return text
    except OverflowError:
        raise ModelImportError("number out of range", line=lineno) from None


def import_class_diagram(text: str) -> InstanceModel:
    """Parse the object-diagram subset described in the module docstring."""
    objects: dict[str, ModelObject] = {}
    order: list[ModelObject] = []
    for lineno, line in plantuml_body(text, ModelImportError):
        if match := _OBJECT_RE.match(line):
            object_id = match.group("id")
            if object_id in objects:
                raise ModelImportError(f"duplicate object '{object_id}'", line=lineno)
            obj = ModelObject(id=object_id, cls=match.group("cls"))
            objects[object_id] = obj
            order.append(obj)
        elif match := _ARROW_RE.match(line):
            src, dst = match.group("src"), match.group("dst")
            for end in (src, dst):
                if end not in objects:
                    raise ModelImportError(
                        f"arrow references undeclared object '{end}'", line=lineno
                    )
            name = match.group("name")
            if name in objects[src].refs:
                raise ModelImportError(
                    f"duplicate reference '{src}.{name}'", line=lineno
                )
            objects[src].refs[name] = dst
        elif match := _ATTR_RE.match(line):
            object_id = match.group("id")
            if object_id not in objects:
                raise ModelImportError(
                    f"attribute for undeclared object '{object_id}'", line=lineno
                )
            name = match.group("name")
            if name in objects[object_id].attrs:
                raise ModelImportError(
                    f"duplicate attribute '{object_id}.{name}'", line=lineno
                )
            objects[object_id].attrs[name] = _parse_scalar(match.group("value"), lineno)
        else:
            raise ModelImportError(f"unsupported line '{line}'", line=lineno)
    return InstanceModel(order)


def _format_scalar(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return repr(value)
    text = str(value)
    if text not in ("true", "false") and _BARE_RE.fullmatch(text):
        return text
    return f'"{text}"'


def export_class_diagram(model: InstanceModel) -> str:
    """Inverse of import_class_diagram over the same subset."""
    lines = ["@startuml"]
    ordered = sorted(model.objects.values(), key=lambda o: o.id)
    for obj in ordered:
        lines.append(f"object {obj.id} : {obj.cls}")
    for obj in ordered:
        for name in sorted(obj.attrs):
            lines.append(f"{obj.id} : {name} = {_format_scalar(obj.attrs[name])}")
    for obj in ordered:
        for name in sorted(obj.refs):
            lines.append(f"{obj.id} --> {obj.refs[name]} : {name}")
    lines.append("@enduml")
    return "\n".join(lines) + "\n"
