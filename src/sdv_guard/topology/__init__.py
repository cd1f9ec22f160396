"""Topology instance models, their metamodel, and security constraints."""

from .model import (
    Attribute,
    ConformanceReport,
    ConformanceViolation,
    EnumDef,
    InstanceModel,
    Metamodel,
    MetaClass,
    ModelObject,
    conform,
    default_metamodel,
    export_class_diagram,
    import_class_diagram,
    parse_instance,
    parse_metamodel,
    serialize_instance,
    serialize_metamodel,
)
from .ocl import (
    Constraint,
    TopologyReport,
    VERDICT_FAIL,
    VERDICT_NOT_APPLICABLE,
    VERDICT_PASS,
    eval_constraints,
    parse_constraints,
    render_topology_report,
)
from .ops import (
    build_constraints_prompt,
    build_instance_correction_prompt,
    build_instance_prompt,
    correct_instance,
    generate_constraints,
    generate_instance,
)

__all__ = [
    "Attribute", "ConformanceReport", "ConformanceViolation", "EnumDef",
    "InstanceModel", "Metamodel", "MetaClass", "ModelObject", "conform",
    "default_metamodel", "export_class_diagram", "import_class_diagram",
    "parse_instance", "parse_metamodel", "serialize_instance",
    "serialize_metamodel",
    "Constraint", "TopologyReport", "VERDICT_FAIL",
    "VERDICT_NOT_APPLICABLE", "VERDICT_PASS", "eval_constraints",
    "parse_constraints", "render_topology_report",
    "build_constraints_prompt", "build_instance_correction_prompt",
    "build_instance_prompt", "correct_instance", "generate_constraints",
    "generate_instance",
]
