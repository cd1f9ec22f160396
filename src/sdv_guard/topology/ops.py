"""Model-level operations that go through the language model.

Three flows, all with the same shape: render a fixed prompt, send it through
the gateway, parse the completion, and verify the result before handing it
back. A completion that does not survive parsing (or, for instance models,
conformance checking) earns exactly one retry with the failure appended to
the prompt; a second failure raises GenerationError carrying both raw
attempts so the caller can inspect what the model actually said.
"""

from __future__ import annotations

from ..errors import (
    ConfigurationError,
    ConstraintError,
    GenerationError,
    ModelImportError,
)
from ..eventchain import extract_diagram_block, strip_fences
from ..llm_gateway import PC3, PC4, PC4B, CompletionRequest, LlmGateway, render_prompt
from .model import (
    InstanceModel,
    Metamodel,
    conform,
    export_class_diagram,
    import_class_diagram,
    serialize_metamodel,
)
from .ocl import Constraint, TopologyReport, parse_constraints, render_topology_report

_EMPTY_SYSTEM = "(none)"
_DIAGRAM_HINT = "Return a corrected PlantUML object diagram."


def build_instance_prompt(requirements: str, metamodel: Metamodel,
                          current_model: InstanceModel | None = None) -> str:
    current = (export_class_diagram(current_model)
               if current_model is not None else _EMPTY_SYSTEM)
    return render_prompt(PC3, {
        "current system": current,
        "metamodel": serialize_metamodel(metamodel),
        "user input": requirements,
    })


def build_constraints_prompt(guidelines: str, metamodel: Metamodel) -> str:
    return render_prompt(PC4, {
        "metamodel": serialize_metamodel(metamodel),
        "security guidelines": guidelines,
    })


def build_instance_correction_prompt(model: InstanceModel, report: TopologyReport,
                                     metamodel: Metamodel) -> str:
    return render_prompt(PC4B, {
        "metamodel": serialize_metamodel(metamodel),
        "current system": export_class_diagram(model),
        "OCL pass/fail list": render_topology_report(report),
    })


def _import_checked(completion: str, metamodel: Metamodel) -> InstanceModel:
    """Parse a completion as an object diagram and insist it conforms."""
    block = extract_diagram_block(completion)
    if block is None:
        raise ModelImportError("completion contains no @startuml block")
    model = import_class_diagram(block)
    conformance = conform(model, metamodel)
    if not conformance.ok:
        raise ModelImportError(
            "generated model does not conform:\n" + conformance.render_text()
        )
    return model


def _generate(prompt: str, gateway: LlmGateway, parse, error: type[Exception],
              what: str, hint: str):
    """Complete ``prompt`` and parse it; on ``error`` retry once with the
    failure and ``hint`` appended, then give up with GenerationError."""
    attempts: list[str] = []
    while True:
        completion = gateway.complete(CompletionRequest(prompt=prompt))
        attempts.append(completion)
        try:
            return parse(completion)
        except error as err:
            if len(attempts) == 2:
                raise GenerationError(
                    f"{what} failed twice: {err}", attempts=tuple(attempts),
                ) from err
            prompt = f"{prompt}\n\nThe previous attempt was rejected:\n{err}\n{hint}"


def generate_instance(requirements: str, metamodel: Metamodel, gateway: LlmGateway,
                      current_model: InstanceModel | None = None) -> InstanceModel:
    """Build (or update) an instance model from requirements text.

    Blank requirements with an existing model are an identity update and
    never reach the gateway; blank requirements with nothing to start from
    are a configuration error.
    """
    if not requirements.strip():
        if current_model is not None:
            return current_model
        raise ConfigurationError("instance generation needs requirements text")
    prompt = build_instance_prompt(requirements, metamodel, current_model)
    return _generate(prompt, gateway, lambda c: _import_checked(c, metamodel),
                     ModelImportError, "instance generation", _DIAGRAM_HINT)


def generate_constraints(guidelines: str, metamodel: Metamodel,
                         gateway: LlmGateway) -> tuple[Constraint, ...]:
    """Turn guideline text into checked constraints.

    Empty guidelines yield no constraints without a gateway call — there is
    nothing to ground a generation on.
    """
    if not guidelines.strip():
        return ()
    prompt = build_constraints_prompt(guidelines, metamodel)
    return _generate(prompt, gateway,
                     lambda c: parse_constraints(strip_fences(c), metamodel),
                     ConstraintError, "constraint generation",
                     "Return corrected constraints only.")


def correct_instance(model: InstanceModel, report: TopologyReport,
                     metamodel: Metamodel, gateway: LlmGateway) -> InstanceModel:
    """Ask for a corrected, conformant model for a failing report.

    Requires at least one failing row — correcting a clean model is a caller
    bug, not a no-op. The corrected model is not guaranteed to pass; callers
    own the loop and re-evaluate it.
    """
    if not report.failing:
        raise ValueError("correct_instance needs a report with at least one failure")
    prompt = build_instance_correction_prompt(model, report, metamodel)
    return _generate(prompt, gateway, lambda c: _import_checked(c, metamodel),
                     ModelImportError, "instance correction", _DIAGRAM_HINT)
