"""End-to-end analysis runs and their on-disk records.

A run writes every intermediate artifact under an output directory and
finishes with ``run.json``: configuration echo, per-iteration verdicts, and
a digest for every artifact file. Artifact files themselves are
deterministic — rerunning the same inputs in replay mode reproduces them
byte for byte; wall-clock timestamps appear only inside ``run.json``.

The topology package is imported inside the functions of the topology run,
not at the top of this module: a safety run, which is its own process in
the usual workflow, then never pays for loading the topology and OCL code
it does not call.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

from ..catalog import parse_can_catalog, parse_vss_catalog
from ..errors import (
    ConfigurationError,
    PipelineError,
    SdvGuardError,
)
from ..eventchain import generate_chain
from ..extraction import ExtractionReport
from ..llm_gateway import LlmGateway
from ..safety_rules import (
    VERDICT_PASS,
    VERDICT_VIOLATED,
    SafetyReport,
    check,
    parse_rules,
    render_report,
    suggest_correction,
)
from ..util import dump_json, load_json, mismatched_files, read_text, sha256_text, write_atomic
from .config import PipelineConfig
from .stages import catalog_index, ground_code, run_extraction

if TYPE_CHECKING:
    from ..topology import InstanceModel, Metamodel, TopologyReport


# ---------------------------------------------------------------------------
# run records


@dataclass
class RunRecord:
    kind: str
    verdict: str = ""
    started_at: str = ""
    finished_at: str = ""
    config: dict = field(default_factory=dict)
    iterations: list[dict] = field(default_factory=list)
    artifacts: dict[str, dict] = field(default_factory=dict)

    def to_dict(self) -> dict:
        # shallow, unlike dataclasses.asdict, whose deep copy costs more than the dump
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _now() -> str:
    """The current UTC time to the second, in ISO 8601 with a +00:00 offset."""
    return time.strftime("%Y-%m-%dT%H:%M:%S+00:00", time.gmtime())


def _config_echo(config: PipelineConfig) -> dict:
    return {
        "top_k": config.top_k,
        "token_budget": config.token_budget,
        "max_iterations": config.max_iterations,
        "max_extraction_retries": config.max_extraction_retries,
        "mode": config.mode,
        "model": config.model,
    }


class _ArtifactWriter:
    """Run context: owns the run record, runs each stage, writes artifact
    files and tracks their digests. An output directory or artifact that
    cannot be written is a typed error naming its path."""

    def __init__(self, out_dir: str | Path, kind: str, config: PipelineConfig):
        if out_dir == "":  # Path("") is the current directory
            raise ConfigurationError("out_dir must not be empty")
        self.out_dir = Path(out_dir)
        try:
            self.out_dir.mkdir(parents=True, exist_ok=True)
        except (OSError, ValueError) as exc:  # the ValueError of a NUL in the path
            raise ConfigurationError(
                f"cannot create output directory '{self.out_dir}': {exc}") from exc
        self.record = RunRecord(kind=kind, started_at=_now(), config=_config_echo(config))

    def stage(self, name: str, fn):
        """Run one stage; a failure finishes the record with verdict "error"
        and is raised as a PipelineError naming the stage. A PipelineError
        from a stage run inside this one has done both and passes through.
        A record that cannot be written is named in the stage's error."""
        try:
            return fn()
        except PipelineError:
            raise
        except SdvGuardError as exc:
            self.record.verdict = "error"
            try:
                self.finish()
            except SdvGuardError as unwritten:
                raise PipelineError(name, exc, record=self.record,
                                    unwritten=unwritten) from exc
            raise PipelineError(name, exc, record=self.record) from exc

    def write(self, name: str, text: str) -> Path:
        """Write one artifact as the stage "write"."""
        path = self.out_dir / name
        self.stage("write", lambda: write_atomic(path, text, "artifact"))
        self.record.artifacts[name] = {"path": name, "sha256": sha256_text(text)}
        return path

    def finish(self) -> Path:
        self.record.finished_at = _now()
        path = self.out_dir / "run.json"
        write_atomic(path, dump_json(self.record.to_dict()), "run record")
        return path


def load_run_record(out_dir: str | Path) -> RunRecord:
    path = Path(out_dir) / "run.json"
    raw = load_json(read_text(path, "run record", f"no run record at '{path}'"),
                    ConfigurationError, f"run record '{path}'")
    if not isinstance(raw, dict):
        raise ConfigurationError(f"run record '{path}' must hold a JSON object")
    artifacts = raw.get("artifacts", {})
    if not isinstance(artifacts, dict) or not all(
            isinstance(meta, dict) and isinstance(meta.get("path"), str)
            and isinstance(meta.get("sha256"), str) for meta in artifacts.values()):
        raise ConfigurationError(
            f"run record '{path}' artifacts must map names to {{path, sha256}}")
    record = RunRecord(kind=raw.get("kind", ""))
    record.verdict = raw.get("verdict", "")
    record.started_at = raw.get("started_at", "")
    record.finished_at = raw.get("finished_at", "")
    record.config = raw.get("config", {})
    record.iterations = raw.get("iterations", [])
    record.artifacts = artifacts
    return record


def verify_artifacts(record: RunRecord, out_dir: str | Path) -> list[str]:
    """Recompute every artifact digest; returns the names that do not match."""
    return mismatched_files(Path(out_dir), (
        (name, meta["path"], meta["sha256"])
        for name, meta in sorted(record.artifacts.items())))


# ---------------------------------------------------------------------------
# safety run


class SafetyIteration(NamedTuple):
    index: int
    extraction: ExtractionReport
    diagram: str
    safety: SafetyReport
    corrected_code: str | None


class SafetyRunResult(NamedTuple):
    verdict: str
    iterations: tuple[SafetyIteration, ...]
    final_code: str
    out_dir: Path

    @property
    def final_report(self) -> SafetyReport:
        return self.iterations[-1].safety


def run_safety_pipeline(code: str, vss_text: str, can_text: str, rules_text: str,
                        gateway: LlmGateway, config: PipelineConfig,
                        out_dir: str | Path | None = None,
                        auto_correct: bool = False) -> SafetyRunResult:
    """Extract, build the event chain, check it, optionally iterate on fixes.

    The retrieval index over both catalogs is built once per run. Each
    iteration re-runs grounding and extraction on the current code and
    regenerates the chain with the previous diagram as context. Correction
    is only attempted while iterations remain; the last report stands either
    way. Every stage failure is wrapped in PipelineError naming the stage,
    with the partial run record attached.
    """
    writer = _ArtifactWriter(config.out_dir if out_dir is None else out_dir, "safety", config)
    record = writer.record
    signal_catalog = writer.stage("catalog", lambda: parse_vss_catalog(vss_text))
    message_catalog = writer.stage("catalog", lambda: parse_can_catalog(can_text))
    ruleset = writer.stage("rules", lambda: parse_rules(rules_text))
    retrieval_index = writer.stage(
        "retrieval", lambda: catalog_index(signal_catalog, message_catalog))

    iterations: list[SafetyIteration] = []
    current_code = code
    current_chain = ""
    for index in range(1, config.max_iterations + 1):
        suffix = f"_iter{index}"
        chunks = writer.stage(
            "retrieval",
            lambda: ground_code(current_code, retrieval_index,
                                config.top_k, config.token_budget),
        )
        extraction = writer.stage(
            "extraction",
            lambda: run_extraction(current_code, chunks, gateway,
                                   signal_catalog, message_catalog,
                                   max_retries=config.max_extraction_retries),
        )
        writer.write(f"extraction{suffix}.json", dump_json(extraction.to_dict()))
        diagram, document = writer.stage(
            "chain",
            lambda: generate_chain(current_code, current_chain,
                                   extraction.accepted, gateway),
        )
        writer.write(f"chain{suffix}.puml", diagram)
        writer.write(f"chain{suffix}.json", document.text + "\n")
        safety = writer.stage("check", lambda: check(document, ruleset))
        writer.write(f"safety{suffix}.txt", render_report(safety))
        writer.write(f"safety{suffix}.json", dump_json(safety.to_dict()))

        corrected: str | None = None
        if safety.violated and auto_correct and index < config.max_iterations:
            corrected = writer.stage(
                "correction", lambda: suggest_correction(current_code, safety, gateway))
            writer.write(f"corrected_code{suffix}.py", corrected)
        iterations.append(SafetyIteration(
            index=index, extraction=extraction, diagram=diagram,
            safety=safety, corrected_code=corrected,
        ))
        record.iterations.append({
            "index": index,
            "accepted": len(extraction.accepted),
            "rejected": len(extraction.rejected),
            "verdict": VERDICT_VIOLATED if safety.violated else VERDICT_PASS,
            "corrected": corrected is not None,
        })
        if corrected is None:
            break
        current_code = corrected
        current_chain = diagram

    final = iterations[-1]
    record.verdict = VERDICT_VIOLATED if final.safety.violated else VERDICT_PASS
    writer.finish()
    return SafetyRunResult(
        verdict=record.verdict,
        iterations=tuple(iterations),
        final_code=current_code,
        out_dir=writer.out_dir,
    )


def run_safety_pipeline_files(code_path, vss_path, can_path, rules_path,
                              gateway: LlmGateway, config: PipelineConfig,
                              out_dir=None, auto_correct: bool = False,
                              ) -> SafetyRunResult:
    return run_safety_pipeline(
        read_text(code_path, "code"),
        read_text(vss_path, "VSS catalog"),
        read_text(can_path, "CAN catalog"),
        read_text(rules_path, "rules"),
        gateway, config, out_dir=out_dir, auto_correct=auto_correct,
    )


# ---------------------------------------------------------------------------
# topology run


class TopologyIteration(NamedTuple):
    index: int
    model: InstanceModel
    report: TopologyReport


class TopologyRunResult(NamedTuple):
    verdict: str
    iterations: tuple[TopologyIteration, ...]
    out_dir: Path

    @property
    def final_model(self) -> InstanceModel:
        return self.iterations[-1].model

    @property
    def final_report(self) -> TopologyReport:
        return self.iterations[-1].report


def _load_instance_text(text: str) -> InstanceModel:
    from ..topology import import_class_diagram, parse_instance

    if text.lstrip().startswith("@startuml"):
        return import_class_diagram(text)
    return parse_instance(text)


def run_topology_pipeline(gateway: LlmGateway, config: PipelineConfig,
                          metamodel: Metamodel | None = None,
                          model_text: str | None = None,
                          requirements: str | None = None,
                          constraints_text: str | None = None,
                          guidelines: str | None = None,
                          out_dir: str | Path | None = None,
                          auto_correct: bool = False) -> TopologyRunResult:
    """Check (and optionally repair) an instance model against constraints.

    The model comes either from text (JSON or object-diagram form) or from
    requirements via generation; constraints either from text or from
    guideline generation. A supplied model that does not conform to the
    metamodel is a stage error, not a finding — constraint verdicts over a
    non-conformant model would be meaningless.
    """
    from ..topology import (
        conform,
        correct_instance,
        default_metamodel,
        eval_constraints,
        export_class_diagram,
        generate_constraints,
        generate_instance,
        parse_constraints,
        render_topology_report,
        serialize_instance,
    )

    if (model_text is None) == (requirements is None):
        raise ConfigurationError("pass exactly one of model_text or requirements")
    if (constraints_text is None) == (guidelines is None):
        raise ConfigurationError("pass exactly one of constraints_text or guidelines")
    if gateway is None and (requirements is not None or guidelines is not None
                            or auto_correct):
        raise ConfigurationError(
            "generation and correction need a completion gateway")
    metamodel = metamodel if metamodel is not None else default_metamodel()

    writer = _ArtifactWriter(config.out_dir if out_dir is None else out_dir, "topology", config)
    record = writer.record

    def check_conformance():
        conformance = conform(model, metamodel)
        if not conformance.ok:
            writer.write("conformance.txt", conformance.render_text())
            raise ConfigurationError("supplied model does not conform to the metamodel")

    if model_text is not None:
        model = writer.stage("model", lambda: _load_instance_text(model_text))
        writer.stage("conformance", check_conformance)
    else:
        model = writer.stage(
            "model", lambda: generate_instance(requirements, metamodel, gateway))

    if constraints_text is not None:
        constraints = writer.stage(
            "constraints", lambda: parse_constraints(constraints_text, metamodel))
    else:
        constraints = writer.stage(
            "constraints", lambda: generate_constraints(guidelines, metamodel, gateway))

    iterations: list[TopologyIteration] = []
    for index in range(1, config.max_iterations + 1):
        suffix = f"_iter{index}"
        report = writer.stage(
            "evaluate", lambda: eval_constraints(model, constraints, metamodel))
        writer.write(f"model{suffix}.puml", export_class_diagram(model))
        writer.write(f"model{suffix}.json", serialize_instance(model))
        writer.write(f"topology{suffix}.txt", render_topology_report(report))
        writer.write(f"topology{suffix}.json", report.to_json())
        iterations.append(TopologyIteration(index=index, model=model, report=report))
        record.iterations.append({
            "index": index,
            "failing": len(report.failing),
            "verdict": report.overall,
        })
        if not report.failing or not auto_correct or index == config.max_iterations:
            break
        model = writer.stage(
            "correction",
            lambda: correct_instance(model, report, metamodel, gateway),
        )

    final = iterations[-1]
    record.verdict = VERDICT_VIOLATED if final.report.failing else VERDICT_PASS
    writer.finish()
    return TopologyRunResult(
        verdict=record.verdict, iterations=tuple(iterations), out_dir=writer.out_dir,
    )
