"""Pipeline orchestration: configuration, runs, evaluation, deployment, CLI."""

from .config import MODES, PipelineConfig, build_gateway, load_config
from .deploy import (
    Receipt,
    deploy_stub,
    load_receipt,
    save_receipt,
    verify_receipt,
)
from .harness import (
    HarnessReport,
    Scenario,
    ScenarioOutcome,
    parse_manifest,
    render_harness_report,
    run_eval_harness,
)
from .runs import (
    RunRecord,
    SafetyIteration,
    SafetyRunResult,
    TopologyIteration,
    TopologyRunResult,
    load_run_record,
    run_safety_pipeline,
    run_safety_pipeline_files,
    run_topology_pipeline,
    verify_artifacts,
)
from .stages import catalog_index, ground_code, load_catalogs, run_extraction

__all__ = [
    "MODES",
    "PipelineConfig",
    "build_gateway",
    "load_config",
    "Receipt",
    "deploy_stub",
    "load_receipt",
    "save_receipt",
    "verify_receipt",
    "HarnessReport",
    "Scenario",
    "ScenarioOutcome",
    "parse_manifest",
    "render_harness_report",
    "run_eval_harness",
    "RunRecord",
    "SafetyIteration",
    "SafetyRunResult",
    "TopologyIteration",
    "TopologyRunResult",
    "load_run_record",
    "run_safety_pipeline",
    "run_safety_pipeline_files",
    "run_topology_pipeline",
    "verify_artifacts",
    "catalog_index",
    "ground_code",
    "load_catalogs",
    "run_extraction",
]
