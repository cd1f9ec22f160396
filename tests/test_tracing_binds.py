"""The benchmark's outside-in tracer binds program names by module and
attribute; renaming a traced name must fail here, not only in a benchmark run."""

import importlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench.tracing import TARGETS, Tracer  # noqa: E402
from sdv_guard import pipeline  # noqa: E402
from sdv_guard.extraction import run_extraction  # noqa: E402
from sdv_guard.pipeline.stages import catalog_index, ground_code  # noqa: E402

from conftest import replay_gateway, scripted_gateway  # noqa: E402


def _resolve(module_name: str, target: str):
    obj = importlib.import_module(module_name)
    for part in target.split("."):
        obj = getattr(obj, part)
    return obj


def _entries_json(entries) -> str:
    return "```json\n" + json.dumps(entries) + "\n```\n"


def test_tracer_binds_every_target(signal_catalog, message_catalog, fixtures_dir,
                                   vss_text, can_text, tmp_path):
    tracer = Tracer()
    try:
        tracer.install()  # a renamed target raises here
        for module_name, target, _name, _describe in TARGETS:
            assert hasattr(_resolve(module_name, target), "__wrapped__"), target

        code = 'set("Vehicle.Cabin.Light", True)\n'
        chunks = ground_code(code, catalog_index(signal_catalog, message_catalog),
                             top_k=20, token_budget=4096)
        ghost = {"name": "Vehicle.Ghost.Signal", "type": "boolean",
                 "protocol": "VSS", "value": True}
        gateway = scripted_gateway([_entries_json([ghost]), _entries_json([ghost])])
        run_extraction(code, chunks, gateway, signal_catalog, message_catalog,
                       max_retries=1)
        extraction_spans = [s[3] for s in tracer.spans]

        tracer.spans.clear()
        # looked up at call time, so the traced binding runs
        result = pipeline.run_safety_pipeline(
            (fixtures_dir / "code" / "s1.py").read_text(encoding="utf-8"),
            vss_text, can_text,
            (fixtures_dir / "rules" / "rules-s1.txt").read_text(encoding="utf-8"),
            replay_gateway("s1"), pipeline.PipelineConfig(),
            out_dir=tmp_path / "s1",
        )
        run_spans = [s[3] for s in tracer.spans]
    finally:
        tracer.uninstall()
    for module_name, target, _name, _describe in TARGETS:
        assert not hasattr(_resolve(module_name, target), "__wrapped__"), target

    # the benchmark counts retry rounds as validate spans minus extract spans
    assert extraction_spans.count("extraction.validate") == 2
    assert extraction_spans.count("extraction.extract") == 1
    # one span per artifact written, plus one for run.json
    artifacts = sorted(p.name for p in result.out_dir.iterdir())
    assert run_spans.count("runs.artifact_write") == len(artifacts)
    assert run_spans.count("runs.pipeline") == 1
