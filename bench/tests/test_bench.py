"""Self-tests of the benchmark: seeded inputs, answers by construction, the
failure accounting of the runner, and its one-thread, one-process shape.

Run from the repository root with ``python -m pytest bench/tests -q``.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import random
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from bench import generators as gen  # noqa: E402
from bench import metrics, run, workloads  # noqa: E402
from sdv_guard import eventchain, safety_rules  # noqa: E402
from sdv_guard.llm_gateway import LlmGateway, ReplayStore  # noqa: E402
from sdv_guard.pipeline import PipelineConfig, run_safety_pipeline  # noqa: E402
from sdv_guard.topology import (  # noqa: E402
    default_metamodel,
    eval_constraints,
    import_class_diagram,
    parse_constraints,
    parse_instance,
)

SECURITY_OCL = (ROOT / "fixtures/topology/security.ocl").read_text(encoding="utf-8")


def _inputs(seed: int) -> list:
    rng = random.Random(seed)
    vss, leaves = gen.vss_catalog(rng, 120)
    can, frames = gen.can_catalog(rng, 40)
    functions = gen.vehicle_functions(rng, leaves, frames, ["single", "retry", "correct"])
    chains = [gen.activity_case(rng, "c", 6, 3, 1), gen.linear_case(rng, "l", 40, 2)]
    model = gen.instance_case(rng, "t", 60, "puml", True)
    return [vss, can, functions, [(c.diagram, c.rules, c.verdicts) for c in chains],
            (model.model_text, model.extra_constraints, model.failing)]


def test_a_seed_regenerates_identical_inputs():
    assert _inputs(7) == _inputs(7)
    assert _inputs(7) != _inputs(8)


@pytest.mark.parametrize("seed", range(6))
def test_chain_verdicts_by_construction_agree_with_check(seed):
    rng = random.Random(seed)
    cases = [gen.activity_case(rng, f"d{d}", d, n, v)
             for d in range(2, 7) for n, v in ((1, 0), (1, 1), (3, 1), (4, 2))]
    cases.append(gen.linear_case(rng, "linear", 60, 4))
    for case in cases:
        document = eventchain.to_chain_document(eventchain.parse_activity_diagram(case.diagram))
        report = safety_rules.check(document, safety_rules.parse_rules(case.rules))
        assert {r.rule.name: r.verdict for r in report.results} == case.verdicts
        assert report.overall == case.overall


@pytest.mark.parametrize("form", ["json", "puml"])
def test_topology_failing_rows_by_construction_agree_with_eval_constraints(form):
    metamodel = default_metamodel()
    planted = 0
    for seed in range(8):
        case = gen.instance_case(random.Random(seed), "t", 40, form, violate=seed % 2 == 1)
        model = (parse_instance if form == "json" else import_class_diagram)(case.model_text)
        assert len(model) == case.objects < 100
        constraints = parse_constraints(SECURITY_OCL + "\n" + case.extra_constraints, metamodel)
        report = eval_constraints(model, constraints, metamodel)
        assert {(r.constraint, r.object_id) for r in report.failing} == case.failing
        assert len(report.rows) == len(case.constraint_names) * case.objects
        planted += len(case.failing)
    assert planted > 0


def test_catalog_verdicts_by_construction_agree_with_the_pipeline(tmp_path):
    rng = random.Random(3)
    vss, leaves = gen.vss_catalog(rng, 300)
    can, frames = gen.can_catalog(rng, 60)
    functions = gen.vehicle_functions(rng, leaves, frames, ["single"] * 4 + ["retry"] * 3 + ["correct"] * 2)
    gateway = LlmGateway(mode="record", store=ReplayStore(), transport=gen.ScriptedTransport(functions))
    for fn in functions:
        result = run_safety_pipeline(
            fn.code, vss, can, gen.SAFETY_RULES, gateway,
            PipelineConfig(max_iterations=fn.expected_iterations),
            out_dir=tmp_path / fn.name, auto_correct=fn.mode == "correct")
        assert result.verdict == fn.expected_verdict
        assert len(result.iterations) == fn.expected_iterations
        for iteration in result.iterations:
            assert tuple(a.resolved_key for a in iteration.extraction.accepted) == fn.expected_keys
            assert not iteration.extraction.rejected
    # one extraction per function and iteration, one retry per retry function,
    # one chain per iteration, one correction per correcting function
    retries = sum(fn.mode == "retry" for fn in functions)
    corrections = sum(fn.mode == "correct" for fn in functions)
    assert gateway.transport.calls == 2 * len(functions) + retries + 3 * corrections


def _recurse(depth=0):
    return _recurse(depth + 1)


def test_a_recursion_error_is_recorded_as_a_failure_not_raised():
    loop = run.Loop({}, run.ReferenceClock())
    loop.attempt(workloads.Request("deep", _recurse, lambda result: (None, 0, {})))
    assert (loop.attempted, loop.failed, loop.completed) == (1, 1, 0)
    assert loop.errors == {"RecursionError": 1}
    assert not loop.wrong

    # the linear chains either complete with the right verdicts or fail, never escape
    linear = workloads._chain_request(gen.linear_case(random.Random(1), "l", 1500, 2))
    loop.attempt(linear)
    assert loop.attempted == 2 and not loop.wrong


def test_a_wrong_answer_and_changed_artifacts_are_failures():
    loop = run.Loop({}, run.ReferenceClock())
    outputs = iter(["a", "b"])
    request = workloads.Request("r", lambda: next(outputs),
                                lambda out: (None, 1, {"artifact": out}))
    loop.attempt(request)
    loop.attempt(request)
    assert loop.completed == 1 and loop.failed == 1 and loop.wrong
    loop.attempt(workloads.Request("w", lambda: 0, lambda out: ("wrong verdict", 0, {})))
    assert loop.failed == 2


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_a_workload_starts_no_thread_and_no_process(name, tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the benchmark must not start threads or processes")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    monkeypatch.setattr(subprocess.Popen, "__init__", refuse)
    monkeypatch.setattr(multiprocessing.Process, "start", refuse)
    monkeypatch.setattr(os, "fork", refuse)
    monkeypatch.setattr(workloads, "CATALOG_LEAVES", 200)
    monkeypatch.setattr(workloads, "CATALOG_MESSAGES", 50)
    monkeypatch.setattr(workloads, "TOPOLOGY_MESSAGES", 40)
    monkeypatch.setattr(workloads, "LINEAR_ACTIONS", 80)
    monkeypatch.setattr(workloads, "CHAIN_SCHEDULE", ((3, 2, 1), (5, 1, 0)))
    threads = threading.active_count()
    pool = workloads.WORKLOADS[name].setup(1, tmp_path)
    loop = run.Loop({}, run.ReferenceClock())
    for request in pool:
        loop.attempt(request)
    assert loop.completed == loop.attempted == len(pool) and not loop.wrong
    assert threading.active_count() == threads
    assert not multiprocessing.active_children()


def test_benchmark_json_registers_the_metrics_and_workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in metrics.END_TO_END]
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in metrics.PER_LAYER + (metrics.TRACE_OVERHEAD,)]


def test_the_benchmark_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "quickstart", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "{" not in done.stdout
