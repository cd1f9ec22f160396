"""Configuration, end-to-end runs, the eval harness, deployment, and the CLI."""

import http.server
import json
import os
import re
import sys
import threading
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest

from sdv_guard import eventchain, llm_gateway
from sdv_guard.errors import ConfigurationError, DeploymentError, PipelineError
from sdv_guard.eventchain import parse_activity_diagram, serialize_chain, to_chain_document
from sdv_guard.llm_gateway import PC2, LlmGateway, ReplayStore, prompt_digest
from sdv_guard.pipeline import (
    PipelineConfig,
    Receipt,
    build_gateway,
    deploy_stub,
    load_config,
    load_receipt,
    load_run_record,
    parse_manifest,
    render_harness_report,
    run_eval_harness,
    run_extraction,
    run_safety_pipeline_files,
    run_topology_pipeline,
    save_receipt,
    verify_artifacts,
    verify_receipt,
)
from sdv_guard.pipeline import cli as cli_module
from sdv_guard.pipeline import deploy as deploy_module
from sdv_guard.pipeline import runs as runs_module
from sdv_guard.pipeline import stages as stages_module
from sdv_guard.pipeline.cli import main
from sdv_guard.pipeline.runs import _ArtifactWriter
from sdv_guard.pipeline.stages import catalog_index, ground_code
from sdv_guard.retrieval import build_index
from sdv_guard.util import read_text, sha256_bytes, sha256_text, write_atomic

from conftest import replay_gateway, scripted_gateway, write_dies_half_way


# ---------------------------------------------------------------------------
# configuration


def test_config_defaults():
    config = load_config()
    assert config == PipelineConfig()
    assert (config.top_k, config.token_budget, config.max_iterations) == (20, 4096, 3)
    assert config.mode == "live"


def test_config_file_and_overrides(tmp_path):
    path = tmp_path / "config.json"
    path.write_text('{"top_k": 5, "mode": "replay", "store_path": "store.json"}')
    config = load_config(path)
    assert (config.top_k, config.mode, config.store_path) == (5, "replay", "store.json")
    # keyword overrides beat the file; None overrides are absent, not resets
    config = load_config(path, top_k=9, mode=None)
    assert (config.top_k, config.mode) == (9, "replay")
    # overrides are validated like file values
    with pytest.raises(ConfigurationError, match="top_k must be at least 1"):
        load_config(top_k=0)


@pytest.mark.parametrize("body, message", [
    ("{nope", "not valid JSON"),
    ("[1, 2]", "must hold a JSON object"),
    ('{"topk": 1}', "unknown key 'topk'"),
    ('{"top_k": 0}', "top_k must be at least 1"),
    ('{"token_budget": -5}', "token_budget must be at least 1"),
    ('{"max_iterations": 0}', "max_iterations must be at least 1"),
    ('{"max_extraction_retries": -1}', "cannot be negative"),
    ('{"mode": "stream"}', "unknown mode 'stream'"),
    ('{"mode": "replay"}', "mode 'replay' needs a store_path"),
    ('{"mode": "record"}', "mode 'record' needs a store_path"),
    ('{"top_k": []}', "top_k must be of type int, got \\[\\]"),
    ('{"top_k": true}', "top_k must be of type int, got True"),
    ('{"top_k": 2.5}', "top_k must be of type int, got 2.5"),
    ('{"temperature": "hot"}', "temperature must be of type float | None"),
    ('{"store_path": 3}', "store_path must be of type str | None"),
    ('{"out_dir": ""}', "out_dir must not be empty"),
])
def test_config_rejects(tmp_path, body, message):
    path = tmp_path / "config.json"
    path.write_text(body)
    with pytest.raises(ConfigurationError, match=message):
        load_config(path)


def test_config_missing_file():
    with pytest.raises(ConfigurationError, match="does not exist"):
        load_config("/no/such/config.json")


@pytest.mark.parametrize("kwargs, message", [
    ({"out_dir": ""}, "out_dir must not be empty"),
    ({"top_k": 0}, "top_k must be at least 1, got 0"),
    ({"top_k": "5"}, "top_k must be of type int, got '5'"),
    ({"max_iterations": 0}, "max_iterations must be at least 1, got 0"),
    ({"mode": "replay"}, "mode 'replay' needs a store_path"),
])
def test_config_built_directly_is_checked(kwargs, message):
    # a library caller's config gets the check that load_config's gets
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        PipelineConfig(**kwargs)


def test_empty_out_dir_argument_is_an_error(fixtures_dir, topo_texts, tmp_path, monkeypatch):
    # Path("") is the current directory: nothing may be written there
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ConfigurationError, match="out_dir must not be empty"):
        run_safety_pipeline_files(
            _fixture(fixtures_dir, "code", "s1.py"),
            _fixture(fixtures_dir, "catalogs", "vss.json"),
            _fixture(fixtures_dir, "catalogs", "can.json"),
            _fixture(fixtures_dir, "rules", "rules-s1.txt"),
            replay_gateway("s1"), PipelineConfig(), out_dir="")
    with pytest.raises(ConfigurationError, match="out_dir must not be empty"):
        run_topology_pipeline(None, PipelineConfig(), model_text=topo_texts["good"],
                              constraints_text=topo_texts["ocl"], out_dir="")
    assert list(tmp_path.iterdir()) == []


def test_build_gateway_replay_and_record(tmp_path, fixtures_dir):
    store = fixtures_dir / "replay" / "cabin.json"
    gateway = build_gateway(load_config(mode="replay", store_path=str(store)))
    assert gateway.mode == "replay"
    assert len(gateway.store) == 1

    # record mode reopens an existing store instead of clobbering it
    scratch = tmp_path / "rec.json"
    scratch.write_text(store.read_text())
    gateway = build_gateway(
        load_config(mode="record", store_path=str(scratch), base_url="scripted:"),
        transport=lambda payload: {"choices": [{"message": {"content": "x"}}]},
    )
    assert len(gateway.store) == 1
    fresh = build_gateway(
        load_config(mode="record", store_path=str(tmp_path / "new.json"),
                    base_url="scripted:"),
        transport=lambda payload: {"choices": [{"message": {"content": "x"}}]},
    )
    assert len(fresh.store) == 0


def test_build_gateway_replay_needs_existing_store(tmp_path):
    config = load_config(mode="replay", store_path=str(tmp_path / "missing.json"))
    with pytest.raises(ConfigurationError, match="does not exist"):
        build_gateway(config)


# ---------------------------------------------------------------------------
# stages


def test_read_text_names_what_is_missing():
    with pytest.raises(ConfigurationError, match="rules file '/no/rules.txt'"):
        read_text("/no/rules.txt", "rules")


def test_write_atomic_creates_a_missing_parent_and_survives_short_writes(tmp_path,
                                                                          monkeypatch):
    real_write = os.write
    monkeypatch.setattr(os, "write", lambda fd, data: real_write(fd, data[:3]))
    path = tmp_path / "a" / "b" / "report.txt"
    write_atomic(path, "caf\u00e9 au lait\n", "report")
    monkeypatch.undo()
    assert path.read_bytes() == "caf\u00e9 au lait\n".encode("utf-8")
    assert os.listdir(path.parent) == ["report.txt"]


def test_write_atomic_under_a_regular_file_is_a_configuration_error(tmp_path):
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    # the failed open leaves no temporary file, so its cleanup must not raise
    with pytest.raises(ConfigurationError,
                       match=re.escape(f"cannot write report '{taken / 'report.txt'}': ")):
        write_atomic(taken / "report.txt", "text\n", "report")
    assert taken.read_text() == "not a directory\n"
    assert os.listdir(tmp_path) == ["taken"]


def _entries_json(entries) -> str:
    return "```json\n" + json.dumps(entries) + "\n```\n"


def test_run_extraction_retries_on_rejections(signal_catalog, message_catalog):
    code = 'set("Vehicle.Cabin.Light", True)\n'
    chunks = ground_code(code, catalog_index(signal_catalog, message_catalog),
                         top_k=20, token_budget=4096)
    assert len(chunks) == 1
    first = _entries_json([
        {"name": "Vehicle.Ghost.Signal", "type": "boolean", "protocol": "VSS",
         "value": True},
        {"name": "Vehicle.Cabin.Light", "type": "boolean", "protocol": "VSS",
         "value": True},
    ])
    second = _entries_json([
        {"name": "Vehicle.Cabin.Light", "type": "boolean", "protocol": "VSS",
         "value": True},
    ])
    prompts = []
    gateway = scripted_gateway([first, second], record_prompts=prompts)
    report = run_extraction(code, chunks, gateway, signal_catalog,
                            message_catalog, max_retries=1)
    assert [a.resolved_key for a in report.accepted] == ["Vehicle.Cabin.Light"]
    assert not report.rejected
    assert len(prompts) == 2
    assert "failed catalog validation" in prompts[1]
    assert "Vehicle.Ghost.Signal (VSS): unknown-name" in prompts[1]


def test_run_extraction_zero_retries_keeps_rejections(signal_catalog,
                                                      message_catalog):
    code = 'set("Vehicle.Cabin.Light", True)\n'
    chunks = ground_code(code, catalog_index(signal_catalog, message_catalog),
                         top_k=20, token_budget=4096)
    first = _entries_json([
        {"name": "Vehicle.Ghost.Signal", "type": "boolean", "protocol": "VSS",
         "value": True},
    ])
    report = run_extraction(code, chunks, scripted_gateway([first]),
                            signal_catalog, message_catalog, max_retries=0)
    assert len(report.rejected) == 1
    assert report.rejected[0].reason == "unknown-name"


# ---------------------------------------------------------------------------
# safety runs


def _fixture(fixtures_dir, *parts):
    return fixtures_dir.joinpath(*parts)


def _run_replay_scenario(fixtures_dir, tmp_path, name, rules, out_name,
                         **kwargs):
    config = kwargs.pop("config", PipelineConfig())
    return run_safety_pipeline_files(
        _fixture(fixtures_dir, "code", f"{name}.py"),
        _fixture(fixtures_dir, "catalogs", "vss.json"),
        _fixture(fixtures_dir, "catalogs", "can.json"),
        _fixture(fixtures_dir, "rules", rules),
        replay_gateway(kwargs.pop("store", name)),
        config,
        out_dir=tmp_path / out_name,
        **kwargs,
    )


def test_safety_run_s1_replay(fixtures_dir, tmp_path):
    result = _run_replay_scenario(fixtures_dir, tmp_path, "s1", "rules-s1.txt", "s1")
    assert result.verdict == "violated"
    assert len(result.iterations) == 1
    assert result.final_report.violated
    out = tmp_path / "s1"
    expected_files = {
        "extraction_iter1.json", "chain_iter1.puml", "chain_iter1.json",
        "safety_iter1.txt", "safety_iter1.json", "run.json",
    }
    assert {p.name for p in out.iterdir()} == expected_files
    record = load_run_record(out)
    assert record.kind == "safety"
    assert record.verdict == "violated"
    assert record.iterations[0]["verdict"] == "violated"
    assert record.config["mode"] == "live"  # the default config was echoed
    assert verify_artifacts(record, out) == []


def _record_calls(monkeypatch, module, name, calls):
    """Wrap ``module.name``, and the same function in every loaded sdv_guard
    module that imported it; each call appends (positional arguments,
    result) to ``calls``."""
    original = getattr(module, name)

    def recording(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append((args, result))
        return result

    monkeypatch.setattr(module, name, recording)
    for loaded in list(sys.modules.values()):
        if (getattr(loaded, "__name__", "").startswith("sdv_guard")
                and getattr(loaded, name, None) is original):
            monkeypatch.setattr(loaded, name, recording)


def test_a_chain_stage_renders_and_parses_its_diagram_once(fixtures_dir, tmp_path,
                                                           monkeypatch):
    renders, parses, sent = [], [], []
    _record_calls(monkeypatch, llm_gateway, "render_prompt", renders)
    _record_calls(monkeypatch, eventchain, "parse_activity_diagram", parses)
    _record_calls(monkeypatch, LlmGateway, "complete", sent)
    _run_replay_scenario(fixtures_dir, tmp_path, "s1", "rules-s1.txt", "s1")
    chain_prompts = [prompt for (template, _), prompt in renders if template == PC2]
    assert len(chain_prompts) == 1
    assert len(parses) == 1
    (prompt,) = chain_prompts
    assert prompt in [request.prompt for (_, request), _ in sent]
    chain = json.loads((tmp_path / "s1" / "chain_iter1.json").read_text())
    assert chain["metadata"]["generation_prompt_digest"] == prompt_digest(prompt)


def test_verify_artifacts_flags_tampering(fixtures_dir, tmp_path):
    _run_replay_scenario(fixtures_dir, tmp_path, "s1", "rules-s1.txt", "v")
    out = tmp_path / "v"
    record = load_run_record(out)
    (out / "safety_iter1.txt").write_text("doctored\n")
    (out / "chain_iter1.puml").unlink()
    assert verify_artifacts(record, out) == ["chain_iter1.puml", "safety_iter1.txt"]


def test_corrective_safety_run(fixtures_dir, tmp_path):
    result = _run_replay_scenario(
        fixtures_dir, tmp_path, "s3", "rules-s3.txt", "s3c",
        store="s3_corrective", auto_correct=True,
        config=PipelineConfig(max_iterations=2),
    )
    assert result.verdict == "pass"
    assert len(result.iterations) == 2
    assert result.iterations[0].safety.violated
    assert result.iterations[0].corrected_code is not None
    assert result.iterations[1].corrected_code is None
    assert not result.iterations[1].safety.violated
    assert result.final_code == result.iterations[0].corrected_code
    out = tmp_path / "s3c"
    assert (out / "corrected_code_iter1.py").exists()
    assert (out / "safety_iter2.txt").exists()
    record = load_run_record(out)
    assert [it["corrected"] for it in record.iterations] == [True, False]
    assert [it["verdict"] for it in record.iterations] == ["violated", "pass"]


def test_safety_run_builds_one_retrieval_index(fixtures_dir, tmp_path, monkeypatch):
    builds = []

    def counting_build_index(entries):
        builds.append(len(entries))
        return build_index(entries)

    monkeypatch.setattr(stages_module, "build_index", counting_build_index)
    result = _run_replay_scenario(
        fixtures_dir, tmp_path, "s3", "rules-s3.txt", "s3c",
        store="s3_corrective", auto_correct=True,
        config=PipelineConfig(max_iterations=2),
    )
    assert len(result.iterations) == 2
    assert len(builds) == 1


def test_key_in_both_catalogs_fails_the_retrieval_stage(fixtures_dir, tmp_path):
    can = json.loads(_fixture(fixtures_dir, "catalogs", "can.json").read_text())
    can[0]["name"] = "Vehicle.Cabin.Light"
    can_path = tmp_path / "can.json"
    can_path.write_text(json.dumps(can))
    with pytest.raises(PipelineError, match="stage 'retrieval'") as err:
        run_safety_pipeline_files(
            _fixture(fixtures_dir, "code", "s1.py"),
            _fixture(fixtures_dir, "catalogs", "vss.json"),
            can_path,
            _fixture(fixtures_dir, "rules", "rules-s1.txt"),
            scripted_gateway([]), PipelineConfig(), out_dir=tmp_path / "dup",
        )
    assert isinstance(err.value.cause, ConfigurationError)
    assert "duplicate entry key 'Vehicle.Cabin.Light'" in str(err.value)
    assert [p.name for p in (tmp_path / "dup").iterdir()] == ["run.json"]


def test_safety_run_without_correction_stops_after_one_pass(fixtures_dir, tmp_path):
    # violations alone never loop; auto_correct is what spends iterations
    result = _run_replay_scenario(
        fixtures_dir, tmp_path, "s2", "rules-s2.txt", "s2",
        config=PipelineConfig(max_iterations=3),
    )
    assert result.verdict == "violated"
    assert len(result.iterations) == 1


def test_replay_runs_are_byte_deterministic(fixtures_dir, tmp_path):
    for out_name in ("a", "b"):
        _run_replay_scenario(fixtures_dir, tmp_path, "s2", "rules-s2.txt", out_name)
    names_a = sorted(p.name for p in (tmp_path / "a").iterdir())
    names_b = sorted(p.name for p in (tmp_path / "b").iterdir())
    assert names_a == names_b
    for name in names_a:
        if name == "run.json":  # timestamps live here and nowhere else
            continue
        assert (tmp_path / "a" / name).read_bytes() \
            == (tmp_path / "b" / name).read_bytes(), name


def test_replay_miss_is_a_stage_error(fixtures_dir, tmp_path):
    gateway = LlmGateway(mode="replay", store=ReplayStore())
    with pytest.raises(PipelineError, match="stage 'extraction' failed") as err:
        run_safety_pipeline_files(
            _fixture(fixtures_dir, "code", "s1.py"),
            _fixture(fixtures_dir, "catalogs", "vss.json"),
            _fixture(fixtures_dir, "catalogs", "can.json"),
            _fixture(fixtures_dir, "rules", "rules-s1.txt"),
            gateway, PipelineConfig(), out_dir=tmp_path / "miss",
        )
    assert err.value.stage == "extraction"
    assert err.value.record.verdict == "error"
    # the partial record still lands on disk for post-mortems
    assert load_run_record(tmp_path / "miss").verdict == "error"


def test_bad_rules_fail_before_any_gateway_call(fixtures_dir, tmp_path):
    rules = tmp_path / "rules.txt"
    rules.write_text("rule-without-colon\n")
    with pytest.raises(PipelineError, match="stage 'rules'"):
        run_safety_pipeline_files(
            _fixture(fixtures_dir, "code", "s1.py"),
            _fixture(fixtures_dir, "catalogs", "vss.json"),
            _fixture(fixtures_dir, "catalogs", "can.json"),
            rules, scripted_gateway([]), PipelineConfig(),
            out_dir=tmp_path / "rules-err",
        )


def test_run_record_times_are_utc_to_the_second():
    before = datetime.now(timezone.utc).replace(microsecond=0)
    stamp = runs_module._now()
    after = datetime.now(timezone.utc)
    parsed = datetime.fromisoformat(stamp)
    assert parsed.utcoffset() == timedelta(0) and parsed.microsecond == 0
    assert before <= parsed <= after
    assert stamp == parsed.isoformat(timespec="seconds")


def test_load_run_record_errors(tmp_path):
    with pytest.raises(ConfigurationError, match="no run record"):
        load_run_record(tmp_path)
    (tmp_path / "run.json").write_text("{broken")
    with pytest.raises(ConfigurationError, match="not valid JSON"):
        load_run_record(tmp_path)
    (tmp_path / "run.json").write_text("[]")
    with pytest.raises(ConfigurationError, match="must hold a JSON object"):
        load_run_record(tmp_path)
    for artifacts in ([], {"a": "x"}, {"a": {"path": "a"}}, {"a": {"path": 1, "sha256": "0"}}):
        (tmp_path / "run.json").write_text(json.dumps({"artifacts": artifacts}))
        with pytest.raises(ConfigurationError, match="artifacts must map names"):
            load_run_record(tmp_path)


def test_verify_artifacts_counts_an_unreadable_artifact_as_changed(tmp_path):
    (tmp_path / "run.json").write_text(json.dumps({"artifacts": {
        "dir": {"path": "", "sha256": "0"}, "gone": {"path": "gone.txt", "sha256": "0"}}}))
    assert verify_artifacts(load_run_record(tmp_path), tmp_path) == ["dir", "gone"]


@pytest.mark.parametrize("escaping", ["../outside.txt", "sub/../../outside.txt", "ABSOLUTE"])
def test_verify_artifacts_rejects_a_path_that_leaves_the_run(tmp_path, escaping):
    outside = tmp_path / "outside.txt"
    outside.write_text("secret\n")
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    rel = str(outside) if escaping == "ABSOLUTE" else escaping
    (run_dir / "run.json").write_text(json.dumps({"artifacts": {"x": {
        "path": rel, "sha256": sha256_bytes(outside.read_bytes())}}}))
    with pytest.raises(ConfigurationError,
                       match=re.escape(f"recorded path '{rel}' of 'x' leaves '{run_dir}'")):
        verify_artifacts(load_run_record(run_dir), run_dir)


def test_verify_artifacts_rejects_a_path_that_holds_a_nul(tmp_path):
    (tmp_path / "run.json").write_text(json.dumps({"artifacts": {"x": {
        "path": "a\0b", "sha256": "0"}}}))
    with pytest.raises(ConfigurationError,
                       match=re.escape("recorded path 'a\\x00b' of 'x' holds a NUL character")):
        verify_artifacts(load_run_record(tmp_path), tmp_path)


def test_a_path_that_holds_a_nul_is_a_configuration_error(tmp_path):
    with pytest.raises(ConfigurationError,
                       match=re.escape("cannot read code file 'a\0b': embedded null byte")):
        read_text("a\0b", "code")
    path = tmp_path / "a\0b"
    with pytest.raises(ConfigurationError,
                       match=re.escape(f"cannot write report '{path}': embedded null byte")):
        write_atomic(path, "text\n", "report")
    out_dir = tmp_path / "o\0ut"
    with pytest.raises(ConfigurationError, match=re.escape(
            f"cannot create output directory '{out_dir}': embedded null byte")):
        _ArtifactWriter(out_dir, "safety", PipelineConfig())
    assert os.listdir(tmp_path) == []


# ---------------------------------------------------------------------------
# topology runs


@pytest.fixture(scope="module")
def topo_texts(fixtures_dir):
    base = fixtures_dir / "topology"
    return {
        "good": (base / "system.puml").read_text(),
        "bad": (base / "system-bad.puml").read_text(),
        "ocl": (base / "security.ocl").read_text(),
        "requirements": (base / "requirements.txt").read_text(),
        "guidelines": (base / "guidelines.txt").read_text(),
    }


def test_static_topology_run_needs_no_gateway(topo_texts, tmp_path):
    result = run_topology_pipeline(
        None, PipelineConfig(), model_text=topo_texts["good"],
        constraints_text=topo_texts["ocl"], out_dir=tmp_path / "topo",
    )
    assert result.verdict == "pass"
    assert len(result.iterations) == 1
    out = tmp_path / "topo"
    assert {p.name for p in out.iterdir()} == {
        "model_iter1.puml", "model_iter1.json",
        "topology_iter1.txt", "topology_iter1.json", "run.json",
    }
    assert (out / "topology_iter1.txt").read_text().startswith("overall: pass")
    record = load_run_record(out)
    assert verify_artifacts(record, out) == []


def test_unsafe_topology_is_violated(topo_texts, tmp_path):
    result = run_topology_pipeline(
        None, PipelineConfig(), model_text=topo_texts["bad"],
        constraints_text=topo_texts["ocl"], out_dir=tmp_path / "bad",
    )
    assert result.verdict == "violated"
    failing = result.final_report.failing
    assert [(r.constraint, r.object_id) for r in failing] \
        == [("SteeringCommandWithinLimits", "m_steer")]


def test_topology_auto_correct_replay(topo_texts, tmp_path):
    result = run_topology_pipeline(
        replay_gateway("topology"), PipelineConfig(max_iterations=2),
        model_text=topo_texts["bad"], constraints_text=topo_texts["ocl"],
        out_dir=tmp_path / "fix", auto_correct=True,
    )
    assert result.verdict == "pass"
    assert len(result.iterations) == 2
    assert len(result.iterations[0].report.failing) == 1
    assert not result.iterations[1].report.failing
    assert result.final_model.get("m_steer").attrs["payloadValue"] == "12.5"
    assert (tmp_path / "fix" / "model_iter2.puml").exists()


def test_topology_generation_replay(topo_texts, tmp_path):
    result = run_topology_pipeline(
        replay_gateway("topology"), PipelineConfig(),
        requirements=topo_texts["requirements"],
        guidelines=topo_texts["guidelines"],
        out_dir=tmp_path / "gen",
    )
    assert result.verdict == "pass"
    assert len(result.final_model) == 23


def test_non_conformant_model_is_a_stage_error(topo_texts, tmp_path):
    with pytest.raises(PipelineError, match="stage 'conformance'") as err:
        run_topology_pipeline(
            None, PipelineConfig(),
            model_text="@startuml\nobject ufo : Spaceship\n@enduml\n",
            constraints_text=topo_texts["ocl"], out_dir=tmp_path / "bad",
        )
    assert err.value.record.verdict == "error"
    text = (tmp_path / "bad" / "conformance.txt").read_text()
    assert "unknown-class" in text


def test_topology_input_choices_are_exclusive(topo_texts, tmp_path):
    out = tmp_path / "never"
    with pytest.raises(ConfigurationError, match="exactly one of model_text"):
        run_topology_pipeline(None, PipelineConfig(),
                              constraints_text=topo_texts["ocl"], out_dir=out)
    with pytest.raises(ConfigurationError, match="exactly one of model_text"):
        run_topology_pipeline(None, PipelineConfig(),
                              model_text=topo_texts["good"], requirements="x",
                              constraints_text=topo_texts["ocl"], out_dir=out)
    with pytest.raises(ConfigurationError, match="exactly one of constraints_text"):
        run_topology_pipeline(None, PipelineConfig(),
                              model_text=topo_texts["good"], out_dir=out)
    with pytest.raises(ConfigurationError, match="need a completion gateway"):
        run_topology_pipeline(None, PipelineConfig(), requirements="x",
                              constraints_text=topo_texts["ocl"], out_dir=out)
    assert not out.exists()  # rejected before anything hit the disk


# ---------------------------------------------------------------------------
# evaluation harness


def test_parse_manifest(fixtures_dir):
    scenarios = parse_manifest(fixtures_dir / "harness" / "manifest.json")
    assert [s.scenario_id for s in scenarios] == [
        "s1-mapping", "s1-chain", "s2-mapping", "s2-chain",
        "s3-mapping", "s3-chain", "cabin-mapping",
    ]
    mapping = scenarios[0]
    assert mapping.kind == "mapping"
    assert mapping.code_path.is_file()  # relative paths resolve off the manifest
    assert mapping.expected_accepted == (
        "Vehicle.Speed.Target", "Vehicle.ADAS.ObstacleDetection.Camera", "AccelCmd",
    )
    chain = scenarios[1]
    assert chain.kind == "chain"
    assert chain.rules_path.is_file()
    assert chain.expected_verdicts == (("rule1", "violated"),)


def _write_manifest(tmp_path, scenarios) -> str:
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"scenarios": scenarios}))
    return str(path)


def _cabin_scenario(fixtures_dir, **extra) -> dict:
    base = {
        "id": "cabin", "kind": "mapping",
        "code": str(fixtures_dir / "code" / "cabin.py"),
        "vss": str(fixtures_dir / "catalogs" / "vss.json"),
        "can": str(fixtures_dir / "catalogs" / "can.json"),
        "replay": str(fixtures_dir / "replay" / "cabin.json"),
        "expected_accepted": ["Vehicle.Cabin.Light"],
    }
    base.update(extra)
    return base


@pytest.mark.parametrize("mangle, message", [
    (lambda s: s.pop("kind"), "missing 'kind'"),
    (lambda s: s.update(kind="fuzzing"), "unknown kind 'fuzzing'"),
    (lambda s: s.pop("replay"), "missing 'replay'"),
    (lambda s: s.update(expected_accepted="Vehicle.Cabin.Light"),
     "must be a list of catalog keys"),
    *((lambda s, key=key, value=value: s.update({key: value}),
       f"scenario 'cabin' {key} must be a path string")
      for key, value in (("code", 3), ("vss", None), ("can", ["a"]), ("replay", {}))),
    (lambda s: s.update(kind="chain", expected_verdicts={"r": "pass"}, rules=False),
     "scenario 'cabin' rules must be a path string"),
])
def test_manifest_scenario_rejects(fixtures_dir, tmp_path, mangle, message):
    scenario = _cabin_scenario(fixtures_dir)
    mangle(scenario)
    with pytest.raises(ConfigurationError, match=message):
        parse_manifest(_write_manifest(tmp_path, [scenario]))


@pytest.mark.parametrize("scenario_id, shown", [
    (None, "null"), ({"a": 1}, '{"a":1}'), (3, "3"), (["s1"], '["s1"]'), ("", '""'),
])
def test_manifest_id_that_is_not_a_name_is_rejected(fixtures_dir, tmp_path, capsys,
                                                    scenario_id, shown):
    manifest = _write_manifest(tmp_path, [_cabin_scenario(fixtures_dir, id=scenario_id)])
    message = f"scenario id {shown} must be a non-empty string"
    with pytest.raises(ConfigurationError) as caught:
        parse_manifest(manifest)
    assert str(caught.value) == message
    assert main(["eval", "--manifest", manifest]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_manifest_id_left_out_is_unnamed(fixtures_dir, tmp_path):
    scenario = _cabin_scenario(fixtures_dir)
    del scenario["id"]
    assert [s.scenario_id for s in parse_manifest(_write_manifest(tmp_path, [scenario]))] == [
        "(unnamed)"]


def test_manifest_document_rejects(fixtures_dir, tmp_path):
    with pytest.raises(ConfigurationError, match="does not exist"):
        parse_manifest(tmp_path / "none.json")
    bad = tmp_path / "bad.json"
    bad.write_text("[]")
    with pytest.raises(ConfigurationError, match="scenario list"):
        parse_manifest(bad)
    with pytest.raises(ConfigurationError, match="lists no scenarios"):
        parse_manifest(_write_manifest(tmp_path, []))
    twice = [_cabin_scenario(fixtures_dir), _cabin_scenario(fixtures_dir)]
    with pytest.raises(ConfigurationError, match="duplicate scenario id"):
        parse_manifest(_write_manifest(tmp_path, twice))
    chain_bad = _cabin_scenario(
        fixtures_dir, kind="chain",
        rules=str(fixtures_dir / "rules" / "rules-s1.txt"),
        expected_verdicts={"rule1": "maybe"},
    )
    with pytest.raises(ConfigurationError, match="pass/violated"):
        parse_manifest(_write_manifest(tmp_path, [chain_bad]))


def test_harness_full_manifest_is_perfect(fixtures_dir):
    report = run_eval_harness(fixtures_dir / "harness" / "manifest.json", runs=2)
    assert report.all_perfect
    assert report.runs == 2
    assert len(report.outcomes) == 7
    for outcome in report.outcomes:
        assert outcome.successes == 2
        assert outcome.percent == "100.0%"
        assert outcome.failures == ()
    rendered = render_harness_report(report)
    assert "s1-mapping (mapping): 2/2 (100.0%)" in rendered
    assert "s3-chain (chain): 2/2 (100.0%)" in rendered
    assert report.outcomes[0].success_rate == 1


def test_harness_fault_injection_is_seeded(fixtures_dir):
    manifest = fixtures_dir / "harness" / "manifest-fault.json"
    first = run_eval_harness(manifest, runs=40, fault_rate=0.5, seed=11)
    second = run_eval_harness(manifest, runs=40, fault_rate=0.5, seed=11)
    assert [o.successes for o in first.outcomes] \
        == [o.successes for o in second.outcomes]
    (outcome,) = first.outcomes
    assert 0 < outcome.successes < 40  # p=0.5 over 40 runs; both tails are 2^-40
    different = run_eval_harness(manifest, runs=40, fault_rate=0.0, seed=11)
    assert different.all_perfect  # rate 0 never drops an entry


def test_harness_bounds(fixtures_dir):
    manifest = fixtures_dir / "harness" / "manifest.json"
    with pytest.raises(ConfigurationError, match="runs must be at least 1"):
        run_eval_harness(manifest, runs=0)
    with pytest.raises(ConfigurationError, match="within \\[0, 1\\]"):
        run_eval_harness(manifest, fault_rate=1.5)


def test_harness_reports_expectation_mismatches(fixtures_dir, tmp_path):
    wrong = _cabin_scenario(
        fixtures_dir,
        expected_accepted=["Vehicle.Cabin.Light", "Vehicle.Speed.Target"])
    report = run_eval_harness(_write_manifest(tmp_path, [wrong]), runs=8)
    (outcome,) = report.outcomes
    assert outcome.successes == 0
    assert len(outcome.failures) == 5  # notes are capped, not unbounded
    assert outcome.failures[0] == "missing Vehicle.Speed.Target"
    assert outcome.percent == "0.0%"


def test_harness_builds_one_index_per_catalog_pair(fixtures_dir, monkeypatch):
    builds = []

    def counting_build_index(entries):
        builds.append(len(entries))
        return build_index(entries)

    monkeypatch.setattr(stages_module, "build_index", counting_build_index)
    report = run_eval_harness(fixtures_dir / "harness" / "manifest.json", runs=2)
    # seven scenarios, all naming the same catalog pair
    assert len(report.outcomes) == 7
    assert len(builds) == 1


def test_harness_notes_a_duplicate_key_pair_on_every_scenario(fixtures_dir, tmp_path):
    can = json.loads(_fixture(fixtures_dir, "catalogs", "can.json").read_text())
    can[0]["name"] = "Vehicle.Cabin.Light"
    can_path = tmp_path / "can.json"
    can_path.write_text(json.dumps(can))
    scenarios = [_cabin_scenario(fixtures_dir, id="dup-1", can=str(can_path)),
                 _cabin_scenario(fixtures_dir, id="clean"),
                 _cabin_scenario(fixtures_dir, id="dup-2", can=str(can_path))]
    report = run_eval_harness(_write_manifest(tmp_path, scenarios), runs=2)
    note = ("ConfigurationError: duplicate entry key 'Vehicle.Cabin.Light' "
            "in index")
    assert [(o.scenario_id, o.successes, o.failures) for o in report.outcomes] == [
        ("dup-1", 0, (note, note)), ("clean", 2, ()), ("dup-2", 0, (note, note))]


def test_harness_reads_the_catalogs_before_the_replay_store(fixtures_dir, tmp_path):
    scenario = _cabin_scenario(fixtures_dir, vss=str(tmp_path / "absent-vss.json"),
                               replay=str(tmp_path / "absent-replay.json"))
    with pytest.raises(ConfigurationError, match="VSS catalog file .* does not exist"):
        run_eval_harness(_write_manifest(tmp_path, [scenario]), runs=1)


# ---------------------------------------------------------------------------
# deployment


@pytest.fixture()
def artifact_dir(tmp_path):
    source = tmp_path / "artifacts"
    (source / "sub").mkdir(parents=True)
    (source / "report.txt").write_text("overall: pass\n")
    (source / "sub" / "run.json").write_text("{}\n")
    return source


def test_deploy_to_directory_and_verify(artifact_dir, tmp_path):
    target = tmp_path / "drop"
    receipt = deploy_stub(artifact_dir, str(target))
    assert receipt.kind == "directory"
    assert [name for name, _ in receipt.files] == ["report.txt", "sub/run.json"]
    assert (target / "sub" / "run.json").read_text() == "{}\n"
    assert verify_receipt(receipt) == []

    receipt_path = tmp_path / "receipt.json"
    save_receipt(receipt, receipt_path)
    assert load_receipt(receipt_path) == receipt

    (target / "report.txt").write_text("overall: violated\n")
    (target / "sub" / "run.json").unlink()
    assert verify_receipt(receipt) == ["report.txt", "sub/run.json"]


def test_deploy_copies_the_bytes_its_receipt_hashed(artifact_dir, tmp_path, monkeypatch):
    collect = deploy_module._collect

    def collect_then_rewrite(source_dir):
        files = collect(source_dir)
        (source_dir / "report.txt").write_text("overall: violated\n")
        return files

    monkeypatch.setattr(deploy_module, "_collect", collect_then_rewrite)
    receipt = deploy_stub(artifact_dir, str(tmp_path / "drop"))
    assert (tmp_path / "drop" / "report.txt").read_text() == "overall: pass\n"
    assert verify_receipt(receipt) == []


def test_verify_receipt_rejects_a_path_that_leaves_the_target(artifact_dir, tmp_path):
    target = tmp_path / "drop"
    receipt = deploy_stub(artifact_dir, str(target))
    rel, digest = receipt.files[0]
    escaping = Receipt(target=receipt.target, kind="directory",
                       files=((f"../artifacts/{rel}", digest),))
    with pytest.raises(ConfigurationError, match=re.escape(
            f"recorded path '../artifacts/{rel}' of '../artifacts/{rel}' leaves '{target}'")):
        verify_receipt(escaping)


def _finish_run(out_dir, verdict):
    writer = _ArtifactWriter(out_dir, "safety", PipelineConfig())
    writer.record.verdict = verdict
    return writer.finish()


def _save_receipt(out_dir, target):
    path = out_dir / "receipt.json"
    save_receipt(Receipt(target=target, kind="directory", files=()), path)
    return path


@pytest.mark.parametrize("save", [_finish_run, _save_receipt], ids=["run.json", "receipt"])
def test_record_write_failing_part_way_keeps_the_old_file(tmp_path, monkeypatch, save):
    path = save(tmp_path, "pass")
    before = path.read_bytes()
    write_dies_half_way(monkeypatch)
    with pytest.raises(ConfigurationError, match="disk full"):
        save(tmp_path, "violated")
    monkeypatch.undo()

    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [path.name]
    assert save(tmp_path, "violated") == path
    assert "violated" in path.read_text()
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def test_deploy_to_a_directory_target_that_is_a_file_fails_closed(artifact_dir, tmp_path):
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    with pytest.raises(DeploymentError,
                       match=re.escape(f"cannot copy 'report.txt' to '{taken / 'report.txt'}': ")):
        deploy_stub(artifact_dir, str(taken))
    assert taken.read_text() == "not a directory\n"


def test_deploy_rejects_bad_sources(tmp_path):
    with pytest.raises(ConfigurationError, match="does not exist"):
        deploy_stub(tmp_path / "nope", str(tmp_path / "t"))
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(ConfigurationError, match="is empty"):
        deploy_stub(empty, str(tmp_path / "t"))


def test_receipt_loading_errors(tmp_path):
    with pytest.raises(ConfigurationError, match="does not exist"):
        load_receipt(tmp_path / "none.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    with pytest.raises(ConfigurationError, match="not valid JSON"):
        load_receipt(bad)
    bad.write_text('{"files": []}')
    with pytest.raises(ConfigurationError, match="malformed"):
        load_receipt(bad)


class _CollectorHandler(http.server.BaseHTTPRequestHandler):
    status = 200
    received: list = []

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        type(self).received.append(json.loads(self.rfile.read(length)))
        self.send_response(type(self).status)
        self.send_header("Content-Length", "0")
        self.end_headers()

    def log_message(self, *args):
        pass


@pytest.fixture()
def collector():
    server = http.server.HTTPServer(("127.0.0.1", 0), _CollectorHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _CollectorHandler.status = 200
    _CollectorHandler.received = []
    yield f"http://127.0.0.1:{server.server_address[1]}/collect"
    server.shutdown()


def test_deploy_to_endpoint(artifact_dir, collector):
    receipt = deploy_stub(artifact_dir, collector)
    assert receipt.kind == "endpoint"
    assert [body["path"] for body in _CollectorHandler.received] \
        == ["report.txt", "sub/run.json"]
    assert _CollectorHandler.received[0]["content"] == "overall: pass\n"
    assert "sha256" in _CollectorHandler.received[0]
    with pytest.raises(DeploymentError, match="cannot be re-verified"):
        verify_receipt(receipt)


def test_deploy_endpoint_failures(artifact_dir, collector):
    _CollectorHandler.status = 500
    with pytest.raises(DeploymentError, match="status 500"):
        deploy_stub(artifact_dir, collector)
    with pytest.raises(DeploymentError, match="unreachable"):
        deploy_stub(artifact_dir, "http://127.0.0.1:9/collect")


@pytest.fixture()
def no_post(monkeypatch):
    """``requests.post`` fails the test if it is called."""
    import requests

    def post(*args, **kwargs):
        raise AssertionError("nothing may be sent")

    monkeypatch.setattr(requests, "post", post)


def test_deploy_to_endpoint_rejects_a_file_that_is_not_utf8_before_sending(artifact_dir,
                                                                           no_post):
    (artifact_dir / "sub" / "z.bin").write_bytes(b"ok\n\xff\n")
    with pytest.raises(DeploymentError, match="^artifact 'sub/z.bin' is not UTF-8 text: "):
        deploy_stub(artifact_dir, "http://127.0.0.1:9/collect")


def test_deploy_reports_a_file_that_cannot_be_read(artifact_dir, no_post, monkeypatch):
    real_read_bytes = Path.read_bytes

    def read_bytes(path):
        if path.name == "run.json":
            raise PermissionError(13, "Permission denied")
        return real_read_bytes(path)

    monkeypatch.setattr(Path, "read_bytes", read_bytes)
    for target in ("http://127.0.0.1:9/collect", str(artifact_dir.parent / "drop")):
        with pytest.raises(ConfigurationError,
                           match="^cannot read artifact 'sub/run.json': .*Permission denied"):
            deploy_stub(artifact_dir, target)
    assert not (artifact_dir.parent / "drop").exists()


def test_deploy_to_a_directory_target_with_a_nul_fails_closed(artifact_dir, tmp_path):
    target = tmp_path / "dr\0op"
    with pytest.raises(DeploymentError, match=re.escape(
            f"cannot copy 'report.txt' to '{target / 'report.txt'}': embedded null byte")):
        deploy_stub(artifact_dir, str(target))


# ---------------------------------------------------------------------------
# command-line interface


def _paths(fixtures_dir):
    return {
        "code": str(fixtures_dir / "code" / "s1.py"),
        "vss": str(fixtures_dir / "catalogs" / "vss.json"),
        "can": str(fixtures_dir / "catalogs" / "can.json"),
        "rules": str(fixtures_dir / "rules" / "rules-s1.txt"),
        "replay": str(fixtures_dir / "replay" / "s1.json"),
    }


def test_cli_analyze_safety_replay(fixtures_dir, tmp_path, capsys):
    p = _paths(fixtures_dir)
    code = main(["--out", str(tmp_path / "out"), "analyze-safety",
                 "--code", p["code"], "--vss", p["vss"], "--can", p["can"],
                 "--rules", p["rules"], "--replay", p["replay"]])
    out = capsys.readouterr().out
    assert code == 1
    assert out.startswith("overall: violated")
    assert f"artifacts: {tmp_path / 'out'}" in out
    assert (tmp_path / "out" / "run.json").exists()


def test_cli_analyze_safety_corrective(fixtures_dir, tmp_path, capsys):
    p = _paths(fixtures_dir)
    code = main(["--out", str(tmp_path / "out"), "analyze-safety",
                 "--code", str(fixtures_dir / "code" / "s3.py"),
                 "--vss", p["vss"], "--can", p["can"],
                 "--rules", str(fixtures_dir / "rules" / "rules-s3.txt"),
                 "--replay", str(fixtures_dir / "replay" / "s3_corrective.json"),
                 "--auto-correct", "--max-iterations", "2"])
    assert code == 0
    assert capsys.readouterr().out.startswith("overall: pass")


def test_each_safety_iteration_serializes_its_chain_once(fixtures_dir, tmp_path,
                                                        monkeypatch):
    # chain_iterN.json and the report's chain digest share one text
    serialized = []
    real = eventchain.serialize_chain

    def counting(document):
        serialized.append(document)
        return real(document)

    monkeypatch.setattr(eventchain, "serialize_chain", counting)
    monkeypatch.setattr(runs_module, "serialize_chain", counting, raising=False)
    p = _paths(fixtures_dir)
    out = tmp_path / "out"
    code = main(["--out", str(out), "analyze-safety",
                 "--code", str(fixtures_dir / "code" / "s3.py"),
                 "--vss", p["vss"], "--can", p["can"],
                 "--rules", str(fixtures_dir / "rules" / "rules-s3.txt"),
                 "--replay", str(fixtures_dir / "replay" / "s3_corrective.json"),
                 "--auto-correct", "--max-iterations", "2"])
    assert code == 0
    assert len(json.loads((out / "run.json").read_text())["iterations"]) == 2
    assert len(serialized) == 2
    for index, document in enumerate(serialized, start=1):
        text = (out / f"chain_iter{index}.json").read_text()
        assert text == real(document) + "\n"
        assert f'"chain_digest": "{sha256_text(real(document))}"' in (
            out / f"safety_iter{index}.json").read_text()


def test_cli_analyze_topology(fixtures_dir, tmp_path, capsys):
    base = fixtures_dir / "topology"
    good = main(["--out", str(tmp_path / "a"), "analyze-topology",
                 "--model", str(base / "system.puml"),
                 "--constraints", str(base / "security.ocl")])
    assert good == 0
    assert capsys.readouterr().out.startswith("overall: pass")
    bad = main(["--out", str(tmp_path / "b"), "analyze-topology",
                "--model", str(base / "system-bad.puml"),
                "--constraints", str(base / "security.ocl")])
    assert bad == 1
    fixed = main(["--out", str(tmp_path / "c"), "analyze-topology",
                  "--model", str(base / "system-bad.puml"),
                  "--constraints", str(base / "security.ocl"),
                  "--auto-correct", "--max-iterations", "2",
                  "--replay", str(fixtures_dir / "replay" / "topology.json")])
    assert fixed == 0


def test_cli_extract_signals(fixtures_dir, tmp_path, capsys):
    code = main(["--out", str(tmp_path), "extract-signals",
                 "--code", str(fixtures_dir / "code" / "cabin.py"),
                 "--vss", str(fixtures_dir / "catalogs" / "vss.json"),
                 "--can", str(fixtures_dir / "catalogs" / "can.json"),
                 "--replay", str(fixtures_dir / "replay" / "cabin.json")])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert [a["resolved_key"] for a in report["accepted"]] == ["Vehicle.Cabin.Light"]


def test_cli_build_chain(fixtures_dir, tmp_path, capsys):
    p = _paths(fixtures_dir)
    code = main(["--out", str(tmp_path / "out"), "build-chain",
                 "--code", p["code"], "--vss", p["vss"], "--can", p["can"],
                 "--replay", p["replay"]])
    assert code == 0
    assert "@startuml" in capsys.readouterr().out
    assert (tmp_path / "out" / "chain.puml").exists()
    chain = json.loads((tmp_path / "out" / "chain.json").read_text())
    assert chain["nodes"]


def test_cli_check_chain(fixtures_dir, tmp_path, capsys):
    violated = main(["check-chain",
                     "--chain", str(fixtures_dir / "chains" / "s1.puml"),
                     "--rules", str(fixtures_dir / "rules" / "rules-s1.txt")])
    assert violated == 1
    assert capsys.readouterr().out.startswith("overall: violated")
    clean = main(["check-chain",
                  "--chain", str(fixtures_dir / "chains" / "s3-corrected.puml"),
                  "--rules", str(fixtures_dir / "rules" / "rules-s3.txt")])
    assert clean == 0

    # the document form is accepted interchangeably with the diagram
    diagram = (fixtures_dir / "chains" / "s1.puml").read_text()
    document = to_chain_document(parse_activity_diagram(diagram))
    doc_path = tmp_path / "chain.json"
    doc_path.write_text(serialize_chain(document) + "\n")
    capsys.readouterr()
    assert main(["check-chain", "--chain", str(doc_path),
                 "--rules", str(fixtures_dir / "rules" / "rules-s1.txt")]) == 1


def test_cli_eval(fixtures_dir, tmp_path, capsys):
    code = main(["eval", "--manifest",
                 str(fixtures_dir / "harness" / "manifest.json"), "--runs", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "cabin-mapping (mapping): 1/1 (100.0%)" in out

    wrong = _cabin_scenario(fixtures_dir, expected_accepted=["Vehicle.Speed.Target"])
    code = main(["eval", "--manifest", _write_manifest(tmp_path, [wrong]),
                 "--runs", "1"])
    assert code == 1  # imperfect score without fault injection

    code = main(["eval", "--manifest", _write_manifest(tmp_path, [wrong]),
                 "--runs", "1", "--fault-rate", "0.5", "--seed", "3"])
    assert code == 0  # injected faults make imperfection expected


def test_cli_errors_exit_2(fixtures_dir, tmp_path, capsys):
    p = _paths(fixtures_dir)
    code = main(["analyze-safety", "--code", "/no/such/code.py",
                 "--vss", p["vss"], "--can", p["can"], "--rules", p["rules"],
                 "--replay", p["replay"]])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: code file '/no/such/code.py'")

    bad_config = tmp_path / "config.json"
    bad_config.write_text('{"topk": 3}')
    code = main(["--config", str(bad_config), "extract-signals",
                 "--code", p["code"], "--vss", p["vss"], "--can", p["can"],
                 "--replay", p["replay"]])
    captured = capsys.readouterr()
    assert code == 2
    assert "unknown key 'topk'" in captured.err


@pytest.mark.parametrize("command", ["analyze-safety", "build-chain"])
def test_cli_out_naming_a_file_is_a_typed_error(fixtures_dir, tmp_path, capsys, command):
    p = _paths(fixtures_dir)
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    argv = ["--out", str(taken), command, "--code", p["code"], "--vss", p["vss"],
            "--can", p["can"], "--replay", p["replay"]]
    if command == "analyze-safety":
        argv += ["--rules", p["rules"]]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: cannot ")
    # analyze-safety cannot create the out directory; build-chain names the
    # first file it cannot write under it
    failed = taken / "chain.puml" if command == "build-chain" else taken
    assert f"'{failed}'" in captured.err
    assert taken.read_text() == "not a directory\n"


def test_cli_artifact_path_that_is_a_directory_is_a_typed_error(fixtures_dir, tmp_path,
                                                                capsys):
    base = fixtures_dir / "topology"
    out = tmp_path / "out"
    (out / "topology_iter1.txt").mkdir(parents=True)
    code = main(["--out", str(out), "analyze-topology", "--model", str(base / "system.puml"),
                 "--constraints", str(base / "security.ocl")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(
        f"error: stage 'write' failed: cannot write artifact '{out / 'topology_iter1.txt'}'")
    record = json.loads((out / "run.json").read_text())
    assert record["verdict"] == "error"
    assert sorted(record["artifacts"]) == ["model_iter1.json", "model_iter1.puml"]


def _analyze_topology(out, fixtures_dir):
    base = fixtures_dir / "topology"
    return main(["--out", str(out), "analyze-topology", "--model", str(base / "system.puml"),
                 "--constraints", str(base / "security.ocl")])


def test_cli_run_record_that_cannot_be_written_is_a_typed_error(fixtures_dir, tmp_path,
                                                                capsys):
    out = tmp_path / "out"
    (out / "run.json").mkdir(parents=True)
    code = _analyze_topology(out, fixtures_dir)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"error: cannot write run record '{out / 'run.json'}': ")
    assert "internal error:" not in captured.err


def test_cli_run_whose_writes_die_half_way_leaves_every_file_whole(fixtures_dir, tmp_path,
                                                                   monkeypatch, capsys):
    out = tmp_path / "out"
    assert _analyze_topology(out, fixtures_dir) == 0
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    capsys.readouterr()

    write_dies_half_way(monkeypatch)
    code = _analyze_topology(out, fixtures_dir)
    monkeypatch.undo()
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: stage 'write' failed: cannot write artifact ")
    assert "disk full" in captured.err
    # no temporary file, and every artifact and the record as the first run left them
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before


def test_cli_write_failing_inside_a_stage_is_named_once(fixtures_dir, tmp_path,
                                                         monkeypatch, capsys):
    model = tmp_path / "ufo.puml"
    model.write_text("@startuml\nobject ufo : Spaceship\n@enduml\n")
    out = tmp_path / "out"
    (out / "conformance.txt").mkdir(parents=True)
    finished = []
    real_finish = _ArtifactWriter.finish

    def counted_finish(self):
        finished.append(self.record.verdict)
        return real_finish(self)

    monkeypatch.setattr(_ArtifactWriter, "finish", counted_finish)
    code = main(["--out", str(out), "analyze-topology", "--model", str(model),
                 "--constraints", str(fixtures_dir / "topology" / "security.ocl")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(
        f"error: stage 'write' failed: cannot write artifact '{out / 'conformance.txt'}': ")
    assert captured.err.count("failed") == 1
    assert finished == ["error"]
    assert json.loads((out / "run.json").read_text())["verdict"] == "error"


def test_cli_stage_failure_survives_an_unwritable_run_record(fixtures_dir, tmp_path,
                                                             capsys):
    out = tmp_path / "out"
    (out / "run.json").mkdir(parents=True)
    p = _paths(fixtures_dir)
    code = main(["--out", str(out), "analyze-safety", "--code", p["code"],
                 "--vss", p["vss"], "--can", p["can"], "--rules", p["rules"],
                 "--replay", str(fixtures_dir / "replay" / "cabin.json")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: stage 'extraction' failed: no recorded completion ")
    assert f"cannot write run record '{out / 'run.json'}'" in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("exc", [RecursionError("deep"), KeyError("k"), ValueError()])
def test_cli_fails_closed_on_internal_errors(fixtures_dir, monkeypatch, capsys, exc):
    def broken(args):
        raise exc

    monkeypatch.setattr(cli_module, "_cmd_check_chain", broken)
    code = main(["check-chain", "--chain", str(fixtures_dir / "chains" / "s1.puml"),
                 "--rules", str(fixtures_dir / "rules" / "rules-s1.txt")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"internal error: {type(exc).__name__}\n"
    assert captured.out == ""


@pytest.mark.parametrize("exc", [KeyboardInterrupt, SystemExit])
def test_cli_lets_interrupts_through(fixtures_dir, monkeypatch, exc):
    def interrupted(args):
        raise exc

    monkeypatch.setattr(cli_module, "_cmd_check_chain", interrupted)
    with pytest.raises(exc):
        main(["check-chain", "--chain", str(fixtures_dir / "chains" / "s1.puml"),
              "--rules", str(fixtures_dir / "rules" / "rules-s1.txt")])


@pytest.mark.parametrize("config", [None, "replay", "record", "live"])
@pytest.mark.parametrize("flag", ["--replay", "--record"])
def test_cli_empty_store_file_is_an_error(fixtures_dir, tmp_path, monkeypatch, capsys,
                                           flag, config):
    # an unset shell variable gives an empty FILE; the run must not fall back
    # to the config file's mode, nor to live mode and the endpoint
    monkeypatch.setenv("SDVGUARD_LLM_URL", "http://127.0.0.1:9/v1/chat/completions")
    p = _paths(fixtures_dir)
    argv = ["--out", str(tmp_path / "out")]
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"mode": config, "store_path": p["replay"]}))
        argv += ["--config", str(path)]
    code = main([*argv, "analyze-safety", "--code", p["code"], "--vss", p["vss"],
                 "--can", p["can"], "--rules", p["rules"], flag, ""])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"error: mode '{flag[2:]}' needs a store_path\n"
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["analyze-safety", "build-chain"])
@pytest.mark.parametrize("where", ["--out", "config"])
def test_cli_empty_out_dir_is_an_error(fixtures_dir, tmp_path, monkeypatch, capsys,
                                       command, where):
    # Path("") is the current directory, where the artifacts would land
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    p = _paths(fixtures_dir)
    if where == "--out":
        argv = ["--out", ""]
    else:
        config = tmp_path / "config.json"
        config.write_text('{"out_dir": ""}')
        argv = ["--config", str(config)]
    argv += [command, "--code", p["code"], "--vss", p["vss"], "--can", p["can"],
             "--replay", p["replay"]]
    if command == "analyze-safety":
        argv += ["--rules", p["rules"]]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: out_dir must not be empty\n"
    assert captured.out == ""
    assert os.listdir(work) == []


@pytest.mark.parametrize("command, message", [
    ("analyze-safety", "cannot create output directory 'o\0ut': embedded null byte"),
    ("build-chain", "cannot write chain 'o\0ut/chain.puml': embedded null byte"),
])
def test_cli_out_dir_with_a_nul_is_an_error(fixtures_dir, tmp_path, monkeypatch, capsys,
                                            command, message):
    monkeypatch.chdir(tmp_path)
    p = _paths(fixtures_dir)
    config = tmp_path / "config.json"
    config.write_text('{"out_dir": "o\\u0000ut"}')
    argv = ["--config", str(config), command, "--code", p["code"], "--vss", p["vss"],
            "--can", p["can"], "--replay", p["replay"]]
    if command == "analyze-safety":
        argv += ["--rules", p["rules"]]
    assert main(argv) == 2
    # the error line shows the NUL escaped
    assert capsys.readouterr().err == f"error: {message}\n".replace("\0", "\\x00")
    assert os.listdir(tmp_path) == ["config.json"]


@pytest.mark.parametrize("char, message", [
    ("\0", "error: cannot read code file '{code}': embedded null byte\n"),
    ("\x1b", "error: code file '{code}' does not exist\n"),
], ids=["nul", "escape"])
def test_cli_error_line_escapes_a_control_character(fixtures_dir, tmp_path, capsys,
                                                    char, message):
    manifest = _write_manifest(tmp_path, [_cabin_scenario(fixtures_dir, code=f"a{char}b")])
    assert main(["--out", str(tmp_path / "out"), "eval", "--manifest", manifest,
                 "--runs", "1"]) == 2
    # a manifest path is read from the manifest's directory; \x00, \x1b as printed
    code = tmp_path / f"a{repr(char)[1:-1]}b"
    assert capsys.readouterr().err == message.format(code=code)


def test_cli_replay_and_record_are_exclusive(fixtures_dir):
    p = _paths(fixtures_dir)
    with pytest.raises(SystemExit) as err:
        main(["extract-signals", "--code", p["code"], "--vss", p["vss"],
              "--can", p["can"], "--replay", p["replay"],
              "--record", "other.json"])
    assert err.value.code == 2
