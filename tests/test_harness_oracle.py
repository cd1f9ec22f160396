"""The eval harness against a per-run reference implementation.

``run_eval_harness`` replays each scenario once and applies only the fault
draws per run. The reference below replays every run from scratch; both
must produce the same report for any (runs, fault rate, seed).
"""

import json
import random

import pytest

from sdv_guard.errors import ConfigurationError, SdvGuardError
from sdv_guard.eventchain import generate_chain
from sdv_guard.llm_gateway import LlmGateway, ReplayStore
from sdv_guard.pipeline import PipelineConfig, run_eval_harness
from sdv_guard.pipeline.harness import HarnessReport, ScenarioOutcome, parse_manifest
from sdv_guard.pipeline.stages import catalog_index, ground_code, load_catalogs, run_extraction
from sdv_guard.safety_rules import check, parse_rules
from sdv_guard.util import read_text


def _reference_mapping_once(scenario, code, catalogs, gateway, config, rng,
                            fault_rate):
    signal_catalog, message_catalog = catalogs
    chunks = ground_code(code, catalog_index(signal_catalog, message_catalog),
                         config.top_k, config.token_budget)
    report = run_extraction(code, chunks, gateway, signal_catalog, message_catalog,
                            max_retries=config.max_extraction_retries)
    accepted = {a.resolved_key for a in report.accepted}
    if fault_rate > 0:
        for key in scenario.expected_accepted:
            if rng.random() < fault_rate:
                accepted.discard(key)
    expected = set(scenario.expected_accepted)
    if accepted == expected:
        return None
    missing = sorted(expected - accepted)
    extra = sorted(accepted - expected)
    parts = []
    if missing:
        parts.append(f"missing {', '.join(missing)}")
    if extra:
        parts.append(f"unexpected {', '.join(extra)}")
    return "; ".join(parts)


def _reference_chain_once(scenario, code, catalogs, gateway, ruleset, config):
    signal_catalog, message_catalog = catalogs
    chunks = ground_code(code, catalog_index(signal_catalog, message_catalog),
                         config.top_k, config.token_budget)
    report = run_extraction(code, chunks, gateway, signal_catalog, message_catalog,
                            max_retries=config.max_extraction_retries)
    _diagram, document = generate_chain(code, "", report.accepted, gateway)
    verdicts = {r.rule.name: r.verdict for r in check(document, ruleset).results}
    for name, expected in scenario.expected_verdicts:
        if name not in verdicts:
            return f"rule '{name}' not present in the report"
        if verdicts[name] != expected:
            return f"rule '{name}' was {verdicts[name]}, expected {expected}"
    return None


def _reference_harness(manifest_path, runs, fault_rate, seed):
    """Replays every scenario ``runs`` times, drawing faults inside each run."""
    config = PipelineConfig()
    rng = random.Random(seed)
    outcomes = []
    for scenario in parse_manifest(manifest_path):
        code = read_text(scenario.code_path, "code")
        catalogs = load_catalogs(scenario.vss_path, scenario.can_path)
        gateway = LlmGateway(mode="replay",
                             store=ReplayStore.load(scenario.replay_path))
        ruleset = (parse_rules(read_text(scenario.rules_path, "rules"))
                   if scenario.rules_path is not None else None)
        successes = 0
        failures = []
        for _run_index in range(runs):
            try:
                if scenario.kind == "mapping":
                    note = _reference_mapping_once(scenario, code, catalogs, gateway,
                                                   config, rng, fault_rate)
                else:
                    note = _reference_chain_once(scenario, code, catalogs, gateway,
                                                 ruleset, config)
            except SdvGuardError as exc:
                note = f"{type(exc).__name__}: {exc}"
            if note is None:
                successes += 1
            elif len(failures) < 5:
                failures.append(note)
        outcomes.append(ScenarioOutcome(
            scenario_id=scenario.scenario_id, kind=scenario.kind, runs=runs,
            successes=successes, failures=tuple(failures),
        ))
    return HarnessReport(outcomes=tuple(outcomes), runs=runs,
                         fault_rate=fault_rate, seed=seed)


def _scenario(fixtures_dir, scenario_id, kind, code, replay, **extra) -> dict:
    return {
        "id": scenario_id, "kind": kind,
        "code": str(fixtures_dir / "code" / f"{code}.py"),
        "vss": str(fixtures_dir / "catalogs" / "vss.json"),
        "can": str(fixtures_dir / "catalogs" / "can.json"),
        "replay": str(fixtures_dir / "replay" / f"{replay}.json"),
        **extra,
    }


@pytest.fixture()
def mixed_manifest(fixtures_dir, tmp_path):
    rules = str(fixtures_dir / "rules" / "rules-s1.txt")
    scenarios = [
        _scenario(fixtures_dir, "s2-mapping", "mapping", "s2", "s2",
                  expected_accepted=["Vehicle.ADAS.ObstacleDetection.Lidar",
                                     "BrakeCmd"]),
        _scenario(fixtures_dir, "s1-chain", "chain", "s1", "s1",
                  rules=rules, expected_verdicts={"rule1": "violated"}),
        _scenario(fixtures_dir, "s1-chain-wrong", "chain", "s1", "s1",
                  rules=rules, expected_verdicts={"rule1": "pass"}),
        _scenario(fixtures_dir, "s1-chain-unknown-rule", "chain", "s1", "s1",
                  rules=rules, expected_verdicts={"rule9": "pass"}),
        _scenario(fixtures_dir, "cabin-wrong", "mapping", "cabin", "cabin",
                  expected_accepted=["Vehicle.Cabin.Light",
                                     "Vehicle.Speed.Target"]),
        _scenario(fixtures_dir, "s2-replay-miss", "mapping", "s2", "cabin",
                  expected_accepted=["BrakeCmd"]),
        _scenario(fixtures_dir, "s1-mapping", "mapping", "s1", "s1",
                  expected_accepted=["Vehicle.Speed.Target",
                                     "Vehicle.ADAS.ObstacleDetection.Camera",
                                     "AccelCmd"]),
    ]
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"scenarios": scenarios}))
    return path


@pytest.mark.parametrize("runs, fault_rate, seed", [
    (1, 0.0, None), (7, 0.5, 3), (40, 1.0, 11), (200, 0.3, 1),
])
def test_harness_matches_per_run_reference(mixed_manifest, runs, fault_rate, seed):
    report = run_eval_harness(mixed_manifest, runs=runs, fault_rate=fault_rate,
                              seed=seed)
    assert report == _reference_harness(mixed_manifest, runs, fault_rate, seed)


def test_mixed_manifest_exercises_every_outcome(mixed_manifest):
    by_id = {o.scenario_id: o
             for o in run_eval_harness(mixed_manifest, runs=7).outcomes}
    assert by_id["s2-mapping"].successes == 7
    assert by_id["s1-chain"].successes == 7
    assert by_id["s1-chain-wrong"].failures[0] == "rule 'rule1' was violated, expected pass"
    assert by_id["s1-chain-unknown-rule"].failures \
        == ("rule 'rule9' not present in the report",) * 5
    assert by_id["cabin-wrong"].failures == ("missing Vehicle.Speed.Target",) * 5
    assert by_id["s2-replay-miss"].failures[0].startswith("ReplayMissError: ")
    assert by_id["s1-mapping"].successes == 7


def test_harness_missing_replay_file_raises(fixtures_dir, tmp_path):
    scenario = _scenario(fixtures_dir, "cabin", "mapping", "cabin", "absent",
                         expected_accepted=["Vehicle.Cabin.Light"])
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"scenarios": [scenario]}))
    with pytest.raises(ConfigurationError, match="replay store .* does not exist"):
        run_eval_harness(path, runs=3)
