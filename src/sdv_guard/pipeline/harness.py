"""Scenario evaluation harness with optional fault injection.

A manifest file lists scenarios; each one replays a recorded completion
store and checks the outcome against pinned expectations:

    {"scenarios": [
        {"id": "s1-mapping", "kind": "mapping",
         "code": "code/s1.py", "vss": "catalogs/vss.json",
         "can": "catalogs/can.json", "replay": "replay/s1.json",
         "expected_accepted": ["Vehicle.ADAS.Brake"]},
        {"id": "s1-chain", "kind": "chain",
         "code": "code/s1.py", "vss": "...", "can": "...",
         "replay": "...", "rules": "rules/rules-s1.txt",
         "expected_verdicts": {"no-accel-after-detection": "violated"}}
    ]}

Relative paths resolve against the manifest's directory. A ``mapping`` run
succeeds when the set of accepted catalog keys equals the expectation
exactly; a ``chain`` run succeeds when the generated chain parses and every
named rule gets its expected verdict. Success rates are exact fractions.

Fault injection models extraction misses: with rate p, each expected entry
of a mapping scenario is independently dropped from the accepted set per
run, so a scenario with k expected entries succeeds with probability
(1-p)^k. The RNG is seeded once for the whole harness, making any given
(seed, runs) invocation reproducible. Chain scenarios are never injected.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

from ..errors import ConfigurationError, SdvGuardError
from ..eventchain import generate_chain
from ..llm_gateway import LlmGateway, ReplayStore
from ..safety_rules import VERDICT_PASS, VERDICT_VIOLATED, check, parse_rules
from ..util import canonical_json, load_json, read_text
from .config import PipelineConfig
from .stages import catalog_index, extract_grounded, load_catalogs

KINDS = ("mapping", "chain")


class Scenario(NamedTuple):
    scenario_id: str
    kind: str
    code_path: Path
    vss_path: Path
    can_path: Path
    replay_path: Path
    rules_path: Path | None = None
    expected_accepted: tuple[str, ...] = ()
    expected_verdicts: tuple[tuple[str, str], ...] = ()


class ScenarioOutcome(NamedTuple):
    scenario_id: str
    kind: str
    runs: int
    successes: int
    failures: tuple[str, ...]  # one note per failed run, capped

    @property
    def success_rate(self) -> Fraction:
        return Fraction(self.successes, self.runs)

    @property
    def percent(self) -> str:
        return f"{float(self.success_rate) * 100:.1f}%"


class HarnessReport(NamedTuple):
    outcomes: tuple[ScenarioOutcome, ...]
    runs: int
    fault_rate: float
    seed: int | None

    @property
    def all_perfect(self) -> bool:
        return all(o.successes == o.runs for o in self.outcomes)


def render_harness_report(report: HarnessReport) -> str:
    lines = []
    for outcome in report.outcomes:
        lines.append(
            f"{outcome.scenario_id} ({outcome.kind}): "
            f"{outcome.successes}/{outcome.runs} ({outcome.percent})"
        )
    return "\n".join(lines) + "\n"


def _required(obj: dict, key: str, scenario_id: str):
    if key not in obj:
        raise ConfigurationError(f"scenario '{scenario_id}' is missing '{key}'")
    return obj[key]


def _path(base: Path, obj: dict, key: str, scenario_id: str) -> Path:
    value = _required(obj, key, scenario_id)
    if not isinstance(value, str):
        raise ConfigurationError(f"scenario '{scenario_id}' {key} must be a path string")
    return base / value


def parse_manifest(path: str | Path) -> list[Scenario]:
    path = Path(path)
    raw = load_json(read_text(path, "manifest", f"manifest '{path}' does not exist"),
                    ConfigurationError, f"manifest '{path}'")
    if not isinstance(raw, dict) or not isinstance(raw.get("scenarios"), list):
        raise ConfigurationError(f"manifest '{path}' must hold a scenario list")
    base = path.parent
    scenarios: list[Scenario] = []
    seen: set[str] = set()
    for obj in raw["scenarios"]:
        if not isinstance(obj, dict):
            raise ConfigurationError("every scenario must be an object")
        scenario_id = obj.get("id", "(unnamed)")
        if not isinstance(scenario_id, str) or not scenario_id:
            raise ConfigurationError(
                f"scenario id {canonical_json(scenario_id)} must be a non-empty string")
        if scenario_id in seen:
            raise ConfigurationError(f"duplicate scenario id '{scenario_id}'")
        seen.add(scenario_id)
        kind = _required(obj, "kind", scenario_id)
        if kind not in KINDS:
            raise ConfigurationError(
                f"scenario '{scenario_id}' has unknown kind '{kind}'")
        expected_accepted: tuple[str, ...] = ()
        expected_verdicts: tuple[tuple[str, str], ...] = ()
        rules_path: Path | None = None
        if kind == "mapping":
            expected = _required(obj, "expected_accepted", scenario_id)
            if not isinstance(expected, list) or not all(
                    isinstance(e, str) for e in expected):
                raise ConfigurationError(
                    f"scenario '{scenario_id}' expected_accepted must be a "
                    "list of catalog keys")
            expected_accepted = tuple(expected)
        else:
            rules_path = _path(base, obj, "rules", scenario_id)
            verdicts = _required(obj, "expected_verdicts", scenario_id)
            if not isinstance(verdicts, dict) or not verdicts or not all(
                    isinstance(k, str) and v in (VERDICT_PASS, VERDICT_VIOLATED)
                    for k, v in verdicts.items()):
                raise ConfigurationError(
                    f"scenario '{scenario_id}' expected_verdicts must map "
                    "rule names to pass/violated")
            expected_verdicts = tuple(sorted(verdicts.items()))
        scenarios.append(Scenario(
            scenario_id=scenario_id,
            kind=kind,
            code_path=_path(base, obj, "code", scenario_id),
            vss_path=_path(base, obj, "vss", scenario_id),
            can_path=_path(base, obj, "can", scenario_id),
            replay_path=_path(base, obj, "replay", scenario_id),
            rules_path=rules_path,
            expected_accepted=expected_accepted,
            expected_verdicts=expected_verdicts,
        ))
    if not scenarios:
        raise ConfigurationError(f"manifest '{path}' lists no scenarios")
    return scenarios


def _score(scenario: Scenario, code: str, catalogs, index, gateway, ruleset,
           config: PipelineConfig) -> tuple[set[str] | None, str | None]:
    """Replay a scenario once. Returns (accepted keys, None) for a mapping
    scenario and (None, failure note or None) for a chain scenario."""
    report = extract_grounded(code, *catalogs, index, gateway, config)
    if scenario.kind == "mapping":
        return {a.resolved_key for a in report.accepted}, None
    _diagram, document = generate_chain(code, "", report.accepted, gateway)
    verdicts = {r.rule.name: r.verdict for r in check(document, ruleset).results}
    for name, expected in scenario.expected_verdicts:
        if name not in verdicts:
            return None, f"rule '{name}' not present in the report"
        if verdicts[name] != expected:
            return None, f"rule '{name}' was {verdicts[name]}, expected {expected}"
    return None, None


def _mapping_note(expected_keys: tuple[str, ...], accepted: set[str]) -> str | None:
    expected = set(expected_keys)
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


def run_eval_harness(manifest_path: str | Path, runs: int = 10,
                     fault_rate: float = 0.0, seed: int | None = None) -> HarnessReport:
    """Score every scenario over ``runs`` runs against expectations.

    Replay is deterministic, so each scenario is replayed once and each
    catalog pair is loaded and indexed once (a call that raises caches
    nothing). An error from the replayed run fails every run with the same
    note; input files that cannot be loaded raise.
    """
    if runs < 1:
        raise ConfigurationError(f"runs must be at least 1, got {runs}")
    if not 0.0 <= fault_rate <= 1.0:
        raise ConfigurationError(f"fault rate must be within [0, 1], got {fault_rate}")
    config = PipelineConfig()
    scenarios = parse_manifest(manifest_path)
    rng = random.Random(seed)
    outcomes: list[ScenarioOutcome] = []
    load_pair = functools.cache(load_catalogs)
    index_of = functools.cache(lambda vss, can: catalog_index(*load_pair(vss, can)))
    for scenario in scenarios:
        code = read_text(scenario.code_path, "code")
        pair = (scenario.vss_path, scenario.can_path)
        catalogs = load_pair(*pair)
        store = ReplayStore.load(scenario.replay_path)
        gateway = LlmGateway(mode="replay", store=store)
        ruleset = (parse_rules(read_text(scenario.rules_path, "rules"))
                   if scenario.rules_path is not None else None)
        try:
            accepted, note = _score(scenario, code, catalogs, index_of(*pair), gateway,
                                    ruleset, config)
        except SdvGuardError as exc:
            accepted, note = None, f"{type(exc).__name__}: {exc}"
        successes = 0
        failures: list[str] = []
        for _run_index in range(runs):
            if accepted is not None:
                kept = set(accepted)
                if fault_rate > 0:
                    for key in scenario.expected_accepted:
                        if rng.random() < fault_rate:
                            kept.discard(key)
                note = _mapping_note(scenario.expected_accepted, kept)
            if note is None:
                successes += 1
            elif len(failures) < 5:
                failures.append(note)
        outcomes.append(ScenarioOutcome(
            scenario_id=scenario.scenario_id,
            kind=scenario.kind,
            runs=runs,
            successes=successes,
            failures=tuple(failures),
        ))
    return HarnessReport(
        outcomes=tuple(outcomes), runs=runs, fault_rate=fault_rate, seed=seed,
    )
