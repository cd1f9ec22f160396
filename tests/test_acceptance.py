"""End-to-end acceptance checks, one criterion per test.

Run ``pytest tests/test_acceptance.py -v -s`` to get one verdict line per
criterion. Each check computes its expectation independently of the code
under test — hand-applied ranking formulas, brute-force catalog scans,
counted paths — so a regression cannot hide behind its own output.
"""

import json
import math
import random
import time

import pytest

from sdv_guard.catalog import CatalogEntry
from sdv_guard.eventchain import enumerate_paths, parse_activity_diagram, to_chain_document
from sdv_guard.pipeline import (
    PipelineConfig,
    run_eval_harness,
    run_safety_pipeline_files,
)
from sdv_guard.pipeline.stages import catalog_index, ground_code, run_extraction
from sdv_guard.retrieval import build_index, chunk_entries, retrieve_top_k
from sdv_guard.safety_rules import check, parse_rules
from sdv_guard.topology import (
    VERDICT_FAIL,
    VERDICT_PASS,
    default_metamodel,
    eval_constraints,
    import_class_diagram,
    parse_constraints,
)
from sdv_guard.util import token_estimate

from conftest import events_of, linear_chain, replay_gateway, scripted_gateway


def _verdict(number: int, problems: list, summary: str) -> None:
    status = "PASS" if not problems else "FAIL"
    print(f"criterion {number}: {status} - {summary}")
    assert not problems, f"criterion {number}: " + "; ".join(problems[:5])


# ---------------------------------------------------------------------------
# criterion 1: the recorded scenarios reproduce their verdicts, fast


def test_criterion_1_recorded_scenarios(fixtures_dir, tmp_path):
    problems = []
    worst = 0.0

    def _run(name, rules, store, out, **kwargs):
        nonlocal worst
        started = time.perf_counter()
        result = run_safety_pipeline_files(
            fixtures_dir / "code" / f"{name}.py",
            fixtures_dir / "catalogs" / "vss.json",
            fixtures_dir / "catalogs" / "can.json",
            fixtures_dir / "rules" / rules,
            replay_gateway(store),
            kwargs.pop("config", PipelineConfig()),
            out_dir=tmp_path / out, **kwargs,
        )
        elapsed = time.perf_counter() - started
        worst = max(worst, elapsed)
        if elapsed >= 1.0:
            problems.append(f"{out} took {elapsed:.2f}s, expected under 1s")
        return result

    for name, rule_name in (("s1", "rule1"), ("s2", "rule2"), ("s3", "rule3")):
        result = _run(name, f"rules-{name}.txt", name, name)
        if result.verdict != "violated":
            problems.append(f"{name} verdict {result.verdict}, expected violated")
        flagged = [r.rule.name for r in result.final_report.violated]
        if flagged != [rule_name]:
            problems.append(f"{name} flagged {flagged}, expected [{rule_name!r}]")

    corrected = _run("s3", "rules-s3.txt", "s3_corrective", "s3c",
                     auto_correct=True, config=PipelineConfig(max_iterations=2))
    if corrected.verdict != "pass":
        problems.append(f"corrective verdict {corrected.verdict}, expected pass")
    if len(corrected.iterations) != 2:
        problems.append(f"corrective took {len(corrected.iterations)} iterations")
    elif corrected.iterations[0].corrected_code is None:
        problems.append("first corrective iteration produced no corrected code")

    _verdict(1, problems,
             "three violations found, one corrected to pass, "
             f"worst scenario {worst:.2f}s")


# ---------------------------------------------------------------------------
# criterion 2: ordering semantics hold on ten thousand random sequences


def test_criterion_2_ordering_identities():
    alphabet = "abcdef"
    # per ordered event pair: x before y, its swapped twin, x before x, and
    # the negated forbid twin of x before y, each its own rule
    rulesets = {
        (x, y): parse_rules(
            f"before: require {x} before {y}\n\nafter: require {y} after {x}\n\n"
            f"self: require {x} before {x}\n\nforbid: forbid not ({x} before {y})\n")
        for x in alphabet for y in alphabet
    }

    rng = random.Random(91046)
    problems = []
    sequences = 10_000
    for i in range(sequences):
        events = [rng.choice(alphabet) for _ in range(rng.randint(0, 8))]
        x, y = rng.choice(alphabet), rng.choice(alphabet)
        report = check(linear_chain(events), rulesets[(x, y)])
        passes = {r.rule.name: r.verdict == "pass" for r in report.results}

        # 1. "x before y" and "y after x" are the same statement
        if passes["before"] != passes["after"]:
            problems.append(f"duality broke on {events} with ({x}, {y})")
        # 2. an ordering over an absent right event holds vacuously
        if y not in events and not passes["before"]:
            problems.append(f"vacuity broke on {events} with ({x}, {y})")
        # 3. nothing strictly precedes its own first occurrence
        if passes["self"] != (x not in events):
            problems.append(f"self-ordering broke on {events} with {x}")
        # 4. requiring an expression equals forbidding its negation
        if passes["before"] != passes["forbid"]:
            problems.append(f"mode duality broke on {events} with ({x}, {y})")
        if problems and len(problems) >= 5:
            break

    _verdict(2, problems,
             f"4 identities over {sequences} random sequences, "
             "zero counterexamples")


# ---------------------------------------------------------------------------
# criterion 3: path enumeration isolates the one dangerous branch combination


TRIPLE_DECISION = """\
@startuml
start
:Scan;
if (hazard one?) then (yes)
  :Risk 1;
else (no)
  :Safe 1;
endif
if (hazard two?) then (yes)
  :Risk 2;
else (no)
  :Safe 2;
endif
if (hazard three?) then (yes)
  :Risk 3;
else (no)
  :Safe 3;
endif
stop
@enduml
"""

# "e before e" fails exactly when e occurs, so each negated self-ordering
# reads "this risk happened"; the rule bans all three happening on one path.
TRIPLE_RISK_RULE = (
    "triple-risk: require not (not (risk-1 before risk-1)"
    " and not (risk-2 before risk-2) and not (risk-3 before risk-3))\n"
)


def test_criterion_3_exhaustive_paths():
    problems = []
    document = to_chain_document(parse_activity_diagram(TRIPLE_DECISION))
    paths = enumerate_paths(document)
    if len(paths) != 8:
        problems.append(f"enumerated {len(paths)} paths, expected 8")
    all_yes = [p for p in paths
               if {"risk-1", "risk-2", "risk-3"} <= set(events_of(p))]
    if len(all_yes) != 1:
        problems.append(f"{len(all_yes)} paths carry all three risks, expected 1")

    (result,) = check(document, parse_rules(TRIPLE_RISK_RULE)).results
    if result.verdict != "violated":
        problems.append(f"verdict {result.verdict}, expected violated")
    if len(result.witnesses) != 1:
        problems.append(
            f"{len(result.witnesses)} of 8 paths flagged, expected exactly 1")
    elif all_yes and result.witnesses[0].sequence != all_yes[0]:
        problems.append("the flagged path is not the all-yes path")

    _verdict(3, problems,
             "8 paths enumerated, exactly the all-risks path violates")


# ---------------------------------------------------------------------------
# criterion 4: constraint verdicts at the documented boundaries


def _steer_message(payload: str, target_cls: str = "SteeringActuator"):
    return import_class_diagram(
        "@startuml\n"
        "object zone : ZoneECU\n"
        f"object tgt : {target_cls}\n"
        "object bus : CANFD\n"
        "object m : Message\n"
        f'm : payloadValue = "{payload}"\n'
        "m : standard = RAW\n"
        "m --> zone : source\n"
        "m --> tgt : target\n"
        "m --> bus : network\n"
        "@enduml\n"
    )


def _hpc_zone_message(network_cls: str, standard: str):
    return import_class_diagram(
        "@startuml\n"
        "object hpc : HighPerformanceComputer\n"
        "object zone : ZoneECU\n"
        f"object net : {network_cls}\n"
        "object m : Message\n"
        f"m : standard = {standard}\n"
        "m --> hpc : source\n"
        "m --> zone : target\n"
        "m --> net : network\n"
        "@enduml\n"
    )


def _speed_message(path: str, payload: str):
    return import_class_diagram(
        "@startuml\n"
        "object zone : ZoneECU\n"
        "object act : GenericActuator\n"
        "object bus : CANFD\n"
        "object v : VSSMessage\n"
        f'v : vssPath = "{path}"\n'
        f'v : payloadValue = "{payload}"\n'
        "v : standard = VSS-CAN\n"
        "v : category = actuator-command\n"
        "v --> zone : source\n"
        "v --> act : target\n"
        "v --> bus : network\n"
        "@enduml\n"
    )


def test_criterion_4_constraint_boundaries(fixtures_dir):
    metamodel = default_metamodel()
    constraints = parse_constraints(
        (fixtures_dir / "topology" / "security.ocl").read_text(), metamodel)
    cases = [
        ("SteeringCommandWithinLimits", "m", _steer_message("15.0"), VERDICT_PASS),
        ("SteeringCommandWithinLimits", "m", _steer_message("-15.0"), VERDICT_PASS),
        ("SteeringCommandWithinLimits", "m", _steer_message("16.0"), VERDICT_FAIL),
        # non-steering target: the angle clause never applies
        ("SteeringCommandWithinLimits", "m",
         _steer_message("not-a-number", target_cls="GenericActuator"), VERDICT_PASS),
        ("HPCtoZoneEthernetIEEE1722", "m",
         _hpc_zone_message("CANFD", "IEEE-1722"), VERDICT_FAIL),
        ("HPCtoZoneEthernetIEEE1722", "m",
         _hpc_zone_message("Ethernet", "IEEE-1722"), VERDICT_PASS),
        ("TargetSpeedWithinSafetyLimit", "v",
         _speed_message("Vehicle.Speed.Target", "30.0"), VERDICT_PASS),
        ("TargetSpeedWithinSafetyLimit", "v",
         _speed_message("Vehicle.Speed.Target", "30.01"), VERDICT_FAIL),
    ]
    problems = []
    for index, (constraint, object_id, model, expected) in enumerate(cases):
        report = eval_constraints(model, constraints, metamodel)
        actual = next(r.verdict for r in report.rows
                      if r.constraint == constraint and r.object_id == object_id)
        if actual != expected:
            problems.append(
                f"case {index}: {constraint} gave {actual}, expected {expected}")
    _verdict(4, problems, f"{len(cases)} boundary verdicts as documented")


# ---------------------------------------------------------------------------
# criterion 5: validation agrees with a brute-force catalog scan


def _vss_leaves(tree, prefix=()):
    for name, node in tree.items():
        if not isinstance(node, dict):
            continue
        path = prefix + (name,)
        if node.get("type") == "branch":
            yield from _vss_leaves(node.get("children", {}), path)
        else:
            yield ".".join(path), node


def _oracle_decide(name, protocol, value, vss_doc, can_doc):
    """Accept/reject an entry straight off the raw catalog files."""
    if protocol == "VSS":
        leaves = dict(_vss_leaves(vss_doc))
        if name not in leaves:
            return "unknown-name"
        leaf = leaves[name]
        if value is None:
            return None
        if leaf.get("datatype") == "boolean":
            return None if value in ("true", "false") else "value-out-of-range"
        number = float(value)
        if "min" in leaf and number < leaf["min"]:
            return "value-out-of-range"
        if "max" in leaf and number > leaf["max"]:
            return "value-out-of-range"
        return None
    messages = {m["name"]: m for m in can_doc}
    if name not in messages:
        return "unknown-name"
    if value is None:
        return None
    bounds = [(s["min"], s["max"]) for s in messages[name].get("signals", [])
              if "min" in s and "max" in s]
    if bounds:
        low = min(b[0] for b in bounds)
        high = max(b[1] for b in bounds)
        if not low <= float(value) <= high:
            return "value-out-of-range"
    return None


CRITERION_5_ENTRIES = [
    {"name": "Vehicle.Speed.Target", "type": "float", "protocol": "VSS",
     "value": 25.0},
    {"name": "Vehicle.ADAS.Brake", "type": "boolean", "protocol": "VSS",
     "value": True},
    {"name": "Vehicle.ADAS.ObstacleDetection.Camera", "type": "boolean",
     "protocol": "VSS"},
    {"name": "BrakeCmd", "type": "uint16", "protocol": "CAN", "value": 50},
    {"name": "SteerCmd", "type": "int16", "protocol": "CAN", "value": -10},
    {"name": "Vehicle.Imaginary.Signal", "type": "float", "protocol": "VSS",
     "value": 1.0},
    {"name": "GhostCmd", "type": "uint8", "protocol": "CAN", "value": 1},
    {"name": "Vehicle.ADAS.SteeringAngle", "type": "float", "protocol": "VSS",
     "value": 40.0},
]


def test_criterion_5_extraction_validation(fixtures_dir, signal_catalog,
                                           message_catalog):
    code = (
        "# exercises every entry the completion claims\n"
        + "\n".join(f"# {e['name']}" for e in CRITERION_5_ENTRIES) + "\n"
    )
    completion = "```json\n" + json.dumps(CRITERION_5_ENTRIES) + "\n```\n"
    chunks = ground_code(code, catalog_index(signal_catalog, message_catalog),
                         top_k=20, token_budget=4096)
    gateway = scripted_gateway([completion] * len(chunks))
    report = run_extraction(code, chunks, gateway, signal_catalog,
                            message_catalog, max_retries=0)

    vss_doc = json.loads((fixtures_dir / "catalogs" / "vss.json").read_text())
    can_doc = json.loads((fixtures_dir / "catalogs" / "can.json").read_text())
    oracle_accepted = set()
    oracle_rejected = set()
    for entry in CRITERION_5_ENTRIES:
        raw = entry.get("value")
        if isinstance(raw, bool):
            value = "true" if raw else "false"
        elif raw is None:
            value = None
        else:
            value = repr(raw)
        reason = _oracle_decide(entry["name"], entry["protocol"], value,
                                vss_doc, can_doc)
        if reason is None:
            oracle_accepted.add(entry["name"])
        else:
            oracle_rejected.add((entry["name"], reason))

    problems = []
    accepted = {a.entry.name for a in report.accepted}
    rejected = {(r.entry.name, r.reason) for r in report.rejected}
    if len(report.accepted) != 5 or len(report.rejected) != 3:
        problems.append(
            f"got {len(report.accepted)} accepted / {len(report.rejected)} "
            "rejected, expected 5 / 3")
    if accepted != oracle_accepted:
        problems.append(f"accepted {sorted(accepted)} != oracle "
                        f"{sorted(oracle_accepted)}")
    if rejected != oracle_rejected:
        problems.append(f"rejected {sorted(rejected)} != oracle "
                        f"{sorted(oracle_rejected)}")
    _verdict(5, problems,
             "5 accepted + 3 rejected, matching the brute-force catalog scan")


# ---------------------------------------------------------------------------
# criterion 6: ranking matches the formula; chunking loses nothing


def test_criterion_6_retrieval():
    problems = []
    docs = (
        CatalogEntry(key="e1", protocol="VSS", text="ADAS brake command actuator"),
        CatalogEntry(key="e2", protocol="VSS", text="cabin light"),
        CatalogEntry(key="e3", protocol="VSS", text="pedestrian detection camera"),
    )
    index = build_index(docs)
    # hand-applied formula: each query term hits one document, df = 1,
    # idf = ln(1 + 2.5/1.5); avgdl = 3; norm = k1*(1 - b + b*dl/avgdl)
    idf = math.log(1 + 2.5 / 1.5)
    expected = {
        "e1": idf * 2.2 / (1 + 1.2 * (0.25 + 0.75 * 4 / 3)),
        "e2": 0.0,
        "e3": idf * 2.2 / (1 + 1.2 * (0.25 + 0.75 * 3 / 3)),
    }
    shortlist = retrieve_top_k(index, "pedestrian brake", k=3)
    for ranked in shortlist:
        if abs(ranked.stage1_score - expected[ranked.key]) > 1e-9:
            problems.append(
                f"{ranked.key} scored {ranked.stage1_score!r}, expected "
                f"{expected[ranked.key]!r} within 1e-9")

    baseline = [(r.key, r.stage1_score, r.stage2_score) for r in shortlist]
    for attempt in range(10):
        again = retrieve_top_k(index, "pedestrian brake", k=3)
        if [(r.key, r.stage1_score, r.stage2_score) for r in again] \
                != baseline:
            problems.append(f"ranking changed on repeat {attempt + 1}")
            break

    entries = tuple(
        CatalogEntry(key=f"k{i:03d}", protocol="VSS",
                     text=f"entry number {i} " + "x" * (i % 41))
        for i in range(200)
    )
    big = retrieve_top_k(build_index(entries), "entry number", k=200)
    budget = 150
    chunks = chunk_entries(big, token_budget=budget)
    flattened = [e.key for chunk in chunks for e in chunk.entries]
    if flattened != [r.key for r in big]:
        problems.append("chunking reordered or dropped entries")
    for chunk in chunks:
        if chunk.token_estimate > budget:
            problems.append(f"chunk estimate {chunk.token_estimate} over {budget}")
        if chunk.token_estimate != sum(token_estimate(e.text)
                                       for e in chunk.entries):
            problems.append("chunk estimate disagrees with its entries")

    _verdict(6, problems,
             "scores match the formula to 1e-9; 10 identical reruns; "
             f"200 entries conserved across {len(chunks)} chunks")


# ---------------------------------------------------------------------------
# criterion 7: replaying a run reproduces every artifact byte for byte


def test_criterion_7_artifact_determinism(fixtures_dir, tmp_path):
    problems = []
    for out in ("first", "second"):
        run_safety_pipeline_files(
            fixtures_dir / "code" / "s2.py",
            fixtures_dir / "catalogs" / "vss.json",
            fixtures_dir / "catalogs" / "can.json",
            fixtures_dir / "rules" / "rules-s2.txt",
            replay_gateway("s2"), PipelineConfig(), out_dir=tmp_path / out,
        )
    first = sorted(p.name for p in (tmp_path / "first").iterdir())
    second = sorted(p.name for p in (tmp_path / "second").iterdir())
    if first != second:
        problems.append(f"file sets differ: {first} vs {second}")
    compared = 0
    for name in first:
        if name == "run.json":  # only here do wall-clock timestamps appear
            continue
        a = (tmp_path / "first" / name).read_bytes()
        b = (tmp_path / "second" / name).read_bytes()
        if a != b:
            problems.append(f"{name} differs between identical replay runs")
        compared += 1
    # the run records must still agree on every artifact digest
    digests_first = json.loads((tmp_path / "first" / "run.json").read_text())
    digests_second = json.loads((tmp_path / "second" / "run.json").read_text())
    if digests_first["artifacts"] != digests_second["artifacts"]:
        problems.append("run records disagree on artifact digests")
    _verdict(7, problems,
             f"{compared} artifacts byte-identical across two replay runs")


# ---------------------------------------------------------------------------
# criterion 8: the harness scores every scenario, and faults hit at their rate


def test_criterion_8_harness(fixtures_dir):
    problems = []
    started = time.perf_counter()

    clean = run_eval_harness(fixtures_dir / "harness" / "manifest.json", runs=10)
    if not clean.all_perfect:
        for outcome in clean.outcomes:
            if outcome.successes != outcome.runs:
                problems.append(
                    f"{outcome.scenario_id} scored {outcome.percent}: "
                    + "; ".join(outcome.failures[:2]))
    if len(clean.outcomes) != 7:
        problems.append(f"{len(clean.outcomes)} scenarios ran, expected 7")

    # the fault manifest has one expected entry, so with p = 0.3 each run
    # survives with probability 0.7; 200 seeded runs must land near it
    faulty = run_eval_harness(fixtures_dir / "harness" / "manifest-fault.json",
                              runs=200, fault_rate=0.3, seed=1)
    (outcome,) = faulty.outcomes
    rate = float(outcome.success_rate)
    if not 0.64 <= rate <= 0.76:
        problems.append(f"fault-injected rate {rate:.3f} outside [0.64, 0.76]")

    elapsed = time.perf_counter() - started
    if elapsed >= 30.0:
        problems.append(f"harness criterion took {elapsed:.1f}s, expected under 30s")
    _verdict(8, problems,
             f"7 scenarios at 100% over 10 runs; fault rate 0.3 yielded "
             f"{rate:.3f} success over 200 seeded runs in {elapsed:.1f}s")
