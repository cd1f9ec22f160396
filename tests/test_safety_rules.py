"""Temporal rule parsing and evaluation over event-chain paths."""

import json
import statistics
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdv_guard import safety_rules
from sdv_guard.errors import RuleParseError, UnsupportedStructureError
from sdv_guard.eventchain import ChainDocument, parse_activity_diagram, to_chain_document
from sdv_guard.pipeline.cli import main
from sdv_guard.util import dump_json
from sdv_guard.safety_rules import (
    MAX_MONITOR_PAIRS,
    MAX_NESTING,
    MAX_RENDERED_PATH,
    MAX_WITNESS_STEPS,
    MAX_WITNESSES,
    AndExpr,
    NotExpr,
    OrExpr,
    RuleAtom,
    SafetyRule,
    build_correction_prompt,
    check,
    parse_rules,
    render_report,
    suggest_correction,
)

from conftest import FIXTURES, atom_holds, events_of, linear_chain, scripted_gateway


def _fixture_doc(fixtures_dir, name: str) -> ChainDocument:
    text = (fixtures_dir / "chains" / f"{name}.puml").read_text()
    return to_chain_document(parse_activity_diagram(text))


def _fixture_rules(fixtures_dir, name: str):
    return parse_rules((fixtures_dir / "rules" / f"{name}.txt").read_text())


# ---------------------------------------------------------------------------
# parsing


def test_parse_single_rule_file(fixtures_dir):
    rules = _fixture_rules(fixtures_dir, "rules-s1")
    assert len(rules) == 1
    (rule,) = rules
    assert rule.name == "rule1"
    assert rule.mode == "require"
    assert rule.aliases == ()
    assert rule.expr == AndExpr((
        RuleAtom("accelerate", "before", "pedestrian-camera-detected"),
        RuleAtom("accelerate", "before", "pedestrian-lidar-detected"),
    ))


def test_parse_multi_line_rule_with_aliases(fixtures_dir):
    rules = _fixture_rules(fixtures_dir, "rules-s2")
    (rule,) = rules
    assert rule.name == "rule2"
    # the two physical rule lines join into one expression
    assert isinstance(rule.expr, OrExpr)
    assert len(rule.expr.children) == 2
    assert all(isinstance(c, AndExpr) for c in rule.expr.children)
    assert rule.alias_patterns("camera-pedestrian-detected") \
        == ("pedestrian-camera-detected",)
    assert rule.alias_patterns("lidar-pedestrian-detected") \
        == ("pedestrian-lidar-detected",)
    assert rule.alias_patterns("brake") == ()


def test_parse_combined_rule_file(fixtures_dir):
    rules = _fixture_rules(fixtures_dir, "rules-all")
    assert [r.name for r in rules] == ["rule1", "rule2", "rule3"]
    # aliases are per stanza: rule1 has none although rule2 defines two
    assert rules[0].aliases == ()
    assert len(rules[1].aliases) == 2
    assert len(rules[2].aliases) == 1


def test_multi_word_events_join_with_hyphens(fixtures_dir):
    rules = _fixture_rules(fixtures_dir, "rules-s3")
    (rule,) = rules
    # "camera-pedestrian detected" in the file names one event
    assert rule.expr == RuleAtom("brake", "after", "camera-pedestrian-detected")


def test_parse_modes_and_precedence():
    rules = parse_rules(
        "r1: forbid a before b\n"
        "\n"
        "r2: a before b or c before d and not e before f\n"
    )
    assert rules[0].mode == "forbid"
    r2 = rules[1].expr
    # 'and' binds tighter than 'or'; 'not' tighter than 'and'
    assert isinstance(r2, OrExpr)
    right = r2.children[1]
    assert isinstance(right, AndExpr)
    assert right.children[0] == RuleAtom("c", "before", "d")


def test_parentheses_override_precedence():
    expr = parse_rules("r: (a before b or c before d) and e after f\n")[0].expr
    assert isinstance(expr, AndExpr)
    assert isinstance(expr.children[0], OrExpr)


@pytest.mark.parametrize("text, message", [
    ("alias x = y\n", "alias lines but no rule"),
    ("just an expression a before b\n", "missing ':'"),
    ("bad name!: a before b\n", "invalid rule name"),
    ("r: a before b\n\nr: c after d\n", "duplicate rule name"),
    ("alias x = y\nalias x = z\nr: a before b\n", "duplicate alias"),
    ("alias x y\nr: a before b\n", "missing '='"),
    ("alias x =\nr: a before b\n", "lists no patterns"),
    ("alias = y\nr: a before b\n", "names no event"),
    ("r: a % b\n", "unexpected character"),
    ("r: a before\n", "expected an event name"),
    # non-keyword words join the event, so the stray operator must be a keyword
    ("r: a and b before c\n", "expected 'before' or 'after', got 'and'"),
    ("r: (a before b\n", "unexpected end of rule"),
    ("r: a before b )\n", "unexpected '\\)' after expression"),
    ("r: before b\n", "expected an event name"),
])
def test_parse_errors(text, message):
    with pytest.raises(RuleParseError, match=message):
        parse_rules(text)


def test_parse_error_carries_position():
    with pytest.raises(RuleParseError) as err:
        parse_rules("r: a ? b\n")
    assert err.value.position == 2  # offset inside the expression text


@pytest.mark.parametrize("opener", ["not ", "("])
def test_nesting_limit(opener):
    def rule(levels):
        closers = ")" * levels if opener == "(" else ""
        return f"r: {opener * levels}a before b{closers}\n"

    parse_rules(rule(MAX_NESTING))
    with pytest.raises(RuleParseError, match="nests deeper than") as err:
        parse_rules(rule(MAX_NESTING + 1))
    assert err.value.position == len(opener) * MAX_NESTING
    with pytest.raises(RuleParseError, match="nests deeper than"):
        parse_rules(rule(3000))


# ---------------------------------------------------------------------------
# atom semantics


BEFORE = RuleAtom("a", "before", "b")
AFTER = RuleAtom("a", "after", "b")


@pytest.mark.parametrize("events, expected", [
    (("a", "b"), True),
    (("b", "a"), False),
    (("a",), True),          # b absent: vacuously true
    ((), True),
    (("a", "b", "b"), True),
    (("b", "a", "b"), False),  # the first b has no earlier a
    (("x", "a", "x", "b"), True),
])
def test_before_semantics(events, expected):
    assert atom_holds(events, BEFORE) is expected


@pytest.mark.parametrize("events, expected", [
    (("b", "a"), True),
    (("a", "b"), False),
    (("b",), True),          # a absent: vacuously true
    ((), True),
    (("b", "a", "a"), True),
    (("a", "b", "a"), False),  # the first a has no earlier b
])
def test_after_semantics(events, expected):
    assert atom_holds(events, AFTER) is expected


def test_self_reference_is_false_exactly_when_present():
    atom = RuleAtom("a", "before", "a")
    assert atom_holds(("x", "y"), atom) is True
    assert atom_holds(("x", "a"), atom) is False


@settings(max_examples=300, deadline=None)
@given(events=st.lists(st.sampled_from("abcdef"), max_size=12),
       a=st.sampled_from("abcdef"), b=st.sampled_from("abcdef"))
def test_atom_identities(events, a, b):
    before = atom_holds(events, RuleAtom(a, "before", b))
    after_swapped = atom_holds(events, RuleAtom(b, "after", a))
    assert before == after_swapped  # after is before with the operands swapped
    if b not in events:
        assert before is True  # vacuous
    if a == b:
        assert before == (a not in events)


@settings(max_examples=100, deadline=None)
@given(events=st.lists(st.sampled_from("abcd"), max_size=10))
def test_require_forbid_duality(events):
    require = parse_rules("r: require a before b\n")
    forbid_dual = parse_rules("r: forbid not (a before b)\n")
    document = linear_chain(events)
    assert check(document, require).overall == check(document, forbid_dual).overall


# ---------------------------------------------------------------------------
# fixture scenarios


def test_acceleration_rule_flags_the_detection_branch(fixtures_dir):
    document = _fixture_doc(fixtures_dir, "s1")
    report = check(document, _fixture_rules(fixtures_dir, "rules-s1"))
    assert report.overall == "violated"
    (result,) = report.results
    (witness,) = result.witnesses  # the cruise branch passes vacuously
    assert events_of(witness.sequence) \
        == ("camera-sense", "pedestrian-camera-detected", "accelerate")
    assert dict(witness.atom_values) == {
        "accelerate before pedestrian-camera-detected": False,
        "accelerate before pedestrian-lidar-detected": True,
    }


def test_braking_rule_fails_without_a_sensing_step(fixtures_dir):
    document = _fixture_doc(fixtures_dir, "s2")
    report = check(document, _fixture_rules(fixtures_dir, "rules-s2"))
    assert report.overall == "violated"
    (result,) = report.results
    (witness,) = result.witnesses
    assert events_of(witness.sequence) == ("pedestrian-lidar-detected", "brake")
    # aliases bridge the rule vocabulary to the chain's event names
    assert dict(witness.atom_values) == {
        "brake after camera-pedestrian-detected": False,
        "brake after lidar-pedestrian-detected": True,
        "camera-sense before camera-pedestrian-detected": True,
        "lidar-sense before lidar-pedestrian-detected": False,
    }


def test_early_brake_fails_and_correction_passes(fixtures_dir):
    rules = _fixture_rules(fixtures_dir, "rules-s3")
    assert check(_fixture_doc(fixtures_dir, "s3"), rules).overall == "violated"
    assert check(_fixture_doc(fixtures_dir, "s3-corrected"), rules).overall == "pass"


def test_combined_rules_bind_per_scenario(fixtures_dir):
    # the corrected third scenario still violates the acceleration rule, which
    # is why each scenario carries its own rule file
    document = _fixture_doc(fixtures_dir, "s3-corrected")
    report = check(document, _fixture_rules(fixtures_dir, "rules-all"))
    verdicts = {r.rule.name: r.verdict for r in report.results}
    assert verdicts == {"rule1": "violated", "rule2": "pass", "rule3": "pass"}


def test_guards_are_not_events(fixtures_dir):
    # the s2 decision guard mentions the lidar flag, but only action labels
    # can satisfy a rule event
    document = _fixture_doc(fixtures_dir, "s2")
    (result,) = check(document, parse_rules("r: lidar-flag-set before brake\n")).results
    # brake occurs with no matching left event anywhere -> atom false
    assert result.verdict == "violated"


def test_alias_patterns_are_globs():
    rules = parse_rules(
        "alias detected = pedestrian-*-detected\n"
        "r: camera-sense before detected\n"
    )
    document = linear_chain(("camera-sense", "pedestrian-camera-detected"))
    assert check(document, rules).overall == "pass"
    flipped = linear_chain(("pedestrian-lidar-detected", "camera-sense"))
    assert check(flipped, rules).overall == "violated"


# ---------------------------------------------------------------------------
# reports and correction


def test_report_digest_matches_chain(fixtures_dir):
    from sdv_guard.eventchain import chain_digest

    document = _fixture_doc(fixtures_dir, "s3")
    report = check(document, _fixture_rules(fixtures_dir, "rules-s3"))
    assert report.chain_digest == chain_digest(document)


def test_render_report_layout(fixtures_dir):
    document = _fixture_doc(fixtures_dir, "s3")
    report = check(document, _fixture_rules(fixtures_dir, "rules-s3"))
    text = render_report(report)
    lines = text.splitlines()
    assert lines[0] == "overall: violated"
    assert lines[1] == f"chain: {report.chain_digest}"
    assert lines[2] == "rule rule3 [require]: violated"
    assert lines[3] == "  witness 1: camera-sense -> brake -> pedestrian-camera-detected"
    assert lines[4] == "    brake after camera-pedestrian-detected: false"
    assert text.endswith("\n")


def test_report_to_dict_round_trips_through_json(fixtures_dir):
    import json

    document = _fixture_doc(fixtures_dir, "s2")
    report = check(document, _fixture_rules(fixtures_dir, "rules-s2"))
    data = json.loads(json.dumps(report.to_dict()))
    assert data["overall"] == "violated"
    (rule,) = data["rules"]
    assert rule["name"] == "rule2"
    (witness,) = rule["witnesses"]
    assert [step["event"] for step in witness["path"]] \
        == ["pedestrian-lidar-detected", "brake"]
    assert witness["value"] is False


def test_suggest_correction_needs_a_violation(fixtures_dir):
    document = _fixture_doc(fixtures_dir, "s3-corrected")
    report = check(document, _fixture_rules(fixtures_dir, "rules-s3"))
    with pytest.raises(ValueError, match="at least one violation"):
        suggest_correction("code", report, scripted_gateway([]))


def test_suggest_correction_sends_report_and_code(fixtures_dir):
    document = _fixture_doc(fixtures_dir, "s3")
    report = check(document, _fixture_rules(fixtures_dir, "rules-s3"))
    prompts = []
    gateway = scripted_gateway(["fixed code"], record_prompts=prompts)
    assert suggest_correction("def f(): ...", report, gateway) == "fixed code\n"
    (prompt,) = prompts
    assert prompt == build_correction_prompt("def f(): ...", report)
    assert "def f(): ..." in prompt
    assert render_report(report) in prompt


@pytest.mark.parametrize("completion, code", [
    ("Fixed:\n```python\ndef f():\n    return 1\n```\nDone.", "def f():\n    return 1\n"),
    ("```python\na = 1\n```\n```python\nb = 2\n```\n", "a = 1\n"),
    ("  a = 1\n```\n", "a = 1\n"),
    ("a = 1\n\n\n", "a = 1\n"),
])
def test_suggest_correction_reads_the_first_fenced_block(fixtures_dir, completion, code):
    report = check(_fixture_doc(fixtures_dir, "s3"), _fixture_rules(fixtures_dir, "rules-s3"))
    assert suggest_correction("code", report, scripted_gateway([completion])) == code


# ---------------------------------------------------------------------------
# scale: checking never walks every path and never recurses


def _write_linear_chain(tmp_path, actions: int, brake_first: bool):
    labels = [f"Step {i}" for i in range(actions)]
    early, late = actions // 3, 2 * actions // 3
    labels[early], labels[late] = (
        ("Brake now", "Obstacle seen") if brake_first else ("Obstacle seen", "Brake now"))
    diagram = tmp_path / "chain.puml"
    diagram.write_text("@startuml\nstart\n" + "".join(f":{l};\n" for l in labels)
                       + "stop\n@enduml\n")
    rules = tmp_path / "rules.txt"
    rules.write_text("alias obstacle = obstacle-*\nr: brake-now after obstacle\n")
    return ["check-chain", "--chain", str(diagram), "--rules", str(rules)]


@pytest.mark.parametrize("actions", [1500, 20000])
@pytest.mark.parametrize("brake_first, verdict, code", [(False, "pass", 0),
                                                        (True, "violated", 1)])
def test_cli_checks_long_linear_chains(tmp_path, capsys, actions, brake_first, verdict, code):
    assert main(_write_linear_chain(tmp_path, actions, brake_first)) == code
    out = capsys.readouterr().out
    assert out.startswith(f"overall: {verdict}\n")
    assert out.count("  witness ") == (1 if brake_first else 0)


def test_long_witness_path_shows_only_the_rules_events(tmp_path, capsys):
    assert main(_write_linear_chain(tmp_path, 1500, brake_first=True)) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[3] == ("  witness 1: (500 other events) -> brake-now -> (499 other events)"
                        " -> obstacle-seen -> (499 other events)")
    assert lines[4] == "    brake-now after obstacle: false"


def test_witness_path_up_to_the_limit_is_shown_in_full(tmp_path, capsys):
    assert main(_write_linear_chain(tmp_path, MAX_RENDERED_PATH, brake_first=True)) == 1
    witness = capsys.readouterr().out.splitlines()[3]
    assert witness.count(" -> ") == MAX_RENDERED_PATH - 1
    assert "other events" not in witness


def _sequential_decisions(count: int, warn_arms: int) -> ChainDocument:
    """``count`` if/else blocks in a row, so 2^count paths. The yes-arms of
    the first ``warn_arms`` decisions raise a warning; braking comes last."""
    lines = ["@startuml", "start"]
    for i in range(count):
        yes = [f":Warn {i};"] if i < warn_arms else []
        lines += [f"if (c{i}) then (yes)", *yes, f":Task {i} yes;", "else (no)",
                  f":Task {i} no;", "endif"]
    lines += [":Brake;", "stop", "@enduml"]
    return to_chain_document(parse_activity_diagram("\n".join(lines) + "\n"))


def test_twenty_decisions_pass_without_walking_every_path():
    document = _sequential_decisions(20, warn_arms=20)
    rules = parse_rules("alias task = task-*-yes, task-*-no\nr: brake after task\n")
    report = check(document, rules)
    assert report.overall == "pass"
    assert report.results[0].witnesses == ()


def test_twenty_decisions_report_exactly_the_violating_paths():
    # a warning precedes braking unless every decision up to the 19th took
    # its no-arm; the 20th decision warns on neither arm, so two paths fail
    document = _sequential_decisions(20, warn_arms=19)
    report = check(document, parse_rules("alias warn = warn-*\nr: warn before brake\n"))
    (result,) = report.results
    assert result.verdict == "violated"
    prefix = [f"task-{i}-no" for i in range(19)]
    assert [list(events_of(w.sequence)) for w in result.witnesses] == [
        prefix + ["task-19-yes", "brake"],
        prefix + ["task-19-no", "brake"],
    ]
    for witness, written in zip(result.witnesses, report.to_dict()["rules"][0]["witnesses"]):
        assert [s["position"] for s in written["path"]] == list(range(21))
        assert witness.atom_values == (("warn before brake", False),)
        assert witness.expr_value is False


def test_twenty_four_decisions_list_the_first_witnesses_and_count_the_rest():
    # nothing warns, so all 2^24 paths fail; the first listed takes every yes-arm
    document = _sequential_decisions(24, warn_arms=0)
    started = time.perf_counter()
    report = check(document, parse_rules("r: warn before brake\n"))
    text = render_report(report)
    assert time.perf_counter() - started < 1.0
    (result,) = report.results
    assert result.verdict == "violated"
    assert len(result.witnesses) == MAX_WITNESSES
    assert result.unlisted == 2 ** 24 - MAX_WITNESSES
    assert events_of(result.witnesses[0].sequence) == (
        *(f"task-{i}-yes" for i in range(24)), "brake")
    assert text.endswith(f"    warn before brake: false\n  ({2 ** 24 - MAX_WITNESSES}"
                         " more violating paths)\n")
    assert text.count("more violating paths") == 1
    assert report.to_dict()["rules"][0]["unlisted_violating_paths"] == 2 ** 24 - MAX_WITNESSES


def _long_prefix_then_decisions(actions: int, decisions: int) -> ChainDocument:
    """``:go;``, ``actions`` plain actions, ``decisions`` sequential
    decisions with one action on each arm, then ``:stop now;``."""
    lines = ["@startuml", "start", ":go;", *(f":step {i};" for i in range(actions))]
    for i in range(decisions):
        lines += [f"if (c{i}) then (yes)", f":left {i};", "else (no)", f":right {i};", "endif"]
    lines += [":stop now;", "stop", "@enduml"]
    return to_chain_document(parse_activity_diagram("\n".join(lines) + "\n"))


def test_long_witnesses_are_listed_up_to_the_step_cap():
    # all 1,024 paths fail and each holds 5,012 steps: 1,000 listed witnesses
    # made a 628 MB safety_iterN.json before the step cap
    report = check(_long_prefix_then_decisions(5_000, 10),
                   parse_rules("r: forbid go before stop-now\n"))
    (result,) = report.results
    path_steps = 5_000 + 10 + 2
    listed = len(result.witnesses)
    assert listed == MAX_WITNESS_STEPS // path_steps
    assert result.unlisted == 1_024 - listed
    assert events_of(result.witnesses[0].sequence)[-2:] == ("left-9", "stop-now")
    assert len(dump_json(report.to_dict())) < 8_000_000
    assert render_report(report).endswith(f"({1_024 - listed} more violating paths)\n")


def test_the_first_witness_is_listed_past_the_step_cap():
    report = check(_long_prefix_then_decisions(MAX_WITNESS_STEPS, 1),
                   parse_rules("r: forbid go before stop-now\n"))
    (result,) = report.results
    assert len(result.witnesses) == 1
    assert len(result.witnesses[0].sequence) == MAX_WITNESS_STEPS + 3
    assert result.unlisted == 1


def test_uncut_witness_lists_are_not_counted():
    report = check(_sequential_decisions(3, warn_arms=0), parse_rules("r: warn before brake\n"))
    assert len(report.results[0].witnesses) == 8
    assert report.results[0].unlisted == 0
    assert "more violating paths" not in render_report(report)
    assert "unlisted_violating_paths" not in report.to_dict()["rules"][0]


def test_deep_hand_built_expression_is_checked_without_recursion():
    expr = RuleAtom("a", "before", "b")
    for _ in range(5001):
        expr = NotExpr(expr)
    rule = SafetyRule(name="deep", expr=AndExpr((expr,)))
    report = check(linear_chain(("b", "a")), (rule,))
    assert report.overall == "pass"  # an odd number of 'not's over a false atom


def _pairwise_or_rule(atoms: int) -> tuple[ChainDocument, tuple[SafetyRule, ...]]:
    """A straight chain e0 ... e(2n-1) and the rule ``e1 before e0 or e3
    before e2 or ...`` of n atoms, each violated by the chain."""
    document = linear_chain([f"e{i}" for i in range(2 * atoms)])
    expr = OrExpr(tuple(RuleAtom(f"e{2 * i + 1}", "before", f"e{2 * i}")
                        for i in range(atoms)))
    return document, (SafetyRule(name="r", expr=expr),)


def _check_cpu_ms(atoms: int) -> float:
    """Median process-CPU time of checking ``_pairwise_or_rule(atoms)``, in ms."""
    document, rules = _pairwise_or_rule(atoms)
    times = []
    for _ in range(5):
        began = time.process_time()
        assert check(document, rules).overall == "violated"
        times.append(time.process_time() - began)
    return statistics.median(times) * 1e3


def test_checking_cost_grows_linearly_with_atoms_and_events():
    # n against 8n: work linear in atoms and events costs about 8 times as
    # much, work that grows as atoms × events about 64 times
    small = _check_cpu_ms(250)
    large = _check_cpu_ms(2_000)
    assert large < 16 * max(small, 0.5)


# ---------------------------------------------------------------------------
# the monitor budget: a rule of d atoms over d decisions reaches about 2^d
# monitor states per run, so (run, state) pairs grow as 4 * 2^d - 3


def _monitor_blowup(decisions: int) -> tuple[str, str]:
    """A diagram of ``decisions`` if/else blocks in a row, an action on each
    arm, and the rule ``ev-0 before zz or ... or ev-(d-1) before zz``, one
    atom per decision."""
    lines = ["@startuml", "start"]
    for i in range(decisions):
        lines += [f"if (c{i}) then (yes)", f":ev {i};", "else (no)", f":other {i};", "endif"]
    lines += [":zz;", "stop", "@enduml"]
    rule = " or ".join(f"ev-{i} before zz" for i in range(decisions))
    return "\n".join(lines) + "\n", f"big: {rule}\n"


def _budget_message(pairs: int, limit: int = MAX_MONITOR_PAIRS) -> str:
    return f"rule 'big' reaches {pairs} (run, monitor state) pairs, more than the limit of {limit}"


def test_monitor_pairs_up_to_the_budget_are_checked(monkeypatch):
    diagram, rules = _monitor_blowup(2)
    document = to_chain_document(parse_activity_diagram(diagram))
    monkeypatch.setattr(safety_rules, "MAX_MONITOR_PAIRS", 4 * 2 ** 2 - 3)
    assert check(document, parse_rules(rules)).overall == "violated"
    monkeypatch.setattr(safety_rules, "MAX_MONITOR_PAIRS", 4 * 2 ** 2 - 4)
    with pytest.raises(UnsupportedStructureError) as raised:
        check(document, parse_rules(rules))
    assert str(raised.value) == _budget_message(13, limit=12)


def test_fourteen_atoms_stay_within_the_budget():
    diagram, rules = _monitor_blowup(14)  # 65,533 pairs
    report = check(to_chain_document(parse_activity_diagram(diagram)), parse_rules(rules))
    assert report.overall == "violated"


def test_sixteen_atoms_fail_closed_through_check_chain(tmp_path, capsys):
    diagram, rules = _monitor_blowup(16)  # 262,141 pairs
    (tmp_path / "chain.puml").write_text(diagram)
    (tmp_path / "rules.txt").write_text(rules)
    started = time.perf_counter()
    code = main(["check-chain", "--chain", str(tmp_path / "chain.puml"),
                 "--rules", str(tmp_path / "rules.txt")])
    assert time.perf_counter() - started < 5.0
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {_budget_message(262141)}\n"


def test_sixteen_atoms_fail_closed_through_analyze_safety(tmp_path, capsys):
    diagram, rules = _monitor_blowup(16)
    store = json.loads((FIXTURES / "replay" / "s1.json").read_text(encoding="utf-8"))
    (chain_digest,) = [digest for digest, text in store.items() if "@startuml" in text]
    store[chain_digest] = diagram
    (tmp_path / "store.json").write_text(json.dumps(store))
    (tmp_path / "rules.txt").write_text(rules)
    out = tmp_path / "out"
    code = main(["--out", str(out), "analyze-safety",
                 "--code", str(FIXTURES / "code" / "s1.py"),
                 "--vss", str(FIXTURES / "catalogs" / "vss.json"),
                 "--can", str(FIXTURES / "catalogs" / "can.json"),
                 "--rules", str(tmp_path / "rules.txt"),
                 "--replay", str(tmp_path / "store.json")])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: stage 'check' failed: {_budget_message(262141)}\n")
    assert json.loads((out / "run.json").read_text())["verdict"] == "error"
    assert (out / "chain_iter1.json").exists()
    assert not (out / "safety_iter1.txt").exists()
