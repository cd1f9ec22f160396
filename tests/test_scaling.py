"""How the cost of a layer grows with its input.

Each pin times a layer at n and 8n on generated input and fails when the
ratio passes 16: linear work costs about 8 times as much at 8n, work that
grows as the square of the input about 64 times. Each time is the median of
several process-CPU readings, so that time spent waiting for the CPU does
not count. The pin for a rule's size is in ``test_safety_rules.py``; the
one for the number of rules is here.
"""

import gc
import random
import statistics
import time

import pytest

from bench import generators as gen
from sdv_guard.catalog import parse_can_catalog, parse_vss_catalog
from sdv_guard.eventchain import (
    parse_activity_diagram,
    parse_chain_document,
    serialize_chain,
    to_chain_document,
)
from sdv_guard.safety_rules import check, parse_rules, render_report
from sdv_guard.topology import (
    default_metamodel,
    eval_constraints,
    import_class_diagram,
    parse_constraints,
    parse_instance,
    render_topology_report,
)

from conftest import FIXTURES


def _cpu_ms(fn, runs: int = 5) -> float:
    """Median process-CPU time of ``fn()``, in ms."""
    times = []
    for _ in range(runs):
        began = time.process_time()
        fn()
        times.append(time.process_time() - began)
    return statistics.median(times) * 1e3


def _assert_linear(cost, n: int) -> None:
    small, large = cost(n), cost(8 * n)
    assert large < 16 * max(small, 0.5), (small, large)


def _linear_diagram(actions: int) -> str:
    """``:go;``, then ``actions`` more actions (every tenth with a note and a
    non-ASCII label), then ``:stop now;``: one path, which the rule
    ``forbid go before stop-now`` fails."""
    lines = ["@startuml", "start", ":go;"]
    for i in range(actions):
        if i % 10:
            lines.append(f":Step {i} done;")
        else:
            lines += [f":Schritt {i} geprüft;", f"note right: output=step{i}"]
    lines += [":stop now;", "stop", "@enduml"]
    return "\n".join(lines) + "\n"


def test_a_linear_diagram_is_checked_in_linear_time():
    # the check-chain path: parse, name the events, check, render
    rules = parse_rules("r: forbid go before stop-now\n")

    def cost(actions: int) -> float:
        text = _linear_diagram(actions)

        def run():
            report = check(to_chain_document(parse_activity_diagram(text)), rules)
            assert report.overall == "violated"
            render_report(report)
        return _cpu_ms(run)

    _assert_linear(cost, 500)


def test_a_linear_chain_document_is_read_in_linear_time():
    def cost(actions: int) -> float:
        text = serialize_chain(to_chain_document(parse_activity_diagram(
            _linear_diagram(actions))))
        return _cpu_ms(lambda: parse_chain_document(text))

    _assert_linear(cost, 500)


def test_a_rules_file_is_parsed_and_checked_in_linear_time():
    # one fixed diagram; every rule an 'or' of two atoms that hold on it. The
    # chain is short because each atom adds parse cost per rule, which would
    # hide a step quadratic in the number of rules, such as looking rule
    # names up in a list, below the bound at sizes that take seconds
    document = to_chain_document(parse_activity_diagram(_linear_diagram(20)))
    expr = "step-1-done before step-2-done or step-3-done before step-4-done"

    def cost(count: int) -> float:
        text = "".join(f"rule-{i}: {expr}\n\n" for i in range(count))

        def run():
            report = check(document, parse_rules(text))
            assert len(report.results) == count and report.overall == "pass"
        return _cpu_ms(run, runs=3)

    _assert_linear(cost, 2000)


def _assert_parsed_in_linear_time(parse, generate, n: int) -> None:
    """``_assert_linear`` for a catalog parser on bench catalogs of n and 8n
    entries. The two texts are parsed in turn, five times each, so that a
    change in the machine's speed, which can halve it for seconds, falls on
    both sizes alike. The cyclic collector is paused: a parse allocates an
    object or more per entry, so full collections fall within it, and each
    walks every object the process holds, which in a test session is far
    more than the parser's own."""
    texts = [generate(random.Random(1), size)[0] for size in (n, 8 * n)]
    times: tuple[list[float], list[float]] = ([], [])
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for _ in range(5):
            for text, taken in zip(texts, times):
                began = time.process_time()
                parse(text)
                taken.append(time.process_time() - began)
    finally:
        if enabled:
            gc.enable()
    small, large = (statistics.median(taken) * 1e3 for taken in times)
    assert large < 16 * max(small, 0.5), (small, large)


def test_a_signal_catalog_is_parsed_in_linear_time():
    _assert_parsed_in_linear_time(parse_vss_catalog, gen.vss_catalog, 1000)


def test_a_message_catalog_is_parsed_in_linear_time():
    _assert_parsed_in_linear_time(parse_can_catalog, gen.can_catalog, 1000)


def _instance_case(messages: int, form: str) -> gen.TopologyCase:
    """The bench's topology of ``messages`` messages, planted violations
    included, as JSON or as an object diagram."""
    return gen.instance_case(random.Random(1), f"{form}-bad", messages, form, True)


@pytest.mark.parametrize("form, load", [("json", parse_instance),
                                        ("puml", import_class_diagram)])
def test_an_instance_model_is_loaded_in_linear_time(form, load):
    def cost(messages: int) -> float:
        text = _instance_case(messages, form).model_text
        return _cpu_ms(lambda: load(text))

    _assert_linear(cost, 300)


def test_an_instance_model_is_checked_in_linear_time():
    # the OCL check layer: evaluate, render the pass/fail list, write
    # topology_iterN.json. The last constraint faults, with a reason, on
    # every VSS message (about half the messages), so the cells that carry a
    # reason grow with the model too
    metamodel = default_metamodel()
    security = (FIXTURES / "topology" / "security.ocl").read_text(encoding="utf-8")
    faulting = "context VSSMessage inv PathIsNumeric: self.vssPath.toReal() > 0.0\n"

    def cost(messages: int) -> float:
        case = _instance_case(messages, "json")
        model = parse_instance(case.model_text)
        constraints = parse_constraints(
            "\n".join((security, case.extra_constraints, faulting)), metamodel)

        def run():
            report = eval_constraints(model, constraints, metamodel)
            assert report.overall == "fail"
            render_topology_report(report)
            report.to_json()
        return _cpu_ms(run)

    _assert_linear(cost, 300)
