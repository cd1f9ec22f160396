"""How the cost of a layer grows with its input.

Each pin times a layer at n and 8n on generated input and fails when the
ratio passes 16: linear work costs about 8 times as much at 8n, work that
grows as the square of the input about 64 times. Each time is the median of
several process-CPU readings, so that time spent waiting for the CPU does
not count. The rule checker's pin is in ``test_safety_rules.py``.
"""

import statistics
import time

from sdv_guard.eventchain import (
    parse_activity_diagram,
    parse_chain_document,
    serialize_chain,
    to_chain_document,
)
from sdv_guard.safety_rules import check, parse_rules, render_report


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
