"""The benchmark's metrics: names, units, direction, and what each one moves.

``BENCHMARK.json`` at the repository root registers the same names, units,
directions and bounds; ``bench/tests/test_bench.py`` keeps the two in step.
Every ``*_ms`` layer metric is self time per traced request: the time
inside that layer's spans minus the time in the layer spans they call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float
    meaning: str


@dataclass(frozen=True)
class Layer:
    name: str
    unit: str
    better: str
    value: Callable  # (request SpanSummary, setup SpanSummary) -> float
    moves: str  # the end-to-end metric and workload it should move


END_TO_END = (
    EndToEnd("setup_s", "s", "lower", 0.25,
             "import time plus the median of three set-ups (input generation, "
             "replay-store recording, one warm-up request)"),
    EndToEnd("latency_p50_ms", "ms", "lower", 0.2,
             "median time to verdict of completed requests, in reference time"),
    EndToEnd("latency_p90_ms", "ms", "lower", 0.2, "90th percentile of the same times"),
    EndToEnd("requests_per_s", "1/s", "higher", 0.2,
             "completed requests divided by the sum of their times"),
    EndToEnd("success_rate", "ratio", "higher", 0.01,
             "completed share of attempted requests; error_rate is 1 minus this"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.1, "peak resident memory of the process"),
    EndToEnd("output_kb_per_request", "kB", "lower", 0.1,
             "artifact and printed-report bytes per completed request"),
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _retry_rounds(s, _setup) -> float:
    return s.count("extraction.validate") - s.count("extraction.extract")


def _hit_ratio(s, _setup) -> float:
    hits = s.total("gateway.complete", "mode=replay")
    return _ratio(hits, hits + s.errors("gateway.complete", "ReplayMissError"))


def _accept_ratio(s, _setup) -> float:
    accepted = s.total("extraction.validate", "accepted")
    return _ratio(accepted, accepted + s.total("extraction.validate", "rejected"))


P50_QS, P90_QS = "latency_p50_ms on quickstart", "latency_p90_ms on quickstart"
P50_CAT = "latency_p50_ms on catalog-scale"
CHAIN = "latency_p50_ms, latency_p90_ms and success_rate on chain-scale"
REPORT = "latency_p90_ms and output_kb_per_request on chain-scale"
P50_TOPO = "latency_p50_ms on topology-scale"

PER_LAYER = (
    Layer("catalog.parse_ms", "ms", "lower", lambda s, _: s.self_ms("catalog.parse"), P50_CAT),
    Layer("catalog.entries", "count", "lower",
          lambda s, _: s.per_request("catalog.parse", "entries"), P50_CAT),
    Layer("retrieval.index_build_ms", "ms", "lower",
          lambda s, _: s.self_ms("retrieval.index_build"),
          "latency_p50_ms and latency_p90_ms on catalog-scale"),
    Layer("retrieval.index_builds", "count", "lower",
          lambda s, _: s.count("retrieval.index_build"),
          "latency_p50_ms and latency_p90_ms on catalog-scale"),
    Layer("retrieval.query_ms", "ms", "lower",
          lambda s, _: s.self_ms("retrieval.query", "retrieval.chunk"),
          "latency_p50_ms and latency_p90_ms on catalog-scale"),
    Layer("retrieval.chunks", "count", "lower",
          lambda s, _: s.per_request("retrieval.chunk", "chunks"),
          "latency_p50_ms and latency_p90_ms on catalog-scale"),
    Layer("gateway.calls", "count", "lower", lambda s, _: s.count("gateway.complete"), P50_QS),
    Layer("gateway.replay_hit_ratio", "ratio", "higher", _hit_ratio, P50_QS),
    Layer("gateway.complete_ms", "ms", "lower", lambda s, _: s.self_ms("gateway.complete"), P50_QS),
    Layer("gateway.prompt_kb", "kB", "lower",
          lambda s, _: s.per_request("gateway.complete", "prompt_chars", 1024), P50_QS),
    Layer("gateway.store_load_ms", "ms", "lower",
          lambda s, _: s.self_ms("gateway.store_load"), P50_QS),
    # per set-up, not per request: record mode rewrites the store after every completion
    Layer("gateway.record_ms", "ms", "lower",
          lambda _, setup: setup.tagged_self_ms("gateway.complete", "mode=record"),
          "setup_s on catalog-scale"),
    Layer("extraction.extract_ms", "ms", "lower",
          lambda s, _: s.self_ms("extraction.extract"), "latency_p90_ms on catalog-scale"),
    Layer("extraction.validate_ms", "ms", "lower",
          lambda s, _: s.self_ms("extraction.validate"), "latency_p90_ms on catalog-scale"),
    Layer("extraction.validate_calls", "count", "lower",
          lambda s, _: s.count("extraction.validate"), "latency_p90_ms on catalog-scale"),
    Layer("extraction.retry_rounds", "count", "lower", _retry_rounds,
          "latency_p90_ms on catalog-scale"),
    Layer("extraction.accept_ratio", "ratio", "higher", _accept_ratio,
          "latency_p90_ms on catalog-scale"),
    Layer("eventchain.parse_ms", "ms", "lower", lambda s, _: s.self_ms("eventchain.parse"), CHAIN),
    Layer("eventchain.enumerate_ms", "ms", "lower",
          lambda s, _: s.self_ms("eventchain.enumerate"), CHAIN),
    Layer("eventchain.enumerations", "count", "lower",
          lambda s, _: s.count("eventchain.enumerate"), CHAIN),
    Layer("eventchain.paths", "count", "lower",
          lambda s, _: s.per_request("eventchain.enumerate", "paths"), CHAIN),
    Layer("safety_rules.parse_ms", "ms", "lower",
          lambda s, _: s.self_ms("safety_rules.parse"), REPORT),
    Layer("safety_rules.check_ms", "ms", "lower",
          lambda s, _: s.self_ms("safety_rules.check"), REPORT),
    Layer("safety_rules.witnesses", "count", "lower",
          lambda s, _: s.per_request("safety_rules.check", "witnesses"), REPORT),
    Layer("safety_rules.render_ms", "ms", "lower",
          lambda s, _: s.self_ms("safety_rules.render"), REPORT),
    Layer("safety_rules.report_kb", "kB", "lower",
          lambda s, _: s.per_request("safety_rules.render", "chars", 1024), REPORT),
    Layer("topology.load_ms", "ms", "lower", lambda s, _: s.self_ms("topology.load"),
          "latency_p50_ms and peak_rss_mb on topology-scale"),
    Layer("topology.conform_ms", "ms", "lower", lambda s, _: s.self_ms("topology.conform"),
          "latency_p50_ms and peak_rss_mb on topology-scale"),
    Layer("topology.export_ms", "ms", "lower", lambda s, _: s.self_ms("topology.export"),
          "latency_p50_ms and peak_rss_mb on topology-scale"),
    Layer("topology.objects", "count", "lower",
          lambda s, _: s.per_request("topology.load", "objects"),
          "latency_p50_ms and peak_rss_mb on topology-scale"),
    Layer("ocl.parse_ms", "ms", "lower", lambda s, _: s.self_ms("ocl.parse"), P50_TOPO),
    Layer("ocl.eval_ms", "ms", "lower", lambda s, _: s.self_ms("ocl.eval"), P50_TOPO),
    Layer("ocl.rows", "count", "lower", lambda s, _: s.per_request("ocl.eval", "rows"), P50_TOPO),
    Layer("runs.artifact_write_ms", "ms", "lower",
          lambda s, _: s.self_ms("runs.artifact_write"),
          "latency_p50_ms on quickstart, output_kb_per_request on topology-scale"),
    Layer("runs.artifacts", "count", "lower", lambda s, _: s.count("runs.artifact_write"),
          "latency_p50_ms on quickstart, output_kb_per_request on topology-scale"),
    Layer("runs.artifact_kb", "kB", "lower",
          lambda s, _: s.per_request("runs.artifact_write", "bytes", 1024),
          "latency_p50_ms on quickstart, output_kb_per_request on topology-scale"),
    Layer("runs.self_ms", "ms", "lower", lambda s, _: s.self_ms("runs.pipeline"),
          "latency_p50_ms on quickstart, output_kb_per_request on topology-scale"),
    Layer("harness.eval_ms", "ms", "lower", lambda s, _: s.self_ms("harness.eval"),
          "requests_per_s on quickstart"),
    Layer("harness.scenario_runs", "count", "lower",
          lambda s, _: s.per_request("harness.eval", "scenario_runs"),
          "requests_per_s on quickstart"),
    Layer("deploy.copy_ms", "ms", "lower", lambda s, _: s.self_ms("deploy.copy"), P90_QS),
    Layer("deploy.verify_ms", "ms", "lower", lambda s, _: s.self_ms("deploy.verify"), P90_QS),
    Layer("deploy.files", "count", "lower",
          lambda s, _: s.per_request("deploy.copy", "files"), P90_QS),
    Layer("cli.self_ms", "ms", "lower", lambda s, _: s.self_ms("cli.main"), P50_QS),
)

# computed by the runner from the two phases of a traced run
TRACE_OVERHEAD = Layer("trace.overhead_pct", "%", "lower", None,
                       "none: traced median latency against the untraced one")
