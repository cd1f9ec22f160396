"""Outside-in tracing of the program's layers.

The tracer never edits the program. ``install`` rebinds each public layer
function, in every ``sdv_guard`` module that holds a reference to it, to a
wrapper that records a span; methods are rebound on their class.
``uninstall`` puts the originals back. Spans follow the OpenTelemetry span
data model (name, trace id, span id, parent id, start, end, attributes),
are kept in memory while the benchmark runs and are written out at the end.
The benchmark is single-threaded, so one stack gives every span its parent.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict
from pathlib import Path


def _len(key):
    return lambda args, result: {key: len(result)}


# (module, function or Class.method, span name, attributes from (args, result))
TARGETS = (
    ("sdv_guard.catalog", "parse_vss_catalog", "catalog.parse", lambda a, r: {"entries": len(r.entries)}),
    ("sdv_guard.catalog", "parse_can_catalog", "catalog.parse", lambda a, r: {"entries": len(r.entries)}),
    ("sdv_guard.retrieval", "build_index", "retrieval.index_build", _len("entries")),
    ("sdv_guard.retrieval", "retrieve_top_k", "retrieval.query", None),
    ("sdv_guard.retrieval", "chunk_entries", "retrieval.chunk", _len("chunks")),
    ("sdv_guard.llm_gateway", "LlmGateway.complete", "gateway.complete",
     lambda a, r: {"mode": a[0].mode, "prompt_chars": len(a[1].prompt)}),
    ("sdv_guard.llm_gateway", "ReplayStore.load", "gateway.store_load", _len("entries")),
    ("sdv_guard.extraction", "extract_entries", "extraction.extract", _len("entries")),
    ("sdv_guard.extraction", "validate_entries", "extraction.validate",
     lambda a, r: {"accepted": len(r.accepted), "rejected": len(r.rejected)}),
    ("sdv_guard.eventchain", "parse_activity_diagram", "eventchain.parse", None),
    ("sdv_guard.eventchain", "parse_chain_document", "eventchain.parse", None),
    ("sdv_guard.eventchain", "to_chain_document", "eventchain.parse", None),
    ("sdv_guard.eventchain", "enumerate_paths", "eventchain.enumerate", _len("paths")),
    ("sdv_guard.safety_rules", "parse_rules", "safety_rules.parse", _len("rules")),
    ("sdv_guard.safety_rules", "check", "safety_rules.check",
     lambda a, r: {"witnesses": sum(len(x.witnesses) for x in r.results)}),
    ("sdv_guard.safety_rules", "render_report", "safety_rules.render", _len("chars")),
    ("sdv_guard.topology.model", "parse_instance", "topology.load", _len("objects")),
    ("sdv_guard.topology.model", "import_class_diagram", "topology.load", _len("objects")),
    ("sdv_guard.topology.model", "conform", "topology.conform", None),
    ("sdv_guard.topology.model", "export_class_diagram", "topology.export", _len("chars")),
    ("sdv_guard.topology.model", "serialize_instance", "topology.export", _len("chars")),
    ("sdv_guard.topology.ocl", "parse_constraints", "ocl.parse", _len("constraints")),
    ("sdv_guard.topology.ocl", "eval_constraints", "ocl.eval", lambda a, r: {"rows": len(r.rows)}),
    ("sdv_guard.topology.ocl", "render_topology_report", "topology.export", _len("chars")),
    ("sdv_guard.pipeline.runs", "run_safety_pipeline", "runs.pipeline", None),
    ("sdv_guard.pipeline.runs", "run_topology_pipeline", "runs.pipeline", None),
    ("sdv_guard.pipeline.runs", "_ArtifactWriter.write", "runs.artifact_write",
     lambda a, r: {"bytes": len(a[2].encode())}),
    ("sdv_guard.pipeline.runs", "_ArtifactWriter.finish", "runs.artifact_write",
     lambda a, r: {"bytes": r.stat().st_size}),
    ("sdv_guard.pipeline.harness", "run_eval_harness", "harness.eval",
     lambda a, r: {"scenario_runs": sum(o.runs for o in r.outcomes)}),
    ("sdv_guard.pipeline.deploy", "deploy_stub", "deploy.copy", lambda a, r: {"files": len(r.files)}),
    ("sdv_guard.pipeline.deploy", "verify_receipt", "deploy.verify", None),
    ("sdv_guard.pipeline.cli", "main", "cli.main", None),
    # the benchmark's stand-in endpoint, so gateway time excludes it
    ("bench.generators", "ScriptedTransport.__call__", "endpoint.scripted", None),
)


class Tracer:
    """Records spans while installed; ``trace_id`` names the current request."""

    def __init__(self):
        self.spans: list[tuple] = []  # (trace, span id, parent id, name, start ns, end ns, attrs)
        self.trace_id: str | int = "setup"
        self._stack: list[int] = []
        self._ids = 0
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, describe):
        stack, spans, clock = self._stack, self.spans, time.perf_counter_ns

        def traced(*args, **kwargs):
            self._ids += 1
            span_id = self._ids
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = clock()
                stack.pop()
                spans.append((self.trace_id, span_id, parent, name, start, end,
                               {"error": type(exc).__name__}))
                raise
            end = clock()
            stack.pop()
            spans.append((self.trace_id, span_id, parent, name, start, end,
                          describe(args, result) if describe else {}))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for module_name, target, name, describe in TARGETS:
            module = importlib.import_module(module_name)
            owner_name, _, member = target.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                raw = owner.__dict__[member]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, raw.__func__, describe))
                else:
                    wrapped = self._wrap(name, raw, describe)
                setattr(owner, member, wrapped)
                self._patches.append((owner, member, raw))
                continue
            original = getattr(module, member)
            wrapper = self._wrap(name, original, describe)
            for other in list(sys.modules.values()):
                if not getattr(other, "__name__", "").startswith(("sdv_guard", "bench")):
                    continue
                for key, value in list(vars(other).items()):
                    if value is original:
                        setattr(other, key, wrapper)
                        self._patches.append((other, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def write(self, path: Path) -> None:
        """One JSON object per span, times in Unix nanoseconds."""
        offset = time.time_ns() - time.perf_counter_ns()
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for trace, span_id, parent, name, start, end, attrs in self.spans:
                out.write(json.dumps({
                    "name": name, "trace_id": str(trace), "span_id": span_id,
                    "parent_id": parent, "start_time_unix_nano": start + offset,
                    "end_time_unix_nano": end + offset, "attributes": attrs,
                }) + "\n")


class SpanSummary:
    """Totals over the spans of one set of traces, per span name.

    A span's self time is its duration minus the time its child spans
    cover; children of one span never overlap, as the program is
    single-threaded.
    """

    def __init__(self, spans, traces):
        traces = set(traces)
        self.requests = len(traces)
        children: dict[int, int] = defaultdict(int)
        for _trace, _span_id, parent, _name, start, end, _attrs in spans:
            if parent is not None:
                children[parent] += end - start
        self._self_ns: dict[str, int] = defaultdict(int)
        self._tagged_ns: dict[tuple[str, str], int] = defaultdict(int)
        self._count: dict[str, int] = defaultdict(int)
        self._attrs: dict[tuple[str, str], float] = defaultdict(float)
        self._errors: dict[tuple[str, str], int] = defaultdict(int)
        for trace, span_id, _parent, name, start, end, attrs in spans:
            if trace not in traces:
                continue
            own = end - start - children[span_id]
            self._self_ns[name] += own
            self._count[name] += 1
            for key, value in attrs.items():
                if key == "error":
                    self._errors[(name, value)] += 1
                elif isinstance(value, (int, float)):
                    self._attrs[(name, key)] += value
                else:
                    self._attrs[(name, f"{key}={value}")] += 1
                    self._tagged_ns[(name, f"{key}={value}")] += own

    def self_ms(self, *names: str) -> float:
        """Self time per request, in milliseconds."""
        return sum(self._self_ns[n] for n in names) / 1e6 / max(self.requests, 1)

    def tagged_self_ms(self, name: str, tag: str) -> float:
        """Self time per request of the spans whose attributes include ``tag``
        (``key=value``)."""
        return self._tagged_ns[(name, tag)] / 1e6 / max(self.requests, 1)

    def count(self, *names: str) -> float:
        """Spans per request."""
        return sum(self._count[n] for n in names) / max(self.requests, 1)

    def total(self, name: str, key: str) -> float:
        """Sum of a numeric attribute, or the number of spans carrying the
        string attribute ``key`` (given as ``key=value``)."""
        return self._attrs[(name, key)]

    def per_request(self, name: str, key: str, scale: float = 1.0) -> float:
        return self._attrs[(name, key)] / scale / max(self.requests, 1)

    def errors(self, name: str, error: str) -> int:
        return self._errors[(name, error)]
