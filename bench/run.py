#!/usr/bin/env python3
"""Layered, replay-mode benchmark for sdv-guard.

Usage, from the repository root:

    python3 bench/run.py --workload {quickstart,catalog-scale,chain-scale,topology-scale}
                         [--seed N] [--seconds S] [--trace 0|1]

One client in one process sends requests in a closed loop: the next
request starts after the previous one has returned and been checked. The
loop goes through the workload's request pool in passes, each pass in a
seeded order, and stops after the first pass that ends once ``--seconds``
have gone by and at least MIN_REQUESTS requests were completed.

Every request is checked against the answer known by construction; a
request fails if it raises (any exception), returns a wrong verdict or exit
code, or writes deterministic artifacts that differ from an earlier run of
the same request. With ``--trace 0`` the end-to-end metrics are reported.
With ``--trace 1`` the loop runs for half the time untraced, then the same
requests again with the layer tracer installed, and the per-layer metrics
are reported; the spans go to ``.bench_work/spans-<workload>.jsonl``.

Times are reported in reference time; ``ReferenceClock`` says why and how.
The human-readable lines also give the unscaled throughput.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
WORKLOAD_NAMES = ("quickstart", "catalog-scale", "chain-scale", "topology-scale")
MIN_REQUESTS = 100
SETUP_REPEATS = 3
TIME_LIMIT_S = 150.0  # a run stops after this long even below MIN_REQUESTS
REFERENCE_S = 0.002  # nominal time of one reference kernel run

_WORD_RE = re.compile(r"[a-z0-9]+")


class ReferenceClock:
    """Scales wall time by the machine's current speed, sampled by a fixed
    kernel just before and just after the interval.

    The kernel does the program's staple work (tokenising, dict counting,
    sorting, a JSON round trip) over strings spread across a few megabytes,
    so that, like the program, it feels contention for the core's caches.
    It runs with the cyclic collector off, so the program's heap cannot
    slow it down.
    """

    def __init__(self):
        self._texts = [f"Vehicle.Branch{i % 40}.Group{i % 300}.Leaf{i} torque {i * 7 % 101}"
                       for i in range(20000)]
        self._turn = 0
        self.before = self._sample()

    def _kernel(self) -> float:
        self._turn = (self._turn + 1) % 20
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            counts: dict[str, int] = {}
            for text in self._texts[self._turn::20]:
                for token in _WORD_RE.findall(text.lower()):
                    counts[token] = counts.get(token, 0) + 1
            ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
            json.loads(json.dumps(ranked[:300]))
            return time.perf_counter() - start
        finally:
            if collecting:
                gc.enable()

    def _sample(self) -> float:
        return statistics.median(self._kernel() for _ in range(3))

    def scale(self, seconds: float, long: bool = False) -> float:
        """Scaled ``seconds``; a ``long`` interval gets a median of three
        kernel runs after it instead of one."""
        after = self._sample() if long else self._kernel()
        factor = REFERENCE_S / ((self.before + after) / 2)
        self.before = after
        return seconds * factor


def _load_program():
    """Import the program from this checkout's ``src``; None when it is absent."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        import sdv_guard
    except ImportError:
        return None
    if Path(sdv_guard.__file__).resolve().parent != ROOT / "src" / "sdv_guard":
        return None
    from bench import metrics, tracing, workloads

    return metrics, tracing, workloads


class Loop:
    """Outcome counters of the requests one phase has attempted."""

    def __init__(self, digests: dict, clock: ReferenceClock):
        self.digests = digests  # request id -> artifact digests of its first run
        self.clock = clock
        self.times: dict[str, list[float]] = {}  # request id -> scaled latencies of completed runs
        self.wall = 0.0  # unscaled seconds inside completed requests
        self.attempted = 0
        self.output_bytes = 0
        self.wrong: list[str] = []
        self.errors: Counter = Counter()

    @property
    def completed(self) -> int:
        return sum(len(times) for times in self.times.values())

    def latencies(self) -> list[float]:
        """The scaled latency of every completed run."""
        return [t for times in self.times.values() for t in times]

    @property
    def failed(self) -> int:
        return self.attempted - self.completed

    def attempt(self, request) -> None:
        self.attempted += 1
        if request.out_dir is not None:
            shutil.rmtree(request.out_dir, ignore_errors=True)
        start = time.perf_counter()
        try:
            result = request.run()
        except (Exception, SystemExit) as exc:  # any exception fails the request; the loop goes on
            self.clock.scale(0.0)
            self.errors[type(exc).__name__] += 1
            return
        wall = time.perf_counter() - start
        elapsed = self.clock.scale(wall)
        try:
            problem, size, digests = request.check(result)
        except Exception as exc:  # a malformed result is a wrong answer
            problem, size, digests = f"check raised {type(exc).__name__}: {exc}", 0, {}
        first = self.digests.setdefault(request.rid, digests)
        if problem is None and first != digests:
            problem = "deterministic artifacts differ from an earlier run"
        if problem is not None:
            self.wrong.append(f"{request.rid}: {problem}")
            return
        self.times.setdefault(request.rid, []).append(elapsed)
        self.wall += wall
        self.output_bytes += size


def _passes(pool, seed: int):
    rng = random.Random(seed)
    while True:
        yield rng.sample(pool, len(pool))


def _run_loop(loop: Loop, pool, seed: int, seconds: float, min_requests: int) -> list[list]:
    """Attempt whole passes over the pool until the time and count are reached;
    returns the passes run, in order."""
    done = []
    start = time.perf_counter()
    for order in _passes(pool, seed):
        for request in order:
            loop.attempt(request)
        done.append(order)
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and loop.completed >= min_requests) or elapsed >= TIME_LIMIT_S:
            return done


def _percentile(values: list[float], fraction: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(fraction * 100) - 1]


def _setup(workload, seed: int, workdir: Path, clock: ReferenceClock):
    start = time.perf_counter()
    pool = workload.setup(seed, workdir)
    # warm-up: lazy imports and first-use caches; a failure here shows again,
    # and is counted, in the timed loop
    try:
        pool[0].check(pool[0].run())
    except Exception:
        pass
    return pool, clock.scale(time.perf_counter() - start, long=True)


def _end_to_end(metrics, workload, seed: int, seconds: float, workdir: Path, imported: float):
    clock = ReferenceClock()
    imported = imported * REFERENCE_S / clock.before
    setups = []
    for rep in range(SETUP_REPEATS):
        if rep:
            shutil.rmtree(workdir / f"setup{rep - 1}", ignore_errors=True)
        pool, took = _setup(workload, seed, workdir / f"setup{rep}", clock)
        setups.append(took)
    loop = Loop({}, clock)
    _run_loop(loop, pool, seed, seconds, MIN_REQUESTS)
    lat = loop.latencies() or [float("nan")]
    values = {
        "setup_s": imported + statistics.median(setups),
        "latency_p50_ms": 1000 * statistics.median(lat),
        "latency_p90_ms": 1000 * _percentile(lat, 0.9),
        "requests_per_s": len(lat) / sum(lat),
        "success_rate": loop.completed / loop.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "output_kb_per_request": loop.output_bytes / 1024 / max(loop.completed, 1),
    }
    table = {m.name: (values[m.name], m.unit) for m in metrics.END_TO_END}
    table["error_rate"] = (loop.failed / loop.attempted, "ratio")
    table["unscaled_requests_per_s"] = (loop.completed / loop.wall if loop.wall else 0.0, "1/s")
    return loop, table


def _per_layer(metrics, tracing, workload, seed: int, seconds: float, workdir: Path):
    clock = ReferenceClock()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        pool, _took = _setup(workload, seed, workdir / "setup0", clock)
    finally:
        tracer.uninstall()
    digests: dict = {}
    plain = Loop(digests, clock)
    passes = _run_loop(plain, pool, seed, seconds / 2, MIN_REQUESTS // 2)
    traced = Loop(digests, clock)
    tracer.install()
    try:
        for order in passes:
            for request in order:
                tracer.trace_id = traced.attempted
                traced.attempt(request)
    finally:
        tracer.uninstall()
    requests = tracing.SpanSummary(tracer.spans, range(traced.attempted))
    setup = tracing.SpanSummary(tracer.spans, ["setup"])
    table = {m.name: (m.value(requests, setup), m.unit) for m in metrics.PER_LAYER}
    if plain.completed and traced.completed:
        overhead = 100 * (statistics.median(traced.latencies())
                          / statistics.median(plain.latencies()) - 1)
    else:
        overhead = float("nan")
    table[metrics.TRACE_OVERHEAD.name] = (overhead, metrics.TRACE_OVERHEAD.unit)
    tracer.write(ROOT / ".bench_work" / f"spans-{workload.name}.jsonl")
    merged = Loop(digests, clock)
    for part in (plain, traced):
        merged.attempted += part.attempted
        for rid, times in part.times.items():
            merged.times.setdefault(rid, []).extend(times)
        merged.wrong += part.wrong
        merged.errors.update(part.errors)
    return merged, table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    program = _load_program()
    if program is None:
        print(f"error: no sdv_guard package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    metrics, tracing, workloads = program
    imported = time.perf_counter() - _STARTED
    workload = workloads.WORKLOADS[args.workload]
    workdir = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        if args.trace:
            loop, table = _per_layer(metrics, tracing, workload, args.seed, args.seconds, workdir)
        else:
            loop, table = _end_to_end(metrics, workload, args.seed, args.seconds, workdir, imported)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{loop.attempted} attempted, {loop.completed} completed, {loop.failed} failed")
    for kind, count in sorted(loop.errors.items()):
        print(f"  raised {kind}: {count}")
    for note in loop.wrong[:10]:
        print(f"  wrong: {note}")
    for name, (value, unit) in table.items():
        print(f"  {name:28s} {value:14.4f} {unit}")
    print(json.dumps({
        "correct": not loop.wrong,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in table.items()
                    if name not in ("error_rate", "unscaled_requests_per_s")},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
