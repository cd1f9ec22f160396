"""The four benchmark workloads.

Each workload's ``setup`` builds its inputs from the seed and returns a
pool of requests. A request's ``run`` is the timed call into the program;
its ``check`` compares what came back (verdicts, exit codes, failing rows,
accepted entries) with the answer known by construction, and returns the
bytes the request produced and a digest of every deterministic artifact.

All calls into ``sdv_guard`` go through module attributes
(``runs.run_safety_pipeline``, not a name imported into this module), so
the outside-in tracer sees them when it rebinds those attributes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from sdv_guard import eventchain, llm_gateway, safety_rules
from sdv_guard.pipeline import cli, config as pipeline_config, deploy, runs

from . import generators as gen

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "fixtures"

# The README's documented output for quick-start scenario 1.
README_S1_OUTPUT = """\
overall: violated
chain: bf737cf9a993de0632507dab10196ae3c9bcfc18ba9ca36014bb11c53befde8d
rule rule1 [require]: violated
  witness 1: camera-sense -> pedestrian-camera-detected -> accelerate
    accelerate before pedestrian-camera-detected: false
    accelerate before pedestrian-lidar-detected: true
artifacts: out/s1
"""


@dataclass
class Request:
    """``run`` is timed; ``check(result)`` returns (problem or None, bytes
    produced, {artifact name: sha256}) and runs outside the timed region.
    The runner empties ``out_dir`` before each run."""

    rid: str
    run: Callable[[], object]
    check: Callable[[object], tuple[str | None, int, dict[str, str]]]
    out_dir: Path | None = None


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _artifacts(out_dir: Path) -> tuple[int, dict[str, str]]:
    """Bytes under ``out_dir`` and a digest per file except ``run.json``,
    which holds timestamps."""
    total = 0
    digests = {}
    for path in sorted(out_dir.rglob("*")):
        if path.is_file():
            data = path.read_bytes()
            total += len(data)
            if path.name != "run.json":
                digests[path.relative_to(out_dir).as_posix()] = _sha(data)
    return total, digests


# ---------------------------------------------------------------------------
# quickstart


def _cli_request(rid: str, argv: list[str], out_dir: Path | None, expect_exit: int,
                 expect_stdout: Callable[[str], str | None]) -> Request:
    def run():
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        return code, stdout.getvalue(), stderr.getvalue()

    def check(result):
        code, stdout, stderr = result
        size, digests = _artifacts(out_dir) if out_dir is not None else (0, {})
        digests["stdout"] = _sha(stdout.encode())
        problem = None
        if code != expect_exit:
            problem = f"exit {code}, expected {expect_exit}: {stderr.strip()[:200]}"
        else:
            problem = expect_stdout(stdout)
        return problem, size + len(stdout.encode()), digests

    return Request(rid, run, check, out_dir)


def _starts(prefix: str):
    return lambda out: None if out.startswith(prefix) else f"output starts {out[:40]!r}"


def _equals(expected: str):
    return lambda out: None if out == expected else "output differs from the documented one"


def _fault_successes(runs_: int, rate: float, seed: int, expected_entries: int) -> int:
    """Successes the fault-injection harness must report, from its documented
    semantics: each expected entry is dropped with probability ``rate``,
    one draw per entry per run, from a single RNG seeded once."""
    rng = random.Random(seed)
    return sum(all(rng.random() >= rate for _ in range(expected_entries))
               for _ in range(runs_))


class Quickstart:
    """The README quick-start commands, run through ``cli.main`` in process."""

    name = "quickstart"

    def setup(self, seed: int, workdir: Path) -> list[Request]:
        f = FIXTURES
        cat = ["--vss", str(f / "catalogs/vss.json"), "--can", str(f / "catalogs/can.json")]
        out = workdir / "out"
        requests = []

        def safety(rid, code, rules, replay, expect_exit, expect, extra=()):
            d = out / rid
            argv = ["--out", str(d), "analyze-safety", "--code", str(f / code), *cat,
                    "--rules", str(f / rules), "--replay", str(f / replay), *extra]
            requests.append(_cli_request(rid, argv, d, expect_exit, expect(d)))

        safety("s1", "code/s1.py", "rules/rules-s1.txt", "replay/s1.json", 1,
               lambda d: _equals(README_S1_OUTPUT.replace("out/s1", str(d))))
        safety("s2", "code/s2.py", "rules/rules-s2.txt", "replay/s2.json", 1,
               lambda d: _starts("overall: violated\n"))
        safety("s3-auto-correct", "code/s3.py", "rules/rules-s3.txt",
               "replay/s3_corrective.json", 0, lambda d: _starts("overall: pass\n"),
               ("--auto-correct", "--max-iterations", "2"))

        topo = ["--constraints", str(f / "topology/security.ocl")]
        for rid, model, extra, expect_exit, expect in (
            ("topology-good", "system.puml", [], 0, "overall: pass\n"),
            ("topology-bad", "system-bad.puml", [], 1, "overall: fail\n"),
            ("topology-fix", "system-bad.puml",
             ["--auto-correct", "--max-iterations", "2", "--replay", str(f / "replay/topology.json")],
             0, "overall: pass\n"),
        ):
            d = out / rid
            argv = ["--out", str(d), "analyze-topology", "--model", str(f / "topology" / model),
                    *topo, *extra]
            check = _starts(expect)
            if rid == "topology-bad":
                def check(text):
                    failing = [line for line in text.splitlines()[1:] if line.endswith(" fail")]
                    if failing != ["SteeringCommandWithinLimits m_steer fail"]:
                        return f"failing rows {failing}"
                    return None
            requests.append(_cli_request(rid, argv, d, expect_exit, check))

        for chain, rules, expect_exit in (("s1", "s1", 1), ("s2", "s2", 1), ("s3", "s3", 1),
                                          ("s3-corrected", "s3", 0)):
            argv = ["check-chain", "--chain", str(f / f"chains/{chain}.puml"),
                    "--rules", str(f / f"rules/rules-{rules}.txt")]
            verdict = "pass" if expect_exit == 0 else "violated"
            requests.append(_cli_request(f"check-chain-{chain}", argv, None, expect_exit,
                                         _starts(f"overall: {verdict}\n")))

        scenario_ids = ("s1-mapping", "s1-chain", "s2-mapping", "s2-chain", "s3-mapping",
                        "s3-chain", "cabin-mapping")
        manifest_out = "".join(
            f"{sid} ({sid.split('-')[1]}): 10/10 (100.0%)\n" for sid in scenario_ids)
        requests.append(_cli_request(
            "eval", ["eval", "--manifest", str(f / "harness/manifest.json"), "--runs", "10"],
            None, 0, _equals(manifest_out)))
        wins = _fault_successes(200, 0.3, 1, expected_entries=1)
        requests.append(_cli_request(
            "eval-fault", ["eval", "--manifest", str(f / "harness/manifest-fault.json"),
                           "--runs", "200", "--fault-rate", "0.3", "--seed", "1"],
            None, 0, _equals(f"cabin-mapping (mapping): {wins}/200 ({wins / 2:.1f}%)\n")))

        # deploy + verify of a finished run, recorded here once
        finished = out / "finished-run"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["--out", str(finished), "analyze-safety", "--code",
                             str(f / "code/s1.py"), *cat, "--rules", str(f / "rules/rules-s1.txt"),
                             "--replay", str(f / "replay/s1.json")])
        if code != 1:
            raise RuntimeError(f"recording the finished run exited {code}")
        expected_files = sorted(p.name for p in finished.iterdir())
        target = out / "deployed"

        def run_deploy():
            receipt = deploy.deploy_stub(finished, str(target))
            return receipt, deploy.verify_receipt(receipt)

        def check_deploy(result):
            receipt, mismatched = result
            size, digests = _artifacts(target)
            names = [name for name, _digest in receipt.files]
            if mismatched:
                return f"verify_receipt reports {mismatched}", size, digests
            if names != expected_files:
                return f"receipt lists {names}", size, digests
            return None, size, digests

        requests.append(Request("deploy-verify", run_deploy, check_deploy, target))
        return requests


# ---------------------------------------------------------------------------
# catalog-scale

CATALOG_LEAVES = 2400
CATALOG_MESSAGES = 600
CATALOG_MODES = ["single"] * 7 + ["retry"] * 3 + ["correct"] * 3


class CatalogScale:
    """Large synthetic catalogs; requests run ``run_safety_pipeline``."""

    name = "catalog-scale"

    def setup(self, seed: int, workdir: Path) -> list[Request]:
        rng = random.Random(seed)
        vss_text, leaves = gen.vss_catalog(rng, CATALOG_LEAVES)
        can_text, frames = gen.can_catalog(rng, CATALOG_MESSAGES)
        functions = gen.vehicle_functions(rng, leaves, frames, CATALOG_MODES)
        store_path = workdir / "store.json"
        recorder = llm_gateway.LlmGateway(
            mode="record", store=llm_gateway.ReplayStore(path=store_path),
            transport=gen.ScriptedTransport(functions))

        def analyze(fn, gateway, out_dir):
            config = pipeline_config.PipelineConfig(
                max_iterations=fn.expected_iterations, out_dir=str(out_dir))
            return runs.run_safety_pipeline(
                fn.code, vss_text, can_text, gen.SAFETY_RULES, gateway, config,
                out_dir=out_dir, auto_correct=fn.mode == "correct")

        for fn in functions:
            analyze(fn, recorder, workdir / "record" / fn.name)
        store = llm_gateway.ReplayStore.load(store_path)
        return [self._request(fn, analyze, store, workdir / "out" / fn.name)
                for fn in functions]

    @staticmethod
    def _request(fn, analyze, store, out_dir: Path) -> Request:
        def run():
            return analyze(fn, llm_gateway.LlmGateway(mode="replay", store=store), out_dir)

        def check(result):
            size, digests = _artifacts(out_dir)
            problem = None
            if result.verdict != fn.expected_verdict:
                problem = f"verdict {result.verdict}, expected {fn.expected_verdict}"
            elif len(result.iterations) != fn.expected_iterations:
                problem = f"{len(result.iterations)} iterations"
            for it in result.iterations:
                keys = tuple(a.resolved_key for a in it.extraction.accepted)
                if keys != fn.expected_keys or it.extraction.rejected:
                    problem = f"iteration {it.index} accepted {keys}"
            return problem, size, digests

        return Request(f"{fn.name}-{fn.mode}", run, check, out_dir)


# ---------------------------------------------------------------------------
# chain-scale

# (decisions, rules, violated rules) per diagram in the pool. The pool also
# holds LINEAR_CHAINS linear chains, a fixed share of every pass over it.
CHAIN_SCHEDULE = ((3, 4, 2), (4, 3, 1), (5, 2, 1), (6, 4, 2), (6, 1, 0), (7, 3, 2), (7, 2, 1),
                  (8, 2, 1), (8, 4, 1), (9, 1, 1), (9, 2, 0), (10, 1, 1), (10, 2, 1), (11, 1, 0),
                  (12, 1, 1))
LINEAR_CHAINS = 2
LINEAR_ACTIONS = 1500


def _chain_request(case: gen.ChainCase) -> Request:
    def run():
        graph = eventchain.parse_activity_diagram(case.diagram)
        document = eventchain.to_chain_document(graph)
        ruleset = safety_rules.parse_rules(case.rules)
        report = safety_rules.check(document, ruleset)
        return report, safety_rules.render_report(report)

    def check(result):
        report, text = result
        data = text.encode()
        verdicts = {r.rule.name: r.verdict for r in report.results}
        problem = None
        if verdicts != case.verdicts or report.overall != case.overall:
            problem = f"verdicts {verdicts}, expected {case.verdicts}"
        return problem, len(data), {"report": _sha(data)}

    return Request(case.name, run, check)


class ChainScale:
    """Deep decision diagrams plus one long linear chain per pool."""

    name = "chain-scale"

    def setup(self, seed: int, workdir: Path) -> list[Request]:
        rng = random.Random(seed)
        cases = [gen.activity_case(rng, f"chain{i}-d{d}-r{n}", d, n, v)
                 for i, (d, n, v) in enumerate(CHAIN_SCHEDULE)]
        cases += [gen.linear_case(rng, f"linear{i}", LINEAR_ACTIONS, 2)
                  for i in range(LINEAR_CHAINS)]
        return [_chain_request(case) for case in cases]


# ---------------------------------------------------------------------------
# topology-scale

TOPOLOGY_MESSAGES = 1200


class TopologyScale:
    """Large instance models checked by the static topology pipeline."""

    name = "topology-scale"

    def setup(self, seed: int, workdir: Path) -> list[Request]:
        rng = random.Random(seed)
        security = (FIXTURES / "topology/security.ocl").read_text(encoding="utf-8")
        cases = [gen.instance_case(rng, f"{form}-{'bad' if violate else 'ok'}",
                                   TOPOLOGY_MESSAGES, form, violate)
                 for form in ("json", "puml") for violate in (False, True)]
        return [self._request(case, security + "\n" + case.extra_constraints,
                              workdir / "out" / case.name) for case in cases]

    @staticmethod
    def _request(case: gen.TopologyCase, constraints: str, out_dir: Path) -> Request:
        config = pipeline_config.PipelineConfig(out_dir=str(out_dir))

        def run():
            return runs.run_topology_pipeline(None, config, model_text=case.model_text,
                                              constraints_text=constraints, out_dir=out_dir)

        def check(result):
            size, digests = _artifacts(out_dir)
            report = result.final_report
            failing = {(row.constraint, row.object_id) for row in report.failing}
            problem = None
            if result.verdict != case.verdict:
                problem = f"verdict {result.verdict}, expected {case.verdict}"
            elif failing != case.failing:
                problem = (f"{len(failing ^ case.failing)} failing rows differ "
                           f"from the planted ones")
            elif len(report.rows) != len(case.constraint_names) * case.objects:
                problem = f"{len(report.rows)} rows"
            return problem, size, digests

        return Request(case.name, run, check, out_dir)


WORKLOADS = {w.name: w for w in (Quickstart(), CatalogScale(), ChainScale(), TopologyScale())}
