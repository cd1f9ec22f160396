"""Command-line front end.

Exit codes are uniform across subcommands: 0 means the analysis ran and
passed, 1 means it ran and found violations (or, for ``extract-signals``,
rejected entries; for ``eval`` without fault injection, imperfect scores),
2 means the run itself failed — bad input, missing file, replay miss.

``main(argv)`` returns that exit code instead of exiting (argparse still
raises ``SystemExit(2)`` on a usage error), so it may be called any number
of times in one process. The argument parser is built on the first call and
reused by every later one.

Each call of the command line is its own process, so ``analyze-topology``
imports the topology package when it runs: the safety commands never load
it.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from ..errors import SdvGuardError
from ..eventchain import (
    generate_chain,
    parse_activity_diagram,
    parse_chain_document,
    serialize_chain,
    to_chain_document,
)
from ..safety_rules import VERDICT_PASS, check, parse_rules, render_report
from ..util import dump_json, read_text, write_atomic
from .config import PipelineConfig, build_gateway, load_config
from .harness import render_harness_report, run_eval_harness
from .runs import run_safety_pipeline_files, run_topology_pipeline
from .stages import catalog_index, extract_grounded, load_catalogs

_MODE_HELP = "replay completions from FILE instead of calling an endpoint"


def _add_store_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--replay", metavar="FILE", help=_MODE_HELP)
    group.add_argument("--record", metavar="FILE",
                       help="call the live endpoint and record completions into FILE")


def _config_for(args) -> PipelineConfig:
    mode = None
    store_path = None
    # an empty FILE (an unset shell variable) still selects the mode, so the
    # config check rejects it instead of the run falling back to the file's
    if getattr(args, "replay", None) is not None:
        mode, store_path = "replay", args.replay
    elif getattr(args, "record", None) is not None:
        mode, store_path = "record", args.record
    return load_config(
        args.config,
        mode=mode,
        store_path=store_path,
        top_k=getattr(args, "top_k", None),
        token_budget=getattr(args, "token_budget", None),
        max_iterations=getattr(args, "max_iterations", None),
        out_dir=args.out,
    )


def _cmd_analyze_safety(args) -> int:
    config = _config_for(args)
    gateway = build_gateway(config)
    result = run_safety_pipeline_files(args.code, args.vss, args.can, args.rules,
                                       gateway, config, auto_correct=args.auto_correct)
    print(render_report(result.final_report), end="")
    print(f"artifacts: {result.out_dir}")
    return 0 if result.verdict == VERDICT_PASS else 1


def _cmd_analyze_topology(args) -> int:
    from ..topology import default_metamodel, parse_metamodel, render_topology_report

    config = _config_for(args)
    metamodel = (parse_metamodel(read_text(args.metamodel, "metamodel"))
                 if args.metamodel else default_metamodel())
    # A gateway is only needed when something gets generated or corrected;
    # a static model + constraints check must work with no endpoint at all.
    needs_gateway = bool(args.requirements or args.guidelines or args.auto_correct)
    gateway = build_gateway(config) if needs_gateway else None
    result = run_topology_pipeline(
        gateway, config,
        metamodel=metamodel,
        model_text=read_text(args.model, "model") if args.model else None,
        requirements=(read_text(args.requirements, "requirements")
                      if args.requirements else None),
        constraints_text=(read_text(args.constraints, "constraints")
                          if args.constraints else None),
        guidelines=(read_text(args.guidelines, "guidelines")
                    if args.guidelines else None),
        auto_correct=args.auto_correct,
    )
    print(render_topology_report(result.final_report), end="")
    print(f"artifacts: {result.out_dir}")
    return 0 if result.verdict == VERDICT_PASS else 1


def _extract_from_files(args):
    """The grounded extraction that ``extract-signals`` and ``build-chain``
    both start with; returns the config, gateway, code and report."""
    config = _config_for(args)
    gateway = build_gateway(config)
    code = read_text(args.code, "code")
    catalogs = load_catalogs(args.vss, args.can)
    report = extract_grounded(code, *catalogs, catalog_index(*catalogs), gateway, config)
    return config, gateway, code, report


def _cmd_extract_signals(args) -> int:
    *_, report = _extract_from_files(args)
    print(dump_json(report.to_dict()), end="")
    return 1 if report.rejected else 0


def _cmd_build_chain(args) -> int:
    config, gateway, code, report = _extract_from_files(args)
    current_chain = (read_text(args.current_chain, "current chain")
                     if args.current_chain else "")
    diagram, document = generate_chain(code, current_chain, report.accepted, gateway)
    print(diagram, end="" if diagram.endswith("\n") else "\n")
    out_dir = Path(config.out_dir)
    write_atomic(out_dir / "chain.puml", diagram, "chain")
    write_atomic(out_dir / "chain.json", serialize_chain(document) + "\n", "chain")
    return 0


def _cmd_check_chain(args) -> int:
    chain_text = read_text(args.chain, "chain")
    if chain_text.lstrip().startswith("@startuml"):
        document = to_chain_document(parse_activity_diagram(chain_text))
    else:
        document = parse_chain_document(chain_text)
    ruleset = parse_rules(read_text(args.rules, "rules"))
    report = check(document, ruleset)
    print(render_report(report), end="")
    return 0 if report.overall == VERDICT_PASS else 1


def _cmd_eval(args) -> int:
    report = run_eval_harness(
        args.manifest, runs=args.runs, fault_rate=args.fault_rate, seed=args.seed)
    print(render_harness_report(report), end="")
    if args.fault_rate == 0.0 and not report.all_perfect:
        return 1
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared after it.

    Parsing leaves the parser as it was, and argparse reads the terminal
    width and ``sys.stderr`` when it prints, not when the parser is built.
    """
    parser = argparse.ArgumentParser(
        prog="sdv-guard",
        description="Pre-deployment functional-safety and security analysis "
                    "for software-defined-vehicle artifacts.",
    )
    parser.add_argument("--config", metavar="FILE",
                        help="JSON configuration file (defaults apply without it)")
    parser.add_argument("--out", metavar="DIR", default=None,
                        help="artifact output directory (default: out)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze-safety",
                       help="extract signals, build the event chain, check rules")
    p.add_argument("--code", required=True, metavar="FILE")
    p.add_argument("--vss", required=True, metavar="FILE")
    p.add_argument("--can", required=True, metavar="FILE")
    p.add_argument("--rules", required=True, metavar="FILE")
    p.add_argument("--auto-correct", action="store_true",
                   help="on violations, request corrected code and iterate")
    p.add_argument("--top-k", type=int, default=None)
    p.add_argument("--token-budget", type=int, default=None)
    p.add_argument("--max-iterations", type=int, default=None)
    _add_store_flags(p)

    p = sub.add_parser("analyze-topology",
                       help="check an instance model against security constraints")
    p.add_argument("--metamodel", metavar="FILE",
                   help="metamodel JSON (defaults to the built-in one)")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--model", metavar="FILE",
                        help="instance model (JSON or object-diagram text)")
    source.add_argument("--requirements", metavar="FILE",
                        help="requirements text to generate the model from")
    rules = p.add_mutually_exclusive_group(required=True)
    rules.add_argument("--constraints", metavar="FILE",
                       help="constraint file to check against")
    rules.add_argument("--guidelines", metavar="FILE",
                       help="guideline text to generate constraints from")
    p.add_argument("--auto-correct", action="store_true",
                   help="on failures, request a corrected model and iterate")
    p.add_argument("--max-iterations", type=int, default=None)
    _add_store_flags(p)

    p = sub.add_parser("extract-signals",
                       help="run grounded extraction and print the report")
    p.add_argument("--code", required=True, metavar="FILE")
    p.add_argument("--vss", required=True, metavar="FILE")
    p.add_argument("--can", required=True, metavar="FILE")
    p.add_argument("--top-k", type=int, default=None)
    p.add_argument("--token-budget", type=int, default=None)
    _add_store_flags(p)

    p = sub.add_parser("build-chain",
                       help="generate the event-chain diagram for code")
    p.add_argument("--code", required=True, metavar="FILE")
    p.add_argument("--vss", required=True, metavar="FILE")
    p.add_argument("--can", required=True, metavar="FILE")
    p.add_argument("--current-chain", metavar="FILE",
                   help="existing diagram to update instead of starting fresh")
    _add_store_flags(p)

    p = sub.add_parser("check-chain",
                       help="check an existing chain (diagram or document) against rules")
    p.add_argument("--chain", required=True, metavar="FILE")
    p.add_argument("--rules", required=True, metavar="FILE")

    p = sub.add_parser("eval", help="run the scenario evaluation harness")
    p.add_argument("--manifest", required=True, metavar="FILE")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--fault-rate", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=None)

    return parser


def _escaped(text: str) -> str:
    """``text`` with each character that is not printable written as ``repr``
    writes it (``\\x1b``, ``\\x00``), so that a file name or catalog name in an
    error line cannot drive the terminal."""
    return "".join(c if c.isprintable() else repr(c)[1:-1] for c in text)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # looked up at each call, so a handler rebound on this module is the one run
    handler = globals()["_cmd_" + args.command.replace("-", "_")]
    try:
        return handler(args)
    except SdvGuardError as exc:
        print(f"error: {_escaped(str(exc))}", file=sys.stderr)
        return 2
    except Exception as exc:  # fail closed: no traceback, no silent pass
        print(f"internal error: {type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
