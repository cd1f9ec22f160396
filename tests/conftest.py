"""Shared fixtures: repository paths, parsed catalogs, scripted gateways,
straight-line chains."""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from sdv_guard.catalog import parse_can_catalog, parse_vss_catalog
from sdv_guard.eventchain import ActivityGraph, ChainDocument, Edge, Node
from sdv_guard.llm_gateway import LlmGateway, ReplayStore
from sdv_guard.safety_rules import RuleAtom, RuleSet, SafetyRule, check

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "fixtures"


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def vss_text() -> str:
    return (FIXTURES / "catalogs" / "vss.json").read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def can_text() -> str:
    return (FIXTURES / "catalogs" / "can.json").read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def signal_catalog(vss_text):
    return parse_vss_catalog(vss_text)


@pytest.fixture(scope="session")
def message_catalog(can_text):
    return parse_can_catalog(can_text)


def write_dies_half_way(monkeypatch) -> None:
    """Until ``monkeypatch.undo()``, every ``os.write``, the call through which
    ``util.write_atomic`` writes each file, writes half its bytes and then
    raises ``OSError("disk full")``."""
    real_write = os.write

    def crash_mid_write(fd, data):
        real_write(fd, data[: len(data) // 2])
        raise OSError("disk full")

    monkeypatch.setattr(os, "write", crash_mid_write)


def scripted_gateway(completions, record_prompts=None) -> LlmGateway:
    """Live-mode gateway whose transport pops canned completions in order.

    ``completions`` may also hold callables taking the prompt text, for
    responses that depend on what was asked.
    """
    queue = list(completions)

    def transport(payload: dict) -> dict:
        prompt = payload["messages"][0]["content"]
        if record_prompts is not None:
            record_prompts.append(prompt)
        if not queue:
            raise AssertionError(f"no scripted completion left for: {prompt[:80]}")
        item = queue.pop(0)
        content = item(prompt) if callable(item) else item
        return {"choices": [{"message": {"content": content}}]}

    return LlmGateway(mode="live", transport=transport, base_url="scripted:")


def replay_gateway(store_name: str) -> LlmGateway:
    store = ReplayStore.load(FIXTURES / "replay" / f"{store_name}.json")
    return LlmGateway(mode="replay", store=store)


def linear_chain(events) -> ChainDocument:
    """A straight-line document: start -> one action per event -> stop."""
    nodes = [Node(id="s", kind="start")]
    edges = []
    prev = "s"
    for i, event in enumerate(events):
        node_id = f"a{i}"
        nodes.append(Node(id=node_id, kind="action", label=event))
        edges.append(Edge(src=prev, dst=node_id))
        prev = node_id
    nodes.append(Node(id="z", kind="stop"))
    edges.append(Edge(src=prev, dst="z"))
    graph = ActivityGraph(nodes=tuple(nodes), edges=tuple(edges))
    return ChainDocument(graph=graph,
                         events=tuple((f"a{i}", e) for i, e in enumerate(events)))


def atom_holds(events, atom: RuleAtom, aliases=()) -> bool:
    """Whether ``atom``, with the given alias lines, holds on the one path of
    a straight-line chain of ``events``, as ``check`` finds it."""
    rule = SafetyRule(name="r", expr=atom, aliases=tuple(aliases))
    return check(linear_chain(events), RuleSet(rules=(rule,))).overall == "pass"
