"""Retrieval ranking and chunking, and the check that retrieval stays offline.

The three-document ranking test pins scores computed by hand from the
documented formula (k1 = 1.2, b = 0.75, idf = ln(1 + (N - df + 0.5) /
(df + 0.5))) so a formula regression cannot hide behind its own output.
"""

import ast
import math
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdv_guard.catalog import CatalogEntry
from sdv_guard.errors import ChunkingError, ConfigurationError
from sdv_guard.retrieval import (
    build_index,
    chunk_entries,
    retrieve_top_k,
    score_stage1,
)
from sdv_guard.util import token_estimate, tokenize


def _entry(key: str, text: str) -> CatalogEntry:
    return CatalogEntry(key=key, protocol="VSS", text=text)


THREE_DOCS = (
    _entry("e1", "ADAS brake command actuator"),   # dl = 4
    _entry("e2", "cabin light"),                   # dl = 2
    _entry("e3", "pedestrian detection camera"),   # dl = 3
)

# query "pedestrian brake": each term hits exactly one document, df = 1,
# idf = ln(1 + (3 - 1 + 0.5) / 1.5) = ln(8/3); avgdl = 3.
#   e1: tf=1, norm = 1.2*(0.25 + 0.75*4/3) = 1.5 -> idf * 2.2 / 2.5
#   e3: tf=1, norm = 1.2*(0.25 + 0.75*3/3) = 1.2 -> idf * 2.2 / 2.2 = idf
#   e2: no hit -> 0
IDF = math.log(8 / 3)
EXPECTED = {"e1": IDF * 2.2 / 2.5, "e2": 0.0, "e3": IDF}


def test_bm25_three_document_oracle():
    index = build_index(THREE_DOCS)
    scores = {r.key: r.stage1_score
              for r in retrieve_top_k(index, "pedestrian brake", k=3).ranked}
    for key, want in EXPECTED.items():
        assert scores[key] == pytest.approx(want, abs=1e-9)
    # frozen literals, so the formula cannot drift silently
    assert IDF == pytest.approx(0.9808292530117262, abs=1e-12)
    assert EXPECTED["e1"] == pytest.approx(0.8631297426503191, abs=1e-12)


def test_ranking_rerank_tie_broken_by_stage1():
    # both hits contain exactly one of the two query tokens -> overlap ties
    # at 0.5 and the stage-1 score decides: e3 (1.2 norm) beats e1 (1.5 norm)
    index = build_index(THREE_DOCS)
    shortlist = retrieve_top_k(index, "pedestrian brake", k=3)
    assert [r.key for r in shortlist.ranked] == ["e3", "e1", "e2"]
    assert shortlist.ranked[0].stage2_score == shortlist.ranked[1].stage2_score == 0.5
    assert shortlist.ranked[0].stage1_score > shortlist.ranked[1].stage1_score


def test_ranking_is_deterministic_across_repeats():
    index = build_index(THREE_DOCS)
    first = [r.key for r in retrieve_top_k(index, "pedestrian brake", k=2).ranked]
    for _ in range(9):
        again = [r.key for r in retrieve_top_k(index, "pedestrian brake", k=2).ranked]
        assert again == first


def test_all_equal_scores_fall_back_to_key_order():
    entries = tuple(_entry(k, "same text") for k in ("b", "c", "a"))
    index = build_index(entries)
    shortlist = retrieve_top_k(index, "same", k=3)
    assert [r.key for r in shortlist.ranked] == ["a", "b", "c"]


def test_empty_query_ranks_nothing():
    index = build_index(THREE_DOCS)
    assert score_stage1(index, "...") == []
    shortlist = retrieve_top_k(index, "???", k=2)
    assert shortlist.ranked == ()
    assert chunk_entries(shortlist) == []


def test_k_larger_than_corpus_returns_everything():
    index = build_index(THREE_DOCS)
    assert len(retrieve_top_k(index, "brake light camera", k=50).ranked) == 3


def test_bad_inputs_rejected():
    with pytest.raises(ConfigurationError):
        build_index(())
    with pytest.raises(ConfigurationError, match="duplicate entry key"):
        build_index((_entry("x", "a"), _entry("x", "b")))
    index = build_index(THREE_DOCS)
    with pytest.raises(ConfigurationError):
        retrieve_top_k(index, "brake", k=0)


def _stage1_score(entries, query: str, position: int) -> float:
    # k = N puts every entry in the stage-1 pool
    ranked = retrieve_top_k(build_index(entries), query, k=len(entries)).ranked
    return {r.key: r.stage1_score for r in ranked}[entries[position].key]


@settings(max_examples=200, deadline=None)
@given(
    docs=st.lists(
        st.lists(st.sampled_from("abcdef"), min_size=1, max_size=8),
        min_size=2, max_size=6,
    ),
    position=st.integers(min_value=0, max_value=5),
)
def test_duplicating_the_query_token_never_lowers_a_single_token_score(docs, position):
    """Single-token queries: one more occurrence of the token in an entry can
    only raise that entry's score. (Multi-token queries lack this guarantee
    because the duplicate also lengthens the document for the other terms.)"""
    position %= len(docs)
    token = docs[position][0]
    entries = tuple(
        _entry(f"d{i}", " ".join(words)) for i, words in enumerate(docs)
    )
    longer = list(docs)
    longer[position] = longer[position] + [token]
    entries_dup = tuple(
        _entry(f"d{i}", " ".join(words)) for i, words in enumerate(longer)
    )
    before = _stage1_score(entries, token, position)
    after = _stage1_score(entries_dup, token, position)
    assert after >= before - 1e-12


# ---------------------------------------------------------------------------
# chunking


def test_chunking_conserves_entries_and_respects_budget():
    entries = tuple(_entry(f"k{i:03d}", f"entry number {i} " + "x" * (i % 37))
                    for i in range(200))
    index = build_index(entries)
    shortlist = retrieve_top_k(index, "entry number", k=200)
    budget = 120
    chunks = chunk_entries(shortlist, token_budget=budget)
    assert len(chunks) > 1
    flattened = [e.key for chunk in chunks for e in chunk.entries]
    assert flattened == [r.key for r in shortlist.ranked]
    for chunk in chunks:
        assert chunk.token_estimate <= budget
        assert chunk.token_estimate == sum(token_estimate(e.text) for e in chunk.entries)


def test_chunking_entry_over_budget_is_an_error():
    index = build_index((_entry("big", "word " * 100),))
    shortlist = retrieve_top_k(index, "word", k=1)
    with pytest.raises(ChunkingError, match="over the budget"):
        chunk_entries(shortlist, token_budget=10)
    with pytest.raises(ConfigurationError):
        chunk_entries(shortlist, token_budget=0)


# ---------------------------------------------------------------------------
# offline


SRC = Path(__file__).resolve().parents[1] / "src" / "sdv_guard"


def _imports_requests(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        if any(module.split(".")[0] == "requests" for module in modules):
            return True
    return False


def test_only_the_live_gateway_and_deployment_import_requests():
    # retrieval and every other layer run offline; the completion endpoint and
    # the deployment endpoint are the only network paths
    importers = {
        path.relative_to(SRC).as_posix() for path in sorted(SRC.rglob("*.py"))
        if _imports_requests(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert importers == {"llm_gateway.py", "pipeline/deploy.py"}


def test_retrieval_defines_no_per_entry_scorer():
    # stage 1 has one scorer, the term-at-a-time accumulation in score_stage1;
    # the per-entry bm25_score lives on only as the test oracle
    tree = ast.parse((SRC / "retrieval.py").read_text(encoding="utf-8"))
    defined = {node.name for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    defined |= {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
    assert "bm25_score" not in defined
    assert "score_stage1" in defined


@settings(max_examples=500, derandomize=True, deadline=None)
@given(st.one_of(st.text(alphabet=st.characters(max_codepoint=127)),
                 st.text(alphabet="aZ9 _.-\tİKßﬁ١é\u2003", max_size=12),
                 st.text()))
def test_tokenize_is_the_alphanumeric_runs_of_the_lowercased_text(text):
    # ASCII text takes a faster path; it must find the same tokens
    assert tokenize(text) == re.findall(r"[a-z0-9]+", text.lower())
