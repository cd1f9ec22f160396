"""Term-at-a-time stage 1 against the per-entry BM25 scorer it replaced.

The reference below is the previous implementation, kept verbatim: an index
that stores every entry's tokens and length, ``bm25_score`` summing one
entry's distinct query terms in sorted order, ``score_stage1`` scoring every
entry and sorting all of them by (-score, key), and the pool slice of
``retrieve_top_k``. Stage 2 (``rerank``) did not change, so the reference
uses the program's. Rankings must be equal and scores equal bit for bit,
not within a tolerance: both sides add the same floats in the same order.
Scores are compared as ``float.hex()``, which also tells -0.0 from 0.0.

The index tokenizes a corpus of ASCII texts without line breaks in one pass
over the joined text, and any other corpus text by text; both paths are
compared with the reference, which tokenizes each text on its own.
"""

import math
import random
import sys
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sdv_guard import util
from sdv_guard.catalog import CatalogEntry, parse_can_catalog, parse_vss_catalog
from sdv_guard.pipeline.stages import catalog_index
from sdv_guard.retrieval import (
    BM25_B,
    BM25_K1,
    POOL_FACTOR,
    RankedEntry,
    build_index,
    rerank,
    retrieve_top_k,
    score_stage1,
)
from sdv_guard.util import tokenize

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench import generators as gen  # noqa: E402
from bench.workloads import CATALOG_LEAVES, CATALOG_MESSAGES  # noqa: E402


class ReferenceIndex:
    def __init__(self, entries: tuple[CatalogEntry, ...]):
        self.entries = entries
        self.doc_tokens = tuple(tuple(tokenize(e.text)) for e in entries)
        self.doc_lengths = tuple(len(toks) for toks in self.doc_tokens)
        total = sum(self.doc_lengths)
        self.avg_doc_length = total / len(entries) if entries else 0.0
        postings: dict[str, dict[int, int]] = {}
        for pos, toks in enumerate(self.doc_tokens):
            for tok in toks:
                postings.setdefault(tok, {})
                postings[tok][pos] = postings[tok].get(pos, 0) + 1
        self.postings = postings


def bm25_score(index: ReferenceIndex, query_tokens: list[str], position: int) -> float:
    """BM25 score of one entry for the given query tokens (distinct terms)."""
    n_docs = len(index.entries)
    dl = index.doc_lengths[position]
    norm = BM25_K1 * (1 - BM25_B + BM25_B * dl / index.avg_doc_length)
    score = 0.0
    for term in sorted(set(query_tokens)):
        posting = index.postings.get(term)
        if not posting:
            continue
        tf = posting.get(position, 0)
        if tf == 0:
            continue
        df = len(posting)
        idf = math.log(1 + (n_docs - df + 0.5) / (df + 0.5))
        score += idf * tf * (BM25_K1 + 1) / (tf + norm)
    return score


def reference_score_stage1(index: ReferenceIndex, query: str) -> list[RankedEntry]:
    """Rank every entry for the query; empty-token queries rank nothing."""
    query_tokens = tokenize(query)
    if not query_tokens:
        return []
    ranked = [
        RankedEntry(entry=entry, stage1_score=bm25_score(index, query_tokens, pos))
        for pos, entry in enumerate(index.entries)
    ]
    ranked.sort(key=lambda r: (-r.stage1_score, r.key))
    return ranked


def reference_pool(index: ReferenceIndex, ranked: list[RankedEntry], k: int):
    return ranked[: min(POOL_FACTOR * k, len(index.entries))]


def _stage1(ranked) -> list[tuple[str, str]]:
    return [(r.key, r.stage1_score.hex()) for r in ranked]


def _both_stages(ranked) -> list[tuple[str, str, str]]:
    return [(r.key, r.stage1_score.hex(), r.stage2_score.hex()) for r in ranked]


def _assert_matches_reference(entries, query: str, k: int) -> None:
    reference = ReferenceIndex(entries)
    pool = reference_pool(reference, reference_score_stage1(reference, query), k)
    index = build_index(entries)
    assert _stage1(score_stage1(index, query, k)) == _stage1(pool)
    assert _both_stages(retrieve_top_k(index, query, k)) == \
        _both_stages(rerank(pool, query)[:k])


WORDS = ("brake", "lamp", "door", "seat", "a", "b")


@st.composite
def corpora(draw) -> tuple[CatalogEntry, ...]:
    """Entries drawn from a few texts, so identical texts (score ties) are
    common; keys are a permutation of the positions, so key order and
    position order differ."""
    texts = draw(st.lists(
        st.lists(st.sampled_from(WORDS), max_size=6).map(" ".join),
        min_size=1, max_size=5,
    ))
    picks = draw(st.lists(st.integers(0, len(texts) - 1), min_size=1, max_size=16))
    keys = draw(st.permutations(range(len(picks))))
    return tuple(CatalogEntry(key=f"k{keys[pos]:02d}", protocol="VSS", text=texts[pick])
                 for pos, pick in enumerate(picks))


def _corpus(*texts: str) -> tuple[CatalogEntry, ...]:
    """Keys in reverse position order."""
    return tuple(CatalogEntry(key=f"k{len(texts) - pos:02d}", protocol="VSS", text=text)
                 for pos, text in enumerate(texts))


@settings(max_examples=400, derandomize=True, deadline=None)
@given(
    entries=corpora(),
    query=st.lists(st.sampled_from(WORDS + ("ghost", "...")), max_size=7).map(" ".join),
    k=st.integers(min_value=1, max_value=20),
)
# one scored entry, so the pool is filled with zero-score entries
@example(entries=_corpus("lamp", "lamp", "door", "seat", "a", "brake"), query="brake", k=1)
# three terms hit one entry, so the order of the sum shows in the last bits
@example(entries=_corpus("brake brake lamp door", "lamp", "door door seat", "seat",
                         "brake a b", "a a a"),
         query="door lamp brake seat", k=2)
def test_term_at_a_time_matches_the_per_entry_scorer(entries, query, k):
    # the reference divides by a zero average length when no entry has a token
    assume(any(tokenize(e.text) for e in entries))
    _assert_matches_reference(entries, query, k)


def test_entries_without_tokens_score_zero_in_key_order():
    # the per-entry scorer divided by a zero average length here
    entries = _corpus("...", "", "--")
    assert _stage1(score_stage1(build_index(entries), "brake", k=1)) == [
        ("k01", "0x0.0p+0"), ("k02", "0x0.0p+0"), ("k03", "0x0.0p+0")]


# the first four words send a corpus down the per-text path: three are not
# ASCII (lowercasing keeps "ß", turns "İ" into "i" and a combining dot, and a
# final "Σ" into "ς") and one holds a line break. "\r" and "\x1c" end lines
# for str.splitlines but only separate tokens here.
ODD_WORDS = ("Straße", "İNFO", "ΟΔΟΣ door", "brake\nlamp", "a\rb", "seat\x1cdoor",
             "", "...", "BRAKE-Lamp", "K9")


@st.composite
def odd_corpora(draw, words) -> tuple[CatalogEntry, ...]:
    texts = draw(st.lists(st.lists(st.sampled_from(words), max_size=4).map(" ".join),
                          min_size=1, max_size=12))
    keys = draw(st.permutations(range(len(texts))))
    return tuple(CatalogEntry(key=f"k{keys[pos]:02d}", protocol="VSS", text=text)
                 for pos, text in enumerate(texts))


@pytest.mark.parametrize("words", [WORDS + ODD_WORDS, WORDS + ODD_WORDS[4:]],
                         ids=["any-text", "ascii-one-line"])
@settings(max_examples=300, derandomize=True, deadline=None)
@given(data=st.data(), k=st.integers(min_value=1, max_value=20))
def test_odd_texts_rank_as_the_per_entry_scorer(words, data, k):
    entries = data.draw(odd_corpora(words))
    query = data.draw(st.lists(st.sampled_from(words + ("ghost",)), max_size=5).map(" ".join))
    assume(any(tokenize(e.text) for e in entries))
    _assert_matches_reference(entries, query, k)


def _tokenize_calls(entries) -> int:
    """How many texts ``build_index`` tokenizes one by one."""
    calls = 0

    def counted(text):
        nonlocal calls
        calls += 1
        return tokenize(text)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(util, "tokenize", counted)
        build_index(entries)
    return calls


@pytest.mark.parametrize("texts, one_by_one", [
    (("brake lamp", "a\rb", "seat\x1cdoor", "", "..."), False),
    (("brake lamp", "brake\nlamp"), True),
    (("brake lamp", "Straße"), True),
    (("brake lamp", "İ"), True),
    (("\n",), True),
    (("",), False),
])
def test_only_ascii_texts_without_line_breaks_are_tokenized_joined(texts, one_by_one):
    entries = _corpus(*texts)
    assert _tokenize_calls(entries) == (len(entries) if one_by_one else 0)
    if any(tokenize(text) for text in texts):
        _assert_matches_reference(entries, "brake lamp door stra i", 2)


def _bench_catalogs(seed: int):
    rng = random.Random(seed)
    vss_text, leaves = gen.vss_catalog(rng, CATALOG_LEAVES)
    can_text, frames = gen.can_catalog(rng, CATALOG_MESSAGES)
    functions = gen.vehicle_functions(rng, leaves, frames, ["single"] * 24)
    return (parse_vss_catalog(vss_text), parse_can_catalog(can_text),
            [fn.code for fn in functions])


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_bench_catalogs_rank_as_the_per_entry_scorer(seed):
    signal_catalog, message_catalog, codes = _bench_catalogs(seed)
    index = catalog_index(signal_catalog, message_catalog)
    assert _tokenize_calls(index.entries) == 0  # the joined-text path
    reference = ReferenceIndex(index.entries)
    n_entries = len(index.entries)
    for code in codes:
        ranked = reference_score_stage1(reference, code)
        # k = N: the pool is the whole stage-1 ranking
        assert _stage1(score_stage1(index, code, n_entries)) == _stage1(ranked)
        pool = reference_pool(reference, ranked, 20)
        assert _both_stages(retrieve_top_k(index, code, 20)) == \
            _both_stages(rerank(pool, code)[:20])
