"""Two-stage retrieval over catalog entries, plus token-budgeted chunking.

Stage 1 ranks entries lexically with BM25 (k1 = 1.2, b = 0.75; idf(t) =
ln(1 + (N - df + 0.5) / (df + 0.5)); the score sums over distinct query
terms, added term-at-a-time over their postings in sorted order, so every
score is bit-identical to the per-entry formula). A posting lists the entry
position of each occurrence of its term, so a query counts tf and df, and
works out idf, for its own terms only. The pool is the first
min(4k, N) entries by (-score, key); entries no term hits score 0 and fill
it in key order. Stage 2 reranks the pool by the fraction of distinct query
tokens present in the entry text, breaking ties by stage-1 score and then by
key. Both stages run offline, inside this module.

An index is immutable once built, so one index serves every query of a run.
Retrieval is entirely deterministic: same entries + same query give the same
ranking, byte for byte.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from dataclasses import dataclass

from .catalog import CatalogEntry
from .errors import ChunkingError, ConfigurationError
from .util import token_estimate, tokenize, tokenize_each

BM25_K1 = 1.2
BM25_B = 0.75

DEFAULT_TOP_K = 20
DEFAULT_TOKEN_BUDGET = 4096

# stage-1 candidate pool size, as a multiple of the requested k
POOL_FACTOR = 4


@dataclass(frozen=True)
class RankedEntry:
    entry: CatalogEntry
    stage1_score: float
    stage2_score: float = 0.0

    @property
    def key(self) -> str:
        return self.entry.key


@dataclass(frozen=True)
class ShortList:
    query: str
    ranked: tuple[RankedEntry, ...]
    k: int


@dataclass(frozen=True)
class Chunk:
    entries: tuple[CatalogEntry, ...]
    token_estimate: int

    def text(self) -> str:
        return "\n".join(entry.text for entry in self.entries)


class RetrievalIndex:
    """Positional inverted index with each entry's length norm; immutable."""

    def __init__(self, entries: tuple[CatalogEntry, ...]):
        self.entries = entries
        # term -> the position of each of its occurrences, ascending
        self.postings = postings = {}
        get = postings.get
        lengths = []  # each entry's token count; its tokens are dropped once posted
        for pos, tokens in enumerate(tokenize_each([entry.text for entry in entries])):
            lengths.append(len(tokens))
            for tok in tokens:
                posting = get(tok)
                if posting is None:
                    postings[tok] = [pos]
                else:
                    posting.append(pos)
        avg_doc_length = sum(lengths) / len(entries) if entries else 0.0
        # an entry without tokens has no postings, so its norm is never read
        self.norms = tuple(BM25_K1 * (1 - BM25_B + BM25_B * length / avg_doc_length)
                           if length else 0.0 for length in lengths)

    def __len__(self) -> int:
        return len(self.entries)


def build_index(entries) -> RetrievalIndex:
    entries = tuple(entries)
    if not entries:
        raise ConfigurationError("cannot build a retrieval index over zero entries")
    keys = [entry.key for entry in entries]
    if len(set(keys)) != len(keys):
        seen: set[str] = set()
        for key in keys:
            if key in seen:
                raise ConfigurationError(f"duplicate entry key '{key}' in index")
            seen.add(key)
    return RetrievalIndex(entries)


def score_stage1(index: RetrievalIndex, query: str, k: int = DEFAULT_TOP_K) -> list[RankedEntry]:
    """The stage-1 pool: min(4k, N) entries by (-score, key); empty-token queries rank nothing."""
    query_tokens = tokenize(query)
    if not query_tokens:
        return []
    entries, norms = index.entries, index.norms
    scores: dict[int, float] = {}
    get = scores.get
    k1_plus_1 = BM25_K1 + 1
    for term in sorted(index.postings.keys() & query_tokens):
        tfs = Counter(index.postings[term])  # position -> tf; df is its length
        idf = math.log(1 + (len(entries) - len(tfs) + 0.5) / (len(tfs) + 0.5))
        for pos, tf in tfs.items():
            scores[pos] = get(pos, 0.0) + idf * tf * k1_plus_1 / (tf + norms[pos])
    size = min(POOL_FACTOR * k, len(entries))
    ranked = [(-score, entries[pos].key, pos) for pos, score in scores.items()]
    if len(ranked) < size:
        # entries no term hits: after every hit, in key order; -(-0.0) is 0.0
        ranked += [(-0.0, entry.key, pos) for pos, entry in enumerate(entries) if pos not in scores]
    return [RankedEntry(entry=entries[pos], stage1_score=-neg)
            for neg, _key, pos in heapq.nsmallest(size, ranked)]


def rerank(candidates: list[RankedEntry], query: str) -> list[RankedEntry]:
    """Stage 2: score candidates by query-token overlap.

    The stage-2 score is |query tokens present in the entry| / |query
    tokens|, over distinct tokens. Ordering: stage-2 score descending, then
    stage-1 score descending, then key ascending.
    """
    query_tokens = set(tokenize(query))
    rescored = []
    for cand in candidates:
        if query_tokens:
            present = query_tokens.intersection(tokenize(cand.entry.text))
            overlap = len(present) / len(query_tokens)
        else:
            overlap = 0.0
        rescored.append(RankedEntry(
            entry=cand.entry, stage1_score=cand.stage1_score, stage2_score=overlap,
        ))
    rescored.sort(key=lambda r: (-r.stage2_score, -r.stage1_score, r.key))
    return rescored


def retrieve_top_k(index: RetrievalIndex, query: str, k: int = DEFAULT_TOP_K) -> ShortList:
    """Stage-1 pool of min(4k, |entries|) candidates, reranked, truncated to k."""
    if k < 1:
        raise ConfigurationError(f"top-k must be at least 1, got {k}")
    reranked = rerank(score_stage1(index, query, k), query)
    return ShortList(query=query, ranked=tuple(reranked[:k]), k=k)


def chunk_entries(shortlist: ShortList, token_budget: int = DEFAULT_TOKEN_BUDGET) -> list[Chunk]:
    """Greedily pack shortlist entries, in rank order, into budget-bounded chunks.

    Each entry's cost is token_estimate(entry.text); a chunk's estimate is the
    sum of its entries' estimates and never exceeds the budget. An entry that
    alone exceeds the budget is an error.
    """
    if token_budget < 1:
        raise ConfigurationError(f"token budget must be at least 1, got {token_budget}")
    chunks: list[Chunk] = []
    current: list[CatalogEntry] = []
    current_cost = 0
    for ranked in shortlist.ranked:
        entry = ranked.entry
        cost = token_estimate(entry.text)
        if cost > token_budget:
            raise ChunkingError(
                f"entry '{entry.key}' needs {cost} tokens, over the budget of {token_budget}"
            )
        if current and current_cost + cost > token_budget:
            chunks.append(Chunk(entries=tuple(current), token_estimate=current_cost))
            current = []
            current_cost = 0
        current.append(entry)
        current_cost += cost
    if current:
        chunks.append(Chunk(entries=tuple(current), token_estimate=current_cost))
    return chunks
