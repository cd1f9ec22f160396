"""Stage helpers shared by the analysis runs and the evaluation harness.

Each helper is a thin composition of the module-level operations; the value
here is that runs and the harness execute the *same* code path, so a replay
store recorded by one is valid for the other.
"""

from __future__ import annotations

from pathlib import Path

from ..catalog import Catalog, parse_can_catalog, parse_vss_catalog
from ..extraction import ExtractionReport, run_extraction
from ..llm_gateway import LlmGateway
from ..retrieval import Chunk, RetrievalIndex, build_index, chunk_entries, retrieve_top_k
from ..util import read_text
from .config import PipelineConfig


def load_catalogs(vss_path: str | Path, can_path: str | Path,
                  ) -> tuple[Catalog, Catalog]:
    signal_catalog = parse_vss_catalog(read_text(vss_path, "VSS catalog"))
    message_catalog = parse_can_catalog(read_text(can_path, "CAN catalog"))
    return signal_catalog, message_catalog


def catalog_index(signal_catalog: Catalog, message_catalog: Catalog) -> RetrievalIndex:
    """The one retrieval index of a run, over both catalogs' entries; a key
    present in both is a ConfigurationError."""
    return build_index(signal_catalog.entries + message_catalog.entries)


def ground_code(code: str, index: RetrievalIndex, top_k: int,
                token_budget: int) -> list[Chunk]:
    """Retrieve the catalog entries most relevant to the code and chunk them."""
    return chunk_entries(retrieve_top_k(index, code, k=top_k), token_budget=token_budget)


def extract_grounded(code: str, signal_catalog: Catalog,
                     message_catalog: Catalog, index: RetrievalIndex,
                     gateway: LlmGateway, config: PipelineConfig) -> ExtractionReport:
    """Ground the code in the catalogs' index, then extract and validate it
    with the configured retries."""
    chunks = ground_code(code, index, config.top_k, config.token_budget)
    return run_extraction(code, chunks, gateway, signal_catalog, message_catalog,
                          max_retries=config.max_extraction_retries)
