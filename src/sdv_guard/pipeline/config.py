"""Run configuration: defaults, file loading, and gateway construction."""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

from ..errors import ConfigurationError
from ..llm_gateway import MODES, LlmGateway, ReplayStore
from ..retrieval import DEFAULT_TOKEN_BUDGET, DEFAULT_TOP_K
from ..util import load_json, read_text

# the Python types each field annotation admits; a JSON boolean is no int
_FIELD_TYPES = {
    "int": int, "str": str, "float | None": (int, float, type(None)),
    "str | None": (str, type(None)),
}


@dataclass(frozen=True)
class PipelineConfig:
    """A run's settings, checked when built: a field of the wrong type or out
    of range is a ``ConfigurationError``, whether the config comes from
    ``load_config`` or from a library caller."""

    top_k: int = DEFAULT_TOP_K
    token_budget: int = DEFAULT_TOKEN_BUDGET
    max_iterations: int = 3
    max_extraction_retries: int = 1
    mode: str = "live"
    model: str = "default"
    temperature: float | None = None
    store_path: str | None = None  # replay/record store file
    base_url: str | None = None
    api_key: str | None = None
    out_dir: str = "out"

    def __post_init__(self):
        _validate(self)


def _validate(config: PipelineConfig) -> None:
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, bool) or not isinstance(value, _FIELD_TYPES[f.type]):
            raise ConfigurationError(f"{f.name} must be of type {f.type}, got {value!r}")
    if config.top_k < 1:
        raise ConfigurationError(f"top_k must be at least 1, got {config.top_k}")
    if config.token_budget < 1:
        raise ConfigurationError(
            f"token_budget must be at least 1, got {config.token_budget}")
    if config.max_iterations < 1:
        raise ConfigurationError(
            f"max_iterations must be at least 1, got {config.max_iterations}")
    if config.max_extraction_retries < 0:
        raise ConfigurationError("max_extraction_retries cannot be negative")
    if config.mode not in MODES:
        raise ConfigurationError(f"unknown mode '{config.mode}'")
    if config.mode in ("replay", "record") and not config.store_path:
        raise ConfigurationError(f"mode '{config.mode}' needs a store_path")
    if not config.out_dir:  # Path("") is the current directory
        raise ConfigurationError("out_dir must not be empty")


def load_config(path: str | Path | None = None, **overrides) -> PipelineConfig:
    """Build a config from an optional JSON file plus keyword overrides.

    File keys mirror the dataclass fields; unknown keys are rejected rather
    than silently ignored. Overrides win over the file, the file over the
    defaults; None overrides are treated as absent.
    """
    values: dict = {}
    if path is not None:
        path = Path(path)
        raw = load_json(read_text(path, "config"), ConfigurationError, f"config file '{path}'")
        if not isinstance(raw, dict):
            raise ConfigurationError(f"config file '{path}' must hold a JSON object")
        known = {f.name for f in fields(PipelineConfig)}
        unknown = sorted(set(raw) - known)
        if unknown:
            raise ConfigurationError(
                f"config file '{path}' has unknown key '{unknown[0]}'")
        values.update(raw)
    values.update({k: v for k, v in overrides.items() if v is not None})
    try:
        return PipelineConfig(**values)
    except TypeError as exc:
        raise ConfigurationError(f"bad config value: {exc}") from exc


def build_gateway(config: PipelineConfig, transport=None) -> LlmGateway:
    """Construct the completion gateway the way the config asks for.

    Replay loads an existing store; record loads the store when present so
    repeated runs append rather than clobber.
    """
    store = None
    if config.mode == "replay" or (config.mode == "record" and Path(config.store_path).exists()):
        store = ReplayStore.load(config.store_path)
    elif config.mode == "record":
        store = ReplayStore(path=config.store_path)
    return LlmGateway(
        mode=config.mode,
        store=store,
        base_url=config.base_url,
        api_key=config.api_key,
        transport=transport,
        model=config.model,
        temperature=config.temperature,
    )
