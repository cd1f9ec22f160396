"""Prompt construct registry and the chat-completion gateway.

The six prompt constructs are fixed texts with named ``{placeholder}`` slots;
each required placeholder appears exactly once in its body. Rendering is a
single substitution pass, so braces inside binding values are never
re-interpreted.

The gateway talks to an OpenAI-style chat endpoint:

    POST <base_url>
    {"model": ..., "messages": [{"role": "user", "content": <prompt>}],
     "max_tokens": 4096, "temperature": ...?}    # temperature only when set
    -> {"choices": [{"message": {"content": <completion>}}]}

A request carries only its prompt; model and temperature are the gateway's.
Endpoint location and credentials come from ``SDVGUARD_LLM_URL`` and
``SDVGUARD_LLM_KEY`` unless passed explicitly. Three modes:

* ``live``   - every completion goes to the endpoint.
* ``record`` - live, and each (prompt digest, completion) pair is stored.
* ``replay`` - completions come only from the store; a miss is an error,
  never a silent live call.

Replay stores serialize as a JSON object mapping the SHA-256 hex digest of
the exact prompt text to the completion text, keys sorted.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigurationError, GatewayError, ReplayMissError, TemplateError
from .util import dump_json, load_json, read_text, sha256_text, write_atomic

ENV_URL = "SDVGUARD_LLM_URL"
ENV_KEY = "SDVGUARD_LLM_KEY"

MODES = ("live", "record", "replay")
MAX_TOKENS = 4096
TIMEOUT_S = 60.0

_PLACEHOLDER_RE = re.compile(r"\{([^{}]+)\}")


@dataclass(frozen=True)
class PromptTemplate:
    id: str
    body: str
    required_placeholders: frozenset[str]


def _template(template_id: str, body: str) -> PromptTemplate:
    names = _PLACEHOLDER_RE.findall(body)
    if len(names) != len(set(names)):
        raise ValueError(f"template {template_id} repeats a placeholder")
    return PromptTemplate(id=template_id, body=body,
                          required_placeholders=frozenset(names))


PC1 = "PC1"
PC2 = "PC2"
PC2B = "PC2b"
PC3 = "PC3"
PC4 = "PC4"
PC4B = "PC4b"

TEMPLATES: dict[str, PromptTemplate] = {
    t.id: t
    for t in (
        _template(PC1, (
            "You are extracting list of VSS signals and CAN messages based on "
            "given source code {code}.\n"
            "For each of the steps signals/messages, extract entry: "
            "name, type, value, protocol."
        )),
        _template(PC2, (
            "You are updating PlantUml activity diagram about automotive event "
            "chain without comments and without explanations given as "
            "{current-event-chain}, based on given source code: {code}., "
            "taking into account {relevant messages/signals}.\n"
            "For each of event chain steps, the following parameters are "
            "considered as notes: input, input_format, output, output_format."
        )),
        _template(PC2B, (
            "Based on code analysis outcome {result}, correct the following "
            "code {code} to eliminate the detected functional safety-related "
            "issues."
        )),
        _template(PC3, (
            "Update model instance {current system}, with respect to "
            "{metamodel}, based on requirements {user input}."
        )),
        _template(PC4, (
            "Generate automotive system security constraints with respect to "
            "{metamodel}, based on reference specification {security guidelines}."
        )),
        _template(PC4B, (
            "Update automotive system model with respect to {metamodel}, based "
            "on current representation {current system} and analysis outcome "
            "{OCL pass/fail list}."
        )),
    )
}


def render_prompt(template_id: str, bindings: dict[str, str]) -> str:
    """Substitute every placeholder exactly once; a missing binding is an error."""
    template = TEMPLATES.get(template_id)
    if template is None:
        raise TemplateError(f"unknown template '{template_id}'")
    missing = sorted(template.required_placeholders - set(bindings))
    if missing:
        raise TemplateError(
            f"template {template_id} is missing a binding for placeholder "
            f"'{missing[0]}'"
        )

    def substitute(match: re.Match) -> str:
        return str(bindings[match.group(1)])

    return _PLACEHOLDER_RE.sub(substitute, template.body)


def prompt_digest(prompt: str) -> str:
    return sha256_text(prompt)


@dataclass(frozen=True)
class CompletionRequest:
    prompt: str


class ReplayStore:
    """Digest-keyed completion store with a canonical JSON file form."""

    def __init__(self, entries: dict[str, str] | None = None, path: str | Path | None = None):
        self.entries: dict[str, str] = dict(entries or {})
        self.path = Path(path) if path is not None else None

    @classmethod
    def load(cls, path: str | Path) -> "ReplayStore":
        path = Path(path)
        raw = load_json(read_text(path, "replay store", f"replay store '{path}' does not exist"),
                        ConfigurationError, f"replay store '{path}'")
        if not isinstance(raw, dict) or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in raw.items()
        ):
            raise ConfigurationError(
                f"replay store '{path}' must map digest strings to completion strings"
            )
        return cls(entries=raw, path=path)

    def save(self) -> None:
        if self.path is None:
            raise ConfigurationError("replay store has no path to save to")
        write_atomic(self.path, dump_json(self.entries, ensure_ascii=False), "replay store")

    def record(self, prompt: str, completion: str) -> str:
        digest = prompt_digest(prompt)
        self.entries[digest] = completion
        return digest

    def lookup(self, prompt: str) -> str | None:
        return self.entries.get(prompt_digest(prompt))

    def __len__(self) -> int:
        return len(self.entries)


class LlmGateway:
    """Mode-aware completion client. Replay mode never touches the network."""

    def __init__(self, mode: str = "live", store: ReplayStore | None = None,
                 base_url: str | None = None, api_key: str | None = None,
                 transport=None, model: str = "default",
                 temperature: float | None = None):
        if mode not in MODES:
            raise ConfigurationError(f"unknown gateway mode '{mode}'")
        self.mode = mode
        self.store = store
        self.base_url = base_url if base_url is not None else os.environ.get(ENV_URL)
        self.api_key = api_key if api_key is not None else os.environ.get(ENV_KEY)
        self.transport = transport if transport is not None else self._http_post
        self.model = model
        self.temperature = temperature  # omitted from the payload when None
        if mode == "replay" and store is None:
            raise ConfigurationError("replay mode requires a replay store")
        if mode == "record" and store is None:
            raise ConfigurationError("record mode requires a store to record into")
        if mode in ("live", "record") and not self.base_url and transport is None:
            raise ConfigurationError(
                f"gateway mode '{mode}' needs an endpoint; set {ENV_URL} or pass base_url"
            )

    def complete(self, request: CompletionRequest) -> str:
        if self.mode == "replay":
            completion = self.store.lookup(request.prompt)
            if completion is None:
                raise ReplayMissError(prompt_digest(request.prompt))
            return completion
        completion = self._call_endpoint(request)
        if self.mode == "record":
            self.store.record(request.prompt, completion)
            if self.store.path is not None:
                self.store.save()
        return completion

    def _call_endpoint(self, request: CompletionRequest) -> str:
        payload: dict = {
            "model": self.model,
            "messages": [{"role": "user", "content": request.prompt}],
            "max_tokens": MAX_TOKENS,
        }
        if self.temperature is not None:
            payload["temperature"] = self.temperature
        body = self.transport(payload)
        try:
            content = body["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError):
            raise GatewayError("endpoint response missing choices[0].message.content") from None
        if not isinstance(content, str):
            raise GatewayError("endpoint returned a non-text completion")
        try:  # a lone surrogate cannot be stored, reported or written
            content.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise GatewayError(f"endpoint returned a completion that is not Unicode text: "
                               f"{exc.reason} at position {exc.start}") from None
        return content

    def _http_post(self, payload: dict) -> dict:
        import requests

        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        try:
            response = requests.post(self.base_url, json=payload,
                                     headers=headers, timeout=TIMEOUT_S)
        except requests.RequestException as exc:
            raise GatewayError(f"completion endpoint unreachable: {exc}") from exc
        if response.status_code // 100 != 2:
            raise GatewayError(
                f"completion endpoint returned status {response.status_code}: "
                f"{response.text[:200]}"
            )
        try:
            return response.json()
        except ValueError as exc:
            raise GatewayError("completion endpoint returned non-JSON body") from exc
