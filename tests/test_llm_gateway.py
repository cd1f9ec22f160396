"""Prompt constructs, replay stores, and the gateway call protocol."""

import hashlib
import http.server
import json
import threading

import pytest

from sdv_guard.errors import (
    ConfigurationError,
    GatewayError,
    ReplayMissError,
    TemplateError,
)
from sdv_guard import llm_gateway
from sdv_guard.llm_gateway import (
    PC1,
    PC2,
    PC2B,
    PC3,
    PC4,
    PC4B,
    TEMPLATES,
    CompletionRequest,
    LlmGateway,
    ReplayStore,
    prompt_digest,
    render_prompt,
)

from sdv_guard.pipeline.cli import main

from conftest import write_dies_half_way

# Scripted transports in the fixture generator key on these openings, so any
# wording drift must show up here first.
OPENINGS = {
    PC1: "You are extracting list of VSS signals and CAN messages based on "
         "given source code {code}.",
    PC2: "You are updating PlantUml activity diagram about automotive event "
         "chain without comments and without explanations given as "
         "{current-event-chain}, based on given source code: {code}., "
         "taking into account {relevant messages/signals}.",
    PC2B: "Based on code analysis outcome {result}, correct the following "
          "code {code} to eliminate the detected functional safety-related "
          "issues.",
    PC3: "Update model instance {current system}, with respect to "
         "{metamodel}, based on requirements {user input}.",
    PC4: "Generate automotive system security constraints with respect to "
         "{metamodel}, based on reference specification {security guidelines}.",
    PC4B: "Update automotive system model with respect to {metamodel}, based "
          "on current representation {current system} and analysis outcome "
          "{OCL pass/fail list}.",
}

SLOTS = {
    PC1: {"code"},
    PC2: {"current-event-chain", "code", "relevant messages/signals"},
    PC2B: {"result", "code"},
    PC3: {"current system", "metamodel", "user input"},
    PC4: {"metamodel", "security guidelines"},
    PC4B: {"metamodel", "current system", "OCL pass/fail list"},
}


def test_template_catalog_is_exactly_the_six_known_constructs():
    assert set(TEMPLATES) == set(OPENINGS)
    for template_id, opening in OPENINGS.items():
        assert TEMPLATES[template_id].body.startswith(opening), template_id
        assert TEMPLATES[template_id].required_placeholders == SLOTS[template_id]


def test_render_prompt_fills_every_slot():
    prompt = render_prompt(PC1, {"code": "def f(): pass"})
    assert "def f(): pass" in prompt
    assert "{code}" not in prompt
    assert prompt.endswith("extract entry: name, type, value, protocol.")


def test_render_prompt_is_single_pass():
    # braces inside binding values come through literally, never re-expanded
    prompt = render_prompt(PC2, {
        "current-event-chain": "use the {code} slot verbatim",
        "code": "CODE-BODY",
        "relevant messages/signals": "(none)",
    })
    assert "use the {code} slot verbatim" in prompt
    assert prompt.count("CODE-BODY") == 1


def test_render_prompt_missing_binding_and_unknown_template():
    with pytest.raises(TemplateError, match="unknown template"):
        render_prompt("PC9", {})
    with pytest.raises(TemplateError, match="'code'"):
        render_prompt(PC2B, {"result": "report text"})
    # surplus bindings are harmless
    assert "r" in render_prompt(PC2B, {"result": "r", "code": "c", "spare": "x"})


def test_prompt_digest_is_sha256():
    assert prompt_digest("abc") == hashlib.sha256(b"abc").hexdigest()


# ---------------------------------------------------------------------------
# replay stores


def test_replay_store_round_trip(tmp_path):
    path = tmp_path / "store.json"
    store = ReplayStore(path=path)
    store.record("prompt one", "completion one")
    store.record("prompt two", "completion two")
    store.save()

    loaded = ReplayStore.load(path)
    assert loaded.lookup("prompt one") == "completion one"
    assert loaded.lookup("prompt two") == "completion two"
    assert loaded.lookup("never recorded") is None
    assert len(loaded) == 2

    # canonical file shape: digest-keyed, sorted, newline-terminated
    raw = path.read_text()
    data = json.loads(raw)
    assert set(data) == {prompt_digest("prompt one"), prompt_digest("prompt two")}
    assert list(data) == sorted(data)
    assert raw.endswith("\n")


def test_replay_store_save_failing_part_way_keeps_the_old_store(tmp_path, monkeypatch):
    path = tmp_path / "store.json"
    store = ReplayStore(path=path)
    store.record("prompt one", "completion one")
    store.save()
    before = path.read_bytes()

    store.record("prompt two", "completion two")
    write_dies_half_way(monkeypatch)
    with pytest.raises(ConfigurationError, match="disk full"):
        store.save()
    monkeypatch.undo()

    assert path.read_bytes() == before
    assert ReplayStore.load(path).lookup("prompt one") == "completion one"
    assert [p.name for p in tmp_path.iterdir()] == ["store.json"]

    store.save()
    assert ReplayStore.load(path).lookup("prompt two") == "completion two"
    assert [p.name for p in tmp_path.iterdir()] == ["store.json"]


def test_record_mode_store_under_a_regular_file_is_a_configuration_error(tmp_path):
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    gateway = LlmGateway(mode="record", store=ReplayStore(path=taken / "store.json"),
                         base_url="scripted:",
                         transport=lambda p: {"choices": [{"message": {"content": "a"}}]})
    with pytest.raises(ConfigurationError, match="cannot write replay store"):
        gateway.complete(CompletionRequest(prompt="q"))
    assert taken.read_text() == "not a directory\n"


def test_replay_store_rejects_bad_files(tmp_path):
    with pytest.raises(ConfigurationError, match="does not exist"):
        ReplayStore.load(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2, 3]\n")
    with pytest.raises(ConfigurationError, match="digest"):
        ReplayStore.load(bad)
    worse = tmp_path / "worse.json"
    worse.write_text("{nope")
    with pytest.raises(ConfigurationError, match="JSON"):
        ReplayStore.load(worse)
    with pytest.raises(ConfigurationError, match="path"):
        ReplayStore().save()


# ---------------------------------------------------------------------------
# gateway modes


def test_mode_validation(monkeypatch):
    monkeypatch.delenv("SDVGUARD_LLM_URL", raising=False)
    with pytest.raises(ConfigurationError, match="mode"):
        LlmGateway(mode="dry-run")
    with pytest.raises(ConfigurationError, match="store"):
        LlmGateway(mode="replay")
    with pytest.raises(ConfigurationError, match="store"):
        LlmGateway(mode="record")
    # record still needs somewhere to send the prompt
    with pytest.raises(ConfigurationError, match="endpoint"):
        LlmGateway(mode="record", store=ReplayStore())
    with pytest.raises(ConfigurationError, match="endpoint"):
        LlmGateway(mode="live")


def test_gateway_reads_endpoint_from_environment(monkeypatch):
    monkeypatch.setenv("SDVGUARD_LLM_URL", "http://example.invalid/v1")
    gateway = LlmGateway(mode="live")
    assert gateway.base_url == "http://example.invalid/v1"


def test_replay_hit_and_miss():
    store = ReplayStore()
    store.record("known prompt", "known completion")
    gateway = LlmGateway(mode="replay", store=store)
    assert gateway.complete(CompletionRequest(prompt="known prompt")) \
        == "known completion"
    with pytest.raises(ReplayMissError) as err:
        gateway.complete(CompletionRequest(prompt="novel prompt"))
    assert err.value.digest == prompt_digest("novel prompt")


def test_record_mode_autosaves_and_replays(tmp_path):
    path = tmp_path / "recorded.json"
    calls = []

    def transport(payload):
        calls.append(payload)
        return {"choices": [{"message": {"content": f"answer {len(calls)}"}}]}

    store = ReplayStore(path=path)
    gateway = LlmGateway(mode="record", store=store, transport=transport,
                         base_url="scripted:")
    assert gateway.complete(CompletionRequest(prompt="q")) == "answer 1"
    assert path.exists()  # autosaved because the store has a path

    replayed = LlmGateway(mode="replay", store=ReplayStore.load(path))
    assert replayed.complete(CompletionRequest(prompt="q")) == "answer 1"
    assert len(calls) == 1  # replay never re-asks


def test_live_transport_payload_shape():
    seen = {}

    def transport(payload):
        seen.update(payload)
        return {"choices": [{"message": {"content": "ok"}}]}

    gateway = LlmGateway(mode="live", transport=transport, base_url="scripted:",
                         model="configured-model", temperature=0.5)
    assert gateway.complete(CompletionRequest(prompt="hello")) == "ok"
    assert seen == {
        "model": "configured-model",
        "messages": [{"role": "user", "content": "hello"}],
        "max_tokens": 4096,
        "temperature": 0.5,
    }

    # temperature stays out when nobody sets it
    seen.clear()
    plain = LlmGateway(mode="live", transport=transport, base_url="scripted:")
    plain.complete(CompletionRequest(prompt="hi"))
    assert seen == {
        "model": "default",
        "messages": [{"role": "user", "content": "hi"}],
        "max_tokens": 4096,
    }


def test_malformed_transport_body_is_a_gateway_error():
    gateway = LlmGateway(mode="live", base_url="scripted:",
                         transport=lambda payload: {"oops": 1})
    with pytest.raises(GatewayError, match="choices"):
        gateway.complete(CompletionRequest(prompt="x"))
    gateway = LlmGateway(mode="live", base_url="scripted:",
                         transport=lambda p: {"choices": [{"message": {"content": 7}}]})
    with pytest.raises(GatewayError, match="non-text"):
        gateway.complete(CompletionRequest(prompt="x"))


@pytest.mark.parametrize("mode", ["live", "record"])
def test_a_completion_with_a_lone_surrogate_is_a_gateway_error(tmp_path, mode):
    # requests decodes "\ud800" in a response body to a lone surrogate, which
    # no UTF-8 writer, the replay store included, can write
    path = tmp_path / "store.json"
    gateway = LlmGateway(mode=mode, store=ReplayStore(path=path), base_url="scripted:",
                         transport=lambda p: {"choices": [{"message": {"content": "a\ud800b"}}]})
    with pytest.raises(GatewayError, match="not Unicode text: surrogates not allowed at position 1"):
        gateway.complete(CompletionRequest(prompt="x"))
    assert not path.exists()
    assert gateway.store.entries == {}


# ---------------------------------------------------------------------------
# HTTP endpoint transport


class _EndpointHandler(http.server.BaseHTTPRequestHandler):
    response: dict = {}
    status: int = 200
    raw_body: bytes | None = None  # sent as it is, in place of the response

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        type(self).last_payload = json.loads(self.rfile.read(length))
        type(self).last_headers = dict(self.headers)
        body = type(self).raw_body or json.dumps(type(self).response).encode()
        self.send_response(type(self).status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture()
def endpoint():
    server = http.server.HTTPServer(("127.0.0.1", 0), _EndpointHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}/v1/chat/completions"
    server.shutdown()


def test_http_endpoint_round_trip(endpoint):
    _EndpointHandler.status = 200
    _EndpointHandler.response = {
        "choices": [{"message": {"content": "from the wire"}}]
    }
    gateway = LlmGateway(mode="live", base_url=endpoint, api_key="sk-test")
    assert gateway.complete(CompletionRequest(prompt="ping")) == "from the wire"
    assert _EndpointHandler.last_payload["messages"] \
        == [{"role": "user", "content": "ping"}]
    assert _EndpointHandler.last_headers["Authorization"] == "Bearer sk-test"


def test_http_endpoint_failure_statuses(endpoint):
    _EndpointHandler.status = 500
    _EndpointHandler.response = {"error": "boom"}
    gateway = LlmGateway(mode="live", base_url=endpoint)
    with pytest.raises(GatewayError, match="500"):
        gateway.complete(CompletionRequest(prompt="ping"))


def test_http_endpoint_non_json_body(endpoint, monkeypatch):
    monkeypatch.setattr(_EndpointHandler, "status", 200)
    monkeypatch.setattr(_EndpointHandler, "raw_body", b"<html>gateway timeout</html>")
    gateway = LlmGateway(mode="live", base_url=endpoint)
    with pytest.raises(GatewayError, match="^completion endpoint returned non-JSON body$"):
        gateway.complete(CompletionRequest(prompt="ping"))


def test_cli_record_flag_stores_what_the_endpoint_returns(endpoint, monkeypatch, tmp_path,
                                                          capsys, fixtures_dir):
    replay = fixtures_dir / "replay" / "cabin.json"
    [completion] = json.loads(replay.read_text(encoding="utf-8")).values()
    monkeypatch.setattr(_EndpointHandler, "status", 200)
    monkeypatch.setattr(_EndpointHandler, "response",
                        {"choices": [{"message": {"content": completion}}]})
    monkeypatch.setenv(llm_gateway.ENV_URL, endpoint)
    inputs = ["--code", str(fixtures_dir / "code" / "cabin.py"),
              "--vss", str(fixtures_dir / "catalogs" / "vss.json"),
              "--can", str(fixtures_dir / "catalogs" / "can.json")]
    store = tmp_path / "recorded.json"
    assert main(["--out", str(tmp_path / "a"), "extract-signals", *inputs,
                 "--record", str(store)]) == 0
    recorded = capsys.readouterr().out
    # the store holds the one completion under the digest of the prompt sent
    assert json.loads(store.read_text(encoding="utf-8")) \
        == json.loads(replay.read_text(encoding="utf-8"))
    assert main(["--out", str(tmp_path / "b"), "extract-signals", *inputs,
                 "--replay", str(store)]) == 0
    assert capsys.readouterr().out == recorded


def test_http_endpoint_unreachable(monkeypatch):
    monkeypatch.setattr(llm_gateway, "TIMEOUT_S", 0.2)
    gateway = LlmGateway(mode="live", base_url="http://127.0.0.1:9/")
    with pytest.raises(GatewayError, match="unreachable"):
        gateway.complete(CompletionRequest(prompt="ping"))
