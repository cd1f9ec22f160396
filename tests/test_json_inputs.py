"""Every JSON input fails closed: one decode, typed errors, no tracebacks.

``util.load_json`` and ``util.first_json_array``, the scanner that finds an
extraction completion's entry array, are the only places that decode JSON
text, with the same strict rules, so each parser reports deep nesting,
``NaN``/``Infinity``, lone surrogates, a repeated key (I-JSON, RFC 7493
section 2.3) and malformed text as its own ``SdvGuardError``, and the CLI
exits 2 with an ``error:`` line.
"""

from __future__ import annotations

import ast
import json
import math
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdv_guard.catalog import parse_can_catalog, parse_vss_catalog
from sdv_guard.errors import (
    CatalogParseError,
    ConfigurationError,
    ExtractionFormatError,
    InstanceParseError,
    MetamodelError,
    SchemaError,
    SdvGuardError,
    TransformError,
)
from sdv_guard.eventchain import (
    parse_activity_diagram,
    parse_chain_document,
    serialize_chain,
    to_chain_document,
)
from sdv_guard.extraction import parse_extraction_response
from sdv_guard.llm_gateway import ReplayStore
from sdv_guard.pipeline import (
    load_config,
    load_receipt,
    load_run_record,
    parse_manifest,
    verify_artifacts,
)
from sdv_guard.pipeline.cli import main
from sdv_guard.topology import parse_instance, parse_metamodel
from sdv_guard import util
from sdv_guard.util import dump_json, load_json, parse_number

from conftest import FIXTURES, ROOT

DEEP = "[" * 100_000 + "]" * 100_000


def _run_record(directory: Path):
    verify_artifacts(load_run_record(directory), directory)


# name -> (file the entry point reads, or None for text; the call; its error type)
ENTRIES = {
    "vss": (None, parse_vss_catalog, CatalogParseError),
    "can": (None, parse_can_catalog, CatalogParseError),
    "metamodel": (None, parse_metamodel, MetamodelError),
    "instance": (None, parse_instance, InstanceParseError),
    "chain": (None, parse_chain_document, TransformError),
    "extraction": (None, parse_extraction_response, ExtractionFormatError),
    "config": ("config.json", load_config, ConfigurationError),
    "manifest": ("manifest.json", parse_manifest, ConfigurationError),
    "run-record": ("run.json", _run_record, ConfigurationError),
    "receipt": ("receipt.json", load_receipt, ConfigurationError),
    "replay": ("store.json", ReplayStore.load, ConfigurationError),
}


def _call(name: str, directory: Path, data: str | bytes):
    """Feed ``data`` to the entry point, through a file when it reads one."""
    filename, call, _ = ENTRIES[name]
    if filename is None:
        return call(data)
    path = directory / filename
    path.write_bytes(data if isinstance(data, bytes) else data.encode("utf-8"))
    return call(directory if name == "run-record" else path)


@pytest.mark.parametrize("name", sorted(ENTRIES))
def test_deep_nesting_is_the_parsers_error(tmp_path, name):
    with pytest.raises(ENTRIES[name][2]):
        _call(name, tmp_path, DEEP)


@pytest.mark.parametrize("constant, message", [
    ("NaN", "NaN is not a JSON number"),
    ("Infinity", "Infinity is not a JSON number"),
    ("-Infinity", "-Infinity is not a JSON number"),
    ("1e999", "number 1e999 is out of range"),
    ("-1e999", "number -1e999 is out of range"),
])
@pytest.mark.parametrize("name", sorted(ENTRIES))
def test_non_standard_numbers_are_the_parsers_error(tmp_path, name, constant, message):
    with pytest.raises(ENTRIES[name][2], match=message):
        _call(name, tmp_path, f'{{"x": [{constant}]}}')


@pytest.mark.parametrize("name", [n for n, entry in ENTRIES.items() if entry[0]])
def test_invalid_utf8_and_directories_are_configuration_errors(tmp_path, name):
    with pytest.raises(ConfigurationError, match="cannot read"):
        _call(name, tmp_path, b'{"\xff": 1}')
    filename, call, _ = ENTRIES[name]
    (tmp_path / filename).unlink()
    (tmp_path / filename).mkdir()
    with pytest.raises(ConfigurationError, match="cannot read"):
        call(tmp_path if name == "run-record" else tmp_path / filename)


def test_load_json_reports_positions_and_limits():
    with pytest.raises(CatalogParseError) as err:
        load_json('{\n  "a": nope}', CatalogParseError, "catalog")
    assert (err.value.line, err.value.column) == (2, 8)
    with pytest.raises(TransformError, match="doc is not valid JSON: .* line 2 column 8"):
        load_json('{\n  "a": nope}', TransformError, "doc")
    with pytest.raises(TransformError, match="doc is not valid JSON: Exceeds the limit"):
        load_json("1" * 5000, TransformError, "doc")


@pytest.mark.parametrize("text, key", [
    ('{"a": 1, "b": {"c": 2}, "a": 3}', '"a"'),
    ('{"a": 1, "b": 2, "b": 3, "a": 4}', '"b"'),  # the first key seen twice
    ('{"a": {"x": 1, "x": 2}, "a": 3}', '"x"'),  # an inner object closes first
    ('[{"k": 1}, {"k": 1, "k": 1}]', '"k"'),
    ('{"": 1, "": 2}', '""'),
    (r'{"a": "\ud83dx", "a": 1}', '"a"'),  # before the lone surrogate in its value
    (r'{"\ud800": 1, "\ud800": 2}', r'"\ud800"'),  # a lone surrogate, written in ASCII
    (r'{"\u00e9\t": 1, "\u00e9\t": 2}', r'"\u00e9\t"'),  # a control character
    ('{"caf\u00e9": 1, "caf\u00e9": 2}', r'"caf\u00e9"'),
    ('{"a": "x:y", "a": 1}', '"a"'),  # a ':' inside a string as well
    (r'{"\u003a": 1, ":": 2}', '":"'),  # the same key, once escaped
])
def test_load_json_rejects_a_repeated_key(text, key):
    with pytest.raises(TransformError) as err:
        load_json(text, TransformError, "doc")
    assert str(err.value) == f"doc is not valid JSON: {key} repeats in an object"
    assert str(err.value).isascii()


@pytest.mark.parametrize("text, code_point", [
    (r'["\ud800"]', "D800"),
    (r'{"x": {"\uDFFF": 1}}', "DFFF"),
    (r'[["\ude00\ud83d"]]', "DE00"),  # a pair in the wrong order
])
def test_load_json_rejects_a_lone_surrogate(text, code_point):
    with pytest.raises(TransformError,
                       match=f"doc is not valid JSON: a string holds the lone surrogate U\\+{code_point}"):
        load_json(text, TransformError, "doc")


# JSON texts built to tell load_json's member count from one strict decode:
# keys that repeat, ':' inside keys and strings, written plainly and escaped,
# floats past a float's range, NaN, lone surrogates, and texts cut short
_COUNTED_KEYS = st.sampled_from(['"a"', '"b"', '"a:b"', '":"', '""', r'"\u003a"',
                                 r'"a\u003ab"', r'"\ud800"'])
_COUNTED_SCALARS = st.sampled_from(["1", "-0", "2.5", "-0.0", "1e999", "1E-999", "NaN", "true",
                                    "null", '"s"', '"s:t"', '":"', r'"\u003a"', r'"\ud800"',
                                    '"caf\u00e9"'])


def _counted_containers(children):
    members = st.lists(st.tuples(_COUNTED_KEYS, children), max_size=4)
    return (members.map(lambda pairs: "{" + ", ".join(f"{k}: {v}" for k, v in pairs) + "}")
            | st.lists(children, max_size=4).map(lambda items: "[" + ",".join(items) + "]"))


def _one_strict_decode(text: str):
    """load_json as one decode with the pair-list hook on every object."""
    try:
        return "value", repr(util._strict_strings(json.loads(text, **util._STRICT), text))
    except (ValueError, OverflowError) as exc:
        return "error", f"doc is not valid JSON: {exc}"


@settings(max_examples=500, deadline=None)
@given(st.recursive(_COUNTED_SCALARS, _counted_containers, max_leaves=12), st.booleans())
def test_load_json_decodes_as_one_strict_decode(text, cut):
    # the counted decode keeps its value only when the text's ':' and the
    # decoded members agree; every other text is decoded strictly again
    text = text[:-1] if cut else text
    try:
        got = "value", repr(load_json(text, TransformError, "doc"))
    except TransformError as exc:
        got = "error", str(exc)
    assert got == _one_strict_decode(text)


def test_load_json_keeps_surrogate_pairs_and_escaped_backslashes():
    assert load_json(r'{"\ud83d\ude00": ["\uD83D\uDE00", "\\ud800"]}', TransformError,
                     "doc") == {"\U0001f600": ["\U0001f600", "\\ud800"]}


@pytest.mark.parametrize("name", sorted(ENTRIES))
def test_lone_surrogates_are_the_parsers_error(tmp_path, name):
    with pytest.raises(ENTRIES[name][2], match="lone surrogate U\\+D800"):
        _call(name, tmp_path, r'{"x": ["drive \ud800 actuator"]}')


# name -> (a document in which a key repeats, the key): a repeat changes no
# value silently, at any entry point
REPEATED = {
    "vss": ('{"Vehicle": {"Speed": {"datatype": "int", "datatype": "float"}}}', "datatype"),
    "can": ('[{"name": "M", "frame_id": "0x101", "frame_id": "0x1FF", "dlc": 8}]',
            "frame_id"),
    "metamodel": ('{"classes": [{"name": "Camera", "parent": "Component", '
                  '"parent": "Gateway", "attributes": []}]}', "parent"),
    "instance": ('{"objects": [{"id": "cam", "class": "Camera", "class": "Gateway", '
                 '"attributes": {}, "references": {}}]}', "class"),
    "chain": ('{"nodes": [], "edges": [], "nodes": [{"id": "a"}], "edges": []}', "nodes"),
    "extraction": ('Entries: [{"name": "Vehicle.Cabin.Light", "name": "Vehicle.Speed", '
                   '"type": "boolean", "value": true, "protocol": "VSS"}]', "name"),
    "config": ('{"top_k": 5, "mode": "replay", "top_k": 50}', "top_k"),
    "manifest": ('{"scenarios": [{"id": "s1", "kind": "mapping", "kind": "chain"}]}', "kind"),
    "run-record": ('{"kind": "safety", "verdict": "pass", "verdict": "fail"}', "verdict"),
    "receipt": ('{"target": "t", "kind": "directory", '
                '"files": {"a.txt": "00", "a.txt": "11"}}', "a.txt"),
    "replay": ('{"0a": "first completion", "0a": "second completion"}', "0a"),
}


@pytest.mark.parametrize("name", sorted(ENTRIES))
def test_a_repeated_key_is_the_parsers_error(tmp_path, name):
    text, key = REPEATED[name]
    with pytest.raises(ENTRIES[name][2],
                       match=re.escape(f"is not valid JSON: {json.dumps(key)} repeats")):
        _call(name, tmp_path, text)


def test_a_repeated_key_rejects_a_whole_completion():
    # the array that holds the repeat is not skipped for a later one
    text = ('[{"name": "A", "name": "B"}] or [{"name": "Vehicle.Cabin.Light", '
            '"type": "boolean", "value": true, "protocol": "VSS"}]')
    with pytest.raises(ExtractionFormatError,
                       match='^completion is not valid JSON: "name" repeats in an object$'):
        parse_extraction_response(text)


# ---------------------------------------------------------------------------
# through the CLI: exit 2 and an ``error:`` line


def _argv(name: str, bad: str, out: str) -> list[str]:
    """A CLI run whose ``name`` input is the file ``bad``."""
    topology = FIXTURES / "topology"
    extract = {"--code": FIXTURES / "code" / "cabin.py",
               "--vss": FIXTURES / "catalogs" / "vss.json",
               "--can": FIXTURES / "catalogs" / "can.json",
               "--replay": FIXTURES / "replay" / "cabin.json"}
    if f"--{name}" in extract:
        extract[f"--{name}"] = bad
    commands = {
        "extract": ["extract-signals", *(str(x) for kv in extract.items() for x in kv)],
        "metamodel": ["analyze-topology", "--metamodel", bad,
                      "--model", str(topology / "system.json"),
                      "--constraints", str(topology / "security.ocl")],
        "instance": ["analyze-topology", "--model", bad,
                     "--constraints", str(topology / "security.ocl")],
        "chain": ["check-chain", "--chain", bad,
                  "--rules", str(FIXTURES / "rules" / "rules-s1.txt")],
        "manifest": ["eval", "--manifest", bad, "--runs", "1"],
    }
    config = ["--config", bad] if name == "config" else []
    return [*config, "--out", out, *commands.get(name, commands["extract"])]


_CLI_INPUTS = {
    "deep": DEEP.encode(),
    "nan": b'{"x": NaN}',
    "infinity": b"[-Infinity]",
    "not-utf8": b'{"\xff": 1}',
    "lone-surrogate": b'{"x": ["\\ud800"]}',
    "repeated-key": b'{"x": 1, "x": 2}',
}


@pytest.mark.parametrize("content", sorted(_CLI_INPUTS))
@pytest.mark.parametrize("name", ["can", "chain", "config", "instance", "manifest",
                                  "metamodel", "replay", "vss"])
def test_cli_reports_bad_json_inputs(tmp_path, capsys, name, content):
    bad = tmp_path / "input.json"
    bad.write_bytes(_CLI_INPUTS[content])
    assert main(_argv(name, str(bad), str(tmp_path / "out"))) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_cli_reports_a_lone_surrogate_in_a_model(tmp_path, capsys):
    text = (FIXTURES / "topology" / "system.json").read_text(encoding="utf-8")
    bad = tmp_path / "system.json"
    bad.write_text(text.replace('"drive actuator"', r'"drive \ud800 actuator"'), encoding="utf-8")
    assert main(_argv("instance", str(bad), str(tmp_path / "out"))) == 2
    assert capsys.readouterr().err == ("error: stage 'model' failed: instance model is not "
                                       "valid JSON: a string holds the lone surrogate U+D800\n")


@pytest.mark.parametrize("old, new, reason", [
    # the store holds each completion as a JSON string, so the completion's own
    # escapes are doubled; a rejected name would go on into the retry prompt
    ("Vehicle.Cabin.Light", r"Vehicle.Cabin.Lamp\\ud800", "a string holds the lone surrogate U+D800"),
    ("Vehicle.Cabin.Light", r"Vehicle.Cabin.Light\\ud800", "a string holds the lone surrogate U+D800"),
    (r'\"value\": true', r'\"value\": NaN', "NaN is not a JSON number"),
    (r'\"value\": true', r'\"value\": 1e999', "number 1e999 is out of range"),
    (r'\"value\": true', r'\"value\": true, \"value\": false', '"value" repeats in an object'),
], ids=["unknown-name", "known-name", "nan", "1e999", "repeated-key"])
def test_cli_reports_a_completion_that_is_not_strict_json(tmp_path, capsys, old, new, reason):
    text = (FIXTURES / "replay" / "cabin.json").read_text(encoding="utf-8")
    assert old in text
    bad = tmp_path / "cabin.json"
    bad.write_text(text.replace(old, new), encoding="utf-8")
    assert main(_argv("replay", str(bad), str(tmp_path / "out"))) == 2
    assert capsys.readouterr().err == f"error: completion is not valid JSON: {reason}\n"


@pytest.mark.parametrize("name", ["manifest", "vss", "replay"])
def test_cli_reports_a_directory_given_as_a_file(tmp_path, capsys, name):
    assert main(_argv(name, str(tmp_path), str(tmp_path / "out"))) == 2
    assert capsys.readouterr().err.startswith("error: cannot read ")


@pytest.mark.parametrize("text, message", [
    ("[]", "signal catalog root must be an object"),
    ('{"Vehicle": []}', "node 'Vehicle' must be an object"),
    ('{"Vehicle": {"children": []}}', "children of 'Vehicle' must be an object"),
    ('{"Vehicle": {"Speed": []}}', "leaf 'Vehicle' is missing its datatype"),
])
def test_empty_arrays_are_not_vss_objects(tmp_path, capsys, text, message):
    with pytest.raises(SchemaError, match=message):
        parse_vss_catalog(text)
    bad = tmp_path / "vss.json"
    bad.write_text(text)
    assert main(_argv("vss", str(bad), str(tmp_path / "out"))) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("name, text, message", [
    ("vss", '{"A": {"datatype": "int", "max": 1' + "0" * 400 + "}}",
     "field 'max' of 'A' is out of range"),
    ("can", '[{"frame_id": 1, "name": "M", "dlc": 1, "signals": [{"name": "S", '
     '"start_bit": 0, "bit_length": 1, "scale": -1' + "0" * 400 + "}]}]",
     "message 'M' signal 'S' field 'scale' is out of range"),
], ids=["vss", "can"])
def test_cli_reports_a_catalog_integer_past_a_float(tmp_path, capsys, name, text, message):
    bad = tmp_path / f"{name}.json"
    bad.write_text(text)
    assert main(_argv(name, str(bad), str(tmp_path / "out"))) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


# ---------------------------------------------------------------------------
# fuzzing: any text or JSON value gives a toolkit error or a result


def _chain_document() -> dict:
    graph = parse_activity_diagram((FIXTURES / "chains" / "s1.puml").read_text())
    return json.loads(serialize_chain(to_chain_document(graph)))


def _fixture_json(*parts) -> object:
    return json.loads(FIXTURES.joinpath(*parts).read_text(encoding="utf-8"))


# a well-formed document per entry point, for the mutation strategy
_BASES = {
    "vss": _fixture_json("catalogs", "vss.json"),
    "can": _fixture_json("catalogs", "can.json"),
    "metamodel": json.loads(
        (ROOT / "src" / "sdv_guard" / "data" / "metamodel.json").read_text()),
    "instance": _fixture_json("topology", "system.json"),
    "chain": _chain_document(),
    "extraction": [{"name": "Vehicle.Cabin.Light", "type": "boolean",
                    "value": True, "protocol": "VSS"}],
    "config": {"top_k": 5, "mode": "replay", "store_path": "store.json",
               "temperature": 0.5},
    "manifest": _fixture_json("harness", "manifest.json"),
    "run-record": {"kind": "safety", "verdict": "pass", "config": {"top_k": 20},
                   "iterations": [{"index": 1}],
                   "artifacts": {"a.txt": {"path": "a.txt", "sha256": "00"}}},
    "receipt": {"target": "t", "kind": "directory", "files": {"a.txt": "00"}},
    "replay": _fixture_json("replay", "cabin.json"),
}

_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=40)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=12,
)


def _paths(value, prefix=()):
    yield prefix
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _paths(item, prefix + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _paths(item, prefix + (index,))


def _replace(value, path, new):
    if not path:
        return new
    head, rest = path[0], path[1:]
    if isinstance(value, dict):
        return {**value, head: _replace(value[head], rest, new)}
    return [*value[:head], _replace(value[head], rest, new), *value[head + 1:]]


@st.composite
def _mutated(draw, name: str):
    """The entry's well-formed document with one value replaced."""
    base = _BASES[name]
    path = draw(st.sampled_from(list(_paths(base))))
    return _replace(base, path, draw(_JSON))


def _inputs(name: str):
    """Mostly mutated documents, which get past the first checks; then any
    JSON value, any text, and any bytes for a file."""
    documents = st.one_of(_mutated(name), _mutated(name), _mutated(name), _JSON)
    documents = documents.map(json.dumps)
    if name == "extraction":
        documents = documents.map(lambda text: f"Entries:\n```json\n{text}\n```\n")
    forms = [documents, _TEXT]
    if ENTRIES[name][0] is not None:
        forms.append(st.binary(max_size=40))
    return st.one_of(*forms)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("fuzz")


@pytest.mark.parametrize("name", sorted(ENTRIES))
def test_json_entry_points_fail_only_with_toolkit_errors(fuzz_dir, name):
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=_inputs(name))
    def run(data):
        try:
            _call(name, fuzz_dir, data)
        except SdvGuardError:
            pass

    run()


# ---------------------------------------------------------------------------
# one decode


_DECODERS = {"loads", "load", "JSONDecoder", "raw_decode"}
_ENCODERS = {"dumps", "dump", "JSONEncoder", "encoder"}


class _JsonSites(ast.NodeVisitor):
    """(file, innermost function) of every ``json.<name>`` use for the
    given names, and of every ``from json import``."""

    def __init__(self, filename: str, names: set[str]):
        self.filename = filename
        self.names = names
        self.scope = ["<module>"]
        self.found: set[tuple[str, str]] = set()

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_Attribute(self, node):
        if (node.attr in self.names and isinstance(node.value, ast.Name)
                and node.value.id == "json"):
            self.found.add((self.filename, self.scope[-1]))
        self.generic_visit(node)

    def visit_ImportFrom(self, node):
        if (node.module or "").split(".")[0] == "json":
            self.found.add((self.filename, "from json import"))

    def visit_Import(self, node):
        # ``import json.encoder`` or ``import json as j`` would reach the
        # encoders under another name
        if any(alias.name.startswith("json.") or (alias.name == "json" and alias.asname
                                                  not in (None, "json"))
               for alias in node.names):
            self.found.add((self.filename, "import json as"))


def _json_sites(names: set[str]) -> set[tuple[str, str]]:
    found = set()
    for path in sorted((ROOT / "src").rglob("*.py")):
        sites = _JsonSites(path.name, names)
        sites.visit(ast.parse(path.read_text(encoding="utf-8")))
        found |= sites.found
    return found


def test_json_is_decoded_only_by_load_json_and_the_extraction_scanner():
    assert _json_sites(_DECODERS) == {("util.py", "load_json"),
                                      ("util.py", "first_json_array")}


def test_json_is_encoded_only_by_the_three_writers():
    # one indented layout for files and stdout, one compact form for hashing,
    # and the scalar texts of the writers that lay out their own documents
    assert _json_sites(_ENCODERS) == {("util.py", "dump_json"),
                                      ("util.py", "json_scalars"),
                                      ("util.py", "canonical_json")}


def _references(name: str, source: str, filename: str) -> set[tuple[str, str]]:
    """(file, innermost function) of every reference to ``name`` in
    ``source``: as a name, an attribute, an import or a string."""
    found = set()

    def visit(node, scope: str):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if ((isinstance(node, ast.Name) and node.id == name)
                or (isinstance(node, ast.Attribute) and node.attr == name)
                or (isinstance(node, ast.alias) and name in node.name.split("."))
                or (isinstance(node, ast.ImportFrom) and name in (node.module or "").split("."))
                or (isinstance(node, ast.Constant) and node.value == name)):
            found.add((filename, scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "<module>")
    return found


def _encoder_references(source: str, filename: str) -> set[tuple[str, str]]:
    return (_references("c_make_encoder", source, filename)
            | _references("encoder", source, filename))


def test_nothing_reaches_the_json_encoder_module():
    # json.encoder holds CPython's private C encoder; every writer goes
    # through json.dumps instead
    found = set()
    for path in sorted((ROOT / "src").rglob("*.py")):
        found |= _encoder_references(path.read_text(encoding="utf-8"), path.name)
    assert found == set()


@pytest.mark.parametrize("source", [
    "json.encoder.c_make_encoder(None)",
    "json.encoder.encode_basestring('a')",
    "from json.encoder import c_make_encoder",
    "from json.encoder import encode_basestring",
    "from json import encoder",
    "import json.encoder",
    "getattr(json, 'encoder')",
    "def f():\n    return c_make_encoder",
])
def test_the_encoder_pin_sees_every_way_to_it(source):
    assert _encoder_references(source, "m.py")


@pytest.mark.parametrize("source", [
    "json.encoder.c_make_encoder(None)",
    "from json.encoder import c_make_encoder",
    "from json import dumps",
    "import json.encoder",
    "import json as j",
    "def f():\n    return json.JSONEncoder",
])
def test_the_encode_pin_sees_every_way_to_the_encoders(source):
    sites = _JsonSites("m.py", _ENCODERS)
    sites.visit(ast.parse(source))
    assert sites.found


# ---------------------------------------------------------------------------
# one file writer

_OS_WRITERS = {"open", "write", "replace", "rename"}
_SHUTIL_WRITERS = {"copyfile", "copy", "copy2", "copytree", "move"}


def _opens_to_write(call: ast.Call) -> bool:
    """An ``open(file, mode)``, ``io.open(file, mode)`` or ``path.open(mode)``
    whose mode may write: one that holds w, a, x or +, or is not a constant."""
    func = call.func
    position = 0 if isinstance(func, ast.Attribute) and not (
        isinstance(func.value, ast.Name) and func.value.id == "io") else 1
    mode = next((kw.value for kw in call.keywords if kw.arg == "mode"),
                call.args[position] if len(call.args) > position else ast.Constant("r"))
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and not set(mode.value) & set("wax+"))


def _writer_sites(source: str, filename: str) -> set[tuple[str, str, str]]:
    """(file, innermost function, call) of every way ``source`` can write a
    file: ``write_text`` or ``write_bytes`` on any object, ``os.open``,
    ``os.write``, ``os.replace``, ``os.rename``, ``shutil``'s copies, an
    import of any of these or of ``os`` or ``shutil`` under another name, and
    an ``open`` whose mode may write."""
    found = set()

    def visit(node, scope: str):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if isinstance(node, ast.Attribute):
            owner = node.value.id if isinstance(node.value, ast.Name) else ""
            if (node.attr in ("write_text", "write_bytes")
                    or (owner == "os" and node.attr in _OS_WRITERS)
                    or (owner == "shutil" and node.attr in _SHUTIL_WRITERS)):
                found.add((filename, scope, f"{owner}.{node.attr}"))
        elif isinstance(node, ast.ImportFrom):
            writers = {"os": _OS_WRITERS, "shutil": _SHUTIL_WRITERS}.get(node.module, set())
            if any(alias.name in writers for alias in node.names):
                found.add((filename, scope, f"from {node.module} import"))
        elif isinstance(node, ast.Import):
            if any(alias.name in ("os", "shutil") and alias.asname not in (None, alias.name)
                   for alias in node.names):
                found.add((filename, scope, "import as"))
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            is_os_open = isinstance(func, ast.Attribute) and getattr(func.value, "id", "") == "os"
            if name == "open" and not is_os_open and _opens_to_write(node):
                found.add((filename, scope, "open"))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "<module>")
    return found


def test_files_are_written_only_by_write_atomic():
    found = set()
    for path in sorted((ROOT / "src").rglob("*.py")):
        found |= _writer_sites(path.read_text(encoding="utf-8"), path.name)
    assert found == {("util.py", "write_atomic", "os.open"),
                     ("util.py", "write_atomic", "os.write"),
                     ("util.py", "write_atomic", "os.replace")}


@pytest.mark.parametrize("source", [
    "path.write_text(text)",
    "path.write_bytes(data)",
    "os.write(fd, data)",
    "os.replace(partial, path)",
    "os.rename(partial, path)",
    "shutil.copyfile(a, b)",
    "shutil.move(a, b)",
    "from os import write",
    "from shutil import copy2",
    "import os as o",
    "open(path, 'w')",
    "open(path, mode='ab')",
    "open(path, mode)",
    "io.open(path, 'x')",
    "path.open('r+')",
    "def f():\n    return os.open",
])
def test_the_writer_pin_sees_every_way_to_write(source):
    assert _writer_sites(source, "m.py")


@pytest.mark.parametrize("source", [
    "open(path)",
    "open('x.txt', 'rb')",
    "io.open('x.txt')",
    "path.open(encoding='utf-8')",
    "path.read_text()",
    "import os",
])
def test_the_writer_pin_passes_reads(source):
    assert not _writer_sites(source, "m.py")


# every float() call, by (file, innermost function); only util._json_float
# is given text, which the JSON grammar has already matched; the others
# convert numbers (JSON numbers, ints, a Fraction)
_FLOAT_CALLS = {("util.py", "_json_float"), ("catalog.py", "_float"),
                ("catalog.py", "validate_value"), ("ocl.py", "to_real"),
                ("harness.py", "percent")}


def test_text_becomes_a_float_only_through_the_number_reader():
    found = set()

    def visit(node, filename: str, scope: str):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            found.add((filename, scope))
        for child in ast.iter_child_nodes(node):
            visit(child, filename, scope)

    for path in sorted((ROOT / "src").rglob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.name, "<module>")
    assert found == _FLOAT_CALLS


def test_code_fences_are_read_only_in_eventchain():
    # fenced completions have one reader: eventchain's fence helpers
    holders = {
        path.relative_to(ROOT / "src").as_posix()
        for path in sorted((ROOT / "src").rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and "```" in node.value
    }
    assert holders == {"sdv_guard/eventchain.py"}


# ---------------------------------------------------------------------------
# the number reader: JSON's grammar (RFC 8259 section 6), whitespace around

_NUMBER_GRAMMAR = r"-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][-+]?[0-9]+)?"
_SPACES = st.sampled_from(["", " ", "\t", "\n ", "\r\n", "\u2003", "\x0b", " \u3000"])


def _reading(read, text: str):
    """How ``read`` takes ``text``: ("number", repr) or ("range", None) or ("no", None)."""
    try:
        value = read(text)
    except OverflowError:
        return "range", None
    except ValueError as exc:
        return ("range", None) if "Exceeds the limit" in str(exc) else ("no", None)
    if type(value) not in (int, float):
        return "no", None
    if value in (math.inf, -math.inf):
        return "range", None
    return "number", repr(value)  # repr tells 1 from 1.0 and 0.0 from -0.0


def _json_reading(text: str):
    return _reading(lambda t: json.loads(t.strip(), parse_constant=_reject), text)


def _reject(name):
    raise ValueError(name)


# near misses of the grammar (signs, leading zeros, empty parts, other
# digits), and text at large
_NEAR_NUMBERS = st.from_regex(
    r"\s?[-+]{0,2}[0-9\u0661\uff11_]{0,4}(\.[0-9]{0,2})?([eE][-+]?[0-9]{0,3})?\s?", fullmatch=True)
_TEXT = st.text(alphabet="0123456789-+.eE_xX \t\n\u2003\u0661\uff11infaINFNa[]", max_size=10)


@settings(max_examples=1000, derandomize=True, deadline=None)
@given(st.one_of(_NEAR_NUMBERS, _TEXT))
def test_parse_number_accepts_exactly_what_json_reads_as_a_number(text):
    assert _reading(parse_number, text) == _json_reading(text)


@settings(max_examples=500, derandomize=True, deadline=None)
@given(_SPACES, st.from_regex(_NUMBER_GRAMMAR, fullmatch=True), _SPACES)
def test_parse_number_reads_every_json_number(before, number, after):
    reading = _reading(parse_number, before + number + after)
    assert reading[0] != "no"
    assert reading == _json_reading(number)


@pytest.mark.parametrize("text, value", [
    ("0", 0), ("-0", 0), ("-0.0", -0.0), (" 12 ", 12), ("1.5e2", 150.0), ("1E-2", 0.01),
    (" -7\n", -7), ("1" * 400, int("1" * 400)),
])
def test_parse_number_values(text, value):
    assert repr(parse_number(text)) == repr(value)


@pytest.mark.parametrize("text", ["1e999", "-1e999", "9" * 5000])
def test_parse_number_out_of_range(text):
    with pytest.raises(OverflowError, match="out of range"):
        parse_number(text)


# ---------------------------------------------------------------------------
# the one indented writer: 2-space indent, a final newline, keys sorted and
# non-ASCII escaped unless a flag says otherwise

_FLAGS = [(True, True), (True, False), (False, True), (False, False)]
# a row boundary, quotes, backslashes, control characters and non-ASCII text
_AWKWARD = st.sampled_from(["},\n  {", "},\n    {", "}", "{", '"', "\\", "\n", "\x00\x1f\x7f",
                            "\u00e9", "\u2603", "\U0001f600", "\u2028"])
_STRINGS = st.one_of(_AWKWARD, st.text(st.characters(blacklist_categories=("Cs",)), max_size=8))

_NESTED = {"b": [1, {"y": None, "x": True}], "a": {}, "c": [2.5, "e"]}
_NESTED_SORTED = """\
{
  "a": {},
  "b": [
    1,
    {
      "x": true,
      "y": null
    }
  ],
  "c": [
    2.5,
    "e"
  ]
}
"""
_NESTED_AS_GIVEN = """\
{
  "b": [
    1,
    {
      "y": null,
      "x": true
    }
  ],
  "a": {},
  "c": [
    2.5,
    "e"
  ]
}
"""
_ROWS = [{"verdict": "pass", "object": "obj1", "x": 0.5},
         {"verdict": "fail", "object": "},", "x": -3}]
_ROWS_SORTED = """\
[
  {
    "object": "obj1",
    "verdict": "pass",
    "x": 0.5
  },
  {
    "object": "},",
    "verdict": "fail",
    "x": -3
  }
]
"""
_ROWS_AS_GIVEN = """\
[
  {
    "verdict": "pass",
    "object": "obj1",
    "x": 0.5
  },
  {
    "verdict": "fail",
    "object": "},",
    "x": -3
  }
]
"""
_NON_ASCII = ["caf\u00e9", {"\u2603": "\U0001f600 \"q\" \\ \n"}]
_NON_ASCII_ESCAPED = r"""[
  "caf\u00e9",
  {
    "\u2603": "\ud83d\ude00 \"q\" \\ \n"
  }
]
"""
_NON_ASCII_KEPT = r"""[
  "café",
  {
    "☃": "😀 \"q\" \\ \n"
  }
]
"""


@pytest.mark.parametrize("sort_keys, ensure_ascii", _FLAGS)
def test_dump_json_writes_the_indented_layout(sort_keys, ensure_ascii):
    expected = [(_NESTED, _NESTED_SORTED if sort_keys else _NESTED_AS_GIVEN),
                (_ROWS, _ROWS_SORTED if sort_keys else _ROWS_AS_GIVEN),
                (_NON_ASCII, _NON_ASCII_ESCAPED if ensure_ascii else _NON_ASCII_KEPT)]
    for value, text in expected:
        assert dump_json(value, sort_keys=sort_keys, ensure_ascii=ensure_ascii) == text
        if sort_keys and ensure_ascii:  # the defaults
            assert dump_json(value) == text


# ---------------------------------------------------------------------------
# json_scalars: the scalar texts of the writers that lay out their own
# documents, each what json.dumps writes for it

# the booleans beside the ints and floats equal to them, big ints, the float
# specials, and strings with quotes, backslashes, control characters, U+2028
# and non-BMP characters
_SCALAR_EXAMPLES = [None, True, False, 1, 0, 1.0, 0.0, -0.0, 2 ** 100, -2 ** 100, math.nan,
                    math.inf, -math.inf, "1", "true", "null", '"q"', "a\\b", "\n\r\t\x00\x1f\x7f",
                    "\u2028", "\u00e9", "\U0001f600", ",\n", "a, b", ""]
_JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.sampled_from(_SCALAR_EXAMPLES),
                          st.integers(), st.integers(min_value=-2 ** 100, max_value=2 ** 100),
                          st.floats(), _STRINGS)


def _dumps_each(values, ensure_ascii: bool) -> list[str]:
    return [json.dumps(value, ensure_ascii=ensure_ascii) for value in values]


@pytest.mark.parametrize("ensure_ascii", [True, False])
def test_json_scalars_write_what_json_dumps_writes(ensure_ascii):
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(_JSON_SCALARS, max_size=8))
    def run(values):
        assert util.json_scalars(values, ensure_ascii=ensure_ascii) == _dumps_each(
            values, ensure_ascii)

    run()


@pytest.mark.parametrize("ensure_ascii", [True, False])
def test_json_scalars_tell_the_booleans_from_the_numbers(ensure_ascii):
    assert util.json_scalars(iter(_SCALAR_EXAMPLES), ensure_ascii=ensure_ascii) == _dumps_each(
        _SCALAR_EXAMPLES, ensure_ascii)
    assert util.json_scalars([True, 1, 1.0, False, 0, 0.0, -0.0]) == [
        "true", "1", "1.0", "false", "0", "0.0", "-0.0"]
    assert util.json_scalars([], ensure_ascii=ensure_ascii) == []


def test_json_scalars_without_the_c_accelerator(monkeypatch):
    # as on an interpreter without CPython's _json module: the same texts
    expected = {flag: _dumps_each(_SCALAR_EXAMPLES, flag) for flag in (True, False)}
    monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    monkeypatch.setattr(json.encoder, "encode_basestring", json.encoder.py_encode_basestring)
    monkeypatch.setattr(json.encoder, "encode_basestring_ascii",
                        json.encoder.py_encode_basestring_ascii)
    for flag in (True, False):
        assert util.json_scalars(_SCALAR_EXAMPLES, ensure_ascii=flag) == expected[flag]
