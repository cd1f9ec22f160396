"""The windowed extraction scanner against the whole-text scanner it replaced.

``reference_first_json_array`` below is the previous ``util.first_json_array``,
kept verbatim: it retries ``raw_decode`` on the whole text at each ``[``, and
each failed retry builds a ``JSONDecodeError`` that counts the lines before
its position, so a text with n skipped ``[`` took time quadratic in n. The
program decodes each ``[`` on a window of the text instead. Both must give
the same array, or the same typed error, on every text; the only new outcome
is the scan budget's error, which no text here is long enough to reach.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sdv_guard import util
from sdv_guard.errors import ExtractionFormatError, SdvGuardError
from sdv_guard.extraction import parse_extraction_response
from sdv_guard.util import _STRICT, _strict_strings, first_json_array

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench import generators as gen  # noqa: E402
from bench.workloads import CATALOG_LEAVES, CATALOG_MESSAGES, CATALOG_MODES  # noqa: E402


def reference_first_json_array(text: str, error_type: type[SdvGuardError],
                               what: str) -> list | None:
    decoder = json.JSONDecoder(**_STRICT)
    start = text.find("[")
    while start != -1:
        try:  # JSON that starts with "[" is an array
            value, end = decoder.raw_decode(text, start)
            return _strict_strings(value, text[start:end])
        except json.JSONDecodeError:
            start = text.find("[", start + 1)
        except RecursionError:
            raise error_type(f"{what} nests JSON too deeply to parse") from None
        except (ValueError, OverflowError) as exc:
            raise error_type(f"{what} is not valid JSON: {exc}") from exc
    return None


def _outcome(scan, text: str):
    try:
        value = scan(text, ExtractionFormatError, "completion")
    except ExtractionFormatError as exc:
        return "error", str(exc)
    return "array", repr(value)


# JSON fragments and prose, with brackets in strings, in keys and in prose,
# and every way a decode can stop: a literal, number or escape cut short, a
# strict-rule break (NaN, 1e999, a lone surrogate), a control character
PIECES = (
    "[", "]", "{", "}", '"', ":", ",", " ", "\n", "\\", "\x00", "\t",
    "1", "-", "2.5", "e", "E+", "1e999", "-0", "12345678901234567890",
    "true", "tru", "null", "NaN", "Infinity", "-Infinity", "Infin",
    "\\u00e9", "\\ud83d\\ude00", "\\ud800", "\\u12", "\\n",
    '"["', '"]"', '"[": 1', '{"[": "]"}', "see [1] and [2", "entries: ",
    "```json\n", "\n```", "Straße", "é",
)

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-10**20, 10**20)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(alphabet='ab[]{}":,\\\n é', max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(alphabet='k[]"', max_size=3), inner, max_size=3),
    max_leaves=6,
)

TEXTS = st.lists(
    st.sampled_from(PIECES) | JSON_VALUES.map(json.dumps),
    max_size=12,
).map("".join).filter(lambda text: len(text) <= 150)


# a window of 1 doubles through the margin on every decode; 17 and 40 cut
# the texts here at every kind of token; 1024 is the program's first window
@pytest.mark.parametrize("window", [1, 17, 40, util._FIRST_WINDOW])
@settings(max_examples=300, derandomize=True, deadline=None)
@given(text=TEXTS)
@example(text='[{"[":1,"[":1,')
@example(text='["a[a[a[')
@example(text='x [1, 2.5e3] [3]')
@example(text='[1, NaN, ')
@example(text='["\\ud800"] [2]')
@example(text='[ "a", "\\ud83d\\ude00" ]')
@example(text='[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[1]')
@example(text='"k"\\u00e9"["[-11e9992.5\x00\\u12')
def test_window_scan_matches_the_whole_text_scan(window, text):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(util, "_FIRST_WINDOW", window)
        assert _outcome(first_json_array, text) == _outcome(reference_first_json_array, text)


@pytest.mark.parametrize("text", [
    # a literal, number or escape cut at a window's end must not decide
    "[" + " " * 1010 + "Infinity]",
    "[" + " " * 1015 + "1e999]",
    "[" + " " * 1018 + "1e9992]",
    "[" + " " * 3790 + "1" * 5000 + "]",
    "[" + " " * 1012 + '"\\ud83d\\ude00"]',
    "[" + " " * 1016 + '"\\u00e9", 1.5e2]',
    "[" + "1," * 600 + "true]",
    "[" + '"' + "x" * 2000 + '"]',
    "[" + '"' + "x" * 2000,
], ids=["literal", "overflow", "cut-overflow", "cut-long-int", "surrogate-pair", "escape",
        "long-array", "long-string", "unterminated"])
def test_window_cuts_do_not_decide(text):
    assert _outcome(first_json_array, text) == _outcome(reference_first_json_array, text)


def _fixture_completions() -> list[str]:
    texts = []
    for path in sorted((ROOT / "fixtures" / "replay").glob("*.json")):
        texts.extend(json.loads(path.read_text(encoding="utf-8")).values())
    return texts


def _bench_extraction_completions(seed: int) -> list[str]:
    """The catalog-scale workload's scripted extraction answers: each
    function's entries, with and without its planted bad entry."""
    rng = random.Random(seed)
    _vss, leaves = gen.vss_catalog(rng, CATALOG_LEAVES)
    _can, frames = gen.can_catalog(rng, CATALOG_MESSAGES)
    transport = gen.ScriptedTransport(gen.vehicle_functions(rng, leaves, frames, CATALOG_MODES))
    completions = []
    for fn in transport.functions.values():
        for prompt in (f"You are extracting\ndef {fn.name}(",
                       f"You are extracting\ndef {fn.name}_guarded("):
            answer = transport({"messages": [{"content": prompt}]})
            completions.append(answer["choices"][0]["message"]["content"])
    return completions


def test_fixture_and_bench_completions_give_the_same_arrays():
    fixtures, bench = _fixture_completions(), _bench_extraction_completions(1)
    assert fixtures and len(bench) == 2 * len(CATALOG_MODES)
    for text in fixtures + bench:
        assert _outcome(first_json_array, text) == _outcome(reference_first_json_array, text)


def _cpu_ms(text: str) -> float:
    """Median process-CPU time of a scan of ``text``, in milliseconds."""
    times = []
    for _ in range(5):
        began = time.process_time()
        assert first_json_array(text, ExtractionFormatError, "completion") is None
        times.append(time.process_time() - began)
    return statistics.median(times) * 1e3


# n against 8n: a linear scan costs about 8 times as much, the whole-text
# scan about 64 times (its JSONDecodeErrors count the lines before them)
@pytest.mark.parametrize("prefix, unit", [('[{', '"[":1,'), ('["', 'a[')])
def test_skipped_brackets_cost_linear_time(prefix, unit):
    small = _cpu_ms(prefix + unit * 5_000)
    large = _cpu_ms(prefix + unit * 40_000)
    assert large < 16 * max(small, 0.5)


def test_nesting_before_a_long_tail_fails_closed_fast():
    # each of the 900 "[" would read the whole 200 kB tail
    text = "[" * 900 + "1," * 100_000
    began = time.process_time()
    with pytest.raises(ExtractionFormatError, match="too many '\\[' that start no JSON array"):
        parse_extraction_response(text)
    assert time.process_time() - began < 1.0


def test_a_long_broken_array_before_the_answer_is_skipped():
    entry = '{"name": "Vehicle.Speed", "type": "float", "protocol": "VSS"}'
    broken = "[" + ", ".join([entry] * 2_000) + " and then"
    entries = parse_extraction_response(f"{broken} [{entry}]")
    assert [e.name for e in entries] == ["Vehicle.Speed"]
