"""Signal/message extraction from source code, and catalog validation.

Extraction renders the extraction construct once per retrieved catalog chunk
(the chunk text is appended to the rendered prompt as grounding context),
parses each completion, and unions the results. Validation then checks every
extracted entry against the catalogs and partitions the input into accepted
and rejected entries; nothing is dropped silently.

Rejection reasons:

* ``unknown-name``       - no catalog entry matches, exactly or by
                           normalized alias (unique match required).
* ``protocol-mismatch``  - the name exists, but in the other protocol's
                           catalog.
* ``type-mismatch``      - declared type disagrees with the catalog datatype,
                           or the value does not parse under that datatype.
* ``value-out-of-range`` - the value parses but violates bounds or the
                           allowed set.
"""

from __future__ import annotations

from typing import NamedTuple

from .catalog import Catalog, CatalogEntry, validate_value
from .errors import ConfigurationError, ExtractionFormatError
from .llm_gateway import PC1, CompletionRequest, LlmGateway, render_prompt
from .retrieval import Chunk
from .util import first_json_array

PROTOCOLS = ("VSS", "CAN")

REASON_UNKNOWN_NAME = "unknown-name"
REASON_TYPE_MISMATCH = "type-mismatch"
REASON_OUT_OF_RANGE = "value-out-of-range"
REASON_PROTOCOL_MISMATCH = "protocol-mismatch"

# declared-type spellings accepted for each catalog datatype
_TYPE_SYNONYMS = {
    "boolean": {"bool", "boolean"},
    "int": {"int", "integer", "int8", "int16", "int32", "int64",
            "uint8", "uint16", "uint32", "uint64"},
    "float": {"float", "double", "real", "number", "float32", "float64"},
    "string": {"string", "str", "text"},
    "enum": {"enum", "enumeration"},
}


class ExtractedEntry(NamedTuple):
    name: str
    type: str
    value: str | None
    protocol: str  # "VSS" | "CAN"


class AcceptedEntry(NamedTuple):
    entry: ExtractedEntry
    resolved_key: str


class RejectedEntry(NamedTuple):
    entry: ExtractedEntry
    reason: str
    detail: str = ""


class ExtractionReport(NamedTuple):
    accepted: tuple[AcceptedEntry, ...]
    rejected: tuple[RejectedEntry, ...]
    source_digest: str = ""
    notes: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "accepted": [
                {
                    "name": a.entry.name,
                    "type": a.entry.type,
                    "value": a.entry.value,
                    "protocol": a.entry.protocol,
                    "resolved_key": a.resolved_key,
                }
                for a in self.accepted
            ],
            "rejected": [
                {
                    "name": r.entry.name,
                    "type": r.entry.type,
                    "value": r.entry.value,
                    "protocol": r.entry.protocol,
                    "reason": r.reason,
                    "detail": r.detail,
                }
                for r in self.rejected
            ],
            "source_digest": self.source_digest,
            "notes": list(self.notes),
        }


def build_extraction_prompt(code: str, chunk: Chunk) -> str:
    """Extraction construct rendered with the code, grounded by one catalog chunk."""
    rendered = render_prompt(PC1, {"code": code})
    return rendered + "\n\nCatalog context:\n" + chunk.text()


def build_extraction_retry_prompt(code: str, chunk: Chunk,
                                  rejected: tuple[RejectedEntry, ...]) -> str:
    """Retry prompt: the base prompt plus the validation feedback."""
    lines = [
        f"- {r.entry.name} ({r.entry.protocol}): {r.reason}"
        + (f" ({r.detail})" if r.detail else "")
        for r in rejected
    ]
    return (
        build_extraction_prompt(code, chunk)
        + "\n\nThe following previously extracted entries failed catalog validation:\n"
        + "\n".join(lines)
        + "\nRe-extract the entry list using only catalog names."
    )


def _coerce_value(raw) -> str | None:
    if raw is None:
        return None
    if isinstance(raw, bool):
        return "true" if raw else "false"
    if isinstance(raw, (int, float)):
        return repr(raw)
    return str(raw)


def parse_extraction_response(text: str) -> list[ExtractedEntry]:
    """Pull the first well-formed JSON entry array out of a completion.

    The array may sit inside code fences or prose; field order is irrelevant.
    ``name``, ``type`` and ``protocol`` are required on every object,
    ``value`` is optional.
    """
    array = first_json_array(text, ExtractionFormatError, "completion")
    if array is None:
        raise ExtractionFormatError("completion contains no JSON array of entries")
    entries: list[ExtractedEntry] = []
    for index, obj in enumerate(array):
        if not isinstance(obj, dict):
            raise ExtractionFormatError(f"entry {index} is not an object")
        for field_name in ("name", "type", "protocol"):
            if field_name not in obj or obj[field_name] is None:
                raise ExtractionFormatError(
                    f"entry {index} is missing field '{field_name}'"
                )
        name = obj["name"]
        if not isinstance(name, str) or not name.strip():
            raise ExtractionFormatError(f"entry {index} has an empty name")
        protocol = str(obj["protocol"]).strip().upper()
        if protocol not in PROTOCOLS:
            raise ExtractionFormatError(
                f"entry {index} has unknown protocol '{obj['protocol']}'"
            )
        entries.append(ExtractedEntry(
            name=name.strip(),
            type=str(obj["type"]).strip(),
            value=_coerce_value(obj.get("value")),
            protocol=protocol,
        ))
    return entries


def _extract_union(prompts: list[str], gateway: LlmGateway) -> list[ExtractedEntry]:
    """Complete every prompt and union the parsed entries.

    Entries identical in (name, protocol, value) are deduplicated keeping the
    first occurrence; same name with a different value is kept so validation
    can surface the conflict.
    """
    merged: list[ExtractedEntry] = []
    seen: set[tuple[str, str, str | None]] = set()
    for prompt in prompts:
        completion = gateway.complete(CompletionRequest(prompt=prompt))
        for entry in parse_extraction_response(completion):
            key = (entry.name, entry.protocol, entry.value)
            if key in seen:
                continue
            seen.add(key)
            merged.append(entry)
    return merged


def extract_entries(code: str, chunks: list[Chunk], gateway: LlmGateway) -> list[ExtractedEntry]:
    """Run the extraction construct over every chunk and union the results,
    deduplicated by (name, protocol, value)."""
    if not code:
        raise ConfigurationError("extraction needs non-empty source code")
    if not chunks:
        raise ConfigurationError("extraction needs at least one catalog chunk")
    return _extract_union([build_extraction_prompt(code, chunk) for chunk in chunks],
                          gateway)


def run_extraction(code: str, chunks: list[Chunk], gateway: LlmGateway,
                   signal_catalog: Catalog, message_catalog: Catalog,
                   max_retries: int = 1) -> ExtractionReport:
    """Extract, validate, and re-extract once per allowed retry while entries fail.

    The retry prompt carries the validation feedback; whatever is still
    rejected after the last retry stays in the report — nothing is dropped.
    """
    report = validate_entries(extract_entries(code, chunks, gateway),
                              signal_catalog, message_catalog)
    for _retry in range(max_retries):
        if not report.rejected:
            break
        entries = _extract_union(
            [build_extraction_retry_prompt(code, chunk, report.rejected)
             for chunk in chunks],
            gateway)
        report = validate_entries(entries, signal_catalog, message_catalog)
    return report


def _resolve(name: str, catalog: Catalog) -> tuple[CatalogEntry | None, str]:
    """Exact lookup first, then unique normalized-alias match.

    Returns (entry, status) where status is 'exact', 'alias', 'ambiguous'
    or 'absent'.
    """
    exact = catalog.lookup_entry(name)
    if exact is not None:
        return exact, "exact"
    matches = catalog.lookup_normalized(name)
    if len(matches) == 1:
        return matches[0], "alias"
    if len(matches) > 1:
        return None, "ambiguous"
    return None, "absent"


def validate_entries(entries: list[ExtractedEntry], signal_catalog: Catalog,
                     message_catalog: Catalog) -> ExtractionReport:
    """Partition extracted entries into accepted and rejected against the catalogs."""
    accepted: list[AcceptedEntry] = []
    rejected: list[RejectedEntry] = []
    for entry in entries:
        if entry.protocol == "VSS":
            own, other = signal_catalog, message_catalog
        else:
            own, other = message_catalog, signal_catalog
        resolved, status = _resolve(entry.name, own)
        if resolved is None:
            if status == "ambiguous":
                rejected.append(RejectedEntry(
                    entry, REASON_UNKNOWN_NAME,
                    f"'{entry.name}' matches multiple catalog keys after normalization",
                ))
                continue
            other_entry, other_status = _resolve(entry.name, other)
            if other_entry is not None:
                rejected.append(RejectedEntry(
                    entry, REASON_PROTOCOL_MISMATCH,
                    f"'{entry.name}' belongs to the {other_entry.protocol} catalog",
                ))
            else:
                rejected.append(RejectedEntry(
                    entry, REASON_UNKNOWN_NAME,
                    f"'{entry.name}' is not in the {entry.protocol} catalog",
                ))
            continue
        # declared-type check; message-level entries carry no declared datatype
        if entry.protocol == "VSS" and resolved.datatype is not None:
            declared = entry.type.strip().lower()
            if declared not in _TYPE_SYNONYMS[resolved.datatype]:
                rejected.append(RejectedEntry(
                    entry, REASON_TYPE_MISMATCH,
                    f"declared '{entry.type}', catalog says '{resolved.datatype}'",
                ))
                continue
        if entry.value is not None:
            verdict = validate_value(resolved, entry.value)
            if not verdict.ok:
                if verdict.violation == "type-mismatch":
                    rejected.append(RejectedEntry(
                        entry, REASON_TYPE_MISMATCH, verdict.detail or ""))
                else:
                    rejected.append(RejectedEntry(
                        entry, REASON_OUT_OF_RANGE,
                        f"{verdict.violation}: {verdict.detail}"))
                continue
        accepted.append(AcceptedEntry(entry=entry, resolved_key=resolved.key))

    notes = []
    by_key: dict[str, list[AcceptedEntry]] = {}
    for acc in accepted:
        by_key.setdefault(acc.resolved_key, []).append(acc)
    for key in sorted(by_key):
        values = [a.entry.value for a in by_key[key]]
        distinct = sorted({v for v in values if v is not None})
        if len(distinct) > 1:
            notes.append(
                f"conflicting values for {key}: " + ", ".join(distinct)
            )
    return ExtractionReport(
        accepted=tuple(accepted),
        rejected=tuple(rejected),
        notes=tuple(notes),
    )
