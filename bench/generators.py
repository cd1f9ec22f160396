"""Seeded input generators for the benchmark workloads.

Every generator takes a ``random.Random`` and returns the program's inputs
(catalog JSON, source code, diagrams, rule files, instance models,
constraint files) together with the answer known by construction: the
planted entries, verdicts and failing rows follow from how the input was
built, never from running the checker that the benchmark grades.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

WORDS = (
    "brake", "steer", "torque", "pedal", "wheel", "lamp", "door", "seat",
    "mirror", "window", "wiper", "horn", "battery", "charge", "motor",
    "coolant", "cabin", "climate", "radar", "camera", "lidar", "sonar",
    "lane", "cruise", "park", "gear", "axle", "tire", "pressure", "voltage",
    "current", "heater", "fan", "valve", "pump", "sensor", "beam", "signal",
    "trunk", "hood", "roof", "sunroof", "belt", "airbag", "odometer", "fuel",
    "range", "yaw", "pitch", "roll", "slip", "traction", "stability",
    "collision", "warning", "assist", "zone", "gateway", "display", "audio",
)
BRANCHES = (
    "Body", "Cabin", "Chassis", "Powertrain", "ADAS", "OBD", "Exterior",
    "Occupant", "Trailer", "Connectivity", "Battery", "Thermal",
)
SENSORS = ("camera", "lidar", "radar")

_DEF_RE = re.compile(r"def (fn_\d+(?:_guarded)?)\(")


def _cap(word: str) -> str:
    return word[:1].upper() + word[1:]


def _fenced(lang: str, body: str) -> str:
    return f"```{lang}\n{body}```\n"


# ---------------------------------------------------------------------------
# catalogs


@dataclass(frozen=True)
class Leaf:
    path: str
    datatype: str
    lo: float | None = None
    hi: float | None = None


@dataclass(frozen=True)
class Frame:
    name: str
    frame_id: int
    signal: str
    lo: float | None
    hi: float | None
    single: bool


def vss_catalog(rng, n_leaves: int) -> tuple[str, list[Leaf]]:
    """A Vehicle.<Branch>.<Group>.<Leaf> tree with ``n_leaves`` leaf signals."""
    root: dict = {}
    leaves: list[Leaf] = []
    groups: dict[tuple[str, int], str] = {}
    for index in range(n_leaves):
        branch = BRANCHES[index % len(BRANCHES)]
        slot = index // (len(BRANCHES) * 8)
        group = groups.setdefault((branch, slot), f"{_cap(rng.choice(WORDS))}{slot}")
        leaf_name = f"{_cap(rng.choice(WORDS))}{_cap(rng.choice(WORDS))}{index}"
        path = f"Vehicle.{branch}.{group}.{leaf_name}"
        roll = rng.random()
        node: dict = {"description": " ".join(rng.sample(WORDS, 5))}
        if roll < 0.45:
            lo = float(rng.choice((-100, -40, 0, 0, 0)))
            hi = lo + float(rng.choice((50, 100, 250, 1000)))
            node.update(type="sensor", datatype="float", unit=rng.choice(("km/h", "deg", "V", "A", "kPa")),
                        min=lo, max=hi)
            leaves.append(Leaf(path, "float", lo, hi))
        elif roll < 0.60:
            node.update(type="attribute", datatype="int", min=0, max=rng.choice((7, 255, 65535)))
            leaves.append(Leaf(path, "int", 0.0, float(node["max"])))
        elif roll < 0.85:
            node.update(type="actuator", datatype="boolean")
            leaves.append(Leaf(path, "boolean"))
        elif roll < 0.95:
            node.update(type="attribute", datatype="enum", allowed=rng.sample(WORDS, 3))
            leaves.append(Leaf(path, "enum"))
        else:
            node.update(type="attribute", datatype="string")
            leaves.append(Leaf(path, "string"))
        vehicle = root.setdefault("Vehicle", {"type": "branch", "description": "vehicle root",
                                              "children": {}})
        branch_node = vehicle["children"].setdefault(
            branch, {"type": "branch", "description": f"{branch} signals", "children": {}})
        group_node = branch_node["children"].setdefault(
            group, {"type": "branch", "description": f"{group} group", "children": {}})
        group_node["children"][leaf_name] = node
    return json.dumps(root, indent=2) + "\n", leaves


def can_catalog(rng, n_messages: int) -> tuple[str, list[Frame]]:
    """An array of CAN messages; about half carry exactly one bounded signal."""
    ids = rng.sample(range(0x100, 0x100 + 8 * n_messages), n_messages)
    messages = []
    frames: list[Frame] = []
    for index, frame_id in enumerate(ids):
        name = f"{_cap(rng.choice(WORDS))}{_cap(rng.choice(WORDS))}Frame{index}"
        n_signals = 1 if rng.random() < 0.5 else rng.randint(2, 3)
        signals = []
        for slot in range(n_signals):
            hi = float(rng.choice((100, 250, 1000)))
            signals.append({
                "name": f"{_cap(rng.choice(WORDS))}{slot}",
                "start_bit": 16 * slot, "bit_length": 16,
                "scale": rng.choice((0.01, 0.1, 0.5, 1)), "offset": 0,
                "min": 0, "max": hi, "unit": rng.choice(("N", "Nm", "deg", "%")),
            })
        messages.append({"name": name, "frame_id": f"0x{frame_id:X}", "dlc": 8,
                         "signals": signals})
        first = signals[0]
        frames.append(Frame(name, frame_id, first["name"], float(first["min"]),
                            float(first["max"]), n_signals == 1))
    return json.dumps(messages, indent=2) + "\n", frames


# ---------------------------------------------------------------------------
# vehicle functions and the scripted completion endpoint

BAD_KINDS = ("unknown-name", "protocol-mismatch", "value-out-of-range")

SAFETY_RULES = (
    "# Braking must be a reaction to a pedestrian detection, whichever sensor reports it.\n"
    "alias pedestrian-detected = pedestrian-*-detected\n"
    "rule1: brake after pedestrian-detected\n"
)


@dataclass(frozen=True)
class VehicleFunction:
    """One synthetic vehicle function and everything known about it.

    ``mode`` is ``single`` (one pass), ``retry`` (the first extraction plants
    a rejected entry, so the retry prompt fires) or ``correct`` (the first
    diagram violates the rule, the correction passes).
    """

    name: str
    mode: str
    code: str
    corrected_code: str
    entries: tuple[dict, ...]
    bad_entry: dict | None
    sensor: str
    safe: bool  # first-iteration diagram satisfies the rule

    @property
    def expected_keys(self) -> tuple[str, ...]:
        return tuple(entry["name"] for entry in self.entries)

    @property
    def expected_verdict(self) -> str:
        return "pass" if self.safe or self.mode == "correct" else "violated"

    @property
    def expected_iterations(self) -> int:
        return 2 if self.mode == "correct" else 1

    def diagram(self, safe: bool) -> str:
        vss_in, vss_out, frame = self.entries
        arm = ([f":Pedestrian ({self.sensor}) detected;", ":Brake;"] if safe
               else [":Brake;", f":Pedestrian ({self.sensor}) detected;"])
        lines = [
            "@startuml", "start", f":{_cap(self.sensor)} sense;",
            f"note right: input={vss_in['name']}",
            "note right: input_format=vss " + vss_in["type"],
            "if (object ahead?) then (yes)", *("  " + line for line in arm),
            f"  note right: output={frame['name']}",
            "  note right: output_format=can frame",
            "else (no)", "  :Cruise;", f"  note right: output={vss_out['name']}",
            "endif", "stop", "@enduml",
        ]
        return "\n".join(lines) + "\n"


def _function_code(name: str, description: str, vss_in: Leaf, vss_out: Leaf,
                   frame: Frame, out_value: float, guarded: bool) -> str:
    body = [
        f'"""{description}."""',
        "",
        f'INPUT_SIGNAL = "{vss_in.path}"',
        f'OUTPUT_SIGNAL = "{vss_out.path}"',
        f"FRAME_ID = 0x{frame.frame_id:X}  # {frame.name}",
        "",
        "",
        f"def {name}(vss, bus):",
        "    value = vss.read(INPUT_SIGNAL)",
    ]
    if guarded:
        body += [
            "    if value:",
            f"        vss.write(OUTPUT_SIGNAL, {out_value!r})",
            f"        bus.send(FRAME_ID, {frame.signal.lower()}=1)",
        ]
    else:
        body += [
            f"    bus.send(FRAME_ID, {frame.signal.lower()}=1)",
            "    if value:",
            f"        vss.write(OUTPUT_SIGNAL, {out_value!r})",
        ]
    body.append("    return value")
    return "\n".join(body) + "\n"


def vehicle_functions(rng, leaves: list[Leaf], frames: list[Frame],
                      modes: list[str]) -> list[VehicleFunction]:
    """One function per entry of ``modes``; names are unique within the list."""
    bounded = [leaf for leaf in leaves if leaf.datatype == "float"]
    flags = [leaf for leaf in leaves if leaf.datatype == "boolean"]
    singles = [frame for frame in frames if frame.single]
    functions = []
    for index, mode in enumerate(modes):
        name = f"fn_{index:04d}"
        vss_in, vss_out, frame = rng.choice(flags), rng.choice(bounded), rng.choice(singles)
        out_value = round(rng.uniform(vss_out.lo, vss_out.hi), 1)
        entries = (
            {"name": vss_in.path, "type": "boolean", "value": None, "protocol": "VSS"},
            {"name": vss_out.path, "type": "float", "value": out_value, "protocol": "VSS"},
            {"name": frame.name, "type": "frame", "value": None, "protocol": "CAN"},
        )
        bad_entry = None
        if mode == "retry":
            bad_kind = BAD_KINDS[index % len(BAD_KINDS)]
            if bad_kind == "unknown-name":
                bad_entry = {"name": vss_in.path + "Bogus", "type": "boolean",
                             "value": None, "protocol": "VSS"}
            elif bad_kind == "protocol-mismatch":
                bad_entry = {"name": vss_out.path, "type": "float", "value": None,
                             "protocol": "CAN"}
            else:
                bad_entry = {"name": vss_out.path, "type": "float",
                             "value": vss_out.hi + 10.0, "protocol": "VSS"}
        description = " ".join(rng.sample(WORDS, 6))
        functions.append(VehicleFunction(
            name=name, mode=mode,
            code=_function_code(name, description, vss_in, vss_out, frame, out_value, False),
            corrected_code=_function_code(name + "_guarded", description, vss_in, vss_out,
                                          frame, out_value, True),
            entries=entries, bad_entry=bad_entry,
            sensor=rng.choice(SENSORS),
            safe=mode != "correct" and rng.random() < 0.5,
        ))
    return functions


class ScriptedTransport:
    """Deterministic stand-in for the chat-completions endpoint.

    It recognises the prompt construct by its opening words and the vehicle
    function by the ``def fn_NNNN`` line in the embedded code, and answers
    from the function's script: extraction entries (plus the planted bad
    entry on a first attempt), the activity diagram, or the corrected code.
    """

    def __init__(self, functions: list[VehicleFunction]):
        self.functions = {fn.name: fn for fn in functions}
        self.calls = 0

    def __call__(self, payload: dict) -> dict:
        self.calls += 1
        prompt = payload["messages"][0]["content"]
        marker = _DEF_RE.search(prompt).group(1)
        guarded = marker.endswith("_guarded")
        fn = self.functions[marker.removesuffix("_guarded")]
        if prompt.startswith("You are extracting"):
            entries = list(fn.entries)
            if fn.bad_entry is not None and not guarded and "failed catalog validation" not in prompt:
                entries.append(fn.bad_entry)
            text = "Entries found in the code:\n\n" + _fenced("json", json.dumps(entries, indent=1) + "\n")
        elif prompt.startswith("You are updating PlantUml"):
            text = "Updated event chain:\n\n" + _fenced("plantuml", fn.diagram(fn.safe or guarded))
        elif prompt.startswith("Based on code analysis outcome"):
            text = "Brake only after the detection:\n\n" + _fenced("python", fn.corrected_code)
        else:
            raise RuntimeError(f"no scripted completion for: {prompt[:60]}")
        return {"choices": [{"message": {"content": text}}]}


# ---------------------------------------------------------------------------
# activity diagrams and rule files


@dataclass
class ChainCase:
    """A diagram, its rule file, and each rule's verdict by construction."""

    name: str
    diagram: str
    rules: str
    verdicts: dict[str, str]

    @property
    def overall(self) -> str:
        return "violated" if "violated" in self.verdicts.values() else "pass"


@dataclass
class _Arm:
    items: list = field(default_factory=list)  # action labels or nested _Decision


@dataclass
class _Decision:
    yes: _Arm
    no: _Arm


def _rule_text(rng, rule_name: str, atoms: list[tuple[str, str, str | None]]) -> str:
    """One rule stanza; each atom is (brake event, detect event, alias glob or None).

    Each atom says "every brake follows a detection", written with ``after``
    or ``before``; half the rules wrap the conjunction as ``forbid not (...)``,
    which has the same verdict as ``require``.
    """
    lines = []
    parts = []
    for brake, detect, glob in atoms:
        if glob is not None:
            lines.append(f"alias {detect} = {glob}")
        parts.append(f"{brake} after {detect}" if rng.random() < 0.5
                     else f"{detect} before {brake}")
    expr = " and ".join(parts)
    if rng.random() < 0.5:
        lines.append(f"{rule_name}: forbid not ({expr})")
    else:
        lines.append(f"{rule_name}: {expr}")
    return "\n".join(lines)


def _planted_atom(rng, tag: str, alias: bool) -> tuple[str, str, str, str | None]:
    """(brake label, detect label, the rule's detect event, alias glob or None)."""
    sensor = rng.choice(SENSORS)
    brake_label = f"Brake {tag}"
    detect_label = f"{_cap(sensor)} detect {tag}"
    if alias:
        return brake_label, detect_label, f"obstacle-{tag}", f"*-detect-{tag}"
    return brake_label, detect_label, f"{sensor}-detect-{tag}", None


def activity_case(rng, name: str, decisions: int, n_rules: int, n_violated: int) -> ChainCase:
    """A diagram with ``decisions`` if-blocks and ``n_rules`` two-atom rules.

    The seed picks names, sensors, syntax and which rules are violated; the
    shape that sets the checking cost is fixed by the arguments. A quarter
    of the decisions are nested, each in the no-arm of one of the last
    top-level decisions, so there are 2^(top - nested) * 3^nested paths.
    Every atom plants a (brake, detect) pair. A passing pair puts the
    detection before the first decision, so every brake follows it. A
    violated rule's first atom violates, alternately in two ways: the
    detection sits in the yes-arm of decision 0 and the brake in that of
    decision 1 (a path taking no-then-yes brakes undetected), or the brake
    precedes the detection within the yes-arm of decision 0.
    """
    nested = decisions // 4
    top = decisions - nested
    if top - nested < 2:
        raise ValueError("need at least two top-level decisions without a nested one")
    prefix: list[str] = []
    blocks = [_Decision(_Arm([f"Task {i} yes"]), _Arm([f"Task {i} no"])) for i in range(top)]
    for j in range(nested):
        blocks[top - 1 - j].no.items.append(
            _Decision(_Arm([f"Inner {j} yes"]), _Arm([f"Inner {j} no"])))
    violated = sorted(rng.sample(range(1, n_rules + 1), n_violated))
    verdicts: dict[str, str] = {}
    stanzas = []
    for r in range(1, n_rules + 1):
        rule_name = f"rule{r}"
        atoms = []
        for a in range(2):
            tag = f"r{r}a{a}"
            brake, detect, event, glob = _planted_atom(rng, tag, alias=a == 0)
            atoms.append((f"brake-{tag}", event, glob))
            if r not in violated or a == 1:
                prefix.append(detect)
                blocks[(r + a) % top].yes.items.append(brake)
            elif violated.index(r) % 2 == 0:
                blocks[0].yes.items.append(detect)
                blocks[1].yes.items.append(brake)
            else:
                blocks[0].yes.items.extend([brake, detect])
        verdicts[rule_name] = "violated" if r in violated else "pass"
        stanzas.append(_rule_text(rng, rule_name, atoms))
    lines = ["@startuml", "start", ":Sense environment;"]
    lines += [f":{label};" for label in prefix]

    def emit(decision: _Decision, index: str, depth: int) -> None:
        pad = "  " * depth
        lines.append(f"{pad}if (condition {index}?) then (yes)")
        for arm_name, arm in (("yes", decision.yes), ("no", decision.no)):
            if arm_name == "no":
                lines.append(f"{pad}else (no)")
            for k, item in enumerate(arm.items):
                if isinstance(item, _Decision):
                    emit(item, f"{index}.{k}", depth + 1)
                else:
                    lines.append(f"{pad}  :{item};")
        lines.append(f"{pad}endif")

    for i, block in enumerate(blocks):
        emit(block, str(i), 0)
    lines += [":Report status;", "stop", "@enduml"]
    return ChainCase(name, "\n".join(lines) + "\n", "\n\n".join(stanzas) + "\n", verdicts)


def linear_case(rng, name: str, n_actions: int, n_rules: int) -> ChainCase:
    """A decision-free chain of ``n_actions`` actions with planted pairs."""
    labels = [f"Step {i}" for i in range(n_actions)]
    verdicts: dict[str, str] = {}
    stanzas = []
    slots = rng.sample(range(1, n_actions - 1), 2 * n_rules)
    for r in range(1, n_rules + 1):
        tag = f"r{r}a0"
        brake, detect, event, glob = _planted_atom(rng, tag, alias=r % 2 == 1)
        early, late = sorted(slots[2 * r - 2:2 * r])
        violated = rng.random() < 0.5
        labels[early], labels[late] = (brake, detect) if violated else (detect, brake)
        verdicts[f"rule{r}"] = "violated" if violated else "pass"
        stanzas.append(_rule_text(rng, f"rule{r}", [(f"brake-{tag}", event, glob)]))
    lines = ["@startuml", "start", *(f":{label};" for label in labels), "stop", "@enduml"]
    return ChainCase(name, "\n".join(lines) + "\n", "\n\n".join(stanzas) + "\n", verdicts)


# ---------------------------------------------------------------------------
# instance models and constraint files

SECURITY_CONSTRAINTS = (
    "SteeringCommandWithinLimits", "HPCtoZoneEthernetIEEE1722", "TargetSpeedWithinSafetyLimit",
)


@dataclass
class TopologyCase:
    """An instance model (JSON or object-diagram text), extra constraints,
    and the failing (constraint, object) rows by construction."""

    name: str
    model_text: str
    extra_constraints: str
    constraint_names: tuple[str, ...]
    failing: set[tuple[str, str]]
    objects: int

    @property
    def verdict(self) -> str:
        return "violated" if self.failing else "pass"


def instance_case(rng, name: str, n_messages: int, form: str, violate: bool,
                  n_caps: int = 3) -> TopologyCase:
    """A topology with components, networks, ``n_messages`` Message and
    VSSMessage objects, and ``n_caps`` seeded signal-cap constraints.

    Planted violations (only when ``violate``): steering payloads beyond
    15 degrees, HPC-to-zone traffic off Ethernet/IEEE-1722, target speeds
    above 30, unnamed components, and payloads above a signal cap. Every
    other object satisfies every constraint by its attribute values.
    """
    objects: list[dict] = []
    failing: set[tuple[str, str]] = set()

    def add(object_id: str, cls: str, attrs: dict, refs: dict | None = None) -> str:
        objects.append({"id": object_id, "class": cls, "attributes": attrs,
                        "references": refs or {}})
        return object_id

    def plant() -> bool:
        return violate and rng.random() < 0.03

    kinds = (("hpc", "HighPerformanceComputer", 4), ("zone", "ZoneECU", 12),
             ("cam", "Camera", 24), ("lidar", "Lidar", 8), ("sens", "GenericSensor", 40),
             ("steer", "SteeringActuator", 8), ("act", "GenericActuator", 40),
             ("sim", "SimulationComputer", 2))
    comps: dict[str, list[str]] = {}
    for prefix, cls, count in kinds:
        for i in range(max(1, count * n_messages // 1000)):
            object_id = f"{prefix}{i:03d}"
            named = not plant()
            if not named:
                failing.add(("ComponentNamed", object_id))
            comps.setdefault(prefix, []).append(
                add(object_id, cls, {"name": f"{prefix} {i} {rng.choice(WORDS)}" if named else ""}))
    eth = [add(f"eth{i}", "Ethernet", {"name": f"backbone {i}"}) for i in range(4)]
    can = [add(f"canfd{i}", "CANFD", {"name": f"zone bus {i}"}) for i in range(8)]
    caps = [(f"SignalCap{k}", f"Vehicle.Bench.Signal{k}.{_cap(rng.choice(WORDS))}",
             float(rng.choice((50, 80, 120)))) for k in range(n_caps)]

    for i in range(n_messages):
        object_id = f"m{i:05d}"
        roll = rng.random()
        if roll < 0.15:  # HPC -> steering actuator
            angle = rng.uniform(-15, 15)
            if plant():
                angle = rng.choice((-1, 1)) * rng.uniform(15.5, 40)
                failing.add(("SteeringCommandWithinLimits", object_id))
            add(object_id, "Message",
                {"standard": "IEEE-1722", "payloadValue": f"{angle:.2f}"},
                {"source": rng.choice(comps["hpc"]), "target": rng.choice(comps["steer"]),
                 "network": rng.choice(eth)})
        elif roll < 0.35:  # HPC -> zone
            network, standard = rng.choice(eth), "IEEE-1722"
            if plant():
                if rng.random() < 0.5:
                    network = rng.choice(can)
                else:
                    standard = "VSS-CAN"
                failing.add(("HPCtoZoneEthernetIEEE1722", object_id))
            add(object_id, "Message",
                {"standard": standard, "payloadValue": f"{rng.uniform(0, 100):.1f}"},
                {"source": rng.choice(comps["hpc"]), "target": rng.choice(comps["zone"]),
                 "network": network})
        elif roll < 0.50:  # sensor -> zone, raw frames on CAN-FD
            add(object_id, "Message",
                {"standard": "RAW", "payloadValue": f"{rng.uniform(0, 100):.1f}"},
                {"source": rng.choice(comps["sens"] + comps["cam"] + comps["lidar"]),
                 "target": rng.choice(comps["zone"]), "network": rng.choice(can)})
        else:  # VSS messages from sensors to the HPC
            path, limit, cap_name = "Vehicle.Speed.Target", 30.0, "TargetSpeedWithinSafetyLimit"
            if roll >= 0.75:
                cap_name, path, limit = rng.choice(caps)
            value = rng.uniform(0, limit)
            if plant():
                value = limit + rng.uniform(1, 50)
                failing.add((cap_name, object_id))
            add(object_id, "VSSMessage",
                {"standard": "VSS-CAN", "payloadValue": f"{value:.1f}", "vssPath": path,
                 "category": rng.choice(("status", "sensing", "actuator-command"))},
                {"source": rng.choice(comps["sens"] + comps["cam"]),
                 "target": rng.choice(comps["hpc"]), "network": rng.choice(can)})

    extra = ["context Component", "inv ComponentNamed:", "  self.name <> ''", ""]
    for cap_name, path, limit in caps:
        extra += ["context VSSMessage", f"inv {cap_name}:",
                  f"  self.vssPath = '{path}' implies self.payloadValue.toReal() <= {limit}", ""]
    rng.shuffle(objects)
    text = _instance_json(objects) if form == "json" else _object_diagram(objects)
    names = SECURITY_CONSTRAINTS + ("ComponentNamed",) + tuple(c[0] for c in caps)
    return TopologyCase(name, text, "\n".join(extra), names, failing, len(objects))


def _instance_json(objects: list[dict]) -> str:
    return json.dumps({"objects": objects}, indent=1) + "\n"


def _object_diagram(objects: list[dict]) -> str:
    lines = ["@startuml"]
    lines += [f"object {obj['id']} : {obj['class']}" for obj in objects]
    for obj in objects:
        for key, value in obj["attributes"].items():
            shown = value if key == "standard" or key == "category" else json.dumps(value)
            lines.append(f"{obj['id']} : {key} = {shown}")
    for obj in objects:
        for key, target in obj["references"].items():
            lines.append(f"{obj['id']} --> {target} : {key}")
    lines.append("@enduml")
    return "\n".join(lines) + "\n"
