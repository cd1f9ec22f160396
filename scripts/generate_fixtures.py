#!/usr/bin/env python3
"""Regenerate the recorded completion stores and derived fixture files.

The stores under fixtures/replay/ are not hand-written: this script runs the
real pipeline in record mode against a deterministic scripted transport, so
every stored digest corresponds to a prompt the pipeline actually renders.
Rerunning the script from a clean tree reproduces the committed files byte
for byte.

Derived files regenerated here:

* fixtures/replay/{s1,s2,s3,s3_corrective,cabin,topology}.json
* fixtures/topology/system.json      (canonical form of system.puml)
* fixtures/topology/system-bad.puml  (system.puml with an unsafe steering value)
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from sdv_guard.llm_gateway import LlmGateway, ReplayStore
from sdv_guard.pipeline.config import PipelineConfig
from sdv_guard.pipeline.runs import run_safety_pipeline_files, run_topology_pipeline
from sdv_guard.pipeline.stages import catalog_index, extract_grounded, load_catalogs
from sdv_guard.topology.model import (
    export_class_diagram,
    import_class_diagram,
    parse_instance,
    serialize_instance,
)

FIXTURES = ROOT / "fixtures"
REPLAY = FIXTURES / "replay"

# ---------------------------------------------------------------------------
# scripted completions, keyed off the prompt opening plus a marker that is
# unique to each scenario's source code (its function name)

PC1_S1 = """\
Reviewing the function shows one VSS flag read, one VSS set-point write and
one CAN frame send.

```json
[
  {"name": "Vehicle.ADAS.ObstacleDetection.Camera", "type": "boolean", "value": null, "protocol": "VSS"},
  {"name": "Vehicle.Speed.Target", "type": "float", "value": 25.0, "protocol": "VSS"},
  {"name": "AccelCmd", "type": "frame", "value": null, "protocol": "CAN"}
]
```
"""

PC1_S2 = """\
The function reads the lidar detection flag and sends a brake frame.

```json
[
  {"name": "Vehicle.ADAS.ObstacleDetection.Lidar", "type": "boolean", "value": null, "protocol": "VSS"},
  {"name": "BrakeCmd", "type": "frame", "value": 80.0, "protocol": "CAN"}
]
```
"""

PC1_S3 = """\
The function writes the brake actuator and then reads the camera detection
flag.

```json
[
  {"name": "Vehicle.ADAS.Brake", "type": "boolean", "value": true, "protocol": "VSS"},
  {"name": "Vehicle.ADAS.ObstacleDetection.Camera", "type": "boolean", "value": null, "protocol": "VSS"}
]
```
"""

PC1_GUARDED = """\
The corrected function reads the camera detection flag first and brakes only
on a positive detection.

```json
[
  {"name": "Vehicle.ADAS.ObstacleDetection.Camera", "type": "boolean", "value": null, "protocol": "VSS"},
  {"name": "Vehicle.ADAS.Brake", "type": "boolean", "value": true, "protocol": "VSS"}
]
```
"""

PC1_CABIN = """\
The function toggles a single cabin signal.

```json
[
  {"name": "Vehicle.Cabin.Light", "type": "boolean", "value": true, "protocol": "VSS"}
]
```
"""

PC2_S1 = """\
Updated event chain for the camera approach assist:

```plantuml
@startuml
start
:Camera sense;
note right: input=Vehicle.ADAS.ObstacleDetection.Camera
note right: input_format=vss boolean
if (pedestrian in frame?) then (yes)
  :Pedestrian (camera) detected;
  :Accelerate;
  note right: output=AccelCmd
  note right: output_format=can frame 0x103
else (no)
  :Cruise;
endif
stop
@enduml
```
"""

PC2_S2 = """\
Updated event chain for the lidar stop function:

```plantuml
@startuml
start
if (lidar flag set?) then (yes)
  :Pedestrian (lidar) detected;
  note right: input=Vehicle.ADAS.ObstacleDetection.Lidar
  note right: input_format=vss boolean
  :Brake;
  note right: output=BrakeCmd
  note right: output_format=can frame 0x101
else (no)
  :Cruise;
endif
stop
@enduml
```
"""

PC2_S3 = """\
Updated event chain for the early brake function:

```plantuml
@startuml
start
:Camera sense;
:Brake;
note right: output=Vehicle.ADAS.Brake
note right: output_format=vss boolean
:Pedestrian (camera) detected;
note right: input=Vehicle.ADAS.ObstacleDetection.Camera
note right: input_format=vss boolean
stop
@enduml
```
"""

PC2_GUARDED = """\
Updated event chain after the correction:

```plantuml
@startuml
start
:Camera sense;
:Pedestrian (camera) detected;
note right: input=Vehicle.ADAS.ObstacleDetection.Camera
note right: input_format=vss boolean
:Brake;
note right: output=Vehicle.ADAS.Brake
note right: output_format=vss boolean
stop
@enduml
```
"""

PC2B_S3 = '''\
The brake command must follow the detection readout, not precede it.

```python
"""Guarded stop: brake only after the detection flag has been read."""


def guarded_brake(vss):
    detected = vss.read("Vehicle.ADAS.ObstacleDetection.Camera")
    if detected:
        vss.write("Vehicle.ADAS.Brake", True)
    return detected
```
'''


def _scripted_transport(pc3_completion: str, pc4_completion: str,
                        pc4b_completion: str):
    def transport(payload: dict) -> dict:
        prompt = payload["messages"][0]["content"]
        if prompt.startswith("You are extracting"):
            if "approach_assist" in prompt:
                completion = PC1_S1
            elif "lidar_stop" in prompt:
                completion = PC1_S2
            elif "guarded_brake" in prompt:
                completion = PC1_GUARDED
            elif "early_brake" in prompt:
                completion = PC1_S3
            elif "cabin_light" in prompt:
                completion = PC1_CABIN
            else:
                raise RuntimeError(f"no scripted extraction for: {prompt[:80]}")
        elif prompt.startswith("You are updating PlantUml"):
            if "guarded_brake" in prompt:
                completion = PC2_GUARDED
            elif "approach_assist" in prompt:
                completion = PC2_S1
            elif "lidar_stop" in prompt:
                completion = PC2_S2
            elif "early_brake" in prompt:
                completion = PC2_S3
            else:
                raise RuntimeError(f"no scripted chain for: {prompt[:80]}")
        elif prompt.startswith("Based on code analysis outcome"):
            completion = PC2B_S3
        elif prompt.startswith("Update model instance"):
            completion = pc3_completion
        elif prompt.startswith("Generate automotive system security constraints"):
            completion = pc4_completion
        elif prompt.startswith("Update automotive system model"):
            completion = pc4b_completion
        else:
            raise RuntimeError(f"no scripted completion for: {prompt[:80]}")
        return {"choices": [{"message": {"content": completion}}]}

    return transport


def _record_gateway(store_path: Path, transport) -> LlmGateway:
    store_path.unlink(missing_ok=True)
    return LlmGateway(mode="record", store=ReplayStore(path=store_path),
                      transport=transport)


def main() -> int:
    REPLAY.mkdir(parents=True, exist_ok=True)

    system_puml = (FIXTURES / "topology" / "system.puml").read_text(encoding="utf-8")
    system_model = import_class_diagram(system_puml)
    (FIXTURES / "topology" / "system.json").write_text(
        serialize_instance(system_model), encoding="utf-8")

    # unsafe twin: same topology, steering payload outside the safe range
    assert system_puml.count('"12.5"') == 1
    bad_puml = system_puml.replace('"12.5"', '"22.5"')
    (FIXTURES / "topology" / "system-bad.puml").write_text(bad_puml, encoding="utf-8")

    bad_model = import_class_diagram(bad_puml)
    bad_model.get("m_steer").attrs["payloadValue"] = "12.5"
    corrected_export = export_class_diagram(bad_model)

    security_ocl = (FIXTURES / "topology" / "security.ocl").read_text(encoding="utf-8")
    requirements = (FIXTURES / "topology" / "requirements.txt").read_text(encoding="utf-8")
    guidelines = (FIXTURES / "topology" / "guidelines.txt").read_text(encoding="utf-8")

    pc3 = ("Instance model for the requested topology:\n\n```plantuml\n"
           + system_puml + "```\n")
    pc4 = "```ocl\n" + security_ocl + "```\n"
    pc4b = ("Corrected model with the steering payload back in range:\n\n"
            "```plantuml\n" + corrected_export + "```\n")
    transport = _scripted_transport(pc3, pc4, pc4b)

    config = PipelineConfig()
    vss_path = FIXTURES / "catalogs" / "vss.json"
    can_path = FIXTURES / "catalogs" / "can.json"

    with tempfile.TemporaryDirectory() as tmp:
        for name, expected_verdict in (("s1", "violated"), ("s2", "violated"),
                                       ("s3", "violated")):
            gateway = _record_gateway(REPLAY / f"{name}.json", transport)
            result = run_safety_pipeline_files(
                FIXTURES / "code" / f"{name}.py", vss_path, can_path,
                FIXTURES / "rules" / f"rules-{name}.txt",
                gateway, config, out_dir=Path(tmp) / name,
            )
            assert result.verdict == expected_verdict, (name, result.verdict)
            print(f"{name}.json: {len(gateway.store)} completions, "
                  f"verdict {result.verdict}")

        gateway = _record_gateway(REPLAY / "s3_corrective.json", transport)
        result = run_safety_pipeline_files(
            FIXTURES / "code" / "s3.py", vss_path, can_path,
            FIXTURES / "rules" / "rules-s3.txt",
            gateway, PipelineConfig(max_iterations=2),
            out_dir=Path(tmp) / "s3_corrective", auto_correct=True,
        )
        assert result.verdict == "pass", result.verdict
        assert len(result.iterations) == 2
        assert len(gateway.store) == 5, len(gateway.store)
        print(f"s3_corrective.json: {len(gateway.store)} completions, "
              f"verdict {result.verdict}")

        gateway = _record_gateway(REPLAY / "cabin.json", transport)
        code = (FIXTURES / "code" / "cabin.py").read_text(encoding="utf-8")
        catalogs = load_catalogs(vss_path, can_path)
        report = extract_grounded(code, *catalogs, catalog_index(*catalogs), gateway, config)
        accepted = {a.resolved_key for a in report.accepted}
        assert accepted == {"Vehicle.Cabin.Light"}, accepted
        print(f"cabin.json: {len(gateway.store)} completions, "
              f"accepted {sorted(accepted)}")

        gateway = _record_gateway(REPLAY / "topology.json", transport)
        generated = run_topology_pipeline(
            gateway, config, requirements=requirements, guidelines=guidelines,
            out_dir=Path(tmp) / "topo_generated",
        )
        assert generated.verdict == "pass", generated.verdict
        assert len(generated.final_model) == len(system_model)
        corrected = run_topology_pipeline(
            gateway, PipelineConfig(max_iterations=2), model_text=bad_puml,
            constraints_text=security_ocl, out_dir=Path(tmp) / "topo_corrected",
            auto_correct=True,
        )
        assert corrected.verdict == "pass", corrected.verdict
        assert len(corrected.iterations) == 2
        assert len(gateway.store) == 3, len(gateway.store)
        print(f"topology.json: {len(gateway.store)} completions, "
              f"generated {generated.verdict}, corrected {corrected.verdict}")

    print("fixtures regenerated")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
