"""Pieces the workloads share: paths, the device mapping, the tracking step."""

from __future__ import annotations

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REGISTRY_JSON = ROOT / "src" / "handwave" / "data" / "default_registry.json"


def device_mapping(registry) -> dict[str, tuple[str, str]]:
    """Every stock gesture sends one TV action named after it."""
    return {name: ("tv", name.upper()) for name, _, _ in registry}


def write_line(fh, obj) -> str:
    """Write ``obj`` as one compact JSON line; returns the line."""
    line = json.dumps(obj, separators=(",", ":"))
    fh.write(line + "\n")
    return line


def write_jsonl(path: Path, objs) -> list[str]:
    """Write each object as it comes, one per line; returns the lines."""
    with open(path, "w", encoding="ascii") as fh:
        return [write_line(fh, obj) for obj in objs]


class Tracking:
    """The body of ``handwave track`` for one frame: centre, debounce, map, send."""

    def __init__(self, hw, mapping: dict[str, tuple[str, str]]):
        self.hw = hw
        self.mapping = {name: hw.control.DeviceCommand(device, action)
                        for name, (device, action) in mapping.items()}
        self.registry = hw.gestures.default_registry()
        self.controller = hw.control.ControllerConfig()

    def open(self, sink: Path):
        """A fresh engine and a serial transport writing to ``sink``."""
        self.engine = self.hw.gestures.GestureEngine(self.registry)
        self.transport = self.hw.control.open_transport(f"serial:{sink}")
        return self.transport

    def step(self, frame) -> list:
        control, transport = self.hw.control, self.transport
        if frame.hands:
            focal = self.hw.gestures.focal_point(frame.hands[0])
            for cmd in control.centering_step(focal, self.controller):
                transport.send(control.encode_wire(cmd))
        events = self.engine.step(frame)
        for event in events:
            action = control.map_gesture(event, self.mapping)
            if action is not None:
                transport.send(control.encode_wire(action))
        return events


def tracking_counts(sink: bytes, events) -> dict:
    """The tracking step's gesture events and the commands its sink received."""
    lines = sink.splitlines()
    return {
        "gestures.onsets": sum(e.offset_ms is None for e in events),
        "gestures.offsets": sum(e.offset_ms is not None for e in events),
        "control.motor_commands": sum(line.startswith(b"M") for line in lines),
        "control.device_commands": sum(line.startswith(b"D") for line in lines),
        "control.bytes_sent": len(sink),
    }
