"""Pan/tilt centering control and the ASCII command wire protocol.

The controller drives two motors so the tracked focal point stays at frame
center (0.5, 0.5). Per axis, with error e = coordinate - 0.5: inside the
deadzone nothing is sent; otherwise the step count is round(e * gain) clamped
to +/- max_steps (and bumped to at least one step so motion always makes
progress). X is always commanded before Y.

Wire grammar, one ASCII line per command:

    motor:   "M" SP axis SP sign digits LF      axis in {X, Y}; sign + or -;
                                                1-3 digits, no leading zero
    device:  "D" SP device SP action LF         tokens [A-Za-z0-9_]{1,16}

decode_wire accepts exactly the canonical encodings, so any accepted line
re-encodes byte-for-byte; everything else raises ProtocolError with the byte
offset of the first deviation.
"""

from __future__ import annotations

import math
import re
import socket
from dataclasses import dataclass
from enum import Enum
from typing import Mapping

from .errors import ConfigError, ProtocolError, ValidationError
from .model import GestureEvent, Point2

_TOKEN = re.compile(r"[A-Za-z0-9_]{1,16}\Z")
_WIRE_MAX_STEPS = 999  # three digits on the wire


class Axis(str, Enum):
    """Motor axis: X pans, Y tilts."""

    X = "X"
    Y = "Y"


@dataclass(frozen=True)
class ControllerConfig:
    """Proportional centering parameters."""

    deadzone: float = 0.05
    gain: float = 40.0
    max_steps: int = 20

    def __post_init__(self) -> None:
        if not (0.0 <= self.deadzone < 0.5):
            raise ConfigError(f"deadzone must lie in [0, 0.5), got {self.deadzone}")
        if not (self.gain > 0 and math.isfinite(self.gain)):
            raise ConfigError(f"gain must be positive, got {self.gain}")
        if isinstance(self.max_steps, bool) or not isinstance(self.max_steps, int) \
                or not (1 <= self.max_steps <= _WIRE_MAX_STEPS):
            raise ConfigError(
                f"max_steps must be an integer in [1, {_WIRE_MAX_STEPS}], got {self.max_steps}")


@dataclass(frozen=True)
class MotorCommand:
    """A relative motor move: signed step count on one axis (never zero)."""

    axis: Axis
    steps: int

    def __post_init__(self) -> None:
        if not isinstance(self.axis, Axis):
            try:
                object.__setattr__(self, "axis", Axis(self.axis))
            except ValueError:
                raise ValidationError(f"axis must be X or Y, got {self.axis!r}") from None
        if isinstance(self.steps, bool) or not isinstance(self.steps, int):
            raise ValidationError(f"steps must be an integer, got {self.steps!r}")
        if self.steps == 0:
            raise ValidationError("steps must be non-zero")
        if abs(self.steps) > _WIRE_MAX_STEPS:
            raise ValidationError(f"steps must fit in three digits, got {self.steps}")


@dataclass(frozen=True)
class DeviceCommand:
    """An appliance action, e.g. DeviceCommand('tv', 'POWER')."""

    device_id: str
    action: str

    def __post_init__(self) -> None:
        for name, value in (("device_id", self.device_id), ("action", self.action)):
            if not isinstance(value, str) or not _TOKEN.match(value):
                raise ValidationError(
                    f"{name} must match [A-Za-z0-9_]{{1,16}}, got {value!r}")


def _round_half_away(x: float) -> int:
    return int(math.floor(abs(x) + 0.5)) * (1 if x >= 0 else -1)


def centering_step(focal: Point2, cfg: ControllerConfig = ControllerConfig()) -> list[MotorCommand]:
    """Commands that move the focal point toward frame center, X before Y.

    Per axis: no command inside the deadzone; otherwise
    steps = clamp(round(e * gain), +/- max_steps), never zero.
    """
    commands: list[MotorCommand] = []
    for axis, error in ((Axis.X, focal.x - 0.5), (Axis.Y, focal.y - 0.5)):
        if abs(error) <= cfg.deadzone:
            continue
        steps = _round_half_away(error * cfg.gain)
        if steps == 0:
            steps = 1 if error > 0 else -1
        steps = max(-cfg.max_steps, min(cfg.max_steps, steps))
        commands.append(MotorCommand(axis, steps))
    return commands


def map_gesture(event: GestureEvent,
                mapping: Mapping[str, DeviceCommand]) -> DeviceCommand | None:
    """The device command a gesture onset triggers; offsets and unmapped names give None."""
    if not event.is_onset:
        return None
    return mapping.get(event.name)


def encode_wire(cmd: MotorCommand | DeviceCommand) -> bytes:
    """Render a command as its canonical wire line (ASCII, LF-terminated)."""
    if isinstance(cmd, MotorCommand):
        sign = "+" if cmd.steps > 0 else "-"
        return f"M {cmd.axis.value} {sign}{abs(cmd.steps)}\n".encode("ascii")
    if isinstance(cmd, DeviceCommand):
        return f"D {cmd.device_id} {cmd.action}\n".encode("ascii")
    raise ValidationError(f"cannot encode {type(cmd).__name__}")


def _expect(data: bytes, pos: int, want: bytes, what: str) -> None:
    if data[pos:pos + 1] != want:
        raise ProtocolError(f"expected {what}", pos)


def decode_wire(data: bytes) -> MotorCommand | DeviceCommand:
    """Parse one wire line back into a command.

    Only canonical encodings are accepted — exact spacing, uppercase verbs and
    axes, no leading zeros, a single trailing LF — so decode/encode round-trips
    are byte-identical. Motor magnitudes run from 1 to 999, as the grammar's
    three digits allow. Violations raise ProtocolError carrying the byte offset.
    """
    if not isinstance(data, (bytes, bytearray)):
        raise ProtocolError(f"expected bytes, got {type(data).__name__}", 0)
    data = bytes(data)
    for i, byte in enumerate(data):
        if byte >= 0x80:
            raise ProtocolError(f"non-ASCII byte 0x{byte:02x}", i)
    if not data.endswith(b"\n"):
        raise ProtocolError("missing trailing LF", len(data))
    if b"\n" in data[:-1]:
        raise ProtocolError("embedded LF", data.index(b"\n"))

    verb = data[0:1]
    if verb == b"M":
        _expect(data, 1, b" ", "space after verb")
        axis_byte = data[2:3]
        if axis_byte not in (b"X", b"Y"):
            raise ProtocolError(f"axis must be X or Y, got {axis_byte!r}", 2)
        _expect(data, 3, b" ", "space after axis")
        sign_byte = data[4:5]
        if sign_byte not in (b"+", b"-"):
            raise ProtocolError(f"sign must be + or -, got {sign_byte!r}", 4)
        pos = 5
        while pos < len(data) - 1 and 0x30 <= data[pos] <= 0x39:
            pos += 1
        digits = data[5:pos]
        if not digits:
            raise ProtocolError("expected step digits", 5)
        if len(digits) > 3:
            raise ProtocolError("more than three step digits", 8)
        if digits[0:1] == b"0":
            raise ProtocolError("leading zero (or zero steps)", 5)
        if pos != len(data) - 1:
            raise ProtocolError("unexpected byte after digits", pos)
        value = int(digits)
        return MotorCommand(Axis(axis_byte.decode("ascii")),
                            value if sign_byte == b"+" else -value)

    if verb == b"D":
        _expect(data, 1, b" ", "space after verb")
        body = data[2:-1]
        first_space = body.find(b" ")
        if first_space < 0:
            raise ProtocolError("expected two tokens", len(data) - 1)
        device = body[:first_space]
        action = body[first_space + 1:]
        for start, token, what in ((2, device, "device token"),
                                   (2 + first_space + 1, action, "action token")):
            text = token.decode("ascii")
            if not _TOKEN.match(text):
                bad = start
                for j, ch in enumerate(text):
                    if not (ch.isascii() and (ch.isalnum() or ch == "_")):
                        bad = start + j
                        break
                else:
                    bad = start + min(len(text), 16)
                raise ProtocolError(f"bad {what}", bad)
        return DeviceCommand(device.decode("ascii"), action.decode("ascii"))

    raise ProtocolError(f"unknown verb {verb!r}", 0)


class Transport:
    """A byte sink for encoded command lines (TCP socket or serial device).

    Configure by URI: ``tcp://host:port`` or ``serial:<path>``. Context-manager
    friendly; ``send`` forwards raw bytes as-is.
    """

    def __init__(self, send, close, uri: str):
        self._send = send
        self._close = close
        self.uri = uri

    def send(self, data: bytes) -> None:
        self._send(data)

    def close(self) -> None:
        self._close()

    def __enter__(self) -> "Transport":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def open_transport(uri: str) -> Transport:
    """Open a command transport from its URI."""
    if uri.startswith("tcp://"):
        rest = uri[len("tcp://"):]
        host, sep, port_text = rest.rpartition(":")
        # ASCII digits only: str.isdigit and int also take other scripts' digits.
        port = int(port_text) if re.fullmatch("0*[0-9]{1,5}", port_text) else None
        if not sep or not host or port is None or port > 65535:
            raise ConfigError(f"tcp URI must be tcp://host:port, got {uri!r}")
        sock = socket.create_connection((host, port))
        return Transport(sock.sendall, sock.close, uri)
    if uri.startswith("serial:"):
        path = uri[len("serial:"):]
        if not path:
            raise ConfigError("serial URI must name a device path")
        fh = open(path, "wb", buffering=0)
        return Transport(fh.write, fh.close, uri)
    raise ConfigError(f"unsupported transport URI {uri!r} (want tcp:// or serial:)")
