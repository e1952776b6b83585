"""Centering controller, gesture-to-device mapping, wire codec, transports."""

import socket
import string
import threading

import numpy as np
import pytest

from handwave import (
    Axis,
    ConfigError,
    ControllerConfig,
    DeviceCommand,
    GestureEvent,
    MotorCommand,
    Point2,
    ProtocolError,
    ValidationError,
    centering_step,
    decode_wire,
    encode_wire,
    map_gesture,
    open_transport,
)


class TestControllerConfig:
    def test_defaults(self):
        cfg = ControllerConfig()
        assert (cfg.deadzone, cfg.gain, cfg.max_steps) == (0.05, 40.0, 20)

    @pytest.mark.parametrize("kwargs", [
        {"deadzone": -0.01},
        {"deadzone": 0.5},
        {"gain": 0.0},
        {"gain": float("inf")},
        {"max_steps": 0},
        {"max_steps": 1000},
        {"max_steps": 2.5},
        {"max_steps": True},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            ControllerConfig(**kwargs)


class TestCommands:
    def test_motor_command_axis_coercion(self):
        cmd = MotorCommand("X", 5)
        assert cmd.axis is Axis.X

    @pytest.mark.parametrize("axis,steps", [
        ("Z", 1), ("X", 0), ("X", 1000), ("X", -1000), ("X", 1.5), ("X", True),
    ])
    def test_motor_command_invalid(self, axis, steps):
        with pytest.raises(ValidationError):
            MotorCommand(axis, steps)

    @pytest.mark.parametrize("device,action", [
        ("", "POWER"), ("tv", ""), ("tv box", "POWER"), ("tv", "vol-up"),
        ("x" * 17, "POWER"), ("tv", "é"),
    ])
    def test_device_command_invalid(self, device, action):
        with pytest.raises(ValidationError):
            DeviceCommand(device, action)

    def test_device_command_token_charset(self):
        cmd = DeviceCommand("Tv_1", "VOL_UP")
        assert (cmd.device_id, cmd.action) == ("Tv_1", "VOL_UP")


class TestCenteringStep:
    def test_centered_no_commands(self):
        assert centering_step(Point2(0.5, 0.5)) == []

    def test_single_axis_example(self):
        # e_x = 0.2, gain 40 -> 8 steps right
        assert centering_step(Point2(0.7, 0.5)) == [MotorCommand(Axis.X, 8)]

    def test_clamped_far_corner(self):
        cfg = ControllerConfig(deadzone=0.05, gain=40.0, max_steps=10)
        cmds = centering_step(Point2(0.9, 0.9), cfg)
        assert cmds == [MotorCommand(Axis.X, 10), MotorCommand(Axis.Y, 10)]

    def test_x_emitted_before_y(self):
        cmds = centering_step(Point2(0.2, 0.8))
        assert [c.axis for c in cmds] == [Axis.X, Axis.Y]
        assert cmds[0].steps < 0 < cmds[1].steps

    def test_deadzone_boundary_inclusive(self):
        cfg = ControllerConfig(deadzone=0.1, gain=40.0, max_steps=20)
        assert centering_step(Point2(0.6, 0.5), cfg) == []  # |e| == deadzone
        assert centering_step(Point2(0.6 + 1e-9, 0.5), cfg) != []

    def test_round_half_away_from_zero(self):
        cfg = ControllerConfig(deadzone=0.0, gain=10.0, max_steps=20)
        # e = 0.15 -> 1.5 steps -> rounds to 2, both signs
        assert centering_step(Point2(0.65, 0.5), cfg) == [MotorCommand(Axis.X, 2)]
        assert centering_step(Point2(0.35, 0.5), cfg) == [MotorCommand(Axis.X, -2)]

    def test_tiny_error_bumps_to_one_step(self):
        cfg = ControllerConfig(deadzone=0.0, gain=1.0, max_steps=20)
        assert centering_step(Point2(0.51, 0.5), cfg) == [MotorCommand(Axis.X, 1)]
        assert centering_step(Point2(0.49, 0.5), cfg) == [MotorCommand(Axis.X, -1)]

    def test_sign_and_clamp_properties(self):
        rng = np.random.default_rng(71)
        cfg = ControllerConfig(deadzone=0.05, gain=40.0, max_steps=12)
        for _ in range(200):
            focal = Point2(float(rng.uniform(0, 1)), float(rng.uniform(0, 1)))
            by_axis = {c.axis: c.steps for c in centering_step(focal, cfg)}
            for axis, coord in ((Axis.X, focal.x), (Axis.Y, focal.y)):
                error = coord - 0.5
                if abs(error) <= cfg.deadzone:
                    assert axis not in by_axis
                else:
                    steps = by_axis[axis]
                    assert 1 <= abs(steps) <= cfg.max_steps
                    assert (steps > 0) == (error > 0)

    def test_closed_loop_converges(self):
        # plant: each step moves the focal point by 1/gain
        cfg = ControllerConfig(deadzone=0.05, gain=40.0, max_steps=20)
        focal = Point2(0.98, 0.02)
        for _ in range(4):
            cmds = centering_step(focal, cfg)
            if not cmds:
                break
            x, y = focal.x, focal.y
            for c in cmds:
                if c.axis is Axis.X:
                    x -= c.steps / cfg.gain
                else:
                    y -= c.steps / cfg.gain
            focal = Point2(x, y)
        assert centering_step(focal, cfg) == []


class TestMapGesture:
    MAPPING = {"Punch": DeviceCommand("tv", "POWER")}

    def test_onset_triggers(self):
        event = GestureEvent("Punch", onset_ms=0)
        assert map_gesture(event, self.MAPPING) == DeviceCommand("tv", "POWER")

    def test_offset_ignored(self):
        event = GestureEvent("Punch", onset_ms=0, offset_ms=40)
        assert map_gesture(event, self.MAPPING) is None

    def test_unmapped_name_ignored(self):
        assert map_gesture(GestureEvent("Five", onset_ms=0), self.MAPPING) is None


class TestEncodeWire:
    def test_motor_exact_bytes(self):
        assert encode_wire(MotorCommand(Axis.X, 8)) == b"M X +8\n"
        assert encode_wire(MotorCommand(Axis.Y, -120)) == b"M Y -120\n"

    def test_device_exact_bytes(self):
        assert encode_wire(DeviceCommand("tv", "POWER")) == b"D tv POWER\n"

    def test_rejects_other_types(self):
        with pytest.raises(ValidationError):
            encode_wire("M X +8\n")


class TestDecodeWire:
    def test_motor_round_trip(self):
        assert decode_wire(b"M X +8\n") == MotorCommand(Axis.X, 8)
        assert decode_wire(b"M Y -120\n") == MotorCommand(Axis.Y, -120)

    def test_device_round_trip(self):
        assert decode_wire(b"D tv POWER\n") == DeviceCommand("tv", "POWER")

    @pytest.mark.parametrize("data,offset", [
        (b"M Z +8\n", 2),          # bad axis
        (b"m X +8\n", 0),          # lowercase verb
        (b"M X +08\n", 5),         # leading zero
        (b"M X +0\n", 5),          # zero steps
        (b"M X +1234\n", 8),       # four digits
        (b"M X 8\n", 4),           # missing sign
        (b"M X +8", 6),            # missing LF (reported where LF belongs)
        (b"M X +8\n\n", 6),        # embedded LF
        (b"M  X +8\n", 2),         # double space
        (b"M X +8 \n", 6),         # trailing junk
        (b"D tv\n", 4),            # one token
        (b"D tv  POWER\n", 5),     # empty-start action token
        (b"D tv POW ER\n", 8),     # space inside action: parsed as junk
        (b"\n", 0),                # bare newline
        (b"", 0),                  # empty
        (b"Q tv POWER\n", 0),      # unknown verb
    ])
    def test_rejections_with_offsets(self, data, offset):
        with pytest.raises(ProtocolError) as exc_info:
            decode_wire(data)
        assert exc_info.value.offset == offset

    def test_non_ascii_offset(self):
        with pytest.raises(ProtocolError) as exc_info:
            decode_wire("M X é\n".encode("utf-8"))
        assert exc_info.value.offset == 4

    def test_oversize_token_offset(self):
        with pytest.raises(ProtocolError) as exc_info:
            decode_wire(b"D " + b"a" * 17 + b" POWER\n")
        assert exc_info.value.offset == 2 + 16

    def test_non_bytes_rejected(self):
        with pytest.raises(ProtocolError):
            decode_wire("M X +8\n")

    def test_random_round_trips(self):
        rng = np.random.default_rng(73)
        token_chars = string.ascii_letters + string.digits + "_"
        for _ in range(2000):
            if rng.random() < 0.5:
                steps = int(rng.integers(1, 1000)) * (1 if rng.random() < 0.5 else -1)
                cmd = MotorCommand(Axis.X if rng.random() < 0.5 else Axis.Y, steps)
            else:
                device = "".join(rng.choice(list(token_chars),
                                            size=int(rng.integers(1, 17))))
                action = "".join(rng.choice(list(token_chars),
                                            size=int(rng.integers(1, 17))))
                cmd = DeviceCommand(device, action)
            assert decode_wire(encode_wire(cmd)) == cmd

    def test_fuzz_decode_encode_dichotomy(self):
        # every byte string either fails to parse or re-encodes byte-identically
        rng = np.random.default_rng(79)
        seeds = [b"M X +8\n", b"M Y -120\n", b"D tv POWER\n", b"D a_1 B2\n"]
        alphabet = b"MDXY+- 0123456789tvPOWERabc_\n\x00\xff"
        decoded = rejected = 0
        for trial in range(2000):
            data = bytearray(seeds[trial % len(seeds)])
            for _ in range(int(rng.integers(0, 3))):
                op = rng.integers(0, 3)
                pos = int(rng.integers(0, len(data))) if data else 0
                byte = alphabet[int(rng.integers(0, len(alphabet)))]
                if op == 0 and data:
                    data[pos] = byte
                elif op == 1:
                    data.insert(pos, byte)
                elif data:
                    del data[pos]
            data = bytes(data)
            try:
                cmd = decode_wire(data)
            except ProtocolError as exc:
                rejected += 1
                assert 0 <= exc.offset <= len(data)
                continue
            decoded += 1
            assert encode_wire(cmd) == data
        assert decoded > 0 and rejected > 0  # mutations land on both sides


class TestTransports:
    def test_serial_writes_bytes(self, tmp_path):
        path = tmp_path / "port"
        with open_transport(f"serial:{path}") as transport:
            transport.send(b"M X +8\n")
            transport.send(b"D tv POWER\n")
        assert path.read_bytes() == b"M X +8\nD tv POWER\n"

    def test_tcp_delivers_bytes(self):
        received = bytearray()
        server = socket.create_server(("127.0.0.1", 0))
        port = server.getsockname()[1]

        def accept_once():
            conn, _ = server.accept()
            with conn:
                while chunk := conn.recv(1024):
                    received.extend(chunk)

        thread = threading.Thread(target=accept_once)
        thread.start()
        try:
            with open_transport(f"tcp://127.0.0.1:{port}") as transport:
                transport.send(b"M Y -3\n")
            thread.join(timeout=5)
        finally:
            server.close()
        assert bytes(received) == b"M Y -3\n"

    @pytest.mark.parametrize("uri", [
        "udp://x:1", "tcp://", "tcp://host", "tcp://host:abc", "serial:", "x",
    ])
    def test_bad_uris_rejected(self, uri):
        with pytest.raises(ConfigError):
            open_transport(uri)

    @pytest.mark.parametrize("port", [
        "\u00b2", "\u0663", "99999", "65536", "1" * 5000, "+80", " 80", "80 ", "",
    ], ids=["superscript-2", "arabic-indic-3", "99999", "65536", "5000-digits",
            "plus-sign", "leading-space", "trailing-space", "empty"])
    def test_bad_tcp_ports_rejected_before_connecting(self, monkeypatch, port):
        def connect(address, *args):
            pytest.fail(f"connected to {address!r}")

        monkeypatch.setattr(socket, "create_connection", connect)
        uri = f"tcp://127.0.0.1:{port}"
        with pytest.raises(ConfigError) as info:
            open_transport(uri)
        assert str(info.value) == f"tcp URI must be tcp://host:port, got {uri!r}"

    @pytest.mark.parametrize("port_text, port", [("0", 0), ("65535", 65535), ("0080", 80)])
    def test_tcp_port_limits(self, monkeypatch, port_text, port):
        addresses = []

        class Socket:
            sendall = close = staticmethod(lambda *args: None)

        monkeypatch.setattr(socket, "create_connection",
                            lambda address: addresses.append(address) or Socket())
        with open_transport(f"tcp://127.0.0.1:{port_text}"):
            pass
        assert addresses == [("127.0.0.1", port)]
