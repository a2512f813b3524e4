"""Wire-level tests for the distributed pool's framed protocol
(`repro.pool.net`): framing, integrity-before-deserialization, host
topology parsing, and the net-fault plan grammar."""

import socket

import pytest

from repro.pool.errors import FrameError, PayloadIntegrityError
from repro.resilience.faults import (
    SITE_KINDS,
    FaultPlan,
    FaultSpec,
    Firing,
    parse_fault,
)
from repro.pool.net import (
    CONTROL_TASK_ID,
    DEFAULT_AGENT_PORT,
    FRAME_PING,
    FRAME_RESULT_OK,
    FRAME_TASK,
    FRAME_WELCOME,
    MAX_PAYLOAD_BYTES,
    HostSpec,
    encode_frame,
    format_host_specs,
    json_payload,
    parse_host_spec,
    parse_host_specs,
    read_frame,
    send_frame,
    send_json_frame,
)


@pytest.fixture
def pair():
    """A connected socket pair with armed timeouts (the RPL009 contract)."""
    left, right = socket.socketpair()
    left.settimeout(5.0)
    right.settimeout(5.0)
    yield left, right
    left.close()
    right.close()


class TestFraming:
    def test_roundtrip_preserves_kind_task_id_payload(self, pair):
        left, right = pair
        send_frame(left, FRAME_TASK, b"payload-bytes", task_id=42)
        frame = read_frame(right)
        assert frame.kind == FRAME_TASK
        assert frame.task_id == 42
        assert frame.payload == b"payload-bytes"

    def test_empty_control_frame_roundtrip(self, pair):
        left, right = pair
        send_frame(left, FRAME_PING)
        frame = read_frame(right)
        assert frame.kind == FRAME_PING
        assert frame.task_id == CONTROL_TASK_ID
        assert frame.payload == b""
        assert frame.json() == {}

    def test_json_frame_roundtrip(self, pair):
        left, right = pair
        send_json_frame(left, FRAME_WELCOME, {"protocol": 1, "workers": 4})
        frame = read_frame(right)
        assert frame.json() == {"protocol": 1, "workers": 4}

    def test_clean_eof_returns_none(self, pair):
        left, right = pair
        left.close()
        assert read_frame(right) is None

    def test_back_to_back_frames_keep_boundaries(self, pair):
        left, right = pair
        send_frame(left, FRAME_TASK, b"first", task_id=1)
        send_frame(left, FRAME_TASK, b"second", task_id=2)
        assert read_frame(right).payload == b"first"
        assert read_frame(right).payload == b"second"


class TestFrameErrors:
    def test_bad_magic_raises_frame_error(self, pair):
        left, right = pair
        left.sendall(b"HTTP/1.1 200 OK\r\n" + b"\x00" * 64)
        with pytest.raises(FrameError, match="magic"):
            read_frame(right)

    def test_torn_frame_raises_frame_error(self, pair):
        left, right = pair
        blob = encode_frame(FRAME_TASK, b"x" * 100, task_id=3)
        left.sendall(blob[: len(blob) // 2])
        left.close()
        with pytest.raises(FrameError, match="mid-frame"):
            read_frame(right)

    def test_unknown_kind_raises_frame_error(self, pair):
        left, right = pair
        blob = bytearray(encode_frame(FRAME_TASK, b""))
        blob[4] = 200  # the kind byte
        left.sendall(bytes(blob))
        with pytest.raises(FrameError, match="kind"):
            read_frame(right)

    def test_oversize_length_field_fails_fast(self, pair):
        left, right = pair
        blob = encode_frame(FRAME_TASK, b"tiny", task_id=1)
        # Header layout !4sBIQ32s: length is the Q at offset 9.
        forged = blob[:9] + (MAX_PAYLOAD_BYTES + 1).to_bytes(8, "big") + blob[17:]
        left.sendall(forged)
        with pytest.raises(FrameError, match="protocol bound"):
            read_frame(right)

    def test_oversize_payload_rejected_at_encode(self):
        class HugeBytes(bytes):
            def __len__(self):
                return MAX_PAYLOAD_BYTES + 1

        with pytest.raises(ValueError, match="protocol bound"):
            encode_frame(FRAME_TASK, HugeBytes())

    def test_encode_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown frame kind"):
            encode_frame(99)


class TestIntegrity:
    def test_corrupt_payload_raises_integrity_error_with_task_id(self, pair):
        left, right = pair
        blob = encode_frame(FRAME_RESULT_OK, b"result-bytes", task_id=7)
        corrupted = blob[:-1] + bytes([blob[-1] ^ 0xFF])
        left.sendall(corrupted)
        with pytest.raises(PayloadIntegrityError) as excinfo:
            read_frame(right)
        # The frame boundary is intact, so the receiver can confine the
        # failure to this one task instead of dropping the connection.
        assert excinfo.value.task_id == 7
        send_frame(left, FRAME_PING)
        assert read_frame(right).kind == FRAME_PING

    def test_forwarded_digest_is_checked_end_to_end(self, pair):
        left, right = pair
        import hashlib

        payload = b"the-child-result"
        good = hashlib.sha256(payload).digest()
        send_frame(left, FRAME_RESULT_OK, payload, task_id=1, digest=good)
        assert read_frame(right).payload == payload
        send_frame(
            left, FRAME_RESULT_OK, payload, task_id=2,
            digest=hashlib.sha256(b"something else").digest(),
        )
        with pytest.raises(PayloadIntegrityError):
            read_frame(right)

    def test_json_payload_rejects_garbage(self):
        with pytest.raises(FrameError, match="undecodable"):
            json_payload(b"\xff\xfe not json")
        with pytest.raises(FrameError, match="JSON object"):
            json_payload(b"[1, 2, 3]")
        assert json_payload(b"") == {}


class TestHostSpecs:
    def test_two_part_spec_uses_default_port(self):
        spec = parse_host_spec("node1:4")
        assert spec == HostSpec("node1", DEFAULT_AGENT_PORT, 4)
        assert spec.label == f"node1:{DEFAULT_AGENT_PORT}"

    def test_three_part_spec_names_port(self):
        spec = parse_host_spec("localhost:7471:2")
        assert spec.address == ("localhost", 7471)
        assert spec.workers == 2

    @pytest.mark.parametrize(
        "text", ["", "host", "host:0:1", "host:70000:1", "host:1234:0",
                 "host:abc", "a:b:c:d"]
    )
    def test_malformed_specs_rejected(self, text):
        with pytest.raises(ValueError):
            parse_host_spec(text)

    def test_topology_roundtrips_through_format(self):
        specs = parse_host_specs("host1:4,host2:7471:8")
        assert format_host_specs(specs) == (
            f"host1:{DEFAULT_AGENT_PORT}:4,host2:7471:8"
        )
        assert parse_host_specs(format_host_specs(specs)) == specs

    def test_duplicate_endpoints_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_host_specs("host1:7000:4,host1:7000:8")

    def test_empty_topology_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            parse_host_specs(" , ")

    def test_same_host_different_ports_is_fine(self):
        specs = parse_host_specs("h:7000:1,h:7001:1")
        assert len(specs) == 2


class TestNetFaultGrammar:
    """The ``send`` site of the one grammar (the whole table is in
    tests/test_resilience.py)."""

    @pytest.mark.parametrize("kind", SITE_KINDS["send"])
    def test_each_kind_parses(self, kind):
        spec = parse_fault(f"send:3:{kind}")
        assert spec == FaultSpec(site="send", at=3, kind=kind)
        assert not spec.repeat

    def test_repeat_flag(self):
        spec = parse_fault("send:0:disconnect:repeat")
        assert spec.repeat

    # The old KIND:TASK spellings are not a compatibility form.
    @pytest.mark.parametrize(
        "text",
        ["", "disconnect", "nosuch:1", "delay:-1", "delay:x",
         "delay:1:often", "delay:1:repeat:extra"],
    )
    def test_malformed_directives_rejected(self, text):
        with pytest.raises(ValueError):
            parse_fault(text)

    def test_plan_fires_once_per_task_by_default(self):
        plan = FaultPlan([parse_fault("send:2:corrupt-frame")])
        assert plan.directive("send", 2, 1, "h:1") == "corrupt-frame"
        assert plan.directive("send", 2, 2, "h:1") is None
        assert plan.directive("send", 1, 1, "h:1") is None
        assert plan.directive("task", 2, 1) is None
        assert plan.fired == [Firing("send", 2, "corrupt-frame", 1, "h:1")]

    def test_repeat_plan_fires_every_attempt(self):
        plan = FaultPlan([parse_fault("send:0:disconnect:repeat")])
        assert plan.directive("send", 0, 1, "h:1") == "disconnect"
        assert plan.directive("send", 0, 2, "h:2") == "disconnect"
        assert [(f.attempt, f.host) for f in plan.fired] == [
            (1, "h:1"), (2, "h:2")]
