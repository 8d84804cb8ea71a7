"""Hypothesis against the coordinator's control handler.

``tests/gateway/test_handler_fuzz.py`` does this for the gateway's
routes; this does it for the campaign control plane's four ops.  Lines
are drawn from :data:`~repro.campaign.coordinator.CONTROL_SCHEMAS`:

- the right shape with hostile values: huge and negative integers,
  non-ASCII and empty names, keys of cells leased or not, ``wall_s``
  negative or past the double range, payloads of any JSON;
- the wrong shape: any JSON at the root, a field missing, a field of
  any kind, an unknown field; and raw bytes that are not JSON at all.

Two coordinators serve the same grid on threads, one socket each.  The
first gets every line whole; the second gets it in chunks cut at random
byte boundaries, so its handler sees lines split anywhere.  Each line
gets exactly one reply, the same from both; that reply conforms to
``ControlError`` or to one of the op's reply schemas, and is an error
whenever the request schema refuses the line.  No reply closes the
connection, ``hello`` answers ``welcome`` after every example, and no
store ends with two ``ok`` records for one key.
"""

import socket
import threading
import time

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.campaign import (
    CampaignCell,
    CampaignCoordinator,
    CampaignGrid,
    ResultStore,
)
from repro.campaign.coordinator import CONTROL_OPS, CONTROL_SCHEMAS
from repro.wire import compile_checks, dumps, loads

from .test_coordinator import HELLO, HOSTILE_LINES

#: Enough cells that a ``lease`` never finds the queue dry (which would
#: hold it for half a heartbeat).
GRID = CampaignGrid("fuzz", tuple(
    CampaignCell("sleep", seed=i, params={"duration_s": 0.0})
    for i in range(2000)))
KEYS = [cell.key for cell in GRID.cells[:40]]
CHECKS = compile_checks(CONTROL_SCHEMAS)
FIELDS = sorted({field for spec in CONTROL_SCHEMAS.values() for field in spec}
                | {"keys", "zz"})

HUGE = st.sampled_from([2**63, 10**30, 10**400, -10**400])
TEXT = st.sampled_from(["", "é", "名前", "\x00", "x" * 300]) | \
    st.text(max_size=6)
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | TEXT
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(FIELDS) | TEXT, inner, max_size=4),
    max_leaves=10)
#: Values of each field the schemas declare.  A numeric ``wall_s`` is only
#: ever drawn from here, far from the campaign's age (0..1e9 s), so both
#: coordinators judge it alike.
VALUES = {
    "op": st.sampled_from(sorted(CONTROL_OPS)),
    "worker": st.sampled_from(["w1", "w2"]) | TEXT,
    "key": st.sampled_from(KEYS) | TEXT,
    "status": st.sampled_from(["ok", "error"]) | TEXT,
    "payload": st.none() | st.dictionaries(TEXT, JSON, max_size=3),
    "error": st.none() | TEXT,
    "wall_s": st.sampled_from([0, 0.0, -0.0, 1e-9, 5e-324, -1, -1e-9, 1e9,
                               1e308]) | HUGE,
    "attempt": st.integers(-3, 5) | HUGE,
}


@st.composite
def _shaped(draw, op):
    """A request for *op* its schema admits: required fields always,
    optional ones now and then."""
    message = {"op": op}
    for field, (_, required) in CONTROL_SCHEMAS[CONTROL_OPS[op][0]].items():
        if field != "op" and (required or draw(st.booleans())):
            message[field] = draw(VALUES[field])
    return message


@st.composite
def _misshapen(draw, op):
    """A request for *op* its schema refuses, or any JSON at all."""
    if draw(st.booleans()):
        return draw(JSON)
    message = draw(_shaped(op))
    field = draw(st.sampled_from(sorted(message) + ["zz", "keys"]))
    if draw(st.booleans()) and field in message:
        del message[field]
    else:
        value = draw(JSON)
        if field == "wall_s" and type(value) in (int, float):
            value = draw(VALUES["wall_s"])
        message[field] = value
    return message


@st.composite
def _line(draw):
    """``(line, chunks)``: one line and its bytes cut at random places."""
    dice = draw(st.integers(0, 9))
    if dice == 0:
        line = draw(st.binary(max_size=24)).replace(b"\n", b"")
    else:
        op = draw(st.sampled_from(sorted(CONTROL_OPS)))
        line = dumps(draw(_shaped(op) if dice > 3 else _misshapen(op)))
    data = line + b"\n"
    cuts = sorted(draw(st.lists(st.integers(1, len(data) - 1), max_size=4))
                  if len(data) > 1 else [])
    return line, [data[a:b] for a, b in zip([0, *cuts], [*cuts, len(data)])]


def _request_problems(line):
    """Why the request schema refuses *line* (empty when it does not)."""
    try:
        message = loads(line)
    except ValueError:
        return ["not JSON"]
    op = message.get("op") if isinstance(message, dict) else None
    if not isinstance(op, str) or op not in CONTROL_OPS:
        return ["no known op"]
    return CHECKS[CONTROL_OPS[op][0]](message, op)


def _check_reply(line, reply):
    """Every invariant one reply must meet."""
    if CHECKS["ControlError"](reply, "") == [] and reply["op"] == "error":
        return
    assert _request_problems(line) == [], (line, reply)
    op = loads(line)["op"]
    assert any(CHECKS[schema](reply, schema) == []
               for schema in CONTROL_OPS[op][1]), (line, reply)


class _Peer:
    """A coordinator on a thread and one connection to it."""

    def __init__(self, path) -> None:
        self.coordinator = CampaignCoordinator(GRID, ResultStore(path),
                                               heartbeat_s=10.0)
        self.thread = threading.Thread(target=self.coordinator.run,
                                       daemon=True)
        self.thread.start()
        while not self.coordinator.port:
            time.sleep(0.01)
        self.sock = socket.create_connection(
            ("127.0.0.1", self.coordinator.port), timeout=10.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.replies = self.sock.makefile("rb")

    def send(self, chunks) -> dict:
        """Send *chunks* with a pause between them; the one reply."""
        for i, chunk in enumerate(chunks):
            if i:
                time.sleep(0.001)
            self.sock.sendall(chunk)
        line = self.replies.readline()
        assert line.endswith(b"\n"), "the coordinator hung up"
        return loads(line)

    def close(self) -> list:
        """Hang up, end the campaign; every ``ok`` record's key."""
        self.replies.close()
        self.sock.close()
        self.coordinator.wall_limit_s = 0.0
        self.thread.join(timeout=30.0)
        assert not self.thread.is_alive()
        return [r.key for r in self.coordinator.store.records() if r.ok]


def test_every_line_gets_one_reply_whole_or_split(tmp_path):
    whole, split = _Peer(tmp_path / "whole.jsonl"), _Peer(
        tmp_path / "split.jsonl")

    @settings(max_examples=40, deadline=None,
              suppress_health_check=list(HealthCheck))
    @given(st.lists(_line(), min_size=1, max_size=8))
    @example([(line, [line[:i], line[i:] + b"\n"]) for i, line in enumerate(
        line.replace(b"<key>", KEYS[0].encode())
        for line in HOSTILE_LINES.values())])
    def fire(lines):
        for line, chunks in lines:
            reply = whole.send([line + b"\n"])
            assert split.send(chunks) == reply, (line, chunks)
            _check_reply(line, reply)
        for peer in (whole, split):
            assert peer.send([HELLO + b"\n"])["op"] == "welcome"

    try:
        fire()
    finally:
        stored = [whole.close(), split.close()]
    for keys in stored:
        assert len(keys) == len(set(keys)), "a key with two ok records"
    assert stored[0] == stored[1]
