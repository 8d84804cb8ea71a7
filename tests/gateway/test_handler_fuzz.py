"""Hypothesis against the handlers behind the framing.

``test_framing_differential`` fuzzes the bytes *around* a request; this
fuzzes what is inside one.  Every JSON route of ``protocol.ENDPOINTS``
gets, over a single keep-alive socket to an in-thread gateway:

- JSON of the wrong shape: any value at the root, unknown keys, a field
  of the wrong kind, a field missing;
- bodies the schema admits with hostile values: zero, negative and huge
  integers (``10**400`` included), empty and non-ASCII names, duplicate
  and foreign ``result_id``\\ s, ``work_req_s`` of 0, corpora of bounded
  size, and the scheduler switched off now and then (503).

Whatever arrives, each request gets exactly one reply, its status is
200, 400, 404, 409 or 503, a 200 body conforms to the route's reply
schema and any other body to ``Error``, a body the request schema refuses
is a 400, no reply closes the connection, and ``/healthz`` answers
afterwards.  Task counts (``n_maps``, ``n_reducers``, ``replication``,
``quorum``) run up to 10**12, past the bounds the gateway enforces.
"""

import gc
import socket

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.gateway import GatewayConfig, GatewayServer, protocol

from .test_server import HOSTILE_BODIES, _post

ROUTES = {ep.path: ep for ep in protocol.ENDPOINTS
          if ep.request_schema is not None}
KEYS = sorted({field for spec in protocol.SCHEMAS.values() for field in spec}
              | {"zz"})
STATUSES = {200, 400, 404, 409, 503}

HUGE = st.sampled_from([0, -1, 2**31, 2**63, 10**30, 10**400])
INT = st.integers(-3, 40) | HUGE
NUMBER = INT | st.floats(allow_nan=False, allow_infinity=False) | \
    st.sampled_from([0.0, -0.0, 0.5, 5e-324, 1e308])
NAME = st.sampled_from(["", "h", "é", "名前", "a b", "x" * 300, "\x00"]) | \
    st.text(max_size=6)
COUNT = st.integers(-2, 4) | st.integers(-2, 10**12)
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=4)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(KEYS), inner, max_size=4),
    max_leaves=10)


def _optional(draw, body, field, strategy):
    if draw(st.booleans()):
        body[field] = draw(strategy)


@st.composite
def _register(draw):
    body = {"name": draw(st.sampled_from(["v1", "v2", "v3"]) | NAME),
            "flops": draw(st.sampled_from([1, 1e9]) | NUMBER)}
    _optional(draw, body, "supports_mr", st.booleans())
    return body


@st.composite
def _report(draw):
    body = {"result_id": draw(st.integers(0, 30) | HUGE),
            "success": draw(st.booleans()), "elapsed_s": draw(NUMBER)}
    _optional(draw, body, "digest", st.none() | st.text(max_size=12))
    _optional(draw, body, "output_files", st.lists(st.fixed_dictionaries(
        {"name": NAME, "size": NUMBER}), max_size=2))
    return body


@st.composite
def _scheduler(draw):
    body = {"host_id": draw(st.integers(0, 6) | HUGE),
            "work_req_s": draw(st.sampled_from([0, 0.0, 1.0, 1e300])
                               | NUMBER)}
    _optional(draw, body, "reports", st.lists(_report(), max_size=3))
    return body


@st.composite
def _job(draw):
    body = {"name": draw(st.sampled_from(["j1", "j2", "", "é"])),
            "app": draw(st.sampled_from(["wordcount", "invindex",
                                         "matchcount", "nope", ""])),
            "n_maps": draw(COUNT), "n_reducers": draw(COUNT),
            "corpus": {"size": draw(st.integers(-1, 3000)),
                       "seed": draw(INT)}}
    _optional(draw, body, "replication", COUNT)
    _optional(draw, body, "quorum", COUNT)
    return body


SHAPED = {"/rpc/register": _register(), "/rpc/scheduler": _scheduler(),
          "/jobs": _job()}


@st.composite
def _misshapen(draw, path):
    """A body for *path* the schema refuses, or any JSON at all."""
    if draw(st.booleans()):
        return draw(JSON)
    body = draw(SHAPED[path])
    field = draw(st.sampled_from(sorted(body) + ["zz"]))
    if draw(st.booleans()) and field in body:
        del body[field]
    else:
        body[field] = draw(JSON)
    return body


@st.composite
def _request(draw):
    path = draw(st.sampled_from(sorted(ROUTES)))
    body = draw(SHAPED[path] if draw(st.integers(0, 3)) else _misshapen(path))
    return path, protocol.dumps(body)


def _read_reply(stream):
    """``(status, {lower-cased header: value}, body)`` of one reply."""
    status = int(stream.readline().split()[1])
    headers = {}
    while (line := stream.readline()) not in (b"\r\n", b""):
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.lower()] = value.strip()
    return status, headers, stream.read(int(headers["content-length"]))


def _check_reply(path, body, status, headers, payload):
    """Every invariant one reply must meet."""
    assert status in STATUSES, (path, body, status, payload)
    assert "connection" not in headers, (path, body, headers)
    assert headers["content-type"] == "application/json"
    doc = protocol.loads(payload)  # refuses NaN / Infinity too
    try:
        request_problems = protocol.validate(ROUTES[path].request_schema,
                                             protocol.loads(body))
    except ValueError:
        request_problems = ["not JSON"]
    if status == 200:
        assert not request_problems
        assert protocol.validate(ROUTES[path].reply_schema, doc) == []
    else:
        assert protocol.validate("Error", doc) == [], doc
        assert protocol.ERROR_CODES[doc["error"]][0] == status
        if request_problems:
            assert (status, doc["error"]) == (400, "bad_request")
        if status == 503:
            assert float(headers["retry-after"]) > 0


def test_every_json_route_answers_once_and_keeps_the_connection(caplog):
    handle = GatewayServer.in_thread(GatewayConfig(daemon_period_s=0.01))
    server = handle.server
    host, port = handle.address.split(":")
    raw = socket.create_connection((host, int(port)), timeout=10)
    stream = raw.makefile("rb")
    served = server.metrics.counter("gateway.http_requests_total")

    @settings(max_examples=60, deadline=None,
              suppress_health_check=list(HealthCheck))
    @given(st.lists(_request(), min_size=1, max_size=8), st.integers(0, 9))
    @example([HOSTILE_BODIES[name] for name in HOSTILE_BODIES], 1)
    @example([("/rpc/register", b'{"name":"v1","flops":1}'),
              ("/jobs", protocol.dumps({
                  "name": "j1", "app": "wordcount", "n_maps": 2,
                  "n_reducers": 1, "corpus": {"size": 2000, "seed": 3}})),
              ("/rpc/scheduler", b'{"host_id":1,"work_req_s":1e300}'),
              ("/rpc/scheduler", b'{"host_id":1,"work_req_s":0}')], 1)
    def fire(requests, dice):
        server.core.available = dice > 0  # down for one example in ten
        before = served.value
        for path, body in requests:
            raw.sendall(_post(path, body))
            _check_reply(path, body, *_read_reply(stream))
        server.core.available = True
        assert served.value - before == len(requests)
        raw.sendall(b"GET /healthz HTTP/1.1\r\n\r\n")
        status, _, payload = _read_reply(stream)
        assert (status, protocol.loads(payload)["ok"]) == (200, True)
        assert server.connections_active == 1

    try:
        fire()
        assert server.metrics.counter("gateway.disconnects_total").value == 0
    finally:
        stream.close()
        raw.close()
        handle.close()
    gc.collect()
    assert [r for r in caplog.records if r.name == "asyncio"] == []
