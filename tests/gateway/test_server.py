"""Live gateway server tests, including the hard failure paths:

- client disconnect mid-upload (no partial blob may land);
- duplicate result report (idempotent accept, counted, single assimilate);
- server restart with in-flight leases (state adoption + lease expiry).
"""

import collections
import gc
import socket
import struct
import time

import pytest

from repro.boinc.model import ResultState
from repro.gateway import (
    GatewayClient,
    GatewayConfig,
    GatewayError,
    GatewayServer,
    execute_task,
    run_volunteer,
)
from repro.gateway import protocol
from repro.gateway import server as server_module
from repro.workloads import generate_corpus

from . import reference_framing


@pytest.fixture()
def handle():
    h = GatewayServer.in_thread(GatewayConfig(daemon_period_s=0.01))
    yield h
    h.close()


@pytest.fixture()
def client(handle):
    c = GatewayClient(handle.address)
    yield c
    c.close()


def _poll_for_assignment(client, host_id, tries=200):
    """Poll the scheduler until it hands out at least one task."""
    for _ in range(tries):
        reply = client.scheduler_rpc(host_id, work_req_s=1.0)
        if reply["assignments"]:
            return reply["assignments"]
        time.sleep(0.01)
    raise AssertionError("no assignment within the polling budget")


class TestBasics:
    def test_healthz(self, client):
        doc = client.health()
        assert doc == {"ok": True, "version": protocol.PROTOCOL_VERSION}

    def test_register_is_idempotent_by_name(self, client):
        a = client.register("twin", flops=1e9)
        b = client.register("twin", flops=1e9)
        assert a == b

    def test_scheduler_unknown_host(self, client):
        with pytest.raises(GatewayError) as err:
            client.scheduler_rpc(999, work_req_s=1.0)
        assert err.value.code == "unknown_host"

    def test_data_not_found(self, client):
        with pytest.raises(GatewayError) as err:
            client.download("no-such-blob")
        assert err.value.code == "not_found"

    def test_download_has_checksum_header(self, handle, client):
        handle.server.store.put("blob", b"payload")
        assert client.download("blob") == b"payload"

    def test_method_not_allowed(self, client):
        with pytest.raises(GatewayError) as err:
            client.request("GET", "/rpc/scheduler")
        assert err.value.code == "method_not_allowed"
        assert err.value.status == 405

    def test_bad_request_body(self, client):
        with pytest.raises(GatewayError) as err:
            client.request("POST", "/rpc/register", b"not json",
                           {"Content-Type": "application/json"})
        assert err.value.code == "bad_request"

    def test_schema_violation_rejected(self, client):
        with pytest.raises(GatewayError) as err:
            client.request("POST", "/rpc/register",
                           protocol.dumps({"name": "x"}))
        assert err.value.code == "bad_request"
        assert "flops" in err.value.detail

    def test_unknown_route(self, client):
        with pytest.raises(GatewayError) as err:
            client.request("GET", "/nope")
        assert err.value.code == "not_found"

    def test_status_page(self, handle, client):
        client.register("probe", flops=1e9)
        doc = client.status()
        assert protocol.validate("StatusReply", doc) == []
        assert doc["counts"]["hosts"] == 1

    def test_core_tracer_counts_every_record_and_stores_none(self, handle,
                                                             client):
        """Nothing on the gateway reads trace records back, so a server
        that runs for days must not keep them; counts, taps and the
        ``/status`` counters still see every one."""
        tracer = handle.server.core.tracer
        tapped = []
        tracer.tap(tapped.append)
        host_id = client.register("poller", flops=1e9)
        for _ in range(40):
            assert client.scheduler_rpc(host_id, work_req_s=1.0)["no_work"]
        assert tracer.counts["sched.rpc"] == 40
        assert [rec.kind for rec in tapped] == ["sched.rpc"] * 40
        assert len(tracer.records) == 0 and tracer.select("sched.rpc") == []
        doc = client.status()
        assert protocol.validate("StatusReply", doc) == []
        assert doc["counters"] == {"gateway.http_requests_total": 41.0,
                                   "sched.no_work_total": 40.0,
                                   "sched.rpc_total": 40.0}

    def test_unavailable_maps_to_503_with_retry_after(self, handle):
        client = GatewayClient(handle.address, retries=1)
        host_id = client.register("flaky", flops=1e9)
        handle.server.core.available = False
        with pytest.raises(GatewayError) as err:
            client.scheduler_rpc(host_id, work_req_s=1.0)
        assert err.value.status == 503
        assert err.value.retry_after_s > 0
        handle.server.core.available = True
        assert client.scheduler_rpc(host_id, work_req_s=1.0)["no_work"] \
            in (True, False)
        client.close()

    def test_unknown_job_app_rejected(self, client):
        with pytest.raises(GatewayError) as err:
            client.submit_job("j", "no-such-app", 1000, 1, 1, 1)
        assert err.value.code == "bad_request"


def _raw(client, method, path, body=b""):
    """One request, whatever its status: (status, reply body bytes)."""
    status, _headers, payload = client._once(method, path, body, {})
    return status, payload


@pytest.mark.parametrize("ep", protocol.ENDPOINTS,
                         ids=[f"{ep.method} {ep.path}"
                              for ep in protocol.ENDPOINTS])
class TestRouteConformance:
    """Served <=> declared: the server dispatches from ``ENDPOINTS``."""

    @staticmethod
    def _concrete(ep):
        return ep.path.replace("{result_id}", "1").replace("{name}", "x")

    def test_declared_method_reaches_the_handler(self, client, ep):
        status, body = _raw(client, ep.method, self._concrete(ep), b"{}")
        if status >= 400:  # the handler's own refusal, not the router's
            doc = protocol.loads(body)
            assert protocol.validate("Error", doc) == []
            assert doc["error"] != "method_not_allowed"
            assert not doc["detail"].startswith("no route")

    def test_other_methods_get_405(self, client, ep):
        for method in {"GET", "POST", "PUT", "DELETE"} - {ep.method}:
            assert _raw(client, method, self._concrete(ep)) == (
                405, protocol.dumps({"error": "method_not_allowed",
                                     "detail": f"use {ep.method}"}))

    def test_undeclared_sibling_path_gets_404(self, client, ep):
        path = "/nope" + self._concrete(ep)
        assert _raw(client, ep.method, path) == (
            404, protocol.dumps({"error": "not_found",
                                 "detail": f"no route {path!r}"}))



@pytest.mark.parametrize("ep", [ep for ep in protocol.ENDPOINTS
                                if ep.request_schema is not None],
                         ids=lambda ep: ep.request_schema)
def test_json_endpoint_rejects_unknown_field(client, ep):
    # The declared request schema is what the dispatcher validates.
    status, body = _raw(client, ep.method, ep.path,
                        protocol.dumps({"bogus": 1}))
    doc = protocol.loads(body)
    assert (status, doc["error"]) == (400, "bad_request")
    assert f"{ep.request_schema}.bogus: unknown field" in doc["detail"]


class TestRouteBinding:
    def test_endpoint_without_handler_raises(self, monkeypatch):
        monkeypatch.setattr(protocol, "ENDPOINTS", protocol.ENDPOINTS + (
            protocol.Endpoint("GET", "/metrics", None, None, "unserved"),))
        with pytest.raises(LookupError, match="/metrics"):
            GatewayServer()

    def test_handler_without_endpoint_raises(self, monkeypatch):
        monkeypatch.setitem(server_module._HANDLERS, "/metrics",
                            ("_status", "other"))
        with pytest.raises(LookupError, match="/metrics"):
            GatewayServer()

    def test_latency_lands_in_the_declared_family(self, handle, client):
        client.health()
        with pytest.raises(GatewayError):
            client.job_status("none")
        with pytest.raises(GatewayError):
            client.request("GET", "/nope")
        metrics = handle.server.metrics
        assert metrics.get("gateway.rpc.other_s").count == 2
        assert metrics.get("gateway.rpc.jobs_s").count == 1
        assert metrics.counter("gateway.http_requests_total").value == 3
        assert metrics.counter("gateway.http_errors_total").value == 2


class TestRemovedSurface:
    def test_second_client_and_router_helpers_are_gone(self):
        # One HTTP client (GatewayClient), one description of the routes
        # (protocol.ENDPOINTS): no alias, no accepted-and-ignored knob.
        with pytest.raises(ImportError):
            from repro.gateway.loadgen import _AsyncConn  # noqa: F401
        with pytest.raises(ImportError):
            from repro.gateway.loadgen import _FleetClient  # noqa: F401
        for name in ("_route", "_route_family", "_only", "_validated"):
            assert not hasattr(GatewayServer, name)
        with pytest.raises(TypeError):
            GatewayConfig(feeder_cache_size=256)

    def test_second_job_record_and_backoff_policy_are_gone(self):
        # One job record (core.MapReduceJob) and one backoff function
        # (repro.sim.backoff_delay): no alias, no accepted-and-ignored knob.
        with pytest.raises(ImportError):
            from repro.gateway import GatewayJob  # noqa: F401
        with pytest.raises(ImportError):
            from repro.gateway import BackoffPolicy  # noqa: F401
        with pytest.raises(TypeError):
            GatewayClient("h:1", backoff=None)

    def test_run_volunteer_max_tasks_is_gone(self):
        # Never checked while assignments kept arriving, and never passed.
        with pytest.raises(TypeError):
            run_volunteer("127.0.0.1:1", name="v", max_tasks=1)


LINE = b"POST /rpc/scheduler HTTP/1.1\r\n"
POLL_BODY = b'{"host_id":1,"work_req_s":1.0}'

#: Requests whose extent cannot be trusted, by name.  Each is answered
#: 400 + ``Connection: close`` and then hung up on; CI's ``gateway-load``
#: job fires the same corpus at a long-lived ``repro serve`` process.
HOSTILE_REQUESTS = {
    "non-numeric": LINE + b"Content-Length: banana\r\n\r\n",
    "negative": LINE + b"Content-Length: -5\r\n\r\n",
    # str.isdigit() says yes to this one, int() to the next three
    "superscript": LINE + b"Content-Length: \xb2\r\n\r\n",
    "plus-sign": LINE + b"Content-Length: +30\r\n\r\n" + POLL_BODY,
    "underscore": LINE + b"Content-Length: 3_0\r\n\r\n" + POLL_BODY,
    "minus-zero": LINE + b"Content-Length: -0\r\n\r\n",
    "oversized": LINE + b"Content-Length: %d\r\n\r\n" % (64 * 1024 * 1024 + 1),
    # last-wins would serve the body of the first and run the second
    # with an empty body, then read its body as a request line
    "lengths-disagree-0-30": LINE + b"Content-Length: 0\r\n"
                                    b"Content-Length: 30\r\n\r\n" + POLL_BODY,
    "lengths-disagree-30-0": LINE + b"Content-Length: 30\r\n"
                                    b"Content-Length: 0\r\n\r\n" + POLL_BODY,
    # the gateway never chunks: the chunk stream would be the next request
    "transfer-encoding": LINE + b"Transfer-Encoding: chunked\r\n\r\n"
                                b"1e\r\n" + POLL_BODY + b"\r\n0\r\n\r\n",
    "header-count": LINE + b"X-Pad: 1\r\n" * 65,    # no blank line needed
    "header-over-16k": LINE + b"X-Pad: " + b"a" * (16 * 1024) + b"\r\n\r\n",
    "header-over-stream-limit":
        LINE + b"X-Pad: " + b"a" * (70 * 1024) + b"\r\n\r\n",
    "request-line-over-stream-limit":
        b"GET /" + b"a" * (70 * 1024) + b" HTTP/1.1\r\n\r\n",
    # The line bound counts every byte of every line, the first included.
    "request-line-one-over-16k":
        b"GET /" + b"a" * (16 * 1024 - 15) + b" HTTP/1.1\r\n\r\n",
    "malformed-request-line": b"GET /healthz\r\n\r\n",
}
assert len(POLL_BODY) == 30

#: A request begun and never finished, at each place it can stop.
STALLED_REQUESTS = {
    "stalled-request-line": LINE[:-7],
    "stalled-headers": LINE + b"Content-Length: 4\r\n",
    "stalled-body": LINE + b"Content-Length: 40\r\n\r\n{\"host_id\":",
}


class TestHostileFraming:
    """Requests whose extent cannot be trusted get a 400, then a close."""

    @pytest.mark.parametrize("request_bytes", HOSTILE_REQUESTS.values(),
                             ids=HOSTILE_REQUESTS.keys())
    def test_answered_with_400_then_closed(self, handle, request_bytes,
                                           caplog):
        self._assert_400_then_closed(handle, request_bytes, caplog)

    @pytest.mark.parametrize("request_bytes", STALLED_REQUESTS.values(),
                             ids=STALLED_REQUESTS.keys())
    def test_stalled_request_is_answered_400_then_closed(
            self, handle, request_bytes, caplog, monkeypatch):
        # The client sends part of a request, then nothing, and keeps the
        # socket open: without a read deadline the slot is pinned forever.
        monkeypatch.setattr(server_module, "_READ_TIMEOUT_S", 0.2)
        self._assert_400_then_closed(handle, request_bytes, caplog)

    def test_idle_keepalive_connection_outlives_the_read_timeout(
            self, handle, monkeypatch):
        # The deadline starts at a request's first byte, not between
        # requests: the load fleet holds idle connections for seconds.
        monkeypatch.setattr(server_module, "_READ_TIMEOUT_S", 0.1)
        host, port = handle.address.split(":")
        with socket.create_connection((host, int(port)), timeout=5) as raw:
            for _ in range(2):
                time.sleep(0.3)
                assert handle.server.connections_active == 1
                raw.sendall(b"GET /healthz HTTP/1.1\r\n\r\n")
                assert raw.recv(65536).startswith(b"HTTP/1.1 200 OK\r\n")

    @staticmethod
    def _assert_400_then_closed(handle, request_bytes, caplog):
        reply = _exchange(handle, request_bytes)
        head_bytes, _, body = reply.partition(b"\r\n\r\n")
        assert head_bytes.startswith(b"HTTP/1.1 400 Bad Request\r\n")
        assert b"Connection: close" in head_bytes
        assert protocol.validate("Error", protocol.loads(body)) == []
        assert protocol.loads(body)["error"] == "bad_request"

        deadline = time.time() + 5.0
        while handle.server.connections_active and time.time() < deadline:
            time.sleep(0.01)
        assert handle.server.connections_active == 0
        gc.collect()  # a dead handler task logs its exception when freed
        assert [r for r in caplog.records if r.name == "asyncio"] == []
        assert handle.server.metrics.counter(
            "gateway.http_errors_total").value == 1

    def test_header_count_at_the_bound_is_served(self, handle):
        host, port = handle.address.split(":")
        with socket.create_connection((host, int(port)), timeout=5) as raw:
            raw.sendall(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n"
                        + b"X-Pad: 1\r\n" * 63 + b"\r\n")
            reply = raw.recv(65536)
        assert reply.startswith(b"HTTP/1.1 200 OK\r\n")


    def test_request_line_at_the_bound_is_served(self, handle):
        request = b"GET /healthz?" + b"a" * (16 * 1024 - 24) + b" HTTP/1.1\r\n"
        assert len(request) == 16 * 1024
        assert _exchange(handle, request + b"Connection: close\r\n\r\n") \
            .startswith(b"HTTP/1.1 200 OK\r\n")

    def test_content_lengths_that_agree_are_served(self, handle):
        reply = _exchange(handle, LINE + b"Content-Length: 30\r\n"
                          b"Connection: close\r\ncontent-length:30\r\n\r\n"
                          + POLL_BODY)
        # The body reached the handler whole: host 1 is not registered.
        assert reply.startswith(b"HTTP/1.1 404 Not Found\r\n")
        assert b"unknown_host" in reply

    @pytest.mark.parametrize("name", ["plus-sign", "underscore", "minus-zero",
                                      "lengths-disagree-0-30",
                                      "lengths-disagree-30-0",
                                      "transfer-encoding",
                                      "request-line-one-over-16k"])
    def test_the_stream_reader_guessed_where_this_one_refuses(self, name):
        # What the product is stricter about on purpose: the reader it
        # replaced ran each of these, some with another request's bytes.
        requests, verdict = reference_framing.read_all([HOSTILE_REQUESTS[name]])
        assert requests and requests[0][:2] in (("POST", "/rpc/scheduler"),
                                                ("GET", "/" + "a" * 16369))


def _exchange(handle, request_bytes, half_close=False):
    """Send *request_bytes*, read until the server hangs up."""
    host, port = handle.address.split(":")
    with socket.create_connection((host, int(port)), timeout=5) as raw:
        raw.sendall(request_bytes)
        if half_close:
            raw.shutdown(socket.SHUT_WR)
        reply = b""
        while chunk := raw.recv(65536):
            reply += chunk
    return reply


def _wait_until(condition, budget_s=5.0):
    deadline = time.time() + budget_s
    while not condition() and time.time() < deadline:
        time.sleep(0.005)
    return condition()


class TestEofInsideARequest:
    """A request is whole at its blank line plus body, and not before: a
    connection that ends earlier ran nothing and is a disconnect."""

    @pytest.mark.parametrize("request_bytes", [
        b"GET /status HTT",
        b"GET /healthz HTTP/1.1\r\nX-A: b",
        b"GET /healthz HTTP/1.1\r\nX-A: b\r\n",
        LINE + b"Content-Length: 30\r\n\r\n" + POLL_BODY[:10],
    ], ids=["request-line", "header", "blank-line-missing", "body"])
    def test_nothing_runs_nothing_is_written_one_disconnect(
            self, handle, request_bytes, caplog):
        assert _exchange(handle, request_bytes, half_close=True) == b""
        metrics = handle.server.metrics
        assert _wait_until(lambda: metrics.counter(
            "gateway.disconnects_total").value == 1)
        assert _wait_until(lambda: handle.server.connections_active == 0)
        assert metrics.counter("gateway.http_requests_total").value == 0
        assert metrics.get("gateway.rpc.other_s").count == 0
        assert [r for r in caplog.records if r.name == "asyncio"] == []

    def test_the_stream_reader_ran_a_head_cut_off_by_eof(self):
        for cut_off in (b"GET /status HTT", b"GET /healthz HTTP/1.1\r\nX-A: b"):
            requests, verdict = reference_framing.read_all([cut_off])
            assert (len(requests), verdict) == (1, "eof")

    def test_whole_request_then_half_close_is_answered(self, handle):
        reply = _exchange(handle, b"GET /healthz HTTP/1.1\r\n\r\n" * 2,
                          half_close=True)
        assert reply.count(b"HTTP/1.1 200 OK\r\n") == 2
        assert _wait_until(lambda: handle.server.connections_active == 0)
        assert handle.server.metrics.counter(
            "gateway.disconnects_total").value == 0


BLOB = 4 * 1024 * 1024


def _rss_mb():
    with open("/proc/self/status", encoding="ascii") as fh:
        return next(int(line.split()[1]) for line in fh
                    if line.startswith("VmRSS:")) / 1024


def _read_responses(raw, count):
    """Read *count* whole responses off *raw*, a socket or the buffered
    reader made from one: ``[(status line, body)]``."""
    stream = raw.makefile("rb") if isinstance(raw, socket.socket) else raw
    out = []
    for _ in range(count):
        status, length = stream.readline(), 0
        while (header := stream.readline()) not in (b"\r\n", b""):
            if header.lower().startswith(b"content-length:"):
                length = int(header[15:])
        out.append((status, stream.read(length)))
    return out


class TestPipeliningAndBackpressure:
    """What ``await drain()`` and the per-task read deadline guaranteed,
    now that a connection is a protocol object."""

    def test_two_requests_in_one_segment_are_answered_in_order(self, handle):
        host, port = handle.address.split(":")
        with socket.create_connection((host, int(port)), timeout=5) as raw:
            raw.sendall(b"GET /healthz HTTP/1.1\r\n\r\n"
                        b"GET /nope HTTP/1.1\nConnection: close\n\n")
            (first, _), (second, _) = _read_responses(raw, 2)
            assert (first, second) == (b"HTTP/1.1 200 OK\r\n",
                                       b"HTTP/1.1 404 Not Found\r\n")
            assert raw.recv(1) == b""

    def test_one_request_in_three_segments(self, handle, client):
        host_id = client.register("split", flops=1e9)
        body = protocol.dumps({"host_id": host_id, "work_req_s": 1.0})
        host, port = handle.address.split(":")
        with socket.create_connection((host, int(port)), timeout=5) as raw:
            raw.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            for segment in (b"POST /rpc/sched", b"uler HTTP/1.1\r\nContent-Len"
                            b"gth: %d\r\n\r\n" % len(body), body):
                raw.sendall(segment)
                time.sleep(0.05)
            raw.sendall(b"GET /healthz HTTP/1.1\r\n\r\n")
            (first, reply), (second, _) = _read_responses(raw, 2)
        assert first == second == b"HTTP/1.1 200 OK\r\n"
        assert protocol.loads(reply)["no_work"] is True

    def test_requests_wait_while_their_replies_are_not_read(self, handle):
        # 50 pipelined downloads of a 4 MiB blob from a client that does
        # not read: served as fast as asked for, 200 MiB would sit in the
        # server's write buffer.
        handle.server.store.put("blob", bytes(BLOB))
        served = handle.server.metrics.counter("gateway.http_requests_total")
        host, port = handle.address.split(":")
        raw = socket.socket()
        raw.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 64 * 1024)
        raw.settimeout(20)
        with raw:
            raw.connect((host, int(port)))
            rss0 = _rss_mb()
            raw.sendall(b"GET /data/blob HTTP/1.1\r\n\r\n" * 50)
            assert _wait_until(lambda: served.value >= 1)
            time.sleep(0.3)
            assert served.value <= 2
            assert _rss_mb() - rss0 < 6 * BLOB / 2**20
            stream = raw.makefile("rb")
            for _ in range(50):  # one at a time: this side keeps no blob
                (status, body), = _read_responses(stream, 1)
                assert status == b"HTTP/1.1 200 OK\r\n" and len(body) == BLOB
                assert _rss_mb() - rss0 < 6 * BLOB / 2**20
            assert served.value == 50

    def test_whole_request_behind_unread_replies_is_not_timed_out(
            self, handle, monkeypatch):
        # The read deadline is for a request that is not whole.  This one
        # is, and waits for its turn longer than the deadline.
        monkeypatch.setattr(server_module, "_READ_TIMEOUT_S", 0.1)
        handle.server.store.put("blob", bytes(4 * BLOB))
        metrics = handle.server.metrics
        served = metrics.counter("gateway.http_requests_total")
        host, port = handle.address.split(":")
        raw = socket.socket()
        raw.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 64 * 1024)
        raw.settimeout(20)
        with raw:
            raw.connect((host, int(port)))
            raw.sendall(b"GET /data/blob HTTP/1.1\r\n\r\n"
                        b"GET /healthz HTTP/1.1\r\n\r\n")
            assert _wait_until(lambda: served.value == 1)
            time.sleep(0.4)
            assert served.value == 1  # parked, not refused
            (_, blob), (status, _) = _read_responses(raw, 2)
        assert len(blob) == 4 * BLOB and status == b"HTTP/1.1 200 OK\r\n"
        assert metrics.counter("gateway.http_errors_total").value == 0

    def test_stop_with_connections_open(self, caplog):
        handle = GatewayServer.in_thread(GatewayConfig(daemon_period_s=0.01))
        host, port = handle.address.split(":")
        idle, served, halfway = (socket.create_connection((host, int(port)),
                                                          timeout=5)
                                 for _ in range(3))
        with idle, served, halfway:
            served.sendall(b"GET /healthz HTTP/1.1\r\n\r\n")
            assert served.recv(65536).startswith(b"HTTP/1.1 200 OK\r\n")
            halfway.sendall(LINE + b"Content-Length: 30\r\n\r\n{")
            assert _wait_until(lambda: handle.server.connections_active == 3)
            handle.close()
            assert handle.server.connections_active == 0
            for raw in (idle, served, halfway):  # hung up on, not answered
                try:
                    assert raw.recv(65536) == b""
                except ConnectionResetError:
                    pass
        gc.collect()
        assert [r for r in caplog.records if r.name == "asyncio"] == []

    def test_client_that_resets_mid_response(self, handle, caplog):
        handle.server.store.put("blob", bytes(4 * BLOB))
        host, port = handle.address.split(":")
        raw = socket.socket()
        raw.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 64 * 1024)
        raw.settimeout(5)
        raw.connect((host, int(port)))
        raw.sendall(b"GET /data/blob HTTP/1.1\r\n\r\n")
        assert raw.recv(4096).startswith(b"HTTP/1.1 200 OK\r\n")
        raw.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                       struct.pack("ii", 1, 0))  # close() sends RST
        raw.close()
        assert _wait_until(lambda: handle.server.connections_active == 0)
        assert handle.server.metrics.counter(
            "gateway.disconnects_total").value == 1
        gc.collect()
        assert [r for r in caplog.records if r.name == "asyncio"] == []
        assert _exchange(handle, b"GET /healthz HTTP/1.1\r\n"
                         b"Connection: close\r\n\r\n").startswith(
            b"HTTP/1.1 200 OK\r\n")


class TestEndToEnd:
    def test_single_volunteer_completes_job(self, handle):
        corpus = generate_corpus(20_000, seed=3)
        handle.submit_job("wc", "wordcount", corpus, n_maps=3, n_reducers=2)
        stats = run_volunteer(handle.address, name="solo", idle_limit=30)
        assert stats.tasks_done == 5  # 3 maps + 2 reduces
        out = handle.result("wc", timeout=10)
        assert out == dict(collections.Counter(corpus.split()))

    def test_quorum_two_needs_two_hosts(self, handle):
        corpus = generate_corpus(8_000, seed=4)
        handle.submit_job("q2", "wordcount", corpus, n_maps=2,
                          n_reducers=1, replication=2, quorum=2)
        # One host may hold at most one replica of a workunit, and the
        # reduce replicas only exist after both map replicas validate —
        # so keep sending fresh volunteer identities until the job seals.
        job = handle.server.jobs.jobs["q2"]
        for i in range(8):
            run_volunteer(handle.address, name=f"rep-{i}", idle_limit=15)
            if job.finished:
                break
        out = handle.result("q2", timeout=10)
        assert out == dict(collections.Counter(corpus.split()))
        # each WU exactly once despite 2 replicas
        assert handle.server.jobs.status(job)["assimilated"] == 3

    def test_job_status_and_output_endpoints(self, handle, client):
        corpus = generate_corpus(5_000, seed=5)
        handle.submit_job("st", "wordcount", corpus, n_maps=1, n_reducers=1)
        status = client.job_status("st")
        assert protocol.validate("JobStatus", status) == []
        assert status["state"] == "running"
        with pytest.raises(GatewayError) as err:
            client.job_output("st")
        assert err.value.code == "not_ready"
        run_volunteer(handle.address, name="worker", idle_limit=20)
        handle.result("st", timeout=10)
        payload = client.job_output("st")
        assert payload == handle.server.jobs.outputs["st"]


class TestLoneVolunteerRetry:
    def test_one_failed_report_does_not_wedge_the_job(self, handle,
                                                      monkeypatch):
        """Default replication 1, one volunteer, one transient upload
        error: the replacement result must come back to the same host."""
        from repro.gateway import client as client_module

        failures = []

        def flaky(client, task):
            if not failures:
                failures.append(task["result_id"])
                raise GatewayError(503, "unavailable", "injected")
            return execute_task(client, task)

        monkeypatch.setattr(client_module, "execute_task", flaky)
        corpus = generate_corpus(10_000, seed=8)
        handle.submit_job("solo", "wordcount", corpus, n_maps=2, n_reducers=1)
        stats = run_volunteer(handle.address, name="only", idle_limit=50)
        assert (stats.tasks_failed, stats.tasks_done) == (1, 3)
        assert handle.server.jobs.status(
            handle.server.jobs.jobs["solo"])["state"] == "done"
        assert handle.result("solo", timeout=10) == dict(
            collections.Counter(corpus.split()))
        retried = handle.server.core.db.results[failures[0]].wu_id
        assert {r.host_id for r in
                handle.server.core.db.results_for_wu(retried)} == {
            handle.server.core.db.results[failures[0]].host_id}


class TestClientRetryBudget:
    def test_no_sleep_after_the_last_attempt(self, monkeypatch):
        with socket.socket() as s:  # a port nothing listens on
            s.bind(("127.0.0.1", 0))
            port = s.getsockname()[1]
        sleeps = []
        monkeypatch.setattr(time, "sleep", sleeps.append)
        client = GatewayClient(f"127.0.0.1:{port}", retries=3)
        with pytest.raises(GatewayError) as err:
            client.health()
        assert err.value.code == "unavailable"
        assert "retries exhausted" in err.value.detail
        assert len(sleeps) == 3 and client.retry_count == 3


class TestDisconnectMidUpload:
    def test_partial_upload_leaves_no_blob(self, handle, client):
        corpus = generate_corpus(5_000, seed=6)
        handle.submit_job("cut", "wordcount", corpus, n_maps=1, n_reducers=1)
        host_id = client.register("cutter", flops=1e9)
        task = _poll_for_assignment(client, host_id)[0]
        result_id = task["result_id"]

        host, port = handle.address.split(":")
        raw = socket.create_connection((host, int(port)))
        raw.sendall((f"POST /upload/{result_id}/cut.m0.p0 HTTP/1.1\r\n"
                     "Content-Length: 1000\r\n\r\n").encode())
        raw.sendall(b"x" * 100)  # 10% of the promised body, then vanish
        raw.close()

        deadline = time.time() + 5.0
        while (handle.server.metrics.counter(
                "gateway.disconnects_total").value < 1
               and time.time() < deadline):
            time.sleep(0.01)
        assert handle.server.metrics.counter(
            "gateway.disconnects_total").value >= 1
        assert not handle.server.store.has("cut.m0.p0")
        res = handle.server.core.db.results[result_id]
        assert res.received_at is None

        # The client retries the whole task: upload + report still work.
        report = execute_task(client, task)
        client.scheduler_rpc(host_id, work_req_s=0.0, reports=[report])
        run_volunteer(handle.address, name="finisher", idle_limit=20)
        out = handle.result("cut", timeout=10)
        assert out == dict(collections.Counter(corpus.split()))

    def test_checksum_mismatch_rejected(self, handle, client):
        corpus = generate_corpus(4_000, seed=7)
        handle.submit_job("ck", "wordcount", corpus, n_maps=1, n_reducers=1)
        host_id = client.register("checker", flops=1e9)
        task = _poll_for_assignment(client, host_id)[0]
        with pytest.raises(GatewayError) as err:
            client.request(
                "POST", f"/upload/{task['result_id']}/ck.m0.p0",
                b"real bytes",
                {protocol.CHECKSUM_HEADER: "crc32:00000000"})
        assert err.value.code == "checksum_mismatch"
        assert not handle.server.store.has("ck.m0.p0")

    def test_upload_for_unissued_result(self, handle, client):
        with pytest.raises(GatewayError) as err:
            client.upload(424242, "orphan", b"data")
        assert err.value.code == "unknown_result"


class TestDuplicateReport:
    def test_replayed_report_is_dropped_and_counted(self, handle, client):
        corpus = generate_corpus(6_000, seed=8)
        handle.submit_job("dup", "wordcount", corpus, n_maps=1, n_reducers=1)
        host_id = client.register("replayer", flops=1e9)
        task = _poll_for_assignment(client, host_id)[0]
        report = execute_task(client, task)
        client.scheduler_rpc(host_id, work_req_s=0.0, reports=[report])
        # Network flake: the client re-sends the same report.
        client.scheduler_rpc(host_id, work_req_s=0.0, reports=[report])
        assert handle.server.metrics.counter(
            "gateway.duplicate_reports_total").value == 1

        run_volunteer(handle.address, name="closer", idle_limit=20)
        out = handle.result("dup", timeout=10)
        assert out == dict(collections.Counter(corpus.split()))
        assert client.job_status("dup")["assimilated"] == 2

    def test_report_for_foreign_result_dropped(self, handle, client):
        corpus = generate_corpus(6_000, seed=9)
        handle.submit_job("f", "wordcount", corpus, n_maps=1, n_reducers=1)
        mine = client.register("honest", flops=1e9)
        thief = client.register("thief", flops=1e9)
        task = _poll_for_assignment(client, mine)[0]
        report = execute_task(client, task)
        # The wrong host tries to claim the result: dropped + counted.
        client.scheduler_rpc(thief, work_req_s=0.0, reports=[report])
        assert handle.server.metrics.counter(
            "gateway.duplicate_reports_total").value == 1
        res = handle.server.core.db.results[task["result_id"]]
        assert res.state is ResultState.IN_PROGRESS  # lease still honest's
        client.scheduler_rpc(mine, work_req_s=0.0, reports=[report])
        assert res.state is ResultState.OVER


class TestRestartWithLeases:
    def test_state_survives_restart_and_lease_completes(self):
        first = GatewayServer.in_thread(GatewayConfig(daemon_period_s=0.01))
        corpus = generate_corpus(6_000, seed=10)
        first.submit_job("boot", "wordcount", corpus, n_maps=1, n_reducers=1)
        client = GatewayClient(first.address)
        host_id = client.register("survivor", flops=1e9)
        task = _poll_for_assignment(client, host_id)[0]
        client.close()
        state = first.server.state
        first.close()  # gateway down; the lease is still in flight

        second = GatewayServer.in_thread(state=state)
        try:
            res = second.server.core.db.results[task["result_id"]]
            assert res.state is ResultState.IN_PROGRESS
            client = GatewayClient(second.address)
            assert client.register("survivor", flops=1e9) == host_id
            report = execute_task(client, task)
            client.scheduler_rpc(host_id, work_req_s=0.0, reports=[report])
            client.close()
            run_volunteer(second.address, name="post-restart",
                          idle_limit=20)
            out = second.result("boot", timeout=10)
            assert out == dict(collections.Counter(corpus.split()))
        finally:
            second.close()

    def test_abandoned_lease_expires_and_is_reissued(self):
        handle = GatewayServer.in_thread(GatewayConfig(
            daemon_period_s=0.01, delay_bound_s=0.3))
        try:
            corpus = generate_corpus(6_000, seed=11)
            handle.submit_job("aband", "wordcount", corpus,
                              n_maps=1, n_reducers=1)
            client = GatewayClient(handle.address)
            ghost = client.register("ghost", flops=1e9)
            task = _poll_for_assignment(client, ghost)[0]
            client.close()
            # The ghost never reports; past the delay bound the shared
            # transitioner times the lease out and creates a fresh replica.
            time.sleep(0.5)
            run_volunteer(handle.address, name="rescuer", idle_limit=30)
            out = handle.result("aband", timeout=15)
            assert out == dict(collections.Counter(corpus.split()))
            from repro.boinc.model import ResultOutcome
            res = handle.server.core.db.results[task["result_id"]]
            assert res.outcome is ResultOutcome.NO_REPLY
        finally:
            handle.close()


class TestBadReportFailsOnlyItsJob:
    """A report that lies about its uploads may fail its own job — never
    the daemon task, and so never anybody else's job."""

    @staticmethod
    def _wait_until_finished(client, name, budget_s=5.0):
        deadline = time.time() + budget_s
        while time.time() < deadline:
            status = client.job_status(name)
            if status["state"] != "running":
                return status
            time.sleep(0.01)
        raise AssertionError(f"job {name!r} still running after {budget_s}s")

    @staticmethod
    def _assert_gateway_still_serves(handle, client):
        assert not handle.server._daemon_task.done()
        corpus = generate_corpus(5_000, seed=13)
        handle.submit_job("healthy", "wordcount", corpus,
                          n_maps=2, n_reducers=2)
        run_volunteer(handle.address, name="honest", idle_limit=30)
        assert handle.result("healthy", timeout=10) == dict(
            collections.Counter(corpus.split()))
        assert client.status()["jobs"]["healthy"] == "done"

    def test_reduce_reported_without_its_upload(self, handle, client):
        handle.submit_job("liar", "wordcount", generate_corpus(4_000, seed=12),
                          n_maps=1, n_reducers=1)
        host_id = client.register("liar-host", flops=1e9)
        map_task = _poll_for_assignment(client, host_id)[0]
        client.scheduler_rpc(host_id, work_req_s=0.0,
                             reports=[execute_task(client, map_task)])
        reduce_task = _poll_for_assignment(client, host_id)[0]
        assert reduce_task["kind"] == "reduce"
        client.scheduler_rpc(host_id, work_req_s=0.0, reports=[{
            "result_id": reduce_task["result_id"], "success": True,
            "elapsed_s": 0.0, "digest": "crc32:00000000",
            "output_files": [{"name": "liar.out0", "size": 1}]}])

        status = self._wait_until_finished(client, "liar")
        assert status["state"] == "error"
        assert status["output_checksum"] is None
        with pytest.raises(GatewayError) as err:
            client.job_output("liar")
        assert err.value.code == "not_ready"
        assert "liar.out0" in err.value.detail
        with pytest.raises(RuntimeError, match="liar.out0"):
            handle.result("liar", timeout=1)
        self._assert_gateway_still_serves(handle, client)

    def test_missing_partition_creates_no_reduce_workunit(self, handle,
                                                          client):
        handle.submit_job("gap", "wordcount", generate_corpus(4_000, seed=14),
                          n_maps=1, n_reducers=2)
        host_id = client.register("forgetful", flops=1e9)
        task = _poll_for_assignment(client, host_id)[0]

        class SkipsPartitionOne(GatewayClient):
            def upload(self, result_id, name, data):
                if name.endswith(".p1"):
                    return {}
                return super().upload(result_id, name, data)

        forgetful = SkipsPartitionOne(handle.address)
        client.scheduler_rpc(host_id, work_req_s=0.0,
                             reports=[execute_task(forgetful, task)])
        forgetful.close()

        status = self._wait_until_finished(client, "gap")
        assert status["state"] == "error"
        # All or nothing: reducer 0's inputs were there, yet nothing of
        # the failed job is left for a volunteer to be handed.
        db = handle.server.core.db
        assert db.workunits_by_job("gap", "reduce") == []
        assert db.unsent_results() == []
        with pytest.raises(GatewayError) as err:
            client.job_output("gap")
        assert "gap.m0.p1" in err.value.detail
        self._assert_gateway_still_serves(handle, client)
