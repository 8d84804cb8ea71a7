"""Live gateway server tests, including the hard failure paths:

- client disconnect mid-upload (no partial blob may land);
- duplicate result report (idempotent accept, counted, single assimilate);
- server restart with in-flight leases (state adoption + lease expiry).
"""

import collections
import gc
import os
import pathlib
import re
import select
import socket
import struct
import subprocess
import sys
import threading
import time

import pytest

import repro
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
from repro.gateway.jobs import decode_payload
from repro.runtime import LocalRunner
from repro.runtime.apps import MatchCount
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


def _wait_until_finished(client, name, budget_s=10.0):
    """Poll ``GET /jobs/{name}`` until the job leaves ``running``; return
    that status."""
    deadline = time.time() + budget_s
    while time.time() < deadline:
        status = client.job_status(name)
        if status["state"] != "running":
            return status
        time.sleep(0.01)
    raise AssertionError(f"job {name!r} still running after {budget_s}s")


class TestBasics:
    def test_the_core_draws_from_a_stdlib_stream(self):
        """The core's rng is never drawn (no adaptive replication, no
        simulated RPC), so a fresh server holds a stdlib stream."""
        code = ("import random; from repro.gateway import GatewayServer; "
                "print(type(GatewayServer().core.rng) is random.Random)")
        src = str(pathlib.Path(repro.__file__).parent.parent)
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, check=True,
                              env={**os.environ, "PYTHONPATH": src})
        assert proc.stdout.split() == ["True"]

    def test_healthz(self, client):
        doc = client.health()
        assert doc == {"ok": True, "version": protocol.PROTOCOL_VERSION}

    def test_register_is_idempotent_by_name(self, client):
        a = client.register("twin")
        b = client.register("twin")
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
        client.register("probe")
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
        host_id = client.register("poller")
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
        host_id = client.register("flaky")
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

    def test_client_counts_what_it_moves_on_one_connection(self, handle,
                                                           client):
        reply = protocol.dumps({"ok": True,
                                "version": protocol.PROTOCOL_VERSION})
        request = (f"GET /healthz HTTP/1.1\r\nHost: {handle.address}\r\n"
                   "Content-Length: 0\r\nContent-Type: application/json"
                   "\r\n\r\n").encode()
        head = (b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n"
                b"Content-Type: application/json\r\n\r\n" % len(reply))
        for _ in range(20):
            client.health()
        assert handle.server.connections_active == 1
        assert (client.requests, client.retry_count) == (20, 0)
        assert client.bytes_sent == 20 * len(request)
        assert client.bytes_received == 20 * (len(head) + len(reply))


class TestJobNames:
    """A job name is a path segment of ``/jobs/{name}`` and the stem of
    its blob names: 1..128 of ``A-Z a-z 0-9 . _ -``, nothing else."""

    @pytest.mark.parametrize("name", [
        "my job", "jöb", "a?b", "x/output", "a/b", "", "a" * 129, "tab\t",
        "line\n", "per%20cent", "semi;colon", "../up", "snow☃"])
    def test_a_name_the_path_cannot_carry_is_refused(self, handle, client,
                                                     name):
        with pytest.raises(GatewayError) as err:
            client.submit_job(name, "wordcount", 1000, 1, 1, 1)
        assert (err.value.status, err.value.code) == (400, "bad_request")
        assert err.value.detail.startswith("ValueError: JobRequest.name: ")
        assert handle.server.jobs.jobs == {}
        assert handle.server.store.files == {}

    def test_every_allowed_character_round_trips(self, handle, client):
        for name in ["A-Z_a.z-09", "." * 3, "j" * 128]:
            assert client.submit_job(name, "wordcount", 1000, 1, 1, 1)[
                "name"] == name
            assert client.job_status(name)["name"] == name
            assert client.download(f"{name}.m0.in")


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
            protocol.Endpoint("GET", "/debug/vars", None, None, "unserved"),))
        with pytest.raises(LookupError, match="/debug/vars"):
            GatewayServer()

    def test_handler_without_endpoint_raises(self, monkeypatch):
        monkeypatch.setitem(server_module._HANDLERS, "/debug/vars",
                            ("_status", "other"))
        with pytest.raises(LookupError, match="/debug/vars"):
            GatewayServer()

    def test_latency_lands_in_the_declared_family(self, handle, client):
        client.health()
        with pytest.raises(GatewayError):
            client.job_status("none")
        with pytest.raises(GatewayError):
            client.request("GET", "/nope")
        metrics = handle.server.metrics
        assert metrics.counter("gateway.http_requests_total").value == 3
        assert metrics.counter("gateway.http_errors_total").value == 2
        samples = scrape(handle.address)  # rendered before it is counted
        assert samples["gateway_rpc_other_s_count"] == 2
        assert samples["gateway_rpc_jobs_s_count"] == 1


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


def _job(**fields):
    """A ``JobRequest`` body: a one-map word count unless overridden."""
    job = {"name": "hostile", "app": "wordcount", "n_maps": 1,
           "n_reducers": 1, "corpus": {"size": 100, "seed": 1}, **fields}
    return "/jobs", protocol.dumps(job)


#: ``POST`` bodies that frame cleanly and must be refused, by name: each
#: is answered 400 ``bad_request`` on a connection that stays open,
#: whatever state the server is in.  CI's ``gateway-load`` job sends them
#: on one keep-alive connection to a long-lived ``repro serve`` process.
HOSTILE_BODIES = {
    # Not JSON, or JSON of the wrong shape.
    "not-json": ("/rpc/register", b"not json"),
    "not-utf8": ("/rpc/register", b'{"name":"\xff","flops":1e9}'),
    "not-an-object": ("/rpc/scheduler", b"[]"),
    "unknown-field": ("/rpc/register", b'{"name":"h","flops":1e9,"zz":1}'),
    "bool-for-number": ("/rpc/register", b'{"name":"h","flops":true}'),
    "reports-not-a-list": ("/rpc/scheduler",
                           b'{"host_id":1,"work_req_s":1.0,"reports":{}}'),
    "report-not-an-object": ("/rpc/scheduler",
                             b'{"host_id":1,"work_req_s":1.0,"reports":[7]}'),
    "corpus-not-an-object": _job(corpus=5),
    "nested-past-recursion-limit": ("/rpc/register",
                                    b"[" * 100000 + b"]" * 100000),
    # Tokens Python's json takes and RFC 8259 does not.
    "nan-token": ("/rpc/register", b'{"name":"h","flops":NaN}'),
    "infinity-token": ("/rpc/scheduler", b'{"host_id":1,"work_req_s":Infinity}'),
    "minus-infinity-token": ("/rpc/scheduler",
                             b'{"host_id":1,"work_req_s":-Infinity}'),
    "overflowing-literal": ("/rpc/register", b'{"name":"h","flops":1e400}'),
    # Schema-valid values the server must not take.
    "flops-zero": ("/rpc/register", b'{"name":"h","flops":0}'),
    "flops-negative": ("/rpc/register", b'{"name":"h","flops":-1e9}'),
    "flops-below-one": ("/rpc/register", b'{"name":"h","flops":5e-324}'),
    "flops-past-double": ("/rpc/register",
                          b'{"name":"h","flops":1%s}' % (b"0" * 400)),
    "corpus-over-64MiB": _job(corpus={"size": 64 * 1024 * 1024 + 1,
                                      "seed": 1}),
    "corpus-10e12": _job(corpus={"size": 10**12, "seed": 1}),
    "corpus-empty": _job(corpus={"size": 0, "seed": 1}),
    "corpus-negative-seed": _job(corpus={"size": 100, "seed": -1}),
    "no-maps": _job(n_maps=0),
    "negative-reducers": _job(n_reducers=-1),
    "quorum-over-replication": _job(replication=1, quorum=2),
    "maps-10e9": _job(n_maps=10**9),
    "reducers-over-bound": _job(n_reducers=protocol.JOB_LIMITS["n_reducers"]
                                + 1),
    "replication-10e12": _job(replication=10**12, quorum=1),
    "quorum-over-bound": _job(replication=8, quorum=9),
    "unknown-app": _job(app="no-such-app"),
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


def _post(path, body):
    """The bytes of one keep-alive ``POST`` of *body* to *path*."""
    return (b"POST %s HTTP/1.1\r\nContent-Type: application/json\r\n"
            b"Content-Length: %d\r\n\r\n%s" % (path.encode(), len(body), body))


@pytest.fixture()
def no_big_corpus(monkeypatch):
    """Fail a test, rather than the machine, if the server starts
    generating a corpus past the body limit."""
    from repro.gateway import jobs as jobs_module

    def guarded(size, **kwargs):
        assert size <= 64 * 1024 * 1024, f"generated a {size}-byte corpus"
        return generate_corpus(size, **kwargs)

    monkeypatch.setattr(jobs_module, "generate_corpus", guarded)


def _dispatch(server, method, path, body=b""):
    """``(status, decoded body)`` of one request served without a socket."""
    status, _headers, payload = server._dispatch(method, path, {}, body)
    return status, protocol.loads(payload)


class TestHostileBodies:
    """Bodies that frame cleanly get a 400 naming what is wrong, and the
    connection they came on stays open."""

    @pytest.mark.parametrize("name", HOSTILE_BODIES)
    def test_refused_with_400(self, name, no_big_corpus):
        server = GatewayServer()
        status, doc = _dispatch(server, "POST", *HOSTILE_BODIES[name])
        assert (status, doc["error"]) == (400, "bad_request"), doc
        assert protocol.validate("Error", doc) == []
        assert server.core.db.hosts == {} and server.jobs.jobs == {}

    def test_all_on_one_keepalive_connection(self, handle, no_big_corpus):
        metrics = handle.server.metrics
        host, port = handle.address.split(":")
        with socket.create_connection((host, int(port)), timeout=10) as raw:
            stream = raw.makefile("rb")
            for name, (path, body) in HOSTILE_BODIES.items():
                raw.sendall(_post(path, body))
                status = stream.readline()
                head = b""
                while (line := stream.readline()) not in (b"\r\n", b""):
                    head += line
                length = int(head.split(b"Content-Length: ")[1].split(b"\r")[0])
                doc = protocol.loads(stream.read(length))
                assert status == b"HTTP/1.1 400 Bad Request\r\n", name
                assert b"Connection" not in head, name
                assert doc["error"] == "bad_request", name
            raw.sendall(b"GET /healthz HTTP/1.1\r\n\r\n")
            assert stream.readline() == b"HTTP/1.1 200 OK\r\n"
        assert metrics.counter("gateway.http_errors_total").value == len(
            HOSTILE_BODIES)

    @pytest.mark.parametrize("flops", [0, -1e9, 0.5, 5e-324, 10**400])
    def test_register_refuses_flops_a_task_estimate_cannot_divide_by(
            self, flops):
        # Accepted, flops 0 made the host's first RPC that found work raise
        # ZeroDivisionError past the 400 handler: no reply, every poll.
        server = GatewayServer()
        status, doc = _dispatch(server, "POST", "/rpc/register",
                                protocol.dumps({"name": "h", "flops": flops}))
        assert status == 400
        assert doc["detail"].startswith(
            "ValueError: RegisterRequest.flops: expected a finite number >= 1")
        assert server.core.db.hosts == {}

    def test_slowest_host_gets_a_finite_estimate(self):
        server = GatewayServer()
        assert _dispatch(server, "POST", "/rpc/register",
                         b'{"name":"slow","flops":1}')[0] == 200
        server.jobs.submit_data("big", "wordcount", b"x" * 5000, 1, 1)
        server.core.run_daemon_passes()
        status, doc = _dispatch(server, "POST", "/rpc/scheduler",
                                b'{"host_id":1,"work_req_s":1e300}')
        assert status == 200 and protocol.validate("WorkReply", doc) == []
        assert doc["assignments"][0]["est_runtime_s"] == 5000.0

    def test_corpus_past_the_body_limit_is_never_generated(
            self, no_big_corpus):
        # 10**12 bytes used to be generated on the event loop: every
        # volunteer starved while it ran.
        server = GatewayServer()
        status, doc = _dispatch(server, "POST", *_job(
            corpus={"size": 10**12, "seed": 1}))
        assert (status, doc["detail"]) == (
            400, "ValueError: JobRequest.corpus.size: at most 67108864 "
                 "bytes, got 1000000000000")

    @pytest.mark.parametrize("field", sorted(protocol.JOB_LIMITS))
    def test_a_count_past_its_bound_is_refused_before_any_work(
            self, field, monkeypatch):
        # n_maps had no bound: 10**9 chunks were split on the event loop,
        # starving every volunteer while it ran.
        from repro.gateway import jobs as jobs_module

        def never(*args, **kwargs):
            raise AssertionError("the job was built before it was refused")

        monkeypatch.setattr(jobs_module, "generate_corpus", never)
        monkeypatch.setattr(jobs_module, "split_text", never)
        server = GatewayServer()
        t0 = time.perf_counter()
        status, doc = _dispatch(server, "POST", *_job(**{field: 10**9}))
        assert time.perf_counter() - t0 < 0.05
        assert (status, doc["detail"]) == (
            400, f"ValueError: JobRequest.{field}: expected "
                 f"1..{protocol.JOB_LIMITS[field]}, got 1000000000")
        assert server.jobs.jobs == {}

    def test_a_job_at_every_bound_is_taken(self):
        server = GatewayServer()
        status, doc = _dispatch(server, "POST", *_job(**protocol.JOB_LIMITS))
        assert status == 200 and doc["workunits"] == 1024

    def test_integer_too_large_for_a_float_is_a_400(self):
        # float(10**400) raises OverflowError, which used to escape the
        # 400 handler and drop the connection without a reply.
        server = GatewayServer()
        _dispatch(server, "POST", "/rpc/register", b'{"name":"h","flops":1e9}')
        server.jobs.submit_data("j", "wordcount", b"x" * 100, 1, 1)
        server.core.run_daemon_passes()
        status, doc = _dispatch(server, "POST", "/rpc/scheduler",
                                b'{"host_id":1,"work_req_s":1}')
        result_id = doc["assignments"][0]["result_id"]
        huge = b"1" + b"0" * 400
        for body in (b'{"host_id":1,"work_req_s":%s}' % huge,
                     b'{"host_id":1,"work_req_s":1,"reports":[{"result_id":%d,'
                     b'"success":true,"elapsed_s":%s}]}' % (result_id, huge)):
            status, doc = _dispatch(server, "POST", "/rpc/scheduler", body)
            assert (status, doc["error"]) == (400, "bad_request")
            assert doc["detail"].startswith("OverflowError: int too large")


NO_WORK = b'{"assignments":[],"no_work":true,"request_delay_s":0.0}'


class TestCannedReplies:
    """A scheduler reply without assignments is sent from bytes encoded
    once per ``no_work``: the same bytes as ever."""

    def test_no_work_and_no_request_bytes_on_the_wire(self, handle, client):
        host_id = client.register("canned")
        host, port = handle.address.split(":")
        with socket.create_connection((host, int(port)), timeout=5) as raw:
            for work_req, body in (
                    (b"1.0", NO_WORK),
                    (b"0", NO_WORK.replace(b"true", b"false")),
                    (b"1.0", NO_WORK)):
                raw.sendall(_post("/rpc/scheduler", b'{"host_id":%d,'
                                  b'"work_req_s":%s}' % (host_id, work_req)))
                assert raw.recv(65536) == (
                    b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n"
                    b"Content-Type: application/json\r\n\r\n%s"
                    % (len(body), body))

    def test_canned_body_is_the_encoded_reply(self):
        from repro.boinc.server import SchedulerReply

        server = GatewayServer()
        _dispatch(server, "POST", "/rpc/register", b'{"name":"h","flops":1e9}')
        for work_req, no_work in ((b"1.0", True), (b"0", False)):
            body = b'{"host_id":1,"work_req_s":%s}' % work_req
            first = server._dispatch("POST", "/rpc/scheduler", {}, body)
            assert first == (200, {"Content-Type": "application/json"},
                             protocol.dumps(server._encode_reply(
                                 SchedulerReply([], 0.0, no_work))))
            assert server._dispatch("POST", "/rpc/scheduler", {},
                                    body) is first
        assert len(server._canned) == 2

    def test_status_counters_after_a_sequence(self):
        # Bound at the first request: /status lists no counter earlier
        # than it did when each request looked its counter up by name.
        server = GatewayServer()
        sequence = [("GET", "/status", b""),
                    ("POST", "/rpc/register", b'{"name":"a","flops":1e9}'),
                    ("POST", "/rpc/scheduler", b'{"host_id":1,"work_req_s":1}'),
                    ("POST", "/rpc/scheduler", b'{"host_id":1,"work_req_s":0}'),
                    ("POST", "/rpc/scheduler", b'{"host_id":2,"work_req_s":1}'),
                    ("POST", "/rpc/scheduler", b"not json"),
                    ("GET", "/nope", b""),
                    ("GET", "/status", b"")]
        replies = [_dispatch(server, *request) for request in sequence]
        assert [status for status, _ in replies] == [
            200, 200, 200, 200, 404, 400, 404, 200]
        assert replies[0][1]["counters"] == {}
        assert replies[-1][1]["counters"] == {
            "gateway.http_errors_total": 3.0,
            "gateway.http_requests_total": 7.0,
            "sched.no_work_total": 1.0, "sched.rpc_total": 2.0}


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
        assert scrape(handle.address)["gateway_rpc_other_s_count"] == 0
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


#: One Prometheus sample line: ``name{labels} value``.
SAMPLE_LINE = re.compile(
    r'[A-Za-z_:][A-Za-z0-9_:]*(\{[A-Za-z_]\w*="[^"]*"\})? (\S+)')


def scrape(address):
    """``GET /metrics`` of the gateway at *address*: ``{series: value}``,
    every non-comment line checked to be ``name{labels} value``."""
    client = GatewayClient(address)
    try:
        headers, body = client.request("GET", "/metrics")
    finally:
        client.close()
    assert headers["content-type"].startswith("text/plain; version=0.0.4")
    samples = {}
    for line in body.decode("utf-8").splitlines():
        if line.startswith("#"):
            continue
        match = SAMPLE_LINE.fullmatch(line)
        assert match, line
        samples[line.rpartition(" ")[0]] = float(match.group(2))
    return samples


class TestMetricsRoute:
    def test_scrape_matches_the_status_counters(self, handle, client):
        host_id = client.register("scraped")
        client.scheduler_rpc(host_id, work_req_s=1.0)
        with pytest.raises(GatewayError):
            client.request("GET", "/nope")
        samples = scrape(handle.address)
        counters = client.status()["counters"]
        assert samples["gateway_http_errors_total"] \
            == counters["gateway.http_errors_total"] == 1.0
        assert samples["sched_rpc_total"] == counters["sched.rpc_total"] == 1.0
        # The scrape is rendered before its own request is counted.
        assert samples["gateway_http_requests_total"] == 3.0
        assert samples['gateway_rpc_other_s_bucket{le="+Inf"}'] \
            == samples["gateway_rpc_other_s_count"] == 1.0
        assert samples["gateway_connections_active"] >= 1.0

    def test_buckets_are_cumulative(self, handle, client):
        for _ in range(5):
            client.health()
        samples = scrape(handle.address)
        buckets = [v for k, v in samples.items()
                   if k.startswith("gateway_rpc_other_s_bucket")]
        assert len(buckets) == len(server_module.RPC_BUCKETS) + 1
        assert buckets == sorted(buckets) and buckets[-1] == 5.0

    def test_help_precedes_type(self, handle, client):
        _, body = client.request("GET", "/metrics")
        lines = body.decode("utf-8").splitlines()
        at = lines.index("# HELP gateway_connections_active "
                         "open HTTP connections")
        assert lines[at + 1] == "# TYPE gateway_connections_active gauge"
        assert "# HELP gateway_hosts registered volunteer hosts" in lines


class TestSlowDrip:
    """Bytes that keep coming, but slower than a request should: the read
    deadline runs from a request's first byte, not from its latest."""

    INTERVAL_S = 0.02

    @classmethod
    def _drip(cls, raw, data, between=lambda: None):
        """Send *data* a byte every ``INTERVAL_S``, calling *between* after
        each, until it is all sent or a reply starts; returns the seconds
        from the first byte to then."""
        t0 = time.monotonic()
        for i in range(len(data)):
            raw.sendall(data[i:i + 1])
            between()
            if select.select([raw], [], [], cls.INTERVAL_S)[0]:
                break
        return time.monotonic() - t0

    def test_a_drip_that_completes_inside_the_deadline_is_served(
            self, handle, monkeypatch):
        monkeypatch.setattr(server_module, "_READ_TIMEOUT_S", 1.0)
        host, port = handle.address.split(":")
        with socket.create_connection((host, int(port)), timeout=5) as raw:
            request = b"GET /healthz HTTP/1.1\n\n"  # about 0.5 s of drip
            assert self._drip(raw, request) < 1.0
            stream = raw.makefile("rb")
            assert _read_responses(stream, 1)[0][0] == b"HTTP/1.1 200 OK\r\n"
            assert handle.server._reading == {}
            # The connection stays open, and the next request's deadline
            # starts at its own first byte.
            self._drip(raw, request)
            assert _read_responses(stream, 1)[0][0] == b"HTTP/1.1 200 OK\r\n"

    def test_a_drip_past_the_deadline_is_refused_on_time(
            self, handle, monkeypatch):
        deadline_s = 0.3
        monkeypatch.setattr(server_module, "_READ_TIMEOUT_S", deadline_s)
        poller = GatewayClient(handle.address)
        host_id = poller.register("poller")
        polls = []

        def poll():  # on a second connection, while the drip is in flight
            if len(polls) < 10:
                t0 = time.monotonic()
                assert poller.scheduler_rpc(host_id, work_req_s=1.0)["no_work"]
                polls.append(time.monotonic() - t0)

        # Free what earlier tests left now: a full collection of it takes
        # ~90 ms late in the suite, and one inside the timed drip would
        # be charged to the deadline.
        gc.collect()
        host, port = handle.address.split(":")
        with socket.create_connection((host, int(port)), timeout=5) as raw:
            endless = LINE + b"X-Pad: " + b"a" * 10_000
            elapsed = self._drip(raw, endless, between=poll)
            head, body = _read_responses(raw, 1)[0]
        assert head == b"HTTP/1.1 400 Bad Request\r\n"
        assert protocol.loads(body) == {
            "error": "bad_request",
            "detail": "request incomplete 0.3s after its first byte"}
        # Refused at the first daemon sweep past the deadline, with room
        # for a loaded host to schedule the sweep and the reply.
        tick_s = handle.server.config.daemon_period_s
        assert deadline_s <= elapsed < deadline_s + tick_s + 0.15
        # The drip's connection is gone; the poller's keep-alive one is not.
        assert _wait_until(lambda: handle.server.connections_active == 1)
        poller.close()
        assert len(polls) == 10 and max(polls) < deadline_s
        assert handle.server.metrics.counter(
            "gateway.http_errors_total").value == 1


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
        host_id = client.register("split")
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
    def test_single_volunteer_completes_job(self, handle, client):
        corpus = generate_corpus(20_000, seed=3)
        client.submit_job("wc", "wordcount", 20_000, 3, n_maps=3, n_reducers=2)
        stats = run_volunteer(handle.address, name="solo", idle_limit=30)
        assert stats.tasks_done == 5  # 3 maps + 2 reduces
        # register + RPCs, 3 map downloads, 3 x 2 uploads, 2 x 3 downloads
        # and 2 uploads, on a client that closed without a retry.
        assert stats.retries == 0
        assert stats.requests == 1 + stats.rpcs + 3 + 6 + 6 + 2
        assert stats.bytes_sent > 0
        assert stats.bytes_received > len(corpus)  # every chunk came down
        assert _wait_until_finished(client, "wc")["state"] == "done"
        out = decode_payload(client.job_output("wc"))
        assert out == dict(collections.Counter(corpus.split()))

    def test_matchcount_counts_matches_the_corpus_holds(self, handle, client):
        corpus = generate_corpus(20_000, seed=3)
        client.submit_job("mc", "matchcount", 20_000, 3,
                          n_maps=3, n_reducers=2)
        run_volunteer(handle.address, name="grep", idle_limit=30)
        assert _wait_until_finished(client, "mc")["state"] == "done"
        out = decode_payload(client.job_output("mc"))
        assert out
        assert out == LocalRunner(MatchCount(rb"\w+a\b"), 3, 2).run(
            corpus).output

    def test_repro_volunteer_says_what_it_moved(self, handle, client, capsys):
        from repro.cli import main

        client.submit_job("cli", "wordcount", 4_000, 2, n_maps=2, n_reducers=1)
        assert main(["volunteer", "--address", handle.address,
                     "--name", "cli-vol", "--idle-limit", "20"]) == 0
        line = capsys.readouterr().out.strip().splitlines()[-1]
        assert re.fullmatch(
            r"cli-vol: 3 tasks done, 0 failed, \d+ scheduler RPCs; "
            r"\d+ requests, 0 retries, \d+ bytes sent, \d+ bytes received",
            line), line

    def test_quorum_two_needs_two_hosts(self, handle, client):
        corpus = generate_corpus(8_000, seed=4)
        client.submit_job("q2", "wordcount", 8_000, 4, n_maps=2,
                          n_reducers=1, replication=2, quorum=2)
        # One host may hold at most one replica of a workunit, and the
        # reduce replicas only exist after both map replicas validate —
        # so keep sending fresh volunteer identities until the job seals.
        for i in range(8):
            run_volunteer(handle.address, name=f"rep-{i}", idle_limit=15)
            if client.job_status("q2")["state"] != "running":
                break
        status = _wait_until_finished(client, "q2")
        assert status["state"] == "done"
        out = decode_payload(client.job_output("q2"))
        assert out == dict(collections.Counter(corpus.split()))
        # each WU exactly once despite 2 replicas
        assert status["assimilated"] == 3

    def test_job_status_and_output_endpoints(self, handle, client):
        client.submit_job("st", "wordcount", 5_000, 5, n_maps=1, n_reducers=1)
        status = client.job_status("st")
        assert protocol.validate("JobStatus", status) == []
        assert status["state"] == "running"
        with pytest.raises(GatewayError) as err:
            client.job_output("st")
        assert err.value.code == "not_ready"
        run_volunteer(handle.address, name="worker", idle_limit=20)
        assert _wait_until_finished(client, "st")["state"] == "done"
        payload = client.job_output("st")
        assert payload == handle.server.jobs.outputs["st"]


class TestLoneVolunteerRetry:
    def test_one_failed_report_does_not_wedge_the_job(self, handle, client,
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
        client.submit_job("solo", "wordcount", 10_000, 8,
                          n_maps=2, n_reducers=1)
        stats = run_volunteer(handle.address, name="only", idle_limit=50)
        assert (stats.tasks_failed, stats.tasks_done) == (1, 3)
        assert client.job_status("solo")["state"] == "done"
        assert decode_payload(client.job_output("solo")) == dict(
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

    @pytest.mark.parametrize("call", [
        lambda c: c.job_status("my job"),
        lambda c: c.job_output("jöb"),
        lambda c: c.download("a\r\nX-Injected: 1"),
        lambda c: c.request("GET", "/healthz", headers={"X-Bad": "a\nb"}),
    ])
    def test_a_request_that_cannot_be_sent_is_not_retried(self, monkeypatch,
                                                          call):
        with socket.socket() as s:  # nothing listens: a dial would fail
            s.bind(("127.0.0.1", 0))
            port = s.getsockname()[1]
        sleeps = []
        monkeypatch.setattr(time, "sleep", sleeps.append)
        client = GatewayClient(f"127.0.0.1:{port}", retries=3)
        with pytest.raises(ValueError):
            call(client)
        assert sleeps == [] and client.retry_count == 0
        assert (client.requests, client.bytes_sent) == (0, 0)


class TestDisconnectMidUpload:
    def test_partial_upload_leaves_no_blob(self, handle, client):
        corpus = generate_corpus(5_000, seed=6)
        client.submit_job("cut", "wordcount", 5_000, 6, n_maps=1, n_reducers=1)
        host_id = client.register("cutter")
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
        assert _wait_until_finished(client, "cut")["state"] == "done"
        out = decode_payload(client.job_output("cut"))
        assert out == dict(collections.Counter(corpus.split()))

    def test_checksum_mismatch_rejected(self, handle, client):
        client.submit_job("ck", "wordcount", 4_000, 7, n_maps=1, n_reducers=1)
        host_id = client.register("checker")
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


class TestUploadRules:
    """An upload is taken only for a blob its result's task produces, and
    only while that result is in progress (docs/protocol.md)."""

    def test_foreign_input_overwrite_is_refused(self, handle, client):
        # The holder of result 1 (map 0) tries to replace map 3's input.
        client.submit_job("j", "wordcount", 8_000, 9, n_maps=4, n_reducers=2)
        original = client.download("j.m3.in")
        host_id = client.register("overwriter")
        task = next(t for t in _poll_for_assignment(client, host_id)
                    if t["result_id"] == 1)
        assert (task["kind"], task["index"]) == ("map", 0)
        for name in ("j.m3.in", "j.m3.p0", "j.m0.p2", "j.out0", "other"):
            with pytest.raises(GatewayError) as err:
                client.upload(1, name, b"forged")
            assert 400 <= err.value.status < 500, name
            assert err.value.code == "upload_refused", name
        assert client.download("j.m3.in") == original
        assert not handle.server.store.has("j.m3.p0")
        # Its own partitions are taken; once reported, not even those.
        report = execute_task(client, task)
        assert [f["name"] for f in report["output_files"]] == [
            "j.m0.p0", "j.m0.p1"]
        client.scheduler_rpc(host_id, work_req_s=0.0, reports=[report])
        assert handle.server.core.db.results[1].state is ResultState.OVER
        with pytest.raises(GatewayError) as err:
            client.upload(1, "j.m0.p0", b"late")
        assert (err.value.status, err.value.code) == (403, "upload_refused")
        # A partition is served once its map is assimilated.
        assert _wait_until(lambda: handle.server.store.has("j.m0.p0"))
        assert client.download("j.m0.p0") != b"late"

    def test_each_result_writes_each_name_once(self, handle, client):
        corpus = generate_corpus(8_000, seed=11)
        client.submit_job("once", "wordcount", 8_000, 11,
                          n_maps=1, n_reducers=2)
        host_id = client.register("replayer")
        task = _poll_for_assignment(client, host_id)[0]
        report = execute_task(client, task)
        rid, name = task["result_id"], "once.m0.p1"
        store, uploads = handle.server.store, handle.server.metrics.counter(
            "gateway.uploads_total")
        original = store.staged[rid, name]  # unserved until assimilated
        stored, landed = store.bytes_received, uploads.value
        # Its reply was lost: the same bytes again are a 200 that stores
        # nothing new.
        assert client.upload(rid, name, original)["received"] is True
        assert (store.bytes_received, uploads.value) == (stored, landed)
        # Other bytes from the same result for a name it wrote are refused.
        with pytest.raises(GatewayError) as err:
            client.upload(rid, name, b"second thoughts")
        assert (err.value.status, err.value.code) == (403, "upload_refused")
        assert store.staged[rid, name] == original
        assert store.bytes_received == stored
        client.scheduler_rpc(host_id, work_req_s=0.0, reports=[report])
        run_volunteer(handle.address, name="closer", idle_limit=20)
        assert _wait_until_finished(client, "once")["state"] == "done"
        assert decode_payload(client.job_output("once")) == dict(
            collections.Counter(corpus.split()))

    def test_a_refused_volunteer_fails_the_task_and_keeps_polling(
            self, handle, client, monkeypatch):
        from repro.gateway import client as client_module

        refused = []

        def forger(client, task):
            if not refused:
                try:
                    client.upload(task["result_id"], "fg.m1.in", b"forged")
                except GatewayError as exc:
                    refused.append(exc.code)
                    raise
            return execute_task(client, task)

        monkeypatch.setattr(client_module, "execute_task", forger)
        corpus = generate_corpus(10_000, seed=10)
        client.submit_job("fg", "wordcount", 10_000, 10,
                          n_maps=2, n_reducers=1)
        stats = run_volunteer(handle.address, name="forger", idle_limit=50)
        assert refused == ["upload_refused"]
        assert (stats.tasks_failed, stats.tasks_done) == (1, 3)
        assert _wait_until_finished(client, "fg")["state"] == "done"
        assert decode_payload(client.job_output("fg")) == dict(
            collections.Counter(corpus.split()))


class TestReplicasStagedApart:
    """A replica's uploads are its own until its workunit is assimilated;
    then only the canonical result's bytes are served."""

    def test_a_rejected_replica_writing_last_is_not_what_reducers_read(
            self, handle, client):
        from repro.runtime import LocalRunner
        from repro.runtime.apps import WordCount

        corpus = generate_corpus(6_000, seed=15)
        client.submit_job("rep", "wordcount", 6_000, 15,
                          n_maps=1, n_reducers=1,
                          replication=3, quorum=2)
        clients = {h: GatewayClient(handle.address) for h in "ABC"}
        hosts = {h: c.register(f"replica-{h}")
                 for h, c in clients.items()}
        tasks = {h: _poll_for_assignment(clients[h], hosts[h])[0]
                 for h in "ABC"}
        assert {t["kind"] for t in tasks.values()} == {"map"}
        for h in "AC":
            clients[h].scheduler_rpc(hosts[h], work_req_s=0.0, reports=[
                execute_task(clients[h], tasks[h])])
        runner = LocalRunner(WordCount(), 1, 1)
        honest = runner.run_map_task(0, clients["B"].download("rep.m0.in"))[1][0]
        # B writes other bytes, last, and reports their digest.
        forged = runner.run_map_task(0, b"forged words forged\n")[1][0]
        rid = tasks["B"]["result_id"]
        clients["B"].upload(rid, "rep.m0.p0", forged)
        clients["B"].scheduler_rpc(hosts["B"], work_req_s=0.0, reports=[{
            "result_id": rid, "success": True, "elapsed_s": 0.0,
            "digest": protocol.checksum(forged),
            "output_files": [{"name": "rep.m0.p0", "size": len(forged)}]}])
        for c in clients.values():
            c.close()
        for h in "AC":  # two replicas of the reduce
            run_volunteer(handle.address, name=f"replica-{h}", idle_limit=15)
        assert _wait_until_finished(client, "rep")["state"] == "done"
        assert decode_payload(client.job_output("rep")) == dict(
            collections.Counter(corpus.split()))
        assert handle.server.store.fetch("rep.m0.p0") == honest != forged
        assert not any(name == "rep.m0.p0"
                       for _rid, name in handle.server.store.staged)


class TestDuplicateReport:
    def test_replayed_report_is_dropped_and_counted(self, handle, client):
        corpus = generate_corpus(6_000, seed=8)
        client.submit_job("dup", "wordcount", 6_000, 8, n_maps=1, n_reducers=1)
        host_id = client.register("replayer")
        task = _poll_for_assignment(client, host_id)[0]
        report = execute_task(client, task)
        client.scheduler_rpc(host_id, work_req_s=0.0, reports=[report])
        # Network flake: the client re-sends the same report.
        client.scheduler_rpc(host_id, work_req_s=0.0, reports=[report])
        assert handle.server.metrics.counter(
            "gateway.duplicate_reports_total").value == 1

        run_volunteer(handle.address, name="closer", idle_limit=20)
        assert _wait_until_finished(client, "dup")["state"] == "done"
        out = decode_payload(client.job_output("dup"))
        assert out == dict(collections.Counter(corpus.split()))
        assert client.job_status("dup")["assimilated"] == 2

    def test_report_for_foreign_result_dropped(self, handle, client):
        client.submit_job("f", "wordcount", 6_000, 9, n_maps=1, n_reducers=1)
        mine = client.register("honest")
        thief = client.register("thief")
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


class TestInThread:
    def test_a_port_in_use_raises_in_the_caller(self):
        raised = []
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen()
            port = taken.getsockname()[1]

            def boot():
                try:
                    GatewayServer.in_thread(GatewayConfig(port=port)).close()
                except BaseException as exc:
                    raised.append(exc)

            caller = threading.Thread(target=boot, daemon=True)
            caller.start()
            caller.join(10.0)
            assert not caller.is_alive(), "in_thread still waiting at 10 s"
        assert len(raised) == 1 and isinstance(raised[0], OSError), raised


class TestRestartWithLeases:
    def test_a_volunteer_restart_keeps_its_lease(self):
        handle = GatewayServer.in_thread(GatewayConfig(daemon_period_s=0.01))
        try:
            corpus = generate_corpus(6_000, seed=10)
            client = GatewayClient(handle.address)
            client.submit_job("boot", "wordcount", 6_000, 10,
                              n_maps=1, n_reducers=1)
            host_id = client.register("survivor")
            task = _poll_for_assignment(client, host_id)[0]
            client.close()  # volunteer down; the lease is still in flight

            res = handle.server.core.db.results[task["result_id"]]
            assert res.state is ResultState.IN_PROGRESS
            client = GatewayClient(handle.address)
            assert client.register("survivor") == host_id
            report = execute_task(client, task)
            client.scheduler_rpc(host_id, work_req_s=0.0, reports=[report])
            run_volunteer(handle.address, name="post-restart",
                          idle_limit=20)
            assert _wait_until_finished(client, "boot")["state"] == "done"
            out = decode_payload(client.job_output("boot"))
            client.close()
            assert out == dict(collections.Counter(corpus.split()))
        finally:
            handle.close()

    def test_abandoned_lease_expires_and_is_reissued(self):
        handle = GatewayServer.in_thread(GatewayConfig(
            daemon_period_s=0.01, delay_bound_s=0.3))
        try:
            corpus = generate_corpus(6_000, seed=11)
            client = GatewayClient(handle.address)
            client.submit_job("aband", "wordcount", 6_000, 11,
                              n_maps=1, n_reducers=1)
            ghost = client.register("ghost")
            task = _poll_for_assignment(client, ghost)[0]
            client.close()
            # The ghost never reports; past the delay bound the shared
            # transitioner times the lease out and creates a fresh replica.
            time.sleep(0.5)
            run_volunteer(handle.address, name="rescuer", idle_limit=30)
            assert _wait_until_finished(client, "aband",
                                        budget_s=15)["state"] == "done"
            out = decode_payload(client.job_output("aband"))
            client.close()
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
    def _assert_gateway_still_serves(handle, client):
        assert not handle.server._daemon_task.done()
        corpus = generate_corpus(5_000, seed=13)
        client.submit_job("healthy", "wordcount", 5_000, 13,
                          n_maps=2, n_reducers=2)
        run_volunteer(handle.address, name="honest", idle_limit=30)
        assert _wait_until_finished(client, "healthy")["state"] == "done"
        assert decode_payload(client.job_output("healthy")) == dict(
            collections.Counter(corpus.split()))
        assert client.status()["jobs"]["healthy"] == "done"

    def test_reduce_reported_without_its_upload(self, handle, client):
        client.submit_job("liar", "wordcount", 4_000, 12,
                          n_maps=1, n_reducers=1)
        host_id = client.register("liar-host")
        map_task = _poll_for_assignment(client, host_id)[0]
        client.scheduler_rpc(host_id, work_req_s=0.0,
                             reports=[execute_task(client, map_task)])
        reduce_task = _poll_for_assignment(client, host_id)[0]
        assert reduce_task["kind"] == "reduce"
        client.scheduler_rpc(host_id, work_req_s=0.0, reports=[{
            "result_id": reduce_task["result_id"], "success": True,
            "elapsed_s": 0.0, "digest": "crc32:00000000",
            "output_files": [{"name": "liar.out0", "size": 1}]}])

        status = _wait_until_finished(client, "liar")
        assert status["state"] == "error"
        assert status["output_checksum"] is None
        with pytest.raises(GatewayError) as err:
            client.job_output("liar")
        assert err.value.code == "not_ready"
        assert "liar.out0" in err.value.detail
        self._assert_gateway_still_serves(handle, client)

    def test_missing_partition_creates_no_reduce_workunit(self, handle,
                                                          client):
        client.submit_job("gap", "wordcount", 4_000, 14,
                          n_maps=1, n_reducers=2)
        host_id = client.register("forgetful")
        task = _poll_for_assignment(client, host_id)[0]

        class SkipsPartitionOne(GatewayClient):
            def upload_all(self, result_id, outputs):
                return super().upload_all(result_id, [
                    (name, data) for name, data in outputs
                    if not name.endswith(".p1")])

        forgetful = SkipsPartitionOne(handle.address)
        client.scheduler_rpc(host_id, work_req_s=0.0,
                             reports=[execute_task(forgetful, task)])
        forgetful.close()

        status = _wait_until_finished(client, "gap")
        assert status["state"] == "error"
        # All or nothing: reducer 0's inputs were there, yet nothing of
        # the failed job is left for a volunteer to be handed.
        db = handle.server.core.db
        assert [wu for wu in db.workunits.values()
                if wu.mr_job == "gap" and wu.mr_kind == "reduce"] == []
        assert db.unsent_results() == []
        with pytest.raises(GatewayError) as err:
            client.job_output("gap")
        assert "gap.m0.p1" in err.value.detail
        self._assert_gateway_still_serves(handle, client)
