"""``GatewayClient.download_all`` / ``upload_all`` against the one-blob
verbs they pipeline.

A batch goes out in one ``sendall`` and its replies are read in order,
so its outcome must be the outcome of the same requests made one at a
time, whatever the peer does on the way:

- downloads run against a scripted blob peer that answers some requests
  503 before it serves them, ends one reply with ``Connection: close``
  and hangs up, and sends a wrong ``X-Checksum`` for some blobs;
- uploads run against the real gateway, subclassed to refuse some
  uploads 503 first and to end one reply with ``Connection: close``.
  Both ways must leave the same staged blobs, the same ``written`` map
  and the same replies.

Only a request that was refused 503, or never answered, is sent again,
and each one sent again counts once in ``retry_count``.
"""

import socket
import threading
import time
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.boinc.dataserver import ServerUnavailable
from repro.gateway import GatewayClient, GatewayError, GatewayServer
from repro.gateway import client as client_module
from repro.gateway import protocol
from repro.gateway.framing import RequestFramer
from repro.gateway.server import GatewayConfig

BLOBS = {f"b{i}": bytes([i]) * (i * 700) for i in range(6)}


class BlobPeer:
    """A loopback blob server run by a script: *refusals* maps a name to
    the 503s it gets before it is served, the reply numbered
    *close_after* (counted from 1 over every connection) ends with
    ``Connection: close`` and a hang-up, and a name in *corrupt* is
    served with a checksum that does not match.  :attr:`log` holds
    ``(name, status)`` for each reply written."""

    def __init__(self, refusals, close_after, corrupt):
        self.refusals = dict(refusals)
        self.close_after = close_after
        self.corrupt = corrupt
        self.log = []
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.listener.settimeout(0.05)
        self.address = "127.0.0.1:%d" % self.listener.getsockname()[1]
        self.stopping = False
        self.thread = threading.Thread(target=self._run)
        self.thread.start()

    def _run(self):
        while not self.stopping:
            try:
                conn, _ = self.listener.accept()
            except (TimeoutError, socket.timeout):
                continue
            with conn:
                conn.settimeout(5)
                self._serve(conn)

    def _serve(self, conn):
        parser = RequestFramer()
        while True:
            request = parser.next_message()
            if request is None:
                try:
                    chunk = conn.recv(65536)
                except OSError:
                    return
                if not chunk:
                    return
                parser.buffer += chunk
                continue
            name = request[1].removeprefix("/data/")
            if self.refusals.get(name):
                self.refusals[name] -= 1
                status, body = protocol.error_body("unavailable", "flaky", 0.0)
                head = "Retry-After: 0\r\n"
            else:
                status, body = 200, BLOBS[name]
                crc = protocol.checksum(body + b"x" * (name in self.corrupt))
                head = f"{protocol.CHECKSUM_HEADER}: {crc}\r\n"
            self.log.append((name, status))
            closing = len(self.log) == self.close_after
            if closing:
                head += "Connection: close\r\n"
            conn.sendall(b"HTTP/1.1 %d X\r\nContent-Length: %d\r\n%b\r\n%b" % (
                status, len(body), head.encode(), body))
            if closing:
                return

    def close(self):
        self.stopping = True
        self.thread.join(10)
        assert not self.thread.is_alive()
        self.listener.close()


def _outcome(call):
    try:
        return call()
    except GatewayError as err:
        return ("error", err.status, err.code, err.detail)


def _batch_retries(names, refusals, close_after):
    """The requests a batch sends again, by the rule: the 503'd and the
    unanswered ones, each attempt."""
    budget, pending = dict(refusals), list(range(len(names)))
    answered = retries = 0
    while True:
        got, refused = 0, []
        for i in pending:
            answered += 1
            got += 1
            if budget.get(names[i]):
                budget[names[i]] -= 1
                refused.append(i)
            if answered == close_after:
                break
        pending = refused + pending[got:]
        if not pending:
            return retries
        retries += len(pending)


NAMES = st.lists(st.sampled_from(sorted(BLOBS)), min_size=1, max_size=8)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(names=NAMES,
       refusals=st.dictionaries(st.sampled_from(sorted(BLOBS)),
                                st.integers(0, 2)),
       close_after=st.none() | st.integers(1, 10),
       corrupt=st.sets(st.sampled_from(sorted(BLOBS)), max_size=1))
@example(names=["b1", "b2", "b3"], refusals={"b2": 1}, close_after=2,
         corrupt=set())
@example(names=["b0", "b5", "b5"], refusals={}, close_after=None,
         corrupt={"b5"})
def test_download_all_is_downloads_one_by_one(names, refusals, close_after,
                                              corrupt):
    outcomes, counts, logs = [], [], []
    with mock.patch.object(client_module.time, "sleep"):
        for batch in (True, False):
            peer = BlobPeer(refusals, close_after, corrupt)
            client = GatewayClient(peer.address, timeout_s=5.0)
            try:
                outcomes.append(_outcome(
                    (lambda: client.download_all(names)) if batch
                    else (lambda: [client.download(n) for n in names])))
                counts.append((client.requests, client.retry_count))
                logs.append(list(peer.log))
                if outcomes[-1][0] == "error":  # still in step after it
                    peer.refusals, peer.corrupt = {}, set()
                    assert client.download("b1") == BLOBS["b1"]
            finally:
                client.close()
                peer.close()
    assert outcomes[0] == outcomes[1]
    (requests, retries), log = counts[0], logs[0]
    assert retries == _batch_retries(names, refusals, close_after)
    assert requests == len(names) + retries
    # Served once per time asked for: nothing answered 200 was sent again.
    for name in set(names):
        served = sum(1 for n, status in log if n == name and status == 200)
        assert served == names.count(name)


class FlakyGateway(GatewayServer):
    """The gateway, refusing each name's first ``refusals[name]`` uploads
    with 503 and ending its ``close_after``-th upload reply with
    ``Connection: close`` (the client hangs up; the server reads on)."""

    refusals: dict = {}
    close_after: int | None = None
    answered = 0

    def _upload(self, rest, headers, body):
        name = rest.partition("/")[2]
        if self.refusals.get(name):
            self.refusals[name] -= 1
            raise ServerUnavailable("flaky")
        status, reply_headers, payload = super()._upload(rest, headers, body)
        self.answered += 1
        if self.answered == self.close_after:
            reply_headers = {**reply_headers, "Connection": "close"}
        return status, reply_headers, payload


def _leased_map(refusals, close_after):
    """A flaky gateway holding one leased map result: (handle, client,
    result id)."""
    handle = FlakyGateway.in_thread(GatewayConfig(daemon_period_s=0.01))
    handle.server.refusals = dict(refusals)
    handle.server.close_after = close_after
    client = GatewayClient(handle.address, timeout_s=5.0)
    client.submit_job("b", "wordcount", 2_000, 1, n_maps=1, n_reducers=4)
    host_id = client.register("uploader")
    for _ in range(200):
        tasks = client.scheduler_rpc(host_id, work_req_s=1.0)["assignments"]
        if tasks:
            return handle, client, tasks[0]["result_id"]
        time.sleep(0.01)
    raise AssertionError("no assignment within the polling budget")


OUTPUTS = st.lists(st.sampled_from([f"b.m0.p{r}" for r in range(4)]),
                   min_size=1, max_size=6)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(names=OUTPUTS,
       refusals=st.dictionaries(st.sampled_from(
           [f"b.m0.p{r}" for r in range(4)]), st.integers(0, 2)),
       close_after=st.none() | st.integers(1, 6))
@example(names=["b.m0.p0", "b.m0.p1", "b.m0.p2"], refusals={"b.m0.p1": 1},
         close_after=1)
def test_upload_all_is_uploads_one_by_one(names, refusals, close_after):
    outputs = [(name, name.encode() * 300) for name in names]
    seen = []
    for batch in (True, False):
        handle, client, rid = _leased_map(refusals, close_after)
        sent, retried = client.requests, client.retry_count
        try:
            with mock.patch.object(client_module.time, "sleep"):
                replies = (client.upload_all(rid, outputs) if batch
                           else [client.upload(rid, n, d) for n, d in outputs])
            server = handle.server
            seen.append((replies, dict(server.store.staged),
                         dict(server.written),
                         server.metrics.counter(
                             "gateway.uploads_total").value))
            assert client.requests - sent == len(outputs) + (
                client.retry_count - retried)
        finally:
            client.close()
            handle.close()
    assert seen[0] == seen[1]
    replies, staged, written, uploads = seen[0]
    assert staged == {(rid, n): d for n, d in outputs}
    assert uploads == len(set(names))


@pytest.fixture()
def handle():
    h = GatewayServer.in_thread(GatewayConfig(daemon_period_s=0.01))
    yield h
    h.close()


def test_a_refused_batch_leaves_the_socket_in_step(handle):
    handle.server.store.put("here", b"1" * 5000)
    handle.server.store.put("there", b"2" * 10)
    client = GatewayClient(handle.address)
    with pytest.raises(GatewayError) as err:
        client.download_all(["here", "gone", "there"])
    assert (err.value.status, err.value.code) == (404, "not_found")
    assert "gone" in err.value.detail
    assert client.download_all(["there", "here"]) == [b"2" * 10, b"1" * 5000]
    assert (client.requests, client.retry_count) == (5, 0)
    assert handle.server.connections_active == 1
    client.close()


def test_a_burst_is_written_in_one_write(handle):
    handle.server.store.put("small", b"s" * 100)
    client = GatewayClient(handle.address)
    assert client.download_all(["small"] * 5) == [b"s" * 100] * 5
    coalesced = handle.server.metrics.counter(
        "gateway.coalesced_replies_total").value
    assert 1 <= coalesced <= 4
    client.close()


def test_one_request_at_a_time_binds_no_coalescing_counter(handle):
    client = GatewayClient(handle.address)
    handle.server.store.put("small", b"s" * 100)
    for _ in range(3):
        client.download("small")
    assert "gateway.coalesced_replies_total" not in client.status()["counters"]
    client.close()
