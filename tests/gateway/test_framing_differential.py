"""The product's framing against the stream reader it replaced, and
against a socket.

``reference_framing`` is the parent's ``_read_line`` + ``_read_request``
verbatim over a ``StreamReader``; ``RequestFramer`` is what the product
runs inside ``data_received``.  Hypothesis builds byte streams of one to
four requests with, at most, one request mutated into something that must
be refused, cuts each stream into chunks at arbitrary places (down to one
byte at a time) and feeds the same chunks to both: same requests, same
verdict.  No stream ends inside a request, carries a ``Content-Length``
only ``int()`` would take, two that disagree, a ``Transfer-Encoding`` or
a request line of exactly the line bound plus one byte — the product is
stricter there on purpose, see ``reference_framing`` — and
``TestHostileFraming`` / ``TestEofInsideARequest`` pin those.

The second property fires the same streams at a live in-thread server.
Between the two, each bound of both framers (``RequestFramer`` and the
client's ``ReplyFramer``) is shown to fail on the byte that breaks it.
"""

import gc
import re
import socket
import time

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.gateway import GatewayClient, GatewayConfig, GatewayServer, protocol
from repro.gateway.framing import FramingError, ReplyFramer, RequestFramer

from . import reference_framing

LIMIT = 16 * 1024
MAX_BODY = 64 * 1024 * 1024

LINE_END = st.sampled_from([b"\r\n", b"\n"])
TOKEN = st.text("abcxyz019-._~%", min_size=1, max_size=12).map(str.encode)


@st.composite
def _target(draw):
    """A declared method and a concrete path for it, maybe with a query."""
    ep = draw(st.sampled_from(protocol.ENDPOINTS))
    path = ep.path.encode()
    path = path.replace(b"{result_id}", b"%d" % draw(st.integers(0, 99)))
    path = path.replace(b"{name}", draw(TOKEN))
    if draw(st.booleans()):
        path += b"?" + draw(TOKEN) + b"=" + draw(TOKEN)
    return ep.method.encode(), path


HEADER_NAME = st.sampled_from([
    b"Host", b"host", b"Content-Type", b"X-Pad", b"x-checksum", b"Accept",
    b"User-Agent", b" X-Spaced ", b"X-\xe9", b"\xa0X-Nbsp", b""])
#: Anything but a line feed: latin-1 decodes every byte, ``str.strip``
#: takes ``\xa0`` / ``\x85`` / ``\x1c`` for whitespace and bytes do not.
HEADER_VALUE = st.binary(max_size=40).map(lambda v: v.replace(b"\n", b" "))
#: A header line without a colon, never one that reads as the blank line
#: and never one that could spell a header the framing looks at.
RAW_LINE = st.lists(st.sampled_from(list(b"\x00 \t\xa0\x85\xffabXY-_;=\r")),
                    min_size=1, max_size=12).map(bytes).filter(
                        lambda line: line != b"\r")
HEADER_LINE = st.one_of(
    st.builds(lambda n, v: n + b":" + v, HEADER_NAME, HEADER_VALUE),
    st.builds(lambda n, v: n + b": " + v, HEADER_NAME, HEADER_VALUE),
    RAW_LINE)

BODY = st.one_of(
    st.just(b""), st.binary(max_size=64), st.binary(min_size=1, max_size=3000),
    st.sampled_from([b'{"name":"fuzz-host","flops":1e9}',
                     b'{"host_id":1,"work_req_s":1.0,"reports":[]}',
                     b"POST /rpc/scheduler HTTP/1.1\r\n\r\n"]))
#: Every spelling of a length both readers take for the same number.
LENGTH_LINE = st.sampled_from([b"Content-Length: %d", b"content-length:%d",
                               b"CONTENT-LENGTH:   %d  ", b"Content-Length: 00%d",
                               b"Content-Length:\t%d\r", b"Content-Length:\xa0%d"])
#: Values both readers refuse (what only ``int()`` takes is not here).
BAD_LENGTH = st.sampled_from([
    b"banana", b"-5", b"\xb2", b"1e3", b"0x10", b"", b"12 34", b"24, 24",
    b"%d" % (MAX_BODY + 1), b"9" * 30, b"9" * 5000])
#: No whitespace of either kind in it, so it is never a three-part line.
GARBAGE = st.lists(st.sampled_from(list(b"\x00\x01\x7f\x80\xfe\xffgarbage:{}")),
                   max_size=30).map(bytes)

MUTATIONS = ("header-over-limit", "request-line-over-limit", "header-count",
             "bad-length", "two-part-line", "four-part-line",
             "nbsp-in-target", "leading-blank-line", "garbage-line")


@st.composite
def _request(draw, mutation=None):
    """The bytes of one request: whole, and valid unless *mutation*."""
    if mutation == "garbage-line":
        return draw(GARBAGE) + b"\n"
    method, path = draw(_target())
    version = draw(st.sampled_from([b"HTTP/1.1", b"HTTP/1.0", b"x"]))
    line = draw(st.sampled_from([b"%b %b %b", b"%b %b %b", b"%b  %b\t%b"])) % (
        method, path, version)
    headers = draw(st.lists(HEADER_LINE, max_size=8))
    if draw(st.integers(0, 9)) == 0:
        headers += draw(st.lists(HEADER_LINE, min_size=40, max_size=50))
    body = draw(BODY)
    if mutation == "bad-length":
        headers.append(b"Content-Length: " + draw(BAD_LENGTH))
    elif body or draw(st.booleans()):
        length = draw(LENGTH_LINE) % len(body)
        for _ in range(draw(st.sampled_from([1, 1, 1, 2]))):  # same twice
            headers.insert(draw(st.integers(0, len(headers))), length)
    if draw(st.integers(0, 5)) == 0:
        headers.append(draw(st.sampled_from(
            [b"Connection: close", b"connection:CLOSE", b"Connection: Close"])))
    # A line of exactly the bound, line end included, is served.
    if draw(st.integers(0, 7)) == 0:
        headers.append(b"X-Long: " + b"a" * (LIMIT - 10) + b"\r\n")
    if mutation is None and draw(st.integers(0, 7)) == 0:
        line = b"%b %b%b %b\n" % (method, path, b"a" * (
            LIMIT - len(method) - len(path) - len(version) - 3), version)
    if draw(st.integers(0, 7)) == 0:  # as many header lines as are served
        headers += [b"X-Pad: 1"] * (64 - len(headers))

    if mutation == "header-over-limit":
        over = draw(st.sampled_from([1, 2, 1000, 54 * 1024]))
        headers.insert(draw(st.integers(0, len(headers))),
                       b"X-Over: " + b"a" * (LIMIT + over - 9) + b"\n")
    elif mutation == "request-line-over-limit":
        # Not 1 over: there the stream reader does not count the first byte.
        over = draw(st.sampled_from([2, 3, 1000, 54 * 1024]))
        line = b"%b %b%b %b\n" % (method, path, b"a" * (
            LIMIT + over - len(method) - len(path) - len(version) - 3), version)
    elif mutation == "header-count":
        headers += [b"X-Pad: 1"] * (65 - len(headers))
    elif mutation == "two-part-line":
        line = method + b" " + path
    elif mutation == "four-part-line":
        line += b" extra"
    elif mutation == "nbsp-in-target":
        line = method + b" " + path + b"\xa0x " + version
    elif mutation == "leading-blank-line":
        line = draw(LINE_END) + line
    assert len(headers) <= 64 or mutation in ("header-count",
                                              "header-over-limit")
    return b"".join(
        each if each.endswith(b"\n") else each + draw(LINE_END)
        for each in [line, *headers]) + draw(LINE_END) + body


@st.composite
def _chunks(draw, stream):
    """*stream* cut at arbitrary places; short ones also byte by byte."""
    mode = draw(st.sampled_from(["whole", "cuts", "cuts", "bytes"]))
    if mode == "bytes" and len(stream) <= 1500:
        return [stream[i:i + 1] for i in range(len(stream))]
    if mode == "whole":
        return [stream]
    cuts = sorted(set(draw(st.lists(st.integers(0, len(stream)), max_size=12))))
    return [stream[a:b] for a, b in zip([0] + cuts, cuts + [len(stream)])
            if a < b] or [stream]


@st.composite
def _streams(draw):
    """One to four requests, at most one of them refused, in chunks."""
    mutate_at = draw(st.none() | st.integers(0, 3))
    stream = b""
    for k in range(draw(st.integers(1, 4))):
        mutation = draw(st.sampled_from(MUTATIONS)) if k == mutate_at else None
        stream += draw(_request(mutation))
        if mutation is not None:
            stream += draw(st.binary(max_size=40))  # nobody reads on
            break
    return draw(_chunks(stream))


def parse_all(chunks):
    """What the product's parser makes of *chunks*: like
    ``reference_framing.read_all``, plus the verdict ``"incomplete"``."""
    parser, requests = RequestFramer(), []
    for chunk in chunks:
        parser.buffer += chunk
        while True:
            try:
                request = parser.next_message()
            except FramingError:
                return requests, "bad"
            if request is None:
                break
            requests.append(request)
            if request[2].get("connection", "").lower() == "close":
                return requests, "close"
    return requests, "incomplete" if parser.buffer else "eof"


POLL = (b"POST /rpc/scheduler HTTP/1.1\r\nHost: bench\r\n"
        b"Content-Length: 2\r\n\r\n{}")


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow,
                                                HealthCheck.data_too_large])
@given(_streams())
@example([POLL])
@example([POLL[:-1], POLL[-1:] + POLL.replace(b"\r\n", b"\n")])
@example([bytes([b]) for b in POLL * 2])
@example([POLL, b"GET /healthz\r\n\r\n"])
@example([b"GET /healthz HTTP/1.1\r\n" + b"X-Pad: 1\r\n" * 64 + b"\r\n"])
@example([b"GET /healthz HTTP/1.1\r\n" + b"X-Pad: 1\r\n" * 65])
@example([b"GET /healthz HTTP/1.1\nX: " + b"a" * LIMIT, b"\n\n"])
@example([b"\n", POLL])
def test_same_requests_and_same_verdict_as_the_stream_reader(chunks):
    expected = reference_framing.read_all(chunks)
    assert expected[1] in ("eof", "close", "bad")  # never mid-request
    assert parse_all(chunks) == expected


REQUEST = b"GET /healthz HTTP/1.1\r\nHost: h\r\n"
REPLY = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n"


@pytest.mark.parametrize("framer,head,last", [
    # A line one byte short of the bound: its line end would still fit.
    (RequestFramer, REQUEST + b"X-Long: " + b"a" * (LIMIT - 9), b"a"),
    (ReplyFramer, REPLY + b"X-Long: " + b"a" * (65536 - 9), b"a"),
    # Every header line the bound allows, and a CR: the blank line, maybe.
    (RequestFramer, REQUEST + b"X-Pad: 1\r\n" * 63 + b"\r", b"X"),
    (ReplyFramer, REPLY + b"X-Pad: 1\r\n" * 98 + b"\r", b"X"),
], ids=["request header line over 16 KiB", "reply header line over 64 KiB",
        "65th request header line", "100th reply header line"])
def test_a_bound_fails_once_the_bytes_that_show_it_are_in(framer, head, last):
    parser = framer()
    parser.buffer += head
    assert parser.next_message() is None
    parser.buffer += last  # no line end: none is needed to know
    with pytest.raises(FramingError):
        parser.next_message()


RESPONSE_HEAD = re.compile(
    rb"HTTP/1\.1 (\d{3}) [A-Za-z ]+\r\nContent-Length: (\d+)\r\n"
    rb"((?:[A-Za-z-]+: [^\r\n]*\r\n)*)\r\n")


def _responses(reply):
    """``(status, header block, body)`` of each response in *reply*, which
    must be nothing but whole, well-formed responses."""
    out = []
    while reply:
        head = RESPONSE_HEAD.match(reply)
        assert head, reply[:120]
        end = head.end() + int(head[2])
        assert len(reply) >= end, "response cut short"
        out.append((int(head[1]), head[3], reply[head.end():end]))
        reply = reply[end:]
    return out


def test_a_live_server_answers_or_closes_cleanly_whatever_arrives(caplog):
    handle = GatewayServer.in_thread(GatewayConfig(daemon_period_s=0.01))
    server = handle.server
    host, port = handle.address.split(":")
    probe = GatewayClient(handle.address)
    requests_total = server.metrics.counter("gateway.http_requests_total")

    @settings(max_examples=30, deadline=None,
              suppress_health_check=list(HealthCheck))
    @given(_streams())
    @example([POLL, b"GET /healthz\r\n\r\n"])
    @example([bytes([b]) for b in POLL])
    def fire(chunks):
        requests, verdict = reference_framing.read_all(chunks)
        before = requests_total.value
        reply = b""
        with socket.create_connection((host, int(port)), timeout=5) as raw:
            try:
                for chunk in chunks:
                    raw.sendall(chunk)
                    if len(chunks) <= 6:
                        time.sleep(0.001)  # let the segment arrive alone
                raw.shutdown(socket.SHUT_WR)
            except OSError:
                pass  # refused and hung up on while still sending
            try:
                while chunk := raw.recv(65536):  # until the server hangs up
                    reply += chunk
            except ConnectionResetError:
                assert verdict != "eof"  # it closed on bytes it never read
        answered = _responses(reply)
        assert len(answered) == len(requests) + (verdict == "bad")
        if verdict == "bad":
            status, headers, body = answered[-1]
            assert status == 400 and b"Connection: close\r\n" in headers
            assert protocol.loads(body)["error"] == "bad_request"
        for status, headers, body in answered:
            if b"application/json" in headers:
                protocol.loads(body)
        deadline = time.time() + 5.0
        while server.connections_active > 1 and time.time() < deadline:
            time.sleep(0.002)
        assert server.connections_active == 1  # the probe's own
        assert requests_total.value - before == len(answered)
        assert probe.health()["ok"] is True

    try:
        probe.health()
        fire()
        assert server.metrics.counter("gateway.disconnects_total").value == 0
    finally:
        probe.close()
        handle.close()
    gc.collect()
    assert [r for r in caplog.records if r.name == "asyncio"] == []
