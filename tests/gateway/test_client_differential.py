"""``GatewayClient``'s own framing against the ``http.client`` transport
it replaced, over a scripted peer on a loopback socket.

``reference_client`` is the old ``_connection`` / ``_once`` / ``close``
verbatim.  Hypothesis builds reply streams — the gateway's statuses and
others, header lines in random case with random whitespace, bodies up to
100 kB, most of them well formed and some hostile — cuts each into
pieces, and has the peer write the same pieces to one request of each
transport.  Both must return the same ``(status, headers, body)``, or
both raise what ``request()`` retries.

The old transport took some replies the gateway never sends, and the
new one refuses them on purpose (they are ``DIFFERENT``: the new one
must refuse, the old one may do either):

- no usable ``Content-Length`` (missing, negative, not digits): read to
  EOF;
- two ``Content-Length`` headers that disagree: the first one read;
- ``Transfer-Encoding: chunked``: decoded;
- a reply cut short by EOF inside its status line or head: the partial
  head read as whole, then a body read to EOF (or to its length).

Nothing here sends a 1xx, 204 or 304 reply (``http.client`` reads no body
after them whatever the length says), a status with other than three
digits, a header name that is not a token, or bytes in a value that
``str.splitlines`` breaks on (the email parser behind ``http.client``
splits header lines there).  The gateway sends none of them either.

Without a socket, ``ReplyFramer`` fed a reply one byte at a time must
frame what it frames from the whole reply.

On the request side, the bytes each transport sends are parsed by the
server's ``RequestFramer``: the same method, path, headers and body,
bar the ``Accept-Encoding`` only ``http.client`` adds.
"""

import http.client
import random
import socket
import threading
import time

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.gateway import GatewayClient, protocol
from repro.gateway.framing import FramingError, ReplyFramer, RequestFramer

from . import reference_client
from .reference_client import ReferenceClient

RETRY = "retry"
MAX_LINE = 65536


class Peer:
    """A loopback listener: each exchange accepts one connection, reads
    one request off it, writes a scripted reply in pieces, hangs up."""

    def __init__(self) -> None:
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.listener.settimeout(10)
        self.address = "127.0.0.1:%d" % self.listener.getsockname()[1]

    def _serve(self, pieces, got) -> None:
        conn, _ = self.listener.accept()
        with conn:
            conn.settimeout(10)
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            parser = RequestFramer()
            while (request := parser.next_message()) is None:
                chunk = conn.recv(65536)
                if not chunk:
                    return
                parser.buffer += chunk
            got.append(request)
            try:
                for i, piece in enumerate(pieces):
                    if i:
                        time.sleep(0.001)  # let the piece arrive on its own
                    conn.sendall(piece)
            except OSError:
                pass  # refused and hung up on before the reply was all out

    def exchange(self, transport, pieces, method="GET", path="/data/blob",
                 body=b"", headers=None):
        """What *transport* makes of the reply *pieces*: ``(status,
        headers, body)`` or ``RETRY``; and the request the peer read."""
        got = []
        thread = threading.Thread(target=self._serve, args=(pieces, got))
        thread.start()
        try:
            outcome = transport._once(method, path, body, headers or {})
        except reference_client.RETRYABLE:
            outcome = RETRY
        finally:
            thread.join(10)
        assert not thread.is_alive()
        return outcome, got[0] if got else None

    def close(self) -> None:
        self.listener.close()


@pytest.fixture(scope="module")
def peer():
    p = Peer()
    yield p
    p.close()


def _new_outcome(peer, pieces, **request):
    """The new transport's outcome, and whether its socket stayed open."""
    client = GatewayClient(peer.address, timeout_s=5.0)
    try:
        outcome, got = peer.exchange(client, pieces, **request)
        return outcome, got, client._sock is not None
    finally:
        client.close()


def _old_outcome(peer, pieces, **request):
    client = ReferenceClient(peer.address, timeout_s=5.0)
    try:
        return peer.exchange(client, pieces, **request)
    finally:
        client.close()


# -- replies ---------------------------------------------------------------------

STATUSES = [200, 400, 404, 405, 409, 422, 503,
            201, 202, 301, 302, 418, 500, 502, 599, 999]
REASONS = ["OK", "Bad Request", "", "Any Reason At All"]
HEADER_NAMES = ["Content-Type", "X-Checksum", "Retry-After", "Server",
                "Date", "X-Pad", "Cache-Control"]
#: Leading whitespace both strip from a value, and none.
OWS = st.sampled_from(["", " ", "  ", "\t", " \t"])
VALUE = st.text("abcXYZ0129 -_.,;:/=\"()é", max_size=30)
BAD_STATUS_LINES = ["HTTP/2 200 OK", "HTTP/1.1 20 OK", "HTTP/1.1 abc OK",
                    "garbage", "", "ICY 200 OK", "HTTP/1.1 1000 OK",
                    "HTTP/1.1", "HTTP/1.1 099 Low", "HTTP/1.1 +20 OK"]
BAD_LENGTHS = ["-5", "abc", "", "1e3", "0x10", "12abc"]

#: Mutations both transports must agree on, and the ones where the new
#: transport refuses what the old one may take.
SAME = ("eof-in-body", "bad-status-line", "long-line", "too-many-headers",
        "connection-close", "trailing-bytes", "line-at-limit",
        "99-headers")
DIFFERENT = ("eof-in-head", "no-length", "bad-length", "chunked")


def _case(draw, text):
    """*text* with each letter's case drawn."""
    flips = draw(st.lists(st.booleans(), min_size=len(text),
                          max_size=len(text)))
    return "".join(c.upper() if f else c.lower() for c, f in zip(text, flips))


def _body(draw):
    size = draw(st.one_of(st.integers(0, 64), st.integers(0, 3000),
                          st.integers(0, 100_000)))
    return random.Random(draw(st.integers(0, 2**16))).randbytes(size)


def _chunked(body, rng):
    out = b""
    while body:
        n = rng.randint(1, max(1, len(body)))
        out += b"%x\r\n%b\r\n" % (n, body[:n])
        body = body[n:]
    return out + b"0\r\n\r\n"


@st.composite
def _reply(draw):
    """``(pieces, mutation)``: a reply stream, cut into pieces."""
    mutation = draw(st.sampled_from((None,) * 8 + SAME + DIFFERENT))
    eol = draw(st.sampled_from(["\r\n", "\r\n", "\n"]))
    version = draw(st.sampled_from(["HTTP/1.1", "HTTP/1.1", "HTTP/1.0"]))
    status_line = f"{version} {draw(st.sampled_from(STATUSES))}"
    reason = draw(st.sampled_from(REASONS))
    if reason or draw(st.booleans()):
        status_line += " " + reason
    body = _body(draw)
    headers = [f"{_case(draw, draw(st.sampled_from(HEADER_NAMES)))}:"
               f"{draw(OWS)}{draw(VALUE)}"
               for _ in range(draw(st.integers(0, 10)))]
    length = str(len(body))
    if mutation == "bad-length":
        length = draw(st.sampled_from(BAD_LENGTHS))
    if mutation not in ("no-length", "chunked"):
        headers.insert(draw(st.integers(0, len(headers))),
                       f"{_case(draw, 'Content-Length')}:{draw(OWS)}{length}")
    if mutation == "chunked":
        headers.append(f"{_case(draw, 'Transfer-Encoding')}: chunked")
        body = _chunked(body, random.Random(len(body)))
    if mutation == "connection-close":
        headers.append(f"{_case(draw, 'Connection')}: close")
    if mutation == "bad-status-line":
        status_line = draw(st.sampled_from(BAD_STATUS_LINES))
    if mutation in ("long-line", "line-at-limit"):
        over = (draw(st.sampled_from([1, 2, 5000]))
                if mutation == "long-line" else 0)
        filler = "a" * (MAX_LINE + over - len(eol))
        if draw(st.booleans()):
            status_line = (status_line + " " + filler)[:len(filler)]
        else:
            headers.insert(draw(st.integers(0, len(headers))),
                           ("X-Long: " + filler)[:len(filler)])
    if mutation in ("too-many-headers", "99-headers"):
        target = 99 if mutation == "99-headers" else draw(
            st.sampled_from([100, 101, 150]))
        headers += ["X-Pad: 1"] * (target - len(headers))
    stream = ("".join(line + eol for line in [status_line, *headers])
              + eol).encode("latin-1")
    head_len = len(stream)
    stream += body
    if mutation == "trailing-bytes":
        stream += draw(st.binary(min_size=1, max_size=40))
    elif mutation == "eof-in-head":
        stream = stream[:draw(st.integers(0, head_len - 1))]
    elif mutation == "eof-in-body" and body:
        stream = stream[:draw(st.integers(head_len, len(stream) - 1))]
    cuts = sorted(set(draw(st.lists(st.integers(1, max(1, len(stream) - 1)),
                                    max_size=3))))
    pieces = [stream[a:b] for a, b in zip([0, *cuts], [*cuts, len(stream)])]
    return [p for p in pieces if p] or [b""], mutation


OK_REPLY = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}"


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(_reply())
@example(([OK_REPLY], None))
@example(([OK_REPLY[:20], OK_REPLY[20:]], None))
@example(([b""], "eof-in-head"))
@example(([OK_REPLY[:-1]], "eof-in-body"))
@example(([OK_REPLY + b"HTTP/1.1 200 OK\r\n"], "trailing-bytes"))
@example(([b"HTTP/1.1 200 OK\r\n\r\n"], "no-length"))
def test_same_reply_or_both_retry(peer, case):
    pieces, mutation = case
    old, _ = _old_outcome(peer, pieces)
    new, _, _ = _new_outcome(peer, pieces)
    if mutation in DIFFERENT:
        assert new == RETRY
    else:
        assert new == old


def _stream(status_line="HTTP/1.1 200 OK", headers=("Content-Length: 2",),
            body=b"{}"):
    return ("".join(f"{line}\r\n" for line in [status_line, *headers])
            + "\r\n").encode("latin-1") + body


PAD = ["Content-Length: 2"] + ["X-Pad: 1"] * 98
#: Each bound and refusal on its own, both sides of it.
EDGES = {
    **{f"status line {line!r}": _stream(line) for line in BAD_STATUS_LINES},
    "99 header lines": _stream(headers=PAD),
    "100 header lines": _stream(headers=PAD + ["X-Pad: 1"]),
    "status line at the bound": _stream(
        "HTTP/1.1 200 " + "a" * (MAX_LINE - 15)),
    "status line over it": _stream(
        "HTTP/1.1 200 " + "a" * (MAX_LINE - 14)),
    "header line at the bound": _stream(headers=[
        "Content-Length: 2", "X-Long: " + "a" * (MAX_LINE - 10)]),
    "header line over it": _stream(headers=[
        "Content-Length: 2", "X-Long: " + "a" * (MAX_LINE - 9)]),
    "EOF in the body": _stream()[:-1],
    "EOF before a byte": b"",
    "values lstripped only": _stream(headers=[
        "Content-Length: 2", "X-Pad: \t value  ", "x-PAD:x"]),
}
#: What the old transport took and the new one refuses on purpose.
DIFFERENT_EDGES = {
    **{f"Content-Length {v!r}": _stream(headers=[f"Content-Length: {v}"])
       for v in BAD_LENGTHS},
    "no Content-Length": _stream(headers=[]),
    "chunked": _stream(headers=["Transfer-Encoding: chunked"],
                       body=b"2\r\n{}\r\n0\r\n\r\n"),
    "chunked, with a length too": _stream(
        headers=["Content-Length: 12", "Transfer-Encoding: chunked"],
        body=b"2\r\n{}\r\n0\r\n\r\n"),
    "EOF before the blank line": _stream(headers=["Content-Length: 0"],
                                         body=b"")[:-2],
    "EOF inside the status line": b"HTTP/1.1 200 O",
    # http.client reads the first length, the old framing read the last
    "Content-Length 2, then 4": _stream(
        headers=["Content-Length: 2", "Content-Length: 4"], body=b"{}{}"),
    "Content-Length 4, then 2": _stream(
        headers=["Content-Length: 4", "Content-Length: 2"], body=b"{}{}"),
}


@pytest.mark.parametrize("stream", EDGES.values(), ids=EDGES.keys())
def test_each_edge_same_reply_or_both_retry(peer, stream):
    old, _ = _old_outcome(peer, [stream])
    new, _, _ = _new_outcome(peer, [stream])
    assert new == old


@pytest.mark.parametrize("stream", DIFFERENT_EDGES.values(),
                         ids=DIFFERENT_EDGES.keys())
def test_each_deliberate_difference(peer, stream):
    old, _ = _old_outcome(peer, [stream])
    new, _, _ = _new_outcome(peer, [stream])
    assert old != RETRY and old[0] == 200
    assert new == RETRY


def test_a_whole_reply_keeps_the_socket_open_for_the_next(peer):
    outcome, _, open_after = _new_outcome(peer, [OK_REPLY])
    assert outcome == (200, {"content-length": "2"}, b"{}")
    assert open_after


@pytest.mark.parametrize("reply", [
    OK_REPLY.replace(b"\r\n\r\n", b"\r\nConnection: close\r\n\r\n"),
    OK_REPLY.replace(b"\r\n\r\n", b"\r\nconnection: Close\r\n\r\n"),
    OK_REPLY + b"HTTP/1.1 200 OK\r\n",  # a second reply nobody asked for
    OK_REPLY + b"\r\n",
])
def test_the_socket_closes_after_close_or_extra_bytes(peer, reply):
    outcome, _, open_after = _new_outcome(peer, [reply])
    assert outcome[0] == 200 and outcome[2] == b"{}"
    assert not open_after


# -- the reply side, sans IO ------------------------------------------------------

def _framed(pieces):
    """What ``ReplyFramer`` makes of *pieces*, fed in order: the replies
    it took and the bytes left over, or ``RETRY`` once it refuses."""
    framer, replies = ReplyFramer(), []
    try:
        for piece in pieces:
            framer.buffer += piece
            while (reply := framer.next_message()) is not None:
                replies.append(reply)
    except FramingError:
        return RETRY
    return replies, bytes(framer.buffer)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(_reply())
@example(([OK_REPLY], None))
@example(([OK_REPLY * 3], "trailing-bytes"))
def test_a_reply_fed_byte_by_byte_frames_as_the_whole(case):
    pieces, mutation = case
    stream = b"".join(pieces)
    whole = _framed([stream])
    assert _framed([stream[i:i + 1] for i in range(len(stream))]) == whole
    if mutation is None:
        [(_status, _headers, body)] = whole[0]
        assert whole[1] == b"" and stream.endswith(body)


# -- requests --------------------------------------------------------------------

TOKEN = st.text("abcxyz019-._~%", min_size=1, max_size=12)


@st.composite
def _request(draw):
    """``(method, path, headers, body)`` both transports can send."""
    ep = draw(st.sampled_from(protocol.ENDPOINTS))
    method = draw(st.sampled_from([ep.method, ep.method, "PUT", "DELETE"]))
    path = ep.path.replace("{result_id}", str(draw(st.integers(0, 99))))
    path = path.replace("{name}", draw(TOKEN))
    if draw(st.booleans()):
        path += "?" + draw(TOKEN) + "=" + draw(TOKEN)
    names = draw(st.lists(st.sampled_from(
        ["Content-Type", "X-Checksum", "Accept", "User-Agent", "X-Pad",
         "x-pad", "X-Empty"]), unique=True, max_size=5))
    headers = {name: draw(OWS) + draw(VALUE) for name in names}
    return method, path, headers, draw(st.binary(max_size=3000))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_request())
@example(("GET", "/healthz", {}, b""))
@example(("POST", "/upload/3/j.m0.p1", {protocol.CHECKSUM_HEADER:
                                         protocol.checksum(b"x" * 6000)},
          b"x" * 6000))
def test_the_server_reads_the_same_request_from_both(peer, request):
    method, path, headers, body = request
    sent = dict(method=method, path=path, headers=headers, body=body)
    old_outcome, old = _old_outcome(peer, [OK_REPLY], **sent)
    new_outcome, new, _ = _new_outcome(peer, [OK_REPLY], **sent)
    assert new_outcome == old_outcome == (200, {"content-length": "2"}, b"{}")
    old[2].pop("accept-encoding")
    assert new == old


#: Requests ``http.client`` refused, and the new transport must refuse
#: before a byte is sent: ``(method, path, headers)``.
UNSENDABLE = [
    ("GET", "/jobs/my job", {}),
    ("GET", "/jobs/a\r\nX-Injected: 1", {}),
    ("GET", "/jobs/tab\there", {}),
    ("GET", "/jobs/\x7f", {}),
    ("GET", "/jobs/j\x00b", {}),
    ("GET", "/jobs/jöb", {}),
    ("GET", "/jobs/☃", {}),
    ("GET\r\n", "/healthz", {}),
    ("GET", "/healthz", {"X-Bad": "a\r\nX-Injected: 1"}),
    ("GET", "/healthz", {"X-Bad": "line\nbreak"}),
    ("GET", "/healthz", {"X-Bad": "cr\ronly"}),
    ("GET", "/healthz", {"Bad:Name": "v"}),
    ("GET", "/healthz", {"Bad\r\nName": "v"}),
    ("GET", "/healthz", {"": "v"}),
    ("GET", "/healthz", {" Lead": "v"}),
    ("GET", "/healthz", {"X-Snow": "☃"}),
]
#: Refused by the new transport only: NUL in a header, a space in the
#: method, and an empty method or target (``http.client`` sent ``/`` for
#: an empty target).
NEWLY_UNSENDABLE = [
    ("G ET", "/healthz", {}),
    ("GET", "/healthz", {"X-Nul": "a\x00b"}),
    ("GET", "/healthz", {"X\x00Nul": "v"}),
    ("", "/healthz", {}),
    ("GET", "", {}),
]


class Unreachable:
    """An address nothing listens on: a transport that dials it fails."""

    def __init__(self) -> None:
        with socket.socket() as s:
            s.bind(("127.0.0.1", 0))
            self.address = "127.0.0.1:%d" % s.getsockname()[1]


@pytest.mark.parametrize("method,path,headers", UNSENDABLE + NEWLY_UNSENDABLE)
def test_an_unsendable_request_is_refused_before_dialling(method, path,
                                                          headers):
    client = GatewayClient(Unreachable().address)
    with pytest.raises(ValueError) as err:
        client._once(method, path, b"", headers)
    assert not isinstance(err.value, OSError)
    assert (client.requests, client.bytes_sent, client._sock) == (0, 0, None)


@pytest.mark.parametrize("method,path,headers", UNSENDABLE)
def test_http_client_refused_these_too(method, path, headers):
    client = ReferenceClient(Unreachable().address)
    # Refused while forming the request: neither dialled nor retried.
    with pytest.raises((ValueError, http.client.InvalidURL)):
        client._once(method, path, b"", headers)
