"""Sans-IO HTTP/1.1 message framing, for both directions of the wire.

One engine takes bytes into a ``bytearray`` and gives whole messages
out.  :class:`RequestFramer` frames the requests the gateway serves and
:class:`ReplyFramer` the replies :class:`~repro.gateway.client.GatewayClient`
reads (the rule: docs/protocol.md, "Transport conventions").
"""

from __future__ import annotations

import math

from ..wire import MAX_MESSAGE_BYTES


class FramingError(ConnectionError):
    """A message whose extent cannot be trusted: the gateway answers it
    400 and hangs up, the client drops the connection and retries."""


class _Framer:
    """Sans-IO HTTP/1.1 framing over the bytes in :attr:`buffer`.

    :meth:`next_message` takes the next whole message off the front of
    the buffer, returns None while it is not whole, and raises
    :class:`FramingError` for one whose extent cannot be trusted, as soon
    as the bytes that show it are in: no limit waits for a line end or a
    blank line that may never come.  Lines end in ``\\n`` or ``\\r\\n``; a
    message ends at its blank line plus ``Content-Length`` body bytes.
    A side parses its start line in ``_start_line`` and sets ``MAX_LINE``
    (bytes in a line, its end included), ``MAX_HEADERS`` (header lines),
    ``MAX_BODY``, ``NO_LENGTH`` (the length of a message that sends none;
    "" refuses it) and what ``str.strip`` takes off a field name
    (``NAME_WS``) and the two ends of its value (``LEAD_WS``,
    ``TRAIL_WS``, which takes the CR of a CRLF; None: all whitespace).
    """

    __slots__ = ("buffer", "_scanned", "_lines", "_head")

    def __init__(self) -> None:
        """An empty buffer, nothing scanned."""
        self.buffer = bytearray()
        #: Where the first line not yet seen whole starts, and how many
        #: whole lines of the current head come before it.
        self._scanned = self._lines = 0
        #: The parsed head of a message whose body is still arriving.
        self._head: tuple | None = None

    def next_message(self) -> tuple | None:
        """The next whole message: the start line's parts, then the
        lower-cased headers and the body."""
        head = self._head or self._scan_head()
        if head is None or len(self.buffer) < head[3]:
            self._head = head
            return None
        self._head = None
        start, headers, body_at, end = head
        with memoryview(self.buffer) as view:
            body = bytes(view[body_at:end])
        del self.buffer[:end]
        return start + (headers, body)

    def _scan_head(self) -> tuple | None:
        """The parsed head at the front of the buffer; None while it is
        not whole.  Resumes at the first line not yet seen whole, so a
        head fed one byte at a time never rescans a whole line."""
        buffer, start, lines = self.buffer, self._scanned, self._lines
        max_line, max_headers = self.MAX_LINE, self.MAX_HEADERS
        while True:
            end = buffer.find(b"\n", start, start + max_line)
            if lines and (end == start
                          or (end == start + 1 and buffer[start] == 13)):
                self._scanned = self._lines = 0
                return self._parse_head(start - 1, end + 1)
            if lines > max_headers and buffer[start:start + 2] not in (
                    b"", b"\r"):  # a line begun that is not the blank one
                raise FramingError(f"more than {max_headers} header lines")
            if end < 0:
                if len(buffer) - start >= max_line:
                    raise FramingError(f"a line over {max_line} bytes")
                if lines and not self._lines:
                    # The start line came whole in this scan and the head
                    # did not: refuse a malformed one now.
                    self._start_line(
                        buffer[:buffer.index(b"\n")].decode("latin-1"))
                self._scanned, self._lines = start, lines
                return None
            lines += 1
            start = end + 1

    def _parse_head(self, last_line_end: int, body_at: int) -> tuple:
        """``(start line parts, headers, body_at, end of body)`` of the
        head whose last line ends at *last_line_end*, in one decode."""
        start_line, *lines = \
            self.buffer[:last_line_end].decode("latin-1").split("\n")
        start = self._start_line(start_line)
        name_ws, lead_ws, trail_ws = self.NAME_WS, self.LEAD_WS, self.TRAIL_WS
        headers: dict[str, str] = {}
        for line in lines:
            name, _, value = line.partition(":")
            name = name.strip(name_ws).lower()
            value = value.lstrip(lead_ws).rstrip(trail_ws)
            if name == "content-length" and headers.get(name, value) != value:
                raise FramingError("Content-Length headers that disagree")
            headers[name] = value
        if "transfer-encoding" in headers:
            raise FramingError("Transfer-Encoding is not supported: frame "
                               "the body with Content-Length")
        raw = headers.get("content-length", self.NO_LENGTH).strip()
        try:  # ASCII 1*DIGIT only: int() also takes "+24" and "2_4"
            length = int(raw) if raw.isascii() and raw.isdigit() else -1
        except ValueError:  # more digits than int() converts
            length = -1
        if not 0 <= length <= self.MAX_BODY:
            raise FramingError(f"Content-Length {raw[:32]!r} is not an "
                               f"integer in 0..{self.MAX_BODY}")
        return start, headers, body_at, body_at + length


class RequestFramer(_Framer):
    """Requests as the gateway takes them: ``(method, path, headers,
    body)``, the query cut off the path; no ``Content-Length``, no body."""

    MAX_LINE, MAX_HEADERS, MAX_BODY = 16 * 1024, 64, MAX_MESSAGE_BYTES
    NO_LENGTH = "0"
    NAME_WS = LEAD_WS = TRAIL_WS = None

    __slots__ = ()

    def _start_line(self, line: str) -> tuple:
        """``(method, path)`` of request line *line*: three parts."""
        parts = line.split()
        if len(parts) != 3:
            raise FramingError("malformed request line "
                               f"{(line + chr(10))[:64].encode('latin-1')!r}")
        method, target, _version = parts
        return method, target.split("?", 1)[0]


class ReplyFramer(_Framer):
    """Replies as ``http.client`` took them: ``(status, headers, body)``,
    but one without ``Content-Length`` is refused, not read to EOF."""

    MAX_LINE, MAX_HEADERS, MAX_BODY = 65536, 99, math.inf
    NO_LENGTH = ""
    NAME_WS, LEAD_WS, TRAIL_WS = "", " \t", "\r"

    __slots__ = ()

    def _start_line(self, line: str) -> tuple:
        """``(status,)`` of status line ``HTTP/1.x NNN [reason]``, NNN in
        100..999."""
        parts = line.split(None, 2)
        if (len(parts) < 2 or not parts[0].startswith("HTTP/1.")
                or len(parts[1]) != 3 or not parts[1].isdecimal()
                or parts[1][0] == "0"):
            raise FramingError(f"malformed status line {line[:64]!r}")
        return (int(parts[1]),)
