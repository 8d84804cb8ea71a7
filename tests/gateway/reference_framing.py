"""Test oracle: the stream-based request reader ``repro.gateway.server``
shipped through PR 23, kept verbatim.

One coroutine per connection pulled a request through
``StreamReader.read(1)``, a ``readline()`` per header line and
``readexactly()`` for the body.  The product frames the same bytes with
the sans-IO ``_RequestParser`` inside one ``data_received`` callback and
must yield the same ``(method, path, headers, body)`` sequence and refuse
the same request, however the stream is cut into chunks
(``test_framing_differential.py``) — except where the product is stricter
on purpose, which ``test_server.py`` pins:

- a stream that ends inside a head is a disconnect, where this reader
  takes EOF for the blank line and runs the request;
- ``Content-Length`` must be ASCII digits (this reader's ``int()`` also
  takes ``+24``, ``-0`` and ``2_4``), and two that disagree are refused
  (here the last one wins);
- ``Transfer-Encoding`` is refused (ignored here);
- a request line of exactly 16 KiB + 1 bytes is over the line bound like
  any other line (here its first byte, read apart, is not counted).

``_read_line`` and ``_read_request`` are the parent's methods byte for
byte, constants included; :func:`read_all` is the driver the parent's
``_handle_conn`` loop was, minus the socket.
"""

from __future__ import annotations

import asyncio
import time

from repro.gateway.server import _BadFraming

_MAX_HEADER_LINE = 16 * 1024
_MAX_HEADERS = 64
_MAX_BODY = 64 * 1024 * 1024
_READ_TIMEOUT_S = 10.0


class ReferenceFraming:
    """The two framing methods of the parent's ``GatewayServer``."""

    def __init__(self) -> None:
        self._reading: dict[asyncio.Task, float] = {}

    @staticmethod
    async def _read_line(reader: asyncio.StreamReader) -> bytes:
        """One request or header line, bounded by ``_MAX_HEADER_LINE``."""
        try:
            line = await reader.readline()
        except ValueError:  # over the stream's own (larger) limit
            line = None
        if line is None or len(line) > _MAX_HEADER_LINE:
            raise _BadFraming(
                f"request or header line over {_MAX_HEADER_LINE} bytes")
        return line

    async def _read_request(
            self, reader: asyncio.StreamReader
    ) -> tuple[str, str, dict[str, str], bytes] | None:
        """Parse one HTTP/1.1 request; None on clean EOF between requests.
        Only the wait for its first byte (an idle keep-alive connection)
        is unbounded: from then on this task stands in ``_reading``, where
        :meth:`_expire_stalled_reads` finds a request that takes too long."""
        line = await reader.read(1)
        if not line:
            return None
        task = asyncio.current_task()
        self._reading[task] = time.monotonic()
        try:
            if line != b"\n":
                line += await self._read_line(reader)
            parts = line.decode("latin-1").split()
            if len(parts) != 3:
                raise _BadFraming(f"malformed request line {line[:64]!r}")
            method, target, _version = parts
            headers: dict[str, str] = {}
            for _ in range(_MAX_HEADERS + 1):
                line = await self._read_line(reader)
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
            else:
                raise _BadFraming(f"more than {_MAX_HEADERS} header lines")
            raw_length = headers.get("content-length", "0")
            try:
                length = int(raw_length)
            except ValueError:
                length = -1
            if not 0 <= length <= _MAX_BODY:
                raise _BadFraming(
                    f"Content-Length {raw_length[:32]!r} is not an integer in "
                    f"0..{_MAX_BODY}")
            body = await reader.readexactly(length) if length else b""
            return method, target.split("?", 1)[0], headers, body
        except asyncio.CancelledError:
            if task in self._reading:
                raise  # not the sweep's doing
            task.uncancel()
            raise _BadFraming(f"request incomplete {_READ_TIMEOUT_S:g}s "
                              f"after its first byte") from None
        finally:
            self._reading.pop(task, None)



def read_all(chunks: list[bytes]) -> tuple[list[tuple], str]:
    """Feed *chunks*, then EOF, to a ``StreamReader`` the reference reads
    from: ``(requests, verdict)`` where the verdict is ``"bad"`` (the
    request after those was refused), ``"close"`` (the last one asked for
    ``Connection: close``), ``"disconnect"`` (EOF inside a body) or
    ``"eof"``."""

    async def drive() -> tuple[list[tuple], str]:
        reader = asyncio.StreamReader()  # the limit start_server gives it
        framing = ReferenceFraming()
        requests: list[tuple] = []

        async def serve() -> str:
            while True:
                try:
                    request = await framing._read_request(reader)
                except _BadFraming:
                    return "bad"
                except asyncio.IncompleteReadError:
                    return "disconnect"  # EOF inside a body
                if request is None:
                    return "eof"
                requests.append(request)
                if request[2].get("connection", "").lower() == "close":
                    return "close"

        task = asyncio.get_running_loop().create_task(serve())
        for chunk in chunks:
            reader.feed_data(chunk)
            await asyncio.sleep(0)  # the reader takes what it can
        reader.feed_eof()
        return requests, await task

    return asyncio.run(drive())
