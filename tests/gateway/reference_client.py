"""The ``http.client`` transport ``GatewayClient`` used to speak, kept as
the oracle for the one it frames itself.

``_connection``, ``close`` and ``_once`` are the old methods verbatim,
on a class that holds only what they read: ``host``, ``port``,
``timeout_s`` and the persistent connection.  ``RETRYABLE`` is what the
old ``request()`` caught and retried.  ``tests/gateway/
test_client_differential.py`` replays generated reply streams to both.
"""

from __future__ import annotations

import http.client

#: The exceptions the old ``GatewayClient.request`` retried.
RETRYABLE = (http.client.HTTPException, ConnectionError, OSError)


class ReferenceClient:
    """The old transport of ``GatewayClient``, nothing else."""

    def __init__(self, address: str, timeout_s: float = 10.0) -> None:
        host, _, port = address.partition(":")
        self.host = host
        self.port = int(port)
        self.timeout_s = timeout_s
        self._conn: http.client.HTTPConnection | None = None

    # -- transport -------------------------------------------------------------
    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout_s)
        return self._conn

    def close(self) -> None:
        """Drop the persistent connection (reopened on next request)."""
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def _once(self, method: str, path: str, body: bytes,
              headers: dict[str, str]) -> tuple[int, dict[str, str], bytes]:
        conn = self._connection()
        try:
            conn.request(method, path, body=body, headers=headers)
            resp = conn.getresponse()
            payload = resp.read()
            return resp.status, {k.lower(): v for k, v in
                                 resp.getheaders()}, payload
        except (http.client.HTTPException, ConnectionError, OSError):
            self.close()
            raise
