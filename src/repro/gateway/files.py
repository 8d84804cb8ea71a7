"""Real-bytes file store behind the gateway's data endpoints.

The live counterpart of :class:`repro.boinc.dataserver.DataServer`: both
subclass :class:`repro.boinc.dataserver.FileCatalogue`, so publish /
refusal / accounting semantics are shared, but where the simulated store
moves :class:`~repro.boinc.model.FileRef` *sizes* through the flow
network, this one holds the actual payload bytes served over live HTTP.

Every blob carries a CRC32 checksum in the wire format of
:func:`repro.gateway.protocol.checksum` (``crc32:<8 hex digits>``); the
gateway sends it in the ``X-Checksum`` response header on downloads and
verifies it on uploads, mirroring the checksum-validated transfers of the
simulated client (:func:`repro.boinc.client.download_with_retry`).  An
upload is *staged*, unserved, until :meth:`BlobStore.settle`.
"""

from __future__ import annotations

from ..boinc.dataserver import FileCatalogue, FileMissing, ServerUnavailable
from ..boinc.model import FileRef
from .protocol import checksum


class BlobStore(FileCatalogue):
    """In-memory named-blob store with checksums (the live data server)."""

    def __init__(self) -> None:
        """An empty, available blob store."""
        super().__init__()
        self._blobs: dict[str, bytes] = {}
        self.checksums: dict[str, str] = {}
        #: ``(result_id, name) ->`` the bytes that result uploaded.
        self.staged: dict[tuple[int, str], bytes] = {}

    # -- ingest ---------------------------------------------------------------
    def put(self, name: str, data: bytes) -> FileRef:
        """Store and serve *data* under *name* (a re-put overwrites)."""
        ref = FileRef(name=name, size=float(len(data)))
        self._blobs[name] = data
        self.checksums[name] = checksum(data)
        self.publish(ref)
        self.bytes_received += len(data)
        return ref

    def stage(self, result_id: int, name: str, data: bytes) -> None:
        """Hold *data* as result *result_id*'s copy of *name*, unserved."""
        self.staged[result_id, name] = data

    def settle(self, names: tuple[str, ...], result_ids: list[int],
               canonical: int | None) -> None:
        """Drop each result's staged copies of *names*, serving the
        *canonical* result's under those names from now on."""
        for name in names:
            for result_id in result_ids:
                data = self.staged.pop((result_id, name), None)
                if data is not None and result_id == canonical:
                    self.put(name, data)

    # -- serve ----------------------------------------------------------------
    def fetch(self, name: str) -> bytes:
        """Serve the bytes of *name*.

        Raises :class:`~repro.boinc.dataserver.ServerUnavailable` when the
        store is refusing (503 on the wire) and
        :class:`~repro.boinc.dataserver.FileMissing` when unpublished (404).
        """
        if not self.available:
            raise ServerUnavailable(f"blob store refused download of {name!r}")
        if name not in self.files:
            raise FileMissing(name)
        data = self._blobs[name]
        self.bytes_served += len(data)
        return data

    def checksum_of(self, name: str) -> str:
        """The stored wire checksum of blob *name* (KeyError when absent)."""
        return self.checksums[name]

    def __len__(self) -> int:
        """Number of stored blobs."""
        return len(self._blobs)
