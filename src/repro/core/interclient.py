"""Mapper-side serving of map outputs to reduce workers (Section III.C).

A BOINC-MR client that finishes a map task "opens a TCP [socket] for
listening to incoming connections ... and stop[s] accepting connections
when there are no more files available for upload".  :class:`PeerStore`
models that serving table: files enter with an expiry (the serving
timeout), a file that served corrupt data is evicted, and the rest are
withdrawn when the job finishes.

The actual byte movement happens through
:func:`repro.net.transfer.peer_download`, gated by the client's
:class:`~repro.net.transfer.TransferEndpoint` connection limits.
"""

from __future__ import annotations

import dataclasses

from ..sim import Simulator
from ..boinc.model import FileRef

#: How long a mapper keeps its outputs available for peers before the
#: serving timeout expires (Section III.C: "chosen according to the
#: expected execution time of a map task"; the paper used a value "large
#: enough to allow all inter-client transfers").
SERVE_TIMEOUT_S = 4 * 3600.0


@dataclasses.dataclass(slots=True)
class ServedFile:
    """A map output this client serves to peers until its lease expires."""

    ref: FileRef
    job: str
    expires_at: float


class PeerStore:
    """The files one BOINC-MR client is currently serving to peers."""

    __slots__ = ("sim", "_files", "bytes_served")

    def __init__(self, sim: Simulator) -> None:
        """An empty store; entries expire :data:`SERVE_TIMEOUT_S` on."""
        self.sim = sim
        self._files: dict[str, ServedFile] = {}
        self.bytes_served = 0.0

    # -- mapper side -------------------------------------------------------------
    def serve(self, ref: FileRef, job: str) -> None:
        """Start (or restart) serving *ref* for *job*."""
        self._files[ref.name] = ServedFile(
            ref=ref, job=job, expires_at=self.sim.now + SERVE_TIMEOUT_S)

    def evict(self, name: str) -> bool:
        """Withdraw a file that served corrupt data (checksum mismatch).

        Downloaders stop considering this copy; the reducer falls back to
        another holder or the data server.  Returns False when the file
        was not being served (already evicted by a concurrent downloader).
        """
        return self._files.pop(name, None) is not None

    def stop_job(self, job: str) -> int:
        """Withdraw all files of a finished job; returns how many."""
        victims = [name for name, e in self._files.items() if e.job == job]
        for name in victims:
            del self._files[name]
        return len(victims)

    # -- reducer side ------------------------------------------------------------
    def available(self, name: str) -> bool:
        """Is *name* currently served (present and not expired)?"""
        entry = self._files.get(name)
        return entry is not None and self.sim.now <= entry.expires_at

    def get(self, name: str) -> FileRef:
        """Look up a served file for download; raises KeyError if unavailable."""
        entry = self._files.get(name)
        if entry is None:
            raise KeyError(f"{name} is not being served")
        if self.sim.now > entry.expires_at:
            raise KeyError(f"{name} serving timeout expired")
        self.bytes_served += entry.ref.size
        return entry.ref
