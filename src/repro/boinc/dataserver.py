"""Project data server: the HTTP file store clients download from/upload to.

BOINC input files live on the project's data servers and every transfer is
client-initiated HTTP (curl).  Here a :class:`DataServer` is a network host
holding a catalogue of named files; downloads and uploads are flows through
the shared server access link, which is exactly what makes the via-server
path a bottleneck compared to inter-client transfers (the paper's central
bandwidth argument).

Fault injection (:mod:`repro.faults`) degrades the service through three
knobs: ``available`` (503-style refusals the client retries with the
paper's exponential backoff + jitter), ``slow_factor`` (per-transfer rate
caps modelling an overloaded server), and ``corrupt_rate`` (served payloads
that fail the client's checksum validation, forcing a re-download).
"""

from __future__ import annotations

import typing as _t

from .model import FileRef

if _t.TYPE_CHECKING:  # pragma: no cover
    from ..net import Flow, Host, Network
    from ..sim import RandomStream, Simulator, Tracer


class FileMissing(KeyError):
    """A client asked for a file the data server does not hold."""


class ServerUnavailable(RuntimeError):
    """503-style refusal: the service is down or shedding load; retry later."""


class ChecksumMismatch(RuntimeError):
    """A downloaded file failed checksum validation (corrupt transfer)."""


class FileCatalogue:
    """Named-file catalogue + availability knob, shared by every transport.

    The transport-agnostic half of a data server: which files exist, the
    served/received byte accounting, and the 503-style availability flag.
    :class:`DataServer` adds simulated flow transfers on top;
    :class:`repro.gateway.files.BlobStore` adds real bytes served over
    live HTTP.  Both therefore refuse, account, and catalogue identically.
    """

    def __init__(self) -> None:
        """An empty catalogue, available, with zeroed accounting."""
        self.files: dict[str, FileRef] = {}
        self.bytes_served = 0.0
        self.bytes_received = 0.0
        #: Fault injection: False makes every request a 503-style refusal.
        self.available = True

    # -- catalogue ------------------------------------------------------------
    def publish(self, ref: FileRef) -> None:
        """Make *ref* available for download (idempotent re-publish allowed)."""
        self.files[ref.name] = ref

    def has(self, name: str) -> bool:
        """True when *name* is published."""
        return name in self.files


class DataServer(FileCatalogue):
    """File catalogue + simulated transfer endpoints on a server host."""

    def __init__(self, sim: Simulator, net: Network, host: Host,
                 tracer: Tracer) -> None:
        """An empty file store served from *host* over *net*, recording
        on *tracer*."""
        super().__init__()
        self.sim = sim
        self.net = net
        self.host = host
        self.tracer = tracer
        #: Fault injection: < 1 caps each transfer to this fraction of the
        #: server access-link capacity (overload / throttling).
        self.slow_factor = 1.0
        #: Fault injection: probability a served download arrives corrupt
        #: (``corrupt_rng``, set with it, draws the dice; rate 1 draws none).
        self.corrupt_rate = 0.0
        self.corrupt_rng: RandomStream | None = None

    # -- fault hooks ----------------------------------------------------------
    def _refuse(self, op: str, name: str, peer: Host) -> None:
        self.tracer.record(self.sim.now, "dataserver.refused", op=op,
                           file=name, host=peer.name)
        raise ServerUnavailable(f"data server refused {op} of {name!r}")

    def _rate_cap(self) -> float | None:
        if self.slow_factor >= 1.0:
            return None
        return max(self.slow_factor, 1e-6) * self.host.uplink.capacity

    def _maybe_corrupt(self, flow: Flow, name: str, to: Host) -> None:
        if self.corrupt_rate <= 0:
            return
        if (self.corrupt_rate >= 1.0
                or self.corrupt_rng.random() < self.corrupt_rate):
            flow.corrupted = True
            self.tracer.record(self.sim.now, "dataserver.corrupt_serve",
                               file=name, to=to.name)

    # -- transfers ------------------------------------------------------------
    def download(self, name: str, to: Host) -> Flow:
        """Start an HTTP download of file *name* to host *to*."""
        if not self.available:
            self._refuse("download", name, to)
        ref = self.files.get(name)
        if ref is None:
            raise FileMissing(name)
        flow = self.net.transfer(self.host, to, ref.size,
                                 label=f"http:{name}->{to.name}",
                                 max_rate=self._rate_cap())
        self._maybe_corrupt(flow, name, to)
        self.bytes_served += ref.size
        self.tracer.record(self.sim.now, "dataserver.download",
                           file=name, to=to.name, size=ref.size)
        return flow

    def upload(self, ref: FileRef, frm: Host) -> Flow:
        """Start an HTTP upload of *ref* from host *frm*.

        The file enters the catalogue when the flow completes (a partially
        uploaded file is not served).
        """
        if not self.available:
            self._refuse("upload", ref.name, frm)
        flow = self.net.transfer(frm, self.host, ref.size,
                                 label=f"http:{frm.name}->{ref.name}",
                                 max_rate=self._rate_cap())

        def _complete(ev) -> None:
            if ev.exception is not None:
                return  # aborted upload leaves no file behind
            self.publish(ref)
            self.bytes_received += ref.size
            self.tracer.record(self.sim.now, "dataserver.upload",
                               file=ref.name, frm=frm.name, size=ref.size)

        flow.done.add_callback(_complete)
        return flow
