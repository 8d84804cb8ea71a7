"""BOINC-MR client strategies: input fetching and output disposal.

These plug into :class:`repro.boinc.client.Client` and implement the
behaviours Section III.C adds to the stock client:

- **Map outputs** on a BOINC-MR client are *served to peers* instead of
  uploaded (optionally both, enabling the server fallback); on a legacy
  client they are uploaded as usual.
- **Reduce inputs** on a BOINC-MR client are downloaded directly from the
  mapper addresses the scheduler appended to the assignment, with *n*
  retries per partition and a final fallback to the project data server;
  on a legacy client everything comes from the data server.
"""

from __future__ import annotations

import typing as _t

from ..boinc.client import (
    Client,
    ClientTask,
    ServerInputFetcher,
    ServerUploadPolicy,
    download_with_retry,
    join_transfers,
)
from ..net import ConnectivityPolicy, Host, TransferFailed, peer_download
from ..sim import RngRegistry
from .config import BoincMRConfig
from .interclient import PeerStore
from .jobtracker import JobTracker

#: Failed inter-client downloads before the server copy (Section III).
PEER_RETRIES = 3
#: While waiting for a late map output, poll the server this often.
FETCH_POLL_S = 30.0
#: Give up on a missing reduce input after this many server polls.
FETCH_POLL_ATTEMPTS = 120


class ClientDirectory:
    """Address book resolving scheduler-provided addresses to live clients.

    Addresses look like ``hostname:port`` (the paper sends IP and port);
    resolution strips the port and finds the client by host name.
    """

    def __init__(self) -> None:
        """An empty directory."""
        self._clients: dict[str, Client] = {}

    def register(self, client: Client) -> None:
        """Make *client* resolvable by its host name."""
        self._clients[client.name] = client

    def resolve(self, address: str) -> Client | None:
        """Find the live client behind a ``host:port`` address, if any."""
        name = address.split(":", 1)[0]
        return self._clients.get(name)


class MapReduceOutputPolicy:
    """Dispose of task outputs per BOINC-MR rules (Section III.B/III.C).

    It holds no per-client state, so a deployment builds one and every
    client shares it.
    """

    def __init__(self, jobtracker: JobTracker, config: BoincMRConfig) -> None:
        """Output policy bound to one job tracker and BOINC-MR config."""
        self.jobtracker = jobtracker
        self.config = config

    def handle(self, client: Client, task: ClientTask) -> _t.Generator:
        """Serve map outputs from the client or upload them (sim process)."""
        wu = task.assignment.wu
        assert task.output is not None
        is_mr_map = wu.mr_kind == "map" and client.record.supports_mr
        if is_mr_map:
            store: PeerStore | None = client.peer_store
            if store is None:
                raise RuntimeError(
                    f"BOINC-MR client {client.name} has no peer store")
            for ref in task.output.files:
                store.serve(ref, job=wu.mr_job)
            client.tracer.record(client.sim.now, "peer.serving",
                                 host=client.name, wu=wu.id,
                                 files=len(task.output.files))
            if not self.config.upload_map_outputs:
                # Hash-only reporting: nothing moves to the server; the
                # digest travels with the scheduler report.
                return
        # Legacy map outputs, reduce outputs, and (optionally) MR map
        # outputs all go to the data server.
        yield from ServerUploadPolicy().handle(client, task)


class MapReduceInputFetcher:
    """Fetch task inputs: data server for maps, peers-then-server for reduces.

    The order of a reduce's peer holders comes from the client's
    ``fetch.NAME`` stream of *rngs*, made at the first draw: a volunteer
    that never orders two holders never builds it.
    """

    __slots__ = ("jobtracker", "directory", "config", "connectivity",
                 "relay", "relay_selector", "rngs", "peer_fetches",
                 "server_fallbacks")

    #: Maps read every input from the data server; the fetcher holds no
    #: state, so all instances share one.
    _server_fetch = ServerInputFetcher()

    def __init__(self, jobtracker: JobTracker, directory: ClientDirectory,
                 config: BoincMRConfig,
                 connectivity: ConnectivityPolicy,
                 rngs: RngRegistry,
                 relay: Host | None = None) -> None:
        """Input fetcher using *directory* for peer lookup, NAT-aware."""
        self.jobtracker = jobtracker
        self.directory = directory
        self.config = config
        self.connectivity = connectivity
        self.relay = relay
        #: Optional dynamic relay choice ``(downloader, uploader) -> relay``
        #: (e.g. a supernode overlay); falls back to the fixed ``relay``.
        self.relay_selector: _t.Callable[[Host, Host], Host] | None = None
        self.rngs = rngs
        #: Diagnostics: peer download successes / fallbacks to the server.
        self.peer_fetches = 0
        self.server_fallbacks = 0

    def fetch(self, client: Client, task: ClientTask) -> _t.Generator:
        """Download task inputs: server for maps, peers-then-server for reduces."""
        assignment = task.assignment
        wu = assignment.wu
        if wu.mr_kind != "reduce":
            yield from self._server_fetch.fetch(client, task)
            return
        spec = self.jobtracker.spec(wu.mr_job)
        procs = []
        for map_index in range(spec.n_maps):
            name = spec.map_output_file(map_index, wu.mr_index)
            holders = assignment.peer_locations.get(map_index, [])
            procs.append(client.sim.process(
                self._fetch_partition(client, name, holders),
                name=f"fetch:{client.name}:{name}"))
        # A churn kill of the reduce task must cascade: partition
        # fetches (and their nested peer downloads) may not keep
        # pulling bytes for a task that no longer exists.
        yield from join_transfers(client, procs, "reduce fetch cancelled")

    def _fetch_partition(self, client: Client, filename: str,
                         holders: _t.Sequence[str]) -> _t.Generator:
        """Try each holder (with retries), then fall back to the server."""
        sim = client.sim
        # Locality: a reducer that mapped this index already holds the
        # partition — read it from local disk, no transfer at all.
        own_store: PeerStore | None = client.peer_store
        if own_store is not None and own_store.available(filename):
            client.tracer.record(sim.now, "peer.local", host=client.name,
                                 file=filename)
            return None
        attempts = 0
        order = list(holders)
        if len(order) > 1:
            rng = self.rngs.stream(f"fetch.{client.name}")
            order = [order[i] for i in rng.permutation(len(order))]
        for address in order * PEER_RETRIES:
            if attempts >= PEER_RETRIES:
                break
            mapper = self.directory.resolve(address)
            if mapper is None or mapper is client:
                attempts += 1
                continue
            store: PeerStore | None = mapper.peer_store
            if store is None or not store.available(filename):
                attempts += 1
                client.tracer.record(sim.now, "peer.unavailable",
                                     host=client.name, frm=address,
                                     file=filename)
                continue
            relay = self.relay
            if self.relay_selector is not None:
                try:
                    relay = self.relay_selector(client.host, mapper.host)
                except Exception:  # noqa: BLE001 - overlay empty: keep default
                    relay = self.relay
            ref = store.get(filename)
            dl = sim.process(peer_download(
                sim, client.net, self.connectivity,
                src=mapper.endpoint, dst=client.endpoint,
                size=ref.size, relay=relay,
                label=f"mr:{filename}->{client.name}"),
                name=f"peerdl:{client.name}:{filename}")
            try:
                record = yield dl
            except TransferFailed as exc:
                attempts += 1
                client.tracer.record(sim.now, "peer.fetch_failed",
                                     host=client.name, frm=mapper.name,
                                     file=filename, reason=exc.reason,
                                     attempt=attempts)
                continue
            finally:
                if dl.alive:
                    dl.interrupt("partition fetch cancelled")
            if record.corrupted:
                # Byzantine serve: the payload fails checksum validation.
                # Evict the poisoned copy so no reducer tries it again,
                # and move on to the next holder (or the server).
                attempts += 1
                store.evict(filename)
                client.metrics.counter("peer.evictions_total").inc()
                client.tracer.record(sim.now, "peer.corrupt",
                                     host=client.name, frm=mapper.name,
                                     file=filename, attempt=attempts)
                continue
            self.peer_fetches += 1
            client.tracer.record(sim.now, "peer.fetched",
                                 host=client.name, frm=mapper.name,
                                 file=filename,
                                 duration=record.duration,
                                 method=record.method.value)
            return record
        # Fallback: download from the project data server (only possible
        # when map outputs were uploaded there).  With early reduce
        # creation (reduce_creation_fraction < 1) the file may simply not
        # exist *yet* — poll for it, overlapping this wait with the other
        # partitions' downloads (the §IV.C "intermediate downloads" idea).
        polls = 0
        while polls < FETCH_POLL_ATTEMPTS:
            if client.server.dataserver.has(filename):
                self.server_fallbacks += 1
                client.tracer.record(sim.now, "peer.fallback_server",
                                     host=client.name, file=filename,
                                     polls=polls)
                # Retry-with-backoff: survives data-server outages, slow
                # mode, and corrupt transfers (checksum re-download).
                yield from download_with_retry(client, filename)
                return None
            if self.config.reduce_creation_fraction >= 1.0:
                break  # nothing will ever appear; fail fast
            polls += 1
            yield FETCH_POLL_S
        raise TransferFailed(
            f"reduce input {filename} unavailable: no reachable peer and "
            "no server copy (upload_map_outputs is off)")
