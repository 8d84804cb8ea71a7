"""BOINC-MR project configuration (the paper's ``mr_jobtracker.xml``).

One place for every MapReduce-specific policy knob: whether map outputs
are additionally uploaded to the server (enabling the n-retries-then-server
fallback, at the cost of the bandwidth the prototype was built to save),
how long mappers serve their outputs, and how reducers retry peer
downloads.
"""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass(slots=True)
class BoincMRConfig:
    """Project-wide BOINC-MR settings."""

    #: Reduce inputs are fetched from mapper peers when possible.
    reduce_from_peers: bool = True
    #: Map outputs are *also* uploaded to the data server.  Required for
    #: the server-fallback path and for serving non-MR clients; the paper
    #: calls this "not an ideal solution, but [it] guarantees that a job's
    #: execution will not be stopped due to transfer failures".
    upload_map_outputs: bool = False
    #: How long a mapper keeps its outputs available for peers before the
    #: serving timeout expires (Section III.C: "chosen according to the
    #: expected execution time of a map task"; the paper used a value
    #: "large enough to allow all inter-client transfers").
    serve_timeout_s: float = 4 * 3600.0
    #: Failed inter-client download attempts before falling back.
    peer_retries: int = 3
    #: Probability that any single inter-client transfer fails (injected).
    peer_failure_rate: float = 0.0
    #: §IV.C "intermediate data downloads" ablation: create reduce
    #: workunits once this fraction of map WUs has validated (1.0 =
    #: paper behaviour, wait for every map).  Reducers then overlap their
    #: downloads with the tail of the map phase, polling the data server
    #: for partitions that are not ready yet.
    reduce_creation_fraction: float = 1.0
    #: While waiting for a late map output, poll the server this often.
    fetch_poll_s: float = 30.0

    @classmethod
    def vanilla_boinc(cls) -> "BoincMRConfig":
        """Original BOINC: every intermediate byte goes via the server."""
        return cls(upload_map_outputs=True, reduce_from_peers=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.reduce_creation_fraction <= 1.0:
            raise ValueError("reduce_creation_fraction must be in (0, 1]")
        if self.fetch_poll_s <= 0:
            raise ValueError("fetch_poll_s must be positive")
        if (self.reduce_creation_fraction < 1.0
                and not self.upload_map_outputs):
            # Early reduce WUs carry peer locations only for maps already
            # validated; late partitions can only be found on the server.
            raise ValueError(
                "reduce_creation_fraction < 1 requires upload_map_outputs "
                "(late map outputs are fetched by polling the data server)")
        if self.peer_retries < 0:
            raise ValueError("peer_retries must be >= 0")
        if not 0.0 <= self.peer_failure_rate <= 1.0:
            raise ValueError("peer_failure_rate must be in [0, 1]")
        if self.serve_timeout_s <= 0:
            raise ValueError("serve_timeout_s must be positive")
