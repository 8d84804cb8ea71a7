"""BOINC-MR project configuration (the paper's ``mr_jobtracker.xml``).

One place for every MapReduce-specific policy knob a run varies: whether
reduce inputs come from peers, whether map outputs are additionally
uploaded to the server (enabling the n-retries-then-server fallback, at
the cost of the bandwidth the prototype was built to save), and when
reduce workunits are created.
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
    #: §IV.C "intermediate data downloads" ablation: create reduce
    #: workunits once this fraction of map WUs has validated (1.0 =
    #: paper behaviour, wait for every map).  Reducers then overlap their
    #: downloads with the tail of the map phase, polling the data server
    #: for partitions that are not ready yet.
    reduce_creation_fraction: float = 1.0

    @classmethod
    def vanilla_boinc(cls) -> "BoincMRConfig":
        """Original BOINC: every intermediate byte goes via the server."""
        return cls(upload_map_outputs=True, reduce_from_peers=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.reduce_creation_fraction <= 1.0:
            raise ValueError("reduce_creation_fraction must be in (0, 1]")
        if (self.reduce_creation_fraction < 1.0
                and not self.upload_map_outputs):
            # Early reduce WUs carry peer locations only for maps already
            # validated; late partitions can only be found on the server.
            raise ValueError(
                "reduce_creation_fraction < 1 requires upload_map_outputs "
                "(late map outputs are fetched by polling the data server)")
