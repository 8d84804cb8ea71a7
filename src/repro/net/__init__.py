"""Network substrate: flow-level bandwidth sharing, hosts, NAT traversal.

Public surface:

- :class:`Network`, :class:`Host`, :class:`LinkSpec` (+ canned profiles
  ``EMULAB_LINK``, ``ADSL_LINK``, ``CABLE_LINK``, ``SERVER_LINK``);
- :class:`FlowNetwork`, :class:`Flow`, :class:`Link`, :func:`maxmin_rates`,
  and the :class:`IncrementalAllocator` every :class:`FlowNetwork` runs;
- NAT models: :class:`NatBox`, :class:`NatType`, :class:`ConnectivityPolicy`,
  :class:`TraversalConfig`, :func:`sample_nat_population`;
- transfer machinery: :class:`TransferEndpoint`, :func:`peer_download`,
  :class:`SimSemaphore`.
"""

from .flows import (
    Flow,
    FlowError,
    FlowNetwork,
    IncrementalAllocator,
    Link,
    maxmin_rates,
)
from .nat import (
    DEFAULT_PUNCH_SUCCESS,
    PUBLIC,
    ConnectivityPolicy,
    NatBox,
    NatType,
    TraversalConfig,
    TraversalMethod,
    TraversalOutcome,
    sample_nat_population,
)
from .supernode import (
    NoSupernodeAvailable,
    SupernodeOverlay,
    SupernodeScore,
    elect_supernodes,
)
from .topology import (
    ADSL_LINK,
    CABLE_LINK,
    EMULAB_LINK,
    SERVER_LINK,
    Host,
    HostOffline,
    LinkSpec,
    Network,
    NetworkPartitioned,
)
from .transfer import (
    SimSemaphore,
    TransferEndpoint,
    TransferFailed,
    TransferRecord,
    peer_download,
)

__all__ = [
    "Flow",
    "FlowError",
    "FlowNetwork",
    "Link",
    "maxmin_rates",
    "IncrementalAllocator",
    "Network",
    "Host",
    "HostOffline",
    "NetworkPartitioned",
    "LinkSpec",
    "EMULAB_LINK",
    "ADSL_LINK",
    "CABLE_LINK",
    "SERVER_LINK",
    "NatBox",
    "NatType",
    "PUBLIC",
    "ConnectivityPolicy",
    "TraversalConfig",
    "TraversalMethod",
    "TraversalOutcome",
    "DEFAULT_PUNCH_SUCCESS",
    "sample_nat_population",
    "SupernodeOverlay",
    "SupernodeScore",
    "NoSupernodeAvailable",
    "elect_supernodes",
    "SimSemaphore",
    "TransferEndpoint",
    "TransferFailed",
    "TransferRecord",
    "peer_download",
]
