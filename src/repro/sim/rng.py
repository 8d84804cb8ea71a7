"""Deterministic named random streams.

Simulation components never share a single RNG: each draws from its own
named stream so that adding a component (or reordering calls inside one)
does not perturb the randomness seen by the others.  Streams are derived
from the root seed with :class:`numpy.random.SeedSequence` spawning keyed
by the stream name, so ``RngRegistry(42).stream("client.3")`` is identical
across runs and across machines.
"""

from __future__ import annotations

import zlib

import numpy as np


class RngRegistry:
    """Factory for reproducible, independent named random streams."""

    def __init__(self, seed: int = 0) -> None:
        """Root the registry at *seed*; streams derive from it by name."""
        if not isinstance(seed, int):
            raise TypeError(f"seed must be an int, got {type(seed).__name__}")
        self.seed = seed
        self._streams: dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for *name*, creating it on first use.

        Repeated calls with the same name return the *same* generator
        object, so state advances across calls — but the stream's initial
        state depends only on ``(seed, name)``.
        """
        gen = self._streams.get(name)
        if gen is None:
            # Key the child seed by a stable hash of the name so stream
            # creation order is irrelevant.
            key = zlib.crc32(name.encode("utf-8"))
            seq = np.random.SeedSequence(entropy=self.seed, spawn_key=(key,))
            gen = np.random.default_rng(seq)
            self._streams[name] = gen
        return gen


def jittered(rng, base: float, rel_jitter: float) -> float:
    """*base* multiplied by a uniform factor in ``[1-rel_jitter, 1+rel_jitter]``.

    The standard way model code perturbs deterministic costs (compute times,
    poll periods) without changing their mean.
    """
    if rel_jitter < 0 or rel_jitter >= 1:
        raise ValueError(f"rel_jitter must be in [0, 1), got {rel_jitter}")
    if rel_jitter == 0:
        return base
    return base * (1.0 + rng.uniform(-rel_jitter, rel_jitter))


def backoff_delay(rng, lo: float, hi: float, n: int, jitter: float) -> float:
    """Wait after the *n*-th consecutive failure (``n >= 1``): *lo* doubled
    per failure, capped at *hi*, then :func:`jittered` by *jitter*.

    The one backoff formula: the simulated client's no-work, lost-contact
    and transfer-retry deferrals and the live clients' 503 retries all call
    it.  *rng* needs only ``uniform(a, b)`` (``numpy.random.Generator`` or
    ``random.Random``); a call draws from it at most once.
    """
    return jittered(rng, min(hi, lo * (2.0 ** (n - 1))), jitter)
