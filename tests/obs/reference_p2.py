"""Test oracle: the P² streaming quantile estimator ``repro.obs.metrics``
shipped through PR 23, kept verbatim.

``observe`` finds the cell of the new observation with a generator,
shifts the marker positions and the desired positions in ``range`` loops
and calls ``_parabolic`` / ``_linear`` per adjusted marker.  The product's
``_P2Estimator.observe`` is the same arithmetic written out marker by
marker (3.9 -> 1.8 us a call; three calls per ``Histogram.observe``), and
must leave ``float.hex``-equal ``_heights``, ``_positions`` and
``_desired`` after every observation (``test_p2_differential.py``).
"""

from __future__ import annotations

import math


class _P2Estimator:
    """Jain & Chlamtac's P² streaming quantile estimator (constant memory)."""

    __slots__ = ("q", "_heights", "_positions", "_desired", "_increments", "n")

    def __init__(self, q: float) -> None:
        if not 0.0 < q < 1.0:
            raise ValueError(f"quantile must be in (0, 1), got {q}")
        self.q = q
        self._heights: list[float] = []
        self._positions = [1.0, 2.0, 3.0, 4.0, 5.0]
        self._desired = [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0]
        self._increments = [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0]
        self.n = 0

    def observe(self, x: float) -> None:
        self.n += 1
        if len(self._heights) < 5:
            self._heights.append(x)
            self._heights.sort()
            return
        h = self._heights
        if x < h[0]:
            h[0] = x
            k = 0
        elif x >= h[4]:
            h[4] = x
            k = 3
        else:
            k = next(i for i in range(4) if h[i] <= x < h[i + 1])
        for i in range(k + 1, 5):
            self._positions[i] += 1.0
        for i in range(5):
            self._desired[i] += self._increments[i]
        # Adjust the three interior markers toward their desired positions.
        for i in (1, 2, 3):
            d = self._desired[i] - self._positions[i]
            pos, prev, nxt = (self._positions[i], self._positions[i - 1],
                              self._positions[i + 1])
            if (d >= 1.0 and nxt - pos > 1.0) or (d <= -1.0 and prev - pos < -1.0):
                step = 1.0 if d >= 1.0 else -1.0
                candidate = self._parabolic(i, step)
                if h[i - 1] < candidate < h[i + 1]:
                    h[i] = candidate
                else:  # parabolic estimate escaped; fall back to linear
                    h[i] = self._linear(i, step)
                self._positions[i] += step

    def _parabolic(self, i: int, d: float) -> float:
        h, p = self._heights, self._positions
        return h[i] + d / (p[i + 1] - p[i - 1]) * (
            (p[i] - p[i - 1] + d) * (h[i + 1] - h[i]) / (p[i + 1] - p[i])
            + (p[i + 1] - p[i] - d) * (h[i] - h[i - 1]) / (p[i] - p[i - 1])
        )

    def _linear(self, i: int, d: float) -> float:
        h, p = self._heights, self._positions
        j = i + int(d)
        return h[i] + d * (h[j] - h[i]) / (p[j] - p[i])

    def estimate(self) -> float:
        if not self._heights:
            return math.nan
        if self.n < 5:
            # Exact small-sample quantile over the sorted buffer.
            idx = min(len(self._heights) - 1,
                      int(self.q * (len(self._heights) - 1) + 0.5))
            return self._heights[idx]
        return self._heights[2]
