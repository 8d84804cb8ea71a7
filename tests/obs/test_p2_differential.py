"""The histogram's bucket estimate against the exact quantile, over a few
thousand observations of four measured shapes.

The module keeps the name it had when these streams held the P² estimator
a histogram used to carry to its loop-based oracle; the oracle is now the
sorted stream, and the estimate must lie in the bucket of its exact
quantile, within the observed range.
"""

import random

import pytest

from repro.gateway.server import RPC_BUCKETS
from repro.obs import metrics

from .test_metrics import _assert_in_exact_bucket


@pytest.mark.parametrize("q", metrics.QUANTILES)
@pytest.mark.parametrize("draw", ["latency", "uniform", "bimodal", "steps"])
def test_a_few_thousand_observations_of_a_measured_shape(q, draw):
    # Four distributions a histogram of this repository really sees.
    rng = random.Random(f"{q}-{draw}")
    stream = {
        "latency": lambda: rng.lognormvariate(-6.0, 1.2),
        "uniform": lambda: rng.uniform(-50.0, 50.0),
        "bimodal": lambda: rng.gauss(1.0, 0.1) if rng.random() < 0.7
        else rng.gauss(40.0, 5.0),
        "steps": lambda: float(rng.randrange(6)),
    }[draw]
    buckets = RPC_BUCKETS if draw == "latency" else metrics.DEFAULT_BUCKETS
    _assert_in_exact_bucket(buckets, q, [stream() for _ in range(4000)])
