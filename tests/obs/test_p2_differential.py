"""The product's P² estimator against the loop-based one it replaced.

``reference_p2._P2Estimator`` is the parent's class verbatim; the product
does the same float operations in the same order without the generator
and the ``range`` loops, so every marker must agree to the last bit after
every observation, not only at the end.
"""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.obs.metrics import QUANTILES, Histogram, _P2Estimator

from . import reference_p2

#: Finite and far from overflow: the difference of two heights times a
#: marker position must stay finite, as it does for anything measured.
VALUES = st.one_of(
    st.floats(-1e150, 1e150, allow_nan=False),
    st.floats(-1.0, 1.0, allow_nan=False),
    st.sampled_from([0.0, -0.0, 1.0, 1.0, 2.5, 5e-324, -5e-324, 1e-300,
                     1e150, -1e150]),
    st.integers(-3, 3).map(float),
)
#: Runs of one value, so that heights tie and markers cannot move.
STREAMS = st.lists(
    st.tuples(VALUES, st.integers(1, 40)), min_size=1, max_size=120,
).map(lambda runs: [x for x, n in runs for _ in range(n)])


def _state(est):
    return ([x.hex() for x in est._heights],
            [x.hex() for x in est._positions],
            [x.hex() for x in est._desired],
            est.n, est.estimate().hex())


def _assert_in_step(q, stream):
    product, reference = _P2Estimator(q), reference_p2._P2Estimator(q)
    assert _state(product) == _state(reference)
    for k, x in enumerate(stream):
        product.observe(x)
        reference.observe(x)
        assert _state(product) == _state(reference), (k, x)


@settings(deadline=None)
@given(st.floats(0.01, 0.99), STREAMS)
@example(0.5, [float(i % 7) for i in range(60)])
@example(0.99, [0.0, -0.0] * 20)
@example(0.01, [1e150, -1e150, 5e-324, 0.0, 1.0] * 8)
def test_every_marker_agrees_after_every_observation(q, stream):
    _assert_in_step(q, stream)


@pytest.mark.parametrize("q", QUANTILES)
@pytest.mark.parametrize("draw", ["latency", "uniform", "bimodal", "steps"])
def test_a_few_thousand_observations_of_a_measured_shape(q, draw):
    # Four distributions a histogram of this repository really sees; the
    # linear fallback and both step directions all occur in each.
    import random
    rng = random.Random(f"{q}-{draw}")
    stream = {
        "latency": lambda: rng.lognormvariate(-9.0, 0.6),
        "uniform": lambda: rng.uniform(-50.0, 50.0),
        "bimodal": lambda: rng.gauss(1.0, 0.1) if rng.random() < 0.7
        else rng.gauss(40.0, 5.0),
        "steps": lambda: float(rng.randrange(6)),
    }[draw]
    _assert_in_step(q, [stream() for _ in range(4000)])


def test_histogram_quantiles_are_the_reference_estimates():
    histogram = Histogram("h")
    references = {q: reference_p2._P2Estimator(q) for q in QUANTILES}
    for i in range(500):
        x = math.sin(i) * 10.0 + i % 13
        histogram.observe(x)
        for est in references.values():
            est.observe(x)
    assert {q: v.hex() for q, v in histogram.quantiles().items()} == {
        q: est.estimate().hex() for q, est in references.items()}
