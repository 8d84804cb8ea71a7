"""``RandomStream`` against numpy, its oracle.

Every draw the model makes, on any seed and name, must return what
``numpy.random.Generator`` returns on the same ``SeedSequence`` and leave
the same PCG64 state ``(state, inc, has_uint32, uinteger)``: the traces,
the golden digests and every ``sim.trace_sha256`` rest on it.  The two
exceptions, ``exponential`` and ``lognormal``, invert their CDF at one
64-bit output each; their oracle is that formula at numpy's ``random()``,
which consumes the same output.
"""

import math
import zlib
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import RandomStream


def reference(seed, name):
    """The numpy generator a stream named *name* under *seed* mirrors."""
    key = zlib.crc32(name.encode("utf-8"))
    return np.random.default_rng(np.random.SeedSequence(seed,
                                                        spawn_key=(key,)))


def numpy_state(gen):
    state = gen.bit_generator.state
    return (state["state"]["state"], state["state"]["inc"],
            state["has_uint32"], state["uinteger"])


def exponential(ref, scale):
    """The stream's exponential, by inversion at ``ref.random()``."""
    return -scale * math.log1p(-ref.random())


def lognormal(ref, sigma):
    """The stream's lognormal, by inversion at the top 52 bits of the
    output behind ``ref.random()``, offset by half a step."""
    u = ((int(ref.random() * 2**53) >> 1) + 0.5) * 2**-52
    return math.exp(sigma * NormalDist().inv_cdf(u))


#: The draws whose oracle is a formula at numpy's ``random()``.
INVERSIONS = {"exponential": exponential, "lognormal": lognormal}


def draw(rng, op, args):
    """Make draw *op* on *rng* (a stream or a numpy generator); plain
    Python values either way."""
    if op in INVERSIONS and not isinstance(rng, RandomStream):
        value = INVERSIONS[op](rng, *args)
    elif op == "distinct":
        n, size = args
        value = rng.choice(n, size=size, replace=False)
    elif op == "weighted":
        weights, size = args
        value = rng.choice(len(weights), size=size, p=weights)
    else:
        value = getattr(rng, op)(*args)
    return np.asarray(value).tolist()


def _weights(raw):
    total = sum(raw)
    return [w / total for w in raw]


finite = st.floats(-1e6, 1e6, allow_nan=False)
DRAWS = st.one_of(
    st.tuples(st.just("random"), st.just(())),
    st.tuples(st.just("uniform"), st.tuples(finite, finite).map(sorted)),
    st.tuples(st.just("permutation"), st.tuples(st.integers(0, 70))),
    st.tuples(st.just("distinct"), st.integers(0, 400).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(0, n)))),
    st.tuples(st.just("weighted"), st.tuples(
        st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=8).map(_weights),
        st.one_of(st.none(), st.integers(0, 12)))),
    st.tuples(st.just("exponential"), st.tuples(st.floats(0.0, 1e4))),
    st.tuples(st.just("lognormal"), st.tuples(st.floats(0.0, 3.0))),
)
SEEDS = st.one_of(st.just(0), st.integers(0, 2**31 - 1),
                  st.integers(2**64, 2**100))


@settings(max_examples=150, deadline=None)
@given(seed=SEEDS, name=st.text(max_size=12),
       draws=st.lists(DRAWS, max_size=20))
def test_every_draw_and_end_state_equal_numpys(seed, name, draws):
    mine, ref = RandomStream(seed, name), reference(seed, name)
    assert mine.state == numpy_state(ref)
    for op, args in draws:
        assert draw(mine, op, args) == draw(ref, op, args), (op, args)
        assert mine.state == numpy_state(ref), (op, args)


class FixedStream(RandomStream):
    """A stream whose every 64-bit output is *output*."""

    __slots__ = ("output",)

    def __init__(self, output):
        super().__init__(0, "fixed")
        self.output = output

    def _next64(self):
        return self.output


@pytest.mark.parametrize("output, expo, logn", [
    (0, 0.0, 2.72047e-4),
    # A 53-bit u would round to 1.0 here, where inv_cdf raises.
    (2**64 - 1, 53 * math.log(2), 3675.84),
])
def test_the_extreme_outputs_give_finite_draws(output, expo, logn):
    stream = FixedStream(output)
    assert stream.exponential(1.0) == pytest.approx(expo, rel=1e-12)
    assert stream.lognormal(1.0) == pytest.approx(logn, rel=1e-5)


@pytest.mark.parametrize("n, size", [
    (10_000, 10_000),  # Floyd: the population is not above 10,000
    (10_001, 200),     # Floyd: the sample is not above population // 50
    (10_001, 201),     # tail shuffle
    (50_000, 50_000),  # tail shuffle of the whole population
    (0, 0),
])
def test_both_distinct_choice_branches(n, size):
    mine, ref = RandomStream(3, "pick"), reference(3, "pick")
    mine.random(), ref.random()
    for _ in range(2):
        assert (mine.choice(n, size=size, replace=False)
                == ref.choice(n, size=size, replace=False).tolist())
        assert mine.state == numpy_state(ref)


def test_a_draw_the_model_does_not_make_raises():
    stream = RandomStream(0, "x")
    with pytest.raises(NotImplementedError):
        stream.choice(5)  # with replacement, unweighted
    with pytest.raises(NotImplementedError):
        stream.choice(2, size=1, replace=False, p=[0.5, 0.5])
    with pytest.raises(NotImplementedError):
        stream.choice([1, 2, 3], size=1, replace=False)
    with pytest.raises(AttributeError):
        stream.integers(0, 10)
    with pytest.raises(ValueError):
        stream.choice(3, p=[0.5, 0.5])
    with pytest.raises(ValueError):
        stream.choice(2, p=[0.7, 0.7])
    with pytest.raises(ValueError):
        stream.choice(3, size=4, replace=False)
    assert stream.state == numpy_state(reference(0, "x"))
