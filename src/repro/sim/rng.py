"""Deterministic named random streams.

Simulation components never share a single RNG: each draws from its own
named stream so that adding a component (or reordering calls inside one)
does not perturb the randomness seen by the others.  Streams are derived
from the root seed by name, so ``RngRegistry(42).stream("client.3")`` is
identical across runs and across machines.

A stream is a :class:`RandomStream`: numpy's ``SeedSequence`` mixing and
``PCG64`` generator, and exactly the draws the model makes, in pure
Python.  Every draw but two returns the value, and leaves the state, that
``numpy.random.default_rng(SeedSequence(seed, spawn_key=(crc32(name),)))``
would (``tests/sim/test_rng.py`` checks this against numpy).  The two are
``exponential`` and ``lognormal``: each inverts the distribution's CDF at
one 64-bit output, where numpy runs a table-driven rejection sampler; the
model is the distribution, not numpy's sampling algorithm.  So a simulated run imports
no numpy, and its traces depend on this module, not on the algorithms of
whichever numpy is installed.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import sys
import typing as _t
import zlib

_MASK32 = 0xFFFFFFFF
_MASK53 = (1 << 53) - 1
_MASK64 = 0xFFFFFFFFFFFFFFFF
_MASK128 = (1 << 128) - 1
#: PCG64's 128-bit LCG multiplier (``PCG_DEFAULT_MULTIPLIER_128``).
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
#: A 53-bit integer times this is a double in [0, 1).
_TWO_M53 = 1.0 / 9007199254740992.0
#: A 52-bit integer plus one half, times this, is a double in (0, 1).
_TWO_M52 = 2.0 ** -52
#: numpy's ``choice(p=...)`` tolerance on the weights' sum.
_P_SUM_ATOL = math.sqrt(sys.float_info.epsilon)

# SeedSequence's hash constants (numpy/random/bit_generator.pyx).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_POOL_SIZE = 4


def _uint32_words(n: int) -> list[int]:
    """*n* as little-endian 32-bit words (``_int_to_uint32_array``)."""
    if n < 0:
        raise ValueError(f"expected a non-negative integer, got {n}")
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def _mix_into(pool: list[int], dst: int, value: int, hash_const: int) -> int:
    """``pool[dst] = mix(pool[dst], hashmix(value))``, SeedSequence's one
    mixing step; returns the hash constant it advanced to."""
    value ^= hash_const
    hash_const = (hash_const * _MULT_A) & _MASK32
    value = (value * hash_const) & _MASK32
    value ^= value >> 16
    result = (_MIX_MULT_L * pool[dst] - _MIX_MULT_R * value) & _MASK32
    pool[dst] = result ^ (result >> 16)
    return hash_const


@functools.lru_cache(maxsize=8)
def _seed_pool(entropy: int) -> tuple[tuple[int, ...], int]:
    """SeedSequence's pool with the run entropy *entropy* mixed in, and its
    hash constant: all that the streams of one seed share, since the
    spawn key is mixed in last."""
    words = _uint32_words(entropy)
    # A spawned sequence pads its run entropy to the pool size (numpy 1.19+).
    words += [0] * (_POOL_SIZE - len(words))
    hash_const = _INIT_A
    pool = []
    for value in words[:_POOL_SIZE]:
        value ^= hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = (value * hash_const) & _MASK32
        pool.append(value ^ (value >> 16))
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                hash_const = _mix_into(pool, dst, pool[src], hash_const)
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            hash_const = _mix_into(pool, dst, word, hash_const)
    return tuple(pool), hash_const


def _pcg64_seed(entropy: int, key: int) -> tuple[int, int]:
    """PCG64's ``(state, inc)`` seeded from ``SeedSequence(entropy,
    spawn_key=(key,))``, as ``numpy.random.PCG64`` seeds itself."""
    shared, hash_const = _seed_pool(entropy)
    pool = list(shared)
    for word in _uint32_words(key):
        for dst in range(_POOL_SIZE):
            hash_const = _mix_into(pool, dst, word, hash_const)

    # generate_state(4, uint64): eight 32-bit words cycling the pool,
    # paired little-endian into four 64-bit ones.
    hash_const = _INIT_B
    words = []
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = (value * hash_const) & _MASK32
        words.append(value ^ (value >> 16))
    seed = [words[i] | (words[i + 1] << 32) for i in range(0, 8, 2)]

    # pcg64_set_seed then pcg_setseq_128_srandom_r: step from zero, add
    # the initial state, step again.
    inc = ((((seed[2] << 64) | seed[3]) << 1) | 1) & _MASK128
    state = (inc + ((seed[0] << 64) | seed[1])) & _MASK128
    return (state * _PCG_MULT + inc) & _MASK128, inc


class RandomStream:
    """One named stream: numpy's PCG64 and the draws the model makes.

    Every draw but :meth:`exponential` and :meth:`lognormal` is
    bit-identical to the same call on a ``numpy.random.Generator`` over
    the same PCG64 state, and leaves the same state (:attr:`state`).
    Those two invert their CDF at one 64-bit output each, so they leave
    the state one ``random()`` would.  A draw not defined here raises
    ``AttributeError``, and a form of :meth:`choice` not defined here
    raises ``NotImplementedError``: no draw falls back to numpy.
    """

    __slots__ = ("_state", "_inc", "_has32", "_u32")

    def __init__(self, seed: int, name: str) -> None:
        """The stream numpy derives from ``SeedSequence(seed,
        spawn_key=(crc32(name),))``."""
        self._state, self._inc = _pcg64_seed(
            seed, zlib.crc32(name.encode("utf-8")))
        #: PCG64's buffered upper half of a 64-bit output, for 32-bit draws.
        self._has32 = 0
        self._u32 = 0

    @property
    def state(self) -> tuple[int, int, int, int]:
        """``(state, inc, has_uint32, uinteger)``, as numpy's
        ``bit_generator.state`` names them."""
        return self._state, self._inc, self._has32, self._u32

    def _next64(self) -> int:
        # One LCG step, then the XSL-RR output of the new state: (high ^
        # low) rotated right by the top six bits.  Bits 0..127 of
        # s ^ s >> 64 ^ s << 64 are (high ^ low) twice over, so a shift
        # and a mask rotate it.
        s = self._state = (self._state * _PCG_MULT + self._inc) & _MASK128
        return ((s ^ s >> 64 ^ s << 64) >> (s >> 122)) & _MASK64

    def _next32(self) -> int:
        if self._has32:
            self._has32 = 0
            return self._u32
        x = self._next64()
        self._has32 = 1
        self._u32 = x >> 32
        return x & _MASK32

    def random(self) -> float:
        """A double in [0, 1) from the top 53 bits of one 64-bit output."""
        # _next64 inlined: the model's most frequent draw.
        s = self._state = (self._state * _PCG_MULT + self._inc) & _MASK128
        return (((s ^ s >> 64 ^ s << 64) >> (s >> 122) + 11)
                & _MASK53) * _TWO_M53

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        """A double in [*low*, *high*): ``low + (high - low) * random()``."""
        low, high = float(low), float(high)
        span = high - low
        if span < 0:
            raise ValueError("high - low < 0")
        if not math.isfinite(span):
            raise OverflowError("Range exceeds valid bounds")
        return low + span * self.random()

    def permutation(self, n: int) -> list[int]:
        """``range(n)`` shuffled as numpy shuffles: Fisher-Yates from the
        top, each index drawn by masked rejection on 32-bit outputs."""
        out = list(range(n))
        # random_interval(i), inlined with the 32-bit buffer in locals: a
        # permutation is drawn once per reduce's peer order.
        state, inc, has32, u32 = self._state, self._inc, self._has32, self._u32
        for i in range(n - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            while True:
                if has32:
                    has32 = 0
                    j = u32 & mask
                else:
                    s = state = (state * _PCG_MULT + inc) & _MASK128
                    x = ((s ^ s >> 64 ^ s << 64) >> (s >> 122)) & _MASK64
                    has32 = 1
                    u32 = x >> 32
                    j = x & mask
                if j <= i:
                    break
            out[i], out[j] = out[j], out[i]
        self._state, self._has32, self._u32 = state, has32, u32
        return out

    def choice(self, a: int, size: int | None = None, replace: bool = True,
               p: _t.Sequence[float] | None = None) -> _t.Any:
        """Indices drawn from ``range(a)``, in numpy's two forms the model uses.

        - ``choice(a, size=k, replace=False)``: *k* distinct indices, by
          Floyd's algorithm then a shuffle, or, for a large population
          and sample, by shuffling the tail of ``range(a)``;
        - ``choice(a, size=None|k, p=weights)``: one index (an ``int``)
          or *k* of them, each the ``bisect_right`` of a :meth:`random`
          draw in the weights' normalised cumulative sum.
        """
        if not isinstance(a, int):
            raise NotImplementedError("choice draws from range(a) only")
        if p is not None and replace:
            return self._choice_weighted(a, size, p)
        if p is None and not replace and size is not None:
            return self._choice_distinct(a, size)
        raise NotImplementedError(
            "choice implements replace=False with a size, or p=weights")

    def _choice_weighted(self, a: int, size: int | None,
                         p: _t.Sequence[float]) -> int | list[int]:
        weights = [float(w) for w in p]
        if len(weights) != a:
            raise ValueError("a and p must have same size")
        if any(not w >= 0 for w in weights):
            raise ValueError("Probabilities are not non-negative")
        if abs(math.fsum(weights) - 1.0) > _P_SUM_ATOL:
            raise ValueError("Probabilities do not sum to 1")
        cdf = list(itertools.accumulate(weights))
        last = cdf[-1]
        cdf = [c / last for c in cdf]
        if size is None:
            return bisect.bisect_right(cdf, self.random())
        return [bisect.bisect_right(cdf, self.random()) for _ in range(size)]

    def _choice_distinct(self, a: int, size: int) -> list[int]:
        if not 0 <= size <= a:
            raise ValueError(
                f"cannot take {size} distinct samples from a population of {a}")
        if a > _MASK32:
            raise NotImplementedError("populations above 2**32 - 1")
        if a > 10_000 and size > a // 50:
            # Tail shuffle: the last *size* slots of a partial shuffle.
            out = list(range(a))
            self._shuffle_from(out, max(a - size, 1))
            return out[a - size:]
        # Floyd's algorithm, then a shuffle of what it picked.
        out = []
        picked = set()
        for j in range(a - size, a):
            value = self._bounded(j)
            if value in picked:
                value = j
            picked.add(value)
            out.append(value)
        self._shuffle_from(out, 1)
        return out

    def _shuffle_from(self, data: list[int], first: int) -> None:
        """Swap ``data[i]`` with ``data[bounded(i)]`` for i from the top
        down to *first* (numpy's ``_shuffle_int``)."""
        for i in range(len(data) - 1, first - 1, -1):
            j = self._bounded(i)
            data[i], data[j] = data[j], data[i]

    def _bounded(self, high: int) -> int:
        """A uniform integer in [0, *high*], *high* < 2**32, by Lemire's
        multiply-shift rejection on 32-bit outputs."""
        if high == 0:
            return 0
        if high == _MASK32:
            return self._next32()
        span = high + 1
        m = self._next32() * span
        if m & _MASK32 < span:
            threshold = (_MASK32 - high) % span
            while m & _MASK32 < threshold:
                m = self._next32() * span
        return m >> 32

    def exponential(self, scale: float = 1.0) -> float:
        """*scale* times a standard exponential, drawn by inversion.

        ``-scale * log1p(-u)``, *u* the double :meth:`random` would draw.
        """
        if scale < 0:
            raise ValueError("scale < 0")
        u = (self._next64() >> 11) * _TWO_M53
        return -scale * math.log1p(-u)

    def lognormal(self, sigma: float = 1.0) -> float:
        """``exp(sigma * N)``, N a standard normal drawn by inversion.

        ``N = NormalDist().inv_cdf(u)``, *u* one 64-bit output's top 52
        bits offset by half a step: strictly inside (0, 1), where
        ``inv_cdf`` is defined, for every output (53 bits would round to
        1.0 at the top one).
        """
        if sigma < 0:
            raise ValueError("sigma < 0")
        # Imported here, not with the module: only the planetlab study
        # draws a lognormal, and statistics costs a simulated run ~5 ms.
        from statistics import NormalDist
        u = ((self._next64() >> 12) + 0.5) * _TWO_M52
        return math.exp(sigma * NormalDist().inv_cdf(u))


class RngRegistry:
    """Factory for reproducible, independent named random streams."""

    def __init__(self, seed: int = 0) -> None:
        """Root the registry at *seed*; streams derive from it by name."""
        if not isinstance(seed, int):
            raise TypeError(f"seed must be an int, got {type(seed).__name__}")
        self.seed = seed
        self._streams: dict[str, RandomStream] = {}

    def stream(self, name: str) -> RandomStream:
        """Return the stream for *name*, creating it on first use.

        Repeated calls with the same name return the *same* stream
        object, so state advances across calls — but the stream's initial
        state depends only on ``(seed, name)``.
        """
        gen = self._streams.get(name)
        if gen is None:
            gen = self._streams[name] = RandomStream(self.seed, name)
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
    # rng.uniform(-j, j) by hand, from one rng.random(): the formula
    # RandomStream.uniform, numpy.random.Generator.uniform and
    # random.Random.uniform all compute, so the value and the stream state
    # are bit-identical, without uniform's call and float conversions.
    lo = -rel_jitter
    return base * (1.0 + (lo + (rel_jitter - lo) * rng.random()))


def backoff_delay(rng, lo: float, hi: float, n: int, jitter: float) -> float:
    """Wait after the *n*-th consecutive failure (``n >= 1``): *lo* doubled
    per failure, capped at *hi*, then :func:`jittered` by *jitter*.

    The one backoff formula: the simulated client's no-work, lost-contact
    and transfer-retry deferrals and the live clients' 503 retries all call
    it.  *rng* needs only ``random()`` (a :class:`RandomStream` or
    ``random.Random``); a call draws from it at most once.
    """
    return jittered(rng, min(hi, lo * (2.0 ** (n - 1))), jitter)
