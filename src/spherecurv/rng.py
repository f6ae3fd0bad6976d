"""Deterministic counter-based random streams.

The generator is SplitMix64 (Steele, Lea, Flood 2014): output i of a stream
with seed s is mix64(s + (i+1)*GOLDEN) where mix64 is the published finalizer.
Every draw is a pure function of (seed, counter), so two plain ints carry
all of a stream's state. The walkers (_below, _rational_walk and the
Box-Muller loop of draw_gaussians) take and return them as ints. _below,
which reads one output at a time, runs the SplitMix64 step inline on the
running state seed + counter GOLDEN; the walkers that read many take them a
block at a time from _outputs, which mixes up to _BLOCK states at once as
lanes of one int. The RngStream value API sits on top: drawing returns the
drawn scalar together with the advanced stream, and any stream can be split
into an independent child without touching the parent. All arithmetic is 64-bit wrapping integer
arithmetic, identical on every platform. `map_chunks` is the one sweep
driver: it hands item i of a sweep the int seed `_child_seed(seed, i)` of
child stream `RngStream(seed).split(i)`, at counter 0, so cutting the index
range into chunks for worker processes cannot change the results.
"""

from __future__ import annotations

import functools
import math
import os
import struct
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _mix64(z: int) -> int:
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


@dataclass(frozen=True)
class RngStream:
    """Immutable position in a SplitMix64 sequence.

    seed and counter are 64-bit; draws return (value, next_stream) and never
    mutate. Two streams with equal (seed, counter) produce identical futures.
    """

    seed: int
    counter: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "seed", self.seed & _MASK64)
        object.__setattr__(self, "counter", self.counter & _MASK64)

    def split(self, key: int) -> "RngStream":
        """Derive an independent child stream from an integer key."""
        return RngStream(_child_seed(self.seed, key))


def _child_seed(seed: int, key: int) -> int:
    """Seed of the child stream split from the stream `seed` under `key`;
    both are read modulo 2^64."""
    return _mix64(seed ^ _mix64(((key & _MASK64) + 1) * _GOLDEN))


def chunk_bounds(n: int, workers: int) -> list[tuple[int, int]]:
    """Contiguous [start, stop) chunks covering range(n), one per worker.

    The worker count is clamped to the items and the CPUs available.
    """
    workers = max(1, min(workers, n, os.cpu_count() or 1))
    return [(n * w // workers, n * (w + 1) // workers) for w in range(workers)]


def _map_chunk(fn, seed: int, start: int, stop: int, *args) -> list[tuple]:
    """The (i, result) pairs of map_chunks for i in [start, stop), each item
    handed the int seed of its child stream."""
    out = []
    for i in range(start, stop):
        result = fn(_child_seed(seed, i), *args)
        if result is not None:
            out.append((i, result))
    return out


def map_chunks(fn, n: int, workers: int, seed: int, *args) -> list[tuple]:
    """(i, fn(_child_seed(seed, i), *args)) for each i in range(n) whose
    result is not None, in index order: item i gets the seed of child stream
    RngStream(seed).split(i) as an int, and draws from it at counter 0.

    range(n) is cut into contiguous chunks by chunk_bounds; they run in a
    process pool, or in this process when there is one chunk. n, workers and
    seed must be plain ints (TypeError) and workers at least 1 (ValueError),
    checked before any item runs.
    """
    _require_int(n=n, workers=workers, seed=seed)
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    bounds = chunk_bounds(n, workers)
    if len(bounds) == 1:
        return _map_chunk(fn, seed, 0, n, *args)
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=len(bounds)) as pool:
        parts = [pool.submit(_map_chunk, fn, seed, start, stop, *args) for start, stop in bounds]
        return [pair for part in parts for pair in part.result()]


def _output(seed: int, counter: int) -> int:
    """Raw 64-bit output number `counter` (counting from 1) of the sequence `seed`."""
    return _mix64(seed + (counter * _GOLDEN & _MASK64))


# The most outputs one _outputs call mixes, so that one int never holds more
# than _BLOCK 128-bit lanes however many outputs a walk reads. Even, so that
# draw_gaussians finds both outputs of a normal in one block.
_BLOCK = 64


@functools.cache
def _lanes(m: int) -> tuple[int, int, int, Callable[[bytes], tuple[int, ...]]]:
    """(ones, ramp, mask, unpack) for m lanes of 128 bits: a 1, (i + 1)
    GOLDEN and 2^64 - 1 in lane i, and the reader of each lane's low 64 bits
    from m * 16 little-endian bytes. Built on first use of each m."""
    ones = sum(1 << 128 * i for i in range(m))
    ramp = sum((i + 1) * _GOLDEN << 128 * i for i in range(m))
    return ones, ramp, ones * _MASK64, struct.Struct("<" + "Q8x" * m).unpack


def _outputs(seed: int, counter: int, m: int) -> tuple[int, ...]:
    """Raw outputs counter + 1, ..., counter + m of the sequence `seed`, for
    0 <= m <= _BLOCK: _output of each, computed at once.

    Lane i of one int holds state i, seed + (counter + 1 + i) GOLDEN modulo
    2^64, in its low 64 bits; unreduced it is below 2^71, so one multiply and
    add fill the lanes and the mask reduces them. Each step of mix64 then
    runs once for all lanes. The lane mask clears the high half of every
    lane before each multiply by a 64-bit constant, so a product fits its
    128-bit lane, and before the shift after it, so no high bits move down;
    a right shift carries the next lane's low bits only into the high half.
    The low words are read back in little-endian order, the same on every
    host.
    """
    ones, ramp, mask, unpack = _lanes(m)
    z = (((seed + counter * _GOLDEN) & _MASK64) * ones + ramp) & mask
    z = ((z ^ z >> 30) & mask) * _MIX1 & mask
    z = ((z ^ z >> 27) & mask) * _MIX2 & mask
    return unpack((z ^ z >> 31).to_bytes(16 * m, "little"))


def _below(seed: int, counter: int, n: int) -> tuple[int, int]:
    """Uniform integer in [0, n), bias-free via rejection, with the counter of
    the accepted output.

    A candidate is the next `words` raw outputs read as one number, first
    output most significant: one up to n = 2^64, and ceil(bits(n) / 64)
    beyond, so that it spans at least n and at least half of its range is
    accepted. With one word the SplitMix64 step runs inline on the running
    state seed + counter GOLDEN.
    """
    if n > 1 << 64:
        words = -(-n.bit_length() // 64)
        span = 1 << (64 * words)
        limit = span - span % n
        while True:
            raw = 0
            for _ in range(words):
                counter += 1
                raw = raw << 64 | _output(seed, counter)
            if raw < limit:
                return raw % n, counter
    limit = (1 << 64) - (1 << 64) % n
    state = (seed + counter * _GOLDEN) & _MASK64
    while True:
        counter += 1
        state = (state + _GOLDEN) & _MASK64
        z = ((state ^ (state >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        z ^= z >> 31
        if z < limit:
            return z % n, counter


def _require_int(**values) -> None:
    """TypeError naming the first of values that is not a plain int: a float
    or a bool would pass the range checks and make the draws inexact."""
    for name, value in values.items():
        if type(value) is not int:
            raise TypeError(f"{name} must be an int, got {value!r}")


def draw_int(stream: RngStream, lo: int, hi: int) -> tuple[int, RngStream]:
    """Uniform integer in [lo, hi], bias-free via rejection."""
    _require_int(lo=lo, hi=hi)
    if lo > hi:
        raise ValueError(f"invalid int range [{lo}, {hi}]")
    value, counter = _below(stream.seed, stream.counter, hi - lo + 1)
    return lo + value, RngStream(stream.seed, counter)


def _rational_walk(seed: int, counter: int, height: int, n: int) -> tuple[list[tuple[int, int]], int]:
    """The (numerator, denominator) int pairs of n rationals of the given
    height, unreduced, with the counter of the last output used.

    Each pair draws its numerator as _below(2 height + 1) - height and then
    its denominator as _below(height) + 1. For ranges up to 2^64 the raw
    outputs come from _outputs, as many per block as the pairs still need
    when nothing more is rejected, so every output of a block is used: each
    is read in order against the same rejection limits as _below's, and a
    block that rejections use up is followed by the next. Wider ranges go
    through _below. This is the one rational draw: draw_rationals is its
    Fraction view and the exact sweeps read the ints.
    """
    if height < 1:
        raise ValueError(f"height must be >= 1, got {height}")
    span = 2 * height + 1
    pairs = []
    if span > 1 << 64:
        for _ in range(n):
            num, counter = _below(seed, counter, span)
            den, counter = _below(seed, counter, height)
            pairs.append((num - height, den + 1))
        return pairs, counter
    num_limit = (1 << 64) - (1 << 64) % span
    den_limit = (1 << 64) - (1 << 64) % height
    num = None  # the accepted numerator of a pair still without denominator
    while len(pairs) < n:
        m = min(2 * (n - len(pairs)) - (num is not None), _BLOCK)
        for z in _outputs(seed, counter, m):
            if num is None:
                if z < num_limit:
                    num = z % span - height
            elif z < den_limit:
                pairs.append((num, z % height + 1))
                num = None
        counter += m
    return pairs, counter


def draw_rationals(stream: RngStream, height: int, n: int) -> tuple[tuple[Fraction, ...], RngStream]:
    """n random reduced fractions, each with |numerator| <= height and
    1 <= denominator <= height, with the stream after the last.

    The Fraction view of _rational_walk: each value draws its numerator as
    draw_int(-height, height) and then its denominator as draw_int(1, height).
    The bound survives reduction, so the height contract is exact.
    """
    _require_int(height=height, n=n)
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    pairs, counter = _rational_walk(stream.seed, stream.counter, height, n)
    return tuple(Fraction(num, den) for num, den in pairs), RngStream(stream.seed, counter)


def draw_rational(stream: RngStream, height: int) -> tuple[Fraction, RngStream]:
    """One random reduced fraction of the given height: draw_rationals with n = 1."""
    vals, stream = draw_rationals(stream, height, 1)
    return vals[0], stream


def draw_gaussians(stream: RngStream, n: int) -> tuple[tuple[float, ...], RngStream]:
    """n standard normals via Box-Muller, with the stream after the last.

    Each value consumes two raw outputs, each turned into a uniform float in
    [0, 1) as its top 53 bits times 2^-53. The 2n outputs come from _outputs
    a block at a time, and one stream is built at the end.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    seed, counter = stream.seed, stream.counter
    vals = []
    for start in range(0, 2 * n, _BLOCK):
        outs = iter(_outputs(seed, counter + start, min(_BLOCK, 2 * n - start)))
        for z1, z2 in zip(outs, outs):
            # u1 == 0 would make log blow up; the lattice of 53-bit draws makes
            # the shifted value strictly positive.
            r = math.sqrt(-2.0 * math.log(1.0 - (z1 >> 11) * (2.0**-53)))
            vals.append(r * math.cos(2.0 * math.pi * ((z2 >> 11) * (2.0**-53))))
    return tuple(vals), RngStream(seed, counter + 2 * n)


def draw_gaussian(stream: RngStream) -> tuple[float, RngStream]:
    """One standard normal: draw_gaussians with n = 1."""
    vals, stream = draw_gaussians(stream, 1)
    return vals[0], stream
