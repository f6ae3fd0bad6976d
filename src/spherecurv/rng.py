"""Deterministic counter-based random streams.

The generator is SplitMix64 (Steele, Lea, Flood 2014): output i of a stream
with seed s is mix64(s + (i+1)*GOLDEN) where mix64 is the published finalizer.
Every draw is a pure function of (seed, counter), so two plain ints carry
all of a stream's state. The walkers (_below, _rational_walk and the
Box-Muller loop of draw_gaussians) take and return them as ints and run the
SplitMix64 step inline on the running state seed + counter GOLDEN. The
RngStream value API sits on top: drawing returns the drawn scalar together
with the advanced stream, and any stream can be split into an independent
child without touching the parent. All arithmetic is 64-bit wrapping integer
arithmetic, identical on every platform. `map_chunks` is the one sweep
driver: it hands item i of a sweep the int seed `_child_seed(seed, i)` of
child stream `RngStream(seed).split(i)`, at counter 0, so cutting the index
range into chunks for worker processes cannot change the results.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction

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
    process pool, or in this process when there is one chunk.
    """
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


def draw_int(stream: RngStream, lo: int, hi: int) -> tuple[int, RngStream]:
    """Uniform integer in [lo, hi], bias-free via rejection."""
    if lo > hi:
        raise ValueError(f"invalid int range [{lo}, {hi}]")
    value, counter = _below(stream.seed, stream.counter, hi - lo + 1)
    return lo + value, RngStream(stream.seed, counter)


def _rational_walk(seed: int, counter: int, height: int, n: int) -> tuple[list[tuple[int, int]], int]:
    """The (numerator, denominator) int pairs of n rationals of the given
    height, unreduced, with the counter of the last output used.

    Each pair draws its numerator as _below(2 height + 1) - height and then
    its denominator as _below(height) + 1. For ranges up to 2^64 the
    SplitMix64 step runs inline on the running state seed + counter GOLDEN;
    wider ranges go through _below. This is the one rational draw:
    draw_rationals is its Fraction view and the exact sweeps read the ints.
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
    state = (seed + counter * _GOLDEN) & _MASK64
    for _ in range(n):
        while True:
            counter += 1
            state = (state + _GOLDEN) & _MASK64
            z = ((state ^ (state >> 30)) * _MIX1) & _MASK64
            z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
            z ^= z >> 31
            if z < num_limit:
                break
        num = z % span - height
        while True:
            counter += 1
            state = (state + _GOLDEN) & _MASK64
            z = ((state ^ (state >> 30)) * _MIX1) & _MASK64
            z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
            z ^= z >> 31
            if z < den_limit:
                break
        pairs.append((num, z % height + 1))
    return pairs, counter


def draw_rationals(stream: RngStream, height: int, n: int) -> tuple[tuple[Fraction, ...], RngStream]:
    """n random reduced fractions, each with |numerator| <= height and
    1 <= denominator <= height, with the stream after the last.

    The Fraction view of _rational_walk: each value draws its numerator as
    draw_int(-height, height) and then its denominator as draw_int(1, height).
    The bound survives reduction, so the height contract is exact.
    """
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
    [0, 1) as its top 53 bits times 2^-53. The SplitMix64 step runs inline on
    the running state, and one stream is built at the end.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    seed, counter = stream.seed, stream.counter
    state = (seed + counter * _GOLDEN) & _MASK64
    vals = []
    for _ in range(n):
        state = (state + _GOLDEN) & _MASK64
        z = ((state ^ (state >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        u1 = ((z ^ (z >> 31)) >> 11) * (2.0**-53)
        state = (state + _GOLDEN) & _MASK64
        z = ((state ^ (state >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        u2 = ((z ^ (z >> 31)) >> 11) * (2.0**-53)
        # u1 == 0 would make log blow up; the lattice of 53-bit draws makes the
        # shifted value strictly positive.
        r = math.sqrt(-2.0 * math.log(1.0 - u1))
        vals.append(r * math.cos(2.0 * math.pi * u2))
    return tuple(vals), RngStream(seed, counter + 2 * n)


def draw_gaussian(stream: RngStream) -> tuple[float, RngStream]:
    """One standard normal: draw_gaussians with n = 1."""
    vals, stream = draw_gaussians(stream, 1)
    return vals[0], stream
