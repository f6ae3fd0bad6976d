"""Deterministic counter-based random streams.

The generator is SplitMix64 (Steele, Lea, Flood 2014): output i of a stream
with seed s is mix64(s + (i+1)*GOLDEN) where mix64 is the published finalizer.
Every draw is a pure function of (seed, counter), so two plain ints carry
all of a stream's state. There is one walk of bounded draws, _walk(seed,
counter, ranges): it takes its raw outputs a block at a time from _outputs,
which mixes up to _BLOCK states at once as lanes of one int, and returns
one value below each range with the final counter. draw_int walks one
range, _rational_walk reads rationals from it, and the exact sweeps walk
it directly; _gaussians, the core of draw_gaussians, reads _outputs itself.
The RngStream value API sits on top: drawing returns the drawn scalar
together with the advanced stream, and any stream can be split into an
independent child without touching the parent. All arithmetic is 64-bit
wrapping integer arithmetic, identical on every platform. `map_chunks` is
the one sweep driver: it hands item i of a sweep the int seed
`_child_seed(seed, i)` of child stream `RngStream(seed).split(i)`, at
counter 0, computed a block of items at a time by _child_seeds, so cutting
the index range into chunks for worker processes cannot change the
results.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
import operator
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
        # each field is stored masked, as a plain int (a bool such as True is 1)
        for name, value in (("seed", self.seed), ("counter", self.counter)):
            if not isinstance(value, int):
                raise TypeError(f"{name} must be an int, got {value!r}")
            object.__setattr__(self, name, value & _MASK64)

    def split(self, key: int) -> "RngStream":
        """Derive an independent child stream from an integer key."""
        if not isinstance(key, int):
            raise TypeError(f"key must be an int, got {key!r}")
        return RngStream(_child_seed(self.seed, key))


def _stream(seed: int, counter: int = 0) -> RngStream:
    """RngStream(seed, counter) of two ints already below 2^64, without its
    __init__: __post_init__ would only confirm that the mask keeps them."""
    stream = object.__new__(RngStream)
    stream.__dict__.update(seed=seed, counter=counter)
    return stream


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
    handed the int seed of its child stream; the seeds come _BLOCK at a time
    from _child_seeds."""
    out = []
    for block in range(start, stop, _BLOCK):
        children = _child_seeds(seed, block, min(_BLOCK, stop - block))
        for i, result in enumerate(map(fn, children, *map(itertools.repeat, args)), block):
            if result is not None:
                out.append((i, result))
    return out


def map_chunks(fn, n: int, workers: int, seed: int, *args) -> list[tuple]:
    """(i, fn(_child_seed(seed, i), *args)) for each i in range(n) whose
    result is not None, in index order: item i gets the seed of child stream
    RngStream(seed).split(i) as an int, and draws from it at counter 0.

    One worker runs every item in this process, without asking for the CPU
    count. Otherwise range(n) is cut into contiguous chunks by chunk_bounds;
    they run in a process pool, or in this process when there is one chunk.
    n, workers and seed must be plain ints (TypeError) and workers at least 1
    (ValueError), checked before any item runs.
    """
    _require_int(n=n, workers=workers, seed=seed)
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    if workers == 1 or len(bounds := chunk_bounds(n, workers)) == 1:
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
    z = _mix_lanes((((seed + counter * _GOLDEN) & _MASK64) * ones + ramp) & mask, mask)
    return unpack(z.to_bytes(16 * m, "little"))


def _mix_lanes(z: int, mask: int) -> int:
    """mix64 of every 128-bit lane of z, each lane below 2^64, as _outputs
    describes: the low 64 bits of each lane of the result are its mix, and
    the high half holds bits of the next lane."""
    z = ((z ^ z >> 30) & mask) * _MIX1 & mask
    z = ((z ^ z >> 27) & mask) * _MIX2 & mask
    return z ^ z >> 31


def _child_seeds(seed: int, start: int, m: int) -> tuple[int, ...]:
    """_child_seed(seed, key) for key = start, ..., start + m - 1, for
    0 <= m <= _BLOCK, computed at once.

    The inner mixes mix64((key + 1) GOLDEN) are the lanes of _outputs(0,
    start, m); each is masked to its low word and XORed with the seed's low
    64 bits in every lane, and the outer mix runs once for all lanes.
    """
    ones, ramp, mask, unpack = _lanes(m)
    inner = _mix_lanes(((start * _GOLDEN & _MASK64) * ones + ramp) & mask, mask)
    z = _mix_lanes((inner & mask) ^ (seed & _MASK64) * ones, mask)
    return unpack(z.to_bytes(16 * m, "little"))


@functools.lru_cache(maxsize=256)
def _least_limit(ranges: tuple[int, ...]) -> int | None:
    """The least rejection limit over the ranges of a block, or None when a
    range exceeds 2^64. The limit of a range n is 2^64 - 2^64 mod n, the
    largest multiple of n not above 2^64; an output at or above it is
    rejected. Cached, since a sweep walks the same blocks trial after
    trial."""
    if max(ranges) > 1 << 64:
        return None
    return (1 << 64) - max((1 << 64) % n for n in ranges)


def _walk(seed: int, counter: int, ranges: tuple[int, ...]) -> tuple[list[int], int]:
    """One uniform value below each range (each at least 1), in order,
    bias-free via rejection, with the counter of the last output used.

    The outputs come from _outputs a block at a time, as many as the ranges
    still need when nothing more is rejected, and at most _BLOCK. When the
    largest output of a block lies below the least limit of its ranges, no
    output is rejected and the block is mapped to its values at once;
    otherwise the block is read one output at a time, each against the
    next range's limit, and the walk goes on from the next output. A block
    holding a range beyond 2^64 draws its ranges one at a time: a candidate
    is the next `words` raw outputs read as one number, first output most
    significant, one up to n = 2^64 and ceil(bits(n) / 64) beyond, so that
    it spans at least n and at least half of its range is accepted.
    """
    vals = []
    while (start := len(vals)) < len(ranges):
        block = ranges[start : start + _BLOCK]
        least = _least_limit(block)
        if least is None:
            for n in block:
                words = 1 if n <= 1 << 64 else -(-n.bit_length() // 64)
                span = 1 << 64 * words
                raw = limit = span - span % n
                while raw >= limit:
                    raw = 0
                    for _ in range(words):
                        counter += 1
                        raw = raw << 64 | _output(seed, counter)
                vals.append(raw % n)
            continue
        outs = _outputs(seed, counter, len(block))
        counter += len(outs)
        if max(outs) < least:
            vals += map(operator.mod, outs, block)
        else:
            for z in outs:
                n = ranges[len(vals)]
                if z < (1 << 64) - (1 << 64) % n:
                    vals.append(z % n)
    return vals, counter


def _require_int(**values) -> None:
    """TypeError naming the first of values that is not a plain int: a float
    or a bool would pass the range checks and make the draws inexact."""
    for name, value in values.items():
        if type(value) is not int:
            raise TypeError(f"{name} must be an int, got {value!r}")


def _require_real(value: object, what: str) -> None:
    """TypeError naming `what` unless value is a real number other than a
    bool: a bool is a numbers.Real, but True is no level, tolerance or
    matrix entry."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{what} must be a real number, got {value!r}")


def draw_int(stream: RngStream, lo: int, hi: int) -> tuple[int, RngStream]:
    """Uniform integer in [lo, hi], bias-free via rejection."""
    _require_int(lo=lo, hi=hi)
    if lo > hi:
        raise ValueError(f"invalid int range [{lo}, {hi}]")
    (value,), counter = _walk(stream.seed, stream.counter, (hi - lo + 1,))
    return lo + value, RngStream(stream.seed, counter)


def _rational_walk(seed: int, counter: int, height: int, n: int) -> tuple[list[tuple[int, int]], int]:
    """The (numerator, denominator) int pairs of n rationals of the given
    height, unreduced, with the counter of the last output used.

    Each pair draws its numerator below 2 height + 1, minus height, and then
    its denominator below height, plus 1: _walk over n such range pairs,
    read by _rational_pairs. This is the one rational draw: draw_rationals
    is its Fraction view and the exact sweeps read the ints.
    """
    if height < 1:
        raise ValueError(f"height must be >= 1, got {height}")
    vals, counter = _walk(seed, counter, (2 * height + 1, height) * n)
    return _rational_pairs(vals, height), counter


def _rational_pairs(vals: list[int], height: int) -> list[tuple[int, int]]:
    """The (numerator, denominator) pairs of walk values drawn below
    2 height + 1 and height in turn: each numerator value minus height, and
    each denominator value plus 1."""
    it = iter(vals)
    return [(num - height, den + 1) for num, den in zip(it, it)]


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


def _gaussians(seed: int, counter: int, n: int) -> tuple[float, ...]:
    """The values of draw_gaussians(RngStream(seed, counter), n), for an int
    n >= 0, without the checks and the stream."""
    vals = []
    for start in range(0, 2 * n, _BLOCK):
        outs = iter(_outputs(seed, counter + start, min(_BLOCK, 2 * n - start)))
        for z1, z2 in zip(outs, outs):
            # u1 == 0 would make log blow up; the lattice of 53-bit draws makes
            # the shifted value strictly positive.
            r = math.sqrt(-2.0 * math.log(1.0 - (z1 >> 11) * (2.0**-53)))
            vals.append(r * math.cos(2.0 * math.pi * ((z2 >> 11) * (2.0**-53))))
    return tuple(vals)


def draw_gaussians(stream: RngStream, n: int) -> tuple[tuple[float, ...], RngStream]:
    """n standard normals via Box-Muller, with the stream after the last.

    Each value consumes two raw outputs, each turned into a uniform float in
    [0, 1) as its top 53 bits times 2^-53. The 2n outputs come from _outputs
    a block at a time (_gaussians), and one stream is built at the end.
    """
    _require_int(n=n)
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    seed, counter = stream.seed, stream.counter
    return _gaussians(seed, counter, n), RngStream(seed, counter + 2 * n)


def draw_gaussian(stream: RngStream) -> tuple[float, RngStream]:
    """One standard normal: draw_gaussians with n = 1."""
    vals, stream = draw_gaussians(stream, 1)
    return vals[0], stream
