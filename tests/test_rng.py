"""Deterministic stream semantics and output distribution sanity."""

import math
import os
from fractions import Fraction

import pytest

from spherecurv import (
    RngStream,
    draw_gaussian,
    draw_gaussians,
    draw_int,
    draw_rational,
    draw_rationals,
)
from spherecurv import rng
from spherecurv.rng import _BLOCK, _output, _outputs, _rational_walk, chunk_bounds, map_chunks
from fieldtools import draw_float, draw_u64

_MASK = (1 << 64) - 1


def _reference_splitmix64(state: int):
    """Published generator, retyped from the original description."""
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        yield z ^ (z >> 31)


def test_matches_published_sequence_for_seed_zero():
    s = RngStream(0)
    got = []
    for _ in range(3):
        v, s = draw_u64(s)
        got.append(v)
    assert got == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


@pytest.mark.parametrize("seed", [0, 1, 42, 2**63, 0xDEADBEEF])
def test_matches_reference_generator(seed):
    ref = _reference_splitmix64(seed)
    s = RngStream(seed)
    for _ in range(200):
        v, s = draw_u64(s)
        assert v == next(ref)


def test_streams_are_values():
    s = RngStream(7)
    a1, _ = draw_u64(s)
    a2, _ = draw_u64(s)
    assert a1 == a2
    _, s1 = draw_u64(s)
    assert s1.counter == s.counter + 1
    assert s1.seed == s.seed


def test_replay_from_same_position():
    s = RngStream(123, counter=55)
    seq1 = []
    seq2 = []
    t = s
    for _ in range(10):
        v, t = draw_u64(t)
        seq1.append(v)
    t = s
    for _ in range(10):
        v, t = draw_u64(t)
        seq2.append(v)
    assert seq1 == seq2


def test_split_children_are_independent_and_reproducible():
    root = RngStream(99)
    a = root.split(0)
    b = root.split(1)
    assert a == root.split(0)
    assert a.seed != b.seed
    va, _ = draw_u64(a)
    vb, _ = draw_u64(b)
    assert va != vb
    # splitting does not advance the parent
    assert root.counter == 0


def test_split_keys_cover_large_range():
    root = RngStream(5)
    seeds = {root.split(k).seed for k in range(1000)}
    assert len(seeds) == 1000


def test_draw_float_bounds_and_mean():
    s = RngStream(2024)
    acc = 0.0
    for _ in range(10000):
        v, s = draw_float(s, 0.0, 1.0)
        assert 0.0 <= v < 1.0
        acc += v
    assert abs(acc / 10000 - 0.5) < 0.02


def test_draw_float_range_mapping():
    s = RngStream(1)
    v, _ = draw_float(s, -3.0, 5.0)
    assert -3.0 <= v < 5.0
    with pytest.raises(ValueError):
        draw_float(s, 1.0, 1.0)
    with pytest.raises(ValueError):
        draw_float(s, 0.0, math.inf)


def test_draw_int_inclusive_bounds():
    s = RngStream(77)
    seen = set()
    for _ in range(500):
        v, s = draw_int(s, -2, 3)
        assert -2 <= v <= 3
        seen.add(v)
    assert seen == {-2, -1, 0, 1, 2, 3}
    with pytest.raises(ValueError):
        draw_int(s, 4, 2)


def test_draw_rational_height_contract():
    s = RngStream(31337)
    for height in (1, 3, 50):
        for _ in range(300):
            q, s = draw_rational(s, height)
            assert isinstance(q, Fraction)
            assert abs(q.numerator) <= height
            assert 1 <= q.denominator <= height
    with pytest.raises(ValueError):
        draw_rational(s, 0)


def _reference_pair(stream, height):
    """One rational's unreduced (numerator, denominator) the per-value way:
    numerator in [-height, height], then denominator in [1, height], each by
    rejection on raw 64-bit draws (several per candidate beyond 2^64)."""
    parts = []
    for lo, hi in ((-height, height), (1, height)):
        n = hi - lo + 1
        if n > 2**64:
            raw, stream = _reference_below_wide(stream, n)
        else:
            limit = (1 << 64) - ((1 << 64) % n)
            raw, stream = draw_u64(stream)
            while raw >= limit:
                raw, stream = draw_u64(stream)
        parts.append(lo + raw % n)
    return tuple(parts), stream


@pytest.mark.parametrize("height", [1, 2, 3, 1000, 10**6, 2**62, 3 * 2**61, 2**63, 2**70])
def test_draw_rationals_matches_successive_single_draws(height):
    """The int-pair walk draws what the Fraction draws read: its unreduced
    pairs are the per-value reference's, as Fractions they are draw_rationals
    and n successive draw_rational calls, and all end on one counter. At
    2^62 and 3 2^61 the ranges fit one output but up to half the outputs are
    rejected, so a block of outputs runs out in mid-walk. At 2^63 and 2^70
    the numerator range exceeds 2^64 and takes several raw outputs per
    candidate."""
    root = RngStream(271828)
    starts = [root.split(key) for key in range(300)] + [RngStream(7, counter=2**64 - 3)]
    for start in starts:
        for n in range(9):
            pairs, counter = _rational_walk(start.seed, start.counter, height, n)
            vals, end = draw_rationals(start, height, n)
            single, ref = [], []
            s = t = start
            for _ in range(n):
                v, s = draw_rational(s, height)
                single.append(v)
                w, t = _reference_pair(t, height)
                ref.append(w)
            assert pairs == ref
            assert tuple(Fraction(*p) for p in pairs) == vals == tuple(single)
            assert RngStream(start.seed, counter) == end == s == t
    with pytest.raises(ValueError):
        draw_rationals(root, 0, 4)


def test_draw_rationals_rejects_a_negative_count():
    """n = -3 once returned no values and the stream unmoved, without complaint."""
    with pytest.raises(ValueError, match=r"n must be >= 0, got -3"):
        draw_rationals(RngStream(1, 5), 10, -3)


@pytest.mark.parametrize("value", [1e3, 2.0, 2.5, True])
def test_draw_views_take_plain_int_arguments(value):
    """draw_int(stream, 0, 2.5) once returned a float, and a float height
    drew float rationals; a bool read as 0 or 1. draw_gaussians(stream, 2.5)
    raised an internal TypeError from range, and n=True drew one value."""
    stream = RngStream(1, 5)
    for draw, arg, args in [
        (draw_int, "lo", (value, 2000)),
        (draw_int, "hi", (0, value)),
        (draw_rationals, "height", (value, 4)),
        (draw_rationals, "n", (10, value)),
        (draw_gaussians, "n", (value,)),
    ]:
        with pytest.raises(TypeError, match=f"^{arg} must be an int, got {value!r}$"):
            draw(stream, *args)


def _reference_below_wide(stream, n):
    """Uniform integer in [0, n) for n > 2^64: ceil(bits / 64) raw draws read
    as one number, first draw most significant, by rejection."""
    words = (n.bit_length() + 63) // 64
    span = 2 ** (64 * words)
    while True:
        raw = 0
        for _ in range(words):
            v, stream = draw_u64(stream)
            raw = raw * 2**64 + v
        if raw < span - span % n:
            return raw % n, stream


def _reference_below(stream, n):
    """Uniform integer in [0, n) the per-value way: up to 2^64 one raw draw
    per candidate, rejected at or above the largest multiple of n."""
    if n > 2**64:
        return _reference_below_wide(stream, n)
    limit = 2**64 - 2**64 % n
    while True:
        raw, stream = draw_u64(stream)
        if raw < limit:
            return raw % n, stream


@pytest.mark.parametrize(
    "hi", [1, 3, 2**64 - 1, 2**64, 2**64 + 1, 2**70, 3**90, 2**128, 2**128 + 7]
)
def test_draw_int_beyond_64_bits(hi):
    """draw_int over hi values equals the per-value reference on _output,
    on child streams and from a counter about to wrap: a range of more than
    2^64 values draws several raw outputs, one of up to 2^64 values takes
    one output per candidate, and every value stays in range."""
    root = RngStream(4040)
    top = 0
    for start in [root.split(key) for key in range(200)] + [RngStream(7, counter=2**64 - 3)]:
        v, end = draw_int(start, 0, hi - 1)
        assert 0 <= v < hi
        assert (v, end) == _reference_below(start, hi)
        top = max(top, v)
    assert top == hi - 1 if hi < 4 else top > hi // 2


def test_draw_rationals_at_height_beyond_64_bits():
    height = 2**70
    vals, _ = draw_rationals(RngStream(12), height, 200)
    assert all(abs(q.numerator) <= height and 1 <= q.denominator <= height for q in vals)
    assert max(abs(q.numerator) for q in vals) > 2**66


def _reference_draw_gaussian(stream):
    """One normal the per-value way: two draw_float calls, then Box-Muller."""
    u1, stream = draw_float(stream, 0.0, 1.0)
    u2, stream = draw_float(stream, 0.0, 1.0)
    r = math.sqrt(-2.0 * math.log(1.0 - u1))
    return r * math.cos(2.0 * math.pi * u2), stream


def test_draw_gaussians_matches_successive_single_draws():
    root = RngStream(161803)
    starts = [root.split(key) for key in range(300)] + [RngStream(7, counter=2**64 - 3)]
    for start in starts:
        for n in range(9):
            vals, end = draw_gaussians(start, n)
            single, ref = [], []
            s = t = start
            for _ in range(n):
                v, s = draw_gaussian(s)
                single.append(v.hex())
                w, t = _reference_draw_gaussian(t)
                ref.append(w.hex())
            assert [v.hex() for v in vals] == single == ref
            assert end == s == t
            assert end.counter == (start.counter + 2 * n) % 2**64


@pytest.mark.parametrize("seed, counter", [(5, 0), (2**64 - 1, 2**64 - 3), (161803, 12345)])
def test_outputs_are_the_single_outputs(seed, counter):
    """Every block size from 0 to _BLOCK, also where the counter wraps."""
    for m in range(_BLOCK + 1):
        assert _outputs(seed, counter, m) == tuple(_output(seed, counter + i) for i in range(1, m + 1))


# Range tuples for _walk: the g2 trial's; ranges that reject up to half of
# the outputs (2^63 + 1) or a quarter (3 2^61) next to ones that reject none
# (1, 2^62, 2^64); a walk of 150 that crosses _BLOCK with rejections in its
# blocks; and ranges beyond 2^64 in the first block or after it.
_WALK_RANGES = [
    (3, 1000, 1000),
    (2**62, 3 * 2**61, 2**64, 2**63 + 1) * 5,
    (2001, 1000, 3 * 2**61, 2**63 + 1, 1, 2**64) * 25,
    (5, 2**64 + 1, 2**70, 9),
    (2001, 1000) * 35 + (2**70, 3),
    (),
]


@pytest.mark.parametrize("ranges", _WALK_RANGES, ids=lambda r: f"{len(r)}-ranges-from-{r[:1]}")
def test_walk_is_successive_single_draws(ranges):
    """One walk draws the values and ends on the counter of successive
    per-value draws on _output, also from a counter about to wrap."""
    root = RngStream(5150)
    starts = [root.split(key) for key in range(60)] + [RngStream(7, counter=2**64 - 3)]
    rejected = 0
    for start in starts:
        vals, counter = rng._walk(start.seed, start.counter, ranges)
        s, ref = start, []
        for n in ranges:
            v, s = _reference_below(s, n)
            ref.append(v)
        assert vals == ref
        assert RngStream(start.seed, counter) == s
        rejected += (s.counter - start.counter) % 2**64 > len(ranges)
    if any(n == 2**63 + 1 for n in ranges):
        assert rejected > len(starts) // 2


def test_walk_across_the_2_64_boundary():
    """After a range beyond 2^64 the ranges of its block are drawn one at a
    time, and a range of exactly 2^64 among them still takes one output per
    candidate: 2^64 has bit length 65, so a word count by bit length alone
    would read two outputs for it. Values and end counter equal the
    per-value reference, on child streams and from a counter about to wrap."""
    ranges = (2**64 + 1, 2**64, 3)
    root = RngStream(6464)
    for start in [root.split(key) for key in range(200)] + [RngStream(7, counter=2**64 - 3)]:
        vals, counter = rng._walk(start.seed, start.counter, ranges)
        s, ref = start, []
        for n in ranges:
            v, s = _reference_below(s, n)
            ref.append(v)
        assert (vals, RngStream(start.seed, counter)) == (ref, s)
    assert rng._walk(5, 0, ranges) == ([6743003825869517726, 4292726422858613063, 2], 4)


def test_child_seeds_are_the_single_child_seeds():
    """Every block size from 0 to _BLOCK, for seeds the mask wraps and for
    keys about to wrap."""
    for seed in (77, -1, 2**64 + 5):
        for start in (0, 75, 2**64 - 10):
            for m in range(_BLOCK + 1):
                expected = tuple(rng._child_seed(seed, start + i) for i in range(m))
                assert rng._child_seeds(seed, start, m) == expected


def test_walkers_cross_blocks_and_cap_them(monkeypatch):
    """Walks longer than one block read the same values as single draws, and
    no block holds more than _BLOCK outputs."""
    sizes = []
    outputs = rng._outputs
    monkeypatch.setattr(rng, "_outputs", lambda seed, counter, m: sizes.append(m) or outputs(seed, counter, m))
    start = RngStream(31, counter=2**64 - 40)
    for height in (1000, 2**62):
        vals, end = draw_rationals(start, height, 150)
        s, single = start, []
        for _ in range(150):
            v, s = draw_rational(s, height)
            single.append(v)
        assert vals == tuple(single) and end == s
    vals, end = draw_gaussians(start, 150)
    s, single = start, []
    for _ in range(150):
        v, s = draw_gaussian(s)
        single.append(v.hex())
    assert [v.hex() for v in vals] == single and end == s
    assert max(sizes) == _BLOCK


def test_draw_gaussians_rejects_a_negative_count():
    """n = -1 once moved the stream two outputs back, so the next draw
    repeated two outputs already drawn."""
    with pytest.raises(ValueError, match=r"n must be >= 0, got -1"):
        draw_gaussians(RngStream(1, 5), -1)


def test_draw_gaussian_moments():
    s = RngStream(8)
    n = 20000
    total = 0.0
    total_sq = 0.0
    for _ in range(n):
        v, s = draw_gaussian(s)
        assert math.isfinite(v)
        total += v
        total_sq += v * v
    mean = total / n
    var = total_sq / n - mean * mean
    assert abs(mean) < 0.03
    assert abs(var - 1.0) < 0.05


def test_seed_and_counter_wrap_to_64_bits():
    s = RngStream(2**64 + 5, counter=2**64 + 9)
    assert s.seed == 5
    assert s.counter == 9


@pytest.mark.parametrize("seed, counter", [(True, False), (-1, -2), (2**64 - 1, 2**64), (5, 9)])
def test_stream_fields_are_masked_plain_ints(seed, counter):
    """Fields already below 2^64 are kept as given; the rest, bools
    included, are stored masked, so values, ==, hash and repr are those of
    the masked ints."""
    s = RngStream(seed, counter)
    masked = RngStream(int(seed) % 2**64, int(counter) % 2**64)
    assert (s.seed, s.counter) == (masked.seed, masked.counter)
    assert type(s.seed) is int and type(s.counter) is int
    assert s == masked and hash(s) == hash(masked) and repr(s) == repr(masked)


def test_chunk_bounds_clamp_to_items_and_cpus(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert chunk_bounds(10, 1000) == [(0, 2), (2, 5), (5, 7), (7, 10)]
    assert chunk_bounds(3, 8) == [(0, 1), (1, 2), (2, 3)]
    assert chunk_bounds(5, 1) == [(0, 5)]
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert chunk_bounds(10, 2) == [(0, 10)]


def test_map_chunks_runs_a_single_chunk_in_process():
    seen = []

    def item(stream, tag):  # a closure: a worker process could not receive it
        seen.append(tag)
        return len(seen)

    assert map_chunks(item, 3, 1, 5, "x") == [(0, 1), (1, 2), (2, 3)]
    assert seen == ["x"] * 3


@pytest.mark.parametrize("n, cpus", [(1, 4), (5, 1)], ids=["one-item", "one-cpu"])
def test_map_chunks_runs_one_chunk_in_process_at_two_workers(n, cpus, monkeypatch):
    """At workers 2, one item or one CPU leaves chunk_bounds a single chunk,
    which runs in this process: the closure could not reach a pool."""
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    seeds = []

    def item(seed):
        seeds.append(seed)
        return seed

    expected = [(i, RngStream(77).split(i).seed) for i in range(n)]
    assert map_chunks(item, n, 2, 77) == expected
    assert seeds == [seed for _i, seed in expected]


def _odd_child_seed(seed, offset):
    """Module level, so a worker process can receive it."""
    return seed + offset if seed % 2 else None


def _own_seed(seed):
    """Module level, so a worker process can receive it."""
    return seed


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("seed", [77, -1, 2**64 + 5])
def test_map_chunks_hands_out_child_seeds_across_blocks(seed, workers, monkeypatch):
    """150 items take three blocks of child seeds; at workers 2 the second
    chunk starts at item 75, inside a block. The CLI passes any int --seed,
    so seeds the mask wraps are included."""
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    expected = [(i, RngStream(seed).split(i).seed) for i in range(150)]
    assert map_chunks(_own_seed, 150, workers, seed) == expected


@pytest.mark.parametrize("workers", [1, 2])
def test_map_chunks_gives_item_i_its_child_stream(workers, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    root = RngStream(77)
    expected = [(i, root.split(i).seed + 3) for i in range(40) if root.split(i).seed % 2]
    assert 0 < len(expected) < 40
    assert map_chunks(_odd_child_seed, 40, workers, 77, 3) == expected
