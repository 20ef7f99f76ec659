import hashlib

import numpy as np
import pytest

from fatoulab import rng


def test_golden_uniform01_bytes():
    # sha256 of the variates at fixed coordinates, computed before the hash
    # was split into a per-stream key and a per-step half
    streams = np.arange(4096, dtype=np.uint64)[:, None]
    steps = np.arange(3, dtype=np.uint64)[None, :]
    u = rng.uniform01(2 ** 64 - 3, streams, steps)
    assert u.shape == (4096, 3)
    assert hashlib.sha256(u.tobytes()).hexdigest() == (
        "06d3556fbe7782870a784bf03587b81b3c9bf6db57966c8dfc07b79bc63ce5b5")
    assert rng.uniform01(7, 5, 3) == 0.19163973585837912
    assert rng.derive_seed(7, 2) == 309689372594955804


def test_stream_keys_give_the_same_variates():
    streams = np.arange(10_000, 12_000, dtype=np.uint64)
    keys = rng.stream_keys(99, streams)
    for step in (0, 1, 17):
        assert np.array_equal(rng.uniform01(None, keys, step),
                              rng.uniform01(99, streams, step))
    # the keys are not consumed by drawing from them
    assert np.array_equal(keys, rng.stream_keys(99, streams))
    x = np.arange(5, dtype=np.uint64)
    rng.mix64(x)
    assert np.array_equal(x, np.arange(5, dtype=np.uint64))


@pytest.mark.parametrize("width", [1, 7, 37, 2 ** 14])
def test_chunks_tile_the_range(monkeypatch, width):
    monkeypatch.setattr(rng, "CHUNK", width)
    sizes = {0, 1, 2, width - 1, width, width + 1, width + 2, 2 * width,
             2 * width + 1, 3 * width + 5, 5 * width - 1}
    for start in (0, 1_000_003):
        for size in sorted(sizes):
            stop = start + size
            got = rng.chunks(start, stop)
            if size == 0:
                assert got == []
                continue
            # consecutive, in order, covering [start, stop) exactly
            assert got[0][0] == start and got[-1][1] == stop
            assert all(hi == lo for (_, hi), (lo, _) in zip(got, got[1:]))
            widths = [hi - lo for lo, hi in got]
            assert min(widths) >= 1 and max(widths) <= width + 1, (width, size)
            # every chunk but the last is CHUNK wide, and the last has one
            # value only when the whole range has one; so with CHUNK > 1 no
            # chunk of a longer range has one value
            assert all(w == width for w in widths[:-1]), (width, size)
            assert widths[-1] > 1 or size == 1, (width, size)
            if width > 1:
                assert 1 not in widths or size == 1, (width, size)
