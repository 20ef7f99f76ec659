"""Counter-based deterministic random numbers for parallel Monte Carlo.

Every variate is a pure function of ``(seed, stream, step)``, built from the
splitmix64 avalanche.  Streams index independent objects (walks, sample
points), steps index draws within a stream.  Because no generator state is
carried, results are independent of execution order, batching, and worker
count: the same coordinates always yield the same number.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_INV53 = 1.0 / 9007199254740992.0  # 2^-53

# width of every blocked loop: the pushforward, verify-semiconj, the circle
# statistics and each stage of a render run over chunks (see chunks), and
# Walk-on-Spheres keeps at most this many walks in flight; memory does not
# grow with the input, and no result depends on the width.  A render chunk's
# complex128 arrays (256 KiB each) fit a 2 MiB per-core L2 cache: the
# criterion-11 render (1000^2 exp_baker pixels, 2-core x86-64) peaked at
# 39.5 MB against 40.3 MB at 2**15, in the same time; mcmullen ran slower at 2**13
CHUNK = 1 << 14


def chunks(start: int, stop: int) -> list:
    """[lo, hi) bounds of consecutive chunks of CHUNK values tiling
    range(start, stop), with CHUNK read at call time.  A last chunk of one
    value joins the chunk before it: numpy's in-place complex product
    rounds differently on a one-element array (it does not fuse
    multiply-adds).
    """
    width = CHUNK  # read at call time: patching rng.CHUNK reaches every loop
    bounds = list(range(start, stop, width)) + [stop]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        del bounds[-2]
    return list(zip(bounds, bounds[1:]))


def _mix_inplace(x):
    """splitmix64 finalizer applied in place to a uint64 array the caller owns."""
    with np.errstate(over="ignore"):
        x ^= x >> np.uint64(30)
        x *= _M1
        x ^= x >> np.uint64(27)
        x *= _M2
        x ^= x >> np.uint64(31)
    return x


def mix64(x):
    """splitmix64 finalizer, elementwise on uint64 arrays."""
    return _mix_inplace(np.array(x, dtype=np.uint64))


def stream_keys(seed, stream):
    """The step-independent half of the counter hash, one key per stream.

    ``uniform01(None, stream_keys(seed, stream), step)`` equals
    ``uniform01(seed, stream, step)``, so a caller drawing many steps from
    the same streams hashes the stream coordinates only once.
    """
    s = np.uint64(int(seed) & _MASK)
    with np.errstate(over="ignore"):
        return _mix_inplace(s + _GOLDEN * np.asarray(stream, dtype=np.uint64))


def uniform01(seed, stream, step):
    """Uniform variate in [0, 1) at integer coordinates (seed, stream, step).

    ``stream`` and ``step`` may be scalars or uint64-compatible arrays; they
    broadcast.  With ``seed`` None, ``stream`` holds keys from
    ``stream_keys`` and each variate costs one hash instead of two.  The top
    53 bits of the mixed counter feed the mantissa, so every value is an
    exact double in [0, 1).
    """
    key = stream if seed is None else stream_keys(seed, stream)
    with np.errstate(over="ignore"):
        h = _mix_inplace(key + _GOLDEN * np.asarray(step, dtype=np.uint64))
    h >>= np.uint64(11)
    u = h.astype(np.float64)
    u *= _INV53
    return u if u.ndim else float(u)


def derive_seed(seed, salt):
    """Child seed for an independent purpose, labelled by an integer salt."""
    with np.errstate(over="ignore"):
        h = mix64(np.uint64(int(seed) & _MASK) + _GOLDEN * np.uint64(int(salt) & _MASK))
    return int(h)
