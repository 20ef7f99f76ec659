"""Rows of CSV text as bytes: the digit kernel and the byte layout behind
``histograms.csv_chunks``, byte for byte what ``row % values`` gives.

- ``%d``: integers cut into groups of four digits, each spelled by a
  10,000-entry table of 4-byte groups;
- ``%r`` and ``%.17g``: one exact digit kernel.  A double m * 2**e, with m
  its 53-bit significand, times 10**k is a number of 18 or 19 digits: the
  128-bit product of m and 5**k in 32-bit limbs, shifted right.  The bits
  shifted out say whether it and the bounds of the double's rounding
  interval are whole.  Digits are then removed as in Ryu (Adams, "Ryu:
  fast float-to-string conversion", PLDI 2018): down to the shortest
  string that reads back to the double for ``%r``, accepting the bounds of
  an even significand and taking the narrower lower interval at a power of
  two; down to 17 significant digits, rounded half to even, for ``%.17g``;
- each row is laid out in a fixed-width byte block.  A layout row per value,
  taken from a small table, zeroes the bytes that the value does not use,
  and the zeros are deleted.

The kernel covers magnitudes from ~1e-9 to ~2e18, where the products fit
the limbs.  Zeros, subnormals, infinities, NaNs and other exponents take
their bytes from ``%`` into the same block.  The kernel uses integer
operations only, so its bytes do not depend on numpy's SIMD dispatch.

A module of its own, executed by the first CSV chunk: a process that writes
no CSV does not compile it, and one that does compiles it at its end, after
its larger working arrays are freed, so that the compiler's memory does not
add to the peak (compiling it before the walks raised the peak RSS of a
Walk-on-Spheres run by ~0.7 MB).
"""

from __future__ import annotations

import math

import numpy as np

_U64 = np.uint64
_FRACTION = _U64((1 << 52) - 1)
_POW10 = _U64(10) ** np.arange(20, dtype=_U64)  # 10**0 .. 10**19
# _DIGITS4[i]: the four digits of i, zero-padded, as the ASCII bytes of a uint32
_DIGITS4 = np.stack(np.meshgrid(*[np.arange(48, 58, dtype=np.uint8)] * 4, indexing="ij"),
                    axis=-1).view(np.uint32).ravel()
_SHIFT = 7  # bits the significand moves left, so that no shift is negative


def _exponent_table():
    """The lowest biased exponent E that the kernel covers, and rows over the
    E it covers: 5**k in 32-bit limbs, s and 2**s - 1, the half gap to the
    next double and the quarter gap (the lower half gap at a power of two)
    as whole part and numerator over 2**s, and k.

    A double m * 2**(E - 1075), with m its 53-bit significand, times 10**k
    is (m << _SHIFT) * 5**k / 2**s, and k gives 18 or 19 digits before the
    point.  k <= 26 keeps 5**k in 61 bits and s <= 63 keeps the fraction in
    the low word of the product: E from 994 to 1082, doubles from ~1e-9
    to ~2e18."""
    e = np.arange(2048)
    # 10**t <= 2**(e - 1023) < 10**(t + 1): no product here is within 1e-4
    # of a whole number but 0, so the float64 rounding cannot move the floor
    t = np.floor((e - 1023) * math.log10(2.0)).astype(np.int64)
    k = 17 - t
    s = _SHIFT + 1075 - e - k
    e = np.flatnonzero((k >= 0) & (k <= 26) & (s >= 0) & (s <= 63))
    k, s = k[e], s[e]
    p5 = _U64(5) ** k.astype(_U64)

    def gap(bits):  # 5**k * 2**bits / 2**s: whole part, numerator over 2**s
        down, up = np.maximum(s - bits, 0).astype(_U64), np.maximum(bits - s, 0).astype(_U64)
        return (p5 >> down) << up, (p5 & ((_U64(1) << down) - _U64(1))) << _U64(bits)

    (half, half_frac), (quarter, quarter_frac) = gap(_SHIFT - 1), gap(_SHIFT - 2)
    s = s.astype(_U64)
    return int(e[0]), dict(
        p5_low=p5 & _U64(0xFFFFFFFF), p5_high=p5 >> _U64(32), s=s, mask=(_U64(1) << s) - _U64(1),
        half=half, half_frac=half_frac, quarter=quarter, quarter_frac=quarter_frac, k=k)


_LOWEST, _EXPONENTS = _exponent_table()


def _scaled(bits, at):
    """floor(x * 10**k) and the fraction below it, a numerator over 2**s, of
    positive doubles that the kernel covers, given their bits and their
    places ``at`` in the rows of _EXPONENTS: a 128-bit product in 32-bit
    limbs and a shift.  Also s and 2**s - 1."""
    b0, b1, s, mask = (_EXPONENTS[name].take(at) for name in ("p5_low", "p5_high", "s", "mask"))
    a = ((bits & _FRACTION) | _U64(1 << 52)) << _U64(_SHIFT)
    a0, a1 = a & _U64(0xFFFFFFFF), a >> _U64(32)
    low = a0 * b0
    mid = a0 * b1 + a1 * b0
    high = a1 * b1 + (mid >> _U64(32))
    mid <<= _U64(32)
    low += mid
    high += low < mid  # carry
    return (low >> s) | ((high << _U64(1)) << (_U64(63) - s)), low & mask, s, mask


def _bounds(bits, at, value, frac, s, mask):
    """Floors of the upper and lower bound of each double's rounding
    interval at the scale of ``value``, and whether the lower bound is whole
    and accepted.  A bound is accepted when the significand is even (round
    half to even reads it back to the double); at a power of two the lower
    gap is half the upper."""
    gap, gap_frac = _EXPONENTS["half"].take(at), _EXPONENTS["half_frac"].take(at)
    even = (bits & _U64(1)) == 0
    up = frac + gap_frac
    odd_exact = ((up & mask) == 0) & ~even  # an odd significand excludes its bounds
    up >>= s
    vp = value + gap
    vp += up
    vp -= odd_exact
    pow2 = np.flatnonzero((bits & _FRACTION) == 0)  # the lower gap is a quarter ulp
    gap[pow2], gap_frac[pow2] = (_EXPONENTS[name].take(at[pow2])
                                 for name in ("quarter", "quarter_frac"))
    vm = value - gap
    vm -= frac < gap_frac
    return vp, vm, (frac == gap_frac) & even


def _removable(vp, vm):
    """How many digits Ryu removes: while the bounds' floors differ above
    the digit.  Three steps at a time, on the rows that took all three."""
    removed = np.zeros(vp.size, np.intp)
    rows, bounds = slice(None), np.stack([vp, vm])
    while True:
        steps = np.zeros(bounds.shape[1], np.intp)
        for _ in range(3):
            bounds = bounds // _U64(10)
            steps += bounds[0] > bounds[1]
        removed[rows] += steps
        more = np.flatnonzero(steps == 3)
        if not more.size:
            return removed
        rows, bounds = np.arange(vp.size)[rows][more], bounds[:, more]


def _shortest(vr, vr_zeros, vp, vm, vm_zeros):
    """Ryu's digit removal: the shortest decimal in the rounding interval
    (vm, vp], the one nearest vr among them, half to even.

    vr, vp, vm are the floors of the scaled value and of its upper and lower
    bound; vr_zeros says that vr is exact, vm_zeros that the lower bound is
    whole and accepted.  Returns the digits and how many were removed."""
    removed = _removable(vp, vm)
    # the interval is >= 16 units wide, so at least one digit goes
    scale, below = _POW10.take(removed), _POW10.take(removed - 1)
    t = vr // below
    out = t // _U64(10)
    last = t - out * _U64(10)
    at_low = out * scale <= vm  # out is the lower bound's floor
    up = last >= 5
    whole = np.flatnonzero(vm_zeros | vr_zeros)  # rare: exact values and bounds
    if whole.size:
        vr_zeros &= vr == t * below  # zeros below the last digit removed
        # a whole, accepted lower bound may lose further zeros
        vm_zeros[whole] &= vm[whole] % scale[whole] == 0
        rows = np.flatnonzero(vm_zeros)
        low = vm[rows] // scale[rows]
        while rows.size:
            q = low // _U64(10)
            zero = low == q * _U64(10)
            rows, low = rows[zero], q[zero]
            vr_zeros[rows] &= last[rows] == 0
            last[rows] = out[rows] % _U64(10)
            out[rows] //= _U64(10)
            removed[rows] += 1
        out_w, last_w = out[whole], last[whole]
        at_low[whole] = (out_w * _POW10.take(removed[whole]) <= vm[whole]) & ~vm_zeros[whole]
        tie = (last_w == 5) & vr_zeros[whole] & (out_w & _U64(1) == 0)  # ...50..0: half to even
        up[whole] = (last_w >= 5) & ~tie
    return out + (at_low | up), removed


def _nearest17(value, inexact):
    """The first 17 of the 18 or 19 digits of ``value``, rounded half to
    even (``inexact``: something nonzero lies below value), and how many
    were dropped."""
    big = value >= _POW10[18]
    q = value // _U64(10)
    rest = value - q * _U64(10)
    q2 = q // _U64(10)
    rest = np.where(big, (q - q2 * _U64(10)) * _U64(10) + rest, rest)
    q = np.where(big, q2, q)
    half = np.where(big, _U64(50), _U64(5))
    return q + ((rest > half) | ((rest == half) & (inexact | (q & _U64(1) == 1)))), 1 + big


def _decimal(bits, at, shortest):
    """Digits of positive doubles that the kernel covers, given their bits
    and their places in the rows of _EXPONENTS: the shortest that read back
    for ``%r``, else 17 rounded half to even.

    Returns (digits, n, point): the first n of the 17 digits of ``digits``
    (zeros pad the right) are significant, and the value is
    0.d1...dn * 10**point."""
    value, frac, s, mask = _scaled(bits, at)
    if shortest:
        out, removed = _shortest(value, frac == 0, *_bounds(bits, at, value, frac, s, mask))
    else:
        out, removed = _nearest17(value, frac != 0)
    n = (value >= _POW10[18]) + 18 - removed
    n += out >= _POW10[n]  # 99..9 rounded up to 10..0
    point = n + removed - _EXPONENTS["k"].take(at)
    rows = np.flatnonzero(out % _U64(10) == 0)  # trailing zeros: not significant
    while rows.size:
        out[rows] //= _U64(10)
        n[rows] -= 1
        rows = rows[out[rows] % _U64(10) == 0]
    return out * _POW10[17 - n], n, point


def _groups(v, count):
    """ASCII digits of uint64 ``v`` < 10**(4 count), zero-padded: (rows, 4 count) bytes."""
    index = np.empty((v.size, count), np.intp)
    column = index.view(_U64)
    for j in range(count - 1, 0, -1):
        q = v // _U64(10_000)
        np.subtract(v, q * _U64(10_000), out=column[:, j])
        v = q
    column[:, 0] = v
    return _DIGITS4.take(index).view(np.uint8)


def _int_field(v):
    """``%d`` of an array of integers >= 0 as (template, fill): the field's
    constant bytes, and a function that writes its rows into a (rows,
    width) view, 0 for each byte dropped.  Right-aligned digits, as many
    slots as the largest has."""
    if v.dtype.kind not in "iu" or v.min() < 0:
        raise ValueError(f"%d takes integers >= 0, got {v.dtype} from {v.min()}")
    v = v.astype(_U64)
    width = len(str(int(v.max())))
    # slot j keeps a digit worth 10**(width - 1 - j) or more; the last, always
    least = _POW10[width - 1::-1].copy()
    least[-1] = 0

    def fill(out):
        ascii_digits = _groups(v, -(-width // 4))[:, -width:]
        np.multiply(ascii_digits, v[:, None] >= least, out=out)

    return bytes(width), fill


def _layout(limit):
    """Kept bytes (1) of the "0.000" prefix, the integer part, the point and
    the fraction (5 + 17 + 1 + 17 slots), row (p + 8) * 17 + n - 1 for the
    point p in -8..19 and n significant digits: the exponent form unless
    -4 < p <= limit, and ".0" after a whole number if limit is 16 (repr)."""
    p = np.arange(-8, 20)[:, None, None]
    n = np.arange(1, 18)[None, :, None]
    exp = (p <= -4) | (p > limit)
    dot0 = (limit == 16) & ~exp
    p = np.where(exp, 1, p)
    j = np.arange(17)
    below_one = p <= 0  # "0." and -p zeros, then the digits from the fraction slots
    prefix = below_one & (np.arange(5) < 2 - p)
    whole = ~below_one & (j < p)
    point = ~below_one & ((n > p) | dot0)
    fraction = np.where(below_one, j < n, ((j >= p) & (j < n)) | (dot0 & (n <= p) & (j == p)))
    return np.concatenate([np.broadcast_to(a, (28, 17, a.shape[-1]))
                           for a in (prefix, whole, point, fraction)],
                          axis=-1).reshape(-1, 40).astype(np.uint8)


_LAYOUT = {True: _layout(16), False: _layout(17)}


def _float_field(x, shortest):
    """``%r`` (shortest) or ``%.17g`` of an array of floats as (template,
    fill), as for ``_int_field``.

    Slots: sign, "0.000", integer part, point, 17 fraction slots and, if a
    row needs it, "e+dd".  The digits go both to the integer part (as many
    slots as the chunk's longest needs) and to the fraction slots, and the
    layout row keeps the integer part from the first and the rest from the
    second, so that no byte moves."""
    if x.dtype.kind != "f":
        raise ValueError(f"%r and %.17g take floats, got {x.dtype}")
    x = np.ascontiguousarray(x, dtype=np.float64)
    bits = x.view(_U64)
    neg = bits >= _U64(1 << 63)
    bits = bits & _U64((1 << 63) - 1)
    at = (bits >> _U64(52)) - _U64(_LOWEST)  # wraps below the lowest
    outside = np.flatnonzero(at >= _U64(_EXPONENTS["k"].size))
    if outside.size:  # zeros, subnormals, inf, nan, other exponents: from %, below
        bits[outside], at[outside] = 0x3FF0000000000000, 1023 - _LOWEST  # 1.0
    digits, n, point = _decimal(bits, at.view(np.intp), shortest)
    limit = 16 if shortest else 17
    pattern = (point + 8) * 17 + n - 1
    low, high = int(point.min()), int(point.max())
    exp = low <= -4 or high > limit
    if high > limit:
        high = int(point[point <= limit].max(initial=0))
    whole = max(high, int(exp))  # integer part slots
    end = 24 + whole  # after the fraction slots

    def fill(out):
        if neg.any():
            out[:, 0] = neg * np.uint8(ord("-"))
        ascii_digits = _groups(digits, 5)[:, 3:]
        out[:, 6:6 + whole] = ascii_digits[:, :whole]
        out[:, 7 + whole:end] = ascii_digits
        out[:, 1:end] *= _LAYOUT[shortest][:, np.r_[:5 + whole, 22:40]].take(pattern, axis=0)
        if exp:  # |point - 1| < 100 for every double the kernel covers
            e = point - 1
            tail = np.empty((e.size, 4), np.uint8)
            tail[:, 0] = ord("e")
            tail[:, 1] = np.where(e < 0, ord("-"), ord("+"))
            tail[:, 2:] = _groups(np.abs(e).astype(_U64), 1)[:, 2:]
            out[:, end:] = tail * ((point <= -4) | (point > limit))[:, None]
        fmt = "%r" if shortest else "%.17g"
        for i, v in zip(outside.tolist(), x[outside].tolist()):
            text = (fmt % v).encode("ascii")
            out[i] = 0
            out[i, :len(text)] = np.frombuffer(text, np.uint8)

    return b"\0" + b"0.000" + bytes(whole) + b"." + bytes(17 + 4 * exp), fill


def rows(literals, conversions, values):
    """One chunk of CSV text: the byte strings ``literals`` around the fields
    of ``values``, converted by ``conversions`` ("d", "r" or ".17g")."""
    fields = [_int_field(v) if conversion == "d" else _float_field(v, conversion == "r")
              for conversion, v in zip(conversions, values)]
    template = literals[0] + b"".join(t + lit for (t, _), lit in zip(fields, literals[1:]))
    block = np.empty((values[0].size, len(template)), np.uint8)
    block[:] = np.frombuffer(template, np.uint8)
    at = len(literals[0])
    for (t, fill), lit in zip(fields, literals[1:]):
        fill(block[:, at:at + len(t)])
        at += len(t) + len(lit)
    return block.tobytes().translate(None, b"\0").decode("ascii")  # every byte dropped is 0
