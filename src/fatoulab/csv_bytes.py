"""CSV rows as bytes: the digit kernel and the byte layout behind
``histograms.csv_chunks``, whose rows are ``b"%d,%r\\n" % (i, x)``, an index
and a double, byte for byte.

- the index: digits cut into groups of four, each spelled by a 10,000-entry
  table of 4-byte groups;
- ``%r`` of positive doubles that it writes without an exponent, 1e-4 <= x
  < 1e16: an exact digit kernel.  A double m * 2**e, with m its 53-bit
  significand, times 10**k is a number of 18 or 19 digits: the 128-bit
  product of m and 5**k in 32-bit limbs, shifted right.  The bits shifted
  out say whether it and the bounds of the double's rounding interval are
  whole.  Digits are then removed as in Ryu (Adams, "Ryu: fast
  float-to-string conversion", PLDI 2018), down to the shortest string that
  reads back to the double, accepting the bounds of an even significand and
  taking the narrower lower interval at a power of two;
- each row is laid out in a fixed-width byte block.  A layout row per value,
  taken from a small table, zeroes the bytes that the value does not use,
  and the zeros are deleted.

Every other double (zeros, negatives, the exponent form, subnormals,
infinities, NaNs) takes its bytes from ``%`` into the same block: the orbit
and spread CSVs hold almost none of them.  The kernel uses integer
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
_LOW, _HIGH = 1e-4, 1e16  # %r spells 1e-4 <= x < 1e16 without an exponent


def _exponent_table():
    """The lowest biased exponent E that the kernel covers, and rows over the
    E it covers: 5**k in 32-bit limbs, s and 2**s - 1, the half gap to the
    next double and the quarter gap (the lower half gap at a power of two)
    as whole part and numerator over 2**s, and k.

    A double m * 2**(E - 1075), with m its 53-bit significand, times 10**k
    is (m << _SHIFT) * 5**k / 2**s, and k gives 18 or 19 digits before the
    point.  The kernel reads E from 1009 to 1076, those of _LOW <= x <
    _HIGH, where k runs from 22 down to 2 and s from 51 down to 4: 5**k
    fits in 61 bits, and s <= 63 keeps the fraction in the low word of the
    product."""
    low, high = (np.array([_LOW, np.nextafter(_HIGH, 0.0)]).view(_U64) >> _U64(52)).tolist()
    e = np.arange(low, high + 1)
    # 10**t <= 2**(e - 1023) < 10**(t + 1): no product here is within 1e-4
    # of a whole number but 0, so the float64 rounding cannot move the floor
    t = np.floor((e - 1023) * math.log10(2.0)).astype(np.int64)
    k = 17 - t
    s = _SHIFT + 1075 - e - k
    p5 = _U64(5) ** k.astype(_U64)

    def gap(bits):  # 5**k * 2**bits / 2**s: whole part, numerator over 2**s
        down, up = np.maximum(s - bits, 0).astype(_U64), np.maximum(bits - s, 0).astype(_U64)
        return (p5 >> down) << up, (p5 & ((_U64(1) << down) - _U64(1))) << _U64(bits)

    (half, half_frac), (quarter, quarter_frac) = gap(_SHIFT - 1), gap(_SHIFT - 2)
    s = s.astype(_U64)
    return low, dict(
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
        vm_w, scale_w = vm[whole], scale[whole]
        vm_zeros[whole] &= vm_w // scale_w * scale_w == vm_w
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


def _decimal(bits, at):
    """Digits of positive doubles that the kernel covers, given their bits
    and their places in the rows of _EXPONENTS: the shortest that read back.

    Returns (digits, n, point): the first n of the 17 digits of ``digits``
    (zeros pad the right) are significant, and the value is
    0.d1...dn * 10**point."""
    value, frac, s, mask = _scaled(bits, at)
    out, removed = _shortest(value, frac == 0, *_bounds(bits, at, value, frac, s, mask))
    n = (value >= _POW10[18]) + 18 - removed
    n += out >= _POW10[n]  # 99..9 rounded up to 10..0
    point = n + removed - _EXPONENTS["k"].take(at)
    rows = np.flatnonzero(out // _U64(10) * _U64(10) == out)  # trailing zeros: not significant
    while rows.size:
        out[rows] //= _U64(10)
        n[rows] -= 1
        kept = out[rows]
        rows = rows[kept // _U64(10) * _U64(10) == kept]
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


def _index_digits(first, out):
    """``%d`` of first, first + 1, ... into the rows of the (rows, width)
    view ``out``: right-aligned digits, 0 for each slot a shorter index
    leaves empty."""
    v = np.arange(first, first + out.shape[0], dtype=_U64)
    width = out.shape[1]
    # slot j keeps a digit worth 10**(width - 1 - j) or more; the last, always
    least = _POW10[width - 1::-1].copy()
    least[-1] = 0
    np.multiply(_groups(v, -(-width // 4))[:, -width:], v[:, None] >= least, out=out)


def _layout():
    """Kept bytes (1) of the "0.000" prefix, the integer part, the point and
    the fraction (5 + 17 + 1 + 17 slots), row (p + 3) * 17 + n - 1 for the
    point p in -3..16 and n significant digits, with ".0" after a whole
    number."""
    p = np.arange(-3, 17)[:, None, None]
    n = np.arange(1, 18)[None, :, None]
    j = np.arange(17)
    below_one = p <= 0  # "0." and -p zeros, then the digits from the fraction slots
    prefix = below_one & (np.arange(5) < 2 - p)
    whole = ~below_one & (j < p)
    point = ~below_one
    fraction = np.where(below_one, j < n, (j >= p) & ((j < n) | (j == p)))
    return np.concatenate([np.broadcast_to(a, (20, 17, a.shape[-1]))
                           for a in (prefix, whole, point, fraction)],
                          axis=-1).reshape(-1, 40).astype(np.uint8)


_LAYOUT = _layout()


def _float_field(x):
    """``%r`` of an array of floats as (template, fill): the field's constant
    bytes, and a function that writes its rows into a (rows, width) view, 0
    for each byte dropped.

    Slots: "0.000", integer part, point and 17 fraction slots.  The kernel's
    digits go both to the integer part (as many slots as the chunk's longest
    needs) and to the fraction slots, and the layout row keeps the integer
    part from the first and the rest from the second, so that no byte moves.
    Each value that the kernel does not spell is written over its row from
    ``%``, the block widened to the longest of them."""
    if x.dtype.kind != "f":
        raise ValueError(f"%r takes floats, got {x.dtype}")
    x = np.asarray(x, dtype=np.float64)
    kernel = (x >= _LOW) & (x < _HIGH)
    outside = np.flatnonzero(~kernel)
    texts = np.array([b"%r" % v for v in x[outside].tolist()], dtype="S")
    percent = texts.view(np.uint8).reshape(outside.size, texts.itemsize)
    bits = np.where(kernel, x, 1.0).view(_U64)
    digits, n, point = _decimal(bits, ((bits >> _U64(52)) - _U64(_LOWEST)).view(np.intp))
    whole = max(int(point.max()), 0)  # integer part slots
    end = 23 + whole  # after the fraction slots

    def fill(out):
        ascii_digits = _groups(digits, 5)[:, 3:]
        out[:, 5:5 + whole] = ascii_digits[:, :whole]
        out[:, 6 + whole:end] = ascii_digits
        out[:, :end] *= _LAYOUT[:, np.r_[:5 + whole, 22:40]].take((point + 3) * 17 + n - 1,
                                                                  axis=0)
        out[outside] = 0
        out[outside, :texts.itemsize] = percent

    return b"0.000" + bytes(whole) + b"." + bytes(max(17, texts.itemsize - 6 - whole)), fill


def rows(first, values):
    """The CSV rows ``b"%d,%r\\n" % (first + i, values[i])`` of a non-empty
    chunk of floats, as one bytes object."""
    template, fill = _float_field(np.asarray(values))
    width = len(str(first + len(values) - 1))
    block = np.empty((len(values), width + 2 + len(template)), np.uint8)
    block[:] = np.frombuffer(bytes(width) + b"," + template + b"\n", np.uint8)
    _index_digits(first, block[:, :width])
    fill(block[:, width + 1:-1])
    return block.tobytes().translate(None, b"\0")  # every byte dropped is 0
