import dataclasses
import hashlib
import math
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from fatoulab import map_zoo as mz
from fatoulab import renderer as rd
from fatoulab import rng
from fatoulab.errors import LoopNotInBasin, OutOfRange, UnsupportedMap


def _grid(center, extent, n, max_iter=300, **kw):
    return rd.GridSpec(center=center, width=extent, height=extent,
                       nx=n, ny=n, max_iter=max_iter, **kw)


def test_fixed_point_pixel_attracted_at_step_zero():
    grid = rd.classify_grid(mz.exp_baker(0.4), _grid(1.0 + 0.0j, 1e-9, 1))
    assert grid.verdict[0, 0] == rd.ATTRACTED
    assert grid.steps[0, 0] == 0


def test_sine_origin_attracted():
    grid = rd.classify_grid(mz.sine_model(0.4), _grid(0.0j, 1e-12, 1))
    assert grid.verdict[0, 0] == rd.ATTRACTED
    assert grid.steps[0, 0] == 0


def test_circle_pixel_attracted_with_real_oracle():
    # 1-D oracle: theta -> 2 alpha sin theta pulls 0.3 to 0
    theta, alpha = 0.3, 0.4
    for _ in range(300):
        theta = 2.0 * alpha * math.sin(theta)
    assert abs(theta) < 1e-6

    z = complex(math.cos(0.3), math.sin(0.3))
    grid = rd.classify_grid(mz.exp_baker(alpha), _grid(z, 1e-12, 1, max_iter=400))
    assert grid.verdict[0, 0] == rd.ATTRACTED


def test_unsupported_kind():
    with pytest.raises(UnsupportedMap):
        rd.classify_grid(mz.rotation(0.3), _grid(0.0j, 1.0, 4))


def test_write_image_single_pixel():
    grid = rd.classify_grid(mz.exp_baker(0.4), _grid(1.0 + 0.0j, 1e-9, 1))
    # header plus exactly one attracted-palette pixel at full brightness
    assert b"".join(rd.ppm_chunks(grid)) == b"P6\n1 1\n255\n" + bytes([70, 110, 235])


def test_write_image_deterministic():
    grid = rd.classify_grid(mz.exp_baker(0.4), _grid(0.5 + 0.5j, 2.0, 16, max_iter=60))
    assert b"".join(rd.ppm_chunks(grid)) == b"".join(rd.ppm_chunks(grid))


@pytest.fixture(scope="module")
def baker_grid():
    spec = _grid(0.0j, 8.0, 241, max_iter=300)
    return rd.classify_grid(mz.exp_baker(0.4), spec)


def test_conjugation_symmetry_exact(baker_grid):
    # classify_grid mirrors the lower rows of this axis-centered grid, so
    # they are held against the same pixels iterated by classify_points,
    # which never mirrors or reflects
    g, v, s = baker_grid.spec, baker_grid.verdict, baker_grid.steps
    assert np.array_equal(v, v[::-1, :])
    assert np.array_equal(s, s[::-1, :])
    lower = (g.ny - g.ny // 2) * g.nx
    v_alone, s_alone = rd.classify_points(mz.exp_baker(0.4),
                                          g.block_points(lower, g.ny * g.nx), g.max_iter)
    assert np.array_equal(v_alone, v.ravel()[lower:])
    assert np.array_equal(s_alone, s.ravel()[lower:])
    # the grid is centered at 0, so its right columns are the point
    # reflections of the left ones, filled from the same orbits: the upper
    # rows' right columns, the rest of what is not iterated, too
    top, left = g.ny - g.ny // 2, g.nx - g.nx // 2
    v_alone, s_alone = rd.classify_points(mz.exp_baker(0.4), g.points()[:top, left:],
                                          g.max_iter)
    assert np.array_equal(v_alone, v[:top, left:].ravel())
    assert np.array_equal(s_alone, s[:top, left:].ravel())


def _assert_reciprocal_swap(grid):
    pts = grid.spec.points().ravel()[::173]
    pts = pts[pts != 0]
    with np.errstate(divide="ignore"):
        recips = 1.0 / pts
    spec = mz.exp_baker(0.4)
    v1, _ = rd.classify_points(spec, pts, 300, reciprocals=recips)
    v2, _ = rd.classify_points(spec, recips, 300, reciprocals=pts)
    swap = np.array([rd.UNDECIDED, rd.ATTRACTED, rd.ESCAPED_INFINITY,
                     rd.ESCAPED_ZERO, rd.SINGULAR], dtype=np.uint8)
    assert np.array_equal(v1, swap[v2])


def test_reciprocal_swap_symmetry(baker_grid):
    _assert_reciprocal_swap(baker_grid)


def test_reciprocal_swap_symmetry_across_blocks(baker_grid, monkeypatch):
    monkeypatch.setattr(rng, "CHUNK", 37)
    _assert_reciprocal_swap(baker_grid)


def test_zero_infinity_escape_counts_match(baker_grid):
    # the grid window is symmetric under z -> 1/z only statistically, but
    # conj symmetry plus f(1/z) = 1/f(z) forces both escape ends to appear
    v = baker_grid.verdict
    assert (v == rd.ESCAPED_ZERO).sum() > 0
    assert (v == rd.ESCAPED_INFINITY).sum() > 0


def test_loop_probe_positive_on_baker(baker_grid):
    cert = rd.loop_probe(baker_grid, 0.0j, 1.0)
    assert cert.verdict
    assert cert.inside_nonbasin > 0
    assert cert.outside_nonbasin > 0


def test_loop_probe_negative_inside_sine_basin():
    spec = _grid(0.0j, 2.0, 201, max_iter=200)
    grid = rd.classify_grid(mz.sine_model(0.4), spec)
    cert = rd.loop_probe(grid, 0.0j, 0.3)
    assert not cert.verdict
    assert cert.inside_nonbasin == 0


def test_loop_probe_rejects_non_basin_loop(baker_grid):
    # a loop hugging the origin crosses the non-attracted material there
    with pytest.raises(LoopNotInBasin):
        rd.loop_probe(baker_grid, 0.0j, 0.02)


def test_loop_probe_validation(baker_grid):
    with pytest.raises(OutOfRange):
        rd.loop_probe(baker_grid, 0.0j, 100.0)
    with pytest.raises(OutOfRange):
        rd.loop_probe(baker_grid, 0.0j, -1.0)
    # refused before rasterizing: at radius 1e12 the samples alone would
    # not fit in memory
    for center, radius in [(0.0j, math.inf), (0.0j, math.nan), (0.0j, 1e12),
                           (complex(math.nan, 0.0), 1.0), (complex(0.0, math.inf), 1.0),
                           (3.9 + 0.0j, 0.5), (-3.0j, 1.5)]:
        with pytest.raises(OutOfRange):
            rd.loop_probe(baker_grid, center, radius)


# one grid per kernel, each with more than one verdict, and a probe loop
_KERNEL_GRIDS = [
    (mz.exp_baker(0.4), _grid(0.2 + 0.1j, 6.0, 96, max_iter=120), (0.0j, 1.0)),
    (mz.sine_model(0.4), _grid(0.1 + 0.2j, 8.0, 96, max_iter=120), (0.0j, 0.5)),
    (mz.mcmullen(2, 2, 1e-4), _grid(0.05j, 4.0, 96, max_iter=120), (0.0j, 1.0)),
    # centered on the real axis, so only the top 41 rows are classified
    (mz.exp_baker(0.4), rd.GridSpec(0.0j, 6.0, 5.0, 96, 81, 120), (0.0j, 1.0)),
    # centered at 0 with odd nx and ny: the top-left 41 x 48 pixels are
    # iterated, in blocks that straddle the rows of that quadrant
    (mz.exp_baker(0.4), rd.GridSpec(0.0j, 6.0, 5.0, 95, 81, 120), (0.0j, 1.0)),
    # centered at 0 and not paired, with even and with odd sides: the
    # reflection and both mirror copies fill the pixels not iterated
    (mz.sine_model(0.4), _grid(0.0j, 8.0, 96, max_iter=120), (0.0j, 0.5)),
    (mz.mcmullen(3, 3, 0.1), _grid(0.0j, 2.0, 95, max_iter=120), (0.0j, 0.5)),
]


def _probe(grid, loop):
    """The loop certificate, or the refusal: mcmullen has no attracting
    fixed point, so no loop lies in its basin."""
    try:
        return asdict(rd.loop_probe(grid, *loop))
    except LoopNotInBasin as exc:
        return str(exc)


def test_threads_do_not_change_results(monkeypatch):
    for spec, grid, loop in _KERNEL_GRIDS:
        assert grid.nx * grid.ny <= rng.CHUNK  # the reference is one block
        ref = rd.classify_grid(spec, grid)
        assert len(np.unique(ref.verdict)) > 1
        ref_ppm, ref_probe = b"".join(rd.ppm_chunks(ref)), _probe(ref, loop)
        ref_counts = {name: int((ref.verdict == code).sum())
                      for code, name in rd.VERDICT_NAMES.items()}
        with monkeypatch.context() as m:
            m.setattr(rng, "CHUNK", 37)  # many blocks; 37 does not divide 96 * 96
            for threads in (1, 2, 3):
                got = rd.classify_grid(spec, grid, threads=threads)
                assert np.array_equal(got.verdict, ref.verdict), (spec.kind, threads)
                assert np.array_equal(got.steps, ref.steps), (spec.kind, threads)
                assert b"".join(rd.ppm_chunks(got)) == ref_ppm, (spec.kind, threads)
                assert _probe(got, loop) == ref_probe, (spec.kind, threads)
                assert rd.verdict_counts(got) == ref_counts, (spec.kind, threads)


# axis-centered grids that classify_grid must not mirror: a non-real
# parameter or target breaks the conjugation symmetry
_UNMIRRORED_AXIS_GRIDS = [
    pytest.param(mz.mcmullen(2, 2, 1e-4 + 1e-4j), _grid(0.0j, 4.0, 25, max_iter=60),
                 id="mcmullen-complex-c"),
    pytest.param(mz.exp_baker(0.4),
                 _grid(0.0j, 6.0, 25, max_iter=60, tol=0.05, target=1.0 + 0.03j),
                 id="exp_baker-complex-target"),
]

# zero-centered grids that classify_grid must not reflect: off 0 by a
# little, a sine_model target that is not 0 (with a tol that reaches 0)
# and mcmullen with m and l of mixed parity
_UNREFLECTED_GRIDS = [
    pytest.param(mz.exp_baker(0.4), rd.GridSpec(1e-3 + 0.0j, 2.0, 2.0, 23, 23, 60),
                 id="exp_baker-off-zero"),
    pytest.param(mz.sine_model(0.4),
                 rd.GridSpec(0.0j, 8.0, 8.0, 23, 23, 60, tol=0.6, target=0.5 + 0.0j),
                 id="sine_model-target"),
    pytest.param(mz.mcmullen(2, 3, 1e-4), rd.GridSpec(0.0j, 4.0, 4.0, 23, 23, 60),
                 id="mcmullen-mixed-parity"),
]

# one grid per kernel, small enough to classify pixel by pixel; the first
# three are off the axis, the axis-centered ones are mirrored, with odd
# and even ny, and the last are not; every grid centered at 0 is also
# reflected but the unreflected ones, nx odd putting a column on the
# imaginary axis.  The exp_baker windows are 2 wide, so that each holds
# escaping pixels: with the trapping disk, some 6 wide are all attracted
# within 60 steps
_ALONE_GRIDS = [
    pytest.param(mz.exp_baker(0.4), _grid(0.2 + 0.1j, 2.0, 31, max_iter=60), id="exp_baker"),
    pytest.param(mz.sine_model(0.4), _grid(0.1 + 0.2j, 8.0, 31, max_iter=60), id="sine_model"),
    pytest.param(mz.mcmullen(2, 2, 1e-4), _grid(0.05j, 4.0, 31, max_iter=60), id="mcmullen"),
] + [
    pytest.param(spec, rd.GridSpec(0.0j, extent, extent, 24, ny, 60),
                 id=f"{spec.kind}-axis-{'odd' if ny % 2 else 'even'}")
    for spec, extent in [(mz.exp_baker(0.4), 2.0), (mz.sine_model(0.4), 8.0),
                         (mz.mcmullen(2, 2, 1e-4), 4.0)]
    for ny in (23, 24)
] + _UNMIRRORED_AXIS_GRIDS + [
    pytest.param(spec, rd.GridSpec(0.0j, extent, extent, 23, ny, 60),
                 id=f"{name}-zero-odd-nx-{'odd' if ny % 2 else 'even'}-ny")
    for spec, extent, name in [(mz.exp_baker(0.4), 2.0, "exp_baker"),
                               (mz.sine_model(0.4), 8.0, "sine_model"),
                               (mz.mcmullen(2, 2, 1e-4), 4.0, "mcmullen"),
                               (mz.mcmullen(3, 3, 0.1), 2.0, "mcmullen-odd")]
    for ny in (23, 24)
] + [
    # reflected, not mirrored: -z0 is not conj(z0) of a mirrored row
    pytest.param(mz.MapSpec(mz.EXP_BAKER, (0.4 + 0.05j,)), rd.GridSpec(0.0j, 2.0, 2.0, 23, 23, 60),
                 id="exp_baker-complex-alpha"),
    # tol 0.2 attracts pixels near 1 and, reflected, near -1 at step 0
    pytest.param(mz.exp_baker(0.4),
                 rd.GridSpec(0.0j, 2.0, 2.0, 24, 23, 60, tol=0.2, target=1.0 + 0.03j),
                 id="exp_baker-complex-target-even-nx"),
] + _UNREFLECTED_GRIDS


@pytest.mark.parametrize("spec, grid", _ALONE_GRIDS)
def test_pixel_alone_matches_the_grid(spec, grid):
    # numpy rounds some ufuncs differently on a one-element array (an
    # aliased np.square(z, out=z), for one), so a step that is not
    # elementwise-exact shows here as a pixel that differs when alone; a
    # mirrored row that differs from its pixels iterated alone shows too
    ref = rd.classify_grid(spec, grid)
    assert len(np.unique(ref.verdict)) > 1
    for j, z0 in enumerate(grid.points().ravel()):
        v, s = rd.classify_points(spec, [z0], grid.max_iter, tol=grid.tol,
                                  escape_radius=grid.escape_radius, target=grid.target)
        assert (v[0], s[0]) == (ref.verdict.flat[j], ref.steps.flat[j]), (j, z0)


@pytest.mark.parametrize("spec, grid", _UNMIRRORED_AXIS_GRIDS)
def test_asymmetric_axis_grids_are_not_mirrored(spec, grid):
    # these grids are not row-symmetric, so a mirror would fail the
    # pixel-alone test on them
    ref = rd.classify_grid(spec, grid)
    assert not (np.array_equal(ref.verdict, ref.verdict[::-1])
                and np.array_equal(ref.steps, ref.steps[::-1]))


@pytest.mark.parametrize("spec, grid", _UNREFLECTED_GRIDS)
def test_unsymmetric_zero_grids_are_not_reflected(spec, grid):
    # a reflection would fill each pixel right of the middle column from
    # the orbit of the pixel z0 it mirrors through 0: exp_baker with the
    # results of -z0, the other kinds with those of z0, which on these
    # mirrored grids would make them column-symmetric.  The grids differ
    # from that, so a reflection would fail the pixel-alone test on them
    ref = rd.classify_grid(spec, grid)
    left = grid.nx - grid.nx // 2
    z0 = grid.points()[::-1, ::-1][:, left:]
    v, s = rd.classify_points(spec, -z0 if spec.kind == mz.EXP_BAKER else z0, grid.max_iter,
                              tol=grid.tol, target=grid.target)
    assert not (np.array_equal(v, ref.verdict[:, left:].ravel())
                and np.array_equal(s, ref.steps[:, left:].ravel()))
    if spec.kind != mz.EXP_BAKER:
        assert not (np.array_equal(ref.verdict, ref.verdict[:, ::-1])
                    and np.array_equal(ref.steps, ref.steps[:, ::-1]))


def test_start_points_iterated(monkeypatch):
    # the kernels see the top-left quadrant of a zero-centered golden
    # grid, the middle row and column included, and every pixel off the
    # real axis
    seen = []

    def counting(factory):
        def kernel(*args):
            seen.append(args[-6].size)  # the start points z0
            return factory(*args)
        return kernel

    monkeypatch.setattr(rd, "_KINDS", {k: counting(f) for k, f in rd._KINDS.items()})
    for spec, extent, *_ in _GOLDEN_RENDERS:
        seen.clear()
        rd.classify_grid(spec, _grid(0.0j, extent, 119, max_iter=64))
        assert sum(seen) == 60 * 60, spec.kind
        seen.clear()
        rd.classify_grid(spec, _grid(0.01 + 0.01j, extent, 119, max_iter=64))
        assert sum(seen) == 119 * 119, spec.kind


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_render_memory_bounded_by_block(monkeypatch):
    # beyond its outputs (verdicts and steps, 2 bytes a pixel at max_iter
    # 80), a render holds a fixed number of blocks, in the palette pass and
    # the loop probe too: the PPM streams chunk by chunk, and a whole-image
    # buffer (3 bytes a pixel) would break the bound on the large grid.
    # The symmetries iterate a quarter of the pixels: 2 blocks of the small
    # grid and 32 of the large one, which paints 128.  The pixels are 1/8
    # wide in both, so that the loop probe, whose samples grow with the
    # loop's length in pixels, takes as many; a small block keeps the test
    # fast
    block = 2_048
    monkeypatch.setattr(rng, "CHUNK", block)
    spec = mz.exp_baker(0.4)

    def beyond_outputs(nx, ny):
        grid = rd.GridSpec(0.0j, nx / 8, ny / 8, nx, ny, 80)
        outputs = []

        def render():
            out = rd.classify_grid(spec, grid)
            outputs.append(out.verdict.nbytes + out.steps.nbytes)
            size = sum(len(chunk) for chunk in rd.ppm_chunks(out))
            assert size == len(f"P6\n{nx} {ny}\n255\n") + 3 * nx * ny
            assert rd.loop_probe(out, 0.0j, 1.0).verdict

        peak = _peak_bytes(render)
        assert outputs == [2 * nx * ny]
        return peak - outputs[0]

    small = beyond_outputs(128, 128)
    large = beyond_outputs(512, 512)
    assert 64 * 64 == 2 * block and 512 * 512 == 128 * block
    assert large <= 1.5 * small, (small, large)


# sha256 of the PPM bytes and of the steps as int32 bytes; any change to a kernel,
# the palette or the PPM writer that moves a byte fails here.  Computed with
# numpy 2.4 on x86-64 Linux (glibc): a libm that rounds complex exp or sin
# differently in the last bit moves them too.
_GOLDEN_RENDERS = [
    (mz.exp_baker(0.4), 8.0,
     "6e79725603e35b16e3cf690b0480aca8a5d842037fb7bf8abb8acc7a3b7722a7",
     "0f11620f075e039961c0ef5b914fcf3bca87c45ed16def196ea82ce81150d6d1"),
    (mz.sine_model(0.4), 8.0,
     "03bd4a2037301548ef63d54d8c34896af7d3478627eebcd39397ab54e2fa361b",
     "61c58c7ae27f8502d6f35e227f59e7fb44a3f010cd604c33676c9be2cac000b0"),
    (mz.mcmullen(2, 2, 1e-4), 4.0,
     "fdb8015623d00c098cd76eaf17484aaafca8d8ba0d0ab5a1a2033f67e66afbc5",
     "4ba8f47dcfdac4dc3144d47f80cdd3df6cad626ba9346dc3b7317b5c0bf8a806"),
]


@pytest.mark.parametrize("spec, extent, ppm_sha, steps_sha", _GOLDEN_RENDERS,
                         ids=[g[0].kind for g in _GOLDEN_RENDERS])
def test_golden_render_bytes(spec, extent, ppm_sha, steps_sha):
    # 119 is odd, so the center pixel sits on the origin (singular for
    # exp_baker, the pole for mcmullen); max_iter 64 leaves undecided
    # mcmullen pixels
    grid = rd.classify_grid(spec, _grid(0.0j, extent, 119, max_iter=64))
    assert hashlib.sha256(b"".join(rd.ppm_chunks(grid))).hexdigest() == ppm_sha
    # steps are stored in the narrowest unsigned type that holds max_iter
    assert grid.steps.dtype == np.min_scalar_type(64) == np.uint8
    assert hashlib.sha256(grid.steps.astype(np.int32).tobytes()).hexdigest() == steps_sha


@pytest.mark.parametrize("max_iter, dtype", [(255, np.uint8), (256, np.uint16),
                                             (65_536, np.uint32)])
def test_steps_in_narrowest_type(monkeypatch, max_iter, dtype):
    # 0.98 sin z on the real line contracts to 0 by about 0.98 a step: with
    # the explicit target 0, tested at tol 1e-3 (the default target's
    # trapping disk would take them in sooner), the points retire after up
    # to 287 steps, so some exceed 255
    spec = mz.sine_model(0.49)
    grid = rd.GridSpec(0.0j, 3.0, 1e-9, 41, 1, max_iter, tol=1e-3, target=0.0j)
    points = grid.points().ravel()

    def run():
        got = rd.classify_grid(spec, grid)
        return (got.verdict.ravel(), got.steps.ravel()), rd.classify_points(
            spec, points, max_iter, tol=1e-3, target=0.0j)

    narrow = run()
    monkeypatch.setattr(rd, "_steps_dtype", lambda max_iter: np.dtype(np.int32))
    wide = run()
    for (v, s), (ref_v, ref_s) in zip(narrow, wide):
        assert s.dtype == dtype and ref_s.dtype == np.int32
        assert np.array_equal(v, ref_v) and np.array_equal(s, ref_s)
    verdict, steps = wide[0]
    assert 0 < steps.max() <= max_iter
    if max_iter > 65_535:
        assert (verdict == rd.ATTRACTED).all() and steps.max() > 255


def test_mcmullen_classification():
    spec = _grid(0.0j, 4.0, 101, max_iter=80)
    grid = rd.classify_grid(mz.mcmullen(2, 2, 1e-4), spec)
    assert (grid.verdict == rd.ESCAPED_INFINITY).sum() > 0
    # the central pixel sits on the pole and maps straight to infinity
    mid = 50
    assert grid.verdict[mid, mid] == rd.ESCAPED_INFINITY


def test_overflowing_step_escapes_quietly():
    # z**2 overflows on the first step from 1e200; the pixel escapes at step
    # 1, and no RuntimeWarning leaks (the test settings make one an error)
    v, s = rd.classify_points(mz.mcmullen(2, 2, 1e-4), [1e200], 10, escape_radius=1e300)
    assert (v[0], s[0]) == (rd.ESCAPED_INFINITY, 1)


def test_undecided_is_first_class():
    spec = _grid(3.0 + 2.0j, 0.5, 8, max_iter=1)
    grid = rd.classify_grid(mz.exp_baker(0.4), spec)
    assert (grid.verdict == rd.UNDECIDED).sum() > 0


def test_block_points_match_the_broadcast_formula():
    # the whole grid at once, as the reference: half-integer offsets from
    # the center, row 0 at the top
    spec = rd.GridSpec(0.3 - 0.7j, 5.0, 2.5, 37, 23, 10)
    dx, dy = spec.pixel_size()
    xs = spec.center.real + (np.arange(spec.nx) + 0.5 - spec.nx / 2.0) * dx
    ys = spec.center.imag + (spec.ny / 2.0 - 0.5 - np.arange(spec.ny)) * dy
    ref = (xs[None, :] + 1j * ys[:, None]).ravel()
    assert np.array_equal(spec.points().ravel(), ref)
    scratch = rd._point_scratch(100)
    # blocks of up to 100 pixels, most of them straddling rows
    bounds = [0, 1, 36, 37, 100, 137, 200, 290, 389, 488, 587, 686, 785, 37 * 23]
    for start, stop in zip(bounds, bounds[1:]):
        got = spec.block_points(start, stop, scratch)
        assert got.tobytes() == ref[start:stop].tobytes(), (start, stop)


def test_grid_spec_json_round_trip():
    spec = _grid(0.5 - 0.25j, 3.0, 17, max_iter=44, target=1.0 + 0.0j)
    back = rd.GridSpec.from_json(__import__("json").dumps(spec.to_dict()))
    assert back == spec


def test_grid_spec_validation():
    with pytest.raises(OutOfRange):
        rd.GridSpec(0.0j, 1.0, 1.0, 0, 4, 10)
    with pytest.raises(OutOfRange):
        rd.GridSpec(0.0j, -1.0, 1.0, 4, 4, 10)
    with pytest.raises(OutOfRange):
        rd.GridSpec(0.0j, 1.0, 1.0, 4, 4, 0)
    nan, inf = math.nan, math.inf
    bad = [dict(center=complex(nan, 0.0)), dict(center=complex(0.0, inf)),
           dict(width=nan), dict(width=inf), dict(height=nan), dict(height=inf),
           dict(tol=0.0), dict(tol=-1e-6), dict(tol=nan), dict(tol=inf),
           dict(escape_radius=1.0), dict(escape_radius=0.0),
           dict(escape_radius=-5.0), dict(escape_radius=nan), dict(escape_radius=inf),
           dict(target=complex(nan, 0.0)), dict(target=complex(0.0, inf))]
    for kw in bad:
        args = dict(center=0.0j, width=1.0, height=1.0, nx=4, ny=4, max_iter=10)
        with pytest.raises(OutOfRange):
            rd.GridSpec(**{**args, **kw})


def test_classify_points_validation():
    # the orbit contract of GridSpec holds for arbitrary start points too:
    # unchecked, escape_radius 0 dies in math.log, and tol nan or max_iter
    # -3 report every point undecided, and so does a target that is not
    # finite, even for the attracting fixed point itself
    nan, inf = math.nan, math.inf
    bad = [dict(escape_radius=0.0), dict(escape_radius=-5.0), dict(escape_radius=1.0),
           dict(escape_radius=nan), dict(escape_radius=inf), dict(tol=nan), dict(tol=-1.0),
           dict(tol=0.0), dict(tol=inf), dict(max_iter=-3), dict(max_iter=0),
           dict(target=nan), dict(target=complex(inf, 0.0)), dict(target=complex(0.0, nan))]
    for spec in (mz.exp_baker(0.4), mz.sine_model(0.4), mz.mcmullen(2, 2, 1e-4)):
        for kw in bad:
            with pytest.raises(OutOfRange):
                rd.classify_points(spec, [1.0 + 0.0j], **{"max_iter": 10, **kw})


# alphas of the trapping-disk tests; a negative or complex alpha builds the
# spec directly, as the factories take a real alpha in (0, 1/2)
_TRAP_ALPHAS = [0.05, 0.1, 0.25, 0.4, 0.49, 0.4999, -0.3, 0.4 + 0.05j]
# the largest trapping radius of each kind: exp_baker's disk stays inside
# 1/2 <= |z| <= 3/2 and sine_model's within 1 of 0, where no escape test fires
_TRAP_CAPS = {mz.EXP_BAKER: 0.5, mz.SINE_MODEL: 1.0}


def _one_step(spec, z, radius, target):
    """z after one step of the kind's kernel."""
    orbits = rd._KINDS[spec.kind](*spec.params, z, None, radius,
                                  rd.DEFAULT_ESCAPE_RADIUS, target, False)
    arrays, _singular = orbits.start()
    if orbits.advance is not None:
        orbits.advance(*arrays)
    orbits.step(*arrays)
    return arrays[0]


@pytest.mark.parametrize("alpha", _TRAP_ALPHAS)
@pytest.mark.parametrize("kind", [mz.EXP_BAKER, mz.SINE_MODEL])
def test_trapping_disk_maps_into_a_smaller_disk(kind, alpha):
    # one kernel step takes 1e4 points on and inside the trap circle to
    # within rho * r_trap of the fixed point, rho = (1 + 2|alpha|)/2 < 1:
    # the hypothesis of the Earle-Hamilton theorem
    spec = mz.MapSpec(kind, (alpha,))
    target, radius = mz.trapping_disk(spec)
    assert 1e-12 < radius <= _TRAP_CAPS[kind]
    n = 5_000
    k = np.arange(n)
    turns = np.exp(2j * math.pi * ((k * 0.6180339887498949) % 1.0))
    z = target + radius * np.concatenate([turns, np.sqrt((k + 0.5) / n) * turns[::-1]])
    stepped = _one_step(spec, z, radius, target)
    assert np.abs(stepped - target).max() <= (0.5 + abs(alpha)) * radius + 1e-12


@pytest.mark.parametrize("kind", [mz.EXP_BAKER, mz.SINE_MODEL])
def test_trapping_radius_reaches_its_cap(kind):
    # small multipliers certify the whole capped disk, whatever alpha's sign
    # or phase; the cap holds for every alpha
    cap = _TRAP_CAPS[kind]
    for alpha in (0.05, 0.1, -0.1, 0.1j, 0.25):
        assert mz.trapping_disk(mz.MapSpec(kind, (alpha,)))[1] == cap
    assert all(mz.trapping_disk(mz.MapSpec(kind, (alpha,)))[1] < cap
               for alpha in (0.4, 0.49, 0.4 + 0.05j))


def test_trapping_radius_is_sharp():
    # no bound halved: at alpha 0.4 the radius is ~0.46 (exp_baker, from
    # the sampled bound) and ~0.85 (sine_model), where half the closed-form
    # radius gave 0.030 and 0.425; near 2|alpha| = 1, where the sampled
    # bound cannot hold, the closed-form one still gives a disk
    assert mz.trapping_disk(mz.exp_baker(0.4))[1] > 0.4
    assert mz.trapping_disk(mz.sine_model(0.4))[1] > 0.8
    assert mz.trapping_disk(mz.exp_baker(0.4999))[1] > 4e-5
    assert mz.trapping_disk(mz.sine_model(0.4999))[1] > 0.02


@pytest.mark.parametrize("kind", [mz.EXP_BAKER, mz.SINE_MODEL])
def test_attraction_radius_is_tol_without_a_trap(kind):
    # no trapping disk for 2|alpha| >= 1, for an explicit target, even the
    # default one, and for an escape radius below 2
    tol = 1e-6
    for alpha in (0.5, 0.6, -0.5, 0.45 + 0.3j):
        spec = mz.MapSpec(kind, (alpha,))
        assert mz.trapping_disk(spec)[1] == 0.0
        assert rd._attraction_test(spec, tol, rd.DEFAULT_ESCAPE_RADIUS, None)[1] == tol
    spec = mz.MapSpec(kind, (0.4,))
    point = mz.trapping_disk(spec)[0]
    assert rd._attraction_test(spec, tol, rd.DEFAULT_ESCAPE_RADIUS, point) == (point, tol)
    assert rd._attraction_test(spec, tol, 1.5, None) == (point, tol)
    # a tol beyond the trap radius is kept
    assert rd._attraction_test(spec, 0.9, rd.DEFAULT_ESCAPE_RADIUS, None) == (point, 0.9)
    grid = rd.classify_grid(spec, _grid(0.3 + 0.2j, 1.0, 3, max_iter=5))
    assert grid.attraction_radius > tol
    assert rd.classify_grid(mz.mcmullen(2, 2, 1e-4), _grid(0.3j, 1.0, 3)).attraction_radius is None


# the golden grids of this module and of the CLI's, and a 200^2 window of the
# criterion-11 grid
_TRAP_GRIDS = [(spec, _grid(0.0j, extent, 119, max_iter=64)) for spec, extent, *_ in
               _GOLDEN_RENDERS[:2]] + [
    (spec, _grid(0.0j, 8.0, n, max_iter=max_iter))
    for spec in (mz.exp_baker(0.4), mz.sine_model(0.4))
    for n, max_iter in ((64, 100), (200, 500))]


@pytest.mark.parametrize("spec, grid", _TRAP_GRIDS,
                         ids=[f"{s.kind}-{g.nx}" for s, g in _TRAP_GRIDS])
def test_trap_keeps_verdicts(spec, grid):
    # the default target, tested over its trapping disk, against the same
    # point as an explicit target, tested at tol: an orbit in the disk can
    # neither escape nor land on a singularity, so only undecided pixels may
    # turn attracted, and an attracted pixel retires no later
    trapped = rd.classify_grid(spec, grid)
    point = mz.trapping_disk(spec)[0]
    plain = rd.classify_grid(spec, dataclasses.replace(grid, target=point))
    assert trapped.attraction_radius > plain.attraction_radius == grid.tol
    moved = trapped.verdict != plain.verdict
    assert (plain.verdict[moved] == rd.UNDECIDED).all()
    assert (trapped.verdict[moved] == rd.ATTRACTED).all()
    attracted = plain.verdict == rd.ATTRACTED
    assert (trapped.steps[attracted] <= plain.steps[attracted]).all()
    assert trapped.steps[attracted].sum() < plain.steps[attracted].sum()
