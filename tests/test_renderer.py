import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from fatoulab import map_zoo as mz
from fatoulab import renderer as rd
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


def test_write_image_single_pixel(tmp_path):
    grid = rd.classify_grid(mz.exp_baker(0.4), _grid(1.0 + 0.0j, 1e-9, 1))
    path = tmp_path / "one.ppm"
    rd.write_image(grid, path)
    data = path.read_bytes()
    # header plus exactly one attracted-palette pixel at full brightness
    assert data == b"P6\n1 1\n255\n" + bytes([70, 110, 235])


def test_write_image_deterministic(tmp_path):
    grid = rd.classify_grid(mz.exp_baker(0.4), _grid(0.5 + 0.5j, 2.0, 16, max_iter=60))
    p1, p2 = tmp_path / "a.ppm", tmp_path / "b.ppm"
    rd.write_image(grid, p1)
    rd.write_image(grid, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_write_image_bad_path():
    grid = rd.classify_grid(mz.exp_baker(0.4), _grid(1.0 + 0.0j, 1e-9, 1))
    with pytest.raises(OSError) as exc:
        rd.write_image(grid, "/nonexistent-dir/out.ppm")
    assert "/nonexistent-dir/out.ppm" in str(exc.value)


@pytest.fixture(scope="module")
def baker_grid():
    spec = _grid(0.0j, 8.0, 241, max_iter=300)
    return rd.classify_grid(mz.exp_baker(0.4), spec)


def test_conjugation_symmetry_exact(baker_grid):
    v = baker_grid.verdict
    s = baker_grid.steps
    assert np.array_equal(v, v[::-1, :])
    assert np.array_equal(s, s[::-1, :])


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
    monkeypatch.setattr(rd, "BLOCK", 37)
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
]


def _probe(grid, loop):
    """The loop certificate, or the refusal: mcmullen has no attracting
    fixed point, so no loop lies in its basin."""
    try:
        return rd.loop_probe(grid, *loop).to_dict()
    except LoopNotInBasin as exc:
        return str(exc)


def test_threads_do_not_change_results(monkeypatch):
    for spec, grid, loop in _KERNEL_GRIDS:
        assert grid.nx * grid.ny <= rd.BLOCK  # the reference is one block
        ref = rd.classify_grid(spec, grid)
        assert len(np.unique(ref.verdict)) > 1
        ref_ppm, ref_probe = rd.ppm_bytes(ref), _probe(ref, loop)
        ref_counts = {name: int((ref.verdict == code).sum())
                      for code, name in rd.VERDICT_NAMES.items()}
        with monkeypatch.context() as m:
            m.setattr(rd, "BLOCK", 37)  # many blocks; 37 does not divide 96 * 96
            for threads in (1, 2, 3):
                got = rd.classify_grid(spec, grid, threads=threads)
                assert np.array_equal(got.verdict, ref.verdict), (spec.kind, threads)
                assert np.array_equal(got.steps, ref.steps), (spec.kind, threads)
                assert rd.ppm_bytes(got) == ref_ppm, (spec.kind, threads)
                assert _probe(got, loop) == ref_probe, (spec.kind, threads)
                assert rd.verdict_counts(got) == ref_counts, (spec.kind, threads)


# one grid per kernel, small enough to classify pixel by pixel
_ALONE_GRIDS = [
    (mz.exp_baker(0.4), _grid(0.2 + 0.1j, 6.0, 31, max_iter=60)),
    (mz.sine_model(0.4), _grid(0.1 + 0.2j, 8.0, 31, max_iter=60)),
    (mz.mcmullen(2, 2, 1e-4), _grid(0.05j, 4.0, 31, max_iter=60)),
]


@pytest.mark.parametrize("spec, grid", _ALONE_GRIDS, ids=[g[0].kind for g in _ALONE_GRIDS])
def test_pixel_alone_matches_the_grid(spec, grid):
    # numpy rounds some ufuncs differently on a one-element array (an
    # aliased np.square(z, out=z), for one), so a step that is not
    # elementwise-exact shows here as a pixel that differs when alone
    ref = rd.classify_grid(spec, grid)
    assert len(np.unique(ref.verdict)) > 1
    for j, z0 in enumerate(grid.points().ravel()):
        v, s = rd.classify_points(spec, [z0], grid.max_iter)
        assert (v[0], s[0]) == (ref.verdict.flat[j], ref.steps.flat[j]), (j, z0)


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_render_memory_bounded_by_block(monkeypatch):
    # beyond its outputs (verdict, steps and the PPM: 8 bytes a pixel plus
    # the header), a render holds a fixed number of blocks, in the palette
    # pass and the loop probe too; a small block keeps the test fast
    block = 2_048
    monkeypatch.setattr(rd, "BLOCK", block)
    spec = mz.exp_baker(0.4)

    def beyond_outputs(nx, ny):
        grid = rd.GridSpec(0.0j, 8.0, 8.0, nx, ny, 80)

        def render():
            out = rd.classify_grid(spec, grid)
            ppm = rd.ppm_bytes(out)
            assert rd.loop_probe(out, 0.0j, 1.0).verdict
            return ppm

        header = len(f"P6\n{nx} {ny}\n255\n")
        return _peak_bytes(render) - 8 * nx * ny - header

    two = beyond_outputs(64, 64)
    sixteen = beyond_outputs(128, 256)
    assert 64 * 64 == 2 * block and 128 * 256 == 16 * block
    assert sixteen <= 1.5 * two, (two, sixteen)


# sha256 of the PPM bytes and of steps.tobytes(); any change to a kernel,
# the palette or the PPM writer that moves a byte fails here.  Computed with
# numpy 2.4 on x86-64 Linux (glibc): a libm that rounds complex exp or sin
# differently in the last bit moves them too.
_GOLDEN_RENDERS = [
    (mz.exp_baker(0.4), 8.0,
     "1d993f0b53090ff0563b40eaebc458e4112a20bf59fd62357f3a39329501db59",
     "f46b7de527278eb9f854a44b0f184f9104ca994d229cce4b2b55924b854945cb"),
    (mz.sine_model(0.4), 8.0,
     "f19cdc0d28b85569e8b84718e1e595d8e0ef2dc48b69fd1bd5321924d6646519",
     "f134cbc045102ecd63f99301a5d4596b081b8d86d0fba11771917b8d67196986"),
    (mz.mcmullen(2, 2, 1e-4), 4.0,
     "fdb8015623d00c098cd76eaf17484aaafca8d8ba0d0ab5a1a2033f67e66afbc5",
     "4ba8f47dcfdac4dc3144d47f80cdd3df6cad626ba9346dc3b7317b5c0bf8a806"),
]


@pytest.mark.parametrize("spec, extent, ppm_sha, steps_sha", _GOLDEN_RENDERS,
                         ids=[g[0].kind for g in _GOLDEN_RENDERS])
def test_golden_render_bytes(spec, extent, ppm_sha, steps_sha):
    # 119 is odd, so the center pixel sits on the origin (singular for
    # exp_baker, the pole for mcmullen); max_iter 64 leaves undecided pixels
    grid = rd.classify_grid(spec, _grid(0.0j, extent, 119, max_iter=64))
    assert hashlib.sha256(rd.ppm_bytes(grid)).hexdigest() == ppm_sha
    assert hashlib.sha256(grid.steps.tobytes()).hexdigest() == steps_sha


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
           dict(escape_radius=-5.0), dict(escape_radius=nan), dict(escape_radius=inf)]
    for kw in bad:
        args = dict(center=0.0j, width=1.0, height=1.0, nx=4, ny=4, max_iter=10)
        with pytest.raises(OutOfRange):
            rd.GridSpec(**{**args, **kw})
