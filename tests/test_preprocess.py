import numpy as np
import pytest

from conftest import bump_field
from phaseuq.errors import (
    CoverageGap,
    DegenerateRange,
    MaskTooSmall,
    NonFiniteInput,
    ShapeMismatch,
    SizeMismatch,
)
from phaseuq.grid import RealRaster
from phaseuq.preprocess import (
    NoiseEstimate,
    PatchGrid,
    clip_dynamic_range,
    estimate_noise,
    extract_patches,
    normalize_unit,
    stitch_alpha_blend,
    unwrap_phase,
    wrap_phase,
)


def tilt(n, span):
    yy, xx = np.mgrid[0:n, 0:n].astype(float)
    return span * (yy + xx) / (2 * (n - 1))


def rms(a):
    return np.sqrt(np.mean((a - a.mean()) ** 2))


# ---- unwrapping ----


def test_wrap_range():
    v = wrap_phase(np.linspace(-20, 20, 1001))
    assert v.min() >= -np.pi and v.max() < np.pi


def test_unwrap_identity_when_no_wraps():
    phi = tilt(64, 2.5) - 1.25
    out = unwrap_phase(RealRaster(wrap_phase(phi)))
    assert rms(out.data - phi) < 1e-9


def test_unwrap_4pi_ramp():
    phi = tilt(128, 4 * np.pi)
    out = unwrap_phase(RealRaster(wrap_phase(phi)))
    assert rms(out.data - phi) < 1e-6


@pytest.mark.parametrize("seed", range(4))
def test_unwrap_roundtrip_and_congruence(seed):
    phi = bump_field(96, seed=seed, amplitude=3 * np.pi, sigma_range=(12.0, 20.0))
    wrapped = wrap_phase(phi)
    out = unwrap_phase(RealRaster(wrapped)).data
    assert np.max(np.abs(wrap_phase(out) - wrapped)) < 1e-9
    k = (out - wrapped) / (2 * np.pi)
    assert np.max(np.abs(k - np.round(k))) < 1e-9
    assert rms(out - phi) < 1e-6


# ---- clipping ----


def test_clip_constant_unchanged():
    x = RealRaster(np.full((40, 40), 3.3))
    assert np.array_equal(clip_dynamic_range(x).data, x.data)


def test_clip_outlier_against_sort_oracle():
    rng = np.random.default_rng(0)
    data = rng.uniform(0.0, 1.0, 10000)
    data[1234] = 100.0
    srt = np.sort(data)
    q_hi = srt[int(np.ceil(0.9995 * (data.size - 1)))]
    out = clip_dynamic_range(RealRaster(data.reshape(100, 100))).data
    assert out.reshape(-1)[1234] == q_hi
    q_lo = srt[int(np.floor(0.0005 * (data.size - 1)))]
    assert out.min() >= q_lo and out.max() <= q_hi


def test_clip_idempotent():
    rng = np.random.default_rng(3)
    x = RealRaster(rng.standard_normal((120, 120)))
    once = clip_dynamic_range(x)
    twice = clip_dynamic_range(once)
    assert np.array_equal(once.data, twice.data)


def test_clip_zero_fraction_is_identity():
    rng = np.random.default_rng(4)
    x = RealRaster(rng.standard_normal((30, 30)))
    assert np.array_equal(clip_dynamic_range(x, 0.0).data, x.data)


def test_clip_bad_fraction():
    with pytest.raises(NonFiniteInput):
        clip_dynamic_range(RealRaster(np.zeros((8, 8))), 0.5)


# ---- normalization ----


def test_normalize_hits_unit_range_and_inverts():
    rng = np.random.default_rng(5)
    x = rng.normal(2.0, 3.0, (50, 50))
    y, scale, offset = normalize_unit(RealRaster(x))
    assert y.data.min() == 0.0 and y.data.max() == 1.0
    assert np.max(np.abs(y.data * scale + offset - x)) < 1e-12


def test_normalize_affine_invariance():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((40, 40))
    a = normalize_unit(RealRaster(x))[0].data
    b = normalize_unit(RealRaster(2.5 * x - 7.0))[0].data
    assert np.max(np.abs(a - b)) < 1e-12


def test_normalize_constant_raises():
    with pytest.raises(DegenerateRange):
        normalize_unit(RealRaster(np.full((10, 10), 4.0)))


# ---- noise estimation ----


def test_estimate_noise_constant_background():
    mask = np.zeros((20, 20), dtype=bool)
    mask[:10] = True
    est = estimate_noise(RealRaster(np.full((20, 20), 0.5)), mask)
    assert est.sigma_background == 0.0 and est.pixel_count == 200


def test_estimate_noise_monte_carlo():
    rng = np.random.default_rng(7)
    phase = rng.normal(0.0, 0.01, (100, 100))
    est = estimate_noise(RealRaster(phase), np.ones((100, 100), dtype=bool))
    assert abs(est.sigma_background - 0.01) < 0.001


def test_estimate_noise_small_mask_raises():
    mask = np.zeros((20, 20), dtype=bool)
    mask.reshape(-1)[:50] = True
    with pytest.raises(MaskTooSmall):
        estimate_noise(RealRaster(np.zeros((20, 20))), mask)


def test_estimate_noise_shape_mismatch():
    with pytest.raises(SizeMismatch):
        estimate_noise(RealRaster(np.zeros((20, 20))), np.ones((10, 10), dtype=bool))


def test_noise_estimate_validation():
    with pytest.raises(MaskTooSmall):
        NoiseEstimate(0.1, 99)
    with pytest.raises(NonFiniteInput):
        NoiseEstimate(-0.1, 200)


# ---- patches ----


def test_patch_grid_disjoint_tiling():
    g = PatchGrid(32, 32, 32, 32, 64, 64)
    pos = g.positions()
    assert pos == [(0, 0), (0, 32), (32, 0), (32, 32)]


def test_patch_grid_overlap_count():
    g = PatchGrid(32, 32, 16, 16, 64, 64)
    pos = g.positions()
    assert sorted({r for r, _ in pos}) == [0, 16, 32]
    assert sorted({c for _, c in pos}) == [0, 16, 32]
    assert len(pos) == 9


def test_patch_grid_border_clamp():
    g = PatchGrid(32, 32, 16, 16, 65, 65)
    rows = sorted({r for r, _ in g.positions()})
    assert rows == [0, 16, 32, 33]


def test_extract_patches_contents():
    rng = np.random.default_rng(8)
    x = RealRaster(rng.standard_normal((64, 64)), pitch=0.5)
    g = PatchGrid(32, 32, 32, 32, 64, 64)
    patches = extract_patches(x, g)
    assert len(patches) == 4
    assert np.array_equal(patches[3].data, x.data[32:, 32:])
    assert patches[0].pitch == 0.5


def test_extract_patches_shape_mismatch():
    g = PatchGrid(32, 32, 32, 32, 64, 64)
    with pytest.raises(SizeMismatch):
        extract_patches(RealRaster(np.zeros((48, 48))), g)


def test_patch_grid_validation():
    with pytest.raises(SizeMismatch):
        PatchGrid(65, 32, 16, 16, 64, 64)
    with pytest.raises(NonFiniteInput):
        PatchGrid(32, 32, 0, 16, 64, 64)


# ---- stitching ----


def test_stitch_constant_patches_exact():
    positions = [(0, 0), (16, 16), (32, 32), (0, 32), (32, 0)]
    out = stitch_alpha_blend(np.full((5, 32, 32), 2.5), positions, (64, 64))
    assert np.max(np.abs(out - 2.5)) < 1e-12


def test_stitch_single_patch_identity():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((48, 48))
    out = stitch_alpha_blend(x[None], [(0, 0)], (48, 48))
    assert np.max(np.abs(out - x)) < 1e-12


def test_stitch_extract_roundtrip():
    rng = np.random.default_rng(11)
    x = RealRaster(rng.standard_normal((96, 96)))
    g = PatchGrid(32, 32, 16, 16, 96, 96)
    patches = np.stack([p.data for p in extract_patches(x, g)])
    out = stitch_alpha_blend(patches, g.positions(), (96, 96))
    scale = np.max(np.abs(x.data))
    assert np.max(np.abs(out - x.data)) < 1e-10 * scale


def test_stitch_coverage_gap():
    with pytest.raises(CoverageGap):
        stitch_alpha_blend(np.ones((2, 16, 16)), [(0, 0), (32, 32)], (48, 48))


def test_stitch_out_of_frame():
    with pytest.raises(SizeMismatch):
        stitch_alpha_blend(np.ones((1, 16, 16)), [(40, 0)], (48, 48))


def test_stitch_empty():
    with pytest.raises(SizeMismatch):
        stitch_alpha_blend(np.empty((0, 4, 4)), [], (8, 8))


def test_stitch_patch_count_mismatch():
    with pytest.raises(ShapeMismatch, match="3 patches for 2 positions"):
        stitch_alpha_blend(np.ones((3, 16, 16)), [(0, 0), (16, 16)], (32, 32))
