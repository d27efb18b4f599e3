"""Raster and centered-FFT contracts: unitarity, crop/embed laws, resizing."""

import numpy as np
import pytest

from phaseuq.errors import NonFiniteInput, SizeMismatch
from phaseuq.grid import (
    ComplexRaster,
    RealRaster,
    crop_center_spectrum,
    embed_center_spectrum,
    fft2_unitary,
    freq_axis,
    ifft2_unitary,
    resize_bicubic,
    swap_quadrants,
)


def test_raster_rejects_nonfinite():
    bad = np.ones((4, 4))
    bad[1, 2] = np.nan
    with pytest.raises(NonFiniteInput):
        RealRaster(bad)
    with pytest.raises(NonFiniteInput):
        ComplexRaster(bad.astype(complex))
    with pytest.raises(NonFiniteInput):
        RealRaster(np.ones((4, 4)), pitch=0.0)


def test_center_impulse_transforms_to_flat_spectrum():
    n = 8
    x = np.zeros((n, n))
    x[n // 2, n // 2] = 1.0
    X = fft2_unitary(RealRaster(x))
    # unit impulse at the DC position -> constant 1/n spectrum
    assert np.allclose(X.data, 1.0 / n, atol=1e-14)


def test_constant_field_transforms_to_dc_spike():
    n = 16
    c = 2.5
    X = fft2_unitary(RealRaster(np.full((n, n), c)))
    assert abs(X.data[n // 2, n // 2] - c * n) < 1e-12
    off_dc = X.data.copy()
    off_dc[n // 2, n // 2] = 0.0
    assert np.max(np.abs(off_dc)) < 1e-12


@pytest.mark.parametrize("seed", range(5))
def test_parseval_and_roundtrip(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((32, 48)) + 1j * rng.standard_normal((32, 48))
    r = ComplexRaster(x, pitch=1.3)
    X = fft2_unitary(r)
    assert abs(np.sum(np.abs(x) ** 2) - np.sum(np.abs(X.data) ** 2)) < 1e-12 * np.sum(np.abs(x) ** 2)
    back = ifft2_unitary(X)
    assert np.max(np.abs(back.data - x)) < 1e-12
    assert back.pitch == r.pitch


def test_freq_axis_layout():
    f = freq_axis(8, pitch=2.0)
    assert f[4] == 0.0
    assert abs(f[5] - 1.0 / 16.0) < 1e-15
    assert abs(f[0] + 4.0 / 16.0) < 1e-15


def test_swap_quadrants_is_both_shifts_for_even_sides():
    x = np.arange(6 * 10, dtype=complex).reshape(6, 10)
    np.testing.assert_array_equal(swap_quadrants(x), np.fft.fftshift(x))
    np.testing.assert_array_equal(swap_quadrants(x), np.fft.ifftshift(x))
    np.testing.assert_array_equal(swap_quadrants(swap_quadrants(x)), x)
    with pytest.raises(SizeMismatch):
        swap_quadrants(np.zeros((5, 4)))


def test_crop_same_size_is_identity():
    rng = np.random.default_rng(0)
    X = ComplexRaster(rng.standard_normal((16, 16)) + 0j)
    Y = crop_center_spectrum(X, 16, 16)
    assert np.array_equal(Y.data, X.data)


def test_crop_preserves_implied_constant_field():
    # a DC-only spectrum represents a constant field; that constant must
    # survive the move to the coarser grid
    n, m = 32, 8
    X = np.zeros((n, n), dtype=complex)
    X[n // 2, n // 2] = 7.0
    fine = ifft2_unitary(ComplexRaster(X)).data
    Y = crop_center_spectrum(ComplexRaster(X), m, m)
    coarse = ifft2_unitary(Y).data
    assert np.allclose(coarse, fine[0, 0], atol=1e-12)
    assert abs(Y.pitch - 1.0 * (n / m)) < 1e-15


def test_crop_energy_scales_with_pixel_ratio():
    # band-limited field: spectrum support inside the crop window, so the
    # only energy change is the pixel-count ratio
    rng = np.random.default_rng(3)
    n, m = 64, 16
    spec = np.zeros((n, n), dtype=complex)
    c = n // 2
    spec[c - 4 : c + 4, c - 4 : c + 4] = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    x = ifft2_unitary(ComplexRaster(spec))
    e_in = np.sum(np.abs(x.data) ** 2)
    y = ifft2_unitary(crop_center_spectrum(fft2_unitary(x), m, m))
    e_out = np.sum(np.abs(y.data) ** 2)
    assert abs(e_out / e_in - (m * m) / (n * n)) < 1e-12


def test_embed_keeps_impulse_centered_and_inverts_crop():
    rng = np.random.default_rng(4)
    n, m = 12, 48
    X = np.zeros((n, n), dtype=complex)
    X[n // 2, n // 2] = 1.0
    big = embed_center_spectrum(ComplexRaster(X), m, m)
    assert abs(big.data[m // 2, m // 2]) == np.max(np.abs(big.data))
    Z = ComplexRaster(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    round_trip = crop_center_spectrum(embed_center_spectrum(Z, m, m), n, n)
    assert np.max(np.abs(round_trip.data - Z.data)) < 1e-12
    assert abs(round_trip.pitch - Z.pitch) < 1e-15


def test_crop_embed_size_checks():
    X = ComplexRaster(np.zeros((8, 8), dtype=complex))
    with pytest.raises(SizeMismatch):
        crop_center_spectrum(X, 10, 10)
    with pytest.raises(SizeMismatch):
        crop_center_spectrum(X, 5, 4)
    with pytest.raises(SizeMismatch):
        embed_center_spectrum(X, 6, 6)
    with pytest.raises(SizeMismatch):
        embed_center_spectrum(X, 9, 12)


def test_resize_constant_and_identity():
    rng = np.random.default_rng(5)
    x = RealRaster(np.full((10, 14), 3.25))
    y = resize_bicubic(x, 23, 9)
    assert np.max(np.abs(y.data - 3.25)) < 1e-12
    z = RealRaster(rng.standard_normal((17, 11)))
    same = resize_bicubic(z, 17, 11)
    assert np.max(np.abs(same.data - z.data)) < 1e-12


def test_resize_reproduces_linear_ramp_interior():
    n = 16
    ramp = np.tile(0.5 + 0.25 * np.arange(n), (n, 1))
    up = resize_bicubic(RealRaster(ramp), n, 2 * n).data
    # output column i samples input coordinate i/2 - 1/4; the cubic kernel
    # reproduces linear functions exactly where no tap is edge-clamped
    cols = np.arange(4, 2 * n - 5)
    expect = 0.5 + 0.25 * (cols / 2 - 0.25)
    assert np.max(np.abs(up[:, cols] - expect)) < 1e-12
