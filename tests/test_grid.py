"""Centered-FFT contracts on plain arrays: unitarity, crop/embed laws, resizing."""

import math

import numpy as np
import pytest

from phaseuq import grid
from phaseuq.errors import NonFiniteInput, SizeMismatch
from phaseuq.grid import (
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


def test_transforms_need_2d_input_with_sides_of_two():
    for bad in (np.zeros((2, 4, 4)), np.zeros(8), np.zeros((1, 8))):
        with pytest.raises(SizeMismatch):
            fft2_unitary(bad)
        with pytest.raises(SizeMismatch):
            ifft2_unitary(bad.astype(complex))


def test_center_impulse_transforms_to_flat_spectrum():
    n = 8
    x = np.zeros((n, n))
    x[n // 2, n // 2] = 1.0
    X = fft2_unitary(x)
    # unit impulse at the DC position -> constant 1/n spectrum
    assert np.allclose(X, 1.0 / n, atol=1e-14)


def test_constant_field_transforms_to_dc_spike():
    n = 16
    c = 2.5
    X = fft2_unitary(np.full((n, n), c))
    assert abs(X[n // 2, n // 2] - c * n) < 1e-12
    off_dc = X.copy()
    off_dc[n // 2, n // 2] = 0.0
    assert np.max(np.abs(off_dc)) < 1e-12


@pytest.mark.parametrize("seed", range(5))
def test_parseval_and_roundtrip(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((32, 48)) + 1j * rng.standard_normal((32, 48))
    X = fft2_unitary(x)
    assert abs(np.sum(np.abs(x) ** 2) - np.sum(np.abs(X) ** 2)) < 1e-12 * np.sum(np.abs(x) ** 2)
    back = ifft2_unitary(X)
    assert np.max(np.abs(back - x)) < 1e-12


def _scipy_centered(x, inverse=False):
    """The centered transforms on scipy.fft, for reference."""
    from scipy import fft

    one = fft.ifft2 if inverse else fft.fft2
    return fft.fftshift(one(fft.ifftshift(x), norm="ortho"))


TRANSFORM_SHAPES = [(n, n) for n in range(2, 65, 2)] + [
    (9, 9), (194, 194), (32, 48), (6, 10), (128, 128), (512, 512)
]


@pytest.mark.parametrize("shape", TRANSFORM_SHAPES, ids="{0[0]}x{0[1]}".format)
def test_transforms_give_scipy_bytes_for_complex_input(shape):
    rng = np.random.default_rng(shape[0] * 1000 + shape[1])
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    assert fft2_unitary(x).tobytes() == _scipy_centered(x).tobytes()
    assert ifft2_unitary(x).tobytes() == _scipy_centered(x, inverse=True).tobytes()


@pytest.mark.parametrize("shape", [(8, 8), (9, 9), (32, 48), (128, 128)])
def test_transforms_of_real_input_match_scipy(shape):
    # scipy takes a real-to-complex path for real input; ours transforms it as complex
    x = np.random.default_rng(shape[1]).standard_normal(shape)
    for inverse, ours in ((False, fft2_unitary), (True, ifft2_unitary)):
        ref = _scipy_centered(x, inverse)
        assert np.max(np.abs(ours(x) - ref)) <= 1e-15 * np.max(np.abs(ref))


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
    buf = np.empty_like(x)
    assert swap_quadrants(x, out=buf) is buf
    np.testing.assert_array_equal(buf, np.fft.fftshift(x))
    with pytest.raises(SizeMismatch):
        swap_quadrants(np.zeros((5, 4)))


def test_crop_same_size_is_identity():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((16, 16)) + 0j
    Y = crop_center_spectrum(X, 16, 16)
    assert np.array_equal(Y, X)


def test_crop_preserves_implied_constant_field():
    # a DC-only spectrum represents a constant field; that constant must
    # survive the move to the coarser grid
    n, m = 32, 8
    X = np.zeros((n, n), dtype=complex)
    X[n // 2, n // 2] = 7.0
    fine = ifft2_unitary(X)
    coarse = ifft2_unitary(crop_center_spectrum(X, m, m))
    assert np.allclose(coarse, fine[0, 0], atol=1e-12)


def test_crop_energy_scales_with_pixel_ratio():
    # band-limited field: spectrum support inside the crop window, so the
    # only energy change is the pixel-count ratio
    rng = np.random.default_rng(3)
    n, m = 64, 16
    spec = np.zeros((n, n), dtype=complex)
    c = n // 2
    spec[c - 4 : c + 4, c - 4 : c + 4] = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    x = ifft2_unitary(spec)
    e_in = np.sum(np.abs(x) ** 2)
    y = ifft2_unitary(crop_center_spectrum(fft2_unitary(x), m, m))
    e_out = np.sum(np.abs(y) ** 2)
    assert abs(e_out / e_in - (m * m) / (n * n)) < 1e-12


def test_embed_keeps_impulse_centered_and_inverts_crop():
    rng = np.random.default_rng(4)
    n, m = 12, 48
    X = np.zeros((n, n), dtype=complex)
    X[n // 2, n // 2] = 1.0
    big = embed_center_spectrum(X, m, m)
    assert abs(big[m // 2, m // 2]) == np.max(np.abs(big))
    Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    round_trip = crop_center_spectrum(embed_center_spectrum(Z, m, m), n, n)
    assert np.max(np.abs(round_trip - Z)) < 1e-12


def test_crop_embed_size_checks():
    X = np.zeros((8, 8), dtype=complex)
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
    y = resize_bicubic(np.full((10, 14), 3.25), 23, 9)
    assert np.max(np.abs(y - 3.25)) < 1e-12
    z = rng.standard_normal((17, 11))
    same = resize_bicubic(z, 17, 11)
    assert np.max(np.abs(same - z)) < 1e-12


def test_resize_reproduces_linear_ramp_interior():
    n = 16
    ramp = np.tile(0.5 + 0.25 * np.arange(n), (n, 1))
    up = resize_bicubic(ramp, n, 2 * n)
    # output column i samples input coordinate i/2 - 1/4; the cubic kernel
    # reproduces linear functions exactly where no tap is edge-clamped
    cols = np.arange(4, 2 * n - 5)
    expect = 0.5 + 0.25 * (cols / 2 - 0.25)
    assert np.max(np.abs(up[:, cols] - expect)) < 1e-12


def _resize_matrix_by_rows(n_in, n_out):
    """The interpolation matrix built one row at a time, for reference."""
    W = np.zeros((n_out, n_in))
    for i in range(n_out):
        src = (i + 0.5) * (n_in / n_out) - 0.5
        i0 = math.floor(src)
        t = src - i0
        weights = grid._catmull_rom(np.array([1.0 + t, t, 1.0 - t, 2.0 - t]))
        np.add.at(W[i], np.clip([i0 - 1, i0, i0 + 1, i0 + 2], 0, n_in - 1), weights)
    return W


@pytest.mark.parametrize("n_in,n_out", [(32, 128), (128, 512), (128, 128), (64, 128), (7, 5)])
def test_resize_matrix_matches_row_by_row(n_in, n_out):
    assert np.array_equal(grid._resize_matrix(n_in, n_out), _resize_matrix_by_rows(n_in, n_out))
