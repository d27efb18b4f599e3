"""Sampled 2D fields and the centered unitary Fourier convention.

Fields and spectra are plain 2D ndarrays.  No function here keeps a pixel
pitch: only ``freq_axis`` turns one into frequencies, and callers pass it
the pitch of the grid they mean.

All spectra in this package live on centered grids: the DC sample of an
``n``-point axis sits at index ``n // 2``, and transforms are unitary
(``norm="ortho"``), so energy is preserved to machine precision.  They run
on numpy.fft in scipy.fft's own pass order, which gives scipy's bytes for
complex input without importing scipy.fft: an unnormalized pass along
axis 0, the real and imaginary parts each multiplied by
``float(1 / sqrt(longdouble(h * w)))``, then an unnormalized pass along
axis 1.  Real input is transformed as complex.

Cropping or embedding a centered spectrum moves a field between sampling
grids.  Both carry an amplitude factor ``sqrt(out_elems / in_elems)`` chosen
so that pointwise field values survive the grid change: a constant field
stays the same constant, and field energy scales exactly with the pixel
count ratio.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import SizeMismatch

__all__ = [
    "fft2_unitary",
    "ifft2_unitary",
    "swap_quadrants",
    "crop_center_spectrum",
    "embed_center_spectrum",
    "resize_bicubic",
    "freq_axis",
]


def _check_fft_input(x: np.ndarray) -> None:
    if x.ndim != 2 or x.shape[0] < 2 or x.shape[1] < 2:
        raise SizeMismatch(f"transform needs a 2D array with sides >= 2, got {x.shape}")


def _fft2_ortho(
    x: np.ndarray, inverse: bool = False, out: np.ndarray | None = None
) -> np.ndarray:
    """Unshifted 2D FFT (or inverse) with norm="ortho", into out if given (it may be x)."""
    one_pass, norm = (np.fft.ifft, "forward") if inverse else (np.fft.fft, "backward")
    X = one_pass(x, axis=0, norm=norm, out=out)
    parts = X.view(np.float64)
    parts *= float(1 / np.sqrt(np.longdouble(x.size)))
    return one_pass(X, axis=1, norm=norm, out=X)


def fft2_unitary(x: np.ndarray) -> np.ndarray:
    """Centered unitary 2D FFT: DC lands at index (h//2, w//2)."""
    _check_fft_input(x)
    return np.fft.fftshift(_fft2_ortho(np.fft.ifftshift(x)))


def ifft2_unitary(X: np.ndarray) -> np.ndarray:
    """Inverse of fft2_unitary."""
    _check_fft_input(X)
    return np.fft.fftshift(_fft2_ortho(np.fft.ifftshift(X), inverse=True))


def swap_quadrants(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Copy of an even-sided 2D array with its quadrants swapped diagonally.

    For even sides fftshift and ifftshift are this same swap, so it moves a
    centered spectrum (or field) to the FFT's own layout, DC at (0, 0), and
    back again. It is written into out, if given, which must not overlap x.
    """
    h, w = x.shape
    _check_even(h, w)
    a, b = h // 2, w // 2
    out = np.empty_like(x) if out is None else out
    out[:a, :b] = x[a:, b:]
    out[:a, b:] = x[a:, :b]
    out[a:, :b] = x[:a, b:]
    out[a:, b:] = x[:a, :b]
    return out


def freq_axis(n: int, pitch: float) -> np.ndarray:
    """Centered frequency samples (cycles per micrometre) for an n-point axis."""
    return (np.arange(n) - n // 2) / (n * pitch)


def _check_even(*sizes: int) -> None:
    for s in sizes:
        if s % 2 != 0:
            raise SizeMismatch(f"sizes must be even, got {sizes}")


def crop_center_spectrum(X: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Extract the centered out_h x out_w block of a spectrum.

    Amplitudes are scaled by sqrt(out/in pixel count) so the field implied by
    the spectrum keeps its pointwise values on the coarser grid.
    """
    h, w = X.shape
    _check_even(h, w, out_h, out_w)
    if out_h > h or out_w > w:
        raise SizeMismatch(f"crop {out_h}x{out_w} exceeds input {h}x{w}")
    r0 = h // 2 - out_h // 2
    c0 = w // 2 - out_w // 2
    scale = math.sqrt((out_h * out_w) / (h * w))
    return X[r0 : r0 + out_h, c0 : c0 + out_w] * scale


def embed_center_spectrum(X: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Zero-pad a spectrum to out_h x out_w, centered; inverse of crop."""
    h, w = X.shape
    _check_even(h, w, out_h, out_w)
    if out_h < h or out_w < w:
        raise SizeMismatch(f"embed {out_h}x{out_w} smaller than input {h}x{w}")
    out = np.zeros((out_h, out_w), dtype=np.complex128)
    r0 = out_h // 2 - h // 2
    c0 = out_w // 2 - w // 2
    scale = math.sqrt((out_h * out_w) / (h * w))
    out[r0 : r0 + h, c0 : c0 + w] = X * scale
    return out


def _catmull_rom(x: np.ndarray) -> np.ndarray:
    # interpolating cubic with a = -0.5 (Catmull-Rom)
    ax = np.abs(x)
    out = np.zeros_like(ax)
    near = ax <= 1.0
    far = (ax > 1.0) & (ax < 2.0)
    out[near] = (1.5 * ax[near] - 2.5) * ax[near] ** 2 + 1.0
    out[far] = -0.5 * (ax[far] ** 3 - 5.0 * ax[far] ** 2 + 8.0 * ax[far] - 4.0)
    return out


def _resize_matrix(n_in: int, n_out: int) -> np.ndarray:
    """Row-stochastic interpolation matrix for one axis, edges clamped."""
    src = (np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5
    i0 = np.floor(src)
    t = src - i0
    # four taps per row; clamped taps that land on one column add up there
    taps = np.clip(i0.astype(int)[:, None] + np.arange(-1, 3), 0, n_in - 1)
    weights = _catmull_rom(np.stack([1.0 + t, t, 1.0 - t, 2.0 - t], axis=1))
    W = np.zeros((n_out, n_in))
    np.add.at(W, (np.repeat(np.arange(n_out), 4), taps.ravel()), weights.ravel())
    return W


def resize_bicubic(x: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Separable Catmull-Rom resampling with edge-clamped borders.

    Pixel centers are aligned between grids, so resizing to the same shape is
    exact and linear ramps are reproduced away from the clamped borders.
    """
    if out_h < 2 or out_w < 2:
        raise SizeMismatch(f"output sides must be >= 2, got {out_h}x{out_w}")
    h, w = x.shape
    Wr = _resize_matrix(h, out_h)
    Wc = _resize_matrix(w, out_w)
    return Wr @ x @ Wc.T
