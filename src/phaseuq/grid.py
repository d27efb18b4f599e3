"""Sampled 2D fields and the centered unitary Fourier convention.

All spectra in this package live on centered grids: the DC sample of an
``n``-point axis sits at index ``n // 2``, and transforms are unitary
(``norm="ortho"``), so energy is preserved to machine precision.

Cropping or embedding a centered spectrum moves a field between sampling
grids.  Both carry an amplitude factor ``sqrt(out_elems / in_elems)`` chosen
so that pointwise field values survive the grid change: a constant field
stays the same constant, and field energy scales exactly with the pixel
count ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteInput, SizeMismatch

__all__ = [
    "RealRaster",
    "ComplexRaster",
    "fft2_unitary",
    "ifft2_unitary",
    "swap_quadrants",
    "crop_center_spectrum",
    "embed_center_spectrum",
    "resize_bicubic",
    "freq_axis",
]


def _validate(data: np.ndarray, pitch: float) -> None:
    if data.ndim != 2:
        raise SizeMismatch(f"raster must be 2D, got shape {data.shape}")
    if data.shape[0] < 1 or data.shape[1] < 1:
        raise SizeMismatch(f"raster sides must be >= 1, got {data.shape}")
    if not np.isfinite(data).all():
        raise NonFiniteInput("raster contains NaN or Inf samples")
    if not (pitch > 0 and math.isfinite(pitch)):
        raise NonFiniteInput(f"pitch must be positive and finite, got {pitch}")


@dataclass(frozen=True)
class RealRaster:
    """Real-valued 2D field sampled on a square-pixel grid.

    pitch is the physical pixel spacing in micrometres.
    """

    data: np.ndarray
    pitch: float = 1.0

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.float64)
        _validate(data, self.pitch)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "pitch", float(self.pitch))

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape


@dataclass(frozen=True)
class ComplexRaster:
    """Complex-valued 2D field or centered spectrum.

    For spectra, pitch records the real-space pixel spacing of the grid the
    spectrum corresponds to, so grid changes track through crop/embed.
    """

    data: np.ndarray
    pitch: float = 1.0

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.complex128)
        _validate(data, self.pitch)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "pitch", float(self.pitch))

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape


Raster = RealRaster | ComplexRaster


def _check_fft_input(x: Raster) -> None:
    h, w = x.shape
    if h < 2 or w < 2:
        raise SizeMismatch(f"transform needs sides >= 2, got {x.shape}")


def fft2_unitary(x: Raster) -> ComplexRaster:
    """Centered unitary 2D FFT: DC lands at index (h//2, w//2)."""
    from scipy import fft  # loaded on first use: most stages never transform

    _check_fft_input(x)
    X = fft.fftshift(fft.fft2(fft.ifftshift(x.data), norm="ortho"))
    return ComplexRaster(X, x.pitch)


def ifft2_unitary(X: ComplexRaster) -> ComplexRaster:
    """Inverse of fft2_unitary."""
    from scipy import fft

    _check_fft_input(X)
    x = fft.fftshift(fft.ifft2(fft.ifftshift(X.data), norm="ortho"))
    return ComplexRaster(x, X.pitch)


def swap_quadrants(x: np.ndarray) -> np.ndarray:
    """Copy of an even-sided 2D array with its quadrants swapped diagonally.

    For even sides fftshift and ifftshift are this same swap, so it moves a
    centered spectrum (or field) to the FFT's own layout, DC at (0, 0), and
    back again.
    """
    h, w = x.shape
    _check_even(h, w)
    a, b = h // 2, w // 2
    out = np.empty_like(x)
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


def crop_center_spectrum(X: ComplexRaster, out_h: int, out_w: int) -> ComplexRaster:
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
    block = X.data[r0 : r0 + out_h, c0 : c0 + out_w] * scale
    return ComplexRaster(block, X.pitch * (h / out_h))


def embed_center_spectrum(X: ComplexRaster, out_h: int, out_w: int) -> ComplexRaster:
    """Zero-pad a spectrum to out_h x out_w, centered; inverse of crop."""
    h, w = X.shape
    _check_even(h, w, out_h, out_w)
    if out_h < h or out_w < w:
        raise SizeMismatch(f"embed {out_h}x{out_w} smaller than input {h}x{w}")
    out = np.zeros((out_h, out_w), dtype=np.complex128)
    r0 = out_h // 2 - h // 2
    c0 = out_w // 2 - w // 2
    scale = math.sqrt((out_h * out_w) / (h * w))
    out[r0 : r0 + h, c0 : c0 + w] = X.data * scale
    return ComplexRaster(out, X.pitch * (h / out_h))


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
    W = np.zeros((n_out, n_in))
    scale = n_in / n_out
    for i in range(n_out):
        src = (i + 0.5) * scale - 0.5
        i0 = math.floor(src)
        t = src - i0
        taps = np.array([i0 - 1, i0, i0 + 1, i0 + 2])
        weights = _catmull_rom(np.array([1.0 + t, t, 1.0 - t, 2.0 - t]))
        np.add.at(W[i], np.clip(taps, 0, n_in - 1), weights)
    return W


def resize_bicubic(x: RealRaster, out_h: int, out_w: int) -> RealRaster:
    """Separable Catmull-Rom resampling with edge-clamped borders.

    Pixel centers are aligned between grids, so resizing to the same shape is
    exact and linear ramps are reproduced away from the clamped borders.
    """
    if out_h < 2 or out_w < 2:
        raise SizeMismatch(f"output sides must be >= 2, got {out_h}x{out_w}")
    h, w = x.shape
    Wr = _resize_matrix(h, out_h)
    Wc = _resize_matrix(w, out_w)
    return RealRaster(Wr @ x.data @ Wc.T, x.pitch * (h / out_h))
