"""Phase-map conditioning.

Unwrapping, dynamic-range clipping, [0, 1] normalization, background
noise estimation, patch extraction, and alpha-blend stitching. Everything
here is pure and deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CoverageGap,
    DegenerateRange,
    MaskTooSmall,
    NonFiniteInput,
    SizeMismatch,
)
from .grid import RealRaster

TWO_PI = 2.0 * math.pi


def wrap_phase(values: np.ndarray) -> np.ndarray:
    """Principal value in [-pi, pi)."""
    return np.mod(np.asarray(values, dtype=float) + math.pi, TWO_PI) - math.pi


def unwrap_phase(wrapped: RealRaster) -> RealRaster:
    """Least-squares unwrapping with a congruence correction.

    Wrapped forward differences give a discrete Laplacian; the Poisson
    equation is solved under reflecting boundaries by dividing the
    type-II cosine transform by 2cos(pi m/M) + 2cos(pi n/N) - 4 (zero
    mode pinned to 0). The smooth solution is then snapped back onto
    the input plus exact multiples of 2pi, so residue-free fields are
    recovered up to a global constant.
    """
    from scipy import fft  # loaded on first use: no pipeline stage unwraps

    p = wrapped.data
    m, n = p.shape
    dy = wrap_phase(np.diff(p, axis=0))
    dx = wrap_phase(np.diff(p, axis=1))
    rho = np.zeros_like(p)
    rho[:-1, :] += dy
    rho[1:, :] -= dy
    rho[:, :-1] += dx
    rho[:, 1:] -= dx
    wy = 2.0 * np.cos(np.pi * np.arange(m) / m) - 2.0
    wx = 2.0 * np.cos(np.pi * np.arange(n) / n) - 2.0
    denom = wy[:, None] + wx[None, :]
    denom[0, 0] = 1.0
    coeff = fft.dctn(rho, type=2, norm="ortho") / denom
    coeff[0, 0] = 0.0
    smooth = fft.idctn(coeff, type=2, norm="ortho")
    # snap to input + 2*pi*k; the circular mean removes the arbitrary
    # least-squares offset before rounding so k is spatially consistent
    diff = smooth - p
    offset = np.angle(np.mean(np.exp(1j * diff)))
    k = np.round((diff - offset) / TWO_PI)
    return RealRaster(p + TWO_PI * k, wrapped.pitch)


def clip_dynamic_range(x: RealRaster, fraction: float = 0.001) -> RealRaster:
    """Clamp the extreme tails, fraction/2 per side.

    Quantiles use the 'lower'/'higher' order statistics rather than
    interpolation, which makes the operation exactly idempotent.
    """
    if not (0.0 <= fraction < 0.5):
        raise NonFiniteInput(f"clip fraction must be in [0, 0.5), got {fraction}")
    if fraction == 0.0:
        return RealRaster(x.data.copy(), x.pitch)
    lo = np.quantile(x.data, fraction / 2.0, method="lower")
    hi = np.quantile(x.data, 1.0 - fraction / 2.0, method="higher")
    return RealRaster(np.clip(x.data, lo, hi), x.pitch)


def normalize_unit(x: RealRaster) -> tuple[RealRaster, float, float]:
    """Affine map onto [0, 1]; returns (raster, scale, offset).

    The inverse is data * scale + offset, back in the input units.
    """
    lo = float(x.data.min())
    hi = float(x.data.max())
    if hi <= lo:
        raise DegenerateRange(f"constant raster (value {lo}) cannot be normalized")
    return RealRaster((x.data - lo) / (hi - lo), x.pitch), hi - lo, lo


@dataclass(frozen=True)
class NoiseEstimate:
    """Background phase noise level."""

    sigma_background: float
    pixel_count: int

    def __post_init__(self):
        if not (self.sigma_background >= 0.0):
            raise NonFiniteInput(f"sigma must be >= 0, got {self.sigma_background}")
        if self.pixel_count < 100:
            raise MaskTooSmall(f"need >= 100 background pixels, got {self.pixel_count}")


def estimate_noise(phase: RealRaster, background_mask: np.ndarray) -> NoiseEstimate:
    """Unbiased sample std over the masked (background) pixels."""
    mask = np.asarray(background_mask, dtype=bool)
    if mask.shape != phase.shape:
        raise SizeMismatch(f"mask {mask.shape} does not match raster {phase.shape}")
    count = int(mask.sum())
    if count < 100:
        raise MaskTooSmall(f"need >= 100 background pixels, got {count}")
    sigma = float(np.std(phase.data[mask], ddof=1))
    return NoiseEstimate(sigma, count)


@dataclass(frozen=True)
class PatchGrid:
    """Row-major tiling; the last row/column is clamped to the border."""

    patch_h: int
    patch_w: int
    stride_h: int
    stride_w: int
    source_h: int
    source_w: int

    def __post_init__(self):
        if self.stride_h < 1 or self.stride_w < 1:
            raise NonFiniteInput("strides must be >= 1")
        if self.patch_h < 1 or self.patch_w < 1:
            raise NonFiniteInput("patch sizes must be >= 1")
        if self.patch_h > self.source_h or self.patch_w > self.source_w:
            raise SizeMismatch(
                f"{self.patch_h}x{self.patch_w} patch exceeds source "
                f"{self.source_h}x{self.source_w}"
            )

    @staticmethod
    def _starts(patch: int, source: int, stride: int) -> list[int]:
        count = -(-(source - patch) // stride) + 1
        return [min(k * stride, source - patch) for k in range(count)]

    def positions(self) -> list[tuple[int, int]]:
        rows = self._starts(self.patch_h, self.source_h, self.stride_h)
        cols = self._starts(self.patch_w, self.source_w, self.stride_w)
        return [(r, c) for r in rows for c in cols]


def extract_patches(x: RealRaster, grid: PatchGrid) -> list[RealRaster]:
    if (grid.source_h, grid.source_w) != x.shape:
        raise SizeMismatch(
            f"grid expects source {grid.source_h}x{grid.source_w}, raster is "
            f"{x.shape[0]}x{x.shape[1]}"
        )
    return [
        RealRaster(x.data[r : r + grid.patch_h, c : c + grid.patch_w].copy(), x.pitch)
        for r, c in grid.positions()
    ]


def _ramp_profile(n: int) -> np.ndarray:
    # triangular, peak 1 at the center, strictly positive at the edges
    i = np.arange(n, dtype=float)
    return np.minimum(i + 1.0, n - i) / math.ceil(n / 2)


def stitch_alpha_blend(
    patches: list[tuple[RealRaster, tuple[int, int]]],
    out_shape: tuple[int, int],
) -> RealRaster:
    """Weighted mosaic: separable triangular ramps, normalized per pixel."""
    if not patches:
        raise SizeMismatch("no patches to stitch")
    out_h, out_w = out_shape
    pitches = {p.pitch for p, _ in patches}
    if len(pitches) != 1:
        raise SizeMismatch("patches must share one pitch")
    num = np.zeros((out_h, out_w))
    den = np.zeros((out_h, out_w))
    for patch, (r, c) in patches:
        ph, pw = patch.shape
        if r < 0 or c < 0 or r + ph > out_h or c + pw > out_w:
            raise SizeMismatch(
                f"{ph}x{pw} patch at ({r}, {c}) leaves the {out_h}x{out_w} frame"
            )
        w = _ramp_profile(ph)[:, None] * _ramp_profile(pw)[None, :]
        num[r : r + ph, c : c + pw] += w * patch.data
        den[r : r + ph, c : c + pw] += w
    if np.any(den == 0.0):
        gaps = int(np.count_nonzero(den == 0.0))
        raise CoverageGap(f"{gaps} output pixels are covered by no patch")
    return RealRaster(num / den, pitches.pop())
