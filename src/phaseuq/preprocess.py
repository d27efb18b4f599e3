"""Phase-map conditioning on plain arrays.

Unwrapping, dynamic-range clipping, [0, 1] normalization, background
noise estimation, patch extraction, and alpha-blend stitching. No pixel
pitch enters any of them, so they take and return ndarrays. Everything
here is pure and deterministic.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    CoverageGap,
    DegenerateRange,
    MaskTooSmall,
    NonFiniteInput,
    ShapeMismatch,
    SizeMismatch,
)

TWO_PI = 2.0 * math.pi
# fewest background pixels a noise estimate is taken from
MIN_BACKGROUND_PIXELS = 100


def wrap_phase(values: np.ndarray) -> np.ndarray:
    """Principal value in [-pi, pi)."""
    return np.mod(np.asarray(values, dtype=float) + math.pi, TWO_PI) - math.pi


def unwrap_phase(wrapped: np.ndarray) -> np.ndarray:
    """Least-squares unwrapping with a congruence correction.

    Wrapped forward differences give a discrete Laplacian; the Poisson
    equation is solved under reflecting boundaries by an FFT of its even
    (mirrored) extension to 2M x 2N, divided by 2cos(pi m/M) + 2cos(pi n/N) - 4
    (zero mode pinned to 0), which is the type-II cosine transform's solve.
    The smooth solution is then snapped back onto the input plus exact
    multiples of 2pi, so residue-free fields are recovered up to a global
    constant.
    """
    p = np.asarray(wrapped, dtype=float)
    m, n = p.shape
    dy = wrap_phase(np.diff(p, axis=0))
    dx = wrap_phase(np.diff(p, axis=1))
    rho = np.zeros_like(p)
    rho[:-1, :] += dy
    rho[1:, :] -= dy
    rho[:, :-1] += dx
    rho[:, 1:] -= dx
    rho = np.block([[rho, rho[:, ::-1]], [rho[::-1], rho[::-1, ::-1]]])
    wy = 2.0 * np.cos(np.pi * np.arange(2 * m) / m) - 2.0
    wx = 2.0 * np.cos(np.pi * np.arange(2 * n) / n) - 2.0
    denom = wy[:, None] + wx[None, :]
    denom[0, 0] = 1.0
    coeff = np.fft.fft2(rho) / denom
    coeff[0, 0] = 0.0
    smooth = np.fft.ifft2(coeff)[:m, :n].real
    # snap to input + 2*pi*k; the circular mean removes the arbitrary
    # least-squares offset before rounding so k is spatially consistent
    diff = smooth - p
    offset = np.angle(np.mean(np.exp(1j * diff)))
    k = np.round((diff - offset) / TWO_PI)
    return p + TWO_PI * k


def clip_dynamic_range(x: np.ndarray, fraction: float = 0.001) -> np.ndarray:
    """Clamp the extreme tails, fraction/2 per side.

    Quantiles use the 'lower'/'higher' order statistics rather than
    interpolation, which makes the operation exactly idempotent.
    """
    if not (0.0 <= fraction < 0.5):
        raise NonFiniteInput(f"clip fraction must be in [0, 0.5), got {fraction}")
    if fraction == 0.0:
        return np.array(x, dtype=float)
    lo = np.quantile(x, fraction / 2.0, method="lower")
    hi = np.quantile(x, 1.0 - fraction / 2.0, method="higher")
    return np.clip(x, lo, hi)


def normalize_unit(x: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Affine map onto [0, 1]; returns (array, scale, offset).

    The inverse is values * scale + offset, back in the input units.
    """
    lo = float(x.min())
    hi = float(x.max())
    if hi <= lo:
        raise DegenerateRange(f"constant field (value {lo}) cannot be normalized")
    return (x - lo) / (hi - lo), hi - lo, lo


def estimate_noise(phase: np.ndarray, background_mask: np.ndarray) -> tuple[float, int]:
    """Unbiased sample std over the masked (background) pixels, and their count."""
    mask = np.asarray(background_mask, dtype=bool)
    if mask.shape != phase.shape:
        raise SizeMismatch(f"mask {mask.shape} does not match field {phase.shape}")
    count = int(mask.sum())
    if count < MIN_BACKGROUND_PIXELS:
        raise MaskTooSmall(f"need >= {MIN_BACKGROUND_PIXELS} background pixels, got {count}")
    return float(np.std(phase[mask], ddof=1)), count


def patch_positions(patch: int, stride: int, side: int) -> list[tuple[int, int]]:
    """Row-major (row, col) corners tiling a square field of the given side.

    Windows step by stride; the last row and column are clamped to the
    border. Callers pass the config's 1 <= patch <= side and stride >= 1.
    """
    count = -(-(side - patch) // stride) + 1
    starts = [min(k * stride, side - patch) for k in range(count)]
    return [(r, c) for r in starts for c in starts]


def extract_patches(field: np.ndarray, positions, patch: int) -> np.ndarray:
    """(K, ..., patch, patch) stack of the patch x patch windows of a (..., H, W) field."""
    return np.stack([field[..., r : r + patch, c : c + patch] for r, c in positions])


def _ramp_profile(n: int) -> np.ndarray:
    # triangular, peak 1 at the center, strictly positive at the edges
    i = np.arange(n, dtype=float)
    return np.minimum(i + 1.0, n - i) / math.ceil(n / 2)


def stitch_alpha_blend(
    patches: np.ndarray, positions: list[tuple[int, int]], out_shape: tuple[int, int]
) -> np.ndarray:
    """Mosaic of a (K, h, w) patch tensor at K (row, col) positions, ramp-weighted."""
    if len(patches) == 0:
        raise SizeMismatch("no patches to stitch")
    if len(patches) != len(positions):
        raise ShapeMismatch(f"{len(patches)} patches for {len(positions)} positions")
    patches = np.asarray(patches, dtype=float)
    if patches.ndim != 3:
        raise ShapeMismatch(f"patches must be (K, h, w), got {patches.shape}")
    out_h, out_w = out_shape
    ph, pw = patches.shape[1:]
    w = _ramp_profile(ph)[:, None] * _ramp_profile(pw)[None, :]
    num = np.zeros((out_h, out_w))
    den = np.zeros((out_h, out_w))
    for patch, (r, c) in zip(patches, positions):
        if r < 0 or c < 0 or r + ph > out_h or c + pw > out_w:
            raise SizeMismatch(
                f"{ph}x{pw} patch at ({r}, {c}) leaves the {out_h}x{out_w} frame"
            )
        num[r : r + ph, c : c + pw] += w * patch
        den[r : r + ph, c : c + pw] += w
    if np.any(den == 0.0):
        gaps = int(np.count_nonzero(den == 0.0))
        raise CoverageGap(f"{gaps} output pixels are covered by no patch")
    return num / den
