"""Synthetic ground-truth phase objects for closed-loop experiments.

Each phantom is a plain 2D float array in pixel units, with no pixel pitch.
"""

from __future__ import annotations

import numpy as np

# bump centres stay this fraction of the frame away from its border
MARGIN = 0.15
# spoke count of the Siemens star
SPOKES = 16


def gaussian_bumps(
    shape: tuple[int, int],
    count: int,
    amplitude_lo: float,
    amplitude_hi: float,
    seed: int,
) -> np.ndarray:
    """Smooth positive bump mixture with a drawn peak amplitude.

    The bump sum is normalized to unit peak and rescaled by one draw
    from [amplitude_lo, amplitude_hi], so the map's maximum equals that
    draw exactly. Centers stay MARGIN away from the frame border, and
    bump widths are drawn from [1/16, 1/8] of the shorter side.
    """
    h, w = shape
    sigma_range = (min(h, w) / 16.0, min(h, w) / 8.0)
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:h, 0:w].astype(float)
    field = np.zeros((h, w))
    for _ in range(count):
        cy = rng.uniform(MARGIN * h, (1.0 - MARGIN) * h)
        cx = rng.uniform(MARGIN * w, (1.0 - MARGIN) * w)
        s = rng.uniform(*sigma_range)
        field += rng.uniform(0.4, 1.0) * np.exp(
            -((yy - cy) ** 2 + (xx - cx) ** 2) / (2.0 * s * s)
        )
    amplitude = rng.uniform(amplitude_lo, amplitude_hi)
    peak = field.max()
    if peak > 0.0:
        field *= amplitude / peak
    return field


def resolution_target(shape: tuple[int, int], amplitude: float) -> np.ndarray:
    """Siemens-star phase target: spatial frequency grows toward center.

    Spoke modulation amplitude/2 * (1 + cos(SPOKES * theta)) inside a
    soft-edged disc of radius 0.45 * min(shape); a small central plug is
    blanked where the spoke period would alias.
    """
    h, w = shape
    yy, xx = np.mgrid[0:h, 0:w].astype(float)
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    r = np.hypot(yy - cy, xx - cx)
    theta = np.arctan2(yy - cy, xx - cx)
    star = 0.5 * (1.0 + np.cos(SPOKES * theta))
    radius = 0.45 * min(h, w)
    taper = np.clip((radius - r) / (0.1 * radius), 0.0, 1.0)
    # local azimuthal period in px is 2 pi r / SPOKES; blank below ~2 px
    inner = SPOKES / np.pi
    core = np.clip((r - inner) / 2.0, 0.0, 1.0)
    return amplitude * star * taper * core
