"""LED-array illumination, pupils, the coherent forward model, and the
weak-phase transfer function.

Geometry convention: LED (row, col) offsets from the centre LED map to
lateral position (x, y) = (col_offset * pitch, -row_offset * pitch), i.e.
x points right and y up.  Spatial frequencies are kept in array order
(f_row, f_col), cycles per micrometre, matching array axes.

Fields, pupils and images are plain 2D ndarrays.  A pixel pitch (micrometres)
is passed only where it becomes a frequency: the pupil's cutoff, the LED
windows of the forward model and the LED shifts of the transfer function.
The detector grid is the pupil's grid.

``forward_leds`` is the only function that turns an object into images.  A
multiplexed pattern image is the incoherent sum of the single-LED images of
the LEDs it switches on, so ``synthesize_multiplexed`` adds rows of a stack
that ``forward_leds`` already formed.

An LED tilts the illumination by a plane wave of frequency u_led; the
camera-plane spectrum is the object spectrum window centred at -u_led
multiplied by the pupil, so the unscattered beam crosses the pupil at
+u_led.  This is the convention the transfer function below is exact for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import GeometryBlock, NoiseBlock
from .errors import EmptyRegion, FrequencyOutOfGrid, SizeMismatch, ZeroBackground
from .grid import fft2_unitary, freq_axis, ifft2_unitary

__all__ = [
    "IlluminationPattern",
    "led_frequency",
    "led_window",
    "design_patterns",
    "make_pupil",
    "forward_leds",
    "synthesize_multiplexed",
    "phase_transfer_function",
    "add_noise",
]


def led_frequency(geometry: GeometryBlock, led: int) -> np.ndarray:
    """Illumination spatial frequency (f_row, f_col) in cycles/um.

    Magnitude is sin(atan(r/height)) / wavelength, i.e. the illumination NA
    (``geometry.led_na``) over the wavelength; direction follows the LED
    offset from centre.
    """
    dr, dc = geometry.offsets(led)
    r = math.hypot(dr, dc)
    if r == 0.0:
        return np.zeros(2)
    return (geometry.led_na(led) / geometry.wavelength) * np.array([dr, dc]) / r


def _wrapped_angle_distance(a: float, b: float) -> float:
    return abs((a - b + 180.0) % 360.0 - 180.0)


def _sector(
    geometry: GeometryBlock,
    na_lo: float,
    na_hi: float,
    center_deg: float,
    width_deg: float,
) -> list[int]:
    """LEDs with na_lo < NA <= na_hi inside a closed angular sector.

    The zero-offset LED (undefined angle) belongs to every sector whose NA
    band admits it.
    """
    chosen = []
    for led in range(geometry.n_leds):
        na = geometry.led_na(led)
        if not (na_lo < na <= na_hi):
            continue
        if na == 0.0 or _wrapped_angle_distance(geometry.led_angle_deg(led), center_deg) <= width_deg / 2.0:
            chosen.append(led)
    return chosen


@dataclass(frozen=True)
class IlluminationPattern:
    """LED set switched on together, each at unit exposure."""

    label: str
    leds: tuple[int, ...]


def design_patterns(
    geometry: GeometryBlock, na_obj: float, na_max: float
) -> list[IlluminationPattern]:
    """Five-pattern multiplexed illumination: 2 brightfield + 3 darkfield.

    Brightfield (NA <= na_obj): two 270-degree sectors centred up and right.
    Together they cover the whole brightfield disc while each keeps a
    point-asymmetric LED set, and their asymmetry axes sit 90 degrees apart,
    which is what the phase transfer functions need for full Fourier
    coverage.  Darkfield (na_obj < NA <= na_max): three 120-degree sectors
    centred at 90/210/330 degrees tile the annulus exactly. Callers pass
    the ``OpticsBlock``'s NAs, so 0 < na_obj < na_max holds.
    """
    sectors = [
        ("bf-up", 0.0, na_obj, 90.0, 270.0),
        ("bf-right", 0.0, na_obj, 0.0, 270.0),
        ("df-90", na_obj, na_max, 90.0, 120.0),
        ("df-210", na_obj, na_max, 210.0, 120.0),
        ("df-330", na_obj, na_max, 330.0, 120.0),
    ]
    patterns = []
    for label, lo, hi, center, width in sectors:
        leds = _sector(geometry, -1.0 if lo == 0.0 else lo, hi, center, width)
        if not leds:
            raise EmptyRegion(f"no LEDs available for pattern {label!r}")
        patterns.append(IlluminationPattern(label, tuple(leds)))
    return patterns


def make_pupil(
    na: float, wavelength: float, shape: tuple[int, int], pitch: float
) -> np.ndarray:
    """Binary circular aperture of cutoff na / wavelength on a centered frequency grid.

    pitch is the detector's pixel spacing; the result is complex.
    """
    h, w = shape
    fr = freq_axis(h, pitch)[:, None]
    fc = freq_axis(w, pitch)[None, :]
    cutoff = na / wavelength
    return (fr**2 + fc**2 <= cutoff**2).astype(np.complex128)


def _led_shift(u_led: np.ndarray, shape: tuple[int, int], pitch: float) -> tuple[int, int]:
    """Nearest bin (row, col) of frequency u_led from DC on a centered grid.

    The grid has the given shape and real-space pitch, so its frequency
    step is 1 / (side * pitch) on each axis.
    """
    df_r = 1.0 / (shape[0] * pitch)
    df_c = 1.0 / (shape[1] * pitch)
    return round(float(u_led[0]) / df_r), round(float(u_led[1]) / df_c)


def led_window(
    u_led: np.ndarray, shape: tuple[int, int], pitch: float, window: tuple[int, int]
) -> tuple[int, int]:
    """Top-left corner of the window-sized block centred at -u_led (nearest bin).

    This is the part of a centered spectrum on the (shape, pitch) grid that
    an LED at u_led shifts onto the pupil; FrequencyOutOfGrid if it leaves
    the grid.
    """
    s_r, s_c = _led_shift(u_led, shape, pitch)
    H, W = shape
    h, w = window
    r0 = H // 2 - s_r - h // 2
    c0 = W // 2 - s_c - w // 2
    if r0 < 0 or c0 < 0 or r0 + h > H or c0 + w > W:
        raise FrequencyOutOfGrid(
            f"illumination shift {(s_r, s_c)} pushes the passband outside the {shape} grid"
        )
    return r0, c0


def forward_leds(
    obj: np.ndarray, pitch: float, pupil: np.ndarray, u_leds: list[np.ndarray]
) -> np.ndarray:
    """Intensities recorded under tilted plane waves, one per frequency in u_leds.

    obj is the complex object on a grid of the given pixel pitch; the
    images, an (L, h, w) stack, lie on the pupil's (h, w) detector grid.
    The object is transformed once. For each LED its spectrum window
    centred at -u_led (nearest grid bin) is multiplied by the pupil and
    inverse-transformed on the detector grid; the window carries the crop
    amplitude scale so a flat unit object maps to unit intensity.
    """
    H, W = obj.shape
    h, w = pupil.shape
    if h < 2 or w < 2 or H % h != 0 or W % w != 0:
        raise SizeMismatch(f"detector {pupil.shape} must divide object grid {obj.shape}")
    spectrum = fft2_unitary(obj)
    scale = math.sqrt((h * w) / (H * W))
    images = np.empty((len(u_leds), h, w))
    for i, u in enumerate(u_leds):
        r0, c0 = led_window(u, obj.shape, pitch, (h, w))
        window = spectrum[r0 : r0 + h, c0 : c0 + w] * scale
        images[i] = np.abs(ifft2_unitary(window * pupil)) ** 2
    return images


def synthesize_multiplexed(
    images: dict[int, np.ndarray], pattern: IlluminationPattern
) -> np.ndarray:
    """Incoherent sum of the single-LED intensities of one pattern.

    images maps each LED to its noise-free single-LED image, as
    ``forward_leds`` forms them; the pattern's images are added in pattern
    order.
    """
    total = np.zeros(images[pattern.leds[0]].shape)
    for led in pattern.leds:
        total += images[led]
    return total


def _reflect_center(a: np.ndarray) -> np.ndarray:
    """Map samples at +u to -u on an even centered grid."""
    return np.roll(a[::-1, ::-1], (1, 1), axis=(0, 1))


def phase_transfer_function(
    pattern: IlluminationPattern,
    pupil: np.ndarray,
    pitch: float,
    geometry: GeometryBlock,
) -> np.ndarray:
    """Weak-phase transfer function of an LED pattern on the pupil's grid.

    H(u) = i [C(u) - C*(-u)] / B with C(u) = sum_j P*(u_j) P(u_j + u)
    and B = sum_j |P(u_j)|^2, where pitch is the detector's pixel spacing.
    Purely imaginary and odd for a real pupil; identically zero for
    point-symmetric patterns.
    """
    P = pupil
    h, w = P.shape
    C = np.zeros_like(P)
    B = 0.0
    for led in pattern.leds:
        s_r, s_c = _led_shift(led_frequency(geometry, led), (h, w), pitch)
        r_i, c_i = h // 2 + s_r, w // 2 + s_c
        # an LED beyond the sampled frequency grid is outside the pupil
        if not (0 <= r_i < h and 0 <= c_i < w):
            continue
        p_j = P[r_i, c_i]
        B += abs(p_j) ** 2
        if p_j != 0.0:
            # roll so sample k reads P(u_j + u_k)
            C += np.conj(p_j) * np.roll(P, (-s_r, -s_c), axis=(0, 1))
    if B == 0.0:
        raise ZeroBackground(f"pattern {pattern.label!r} passes no light through the pupil")
    return 1j * (C - _reflect_center(np.conj(C))) / B


def add_noise(img: np.ndarray, noise: NoiseBlock, seed: int) -> np.ndarray:
    """img with the block's measurement noise.

    gaussian adds a normal draw of std level, so level 0 leaves every
    intensity's bytes as they are (intensities are >= +0.0); poisson draws
    photon counts at level photons per unit intensity and scales them back.
    """
    rng = np.random.default_rng(seed)
    if noise.model == "gaussian":
        return img + noise.level * rng.standard_normal(img.shape)
    return rng.poisson(img * noise.level) / noise.level
