"""Phase reconstruction: sequential FPM synthetic-aperture retrieval and the
linear DPC deconvolution baseline.

Both reconstructors consume intensities produced by the optics forward model
and share its spectrum-window convention (window centred at -u_led, the
unscattered beam crossing the pupil at +u_led).  The SFPM LED loop keeps that
convention at its boundary but runs in the FFT's own unshifted layout, calling
scipy.fft directly, which is loaded on the first reconstruction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    FrequencyOutOfGrid,
    InsufficientGrid,
    NonFiniteInput,
    SizeMismatch,
    ZeroMeanImage,
)
from .grid import (
    ComplexRaster,
    RealRaster,
    embed_center_spectrum,
    fft2_unitary,
    ifft2_unitary,
    swap_quadrants,
)
from .optics import (
    IlluminationPattern,
    LedArrayGeometry,
    Pupil,
    led_frequency,
    make_pupil,
    phase_transfer_function,
)

__all__ = [
    "SfpmConfig",
    "MeasurementStack",
    "sfpm_reconstruct",
    "dpc_reconstruct",
    "dpc_deconvolve",
    "subtract_mean_phase",
]


@dataclass(frozen=True)
class SfpmConfig:
    """Iteration hyperparameters for the sequential solver."""

    epochs: int = 50
    step: float = 1.0
    order: str = "ascending-na"
    init: str = "upsampled-brightfield"

    def __post_init__(self):
        if self.epochs < 1:
            raise NonFiniteInput(f"epochs must be >= 1, got {self.epochs}")
        if not (0.0 < self.step <= 1.0):
            raise NonFiniteInput(f"step must be in (0, 1], got {self.step}")
        if self.order != "ascending-na":
            raise NonFiniteInput(f"unknown LED order {self.order!r}")
        if self.init not in ("flat", "upsampled-brightfield"):
            raise NonFiniteInput(f"unknown init {self.init!r}")


@dataclass(frozen=True)
class MeasurementStack:
    """Single-LED intensity images keyed by LED index."""

    images: dict[int, RealRaster]
    geometry: LedArrayGeometry
    na_obj: float

    def __post_init__(self):
        if not self.images:
            raise SizeMismatch("measurement stack is empty")
        shapes = {img.shape for img in self.images.values()}
        pitches = {img.pitch for img in self.images.values()}
        if len(shapes) != 1 or len(pitches) != 1:
            raise SizeMismatch("stack images must share shape and pitch")

    @property
    def detector_shape(self) -> tuple[int, int]:
        return next(iter(self.images.values())).shape

    @property
    def detector_pitch(self) -> float:
        return next(iter(self.images.values())).pitch


def subtract_mean_phase(phase: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
    """Fix the global phase offset by zeroing the (masked) mean."""
    ref = phase[mask] if mask is not None else phase
    return phase - ref.mean()


def sfpm_reconstruct(
    stack: MeasurementStack,
    cfg: SfpmConfig,
    hires_shape: tuple[int, int],
    residuals: list[float] | None = None,
) -> ComplexRaster:
    """Sequential synthetic-aperture phase retrieval.

    Per epoch, LEDs are visited in ascending illumination NA.  The spectrum
    window for LED j is propagated to the camera plane, its magnitude is
    replaced by sqrt(I_j) keeping the phase (psi * sqrt(I_j) / |psi|, or
    sqrt(I_j) where psi = 0), and the window is corrected by the
    pupil-weighted difference.  Passing a list as ``residuals`` collects
    the per-epoch data misfit sum ||sqrt(I_j) - |psi_j|||^2 so callers can
    judge convergence; non-convergence is not an error, a non-finite misfit
    raises NonFiniteInput.

    The LED loop runs in the FFT's own layout (DC at index 0): each window
    is quadrant-swapped once on the way in and once on the way out, and the
    pupil, its gain and sqrt(I_j) are swapped once before the loop.  This
    needs even detector sides.
    """
    from scipy import fft

    g = stack.geometry
    n_r, n_c = stack.detector_shape
    N_r, N_c = hires_shape
    na_illum = {led: led_frequency(g, led)[1] for led in stack.images}
    na_illum_max = max(na_illum.values())
    needed = math.ceil((stack.na_obj + na_illum_max) / stack.na_obj)
    if N_r % n_r or N_c % n_c or N_r // n_r != N_c // n_c or N_r // n_r < needed:
        raise InsufficientGrid(
            f"hires {hires_shape} over detector {stack.detector_shape} must be an "
            f"integer factor >= {needed}"
        )

    det_pitch = stack.detector_pitch
    hi_pitch = det_pitch * n_r / N_r
    pupil = make_pupil(stack.na_obj, g.wavelength, (n_r, n_c), det_pitch)
    P = pupil.raster.data
    df_r = 1.0 / (N_r * hi_pitch)
    df_c = 1.0 / (N_c * hi_pitch)
    amp_scale = math.sqrt((n_r * n_c) / (N_r * N_c))
    # Psi = amp_scale * W * P, and W += step * conj(P) / max|P|^2 * dPsi / amp_scale
    p_scaled = swap_quadrants(amp_scale * P)
    gain = swap_quadrants(cfg.step * np.conj(P) / np.max(np.abs(P)) ** 2 / amp_scale)

    order = sorted(stack.images, key=lambda led: (na_illum[led], led))

    if cfg.init == "flat":
        O = fft2_unitary(ComplexRaster(np.ones((N_r, N_c), dtype=complex), hi_pitch)).data
    else:
        on_axis = min(order, key=lambda led: (na_illum[led], led))
        amp = np.sqrt(np.maximum(stack.images[on_axis].data, 0.0))
        small = fft2_unitary(ComplexRaster(amp.astype(complex), det_pitch))
        O = embed_center_spectrum(small, N_r, N_c).data.copy()

    sqrt_meas = {
        led: swap_quadrants(np.sqrt(np.maximum(stack.images[led].data, 0.0)))
        for led in order
    }
    windows = {}
    for led in order:
        u, _ = led_frequency(g, led)
        s_r = round(float(u[0]) / df_r)
        s_c = round(float(u[1]) / df_c)
        r0 = N_r // 2 - s_r - n_r // 2
        c0 = N_c // 2 - s_c - n_c // 2
        if r0 < 0 or c0 < 0 or r0 + n_r > N_r or c0 + n_c > N_c:
            raise FrequencyOutOfGrid(f"LED {led} passband leaves the {hires_shape} grid")
        windows[led] = (r0, c0)

    for _ in range(cfg.epochs):
        misfit = 0.0
        for led in order:
            r0, c0 = windows[led]
            window = O[r0 : r0 + n_r, c0 : c0 + n_c]
            W = swap_quadrants(window)
            Psi = W * p_scaled
            psi = fft.ifft2(Psi, norm="ortho")
            mag = np.abs(psi)
            target = sqrt_meas[led]
            misfit += float(np.sum((target - mag) ** 2))
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = target / mag
                psi_new = psi * ratio
            # |psi| = 0 (or so small the ratio overflows): keep the phase of psi
            lost = ~np.isfinite(ratio)
            if lost.any():
                psi_new[lost] = target[lost] * np.exp(1j * np.angle(psi[lost]))
            Psi_new = fft.fft2(psi_new, norm="ortho")
            W += gain * (Psi_new - Psi)
            window[...] = swap_quadrants(W)
        if not math.isfinite(misfit):
            raise NonFiniteInput(f"sfpm misfit became {misfit} during an epoch")
        if residuals is not None:
            residuals.append(misfit)

    field = ifft2_unitary(ComplexRaster(O, hi_pitch))
    return ComplexRaster(field.data, hi_pitch)


def dpc_deconvolve(
    normalized: list[RealRaster],
    transfer: list[ComplexRaster],
    beta: float = 0.1,
) -> RealRaster:
    """Tikhonov-regularized linear inversion of mean-normalized intensities.

    Transfer functions are rescaled to unit peak magnitude (with the matching
    rescale of each data spectrum) so beta is expressed relative to a unit
    passband response.  Linear in the input images.
    """
    if len(normalized) != len(transfer) or not normalized:
        raise SizeMismatch("need one transfer function per image")
    shape = normalized[0].shape
    num = np.zeros(shape, dtype=complex)
    den = np.full(shape, float(beta))
    for img, tf in zip(normalized, transfer):
        if img.shape != shape or tf.shape != shape:
            raise SizeMismatch("images and transfer functions must share one grid")
        peak = np.max(np.abs(tf.data))
        scale = peak if peak > 0 else 1.0
        Ht = tf.data / scale
        spectrum = fft2_unitary(img).data / scale
        num += np.conj(Ht) * spectrum
        den += np.abs(Ht) ** 2
    phase = ifft2_unitary(ComplexRaster(num / den, normalized[0].pitch))
    return RealRaster(phase.data.real, normalized[0].pitch)


def dpc_reconstruct(
    bf_images: list[RealRaster],
    patterns: list[IlluminationPattern],
    pupil: Pupil,
    geometry: LedArrayGeometry,
    tikhonov_beta: float = 0.1,
) -> RealRaster:
    """One-shot weak-phase reconstruction from brightfield pattern images."""
    if len(bf_images) != len(patterns) or not bf_images:
        raise SizeMismatch("need one pattern per brightfield image")
    normalized = []
    transfer = []
    for img, pat in zip(bf_images, patterns):
        mean = float(img.data.mean())
        if mean <= 0.0:
            raise ZeroMeanImage(f"image for pattern {pat.label!r} has non-positive mean")
        normalized.append(RealRaster((img.data - mean) / mean, img.pitch))
        transfer.append(phase_transfer_function(pat, pupil, geometry))
    return dpc_deconvolve(normalized, transfer, tikhonov_beta)
