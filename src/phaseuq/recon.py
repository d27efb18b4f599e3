"""Phase reconstruction: sequential FPM synthetic-aperture retrieval and the
linear DPC deconvolution baseline.

Both reconstructors consume intensities produced by the optics forward model
and share its spectrum-window convention (window centred at -u_led, the
unscattered beam crossing the pupil at +u_led).  The SFPM LED loop keeps that
convention at its boundary but runs in the FFT's own unshifted layout, calling
grid's unshifted unitary transform directly.

Images, pupils and fields are plain 2D ndarrays.  The detector pixel pitch
travels as a float: in ``MeasurementStack`` for sfpm, whose pupil and LED
windows need it, and as an argument of ``dpc_reconstruct`` for its transfer
functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import GeometryBlock, SfpmConfig
from .errors import InsufficientGrid, NonFiniteInput, ZeroMeanImage
from .grid import (
    _fft2_ortho,
    embed_center_spectrum,
    fft2_unitary,
    ifft2_unitary,
    swap_quadrants,
)
from .optics import (
    IlluminationPattern,
    led_frequency,
    led_window,
    make_pupil,
    phase_transfer_function,
)

__all__ = [
    "MeasurementStack",
    "sfpm_reconstruct",
    "dpc_reconstruct",
    "dpc_deconvolve",
    "DPC_BETA",
]

# Tikhonov weight of the DPC inversion, relative to a unit passband response
DPC_BETA = 0.1


@dataclass(frozen=True)
class MeasurementStack:
    """Single-LED intensity images keyed by LED index, on a detector of the given pitch."""

    images: dict[int, np.ndarray]
    geometry: GeometryBlock
    na_obj: float
    pitch: float


def sfpm_reconstruct(
    stack: MeasurementStack,
    cfg: SfpmConfig,
    hires_shape: tuple[int, int],
    residuals: list[float] | None = None,
) -> np.ndarray:
    """Sequential synthetic-aperture phase retrieval; returns the complex field.

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
    g = stack.geometry
    n_r, n_c = next(iter(stack.images.values())).shape
    N_r, N_c = hires_shape
    na_illum = {led: g.led_na(led) for led in stack.images}
    na_illum_max = max(na_illum.values())
    needed = math.ceil((stack.na_obj + na_illum_max) / stack.na_obj)
    if N_r % n_r or N_c % n_c or N_r // n_r != N_c // n_c or N_r // n_r < needed:
        raise InsufficientGrid(
            f"hires {hires_shape} over detector {(n_r, n_c)} must be an "
            f"integer factor >= {needed}"
        )

    hi_pitch = stack.pitch * n_r / N_r
    P = make_pupil(stack.na_obj, g.wavelength, (n_r, n_c), stack.pitch)
    amp_scale = math.sqrt((n_r * n_c) / (N_r * N_c))
    # Psi = amp_scale * W * P, and W += step * conj(P) / max|P|^2 * dPsi / amp_scale
    p_scaled = swap_quadrants(amp_scale * P)
    gain = swap_quadrants(cfg.step * np.conj(P) / np.max(np.abs(P)) ** 2 / amp_scale)

    order = sorted(stack.images, key=lambda led: (na_illum[led], led))

    if cfg.init == "flat":
        O = fft2_unitary(np.ones((N_r, N_c), dtype=complex))
    else:
        on_axis = min(order, key=lambda led: (na_illum[led], led))
        amp = np.sqrt(np.maximum(stack.images[on_axis], 0.0))
        O = embed_center_spectrum(fft2_unitary(amp.astype(complex)), N_r, N_c)

    sqrt_meas = {
        led: swap_quadrants(np.sqrt(np.maximum(stack.images[led], 0.0)))
        for led in order
    }
    windows = {
        led: led_window(led_frequency(g, led), hires_shape, hi_pitch, (n_r, n_c))
        for led in order
    }

    # buffers every update reuses; it does the same operations as on fresh arrays
    W = np.empty((n_r, n_c), dtype=complex)
    Psi = np.empty_like(W)
    mag = np.empty((n_r, n_c))
    for _ in range(cfg.epochs):
        misfit = 0.0
        for led in order:
            r0, c0 = windows[led]
            window = O[r0 : r0 + n_r, c0 : c0 + n_c]
            swap_quadrants(window, out=W)
            np.multiply(W, p_scaled, out=Psi)
            psi = _fft2_ortho(Psi, inverse=True)
            np.abs(psi, out=mag)
            target = sqrt_meas[led]
            misfit += float(np.sum((target - mag) ** 2))
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = np.divide(target, mag, out=mag)
                # |psi| = 0 (or so small the ratio overflows): keep the phase of psi
                lost = ~np.isfinite(ratio)
                kept = target[lost] * np.exp(1j * np.angle(psi[lost])) if lost.any() else None
                psi *= ratio
            if kept is not None:
                psi[lost] = kept
            Psi_new = _fft2_ortho(psi, out=psi)
            W += np.multiply(gain, np.subtract(Psi_new, Psi, out=Psi_new), out=Psi_new)
            swap_quadrants(W, out=window)
        if not math.isfinite(misfit):
            raise NonFiniteInput(f"sfpm misfit became {misfit} during an epoch")
        if residuals is not None:
            residuals.append(misfit)

    return ifft2_unitary(O)


def dpc_deconvolve(normalized: list[np.ndarray], transfer: list[np.ndarray]) -> np.ndarray:
    """Tikhonov-regularized linear inversion of mean-normalized intensities.

    Transfer functions are rescaled to unit peak magnitude (with the matching
    rescale of each data spectrum) so DPC_BETA is expressed relative to a unit
    passband response.  Linear in the input images, which come one per
    transfer function, all on one grid.
    """
    shape = normalized[0].shape
    num = np.zeros(shape, dtype=complex)
    den = np.full(shape, DPC_BETA)
    for img, tf in zip(normalized, transfer):
        peak = np.max(np.abs(tf))
        scale = peak if peak > 0 else 1.0
        Ht = tf / scale
        spectrum = fft2_unitary(img) / scale
        num += np.conj(Ht) * spectrum
        den += np.abs(Ht) ** 2
    return ifft2_unitary(num / den).real


def dpc_reconstruct(
    bf_images: list[np.ndarray],
    patterns: list[IlluminationPattern],
    pupil: np.ndarray,
    pitch: float,
    geometry: GeometryBlock,
) -> np.ndarray:
    """One-shot weak-phase reconstruction from brightfield pattern images.

    The images, one per pattern, lie on the pupil's grid, whose pixel
    spacing is pitch.
    """
    normalized = []
    transfer = []
    for img, pat in zip(bf_images, patterns):
        mean = float(img.mean())
        if mean <= 0.0:
            raise ZeroMeanImage(f"image for pattern {pat.label!r} has non-positive mean")
        normalized.append((img - mean) / mean)
        transfer.append(phase_transfer_function(pat, pupil, pitch, geometry))
    return dpc_deconvolve(normalized, transfer)
