"""Closed-loop reconstruction checks: the simulator is the oracle."""

import numpy as np
import pytest

from conftest import bump_field, pattern_images
from phaseuq import recon
from phaseuq.config import GeometryBlock, SfpmConfig
from phaseuq.errors import (
    ConfigError,
    InsufficientGrid,
    NonFiniteInput,
    ZeroMeanImage,
)
from phaseuq.grid import crop_center_spectrum, fft2_unitary, ifft2_unitary
from phaseuq.optics import design_patterns, forward_leds, led_frequency, make_pupil
from phaseuq.recon import (
    MeasurementStack,
    dpc_deconvolve,
    dpc_reconstruct,
    sfpm_reconstruct,
)

LAM = 0.532
NA_OBJ = 0.1


def signed_bumps(n_px, seed, bumps=14, sig=(3.0, 6.0), amplitude=0.1, margin=0.15):
    """Weak phantom with excursions of both signs, mid-band feature sizes."""
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:n_px, 0:n_px].astype(float)
    f = np.zeros((n_px, n_px))
    lo, hi = margin * n_px, (1 - margin) * n_px
    for _ in range(bumps):
        cy, cx = rng.uniform(lo, hi, 2)
        s = rng.uniform(*sig)
        f += rng.choice([-1.0, 1.0]) * rng.uniform(0.4, 1.0) * np.exp(
            -((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * s * s)
        )
    return f * (amplitude / np.abs(f).max())


def simulate_stack(geometry, phi, n_hi, n_det, pitch_hi, leds=None):
    det_pitch = pitch_hi * n_hi / n_det
    pupil = make_pupil(NA_OBJ, LAM, (n_det, n_det), det_pitch)
    leds = list(leds if leds is not None else range(geometry.n_leds))
    u_leds = [led_frequency(geometry, led) for led in leds]
    images = forward_leds(np.exp(1j * phi), pitch_hi, pupil, u_leds)
    return MeasurementStack(dict(zip(leds, images)), geometry, NA_OBJ, det_pitch), pupil


@pytest.fixture(scope="module")
def closure_run():
    """121-LED noiseless closed loop at 4x synthetic bandwidth."""
    g = GeometryBlock(11, 11, 2.0, 60.0, LAM, 5, 5)
    phi = bump_field(256, seed=1, amplitude=1.0)
    stack, _ = simulate_stack(g, phi, 256, 64, 0.5)
    residuals = []
    rec = sfpm_reconstruct(stack, 50, (256, 256), residuals=residuals)
    return g, phi, rec, residuals


def test_sfpm_flat_object_is_fixed_point():
    g = GeometryBlock(7, 7, 2.0, 60.0, LAM, 3, 3)
    stack, _ = simulate_stack(g, np.zeros((128, 128)), 128, 32, 0.5)
    rec = sfpm_reconstruct(stack, 3, (128, 128))
    assert np.angle(rec).std() < 1e-3


def test_sfpm_closure_rmse(closure_run):
    _, phi, rec, _ = closure_run
    diff = np.angle(rec) - phi
    diff -= diff.mean()
    assert np.sqrt(np.mean(diff**2)) < 0.01


def test_sfpm_residual_collapses(closure_run):
    *_, residuals = closure_run
    assert len(residuals) == 50
    assert residuals[-1] < 1e-12 * residuals[0]


def test_sfpm_spectrum_confined_to_synthetic_aperture(closure_run):
    g, _, rec, _ = closure_run
    O = fft2_unitary(rec)
    n = O.shape[0]
    fr = (np.arange(n) - n // 2)[:, None]
    fc = (np.arange(n) - n // 2)[None, :]
    # synthetic cutoff (na_obj + na_illum_max)/lambda, in frequency bins
    radius = (NA_OBJ + g.max_na()) / LAM * (n * 0.5)
    outside = fr**2 + fc**2 > (radius + 2.0) ** 2
    assert np.max(np.abs(O[outside])) < 1e-12 * np.max(np.abs(O))


@pytest.mark.parametrize("seed", range(5))
def test_sfpm_residual_shrinks_across_phantoms(seed):
    g = GeometryBlock(9, 9, 2.2, 60.0, LAM, 4, 4)
    phi = bump_field(128, seed=seed, amplitude=1.0, sigma_range=(6.0, 14.0))
    stack, _ = simulate_stack(g, phi, 128, 32, 0.5)
    residuals = []
    sfpm_reconstruct(stack, 8, (128, 128), residuals=residuals)
    assert residuals[-1] < 0.1 * residuals[0]


def test_sfpm_translation_consistency():
    g = GeometryBlock(9, 9, 2.2, 60.0, LAM, 4, 4)
    phi = bump_field(128, seed=7, amplitude=0.8, sigma_range=(6.0, 14.0))
    shift = (8, 4)  # whole high-res pixels, multiple of the 4x factor
    stack_a, _ = simulate_stack(g, phi, 128, 32, 0.5)
    stack_b, _ = simulate_stack(g, np.roll(phi, shift, axis=(0, 1)), 128, 32, 0.5)
    rec_a = sfpm_reconstruct(stack_a, 6, (128, 128))
    rec_b = sfpm_reconstruct(stack_b, 6, (128, 128))
    assert np.max(np.abs(np.roll(rec_a, shift, axis=(0, 1)) - rec_b)) < 1e-9


def test_sfpm_determinism(closure_run):
    g, phi, rec, _ = closure_run
    stack, _ = simulate_stack(g, phi, 256, 64, 0.5)
    again = sfpm_reconstruct(stack, 50, (256, 256))
    assert np.array_equal(again, rec)


def reference_sfpm(stack, epochs, n_hi):
    """Textbook sequential FPM on centred spectra: every transform wrapped in
    fftshift/ifftshift, and the magnitude replaced via exp(1j * angle)."""
    g, n = stack.geometry, next(iter(stack.images.values())).shape[0]
    hi_pitch = stack.pitch * n / n_hi
    shift = np.fft.fftshift

    def fft_c(x):
        return shift(np.fft.fft2(np.fft.ifftshift(x), norm="ortho"))

    def ifft_c(x):
        return shift(np.fft.ifft2(np.fft.ifftshift(x), norm="ortho"))

    P = make_pupil(stack.na_obj, g.wavelength, (n, n), stack.pitch)
    p_gain = np.conj(P) / np.max(np.abs(P)) ** 2
    amp_scale = n / n_hi
    order = sorted(stack.images, key=lambda led: (g.led_na(led), led))
    O = np.zeros((n_hi, n_hi), dtype=complex)
    c = n_hi // 2 - n // 2
    O[c : c + n, c : c + n] = fft_c(np.sqrt(stack.images[order[0]])) / amp_scale
    df = 1.0 / (n_hi * hi_pitch)
    for _ in range(epochs):
        for led in order:
            u = led_frequency(g, led)
            r0 = n_hi // 2 - round(float(u[0]) / df) - n // 2
            c0 = n_hi // 2 - round(float(u[1]) / df) - n // 2
            W = O[r0 : r0 + n, c0 : c0 + n]
            Psi = amp_scale * W * P
            psi = ifft_c(Psi)
            psi_new = np.sqrt(stack.images[led]) * np.exp(1j * np.angle(psi))
            W += p_gain * (fft_c(psi_new) - Psi) / amp_scale
    return ifft_c(O)


def test_sfpm_matches_textbook_reference():
    # the built-in demo geometry: 9x9 LEDs, 32^2 detector, 128^2 field
    g = GeometryBlock(9, 9, 2.2, 60.0, LAM, 4, 4)
    phi = bump_field(128, seed=2, amplitude=1.0, sigma_range=(6.0, 14.0))
    stack, _ = simulate_stack(g, phi, 128, 32, 0.5)
    rec = sfpm_reconstruct(stack, 1, (128, 128))
    want = reference_sfpm(stack, 1, 128)
    assert np.max(np.abs(rec - want)) <= 1e-9


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_sfpm_non_finite_loop_value_raises(monkeypatch):
    g = GeometryBlock(7, 7, 2.0, 60.0, LAM, 3, 3)
    stack, pupil = simulate_stack(g, np.zeros((128, 128)), 128, 32, 0.5)
    broken = pupil.copy()
    broken[16, 16] = np.nan
    monkeypatch.setattr(recon, "make_pupil", lambda *args: broken)
    residuals = []
    with pytest.raises(NonFiniteInput):
        sfpm_reconstruct(stack, 3, (128, 128), residuals=residuals)
    assert residuals == []  # raised at the end of the first epoch


def test_sfpm_insufficient_grid():
    g = GeometryBlock(9, 9, 2.2, 60.0, LAM, 4, 4)
    stack, _ = simulate_stack(g, np.zeros((128, 128)), 128, 32, 0.5, leds=[40, 0])
    with pytest.raises(InsufficientGrid):
        sfpm_reconstruct(stack, 1, (64, 64))


def test_sfpm_config_validation():
    with pytest.raises(ConfigError):
        SfpmConfig(epochs=0)


# ---- DPC ----


@pytest.fixture(scope="module")
def dpc_setup():
    g = GeometryBlock(15, 15, 2.0, 60.0, LAM, 7, 7)
    pupil = make_pupil(NA_OBJ, LAM, (64, 64), 2.0)
    patterns = design_patterns(g, NA_OBJ, g.max_na())[:2]
    return g, pupil, patterns


def band_limited_reference(phi, n_det, pitch_hi, n_hi):
    """Reference phase on the detector grid, limited to the 2*NA_obj disc."""
    spec = crop_center_spectrum(fft2_unitary(phi), n_det, n_det)
    fr = (np.arange(n_det) - n_det // 2)[:, None]
    fc = (np.arange(n_det) - n_det // 2)[None, :]
    det_pitch = pitch_hi * n_hi / n_det
    band = fr**2 + fc**2 <= ((2 * NA_OBJ / LAM) * n_det * det_pitch) ** 2
    return ifft2_unitary(spec * band).real, band


def test_dpc_flat_object_reconstructs_zero(dpc_setup):
    g, pupil, patterns = dpc_setup
    flat = np.ones((256, 256), dtype=complex)
    imgs = pattern_images(flat, 0.5, pupil, g, patterns)
    rec = dpc_reconstruct(imgs, patterns, pupil, 2.0, g)
    assert np.max(np.abs(rec - rec.mean())) < 1e-6


@pytest.mark.parametrize("seed", [0, 5])
def test_dpc_weak_phantom_accuracy(dpc_setup, seed):
    g, pupil, patterns = dpc_setup
    phi = signed_bumps(256, seed)
    imgs = pattern_images(np.exp(1j * phi), 0.5, pupil, g, patterns)
    rec = dpc_reconstruct(imgs, patterns, pupil, 2.0, g)
    ref, _ = band_limited_reference(phi, 64, 0.5, 256)
    err = (rec - rec.mean()) - (ref - ref.mean())
    rmse = np.sqrt(np.mean(err**2))
    assert rmse < 0.05 * (ref.max() - ref.min())


def test_dpc_rejects_frequencies_beyond_twice_na(dpc_setup):
    g, _, patterns = dpc_setup
    n_hi, n_det = 256, 128
    pupil = make_pupil(NA_OBJ, LAM, (n_det, n_det), 1.0)
    xx = np.arange(n_hi)
    f_bin = 52  # beyond the 2*NA_obj support radius of ~48.1 bins
    phi = signed_bumps(n_hi, 2, amplitude=0.05) + 0.05 * np.cos(
        2 * np.pi * f_bin * xx / n_hi
    )[None, :].repeat(n_hi, axis=0)
    imgs = pattern_images(np.exp(1j * phi), 0.5, pupil, g, patterns)
    rec = dpc_reconstruct(imgs, patterns, pupil, 1.0, g)
    spec = fft2_unitary(rec)
    peak = np.abs(spec[n_det // 2, n_det // 2 + f_bin])
    assert peak < 1e-10 * np.max(np.abs(spec))


def test_dpc_linearity_on_normalized_inputs(dpc_setup):
    g, pupil, patterns = dpc_setup
    from phaseuq.optics import phase_transfer_function

    rng = np.random.default_rng(11)
    tfs = [phase_transfer_function(p, pupil, 2.0, g) for p in patterns]
    norm = [rng.standard_normal((64, 64)) for _ in patterns]
    one = dpc_deconvolve(norm, tfs)
    scaled = dpc_deconvolve([3.0 * im for im in norm], tfs)
    assert np.max(np.abs(scaled - 3.0 * one)) < 1e-12 * max(1.0, np.max(np.abs(one)))


def test_dpc_zero_mean_image_raises(dpc_setup):
    g, pupil, patterns = dpc_setup
    zero = np.zeros((64, 64))
    with pytest.raises(ZeroMeanImage):
        dpc_reconstruct([zero, zero], patterns, pupil, 2.0, g)


def test_dpc_determinism(dpc_setup):
    g, pupil, patterns = dpc_setup
    phi = signed_bumps(256, 9)
    imgs = pattern_images(np.exp(1j * phi), 0.5, pupil, g, patterns)
    a = dpc_reconstruct(imgs, patterns, pupil, 2.0, g)
    b = dpc_reconstruct(imgs, patterns, pupil, 2.0, g)
    assert np.array_equal(a, b)
