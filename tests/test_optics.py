"""Illumination geometry, pattern design, forward model, transfer function."""

import math

import numpy as np
import pytest

from conftest import bump_field, pattern_images
from phaseuq.config import GeometryBlock, NoiseBlock
from phaseuq.errors import (
    EmptyRegion,
    FrequencyOutOfGrid,
    IndexOutOfRange,
    SizeMismatch,
    ZeroBackground,
)
from phaseuq.grid import crop_center_spectrum, fft2_unitary
from phaseuq.optics import (
    IlluminationPattern,
    add_noise,
    design_patterns,
    forward_leds,
    led_frequency,
    make_pupil,
    phase_transfer_function,
    synthesize_multiplexed,
)

LAM = 0.532


def std_geometry(pitch=2.0, height=60.0, rows=15):
    return GeometryBlock(rows, rows, pitch, height, LAM, rows // 2, rows // 2)


def setup_simulation(n_hi=256, n_det=64, pitch_hi=0.5, na_obj=0.1):
    pupil = make_pupil(na_obj, LAM, (n_det, n_det), pitch_hi * n_hi / n_det)
    return pupil


def phase_object(phi):
    return np.exp(1j * phi)


def single_led(obj, pitch, pupil, u):
    return forward_leds(obj, pitch, pupil, [u])[0]


# ---- led_frequency ----


def test_center_led_frequency_is_zero():
    g = std_geometry()
    led = g.center_row * g.cols + g.center_col
    assert g.led_na(led) == 0.0 and np.all(led_frequency(g, led) == 0.0)


def test_led_at_height_distance_gives_sin45():
    g = GeometryBlock(3, 3, 30.0, 30.0, LAM, 1, 1)
    led = 1 * 3 + 2  # offset (0, 1): r = 30 mm = height
    u, na = led_frequency(g, led), g.led_na(led)
    assert abs(na - math.sin(math.radians(45.0))) < 1e-12
    assert abs(np.hypot(*u) - na / LAM) < 1e-12


def test_synthetic_aperture_na_sum():
    # illumination NA 0.41 on a 0.1 NA objective -> synthetic NA 0.51
    height = 50.0
    r = height * math.tan(math.asin(0.41))
    g = GeometryBlock(21, 21, r / 10.0, height, LAM, 10, 10)
    led = 10 * 21 + 20  # offset (0, 10)
    u, na = led_frequency(g, led), g.led_na(led)
    assert abs(na - 0.41) < 1e-12
    assert abs(np.hypot(*u) * LAM + 0.1 - 0.51) < 1e-12


def test_led_frequency_bounds_check():
    g = std_geometry()
    with pytest.raises(IndexOutOfRange):
        led_frequency(g, g.n_leds)


# ---- design_patterns ----


def test_five_pattern_contract():
    g = std_geometry(pitch=2.0, height=60.0)
    na_obj, na_max = 0.15, 0.41
    pats = design_patterns(g, na_obj, na_max)
    assert len(pats) == 5
    bf = [p for p in pats if p.label.startswith("bf")]
    df = [p for p in pats if p.label.startswith("df")]
    assert len(bf) == 2 and len(df) == 3

    for p in bf:
        assert all(g.led_na(i) <= na_obj for i in p.leds)
    for p in df:
        assert all(na_obj < g.led_na(i) <= na_max for i in p.leds)

    # complete coverage: every admissible LED appears in >= 1 pattern of its class
    bf_union = set().union(*(p.leds for p in bf))
    df_union = set().union(*(p.leds for p in df))
    for led in range(g.n_leds):
        na = g.led_na(led)
        if na <= na_obj:
            assert led in bf_union, f"brightfield LED {led} uncovered"
        elif na <= na_max:
            assert led in df_union, f"darkfield LED {led} uncovered"


def test_patterns_are_point_asymmetric():
    g = std_geometry(pitch=2.0, height=60.0)
    for p in design_patterns(g, 0.15, 0.41):
        members = set(p.leds)
        reflected_absent = 0
        for led in members:
            dr, dc = g.offsets(led)
            rr, rc = g.center_row - dr, g.center_col - dc
            mirror = rr * g.cols + rc
            if not (0 <= rr < g.rows and 0 <= rc < g.cols) or mirror not in members:
                reflected_absent += 1
        assert reflected_absent >= 1, f"pattern {p.label} is point-symmetric"


def test_boundary_na_is_brightfield():
    # an LED exactly at na_obj belongs to the brightfield class (closed bound)
    g = std_geometry(pitch=2.0, height=60.0)
    na_ring1 = g.led_na(g.center_row * g.cols + g.center_col + 1)
    pats = design_patterns(g, na_ring1, 0.41)
    bf_union = set().union(*(p.leds for p in pats[:2]))
    assert g.center_row * g.cols + g.center_col + 1 in bf_union


def test_empty_annulus_raises():
    g = std_geometry(pitch=2.0, height=60.0)
    na1 = g.led_na(g.center_row * g.cols + g.center_col + 1)
    with pytest.raises(EmptyRegion):
        design_patterns(g, na1, na1 * 1.001)


# ---- make_pupil ----


def test_pupil_support_and_symmetry():
    na, lam, n, pitch = 0.25, 0.5, 128, 0.25
    P = make_pupil(na, lam, (n, n), pitch).real
    assert set(np.unique(P)) <= {0.0, 1.0}
    assert P[n // 2, n // 2] == 1.0
    count = P.sum()
    analytic = math.pi * (na / lam * n * pitch) ** 2
    assert abs(count - analytic) / analytic < 0.05
    # quarter turn about the DC pixel (not the half-pixel array centre)
    quarter = np.roll(P[:, ::-1], 1, axis=1).T
    assert np.array_equal(P, quarter)


# ---- forward model ----


def test_flat_object_uniform_intensity():
    pupil = setup_simulation()
    flat = np.ones((256, 256), dtype=complex)
    img = single_led(flat, 0.5, pupil, np.zeros(2))
    assert img.std() / img.mean() < 1e-10
    assert abs(img.mean() - 1.0) < 1e-10


def test_darkfield_led_blocks_flat_object():
    pupil = setup_simulation()
    g = std_geometry()
    flat = np.ones((256, 256), dtype=complex)
    led = g.center_row * g.cols + g.center_col + 6  # na ~ 0.196 > 0.1
    assert g.led_na(led) > 0.1
    img = single_led(flat, 0.5, pupil, led_frequency(g, led))
    assert img.max() < 1e-10


def test_intensity_nonnegative():
    pupil = setup_simulation()
    phi = bump_field(256, seed=11, amplitude=1.5)
    img = single_led(phase_object(phi), 0.5, pupil, np.array([0.0, 0.05]))
    assert np.all(img >= 0.0)


def test_forward_shape_and_bounds_errors():
    pupil = setup_simulation()
    flat = np.ones((256, 256), dtype=complex)
    with pytest.raises(SizeMismatch):
        single_led(flat, 0.5, make_pupil(0.1, LAM, (96, 96), 2.0), np.zeros(2))
    # a shift that pushes the passband off the sampled spectrum
    with pytest.raises(FrequencyOutOfGrid):
        single_led(flat, 0.5, pupil, np.array([0.0, 0.9]))


def test_weak_grating_modulation_at_grating_frequency():
    # an off-axis brightfield LED makes a weak phase grating visible; the
    # zero-phantom image is the null baseline
    n_hi, n_det, pitch = 128, 32, 1.0
    na_obj = 0.05
    pupil = make_pupil(na_obj, 0.5, (n_det, n_det), pitch * n_hi / n_det)
    xx = np.arange(n_hi)
    f_bins = 5
    phi = 0.01 * np.cos(2 * math.pi * f_bins * xx / n_hi)[None, :].repeat(n_hi, axis=0)
    u = np.array([0.0, 8.0 / (n_hi * pitch)])
    img = single_led(np.exp(1j * phi), pitch, pupil, u)
    ref = single_led(np.ones((n_hi, n_hi), complex), pitch, pupil, u)
    S = np.abs(fft2_unitary(img))
    S0 = np.abs(fft2_unitary(ref))
    peak = S[n_det // 2, n_det // 2 + f_bins]
    assert peak > 100.0 * (S0[n_det // 2, n_det // 2 + f_bins] + 1e-15)


def test_forward_leds_match_tilted_plane_wave_reference():
    # one object transform for many LEDs against a per-LED textbook model:
    # tilt the object by the LED's plane wave at its nearest grid bin,
    # transform it, keep the centred detector band and apply the pupil
    n_hi, n_det, pitch = 256, 64, 0.5
    pupil = setup_simulation(n_hi, n_det, pitch)
    g = std_geometry()
    # a random phase screen scatters to every angle, so darkfield images carry signal
    obj = phase_object(np.random.default_rng(7).normal(0.0, 0.5, (n_hi, n_hi)))
    c = g.center_row * g.cols + g.center_col
    leds = [c, c + 1, c - 2 * g.cols + 1, c + 6, c - 4 * g.cols - 3, c + 3 * g.cols + 5]
    nas = [g.led_na(led) for led in leds]
    assert nas[0] == 0.0 and sum(na > 0.1 for na in nas) == 3  # three darkfield LEDs
    freqs = [led_frequency(g, led) for led in leds]
    images = forward_leds(obj, pitch, pupil, freqs)
    assert images.shape == (len(leds), n_det, n_det)
    assert np.array_equal(images[1], single_led(obj, pitch, pupil, freqs[1]))
    rr, cc = np.mgrid[0:n_hi, 0:n_hi]
    df = 1.0 / (n_hi * pitch)
    lo = n_hi // 2 - n_det // 2
    for u, img in zip(freqs, images):
        assert img.mean() > 1e-3
        s_r, s_c = round(u[0] / df), round(u[1] / df)
        tilted = obj * np.exp(2j * np.pi * (s_r * rr + s_c * cc) / n_hi)
        spectrum = np.fft.fftshift(np.fft.fft2(np.fft.ifftshift(tilted), norm="ortho"))
        band = spectrum[lo : lo + n_det, lo : lo + n_det] * (n_det / n_hi) * pupil
        field = np.fft.fftshift(np.fft.ifft2(np.fft.ifftshift(band), norm="ortho"))
        assert np.max(np.abs(img - np.abs(field) ** 2)) <= 1e-12


# ---- multiplexed synthesis ----


def test_singleton_pattern_matches_single_led():
    pupil = setup_simulation()
    g = std_geometry()
    phi = bump_field(256, seed=3, amplitude=0.8)
    obj = phase_object(phi)
    led = g.center_row * g.cols + g.center_col + 1
    stack = forward_leds(obj, 0.5, pupil, [led_frequency(g, led)])
    pat = IlluminationPattern("bf-x", (led,))
    a = synthesize_multiplexed({led: stack[0]}, pat)
    b = single_led(obj, 0.5, pupil, led_frequency(g, led))
    # a singleton pattern is its LED's image, in a new array
    assert np.array_equal(a, b) and not np.shares_memory(a, stack)


def test_disjoint_pattern_additivity():
    pupil = setup_simulation()
    g = std_geometry()
    obj = phase_object(bump_field(256, seed=4, amplitude=0.5))
    c = g.center_row * g.cols + g.center_col
    leds = [c + 1, c - 1, c + g.cols, c - g.cols - 1]
    stack = forward_leds(obj, 0.5, pupil, [led_frequency(g, led) for led in leds])
    images = dict(zip(leds, stack))
    pat_a = IlluminationPattern("bf-a", (c + 1, c - 1))
    pat_b = IlluminationPattern("bf-b", (c + g.cols, c - g.cols - 1))
    pat_ab = IlluminationPattern("bf-ab", pat_a.leds + pat_b.leds)
    im_ab = synthesize_multiplexed(images, pat_ab)
    # the pattern image is the sum of its LED images, added in pattern order
    ordered = np.zeros(pupil.shape)
    for led in pat_ab.leds:
        ordered += images[led]
    assert np.array_equal(im_ab, ordered)
    im_a = synthesize_multiplexed(images, pat_a)
    im_b = synthesize_multiplexed(images, pat_b)
    assert np.max(np.abs(im_ab - im_a - im_b)) < 1e-12


def test_five_designed_patterns_yield_five_images():
    pupil = setup_simulation()
    g = std_geometry()
    obj = phase_object(bump_field(256, seed=5, amplitude=0.6))
    pats = design_patterns(g, 0.1, 0.3)
    images = pattern_images(obj, 0.5, pupil, g, pats)
    assert len(images) == 5
    assert all(im.shape == (64, 64) for im in images)


# ---- phase transfer function ----


def _half_disc_pattern(g, na_obj, side="up"):
    leds = []
    for led in range(g.n_leds):
        if g.led_na(led) > na_obj:
            continue
        dr, dc = g.offsets(led)
        if (side == "up" and -dr >= 0) or (side == "right" and dc >= 0):
            leds.append(led)
    return IlluminationPattern(f"bf-{side}", tuple(leds))


def test_symmetric_source_has_zero_transfer():
    pupil = setup_simulation()
    g = std_geometry()
    c = g.center_row * g.cols + g.center_col
    sym = IlluminationPattern("bf-sym", (c + 1, c - 1, c + g.cols + 1, c - g.cols - 1))
    H = phase_transfer_function(sym, pupil, 2.0, g)
    assert np.max(np.abs(H)) < 1e-12


def test_transfer_function_zero_at_dc_imaginary_odd():
    pupil = setup_simulation()
    g = std_geometry()
    for side in ("up", "right"):
        H = phase_transfer_function(_half_disc_pattern(g, 0.1, side), pupil, 2.0, g)
        n = H.shape[0]
        assert abs(H[n // 2, n // 2]) < 1e-14
        assert np.max(np.abs(H.real)) < 1e-10
        reflected = np.roll(H[::-1, ::-1], (1, 1), axis=(0, 1))
        assert np.max(np.abs(H + reflected)) < 1e-10


def test_weak_object_linearization_matches_forward_model():
    # half-disc source: H*Phi predicts the mean-normalized intensity
    # spectrum of the nonlinear simulation to < 2% relative error
    pupil = setup_simulation()
    g = std_geometry()
    phi = bump_field(256, seed=0, amplitude=0.01)
    obj = phase_object(phi)
    Phi = crop_center_spectrum(fft2_unitary(phi), 64, 64)
    for side in ("up", "right"):
        pat = _half_disc_pattern(g, 0.1, side)
        img = pattern_images(obj, 0.5, pupil, g, [pat])[0]
        ihat = (img - img.mean()) / img.mean()
        S = fft2_unitary(ihat)
        H = phase_transfer_function(pat, pupil, 2.0, g)
        model = H * Phi
        band = np.abs(model) > 1e-3 * np.abs(model).max()
        rel = np.linalg.norm((S - model)[band]) / np.linalg.norm(model[band])
        assert rel < 0.02, f"{side}: rel err {rel}"


def test_dark_source_raises_zero_background():
    pupil = setup_simulation()
    g = std_geometry()
    dark_led = 0  # corner LED, far outside the 0.1 NA pupil
    assert g.led_na(dark_led) > 0.1
    with pytest.raises(ZeroBackground):
        phase_transfer_function(IlluminationPattern("df-x", (dark_led,)), pupil, 2.0, g)


# ---- noise ----


def test_gaussian_sigma_zero_is_identity_and_seeded():
    img = bump_field(64, seed=9, amplitude=2.0)
    assert np.array_equal(add_noise(img, NoiseBlock("gaussian", 0.0), 1), img)
    a = add_noise(img, NoiseBlock("gaussian", 0.1), 42)
    b = add_noise(img, NoiseBlock("gaussian", 0.1), 42)
    assert np.array_equal(a, b)


def test_poisson_preserves_mean():
    noisy = add_noise(np.ones((128, 128)), NoiseBlock("poisson", 1.0e4), 7)
    assert abs(noisy.mean() - 1.0) < 0.01
