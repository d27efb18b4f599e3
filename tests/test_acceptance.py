"""Acceptance criteria, one test per criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion; each test also prints its measured figures (visible with
``-s`` or on failure). Every test carries its own tolerance and wall-clock
budget and asserts both.
"""

import math
import time

import numpy as np
import pytest

from conftest import (
    TRAIN_AMPLITUDE_CAP,
    bump_field,
    hetero_dataset,
    hetero_holdout,
    pattern_images,
    smooth_field,
)
from phaseuq import pipeline
from phaseuq.cli import DEMO_CONFIG
from phaseuq.config import GeometryBlock, SfpmConfig, TrainConfig, parse_config
from phaseuq.grid import crop_center_spectrum, fft2_unitary, ifft2_unitary
from phaseuq.learner import (
    RegressorParams,
    backward,
    forward,
    init_params,
    nll_loss,
    predict_ensemble,
    train,
    train_ensemble,
)
from phaseuq.learner import _forward_cols
from phaseuq.optics import (
    IlluminationPattern,
    design_patterns,
    forward_leds,
    led_frequency,
    make_pupil,
    phase_transfer_function,
)
from phaseuq.preprocess import (
    clip_dynamic_range,
    extract_patches,
    patch_positions,
    stitch_alpha_blend,
    unwrap_phase,
    wrap_phase,
)
from phaseuq.recon import (
    MeasurementStack,
    dpc_reconstruct,
    sfpm_reconstruct,
)
from phaseuq.uqstats import (
    PredictiveEnsemble,
    PredictiveMap,
    credibility_map,
    credible_bound,
    decompose_uncertainty,
    reliability_diagram,
)

LAM = 0.532
NA_OBJ = 0.1


def signed_bumps(n_px, seed, bumps=14, sig=(3.0, 6.0), amplitude=0.1, margin=0.15):
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


def report(num, text):
    print(f"criterion {num:02d}: {text}")


# ------------------------------------------------------------ 1


def test_01_synthetic_aperture_closure():
    """Noise-free closed loop at 256 -> 64 with 121 LEDs, RMSE < 0.01 rad."""
    t0 = time.time()
    g = GeometryBlock(11, 11, 2.0, 60.0, LAM, 5, 5)
    assert g.n_leds >= 100
    phi = bump_field(256, seed=1, amplitude=1.0)
    obj = np.exp(1j * phi)
    pupil = make_pupil(NA_OBJ, LAM, (64, 64), 2.0)
    leds = range(g.n_leds)
    images = forward_leds(obj, 0.5, pupil, [led_frequency(g, led) for led in leds])
    stack = MeasurementStack(dict(zip(leds, images)), g, NA_OBJ, 2.0)
    rec = sfpm_reconstruct(stack, SfpmConfig(epochs=50), (256, 256))
    diff = np.angle(rec) - phi
    rmse = float(np.sqrt(np.mean((diff - diff.mean()) ** 2)))
    elapsed = time.time() - t0
    report(1, f"closure rmse {rmse:.3e} rad, {g.n_leds} LEDs, {elapsed:.1f}s")
    assert rmse < 0.01
    assert elapsed < 60.0


# ------------------------------------------------------------ 2


def test_02_dpc_accuracy_and_symmetry_null():
    """Weak-object recovery within 5 percent in-band; symmetric source nulls."""
    t0 = time.time()
    g = GeometryBlock(15, 15, 2.0, 60.0, LAM, 7, 7)
    pupil = make_pupil(NA_OBJ, LAM, (64, 64), 2.0)
    patterns = design_patterns(g, NA_OBJ, g.max_na())[:2]

    phi = signed_bumps(256, seed=0)
    obj = np.exp(1j * phi)
    imgs = pattern_images(obj, 0.5, pupil, g, patterns)
    rec = dpc_reconstruct(imgs, patterns, pupil, 2.0, g)

    # reference: the phantom band-limited to the 2 NA_obj transfer support
    spec = crop_center_spectrum(fft2_unitary(phi), 64, 64)
    fr = (np.arange(64) - 32)[:, None]
    fc = (np.arange(64) - 32)[None, :]
    band = fr**2 + fc**2 <= ((2 * NA_OBJ / LAM) * 64 * 2.0) ** 2
    ref = ifft2_unitary(spec * band).real
    err = (rec - rec.mean()) - (ref - ref.mean())
    rmse = float(np.sqrt(np.mean(err**2)))
    span = float(ref.max() - ref.min())

    symmetric = IlluminationPattern(
        "bf-full",
        tuple(led for led in range(g.n_leds) if g.led_na(led) <= NA_OBJ),
    )
    h_null = float(np.max(np.abs(phase_transfer_function(symmetric, pupil, 2.0, g))))

    elapsed = time.time() - t0
    report(2, f"in-band rmse {rmse:.4f} of span {span:.4f}, "
              f"symmetric |H|max {h_null:.2e}, {elapsed:.1f}s")
    assert rmse < 0.05 * span
    assert h_null < 1e-12
    assert elapsed < 10.0


# ------------------------------------------------------------ 3


def test_03_pattern_design_counts_and_coverage():
    """Exactly 2 brightfield + 3 darkfield patterns covering every usable LED."""
    t0 = time.time()
    g = GeometryBlock(11, 11, 2.0, 60.0, LAM, 5, 5)
    na_max = g.max_na()
    patterns = design_patterns(g, NA_OBJ, na_max)
    bf = [p for p in patterns if p.label.startswith("bf")]
    df = [p for p in patterns if p.label.startswith("df")]
    assert len(patterns) == 5 and len(bf) == 2 and len(df) == 3

    for p in bf:
        assert all(g.led_na(led) <= NA_OBJ for led in p.leds)
    for p in df:
        assert all(NA_OBJ < g.led_na(led) <= na_max for led in p.leds)
    covered = set().union(*(set(p.leds) for p in patterns))
    admissible = {led for led in range(g.n_leds) if g.led_na(led) <= na_max}
    assert covered == admissible

    elapsed = time.time() - t0
    report(3, f"2 BF + 3 DF patterns cover {len(covered)}/{len(admissible)} LEDs, "
              f"{elapsed:.2f}s")
    assert elapsed < 1.0


# ------------------------------------------------------------ 4


def relu_signature(params, x, y):
    ones = np.ones((1, 32))
    out, (z1, z2, z3), _ = _forward_cols(params.as_list(), x[None], ones)
    return (z1 > 0, z2 > 0, z3 > 0, np.sign(y - out[0]))


def test_04_analytic_gradients_match_finite_differences():
    """Central differences agree to 1e-4 on 200+ kink-free parameters."""
    t0 = time.time()
    rng = np.random.default_rng(17)
    x = rng.normal(size=(5, 16, 16))
    y = rng.normal(size=(16, 16))
    params = init_params(17)
    grads, _ = backward(params, x, y)
    sizes = [a.size for a in params.as_list()]
    flat = np.concatenate([a.ravel() for a in params.as_list()])
    gflat = np.concatenate([a.ravel() for a in grads.as_list()])

    def unflatten(values):
        arrays, at = [], 0
        for template in params.as_list():
            arrays.append(values[at : at + template.size].reshape(template.shape))
            at += template.size
        return RegressorParams(*arrays)

    h = 1e-5
    picks = rng.choice(flat.size, size=230, replace=False)
    checked, worst = 0, 0.0
    for i in picks:
        sides = {}
        for sgn in (+1, -1):
            bumped = flat.copy()
            bumped[i] += sgn * h
            p = unflatten(bumped)
            sides[sgn] = (relu_signature(p, x, y), nll_loss(forward(p, x), y))
        if any(not np.array_equal(a, b) for a, b in zip(sides[1][0], sides[-1][0])):
            continue  # a ReLU or |.| kink sits inside the stencil
        fd = (sides[1][1] - sides[-1][1]) / (2.0 * h)
        rel = abs(fd - gflat[i]) / max(abs(fd), abs(gflat[i]), 1e-10)
        worst = max(worst, rel)
        checked += 1

    elapsed = time.time() - t0
    report(4, f"{checked} parameters checked (of {len(picks)} drawn over "
              f"{sum(sizes)}), worst rel err {worst:.2e}, {elapsed:.1f}s")
    assert checked >= 200
    assert worst < 1e-4
    assert elapsed < 30.0


# ------------------------------------------------------------ 5


def test_05_sigma_head_recovers_noise_scale():
    """The loss minimizer sits at sigma = |r|, and training finds it."""
    t0 = time.time()

    r = 0.37
    coarse = np.linspace(1e-3, 2.0, 400001)
    best = coarse[np.argmin(abs(r) / coarse + np.log(coarse))]
    fine = np.linspace(best - 1e-5, best + 1e-5, 200001)
    best = fine[np.argmin(abs(r) / fine + np.log(fine))]
    assert abs(best - r) < 1e-6

    cfg = TrainConfig(lr=5e-3, epochs=250, batch_size=16, dropout_rate=0.1, seed=1)
    params = train(hetero_dataset(64, seed=0), cfg)
    ratios = []
    for inputs, sig_true, _ in hetero_holdout(32):
        _, sigma = forward(params, inputs)
        ratios.append((sigma / sig_true).ravel())
    ratios = np.concatenate(ratios)
    frac = float(np.mean((ratios >= 0.5) & (ratios <= 2.0)))

    elapsed = time.time() - t0
    report(5, f"minimizer at {best:.8f} for |r|={r}, sigma within [0.5, 2]x truth "
              f"on {frac:.3f} of held-out pixels, {elapsed:.1f}s")
    assert frac >= 0.90
    assert elapsed < 600.0


# ------------------------------------------------------------ 6


def test_06_degenerate_ensemble_decomposition():
    """Identical members: zero model sigma, data sigma sqrt(2) sigma, exact sum."""
    t0 = time.time()
    mu = smooth_field(32, 3)
    sig = 0.05 + 0.1 * smooth_field(32, 4)
    member = PredictiveMap(mu, sig)
    ens = PredictiveEnsemble((member,) * 4)
    maps = decompose_uncertainty(ens)

    model_max = float(np.max(np.abs(maps.model_sigma)))
    data_err = float(np.max(np.abs(maps.data_sigma - math.sqrt(2.0) * sig)))
    sum_err = float(
        np.max(np.abs(maps.total_sigma**2 - maps.data_sigma**2 - maps.model_sigma**2))
    )
    elapsed = time.time() - t0
    report(6, f"model sigma max {model_max:.1e}, data sigma err {data_err:.1e}, "
              f"sum identity err {sum_err:.1e}, {elapsed:.2f}s")
    assert model_max == 0.0
    assert data_err < 1e-12
    assert sum_err < 1e-12
    assert elapsed < 1.0


# ------------------------------------------------------------ 7


def test_07_credibility_closed_forms():
    """Single-member analytics: 3-sigma mass, 95 percent bound, roundtrip."""
    t0 = time.time()
    sigma0 = 0.2
    member = PredictiveMap(np.full((24, 24), 0.4), np.full((24, 24), sigma0))
    ens = PredictiveEnsemble((member,))

    cred = credibility_map(ens, 3.0 * sigma0)
    cred_err = float(np.max(np.abs(cred - (1.0 - math.exp(-3.0)))))

    tol = 1e-6
    bound = credible_bound(ens, 0.95)
    expected = -math.log(0.05) * sigma0
    bound_err = float(np.max(np.abs(bound - expected)))

    roundtrip = 1.0 - np.exp(-bound / sigma0)
    rt_err = float(np.max(np.abs(roundtrip - 0.95)))

    elapsed = time.time() - t0
    report(7, f"3-sigma mass err {cred_err:.1e}, bound err {bound_err:.1e} "
              f"(expected {expected:.5f}), roundtrip err {rt_err:.1e}, {elapsed:.2f}s")
    assert cred_err < 1e-12
    assert bound_err < 1e-5
    assert rt_err < 10.0 * tol
    assert elapsed < 1.0


# ------------------------------------------------------------ 8


def test_08_reliability_diagram_self_consistency():
    """On calibrated synthetic data every populated bin gaps below 0.02."""
    t0 = time.time()
    rng = np.random.default_rng(21)
    shape = (640, 640)
    eps = 1.0
    p_target = rng.uniform(0.02, 0.98, size=shape)
    sigma = -eps / np.log1p(-p_target)
    mu = rng.normal(size=shape)
    truth = rng.laplace(mu, sigma)
    member = PredictiveMap(mu, sigma)
    ens = PredictiveEnsemble((member,))

    mean = decompose_uncertainty(ens).mean
    diagram = reliability_diagram(credibility_map(ens, eps), eps, mean, truth, delta_p=0.04)
    checked = int(diagram.count[diagram.populated].sum())
    gap = diagram.max_gap()

    elapsed = time.time() - t0
    report(8, f"{checked} pixels across {diagram.populated.sum()} populated bins, "
              f"max |accuracy - credibility| {gap:.4f}, {elapsed:.1f}s")
    assert len(diagram.count) == 25
    assert checked >= 100000
    assert gap < 0.02
    assert elapsed < 30.0


# ------------------------------------------------------------ 9 and 10


@pytest.fixture(scope="module")
def trained_ensemble():
    t0 = time.time()
    cfg = TrainConfig(
        lr=5e-3, epochs=150, batch_size=16, dropout_rate=0.1, seed=10, ensemble_size=8
    )
    models = train_ensemble(hetero_dataset(64, seed=0), cfg)
    return models, time.time() - t0


def test_09_model_sigma_tracks_heteroscedastic_error(trained_ensemble):
    """Data sigma correlates with held-out absolute error, Pearson > 0.3."""
    models, build = trained_ensemble
    t0 = time.time()
    sig_d, err = [], []
    for inputs, _, latent in hetero_holdout(32):
        maps = decompose_uncertainty(predict_ensemble(models, inputs))
        sig_d.append(maps.data_sigma.ravel())
        err.append(np.abs(maps.mean - latent).ravel())
    pearson = float(np.corrcoef(np.concatenate(sig_d), np.concatenate(err))[0, 1])
    elapsed = build + time.time() - t0
    report(9, f"held-out Pearson(data sigma, |error|) = {pearson:.3f}, "
              f"{elapsed:.1f}s incl. ensemble fit")
    assert pearson > 0.3
    assert elapsed < 900.0


def test_10_out_of_distribution_sigma_inflation(trained_ensemble):
    """Amplitude-1.0 phantoms inflate data sigma 1.5x over the trained range."""
    models, build = trained_ensemble
    t0 = time.time()
    assert TRAIN_AMPLITUDE_CAP == 0.5  # training phantoms stay at or below this

    id_sig = []
    for inputs, _, _ in hetero_holdout(32):
        maps = decompose_uncertainty(predict_ensemble(models, inputs))
        id_sig.append(maps.data_sigma.ravel())
    id_mean = float(np.concatenate(id_sig).mean())

    ood_sig = []
    for inputs, _, latent in hetero_holdout(32, amplitude=1.0):
        maps = decompose_uncertainty(predict_ensemble(models, inputs))
        ood_sig.append(maps.data_sigma[latent > TRAIN_AMPLITUDE_CAP].ravel())
    ood_mean = float(np.concatenate(ood_sig).mean())

    ratio = ood_mean / id_mean
    elapsed = build + time.time() - t0
    report(10, f"data sigma OOD/ID ratio {ratio:.3f} "
               f"({ood_mean:.4f}/{id_mean:.4f}), {elapsed:.1f}s incl. ensemble fit")
    assert ratio >= 1.5
    assert elapsed < 900.0


# ------------------------------------------------------------ 11


def test_11_demo_pipeline_is_bit_reproducible(tmp_path):
    """Two full demo runs emit byte-identical artifact trees."""
    t0 = time.time()
    cfg = parse_config(DEMO_CONFIG)
    a = pipeline.demo_stage(cfg, tmp_path / "a")
    b = pipeline.demo_stage(cfg, tmp_path / "b")

    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    assert files_a == files_b and files_a
    mismatched = [
        str(rel) for rel in files_a if (a / rel).read_bytes() != (b / rel).read_bytes()
    ]
    elapsed = time.time() - t0
    report(11, f"{len(files_a)} files compared, {len(mismatched)} mismatched, "
               f"{elapsed:.1f}s for both runs")
    assert mismatched == []
    assert elapsed < 600.0


# ------------------------------------------------------------ 12


def test_12_preprocessing_identities():
    """Unwrap over 4 pi, stitch-extract identity, clip idempotence, blending."""
    t0 = time.time()

    phi = 4.0 * math.pi * smooth_field(64, 2, bumps=5, sigma_range=(8.0, 16.0))
    unwrapped = unwrap_phase(wrap_phase(phi))
    unwrap_err = float(np.max(np.abs((unwrapped - unwrapped.mean()) - (phi - phi.mean()))))

    field = bump_field(96, 5)
    positions = patch_positions(32, 24, 96)
    patches = extract_patches(field, positions, 32)
    stitch_err = float(
        np.max(np.abs(stitch_alpha_blend(patches, positions, (96, 96)) - field))
    )

    rng = np.random.default_rng(8)
    noisy = rng.normal(size=(128, 128)) + 50.0 * rng.binomial(1, 0.01, (128, 128))
    once = clip_dynamic_range(noisy, 0.01)
    twice = clip_dynamic_range(once, 0.01)
    clip_idempotent = bool(np.array_equal(once, twice))

    ones = np.ones((len(positions), 32, 32))
    blend_err = float(
        np.max(np.abs(stitch_alpha_blend(ones, positions, (96, 96)) - 1.0))
    )

    elapsed = time.time() - t0
    report(12, f"unwrap err {unwrap_err:.1e}, stitch err {stitch_err:.1e}, "
               f"clip idempotent {clip_idempotent}, blend err {blend_err:.1e}, "
               f"{elapsed:.1f}s")
    assert unwrap_err < 1e-6
    assert stitch_err < 1e-10
    assert clip_idempotent
    assert blend_err < 1e-12
    assert elapsed < 30.0
