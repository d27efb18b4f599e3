"""Shared synthetic-field helpers for the test suite."""

import numpy as np
import pytest

from phaseuq import learner
from phaseuq.learner import Dataset
from phaseuq.optics import forward_leds, led_frequency, synthesize_multiplexed


def bump_field(n, seed, bumps=6, sigma_range=(10.0, 24.0), margin=0.25, amplitude=1.0):
    """Sum of random Gaussian bumps, scaled to a given peak amplitude.

    Bump centres stay inside the central (1 - 2*margin) window so the field
    decays smoothly toward the frame borders.
    """
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:n, 0:n].astype(float)
    field = np.zeros((n, n))
    lo, hi = margin * n, (1.0 - margin) * n
    for _ in range(bumps):
        cy, cx = rng.uniform(lo, hi, size=2)
        s = rng.uniform(*sigma_range)
        field += rng.uniform(0.4, 1.0) * np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * s * s))
    peak = np.abs(field).max()
    if peak > 0:
        field *= amplitude / peak
    return field


def pattern_images(obj, pitch, pupil, geometry, patterns):
    """Noise-free pattern images from one forward_leds call over the patterns' LEDs."""
    leds = sorted({led for p in patterns for led in p.leds})
    stack = forward_leds(obj, pitch, pupil, [led_frequency(geometry, led) for led in leds])
    images = dict(zip(leds, stack))
    return [synthesize_multiplexed(images, p) for p in patterns]


def smooth_field(n, seed, bumps=5, sigma_range=(2.5, 5.0)):
    """Random positive bump mixture normalized to [0, 1] over the frame."""
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:n, 0:n].astype(float)
    field = np.zeros((n, n))
    for _ in range(bumps):
        cy, cx = rng.uniform(0, n, size=2)
        s = rng.uniform(*sigma_range)
        field += rng.uniform(0.3, 1.0) * np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * s * s))
    field -= field.min()
    return field / field.max()


# heteroscedastic regression task shared by the learner and acceptance
# suites. The per-pixel label noise grows exponentially with the target
# value, and the five input channels saturate at INPUT_RAIL, so large
# out-of-range targets present an in-range (trained) input pattern.

INPUT_RAIL = 0.55
TRAIN_AMPLITUDE_CAP = 0.5
BACKGROUND_LEVEL = 0.06


def hetero_sigma(target):
    """Noise scale of the heteroscedastic task at a given target value."""
    return 0.015 * np.exp(4.0 * np.asarray(target, dtype=float))


def hetero_pair(seed, amplitude, n=16):
    """One (5, n, n) input stack and its target, with value-dependent Laplacian noise.

    Returns the inputs, the noisy target, the per-pixel noise scale, and
    the clean target field (before label noise).
    """
    t = BACKGROUND_LEVEL + smooth_field(n, seed) * (amplitude - BACKGROUND_LEVEL)
    sig_true = hetero_sigma(t)
    rng = np.random.default_rng(seed + 777)
    x = np.minimum(t + rng.laplace(0.0, 0.02, (5, n, n)), INPUT_RAIL)
    y = np.clip(t + rng.laplace(0.0, sig_true), 0.0, 1.0)
    return x, y, sig_true, t


def hetero_dataset(n_train=64, seed=0):
    """Training patches with max amplitude capped at TRAIN_AMPLITUDE_CAP."""
    rng = np.random.default_rng(seed)
    pairs = [
        hetero_pair(i, rng.uniform(0.2, TRAIN_AMPLITUDE_CAP))[:2] for i in range(n_train)
    ]
    xs, ys = (np.stack(a) for a in zip(*pairs))
    return Dataset(xs, ys, np.zeros(n_train, dtype=bool))


def hetero_holdout(n_val=32, amplitude=None, base_seed=1000):
    """Held-out (inputs, noise scale, clean target); amplitude defaults to the training range."""
    rng = np.random.default_rng(base_seed)
    out = []
    for i in range(n_val):
        amp = rng.uniform(0.2, TRAIN_AMPLITUDE_CAP) if amplitude is None else amplitude
        x, _, sig_true, t = hetero_pair(base_seed + i, amp)
        out.append((x, sig_true, t))
    return out


@pytest.fixture
def blas_threads():
    """The first OpenBLAS's (get, set), set to two threads and restored after."""
    controls = learner._openblas_thread_controls()
    if not controls:
        pytest.skip("no OpenBLAS thread-count entry point in this process")
    get, set_ = controls[0]
    before = get()
    set_(2)
    yield get, set_
    set_(before)
