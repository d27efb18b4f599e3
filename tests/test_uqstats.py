"""Mixture statistics, credibility, bounds, reliability diagrams."""

import csv
import math

import numpy as np
import pytest

from phaseuq.errors import NonFiniteInput, NonPositiveSigma
from phaseuq import uqstats
from phaseuq.grid import RealRaster
from phaseuq.uqstats import (
    BOUND_TOL,
    MIN_BIN_COUNT,
    PredictiveEnsemble,
    PredictiveMap,
    credibility_map,
    credible_bound,
    decompose_uncertainty,
    laplace_cdf,
    reliability_diagram,
)


def mk_map(mu, sigma):
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    return PredictiveMap(RealRaster(mu), RealRaster(sigma))


def mk_ensemble(members):
    return PredictiveEnsemble(tuple(members))


def random_ensemble(seed, n=8, p=4):
    rng = np.random.default_rng(seed)
    members = [
        mk_map(rng.normal(0.0, 1.0, (n, n)), rng.uniform(0.2, 2.0, (n, n)))
        for _ in range(p)
    ]
    return mk_ensemble(members)


# ------------------------------------------------------------- laplace_cdf


def test_cdf_at_mean_is_half():
    assert laplace_cdf(1.7, 1.7, 0.3) == 0.5


def test_cdf_three_sigma():
    mu, sig = 0.4, 0.8
    expected = 1.0 - math.exp(-3.0) / 2.0
    assert abs(laplace_cdf(mu + 3 * sig, mu, sig) - expected) < 1e-12


def test_cdf_strictly_increasing_on_grid():
    y = np.linspace(-6.0, 6.0, 301)
    f = laplace_cdf(y, 0.3, 0.7)
    assert np.all(np.diff(f) > 0.0)


def test_cdf_symmetry():
    # F(mu + d) + F(mu - d) = 1 for the symmetric Laplace
    d = np.linspace(0.0, 5.0, 41)
    total = laplace_cdf(1.0 + d, 1.0, 0.5) + laplace_cdf(1.0 - d, 1.0, 0.5)
    assert np.max(np.abs(total - 1.0)) < 1e-12


def test_cdf_rejects_nonpositive_sigma():
    with pytest.raises(NonPositiveSigma):
        laplace_cdf(0.0, 0.0, 0.0)
    with pytest.raises(NonPositiveSigma):
        laplace_cdf(0.0, np.zeros(3), np.array([1.0, -0.1, 2.0]))


# ------------------------------------------------------- mixture mean


def test_mean_single_member_identity():
    rng = np.random.default_rng(0)
    mu = rng.normal(size=(5, 5))
    ens = mk_ensemble([mk_map(mu, np.ones((5, 5)))])
    assert np.array_equal(decompose_uncertainty(ens).mean, mu)


def test_mean_two_members():
    ens = mk_ensemble(
        [mk_map(np.full((3, 3), 1.0), np.ones((3, 3))),
         mk_map(np.full((3, 3), 3.0), np.ones((3, 3)))]
    )
    assert np.array_equal(decompose_uncertainty(ens).mean, np.full((3, 3), 2.0))


def test_mean_reorder_invariant():
    ens = random_ensemble(3)
    flipped = mk_ensemble(ens.members[::-1])
    assert np.allclose(
        decompose_uncertainty(ens).mean,
        decompose_uncertainty(flipped).mean,
        rtol=0,
        atol=1e-15,
    )


# --------------------------------------------------- decompose_uncertainty


def test_decompose_identical_members():
    rng = np.random.default_rng(1)
    mu = rng.normal(size=(6, 6))
    sigma = rng.uniform(0.5, 1.5, (6, 6))
    ens = mk_ensemble([mk_map(mu, sigma)] * 4)
    maps = decompose_uncertainty(ens)
    assert np.all(maps.model_sigma == 0.0)
    assert np.max(np.abs(maps.data_sigma - math.sqrt(2.0) * sigma)) < 1e-12
    assert np.max(np.abs(maps.total_sigma - math.sqrt(2.0) * sigma)) < 1e-12


def test_decompose_two_point_model_sigma():
    sig = np.full((4, 4), 1e-12)
    ens = mk_ensemble([mk_map(np.zeros((4, 4)), sig), mk_map(np.full((4, 4), 2.0), sig)])
    maps = decompose_uncertainty(ens)
    assert np.max(np.abs(maps.model_sigma - 1.0)) < 1e-12


def test_decompose_sum_identity_random():
    for seed in range(4):
        maps = decompose_uncertainty(random_ensemble(seed))
        gap = (
            maps.total_sigma**2
            - maps.data_sigma**2
            - maps.model_sigma**2
        )
        assert np.max(np.abs(gap)) < 1e-12


def test_decompose_mean_matches_predictive_mean():
    # the equal-weight mixture mean, mu_hat = mean over members of mu_p
    ens = random_ensemble(9)
    mu_hat = np.mean([m.mu.data for m in ens.members], axis=0)
    assert np.array_equal(decompose_uncertainty(ens).mean, mu_hat)


# --------------------------------------------------------- credibility_map


def test_credibility_single_member_three_sigma():
    sigma = 0.7
    ens = mk_ensemble([mk_map(np.zeros((4, 4)), np.full((4, 4), sigma))])
    cmap = credibility_map(ens, 3.0 * sigma)
    expected = 1.0 - math.exp(-3.0)
    assert np.max(np.abs(cmap - expected)) < 1e-12


def test_credibility_zero_epsilon():
    cmap = credibility_map(random_ensemble(2), 0.0)
    assert np.all(cmap == 0.0)


def test_credibility_large_epsilon_captures_all_mass():
    ens = random_ensemble(5)
    sig = np.stack([m.sigma.data for m in ens.members])
    mus = np.stack([m.mu.data for m in ens.members])
    spread = np.abs(mus - mus.mean(axis=0)).max()
    cmap = credibility_map(ens, 50.0 * sig.max() + spread)
    assert np.all(cmap > 1.0 - 1e-9)


def test_credibility_monotone_in_epsilon():
    ens = random_ensemble(7)
    grid = np.linspace(0.0, 6.0, 25)
    prev = credibility_map(ens, 0.0)
    for eps in grid[1:]:
        cur = credibility_map(ens, eps)
        assert np.all(cur >= prev - 1e-15)
        prev = cur


def test_credibility_matches_monte_carlo():
    # mixture credibility vs counting draws, within 3 standard errors
    rng = np.random.default_rng(11)
    p_members, n_draws = 3, 10**5
    mus = rng.normal(0.0, 1.0, p_members)
    sigmas = rng.uniform(0.3, 1.2, p_members)
    ens = mk_ensemble([mk_map(np.full((1, 1), m), np.full((1, 1), s))
                       for m, s in zip(mus, sigmas)])
    eps = 1.1
    p = float(credibility_map(ens, eps)[0, 0])
    draws = np.concatenate(
        [rng.laplace(m, s, n_draws) for m, s in zip(mus, sigmas)]
    )
    frac = np.mean(np.abs(draws - mus.mean()) <= eps)
    se = math.sqrt(p * (1.0 - p) / draws.size)
    assert abs(frac - p) <= 3.0 * se


def test_credibility_rejects_negative_epsilon():
    with pytest.raises(NonFiniteInput):
        credibility_map(random_ensemble(0), -0.1)


# ---------------------------------------------------------- credible_bound


def test_bound_single_member_95():
    sigma = 0.6
    ens = mk_ensemble([mk_map(np.zeros((3, 3)), np.full((3, 3), sigma))])
    eps = credible_bound(ens, 0.95)
    expected = -sigma * math.log(0.05)
    assert np.max(np.abs(eps - expected)) < 1e-5


def test_bound_zero_target():
    eps = credible_bound(random_ensemble(4), 0.0)
    assert np.all(eps == 0.0)


def test_bound_roundtrip():
    for seed in (0, 1):
        ens = random_ensemble(seed)
        for target in (0.5, 0.9, 0.99):
            eps = credible_bound(ens, target)
            back = _credibility_of(ens, eps)
            assert np.all(back >= target - 10 * BOUND_TOL)
            assert np.all(back <= target + 10 * BOUND_TOL)


def _credibility_of(ens, eps_map):
    # pointwise mixture credibility at a per-pixel epsilon
    mus = np.stack([m.mu.data for m in ens.members])
    sigmas = np.stack([m.sigma.data for m in ens.members])
    mu_hat = mus.mean(axis=0)
    hi = laplace_cdf(mu_hat + eps_map, mus, sigmas)
    lo = laplace_cdf(mu_hat - eps_map, mus, sigmas)
    return (hi - lo).mean(axis=0)


def test_bound_monotone_in_target():
    ens = random_ensemble(6)
    bounds = [credible_bound(ens, t) for t in (0.2, 0.5, 0.8, 0.95)]
    for a, b in zip(bounds, bounds[1:]):
        assert np.all(b >= a - 1e-9)


def _assert_tight(ens, bound, target):
    """mass(bound) >= target, and mass falls short max(2 BOUND_TOL, 1e-9 bound) lower.

    The mass here comes from laplace_cdf, which rounds apart from
    credible_bound's own by up to a few 1e-16.
    """
    assert np.all(_credibility_of(ens, bound) >= target - 1e-12)
    shrink = np.maximum(2.0 * BOUND_TOL, 1e-9 * bound)
    assert np.all(_credibility_of(ens, bound - shrink) < target)


def test_bound_identical_members():
    # every member bound is the same, so the bracket starts zero wide
    rng = np.random.default_rng(15)
    member = mk_map(rng.normal(size=(6, 6)), rng.uniform(0.1, 2.0, (6, 6)))
    for target in (0.3, 0.9, 0.98):
        ens = mk_ensemble([member] * 3)
        bound = credible_bound(ens, target)
        _assert_tight(ens, bound, target)
        single = credible_bound(mk_ensemble([member]), target)
        assert np.max(np.abs(bound - single)) <= 1e-6


def huge_sigma_ensemble(*bigs):
    """Four members over 16 x 16 pixels; the last ones have sigma = bigs at a third of them."""
    rng = np.random.default_rng(16)
    shape = (16, 16)
    sigmas = [rng.uniform(0.01, 0.3, shape) for _ in range(4)]
    for sigma, big in zip(sigmas[::-1], bigs):
        sigma[::3, ::2] = big
    return mk_ensemble([mk_map(rng.normal(0.5, 0.2, shape), sigma) for sigma in sigmas])


def test_bound_with_members_at_huge_sigma():
    # near 1e63 a bracket tol wide is below the float spacing of the bound,
    # so there the bound is tight to 1e-9 of itself
    ens = huge_sigma_ensemble(1e9, 1e63)
    for target in (0.5, 0.9, 0.98):
        bound = credible_bound(ens, target)
        if target > 0.75:
            assert bound.max() > 1e62
        _assert_tight(ens, bound, target)


def test_bound_evaluations_do_not_grow_with_sigma_range(monkeypatch):
    # bisection from 50 sigma_max took about log2(50 sigma_max / tol) mass
    # evaluations per block: 27, 57 and 236 for these three ensembles
    calls = []
    real = uqstats._mass_and_slope

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(uqstats, "_mass_and_slope", counting)
    for big in (1.0, 1e9, 1e63):
        ens = huge_sigma_ensemble(big)
        for target in (0.5, 0.9, 0.98):
            calls.clear()
            bound = credible_bound(ens, target)
            assert len(calls) <= 20, (big, target, len(calls))
            _assert_tight(ens, bound, target)


def _member_mass(t, a):
    """Mass of [-t, t] under Laplace(a, 1), from its CDF."""
    return laplace_cdf(t, a, 1.0) - laplace_cdf(-t, a, 1.0)


def test_member_bound_closed_forms_match_bisection():
    # p below the member's mass at t = a takes the asinh branch, above it log cosh
    for a in (0.0, 0.3, 2.0, 30.0, 800.0):
        for p in (0.05, 0.3, 0.6, 0.98):
            got = float(uqstats._member_bounds(np.array([[a]]), np.array([[1.0]]), p)[0, 0])
            lo, hi = 0.0, a + 100.0
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if _member_mass(mid, a) < p else (lo, mid)
            assert abs(got - hi) <= 1e-12 * max(1.0, hi), (a, p, got, hi)


def _bisected_bound(ens, target, tol):
    """credible_bound as plain bisection from 50 sigma_max, for reference."""
    mus = np.stack([m.mu.data for m in ens.members])
    sigmas = np.stack([m.sigma.data for m in ens.members])
    upper = 50.0 * sigmas.max(axis=0) + np.abs(mus - mus.mean(axis=0)).max(axis=0)
    lo, hi = np.zeros_like(upper), upper
    for _ in range(math.ceil(math.log2(upper.max() / tol)) + 1):
        mid = 0.5 * (lo + hi)
        below = _credibility_of(ens, mid) < target
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return hi


def test_bound_matches_plain_bisection():
    for seed in (0, 1, 2):
        ens = random_ensemble(seed, n=16, p=5)
        for target in (0.1, 0.5, 0.9, 0.98):
            got = credible_bound(ens, target)
            assert np.max(np.abs(got - _bisected_bound(ens, target, BOUND_TOL))) <= BOUND_TOL


# ------------------------------------------------------ blockwise evaluation


def wide_ensemble():
    """1,665 pixels (not a multiple of 7 or 1,000), one member at sigma 1e9."""
    rng = np.random.default_rng(14)
    shape = (45, 37)
    members = [
        mk_map(rng.normal(0.5, 0.2, shape), rng.uniform(0.01, 0.3, shape)) for _ in range(3)
    ]
    sigma = rng.uniform(0.01, 0.3, shape)
    sigma[3, 5:9] = 1e9
    members.append(mk_map(rng.normal(0.5, 0.2, shape), sigma))
    return mk_ensemble(members)


def test_blockwise_outputs_independent_of_block_size(monkeypatch):
    # nine members too: numpy sums nine rows of one column in another order
    # than nine rows of many, and a bound's last pixels run as one column
    rng = np.random.default_rng(17)
    nine = mk_ensemble(
        [mk_map(rng.normal(0.5, 0.2, (45, 37)), rng.uniform(0.01, 0.3, (45, 37))) for _ in range(9)]
    )
    for ens in (wide_ensemble(), nine):
        runs = []
        for block in (uqstats._BLOCK_PIXELS, 1000, 7):
            monkeypatch.setattr(uqstats, "_BLOCK_PIXELS", block)
            runs.append(
                (credibility_map(ens, 0.05), credible_bound(ens, 0.9))
            )
        for cmap, bound in runs[1:]:
            assert cmap.tobytes() == runs[0][0].tobytes()
            assert bound.tobytes() == runs[0][1].tobytes()


def test_credibility_matches_laplace_cdf_mixture():
    ens = wide_ensemble()
    eps = 0.05
    want = _credibility_of(ens, np.full(ens.members[0].mu.shape, eps))
    got = credibility_map(ens, eps)
    assert np.max(np.abs(got - want)) < 1e-12


def test_blockwise_rejects_zero_sigma():
    ens = wide_ensemble()
    bad = ens.members[1].sigma.data.copy()
    bad[20, 30] = 0.0
    members = list(ens.members)
    members[1] = PredictiveMap(members[1].mu, RealRaster(bad))
    ens = mk_ensemble(members)
    with pytest.raises(NonPositiveSigma):
        credibility_map(ens, 0.05)
    with pytest.raises(NonPositiveSigma):
        credible_bound(ens, 0.9)
    with pytest.raises(NonPositiveSigma):
        decompose_uncertainty(ens)


def test_calls_share_one_member_stack():
    ens = wide_ensemble()
    bound = credible_bound(ens, 0.9)
    cmap = credibility_map(ens, 0.05)
    maps = decompose_uncertainty(ens)
    assert all(not a.flags.writeable for a in ens.stacks)
    # each call on a fresh ensemble gives the same bytes
    assert decompose_uncertainty(wide_ensemble()).total_sigma.tobytes() == (
        maps.total_sigma.tobytes()
    )
    assert credibility_map(wide_ensemble(), 0.05).tobytes() == cmap.tobytes()
    assert credible_bound(wide_ensemble(), 0.9).tobytes() == bound.tobytes()


# ------------------------------------------------------ reliability_diagram


def diagram_of(ens, truth, eps, **kwargs):
    """The ensemble's diagram, binned from its own credibility map and mean."""
    mean = decompose_uncertainty(ens).mean
    return reliability_diagram(credibility_map(ens, eps), eps, mean, truth, **kwargs)


def calibrated_setup(n_px=409600, eps=1.0, seed=21):
    # single member per pixel; truth drawn from that pixel's own Laplace.
    # sigma is chosen so the credibility 1 - exp(-eps/sigma) is uniform,
    # which populates every diagram bin about equally.
    rng = np.random.default_rng(seed)
    shape = (n_px // 256, 256)
    p_target = rng.uniform(0.02, 0.98, shape)
    sigma = -eps / np.log1p(-p_target)
    mu = rng.normal(0.0, 1.0, shape)
    truth = rng.laplace(mu, sigma)
    ens = mk_ensemble([mk_map(mu, sigma)])
    return ens, truth, eps


def test_diagram_has_25_bins():
    ens, truth, eps = calibrated_setup(n_px=4096)
    diag = diagram_of(ens, truth, eps, delta_p=0.04)
    assert len(diag.lo) == len(diag.hi) == len(diag.count) == 25
    assert diag.lo[0] == 0.0
    assert abs(diag.hi[-1] - 1.0) < 1e-12


def test_diagram_degenerate_single_bin():
    sigma = 0.5
    ens = mk_ensemble([mk_map(np.zeros((40, 40)), np.full((40, 40), sigma))])
    truth = np.zeros((40, 40))
    diag = diagram_of(ens, truth, 3.0 * sigma)
    assert np.count_nonzero(diag.count) == 1
    assert diag.count.max() == 1600


def test_diagram_self_consistent_calibration():
    ens, truth, eps = calibrated_setup()
    diag = diagram_of(ens, truth, eps)
    sel = diag.populated
    assert np.all(np.abs(diag.accuracy[sel] - diag.credibility[sel]) < 0.02)
    assert diag.count[sel].sum() >= 100000


def test_diagram_counts_cover_all_pixels():
    ens, truth, eps = calibrated_setup(n_px=2048)
    diag = diagram_of(ens, truth, eps)
    assert diag.count.sum() == 2048


def test_diagram_flags_thin_bins():
    # 1,024 pixels over 25 bins (about 41 each) leave every bin below MIN_BIN_COUNT
    ens, truth, eps = calibrated_setup(n_px=1024)
    diag = diagram_of(ens, truth, eps)
    assert 0 < diag.count.max() < MIN_BIN_COUNT
    assert not diag.populated.any()
    assert diag.max_gap() == 0.0


def test_diagram_csv_roundtrip(tmp_path):
    ens, truth, eps = calibrated_setup(n_px=4096)
    diag = diagram_of(ens, truth, eps)
    path = tmp_path / "diagram.csv"
    diag.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "bin_lo,bin_hi,avg_credibility,accuracy,count"
    assert len(lines) == 26
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row, lo, count, cred in zip(rows, diag.lo, diag.count, diag.credibility):
        assert float(row["bin_lo"]) == lo
        assert int(row["count"]) == count
        if count:
            assert float(row["avg_credibility"]) == cred
