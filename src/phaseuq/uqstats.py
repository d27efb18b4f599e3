"""Reliability analytics over Laplacian predictive ensembles.

An ensemble of P per-pixel Laplace distributions (mu_p, sigma_p) is
treated as an equal-weight mixture. This module computes the mixture
mean, the variance decomposition into data and model parts, credibility
maps p_i(eps) = P(|y - mu_hat| <= eps), credible-interval bounds by
bisection, reliability diagrams, and mask-averaged credibility.

Credibility maps and bounds evaluate each member's interval mass in closed
form from a = |mu_hat - mu_p| / sigma_p, one cache-sized block of pixels at a
time; ``laplace_cdf`` is the public reference for the same quantity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BracketFailure,
    EmptyMask,
    NonFiniteInput,
    NonPositiveSigma,
    ShapeMismatch,
)
from .grid import RealRaster
from .learner import PredictiveEnsemble, PredictiveMap

__all__ = [
    "PredictiveEnsemble",
    "PredictiveMap",
    "UncertaintyMaps",
    "CredibilityMap",
    "ReliabilityBin",
    "ReliabilityDiagram",
    "laplace_cdf",
    "decompose_uncertainty",
    "credibility_map",
    "credible_bound",
    "reliability_diagram",
    "averaged_credibility",
]


# ---------------------------------------------------------------- types


@dataclass(frozen=True)
class UncertaintyMaps:
    """Per-pixel mean and the data/model/total sigma decomposition."""

    mean: RealRaster
    data_sigma: RealRaster
    model_sigma: RealRaster
    total_sigma: RealRaster

    def __post_init__(self):
        shapes = {
            self.mean.shape,
            self.data_sigma.shape,
            self.model_sigma.shape,
            self.total_sigma.shape,
        }
        if len(shapes) != 1:
            raise ShapeMismatch("uncertainty maps must share one shape")
        for name in ("data_sigma", "model_sigma", "total_sigma"):
            if np.any(getattr(self, name).data < 0.0):
                raise NonPositiveSigma(f"{name} must be nonnegative")


@dataclass(frozen=True)
class CredibilityMap:
    """Probability that the true mean lies within +-epsilon of mu_hat."""

    values: RealRaster
    epsilon: float

    def __post_init__(self):
        if not (np.isfinite(self.epsilon) and self.epsilon >= 0.0):
            raise NonFiniteInput(f"epsilon must be finite >= 0, got {self.epsilon}")
        v = self.values.data
        if np.any(v < 0.0) or np.any(v > 1.0):
            raise NonFiniteInput("credibility values must lie in [0, 1]")


@dataclass(frozen=True)
class ReliabilityBin:
    lo: float
    hi: float  # bin is (lo, hi], pixels at p = 0 join the first bin
    credibility: float  # nan when empty
    accuracy: float  # nan when empty
    count: int
    flagged: bool  # count below min_count; excluded from summaries

    def __post_init__(self):
        if self.count > 0:
            if not (0.0 <= self.credibility <= 1.0 and 0.0 <= self.accuracy <= 1.0):
                raise NonFiniteInput("bin credibility and accuracy must be in [0, 1]")


@dataclass(frozen=True)
class ReliabilityDiagram:
    bins: tuple[ReliabilityBin, ...]
    epsilon: float
    delta_p: float

    def __post_init__(self):
        object.__setattr__(self, "bins", tuple(self.bins))

    @property
    def populated(self) -> tuple[ReliabilityBin, ...]:
        return tuple(b for b in self.bins if not b.flagged)

    def max_gap(self) -> float:
        """Largest |accuracy - credibility| over the unflagged bins."""
        gaps = [abs(b.accuracy - b.credibility) for b in self.populated]
        return max(gaps) if gaps else 0.0

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("bin_lo,bin_hi,avg_credibility,accuracy,count\n")
            for b in self.bins:
                fh.write(
                    f"{b.lo:.17g},{b.hi:.17g},{b.credibility:.17g},"
                    f"{b.accuracy:.17g},{b.count}\n"
                )


# ------------------------------------------------------------ internals

# Pixels per block in credibility_map and credible_bound: a few member x
# block arrays of float64 stay in cache through every bisection step.
_BLOCK_PIXELS = 16_384


def _stacks(ens: PredictiveEnsemble) -> tuple[np.ndarray, np.ndarray]:
    mus = np.stack([m.mu.data for m in ens.members])
    sigmas = np.stack([m.sigma for m in ens.members])
    return mus, sigmas


def _check_sigma(sigma: np.ndarray) -> None:
    if np.any(sigma <= 0.0) or not np.all(np.isfinite(sigma)):
        raise NonPositiveSigma("sigma must be finite and > 0")


def _flat_stacks(ens: PredictiveEnsemble):
    """Member x pixel stacks with sigma checked, and the mixture mean."""
    mus, sigmas = _stacks(ens)
    _check_sigma(sigmas)
    mus = mus.reshape(mus.shape[0], -1)
    sigmas = sigmas.reshape(sigmas.shape[0], -1)
    return mus, sigmas, mus.mean(axis=0)


def _blocks(mus, sigmas, mu_hat):
    """Per pixel block: (slice, a = |mu_hat - mu_p| / sigma_p, 1 / sigma_p)."""
    for start in range(0, mu_hat.size, _BLOCK_PIXELS):
        block = slice(start, start + _BLOCK_PIXELS)
        inv_sigma = 1.0 / sigmas[:, block]
        a = np.abs(mu_hat[block] - mus[:, block]) * inv_sigma
        yield block, a, inv_sigma


def _interval_mass(a, inv_sigma, eps):
    """Mixture mass of [mu_hat - eps, mu_hat + eps] for one pixel block.

    Member p contributes P(|Z - a| <= t) for a standard Laplace Z, with
    t = eps / sigma_p: 1 - (e^-|t-a| + e^-(t+a)) / 2 when the interval holds
    mu_p (t >= a), else (e^-|t-a| - e^-(t+a)) / 2.
    """
    t = eps * inv_sigma
    d = t - a
    far = np.add(t, a, out=t)
    np.negative(far, out=far)
    np.exp(far, out=far)
    near = np.abs(d)
    np.negative(near, out=near)
    np.exp(near, out=near)
    # both branches at once: [t >= a] - (sign(t - a) e^-|t-a| + e^-(t+a)) / 2
    mass = np.copysign(near, d, out=near)
    mass += far
    mass *= -0.5
    mass += d >= 0.0
    return np.clip(mass.mean(axis=0), 0.0, 1.0)


# ------------------------------------------------------------ operations


def laplace_cdf(y, mu, sigma):
    """CDF of Laplace(mu, sigma) at y; broadcasts over array arguments."""
    y = np.asarray(y, dtype=float)
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    _check_sigma(sigma)
    r = y - mu
    out = 0.5 + 0.5 * np.sign(r) * (1.0 - np.exp(-np.abs(r) / sigma))
    return float(out) if out.ndim == 0 else out


def decompose_uncertainty(ens: PredictiveEnsemble) -> UncertaintyMaps:
    """Split the mixture variance into data and model parts.

    data^2 = mean_p 2 sigma_p^2 (each Laplace has variance 2 sigma^2),
    model^2 = population variance of the member means, and
    total^2 = data^2 + model^2 exactly.
    """
    mus, sigmas = _stacks(ens)
    pitch = ens.members[0].mu.pitch
    mu_hat = mus.mean(axis=0)
    data_var = (2.0 * sigmas**2).mean(axis=0)
    model_var = ((mus - mu_hat) ** 2).mean(axis=0)
    return UncertaintyMaps(
        mean=RealRaster(mu_hat, pitch),
        data_sigma=RealRaster(np.sqrt(data_var), pitch),
        model_sigma=RealRaster(np.sqrt(model_var), pitch),
        total_sigma=RealRaster(np.sqrt(data_var + model_var), pitch),
    )


def credibility_map(ens: PredictiveEnsemble, epsilon: float) -> CredibilityMap:
    """Mixture probability of the interval [mu_hat - eps, mu_hat + eps].

    Evaluated in closed form per member, one block of pixels at a time.
    """
    epsilon = float(epsilon)
    if not (np.isfinite(epsilon) and epsilon >= 0.0):
        raise NonFiniteInput(f"epsilon must be finite >= 0, got {epsilon}")
    mus, sigmas, mu_hat = _flat_stacks(ens)
    values = np.empty_like(mu_hat)
    for block, a, inv_sigma in _blocks(mus, sigmas, mu_hat):
        values[block] = _interval_mass(a, inv_sigma, epsilon)
    shape = ens.members[0].mu.shape
    return CredibilityMap(
        values=RealRaster(values.reshape(shape), ens.members[0].mu.pitch), epsilon=epsilon
    )


def credible_bound(
    ens: PredictiveEnsemble, target_p: float, tol: float = 1e-6
) -> RealRaster:
    """Per-pixel interval half-width reaching the target credibility.

    Bisection on the monotone map eps -> credibility, run to absolute
    tolerance tol on eps. Returns the upper end of the final bracket, so
    the reported bound never undershoots the target. Pixels are bisected
    one block at a time, all for the same number of steps (set by the
    widest bracket), so the result does not depend on the block size.
    """
    target_p = float(target_p)
    if not (0.0 <= target_p < 1.0):
        raise NonFiniteInput(f"target_p must be in [0, 1), got {target_p}")
    if not (np.isfinite(tol) and tol > 0.0):
        raise NonFiniteInput(f"tol must be finite > 0, got {tol}")
    mus, sigmas, mu_hat = _flat_stacks(ens)
    shape = ens.members[0].mu.shape
    pitch = ens.members[0].mu.pitch
    if target_p == 0.0:
        return RealRaster(np.zeros(shape), pitch)
    upper = 50.0 * sigmas.max(axis=0) + np.abs(mus - mu_hat).max(axis=0)
    steps = int(math.ceil(math.log2(max(float(upper.max()), tol) / tol))) + 1
    bound = np.empty_like(mu_hat)
    for block, a, inv_sigma in _blocks(mus, sigmas, mu_hat):
        hi = upper[block]
        if np.any(_interval_mass(a, inv_sigma, hi) < target_p):
            raise BracketFailure("upper bracket does not reach target credibility")
        lo = np.zeros_like(hi)
        for _ in range(steps):
            mid = 0.5 * (lo + hi)
            below = _interval_mass(a, inv_sigma, mid) < target_p
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        bound[block] = hi
    return RealRaster(bound.reshape(shape), pitch)


def reliability_diagram(
    ens: PredictiveEnsemble,
    truth: RealRaster,
    epsilon: float,
    delta_p: float = 0.04,
    min_count: int = 100,
) -> ReliabilityDiagram:
    """Bin pixels by credibility and compare against empirical accuracy.

    Pixels land in bins ((m-1) dp, m dp] by their credibility, with
    p = 0 assigned to the first bin. Per bin: the mean credibility, the
    fraction of pixels whose true value lies within +-epsilon of the
    ensemble mean, and the pixel count. Bins with fewer than min_count
    pixels are flagged and left out of summary statistics.
    """
    n_bins = round(1.0 / delta_p)
    if not math.isclose(n_bins * delta_p, 1.0, rel_tol=0.0, abs_tol=1e-12):
        raise NonFiniteInput(f"1/delta_p must be an integer, got {delta_p}")
    mus, sigmas = _stacks(ens)
    if truth.shape != mus.shape[1:]:
        raise ShapeMismatch(
            f"truth shape {truth.shape} does not match ensemble {mus.shape[1:]}"
        )
    cmap = credibility_map(ens, epsilon)
    p = cmap.values.data.ravel()
    mu_hat = mus.mean(axis=0).ravel()
    hit = np.abs(mu_hat - truth.data.ravel()) <= epsilon

    idx = np.ceil(p / delta_p).astype(int)  # (lo, hi] binning
    idx[idx < 1] = 1  # p = 0 joins the first bin
    idx[idx > n_bins] = n_bins
    idx -= 1
    counts = np.bincount(idx, minlength=n_bins)
    p_sum = np.bincount(idx, weights=p, minlength=n_bins)
    hit_sum = np.bincount(idx, weights=hit.astype(float), minlength=n_bins)

    bins = []
    for m in range(n_bins):
        c = int(counts[m])
        cred = p_sum[m] / c if c else math.nan
        acc = hit_sum[m] / c if c else math.nan
        bins.append(
            ReliabilityBin(
                lo=m * delta_p,
                hi=(m + 1) * delta_p,
                credibility=cred,
                accuracy=acc,
                count=c,
                flagged=c < min_count,
            )
        )
    return ReliabilityDiagram(bins=tuple(bins), epsilon=float(epsilon), delta_p=float(delta_p))


def averaged_credibility(cmap: CredibilityMap, mask: np.ndarray) -> float:
    """Mean credibility over the masked pixels."""
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != cmap.values.shape:
        raise ShapeMismatch(
            f"mask shape {mask.shape} does not match map {cmap.values.shape}"
        )
    if not mask.any():
        raise EmptyMask("mask selects no pixels")
    return float(cmap.values.data[mask].mean())
