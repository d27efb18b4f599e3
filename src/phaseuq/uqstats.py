"""Reliability analytics over Laplacian predictive ensembles.

An ensemble of P per-pixel Laplace distributions (mu_p, sigma_p) is
treated as an equal-weight mixture. This module computes the mixture
mean, the variance decomposition into data and model parts, credibility
maps p_i(eps) = P(|y - mu_hat| <= eps), credible-interval bounds by
bisection, and reliability diagrams. Each member holds its mu and sigma
as predicted, arrays of any one shape shared by all members (the pipeline
passes a member's patches as one (patch, row, col) array); every result
here is a plain ndarray of that shape (the decomposition a NamedTuple of
four, the diagram per-bin arrays), since no pixel pitch enters any of them.

Credibility maps and bounds evaluate each member's interval mass in closed
form from a = |mu_hat - mu_p| / sigma_p, one cache-sized block of pixels at a
time; ``laplace_cdf`` is the public reference for the same quantity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import BracketFailure, NonFiniteInput, NonPositiveSigma
from .learner import PredictiveEnsemble, PredictiveMap

__all__ = [
    "PredictiveEnsemble",
    "PredictiveMap",
    "UncertaintyMaps",
    "ReliabilityDiagram",
    "laplace_cdf",
    "decompose_uncertainty",
    "credibility_map",
    "credible_bound",
    "reliability_diagram",
]


# ---------------------------------------------------------------- types


class UncertaintyMaps(NamedTuple):
    """Per-pixel mean and the data/model/total sigma decomposition."""

    mean: np.ndarray
    data_sigma: np.ndarray
    model_sigma: np.ndarray
    total_sigma: np.ndarray


@dataclass(frozen=True)
class ReliabilityDiagram:
    """Per-bin arrays; bin m is (lo[m], hi[m]], and pixels at p = 0 join the first."""

    lo: np.ndarray
    hi: np.ndarray
    credibility: np.ndarray  # nan in empty bins
    accuracy: np.ndarray  # nan in empty bins
    count: np.ndarray
    populated: np.ndarray  # count >= min_count; only these enter summaries
    epsilon: float
    delta_p: float

    def max_gap(self) -> float:
        """Largest |accuracy - credibility| over the populated bins."""
        gaps = np.abs(self.accuracy - self.credibility)[self.populated]
        return float(gaps.max()) if gaps.size else 0.0

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("bin_lo,bin_hi,avg_credibility,accuracy,count\n")
            for row in zip(self.lo, self.hi, self.credibility, self.accuracy, self.count):
                fh.write("{:.17g},{:.17g},{:.17g},{:.17g},{}\n".format(*row))


# ------------------------------------------------------------ internals

# Pixels per block in credibility_map and credible_bound: a few member x
# block arrays of float64 stay in cache through every bisection step.
_BLOCK_PIXELS = 16_384


def _check_sigma(sigma: np.ndarray) -> None:
    if np.any(sigma <= 0.0) or not np.all(np.isfinite(sigma)):
        raise NonPositiveSigma("sigma must be finite and > 0")


def _flat_stacks(ens: PredictiveEnsemble):
    """The ensemble's cached mu and sigma stacks, sigma checked, and the mixture mean."""
    mus, sigmas, mu_hat = ens.stacks
    _check_sigma(sigmas)
    return mus, sigmas, mu_hat


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
    mus, sigmas, mu_hat = _flat_stacks(ens)
    shape = ens.members[0].mu.shape
    data_var = (2.0 * sigmas**2).mean(axis=0)
    model_var = ((mus - mu_hat) ** 2).mean(axis=0)
    flat = (mu_hat, np.sqrt(data_var), np.sqrt(model_var), np.sqrt(data_var + model_var))
    return UncertaintyMaps(*(a.reshape(shape) for a in flat))


def credibility_map(ens: PredictiveEnsemble, epsilon: float) -> np.ndarray:
    """Mixture probability of the interval [mu_hat - eps, mu_hat + eps], per pixel.

    Evaluated in closed form per member, one block of pixels at a time.
    """
    epsilon = float(epsilon)
    if not (np.isfinite(epsilon) and epsilon >= 0.0):
        raise NonFiniteInput(f"epsilon must be finite >= 0, got {epsilon}")
    mus, sigmas, mu_hat = _flat_stacks(ens)
    values = np.empty_like(mu_hat)
    for block, a, inv_sigma in _blocks(mus, sigmas, mu_hat):
        values[block] = _interval_mass(a, inv_sigma, epsilon)
    return values.reshape(ens.members[0].mu.shape)


def credible_bound(ens: PredictiveEnsemble, target_p: float, tol: float = 1e-6) -> np.ndarray:
    """Per-pixel interval half-width reaching the target credibility.

    Bisection on the monotone map eps -> credibility, run to absolute
    tolerance tol on eps. Returns the upper end of the final bracket, so
    the reported bound never undershoots the target. Pixels are bisected
    one block at a time, all for the same number of steps (set by the
    widest bracket), so the result does not depend on the block size.
    Callers pass a target_p in [0, 1), as ``AnalysisBlock`` holds it, and a
    finite tol > 0.
    """
    mus, sigmas, mu_hat = _flat_stacks(ens)
    shape = ens.members[0].mu.shape
    if target_p == 0.0:
        return np.zeros(shape)
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
    return bound.reshape(shape)


def reliability_diagram(
    credibility: np.ndarray,
    epsilon: float,
    mean: np.ndarray,
    truth: np.ndarray,
    delta_p: float = 0.04,
    min_count: int = 100,
) -> ReliabilityDiagram:
    """Bin pixels by credibility and compare against empirical accuracy.

    credibility is the ensemble's credibility map at epsilon and mean its
    mixture mean. Pixels land in bins ((m-1) dp, m dp] by their
    credibility, with p = 0 assigned to the first bin. Per bin: the mean
    credibility, the fraction of pixels whose true value lies within
    +-epsilon of the mean, and the pixel count. Bins with fewer than
    min_count pixels are not populated and stay out of summary statistics.
    The three arrays share one shape, and 1/delta_p is an integer, as
    ``AnalysisBlock`` requires.
    """
    n_bins = round(1.0 / delta_p)
    p = np.ravel(credibility)
    hit = np.abs(np.ravel(mean) - np.ravel(truth)) <= epsilon

    idx = np.ceil(p / delta_p).astype(int)  # (lo, hi] binning
    idx[idx < 1] = 1  # p = 0 joins the first bin
    idx[idx > n_bins] = n_bins
    idx -= 1
    counts = np.bincount(idx, minlength=n_bins)
    p_sum = np.bincount(idx, weights=p, minlength=n_bins)
    hit_sum = np.bincount(idx, weights=hit.astype(float), minlength=n_bins)
    filled = counts > 0

    def per_bin(total):
        return np.divide(total, counts, out=np.full(n_bins, math.nan), where=filled)

    m = np.arange(n_bins)
    return ReliabilityDiagram(
        lo=m * delta_p,
        hi=(m + 1) * delta_p,
        credibility=per_bin(p_sum),
        accuracy=per_bin(hit_sum),
        count=counts,
        populated=counts >= min_count,
        epsilon=float(epsilon),
        delta_p=float(delta_p),
    )
