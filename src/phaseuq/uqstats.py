"""Reliability analytics over Laplacian predictive ensembles.

An ensemble of P per-pixel Laplace distributions (mu_p, sigma_p) is
treated as an equal-weight mixture. This module computes the mixture
mean, the variance decomposition into data and model parts, credibility
maps p_i(eps) = P(|y - mu_hat| <= eps), credible-interval bounds, and
reliability diagrams.

The ensemble's types live here alone. A ``PredictiveMap`` is built from one
member's mu and sigma as predicted, arrays of any one shape shared by all
members (the pipeline passes a member's patches as one (patch, row, col)
array), and checks them once: finite, one shape, sigma > 0. No operation
checks them again; each reads the member stacks that a
``PredictiveEnsemble`` builds once. Every result here is a plain ndarray of
the members' shape (the decomposition a NamedTuple of four, the diagram
per-bin arrays), since no pixel pitch enters any of them.

Credibility maps and bounds evaluate each member's interval mass in closed
form from a = |mu_hat - mu_p| / sigma_p, one cache-sized block of pixels at a
time; ``laplace_cdf`` is the public reference for the same quantity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import NonFiniteInput, NonPositiveSigma, ShapeMismatch, SizeMismatch

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
    "BOUND_TOL",
    "LOG2",
    "MIN_BIN_COUNT",
]

LOG2 = math.log(2.0)

# credible_bound's absolute tolerance on the half-width
BOUND_TOL = 1e-6
# reliability bins with fewer pixels stay out of the summary statistics
MIN_BIN_COUNT = 100


# ---------------------------------------------------------------- types


class _Raster(NamedTuple):
    """One checked array of a ``PredictiveMap``; perfbench's tracer reads its ``data``."""

    data: np.ndarray


@dataclass(frozen=True, init=False)
class PredictiveMap:
    """One member's per-pixel Laplacian parameters: mean mu and scale sigma.

    Built from the two arrays as predicted, held as float64 and checked
    once: finite, one shape, sigma > 0.
    """

    mu: _Raster
    sigma: _Raster

    def __init__(self, mu, sigma):
        mu, sigma = np.asarray(mu, dtype=np.float64), np.asarray(sigma, dtype=np.float64)
        if not (np.isfinite(mu).all() and np.isfinite(sigma).all()):
            raise NonFiniteInput("predicted map contains NaN or Inf samples")
        if mu.shape != sigma.shape:
            raise ShapeMismatch(f"mu {mu.shape} and sigma {sigma.shape} differ")
        if not (sigma > 0.0).all():
            raise NonPositiveSigma("sigma must be > 0")
        object.__setattr__(self, "mu", _Raster(mu))
        object.__setattr__(self, "sigma", _Raster(sigma))


@dataclass(frozen=True)
class PredictiveEnsemble:
    """Per-member predictive maps of a deep ensemble over one input."""

    members: tuple[PredictiveMap, ...]

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(self.members))
        if not self.members:
            raise SizeMismatch("ensemble needs at least one member")
        if len({m.mu.data.shape for m in self.members}) != 1:
            raise ShapeMismatch("ensemble members must share one shape")

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.members[0].mu.data.shape

    @cached_property
    def stacks(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Member x pixel stacks of mu and sigma and the mixture mean, built once.

        The arrays are read-only, since every caller of this ensemble shares them.
        """
        mus = np.stack([m.mu.data.ravel() for m in self.members])
        sigmas = np.stack([m.sigma.data.ravel() for m in self.members])
        arrays = (mus, sigmas, mus.mean(axis=0))
        for a in arrays:
            a.flags.writeable = False
        return arrays


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
    populated: np.ndarray  # count >= MIN_BIN_COUNT; only these enter summaries

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
# block arrays of float64 stay in cache through every Newton step.
_BLOCK_PIXELS = 16_384


def _blocks(mus, sigmas, mu_hat):
    """Per pixel block: (slice, a = |mu_hat - mu_p| / sigma_p, 1 / sigma_p)."""
    for start in range(0, mu_hat.size, _BLOCK_PIXELS):
        block = slice(start, start + _BLOCK_PIXELS)
        inv_sigma = 1.0 / sigmas[:, block]
        a = np.abs(mu_hat[block] - mus[:, block]) * inv_sigma
        yield block, a, inv_sigma


def _member_mean(x: np.ndarray) -> np.ndarray:
    """Mean over axis 0 summed row by row, as numpy does for 2+ columns but not for 1."""
    return sum(x[1:], x[0]) / len(x)


def _mass_and_slope(a, inv_sigma, eps):
    """Mixture mass of [mu_hat - eps, mu_hat + eps] for one pixel block, and its slope in eps.

    Member p contributes P(|Z - a| <= t) for a standard Laplace Z, t = eps / sigma_p:
    1 - (e^-|t-a| + e^-(t+a)) / 2 when the interval holds mu_p (t >= a), else
    (e^-|t-a| - e^-(t+a)) / 2; its slope is (e^-|t-a| + e^-(t+a)) / (2 sigma_p).
    """
    t = eps * inv_sigma
    d = t - a
    far = np.add(t, a, out=t)
    np.exp(np.negative(far, out=far), out=far)
    near = np.abs(d)
    np.exp(np.negative(near, out=near), out=near)
    slope = 0.5 * _member_mean((near + far) * inv_sigma)
    # both branches at once: [t >= a] - (sign(t - a) e^-|t-a| + e^-(t+a)) / 2
    mass = (np.copysign(near, d, out=near) + far) * -0.5 + (d >= 0.0)
    return np.clip(_member_mean(mass), 0.0, 1.0), slope


def _member_bounds(a, inv_sigma, p: float) -> np.ndarray:
    """Each member's half-width eps = t sigma_p holding mass p of it alone: past
    t = a, t = log(cosh a / (1 - p)), else asinh(p e^a), neither overflowing."""
    inside = a + np.log1p(np.exp(-2.0 * a)) - LOG2 - math.log1p(-p)
    log_x = a + math.log(p)  # asinh(x) = log(2x) to double precision past x = e^18.5
    outside = np.where(log_x > 18.5, log_x + LOG2, np.arcsinh(np.exp(np.minimum(log_x, 18.5))))
    return np.where(p >= -0.5 * np.expm1(-2.0 * a), inside, outside) / inv_sigma


# ------------------------------------------------------------ operations


def laplace_cdf(y, mu, sigma):
    """CDF of Laplace(mu, sigma) at y; broadcasts over array arguments."""
    y = np.asarray(y, dtype=float)
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    if np.any(sigma <= 0.0) or not np.all(np.isfinite(sigma)):
        raise NonPositiveSigma("sigma must be finite and > 0")
    r = y - mu
    out = 0.5 + 0.5 * np.sign(r) * (1.0 - np.exp(-np.abs(r) / sigma))
    return float(out) if out.ndim == 0 else out


def decompose_uncertainty(ens: PredictiveEnsemble) -> UncertaintyMaps:
    """Split the mixture variance into data and model parts.

    data^2 = mean_p 2 sigma_p^2 (each Laplace has variance 2 sigma^2),
    model^2 = population variance of the member means, and
    total^2 = data^2 + model^2 exactly.
    """
    mus, sigmas, mu_hat = ens.stacks
    data_var = (2.0 * sigmas**2).mean(axis=0)
    model_var = ((mus - mu_hat) ** 2).mean(axis=0)
    flat = (mu_hat, np.sqrt(data_var), np.sqrt(model_var), np.sqrt(data_var + model_var))
    return UncertaintyMaps(*(a.reshape(ens.shape) for a in flat))


def credibility_map(ens: PredictiveEnsemble, epsilon: float) -> np.ndarray:
    """Mixture probability of the interval [mu_hat - eps, mu_hat + eps], per pixel.

    Evaluated in closed form per member, one block of pixels at a time.
    """
    epsilon = float(epsilon)
    if not (np.isfinite(epsilon) and epsilon >= 0.0):
        raise NonFiniteInput(f"epsilon must be finite >= 0, got {epsilon}")
    mus, sigmas, mu_hat = ens.stacks
    values = np.empty_like(mu_hat)
    for block, a, inv_sigma in _blocks(mus, sigmas, mu_hat):
        values[block] = _mass_and_slope(a, inv_sigma, epsilon)[0]
    return values.reshape(ens.shape)


def credible_bound(ens: PredictiveEnsemble, target_p: float) -> np.ndarray:
    """Per-pixel interval half-width reaching the target credibility.

    Safeguarded Newton per pixel on log(1 - mass) = log(1 - p), near linear
    in eps, from the largest member bound; the root lies above the smallest.
    A step within w / 2 of the root, w = max(BOUND_TOL, 1e-12 eps), goes
    w / 2 past it, and a pixel stops on its own at a bracket [lo, hi] w wide,
    returning hi. Bisection (geometric) replaces a step that leaves the
    bracket, fails to halve the last step (a cycle about a kink) or follows
    one that went past the root in vain (a flat mass). target_p is in [0, 1).
    """
    mus, sigmas, mu_hat = ens.stacks
    if target_p == 0.0:
        return np.zeros(ens.shape)
    bound = np.empty_like(mu_hat)
    for block, a, inv_sigma in _blocks(mus, sigmas, mu_hat):
        bounds = _member_bounds(a, inv_sigma, target_p)
        x, lo, hi = bounds.max(axis=0), bounds.min(axis=0), np.full(a.shape[1], np.inf)
        last = np.full_like(x, np.inf)  # the last Newton step's length; 0 if lengthened
        out, idx = bound[block], np.arange(x.size)
        while idx.size:
            mass, slope = _mass_and_slope(a, inv_sigma, x)
            below = mass < target_p
            lo, hi = np.where(below, x, lo), np.where(below, hi, x)
            w = np.maximum(BOUND_TOL, 1e-12 * x)  # BOUND_TOL alone can be below the float spacing
            out[idx] = hi  # final for the pixels done now, which leave the arrays
            keep = np.flatnonzero(hi - lo > w)
            idx, a, inv_sigma, x, lo, hi, w, below, mass, slope, last = (
                v.take(keep, axis=-1)
                for v in (idx, a, inv_sigma, x, lo, hi, w, below, mass, slope, last)
            )
            # a vanishing slope or tail makes the step inf or nan, so it is not taken
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                step = (np.log1p(-mass) - math.log1p(-target_p)) * (1.0 - mass) / slope
            short = np.abs(step) < 0.5 * w
            newton = x + np.where(short, step + np.where(below, 0.5, -0.5) * w, step)
            newton_ok = (newton > lo) & (newton < hi) & (2.0 * np.abs(step) < last)
            # inside, as hi - lo > w >= BOUND_TOL
            mid = np.sqrt(np.maximum(lo, BOUND_TOL)) * np.sqrt(hi)
            x = np.where(newton_ok, newton, np.where(np.isinf(hi), 2.0 * lo + w, mid))
            last = np.where(newton_ok, np.where(short, 0.0, np.abs(step)), np.inf)
    return bound.reshape(ens.shape)


def reliability_diagram(
    credibility: np.ndarray,
    epsilon: float,
    mean: np.ndarray,
    truth: np.ndarray,
    delta_p: float,
) -> ReliabilityDiagram:
    """Bin pixels by credibility and compare against empirical accuracy.

    credibility is the ensemble's credibility map at epsilon and mean its
    mixture mean. Pixels land in bins ((m-1) dp, m dp] by their
    credibility, with p = 0 assigned to the first bin. Per bin: the mean
    credibility, the fraction of pixels whose true value lies within
    +-epsilon of the mean, and the pixel count. Bins with fewer than
    MIN_BIN_COUNT pixels are not populated and stay out of summary statistics.
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
        populated=counts >= MIN_BIN_COUNT,
    )
