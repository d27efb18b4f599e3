"""Heteroscedastic convolutional regressor with hand-rolled reverse mode.

Fixed architecture, channels 5 -> 16 -> 32 -> 16 -> 2 with 3x3 kernels,
same zero-padding, ReLU between layers, and one channel-dropout site
after the second convolution. The two output channels parameterize a
per-pixel Laplacian: mean mu and log-scale s, sigma = exp(s).

Training minimizes the normalized negative log-likelihood

    L = mean( |y - mu| * exp(-s) + s + log 2 )

with Adam (decay rates BETA1, BETA2 and guard ADAM_EPS are module
constants) under the settings of ``config.TrainConfig``. Channel dropout
regularizes training only: prediction is deterministic, and the spread of
the uncertainty comes from the deep ensemble's independently trained
members. Everything is numpy, double precision, and deterministic given
the seeds.

Each convolution is an im2col followed by one GEMM. Activations are kept
channel-major, (c, n, h, w); the column matrix of a layer input x is
(9c, n*h*w), built from the 9 shifted slices of the zero-padded x, so the
layer is k.reshape(o, 9c) @ cols. The forward pass keeps each layer's
column matrix and the backward pass reuses it for the kernel gradient;
the input gradient of the first layer is never formed. Ensemble members
train one after another; the BLAS library's own threads inside the GEMMs
are the only parallelism, and they do not change any result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .config import TrainConfig
from .errors import (
    DivergedLoss,
    EmptyDataset,
    NonFiniteInput,
    ShapeMismatch,
    SizeMismatch,
)
from .grid import RealRaster

CHANNELS = (5, 16, 32, 16, 2)
ARCH_ID = "puq-cnn-" + "x".join(str(c) for c in CHANNELS) + "-v1"
LOG2 = math.log(2.0)
EXP_LIMIT = math.log(np.finfo(np.float64).max)  # exp(x) overflows above this
SPLITS = ("train", "validation", "test")
# Adam moment decay rates and denominator guard
BETA1 = 0.9
BETA2 = 0.999
ADAM_EPS = 1e-8


# ---------------------------------------------------------------- types


@dataclass(frozen=True)
class RegressorParams:
    """Kernels and biases, in layer order. Also used for gradients."""

    k1: np.ndarray
    b1: np.ndarray
    k2: np.ndarray
    b2: np.ndarray
    k3: np.ndarray
    b3: np.ndarray
    k4: np.ndarray
    b4: np.ndarray

    def __post_init__(self):
        for i, (k, b) in enumerate(zip(self.kernels(), self.biases())):
            cin, cout = CHANNELS[i], CHANNELS[i + 1]
            if k.shape != (cout, cin, 3, 3) or b.shape != (cout,):
                raise ShapeMismatch(
                    f"layer {i + 1} expects kernel {(cout, cin, 3, 3)} and "
                    f"bias {(cout,)}, got {k.shape} and {b.shape}"
                )
            if not (np.isfinite(k).all() and np.isfinite(b).all()):
                raise NonFiniteInput(f"layer {i + 1} has non-finite entries")

    def kernels(self) -> tuple[np.ndarray, ...]:
        return (self.k1, self.k2, self.k3, self.k4)

    def biases(self) -> tuple[np.ndarray, ...]:
        return (self.b1, self.b2, self.b3, self.b4)

    def as_list(self) -> list[np.ndarray]:
        return [self.k1, self.b1, self.k2, self.b2, self.k3, self.b3, self.k4, self.b4]


@dataclass(frozen=True)
class SamplePair:
    """One training example plus its split tag."""

    inputs: np.ndarray  # (5, H, W) measurement stack, upsampled
    target: np.ndarray  # (H, W) normalized phase in [0, 1]
    split: str = "train"


@dataclass(frozen=True)
class Dataset:
    pairs: tuple[SamplePair, ...]

    def __post_init__(self):
        object.__setattr__(self, "pairs", tuple(self.pairs))
        shapes = set()
        for p in self.pairs:
            if p.split not in SPLITS:
                raise NonFiniteInput(f"unknown split tag {p.split!r}")
            if p.inputs.ndim != 3 or p.inputs.shape[0] != CHANNELS[0]:
                raise ShapeMismatch(
                    f"inputs must be ({CHANNELS[0]}, H, W), got {p.inputs.shape}"
                )
            if p.target.shape != p.inputs.shape[1:]:
                raise ShapeMismatch(
                    f"target {p.target.shape} does not match inputs {p.inputs.shape}"
                )
            if not (np.isfinite(p.inputs).all() and np.isfinite(p.target).all()):
                raise NonFiniteInput("dataset contains non-finite values")
            if p.target.min() < 0.0 or p.target.max() > 1.0:
                raise NonFiniteInput("targets must lie in [0, 1]")
            shapes.add(p.inputs.shape)
        if len(shapes) > 1:
            raise ShapeMismatch(f"pairs must share one shape, found {sorted(shapes)}")

    def split(self, tag: str) -> list[SamplePair]:
        if tag not in SPLITS:
            raise NonFiniteInput(f"unknown split tag {tag!r}")
        return [p for p in self.pairs if p.split == tag]


@dataclass(frozen=True)
class PredictiveMap:
    """One member's per-pixel Laplacian parameters."""

    mu: RealRaster
    log_scale: RealRaster

    def __post_init__(self):
        if self.mu.shape != self.log_scale.shape:
            raise ShapeMismatch(
                f"mu {self.mu.shape} and log_scale {self.log_scale.shape} differ"
            )

    @property
    def sigma(self) -> np.ndarray:
        return np.exp(self.log_scale.data)


@dataclass(frozen=True)
class PredictiveEnsemble:
    """Per-member predictive maps of a deep ensemble over one input."""

    members: tuple[PredictiveMap, ...]

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(self.members))
        if not self.members:
            raise SizeMismatch("ensemble needs at least one member")
        shapes = {m.mu.shape for m in self.members}
        if len(shapes) != 1:
            raise ShapeMismatch("ensemble members must share one shape")

    @property
    def size(self) -> int:
        return len(self.members)


# ------------------------------------------------------------ plumbing


def _im2col(x: np.ndarray) -> np.ndarray:
    """(c, n, h, w) -> (9c, n*h*w) column matrix of zero-padded 3x3 windows.

    Row 9*ci + 3*dy + dx holds channel ci shifted by (dy - 1, dx - 1), the
    order of k.reshape(o, 9c) for a kernel k of shape (o, c, 3, 3).
    """
    c, n, h, w = x.shape
    xp = np.zeros((c, n, h + 2, w + 2))
    xp[:, :, 1:-1, 1:-1] = x
    cols = np.empty((c, 9, n, h, w))
    for dy in range(3):
        for dx in range(3):
            cols[:, 3 * dy + dx] = xp[:, :, dy : dy + h, dx : dx + w]
    return cols.reshape(9 * c, n * h * w)


def _conv3(cols: np.ndarray, k: np.ndarray, shape) -> np.ndarray:
    # one GEMM: (o, 9c) @ (9c, n*h*w) -> (o, n, h, w), channel-major
    return (k.reshape(k.shape[0], -1) @ cols).reshape(k.shape[0], *shape)


def _conv3_grad(cols, k, dy, need_dx=True):
    """Gradients of y = conv3(x, k) + b given upstream dy, all channel-major.

    cols is the forward pass's column matrix of x, reused for dk. dx is a
    3x3 convolution of dy with the flipped, transposed kernel.
    """
    dy2 = dy.reshape(dy.shape[0], -1)
    dk = (dy2 @ cols.T).reshape(k.shape)
    db = dy2.sum(axis=1)
    if not need_dx:
        return dk, db, None
    kf = k[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
    return dk, db, _conv3(_im2col(dy), kf, dy.shape[1:])


def _sample_mask(n: int, rate: float, rng: np.random.Generator) -> np.ndarray:
    """Per-sample channel mask at the dropout site, inverted scaling."""
    if rate == 0.0:
        return np.ones((n, CHANNELS[2]))
    keep = rng.random((n, CHANNELS[2])) >= rate
    return keep.astype(float) / (1.0 - rate)


def _swap_nc(a: np.ndarray) -> np.ndarray:
    # (n, c, h, w) <-> (c, n, h, w), a view
    return a.transpose(1, 0, 2, 3)


def _forward_cols(params, x, mask):
    """Forward pass in channel-major (c, n, h, w) layout.

    Returns the output (2, n, h, w), the activations and the four column
    matrices, which the backward pass reuses for the kernel gradients.
    """
    shape = (x.shape[0], *x.shape[2:])
    x0 = _swap_nc(x)
    c1 = _im2col(x0)
    z1 = _conv3(c1, params.k1, shape) + params.b1[:, None, None, None]
    a1 = np.maximum(z1, 0.0)
    c2 = _im2col(a1)
    z2 = _conv3(c2, params.k2, shape) + params.b2[:, None, None, None]
    a2 = np.maximum(z2, 0.0)
    d2 = a2 * mask.T[:, :, None, None]
    c3 = _im2col(d2)
    z3 = _conv3(c3, params.k3, shape) + params.b3[:, None, None, None]
    a3 = np.maximum(z3, 0.0)
    c4 = _im2col(a3)
    out = _conv3(c4, params.k4, shape) + params.b4[:, None, None, None]
    return out, (x0, z1, a1, z2, d2, z3, a3), (c1, c2, c3, c4)


def _forward_batch(params, x, mask):
    """x (n, 5, h, w) -> output (n, 2, h, w) and the activations, sample-major."""
    out, acts, _ = _forward_cols(params, x, mask)
    return _swap_nc(out), tuple(_swap_nc(a) for a in acts)


def _loss_and_grad_out(out, y):
    mu = out[:, 0]
    s = out[:, 1]
    smin = s.min()
    if not smin > -EXP_LIMIT:
        raise DivergedLoss(f"log-scale reached {smin}, exp(-s) would overflow")
    r = y - mu
    es = np.exp(-s)
    n = y.size
    loss = float(np.mean(np.abs(r) * es + s) + LOG2)
    dmu = -np.sign(r) * es / n
    ds = (1.0 - np.abs(r) * es) / n
    return loss, np.stack([dmu, ds], axis=1)


def _backward_batch(params, x, y, mask):
    out, (_, z1, _, z2, _, z3, _), (c1, c2, c3, c4) = _forward_cols(params, x, mask)
    loss, dout = _loss_and_grad_out(_swap_nc(out), y)
    if not math.isfinite(loss):
        raise DivergedLoss(f"loss became {loss}")
    dout = _swap_nc(dout)
    dk4, db4, da3 = _conv3_grad(c4, params.k4, dout)
    dz3 = da3 * (z3 > 0.0)
    dk3, db3, dd2 = _conv3_grad(c3, params.k3, dz3)
    dz2 = dd2 * mask.T[:, :, None, None] * (z2 > 0.0)
    dk2, db2, da1 = _conv3_grad(c2, params.k2, dz2)
    dz1 = da1 * (z1 > 0.0)
    dk1, db1, _ = _conv3_grad(c1, params.k1, dz1, need_dx=False)
    return RegressorParams(dk1, db1, dk2, db2, dk3, db3, dk4, db4), loss


def _check_stack(inputs) -> np.ndarray:
    arr = np.asarray(inputs, dtype=float)
    if arr.ndim != 3 or arr.shape[0] != CHANNELS[0]:
        raise ShapeMismatch(f"expected ({CHANNELS[0]}, H, W) stack, got {arr.shape}")
    return arr


def _mask_for(rate: float, seed) -> np.ndarray:
    if rate == 0.0:
        return np.ones((1, CHANNELS[2]))
    if seed is None:
        raise NonFiniteInput("sampled dropout requires a seed")
    return _sample_mask(1, rate, np.random.default_rng(seed))


# ------------------------------------------------------------ operations


def init_params(seed: int) -> RegressorParams:
    """He-normal kernels (variance 2/fan_in), zero biases."""
    rng = np.random.default_rng(seed)
    tensors = []
    for i in range(4):
        cin, cout = CHANNELS[i], CHANNELS[i + 1]
        std = math.sqrt(2.0 / (9 * cin))
        tensors.append(rng.normal(0.0, std, (cout, cin, 3, 3)))
        tensors.append(np.zeros(cout))
    return RegressorParams(*tensors)


def forward(params: RegressorParams, inputs, pitch: float = 1.0) -> PredictiveMap:
    """Deterministic prediction for one (5, H, W) stack; dropout is off."""
    arr = _check_stack(inputs)
    out, _ = _forward_batch(params, arr[None], np.ones((1, CHANNELS[2])))
    return PredictiveMap(RealRaster(out[0, 0], pitch), RealRaster(out[0, 1], pitch))


def nll_loss(pred: PredictiveMap, target: RealRaster) -> float:
    if pred.mu.shape != target.shape:
        raise ShapeMismatch(f"prediction {pred.mu.shape} vs target {target.shape}")
    r = target.data - pred.mu.data
    s = pred.log_scale.data
    return float(np.mean(np.abs(r) * np.exp(-s) + s) + LOG2)


def backward(
    params: RegressorParams,
    inputs,
    target,
    dropout_rate: float = 0.0,
    dropout_seed=None,
) -> tuple[RegressorParams, float]:
    """Exact loss gradient for one sample, same masks as forward."""
    arr = _check_stack(inputs)
    y = np.asarray(target, dtype=float)
    if y.shape != arr.shape[1:]:
        raise ShapeMismatch(f"target {y.shape} does not match inputs {arr.shape}")
    mask = _mask_for(dropout_rate, dropout_seed)
    return _backward_batch(params, arr[None], y[None], mask)


def train(dataset: Dataset, cfg: TrainConfig, loss_history=None) -> RegressorParams:
    """Mini-batch optimization of the likelihood, deterministic by seed."""
    pairs = dataset.split("train")
    if not pairs:
        raise EmptyDataset("dataset has no training pairs")
    x = np.stack([p.inputs for p in pairs]).astype(float)
    y = np.stack([p.target for p in pairs]).astype(float)
    rng = np.random.default_rng(cfg.seed)
    params = init_params(cfg.seed)
    m = [np.zeros_like(a) for a in params.as_list()]
    v = [np.zeros_like(a) for a in params.as_list()]
    t = 0
    for _ in range(cfg.epochs):
        order = rng.permutation(len(pairs))
        for start in range(0, len(pairs), cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            mask = _sample_mask(len(idx), cfg.dropout_rate, rng)
            grads, loss = _backward_batch(params, x[idx], y[idx], mask)
            if not math.isfinite(loss):
                raise DivergedLoss(f"loss became {loss} at step {t}")
            if loss_history is not None:
                loss_history.append(loss)
            t += 1
            new = []
            for j, (p, g) in enumerate(zip(params.as_list(), grads.as_list())):
                m[j] = BETA1 * m[j] + (1.0 - BETA1) * g
                v[j] = BETA2 * v[j] + (1.0 - BETA2) * g * g
                mh = m[j] / (1.0 - BETA1**t)
                vh = v[j] / (1.0 - BETA2**t)
                new.append(p - cfg.lr * mh / (np.sqrt(vh) + ADAM_EPS))
            if any(not np.isfinite(a).all() for a in new):
                raise DivergedLoss(f"parameters became non-finite at step {t}")
            params = RegressorParams(*new)
    return params


def train_ensemble(dataset: Dataset, cfg: TrainConfig) -> list[RegressorParams]:
    """Independent members on disjoint seeds cfg.seed + 0 .. P-1, one after another.

    Member p depends only on the dataset and cfg.seed + p, not on P.
    """
    cfgs = [replace(cfg, seed=cfg.seed + i) for i in range(cfg.ensemble_size)]
    return [train(dataset, c) for c in cfgs]


def predict_ensemble(models, inputs, pitch: float = 1.0) -> PredictiveEnsemble:
    """One deterministic forward per trained member."""
    models = list(models)
    if not models:
        raise SizeMismatch("need at least one model")
    maps = [forward(p, inputs, pitch=pitch) for p in models]
    return PredictiveEnsemble(tuple(maps))
