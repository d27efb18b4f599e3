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
the input gradient of the first layer is never formed. All of these
arrays live in one workspace: the padded input, the four column matrices
and the layer outputs are allocated once per ``train()`` call, sized for
a full batch, and every step (the short last batch included) writes into
them. The backward pass builds its input-gradient columns and outputs in
buffers the forward pass has finished with. Ensemble members
train one after another; the BLAS library's own threads inside the GEMMs
are the only parallelism, and they do not change any result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

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

    @cached_property
    def stacks(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Member x pixel stacks of mu and sigma and the mixture mean, built once.

        The arrays are read-only, since every caller of this ensemble shares them.
        """
        mus = np.stack([m.mu.data.ravel() for m in self.members])
        sigmas = np.stack([m.sigma.ravel() for m in self.members])
        arrays = (mus, sigmas, mus.mean(axis=0))
        for a in arrays:
            a.flags.writeable = False
        return arrays


# ------------------------------------------------------------ plumbing


class _Workspace:
    """The buffers of one batched pass, for up to n samples of h x w.

    Each buffer is flat and sized for n samples; a batch of m <= n samples
    uses a prefix of it, reshaped. The padded buffer's (h + 2) x (w + 2)
    planes are only ever written inside their zero border, and any prefix
    of it is whole planes, so the border stays zero for every channel count
    and batch size.
    """

    def __init__(self, n: int, h: int, w: int):
        self.n, self.hw = n, (h, w)
        px = n * h * w
        self.pad = np.zeros(max(CHANNELS) * n * (h + 2) * (w + 2))
        # column matrices of the four layer inputs
        self.cols = [np.empty(9 * c * px) for c in CHANNELS[:-1]]
        # GEMM outputs z1, z2, z3 and the network output
        self.z = [np.empty(c * px) for c in CHANNELS[1:]]
        # activations a1, d2, a3, overwritten by their gradients in backward
        self.acts = [np.empty(c * px) for c in CHANNELS[1:-1]]


def _workspace_for(x: np.ndarray, ws: _Workspace | None) -> _Workspace:
    n, _, h, w = x.shape
    if ws is None:
        return _Workspace(n, h, w)
    if n > ws.n or (h, w) != ws.hw:
        raise ShapeMismatch(f"batch {x.shape} does not fit a workspace for {ws.n} x {ws.hw}")
    return ws


def _view(buf: np.ndarray, shape) -> np.ndarray:
    return buf[: math.prod(shape)].reshape(shape)


def _im2col(x: np.ndarray, pad: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """(c, n, h, w) -> (9c, n*h*w) column matrix of zero-padded 3x3 windows.

    Built in the buffer cols, through the zero-bordered buffer pad. Row
    9*ci + 3*dy + dx holds channel ci shifted by (dy - 1, dx - 1), the
    order of k.reshape(o, 9c) for a kernel k of shape (o, c, 3, 3).
    """
    c, n, h, w = x.shape
    xp = _view(pad, (c, n, h + 2, w + 2))
    xp[:, :, 1:-1, 1:-1] = x
    out = _view(cols, (c, 9, n, h, w))
    for dy in range(3):
        for dx in range(3):
            out[:, 3 * dy + dx] = xp[:, :, dy : dy + h, dx : dx + w]
    return out.reshape(9 * c, n * h * w)


def _conv3(cols: np.ndarray, k: np.ndarray, out: np.ndarray) -> np.ndarray:
    # one GEMM: (o, 9c) @ (9c, n*h*w) into out, (o, n, h, w) channel-major
    np.matmul(k.reshape(k.shape[0], -1), cols, out=out.reshape(k.shape[0], -1))
    return out


def _conv3_grad(cols, k, dy):
    """Kernel and bias gradients of y = conv3(x, k) + b given upstream dy.

    cols is the forward pass's column matrix of x; dy is channel-major.
    """
    dy2 = dy.reshape(dy.shape[0], -1)
    return (dy2 @ cols.T).reshape(k.shape), dy2.sum(axis=1)


def _conv3_dx(ws: _Workspace, layer: int, k, dy):
    """Input gradient of the 0-based layer 1, 2 or 3 given upstream dy.

    dx is a 3x3 convolution of dy with the flipped, transposed kernel. Its
    columns go into the column buffer of the layer above (the top layer's
    own), whose kernel gradient is already done, and dx replaces the
    activation it is the gradient of.
    """
    kf = k[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
    cols = _im2col(dy, ws.pad, ws.cols[min(layer + 1, 3)])
    return _conv3(cols, kf, _view(ws.acts[layer - 1], (kf.shape[0], *dy.shape[1:])))


def _sample_mask(n: int, rate: float, rng: np.random.Generator) -> np.ndarray:
    """Per-sample channel mask at the dropout site, inverted scaling."""
    if rate == 0.0:
        return np.ones((n, CHANNELS[2]))
    keep = rng.random((n, CHANNELS[2])) >= rate
    return keep.astype(float) / (1.0 - rate)


def _swap_nc(a: np.ndarray) -> np.ndarray:
    # (n, c, h, w) <-> (c, n, h, w), a view
    return a.transpose(1, 0, 2, 3)


def _forward_cols(params, x, mask, ws=None):
    """Forward pass in channel-major (c, n, h, w) layout.

    params holds the eight arrays in ``RegressorParams.as_list()`` order.
    Returns the output (2, n, h, w), the activations and the four column
    matrices, which the backward pass reuses for the kernel gradients. They
    live in the workspace ws, built for this call when none is given, and
    hold until its next use.
    """
    ws = _workspace_for(x, ws)
    shape = (x.shape[0], *x.shape[2:])

    def layer(i, a):
        cols = _im2col(a, ws.pad, ws.cols[i])
        z = _conv3(cols, params[2 * i], _view(ws.z[i], (CHANNELS[i + 1], *shape)))
        z += params[2 * i + 1][:, None, None, None]
        return cols, z

    def relu(i, z):
        return np.maximum(z, 0.0, out=_view(ws.acts[i], z.shape))

    x0 = _swap_nc(x)
    c1, z1 = layer(0, x0)
    a1 = relu(0, z1)
    c2, z2 = layer(1, a1)
    d2 = relu(1, z2)
    d2 *= mask.T[:, :, None, None]
    c3, z3 = layer(2, d2)
    a3 = relu(2, z3)
    c4, out = layer(3, a3)
    return out, (x0, z1, a1, z2, d2, z3, a3), (c1, c2, c3, c4)


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


def _backward_batch(params, x, y, mask, ws=None):
    """Loss gradients as a list in ``as_list()`` order, and the loss.

    Runs in the workspace ws, built for this call when none is given.
    """
    ws = _workspace_for(x, ws)
    out, (_, z1, _, z2, _, z3, _), (c1, c2, c3, c4) = _forward_cols(params, x, mask, ws)
    loss, dout = _loss_and_grad_out(_swap_nc(out), y)
    if not math.isfinite(loss):
        raise DivergedLoss(f"loss became {loss}")
    dout = _swap_nc(dout)
    k1, _, k2, _, k3, _, k4, _ = params
    dk4, db4 = _conv3_grad(c4, k4, dout)
    dz3 = _conv3_dx(ws, 3, k4, dout)
    dz3 *= z3 > 0.0
    dk3, db3 = _conv3_grad(c3, k3, dz3)
    dz2 = _conv3_dx(ws, 2, k3, dz3)
    dz2 *= mask.T[:, :, None, None]
    dz2 *= z2 > 0.0
    dk2, db2 = _conv3_grad(c2, k2, dz2)
    dz1 = _conv3_dx(ws, 1, k2, dz2)
    dz1 *= z1 > 0.0
    dk1, db1 = _conv3_grad(c1, k1, dz1)
    return [dk1, db1, dk2, db2, dk3, db3, dk4, db4], loss


def _check_stack(inputs) -> np.ndarray:
    arr = np.asarray(inputs, dtype=float)
    if arr.ndim != 3 or arr.shape[0] != CHANNELS[0]:
        raise ShapeMismatch(f"expected ({CHANNELS[0]}, H, W) stack, got {arr.shape}")
    return arr


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
    out, _, _ = _forward_cols(params.as_list(), arr[None], np.ones((1, CHANNELS[2])))
    return PredictiveMap(RealRaster(out[0, 0], pitch), RealRaster(out[1, 0], pitch))


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
    if dropout_rate != 0.0 and dropout_seed is None:
        raise NonFiniteInput("sampled dropout requires a seed")
    mask = _sample_mask(1, dropout_rate, np.random.default_rng(dropout_seed))
    grads, loss = _backward_batch(params.as_list(), arr[None], y[None], mask)
    return RegressorParams(*grads), loss


def train(dataset: Dataset, cfg: TrainConfig, loss_history=None) -> RegressorParams:
    """Mini-batch optimization of the likelihood, deterministic by seed."""
    pairs = dataset.split("train")
    if not pairs:
        raise EmptyDataset("dataset has no training pairs")
    x = np.stack([p.inputs for p in pairs]).astype(float)
    y = np.stack([p.target for p in pairs]).astype(float)
    rng = np.random.default_rng(cfg.seed)
    params = init_params(cfg.seed).as_list()
    m = [np.zeros_like(a) for a in params]
    v = [np.zeros_like(a) for a in params]
    ws = _Workspace(min(cfg.batch_size, len(pairs)), *x.shape[2:])
    t = 0
    for _ in range(cfg.epochs):
        order = rng.permutation(len(pairs))
        for start in range(0, len(pairs), cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            mask = _sample_mask(len(idx), cfg.dropout_rate, rng)
            grads, loss = _backward_batch(params, x[idx], y[idx], mask, ws)
            if loss_history is not None:
                loss_history.append(loss)
            t += 1
            for p, g, mj, vj in zip(params, grads, m, v):
                mj *= BETA1
                mj += (1.0 - BETA1) * g
                vj *= BETA2
                vj += (1.0 - BETA2) * g * g
                mh = mj / (1.0 - BETA1**t)
                vh = vj / (1.0 - BETA2**t)
                p -= cfg.lr * mh / (np.sqrt(vh) + ADAM_EPS)
            if any(not np.isfinite(a).all() for a in params):
                raise DivergedLoss(f"parameters became non-finite at step {t}")
    return RegressorParams(*params)


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
