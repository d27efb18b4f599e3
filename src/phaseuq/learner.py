"""Heteroscedastic convolutional regressor with hand-rolled reverse mode.

Fixed architecture, channels 5 -> 16 -> 32 -> 16 -> 2 with 3x3 kernels,
same zero-padding, ReLU between layers, and one channel-dropout site
after the second convolution. The two output channels parameterize a
per-pixel Laplacian: mean mu and log-scale s. ``forward`` returns the
arrays mu and sigma = exp(s), exponentiated once, as a pair.

The training set is a ``Dataset`` of three arrays: inputs (K, 5, H, W),
targets (K, H, W) and a boolean validation flag per patch. Training fits
the patches not held out and minimizes the normalized negative
log-likelihood

    L = mean( |y - mu| * exp(-s) + s + log 2 )

with Adam (decay rates BETA1, BETA2 and guard ADAM_EPS are module
constants) under the settings of ``config.TrainConfig``. Channel dropout
regularizes training only: prediction is deterministic, and the spread of
the uncertainty comes from the deep ensemble's independently trained
members. Everything is numpy, double precision, and deterministic given
the seeds.

Each convolution is an im2col followed by one GEMM. Activations are kept
channel-major, (c, n, h, w); the column matrix of a layer input x is
(9c, n*h*w), its 9 shifted windows of the zero-padded x, so the layer is
k.reshape(o, 9c) @ cols. The windows are taken by one copy from a
stride-tricks view of the padded buffer, so a layer costs the same few
numpy calls whatever its size: a pad write, that copy, a write zeroing
the window edges, the GEMM, a bias add and a ReLU. The forward pass keeps
each layer's column matrix and the backward pass reuses it for the
kernel gradient; the input gradient of the first layer is never formed.
All of these arrays live in one ``Workspace``: the padded input, the four
column matrices and the layer outputs, allocated once and sized for a
full batch, with the views onto them shaped once per batch size. ``train``
holds one per call and every step (the short last batch included) writes
into it; ``forward`` runs in one its caller holds, or a fresh one. The
backward pass builds its input-gradient columns and outputs in buffers
the forward pass has finished with.

Ensemble members run side by side, one per thread of ``run_members``'
pool, which has as many workers as members or usable CPUs, whichever is
fewer: ``train_ensemble`` trains them there, and the pipeline's predict
stage runs each member's single-patch forwards there. The GEMMs are too
small to split well, so while the pool runs the OpenBLAS that numpy
loaded is pinned to one thread through its own
``openblas_set_num_threads`` entry point, and its previous count is put
back after. Where no such entry point is found the pool has one worker
and the members run one after another on the BLAS library's threads.
Neither the pool size nor the BLAS thread count changes any result.
"""

from __future__ import annotations

import ctypes
import math
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import as_strided

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
# Adam moment decay rates and denominator guard
BETA1 = 0.9
BETA2 = 0.999
ADAM_EPS = 1e-8
# OpenBLAS thread-count entry points; the builds vendored in numpy wheels
# decorate the names with a prefix and an integer-width suffix
OPENBLAS_ENTRY_POINTS = [
    (f"{pre}openblas_get_num_threads{suf}", f"{pre}openblas_set_num_threads{suf}")
    for pre in ("", "scipy_")
    for suf in ("", "64_")
]


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
class Dataset:
    """K training patches as three arrays; train() fits the ones not held out.

    inputs (K, 5, H, W) measurement stacks, targets (K, H, W) normalized
    phase in [0, 1], validation (K,) True for held-out patches.
    """

    inputs: np.ndarray
    targets: np.ndarray
    validation: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.inputs, dtype=float)
        y = np.asarray(self.targets, dtype=float)
        held = np.asarray(self.validation, dtype=bool)
        if x.ndim != 4 or x.shape[1] != CHANNELS[0]:
            raise ShapeMismatch(f"inputs must be (K, {CHANNELS[0]}, H, W), got {x.shape}")
        if not len(x):
            raise EmptyDataset("dataset has no patches")
        if y.shape != (x.shape[0], *x.shape[2:]) or held.shape != x.shape[:1]:
            raise ShapeMismatch(
                f"targets {y.shape} and validation {held.shape} do not match inputs {x.shape}"
            )
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise NonFiniteInput("dataset contains non-finite values")
        if y.min() < 0.0 or y.max() > 1.0:
            raise NonFiniteInput("targets must lie in [0, 1]")
        object.__setattr__(self, "inputs", x)
        object.__setattr__(self, "targets", y)
        object.__setattr__(self, "validation", held)


@dataclass(frozen=True)
class PredictiveMap:
    """One member's per-pixel Laplacian parameters: mean mu and scale sigma."""

    mu: RealRaster
    sigma: RealRaster

    def __post_init__(self):
        if self.mu.shape != self.sigma.shape:
            raise ShapeMismatch(f"mu {self.mu.shape} and sigma {self.sigma.shape} differ")


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
        sigmas = np.stack([m.sigma.data.ravel() for m in self.members])
        arrays = (mus, sigmas, mus.mean(axis=0))
        for a in arrays:
            a.flags.writeable = False
        return arrays


# ------------------------------------------------------------ plumbing


class Workspace:
    """The buffers of one batched pass, for up to n samples of h x w.

    Each buffer is flat and sized for n samples; a batch of m <= n samples
    uses a prefix of it, reshaped. The padded buffer holds one (h + 2) x w
    plane per channel and sample: the sample's rows between a zero row
    above and one below. Only the rows between are ever written, and any
    prefix of the buffer is whole planes, so the zero rows stay zero for
    every channel count and batch size. The views a pass works through
    are shaped once per batch size and kept. A workspace serves one
    thread at a time.
    """

    def __init__(self, n: int, h: int, w: int):
        self.n, self.hw = n, (h, w)
        px = n * h * w
        # a spare element at either end: the first window starts one before the
        # first plane, and the last ends one after the last
        self.pad = np.zeros(max(CHANNELS) * n * (h + 2) * w + 2)
        # column matrices of the four layer inputs
        self.cols = [np.empty(9 * c * px) for c in CHANNELS[:-1]]
        # GEMM outputs z1, z2, z3 and the network output
        self.z = [np.empty(c * px) for c in CHANNELS[1:]]
        # activations a1, d2, a3, overwritten by their gradients in backward
        self.acts = [np.empty(c * px) for c in CHANNELS[1:-1]]
        self._views: dict = {}

    def im2col_views(self, j: int, c: int, m: int) -> tuple:
        """``_im2col``'s views for m samples of c channels into column buffer j."""
        key = (j, c, m)
        if key not in self._views:
            h, w = self.hw
            xp = _view(self.pad[1:], (c, m, h + 2, w))
            sc, sn, sy, sx = xp.strides
            # window (dy, dx) of channel ci and sample ni is the run of h*w elements
            # from xp[ci, ni, dy, dx - 1]: shifted rows, each wrapping one element
            # at its left (dx = 0) or right (dx = 2) edge into the next row
            windows = as_strided(
                self.pad, (c, 3, 3, m, h * w), (sc, sy, sx, sn, sx), writeable=False
            )
            out = _view(self.cols[j], (c, 3, 3, m, h, w))
            oc, ody, odx, on, oy, ox = out.strides
            # the wrapped elements: column 0 of dx = 0 and column w - 1 of dx = 2
            edges = as_strided(out, (c, 3, 2, m, h), (oc, ody, 2 * odx + (w - 1) * ox, on, oy))
            self._views[key] = (
                xp[:, :, 1:-1],
                windows,
                out.reshape(c, 3, 3, m, h * w),
                edges,
                out.reshape(9 * c, m * h * w),
            )
        return self._views[key]

    def layer_views(self, m: int) -> list[tuple]:
        """Per layer: im2col views, GEMM output (o, m*h*w) and (o, m, h, w), activation."""
        key = ("layers", m)
        if key not in self._views:
            shape = (m, *self.hw)
            layers = []
            for i, (c, o) in enumerate(zip(CHANNELS[:-1], CHANNELS[1:])):
                z = _view(self.z[i], (o, *shape))
                act = _view(self.acts[i], z.shape) if i < 3 else None
                layers.append((self.im2col_views(i, c, m), z.reshape(o, -1), z, act))
            self._views[key] = layers
        return self._views[key]


def _workspace_for(x: np.ndarray, ws: Workspace | None) -> Workspace:
    n, _, h, w = x.shape
    if ws is None:
        return Workspace(n, h, w)
    if n > ws.n or (h, w) != ws.hw:
        raise ShapeMismatch(f"batch {x.shape} does not fit a workspace for {ws.n} x {ws.hw}")
    return ws


def _view(buf: np.ndarray, shape) -> np.ndarray:
    return buf[: math.prod(shape)].reshape(shape)


def _im2col(x: np.ndarray, views) -> np.ndarray:
    """(c, n, h, w) -> (9c, n*h*w) column matrix of zero-padded 3x3 windows.

    views are ``Workspace.im2col_views`` for x's shape: x is written
    between the zero rows of the pad buffer, one copy takes all nine
    shifted windows of it into the column buffer, and one write zeroes the
    edge columns that the horizontal shifts wrapped. Row 9*ci + 3*dy + dx
    holds channel ci shifted by (dy - 1, dx - 1), the order of
    k.reshape(o, 9c) for a kernel k of shape (o, c, 3, 3).
    """
    interior, windows, out, edges, cols = views
    np.copyto(interior, x)
    np.copyto(out, windows)
    edges[...] = 0.0
    return cols


def _conv3(cols: np.ndarray, k: np.ndarray, out: np.ndarray) -> np.ndarray:
    # one GEMM: (o, 9c) @ (9c, n*h*w) into out, (o, n*h*w) channel-major
    return np.matmul(k.reshape(k.shape[0], -1), cols, out=out)


def _conv3_grad(cols, k, dy):
    """Kernel and bias gradients of y = conv3(x, k) + b given upstream dy.

    cols is the forward pass's column matrix of x; dy is channel-major.
    """
    dy2 = dy.reshape(dy.shape[0], -1)
    return (dy2 @ cols.T).reshape(k.shape), dy2.sum(axis=1)


def _conv3_dx(ws: Workspace, layer: int, k, dy):
    """Input gradient of the 0-based layer 1, 2 or 3 given upstream dy.

    dx is a 3x3 convolution of dy with the flipped, transposed kernel. Its
    columns go into the column buffer of the layer above (the top layer's
    own), whose kernel gradient is already done, and dx replaces the
    activation it is the gradient of.
    """
    kf = k[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
    c, n, h, w = dy.shape
    cols = _im2col(dy, ws.im2col_views(min(layer + 1, 3), c, n))
    dx = _view(ws.acts[layer - 1], (kf.shape[0], n, h, w))
    _conv3(cols, kf, dx.reshape(kf.shape[0], -1))
    return dx


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

    params holds the eight arrays in ``RegressorParams.as_list()`` order;
    mask is the (n, 32) dropout mask, or None for none. Returns the output
    (2, n, h, w), the pre-activations (z1, z2, z3), whose signs the backward
    pass gates on, and the four column matrices, which it reuses for the
    kernel gradients. They live in the workspace ws, built for this call
    when none is given, and hold until its next use. Each layer is one
    ``_im2col``, one GEMM, one bias add and, below the top, one ReLU.
    """
    ws = _workspace_for(x, ws)
    a = _swap_nc(x)
    zs, cols = [], []
    for i, (views, z2d, z, act) in enumerate(ws.layer_views(x.shape[0])):
        cols.append(_im2col(a, views))
        _conv3(cols[i], params[2 * i], z2d)
        z2d += params[2 * i + 1][:, None]
        if act is None:
            return z, tuple(zs), cols
        a = np.maximum(z, 0.0, out=act)
        if i == 1 and mask is not None:
            a *= mask.T[:, :, None, None]
        zs.append(z)


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
    out, (z1, z2, z3), (c1, c2, c3, c4) = _forward_cols(params, x, mask, ws)
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


def _openblas_thread_controls() -> list[tuple]:
    """(get, set) thread-count functions of each OpenBLAS mapped into this process.

    Empty where none is found, as on a BLAS other than OpenBLAS or a system
    without /proc/self/maps. Pinning every copy pins numpy's, whichever it is.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8", errors="surrogateescape") as fh:
            lines = [line for line in fh if "openblas" in line.lower()]
    except OSError:
        return []
    controls = []
    for path in sorted({line.split(maxsplit=5)[5].strip() for line in lines}):
        try:
            lib = ctypes.CDLL(path)  # already loaded: this only takes a handle on it
        except OSError:
            continue
        for get_name, set_name in OPENBLAS_ENTRY_POINTS:
            get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                set_.restype, set_.argtypes = None, [ctypes.c_int]
                controls.append((get, set_))
                break
    return controls


@contextmanager
def _one_blas_thread(controls):
    """Pins each OpenBLAS to one thread, restoring its previous count on exit."""
    before = [get() for get, _ in controls]
    try:
        for _, set_ in controls:
            set_(1)
        yield
    finally:
        for (_, set_), n in zip(controls, before):
            set_(n)


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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


def forward(params: RegressorParams, inputs, ws: Workspace | None = None) -> tuple:
    """Deterministic (mu, sigma) for one (5, H, W) stack; dropout is off.

    Runs in the caller's workspace ws when one is given, built for one
    H x W sample, else in a fresh one. The result owns its arrays, unchecked.
    """
    arr = _check_stack(inputs)
    out, _, _ = _forward_cols(params.as_list(), arr[None], None, ws)
    mu, s = out[:, 0]
    return mu.copy(), np.exp(s)


def nll_loss(pred: tuple[np.ndarray, np.ndarray], target: np.ndarray) -> float:
    """Mean Laplace NLL of target under pred, a (mu, sigma) pair as ``forward`` returns."""
    mu, sigma = pred
    if mu.shape != target.shape:
        raise ShapeMismatch(f"prediction {mu.shape} vs target {target.shape}")
    r = target - mu
    s = np.log(sigma)
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
    fit = ~dataset.validation
    x, y = dataset.inputs[fit], dataset.targets[fit]
    k = len(x)
    if not k:
        raise EmptyDataset("dataset has no training patches")
    rng = np.random.default_rng(cfg.seed)
    params = init_params(cfg.seed).as_list()
    m = [np.zeros_like(a) for a in params]
    v = [np.zeros_like(a) for a in params]
    ws = Workspace(min(cfg.batch_size, k), *x.shape[2:])
    t = 0
    for _ in range(cfg.epochs):
        order = rng.permutation(k)
        for start in range(0, k, cfg.batch_size):
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


def run_members(task, items) -> list:
    """[task(item) for item in items], the items side by side on a thread pool.

    The pool has min(len(items), usable CPUs) workers, each running whole
    items, with OpenBLAS pinned to one thread meanwhile and its previous
    count restored after; it has one worker, and BLAS keeps its threads,
    when OpenBLAS cannot be pinned. An item's error is raised as it is,
    after the items already running have finished and those not started
    are dropped.
    """
    items = list(items)
    controls = _openblas_thread_controls()
    workers = min(len(items), _usable_cpus()) if controls else 1
    with _one_blas_thread(controls if workers > 1 else []), ThreadPoolExecutor(workers) as pool:
        futures = [pool.submit(task, item) for item in items]
        try:
            return [f.result() for f in futures]
        except BaseException:
            for f in futures:
                f.cancel()
            raise


def train_ensemble(dataset: Dataset, cfg: TrainConfig) -> list[RegressorParams]:
    """Independent members on disjoint seeds cfg.seed + 0 .. P-1, trained side by side.

    Member p is ``train`` on cfg.seed + p and depends only on the dataset
    and that seed, not on P, the pool size or the BLAS thread count. The
    members run on ``run_members``' pool.
    """
    cfgs = [replace(cfg, seed=cfg.seed + i) for i in range(cfg.ensemble_size)]
    # train is looked up per member, so a wrapper set on this module is what runs
    return run_members(lambda c: train(dataset, c), cfgs)


def predict_ensemble(models, inputs) -> PredictiveEnsemble:
    """One deterministic forward per trained member."""
    models = list(models)
    if not models:
        raise SizeMismatch("need at least one model")
    maps = [forward(p, inputs) for p in models]
    return PredictiveEnsemble(tuple(PredictiveMap(RealRaster(m), RealRaster(s)) for m, s in maps))
