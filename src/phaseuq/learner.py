"""Heteroscedastic convolutional regressor with hand-rolled reverse mode.

Fixed architecture, channels 5 -> 16 -> 32 -> 16 -> 2 with 3x3 kernels,
same zero-padding, ReLU between layers, and one channel-dropout site
after the second convolution. The two output channels parameterize a
per-pixel Laplacian: mean mu and log-scale s. ``forward`` returns the
arrays mu and sigma = exp(s), exponentiated once, as a pair, and
``predict_ensemble`` builds ``uqstats``' predictive maps from such pairs.

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

Activations are kept channel-major, (c, n, h, w). Each convolution is
one GEMM that expands its layer's narrow side, the one with fewer
channels, nine-fold:

- im2col, for layers 1 and 2 (5 -> 16 and 16 -> 32): the column matrix of
  a layer input x is (9c, n*h*w), its 9 shifted windows of the
  zero-padded x, and the layer is k.reshape(o, 9c) @ cols. The windows
  are taken by one copy from a stride-tricks view of the padded buffer, so
  a layer costs the same few numpy calls whatever its size: a pad write,
  that copy, a write zeroing the window edges, the GEMM, a bias add and a
  ReLU. Training keeps the two column matrices for the kernel gradients.
- col2im, for layers 3 and 4 (32 -> 16 and 16 -> 2): one GEMM of the nine
  stacked taps (9o, c) applies every tap at every pixel of the input,
  read in place, and each output pixel sums its nine taps from the nine
  shifted (o, n*h*w) slices of that product. The product holds w-wide
  rows, so a shift by one column carries column 0 (for dx = 0) and
  column w - 1 (for dx = 2) into the neighbouring row, and a shift by
  one row carries row 0 (dy = 0) and row h - 1 (dy = 2) into the
  neighbouring sample; those products, which zero padding would make
  zero, are zeroed before the sum.

Training and the single-patch ``forward`` that prediction runs take the
same pass; it differs from an all-im2col one only by the order in which
each pixel's nine taps are added, that is by rounding.

Backward, layers 4 and 3 take the im2col of their upstream gradient (18
and 144 rows): times the flipped kernel it is the input gradient, and
times the layer input it is the kernel gradient, with taps flipped.
Layer 2's input gradient is a col2im of the flipped kernel, and the
input gradient of layer 1 is never formed. Each activation feeds the
kernel gradient above it before its own gradient overwrites it.

All of these arrays live in one ``Workspace``: the padded input, the
column matrices, the layer outputs and the flat gradient, allocated once
and sized for a full batch, with the views onto them shaped once per
batch size. ``train`` holds one per call and every step (the short last
batch included) writes into it; ``forward`` runs in one its caller
holds, or a fresh one. The eight parameter arrays that ``train`` updates
are views of one flat buffer, so each Adam step is the same elementwise
operations once over all of it, and one finiteness check.

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
from .errors import DivergedLoss, EmptyDataset, NonFiniteInput, ShapeMismatch
from .uqstats import LOG2, PredictiveEnsemble, PredictiveMap

CHANNELS = (5, 16, 32, 16, 2)
ARCH_ID = "puq-cnn-" + "x".join(str(c) for c in CHANNELS) + "-v1"
# kernel and bias shapes in ``RegressorParams.as_list()`` order
PARAM_SHAPES = [
    shape for c, o in zip(CHANNELS[:-1], CHANNELS[1:]) for shape in ((o, c, 3, 3), (o,))
]
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
            kshape, bshape = PARAM_SHAPES[2 * i : 2 * i + 2]
            if k.shape != kshape or b.shape != bshape:
                raise ShapeMismatch(
                    f"layer {i + 1} expects kernel {kshape} and "
                    f"bias {bshape}, got {k.shape} and {b.shape}"
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


# ------------------------------------------------------------ plumbing


def _param_views(flat: np.ndarray) -> list[np.ndarray]:
    """The eight arrays of ``as_list()`` order as views of one flat buffer."""
    arrays, at = [], 0
    for shape in PARAM_SHAPES:
        size = math.prod(shape)
        arrays.append(flat[at : at + size].reshape(shape))
        at += size
    return arrays


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
        # planes for the widest input an im2col takes (layer 1's or 2's input, or
        # the upstream gradient of layer 4 or 3), and a spare element at either
        # end: the first window starts one before the first plane, and the last
        # ends one after the last
        self.pad = np.zeros(max(CHANNELS[:2] + CHANNELS[3:]) * n * (h + 2) * w + 2)
        # the column matrices of layers 1 and 2, and a third buffer for nine-fold
        # expansions of up to 16 channels: col2im's products, with w + 1 spare
        # elements at either end, and backward's upstream-gradient columns, which
        # are built only after the forward pass and read before the next col2im
        self.cols = [np.empty(9 * c * px) for c in CHANNELS[:2]]
        self.cols.append(np.empty(9 * CHANNELS[3] * px + 2 * (w + 1)))
        # GEMM outputs z1, z2, z3 and the network output
        self.z = [np.empty(c * px) for c in CHANNELS[1:]]
        # activations a1, d2, a3, overwritten by their gradients in backward
        self.acts = [np.empty(c * px) for c in CHANNELS[1:-1]]
        self._views: dict = {}

    @cached_property
    def grad(self) -> np.ndarray:
        """The loss gradient as one flat buffer, allocated by the first backward pass."""
        return np.empty(sum(math.prod(s) for s in PARAM_SHAPES))

    @cached_property
    def grads(self) -> list[np.ndarray]:
        """The eight arrays of ``grad``."""
        return _param_views(self.grad)

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

    def col2im_views(self, o: int, m: int) -> tuple:
        """``_col2im``'s views for m samples and o output channels."""
        key = ("col2im", o, m)
        if key not in self._views:
            h, w = self.hw
            px = m * h * w
            taps = self.cols[2]
            s = taps.itemsize
            # tap (dy, dx) of output channel oi and sample ni at pixel (y, x) is
            # row block 3*dy + dx of the product at pixel (y + dy - 1, x + dx - 1),
            # counted along flat rows from w + 1 elements before the product
            tap = ((3 * o * px + w) * s, (o * px + 1) * s, px * s, h * w * s, w * s, s)
            shifted = as_strided(taps, (3, 3, o, m, h, w), tap, writeable=False)
            # the taps that zero padding would make zero: those of column 0
            # (dx = 0) and w - 1 (dx = 2), which wrap into the neighbouring row,
            # and of row 0 (dy = 0) and h - 1 (dy = 2), which fall into the
            # neighbouring sample or the spare elements
            edge_cols = as_strided(
                taps, (3, 2, o, m, h), (tap[0], 2 * tap[1] + (w - 1) * s, *tap[2:5])
            )
            edge_rows = as_strided(
                taps, (2, 3, o, m, w), (2 * tap[0] + (h - 1) * tap[4], *tap[1:4], s)
            )
            product = taps[w + 1 : w + 1 + 9 * o * px].reshape(9 * o, px)
            self._views[key] = (product, edge_cols, edge_rows, shifted)
        return self._views[key]

    def layer_views(self, m: int) -> list[tuple]:
        """Per layer: im2col (layers 1, 2) or col2im (3, 4) views, output (o, m*h*w)
        and (o, m, h, w), activation."""
        key = ("layers", m)
        if key not in self._views:
            shape = (m, *self.hw)
            layers = []
            for i, (c, o) in enumerate(zip(CHANNELS[:-1], CHANNELS[1:])):
                z = _view(self.z[i], (o, *shape))
                act = _view(self.acts[i], z.shape) if i < 3 else None
                views = self.im2col_views(i, c, m) if i < 2 else self.col2im_views(o, m)
                layers.append((views, z.reshape(o, -1), z, act))
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


def _col2im(x: np.ndarray, taps: np.ndarray, views, out: np.ndarray) -> np.ndarray:
    """Zero-padded 3x3 correlation of x (c, n, h, w) into out (o, n, h, w).

    taps is the kernel stacked by ``_stacked_taps``, (9o, c), and views are
    ``Workspace.col2im_views`` for these shapes. One GEMM applies all nine
    taps at every pixel of x, read in place. Each output pixel then sums
    its nine taps, each from the pixel its shift points at; read along
    flat w-wide rows, the shifts off the sample's edge columns wrap into
    the neighbouring row and those off its edge rows into the neighbouring
    sample, so those taps are zeroed first.
    """
    product, edge_cols, edge_rows, shifted = views
    np.matmul(taps, x.reshape(x.shape[0], -1), out=product)
    edge_cols[...] = 0.0
    edge_rows[...] = 0.0
    return np.add.reduce(shifted, axis=(0, 1), out=out)


def _stacked_taps(k: np.ndarray) -> np.ndarray:
    # (o, c, 3, 3) -> (9o, c): row block 3*dy + dx holds tap (dy, dx) of every output channel
    return k.transpose(2, 3, 0, 1).reshape(-1, k.shape[1])


def _flipped(k: np.ndarray) -> np.ndarray:
    # the kernel of a layer's input gradient: (o, c, 3, 3) -> (c, o, 3, 3), taps reversed
    return k[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)


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
    """Forward pass of training and ``forward``, channel-major (c, n, h, w).

    params holds the eight arrays in ``RegressorParams.as_list()`` order;
    mask is the (n, 32) dropout mask, or None for none. Returns the output
    (2, n, h, w), the pre-activations (z1, z2, z3), whose signs the backward
    pass gates on, and the column matrices of layers 1 and 2, which it
    reuses for their kernel gradients. They live in the workspace ws, built for this call
    when none is given, and hold until its next use. Layers 1 and 2 are an
    ``_im2col`` and one GEMM, layers 3 and 4 a ``_col2im``; each adds its
    bias and, below the top, applies a ReLU.
    """
    ws = _workspace_for(x, ws)
    n = x.shape[0]
    a = _swap_nc(x)
    zs, cols = [], []
    for i, (views, z2d, z, act) in enumerate(ws.layer_views(n)):
        k = params[2 * i]
        if i < 2:
            cols.append(_im2col(a, views))
            np.matmul(k.reshape(k.shape[0], -1), cols[i], out=z2d)
        else:
            _col2im(a, _stacked_taps(k), views, z)
        z2d += params[2 * i + 1][:, None]
        if act is None:
            return z, tuple(zs), tuple(cols)
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


def _narrow_grads(ws, k, dz, x, dk, db):
    """Gradients of layer 3 or 4, given its upstream gradient dz and input x.

    The columns of dz (9o rows, built in the third column buffer) give the
    input gradient through the flipped kernel, and their product with x
    gives the kernel gradient, tap (dy, dx) in row 9*oi + 3*(2 - dy) +
    (2 - dx). The kernel and bias gradients go into dk and db; the input
    gradient then replaces x, which is returned.
    """
    o, c = k.shape[:2]
    dcols = _im2col(dz, ws.im2col_views(2, o, dz.shape[1]))
    x2d = x.reshape(c, -1)
    g = (dcols @ x2d.T).reshape(o, 3, 3, c)
    np.copyto(dk, g[:, ::-1, ::-1].transpose(0, 3, 1, 2))
    dz.sum(axis=(1, 2, 3), out=db)
    np.matmul(_flipped(k).reshape(c, -1), dcols, out=x2d)
    return x


def _wide_grads(cols, dz, dk, db):
    """Kernel and bias gradients of layer 1 or 2 from its forward column matrix."""
    dz2d = dz.reshape(dz.shape[0], -1)
    # cols @ dz.T, the tall product, runs faster in OpenBLAS than its transpose
    np.copyto(dk.reshape(dz.shape[0], -1), (cols @ dz2d.T).T)
    dz2d.sum(axis=1, out=db)


def _backward_batch(params, x, y, mask, ws=None):
    """Loss gradients as a list in ``as_list()`` order, and the loss.

    Runs in the workspace ws, built for this call when none is given; the
    gradients are the eight views of its flat ``grad`` buffer. Each
    activation is read by the kernel gradient above it before its own
    gradient overwrites it.
    """
    ws = _workspace_for(x, ws)
    n = x.shape[0]
    out, (z1, z2, z3), (c1, c2) = _forward_cols(params, x, mask, ws)
    loss, dout = _loss_and_grad_out(_swap_nc(out), y)
    if not math.isfinite(loss):
        raise DivergedLoss(f"loss became {loss}")
    _, _, k2, _, k3, _, k4, _ = params
    dk1, db1, dk2, db2, dk3, db3, dk4, db4 = ws.grads
    (_, _, _, a1), (_, _, _, d2), (_, _, _, a3), _ = ws.layer_views(n)
    dz3 = _narrow_grads(ws, k4, _swap_nc(dout), a3, dk4, db4)
    dz3 *= z3 > 0.0
    dz2 = _narrow_grads(ws, k3, dz3, d2, dk3, db3)
    dz2 *= mask.T[:, :, None, None]
    dz2 *= z2 > 0.0
    _wide_grads(c2, dz2, dk2, db2)
    dz1 = _col2im(dz2, _stacked_taps(_flipped(k2)), ws.col2im_views(k2.shape[1], n), a1)
    dz1 *= z1 > 0.0
    _wide_grads(c1, dz1, dk1, db1)
    return ws.grads, loss


def _adam_step(theta, g, m, v, t, lr, scratch):
    """One Adam step on the flat parameters theta, in place, at step number t.

    g is the gradient, m and v the moment estimates, updated in place, and
    scratch two buffers of theta's size. The arithmetic is the textbook
    update's, operation for operation.
    """
    a, b = scratch
    m *= BETA1
    np.multiply(g, 1.0 - BETA1, out=a)
    m += a
    v *= BETA2
    np.multiply(g, 1.0 - BETA2, out=a)
    a *= g
    v += a
    np.divide(m, 1.0 - BETA1**t, out=a)
    np.divide(v, 1.0 - BETA2**t, out=b)
    np.sqrt(b, out=b)
    b += ADAM_EPS
    a *= lr
    a /= b
    theta -= a


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
    for kshape, bshape in zip(PARAM_SHAPES[::2], PARAM_SHAPES[1::2]):
        std = math.sqrt(2.0 / math.prod(kshape[1:]))
        tensors += [rng.normal(0.0, std, kshape), np.zeros(bshape)]
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
    theta = np.concatenate([a.ravel() for a in init_params(cfg.seed).as_list()])
    params = _param_views(theta)
    m, v = np.zeros_like(theta), np.zeros_like(theta)
    scratch = (np.empty_like(theta), np.empty_like(theta))
    ws = Workspace(min(cfg.batch_size, k), *x.shape[2:])
    t = 0
    for _ in range(cfg.epochs):
        order = rng.permutation(k)
        for start in range(0, k, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            mask = _sample_mask(len(idx), cfg.dropout_rate, rng)
            _, loss = _backward_batch(params, x[idx], y[idx], mask, ws)
            if loss_history is not None:
                loss_history.append(loss)
            t += 1
            _adam_step(theta, ws.grad, m, v, t, cfg.lr, scratch)
            if not np.isfinite(theta).all():
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
    return PredictiveEnsemble(tuple(PredictiveMap(*forward(p, inputs)) for p in models))
