"""Network, likelihood, gradients, training loop, ensembles."""

import math
import threading
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.signal import convolve, correlate

from conftest import bump_field, hetero_dataset, hetero_holdout, hetero_sigma
from phaseuq import learner
from phaseuq.config import TrainConfig
from phaseuq.errors import (
    ConfigError,
    DivergedLoss,
    EmptyDataset,
    NonFiniteInput,
    ShapeMismatch,
)
from phaseuq.learner import (
    CHANNELS,
    Dataset,
    RegressorParams,
    Workspace,
    backward,
    forward,
    init_params,
    nll_loss,
    predict_ensemble,
    train,
    train_ensemble,
)
from phaseuq.learner import (
    _backward_batch,
    _col2im,
    _forward_cols,
    _im2col,
    _loss_and_grad_out,
    _sample_mask,
    _stacked_taps,
)


def flatten(params):
    return np.concatenate([a.ravel() for a in params.as_list()])


def unflatten(flat):
    arrays, at = [], 0
    for a in init_params(0).as_list():
        arrays.append(flat[at : at + a.size].reshape(a.shape))
        at += a.size
    return RegressorParams(*arrays)


def toy_dataset(*parts):
    """Patches from (count, base_seed, validation) parts in order; channel 0 is the target."""
    targets, held = [], []
    for count, base_seed, validation in parts:
        for i in range(count):
            targets.append(bump_field(16, base_seed + i, bumps=3, sigma_range=(3.0, 6.0)))
        held += [validation] * count
    y = np.stack(targets)
    x = np.zeros((len(y), 5, 16, 16))
    x[:, 0] = y
    return Dataset(x, y, np.array(held))


@pytest.fixture(scope="module")
def toy_run():
    ds = toy_dataset((64, 0, False), (16, 1000, True))
    history = []
    params = train(
        ds,
        TrainConfig(lr=1e-3, epochs=200, dropout_rate=0.0, seed=3),
        loss_history=history,
    )
    return ds, params, history


# ------------------------------------------------------------ init_params


def test_init_same_seed_identical():
    a, b = init_params(11), init_params(11)
    for x, y in zip(a.as_list(), b.as_list()):
        assert np.array_equal(x, y)


def test_init_different_seeds_differ():
    a, b = init_params(0), init_params(1)
    assert any(not np.array_equal(x, y) for x, y in zip(a.kernels(), b.kernels()))


def test_init_he_scaled_kernels():
    params = init_params(5)
    for i, k in enumerate(params.kernels()):
        expected = math.sqrt(2.0 / (9 * CHANNELS[i]))
        assert abs(k.std() / expected - 1.0) < 0.15


def test_init_zero_biases():
    for b in init_params(2).biases():
        assert np.all(b == 0.0)


# ----------------------------------------------------------------- forward


def test_forward_two_channel_output():
    mu, sigma = forward(init_params(0), np.random.default_rng(0).normal(size=(5, 12, 12)))
    assert mu.shape == (12, 12)
    assert sigma.shape == (12, 12)
    assert np.all(sigma > 0.0)


def test_forward_deterministic_without_dropout():
    x = np.random.default_rng(1).normal(size=(5, 10, 10))
    params = init_params(4)
    (mu_a, sigma_a), (mu_b, sigma_b) = forward(params, x), forward(params, x)
    assert np.array_equal(mu_a, mu_b)
    assert np.array_equal(sigma_a, sigma_b)


def test_forward_rejects_wrong_stack():
    with pytest.raises(ShapeMismatch):
        forward(init_params(0), np.zeros((4, 8, 8)))


def test_backward_dropout_needs_seed():
    with pytest.raises(NonFiniteInput):
        backward(init_params(0), np.zeros((5, 8, 8)), np.zeros((8, 8)), dropout_rate=0.2)


# ---------------------------------------------------------------- nll_loss


def test_nll_zero_at_matching_half_sigma():
    n = 8
    mu = np.random.default_rng(0).normal(size=(n, n))
    assert abs(nll_loss((mu, np.full((n, n), 0.5)), mu)) < 1e-12


def test_nll_minimized_at_sigma_equal_residual():
    # scan sigma at fixed residual r: the minimum sits at sigma = r
    r = 0.37
    sigmas = np.linspace(0.2, 0.6, 400001)
    losses = r / sigmas + np.log(2.0 * sigmas)
    best = sigmas[np.argmin(losses)]
    assert abs(best - r) < 1e-6


def test_nll_doubling_sigma_adds_log2():
    n = 6
    mu = np.zeros((n, n))
    lo = nll_loss((mu, np.ones((n, n))), mu)
    hi = nll_loss((mu, np.full((n, n), 2.0)), mu)
    assert abs(hi - lo - math.log(2.0)) < 1e-12


def test_nll_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        nll_loss((np.zeros((4, 4)), np.ones((4, 4))), np.zeros((5, 4)))


# ---------------------------------------------------------------- backward


def reference_forward(params, x, mask):
    """Per-channel scipy correlations, sample-major; returns output and pre-activations.

    Each correlation runs over all samples at once, with a kernel one sample deep.
    """

    def conv(a, k, b):
        out = np.zeros((a.shape[0], k.shape[0], *a.shape[2:]))
        for o in range(k.shape[0]):
            for c in range(k.shape[1]):
                out[:, o] += correlate(a[:, c], k[o, c][None], mode="same", method="direct")
            out[:, o] += b[o]
        return out

    z1 = conv(x, params.k1, params.b1)
    z2 = conv(np.maximum(z1, 0.0), params.k2, params.b2)
    d2 = np.maximum(z2, 0.0) * mask[:, :, None, None]
    z3 = conv(d2, params.k3, params.b3)
    out = conv(np.maximum(z3, 0.0), params.k4, params.b4)
    return out, (x, z1, z2, d2, z3)


def reference_gradients(params, x, y, mask):
    """Chain rule written out with scipy correlations and convolutions."""
    out, (x, z1, z2, d2, z3) = reference_forward(params, x, mask)
    acts = (x, np.maximum(z1, 0.0), d2, np.maximum(z3, 0.0))
    gates = (None, z1 > 0.0, (z2 > 0.0) * mask[:, :, None, None], z3 > 0.0)
    r = y - out[:, 0]
    es = np.exp(-out[:, 1])
    dz = np.stack([-np.sign(r) * es, 1.0 - np.abs(r) * es], axis=1) / y.size
    grads = []
    for layer in (3, 2, 1, 0):
        k, a = params.kernels()[layer], acts[layer]
        padded = np.pad(a, ((0, 0), (0, 0), (1, 1), (1, 1)))
        dk = np.zeros_like(k)
        for o in range(k.shape[0]):
            for c in range(k.shape[1]):
                # sums over the samples too: the kernel is as deep as the batch
                dk[o, c] = correlate(padded[:, c], dz[:, o], mode="valid", method="direct")[0]
        grads = [dk, dz.sum(axis=(0, 2, 3))] + grads
        if layer > 0:
            da = np.zeros_like(a)
            for c in range(k.shape[1]):
                for o in range(k.shape[0]):
                    da[:, c] += convolve(dz[:, o], k[o, c][None], mode="same", method="direct")
            dz = da * gates[layer]
    return out, grads


def test_kernels_match_scipy_reference():
    # a full batch, the demo's short last batch and batch 1, in turn in one
    # workspace, on a non-square frame, with dropout zeroing some channels of
    # every sample and nonzero biases
    rng = np.random.default_rng(21)
    params = unflatten(0.3 * rng.normal(size=flatten(init_params(0)).size))
    assert all((b != 0.0).all() for b in params.biases())
    ws = Workspace(16, 7, 10)
    for n in (16, 11, 1):
        x = rng.normal(size=(n, 5, 7, 10))
        y = rng.normal(size=(n, 7, 10))
        mask = (rng.random((n, 32)) >= 0.4) / 0.6
        assert (mask == 0.0).any(axis=1).all()
        want_out, want_grads = reference_gradients(params, x, y, mask)
        out, _, _ = _forward_cols(params.as_list(), x, mask, ws)
        got_out = out.transpose(1, 0, 2, 3).copy()
        grads, loss = _backward_batch(params.as_list(), x, y, mask, ws)
        mu, s = want_out[:, 0], want_out[:, 1]
        want_loss = np.mean(np.abs(y - mu) * np.exp(-s) + s) + math.log(2.0)
        assert abs(loss - want_loss) <= 1e-12 * abs(want_loss)
        for got, want in [(got_out, want_out), *zip(grads, want_grads)]:
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_reused_workspace_leaks_nothing_between_batches():
    # full batch, a shorter batch in a prefix of the same buffers, full again
    rng = np.random.default_rng(31)
    params = unflatten(0.3 * rng.normal(size=flatten(init_params(0)).size)).as_list()
    ws = Workspace(4, 10, 14)
    for n in (4, 3, 4):
        x = rng.normal(size=(n, 5, 10, 14))
        y = rng.normal(size=(n, 10, 14))
        mask = (rng.random((n, 32)) >= 0.3) / 0.7
        got, got_loss = _backward_batch(params, x, y, mask, ws)
        want, want_loss = _backward_batch(params, x, y, mask)
        assert got_loss == want_loss
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


def test_workspace_rejects_batch_it_cannot_hold():
    ws = Workspace(2, 8, 8)
    ones = np.ones((3, 32))
    with pytest.raises(ShapeMismatch):
        _forward_cols(init_params(0).as_list(), np.zeros((3, 5, 8, 8)), ones, ws)
    with pytest.raises(ShapeMismatch):
        _forward_cols(init_params(0).as_list(), np.zeros((2, 5, 8, 9)), ones[:2], ws)


def test_forward_and_backward_results_do_not_alias_buffers():
    rng = np.random.default_rng(32)
    params = init_params(12)
    x1, x2 = rng.normal(size=(2, 5, 12, 12))
    y1, y2 = rng.normal(size=(2, 12, 12))
    pred = forward(params, x1)
    grads, _ = backward(params, x1, y1, dropout_rate=0.5, dropout_seed=1)
    kept = [a.copy() for a in (*pred, *grads.as_list())]
    forward(params, x2)
    backward(params, x2, y2, dropout_rate=0.5, dropout_seed=2)
    after = (*pred, *grads.as_list())
    for a, b in zip(kept, after):
        assert np.array_equal(a, b)


def _im2col_reference(x):
    """The nine-slice im2col: (c, n, h, w) -> (9c, n*h*w), row 9*ci + 3*dy + dx."""
    c, n, h, w = x.shape
    xp = np.zeros((c, n, h + 2, w + 2))
    xp[:, :, 1:-1, 1:-1] = x
    out = np.empty((c, 9, n, h, w))
    for dy in range(3):
        for dx in range(3):
            out[:, 3 * dy + dx] = xp[:, :, dy : dy + h, dx : dx + w]
    return out.reshape(9 * c, n * h * w)


@pytest.mark.parametrize("n", [1, 3, 16])
def test_im2col_matches_nine_slice_reference(n):
    # every (column buffer, channel count) the passes use: the inputs of layers
    # 1 and 2, and backward's upstream-gradient columns of 16 and 2 channels in
    # the third buffer; twice over, so each call follows a wider one in the
    # shared pad buffer
    rng = np.random.default_rng(40 + n)
    ws = Workspace(16, 6, 7)
    for j, c in [(0, 5), (1, 16), (2, 16), (2, 2)] * 2:
        x = rng.normal(size=(c, n, 6, 7))
        assert np.array_equal(_im2col(x, ws.im2col_views(j, c, n)), _im2col_reference(x))


@pytest.mark.parametrize("n", [1, 11, 16])
def test_col2im_matches_im2col_reference(n):
    # the (input, output) channel counts col2im runs at: layers 3 and 4
    # forward and layer 2's input gradient (32 -> 16), each with a product
    # buffer full of NaN, so every tap the sum reads must have been written
    rng = np.random.default_rng(50 + n)
    ws = Workspace(16, 6, 7)
    for c, o in [(32, 16), (16, 2)]:
        x = rng.normal(size=(c, n, 6, 7))
        k = rng.normal(size=(o, c, 3, 3))
        out = np.empty((o, n, 6, 7))
        ws.cols[2][...] = np.nan
        _col2im(x, _stacked_taps(k), ws.col2im_views(o, n), out)
        want = (k.reshape(o, -1) @ _im2col_reference(x)).reshape(out.shape)
        assert np.abs(out - want).max() <= 1e-12 * np.abs(want).max()


def eight_array_adam(params, grads, m, v, t, lr):
    """The Adam update array by array, in place."""
    for p, g, mj, vj in zip(params, grads, m, v):
        mj *= learner.BETA1
        mj += (1.0 - learner.BETA1) * g
        vj *= learner.BETA2
        vj += (1.0 - learner.BETA2) * g * g
        mh = mj / (1.0 - learner.BETA1**t)
        vh = vj / (1.0 - learner.BETA2**t)
        p -= lr * mh / (np.sqrt(vh) + learner.ADAM_EPS)


def test_train_matches_eight_array_loop():
    # 11 training patches at batch 4: three steps an epoch, the last one short
    ds = toy_dataset((11, 90, False), (3, 95, True))
    cfg = TrainConfig(lr=2e-3, epochs=3, dropout_rate=0.2, seed=8, batch_size=4)
    history = []
    got = train(ds, cfg, history)
    x, y = ds.inputs[~ds.validation], ds.targets[~ds.validation]
    rng = np.random.default_rng(cfg.seed)
    params = init_params(cfg.seed).as_list()
    m, v = [np.zeros_like(a) for a in params], [np.zeros_like(a) for a in params]
    losses, t = [], 0
    for _ in range(cfg.epochs):
        order = rng.permutation(len(x))
        for start in range(0, len(x), cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            mask = _sample_mask(len(idx), cfg.dropout_rate, rng)
            grads, loss = _backward_batch(params, x[idx], y[idx], mask)
            losses.append(loss)
            t += 1
            eight_array_adam(params, grads, m, v, t, cfg.lr)
    assert len(history) == t == cfg.epochs * 3
    assert history == losses
    for a, b in zip(got.as_list(), params, strict=True):
        assert np.array_equal(a, b)


def test_forward_in_a_held_workspace_matches_fresh_workspaces():
    # two members alternate over three patches, one of them all zero and one negative
    rng = np.random.default_rng(33)
    members = [unflatten(0.3 * rng.normal(size=flatten(init_params(0)).size)) for _ in range(2)]
    patches = [
        rng.normal(size=(5, 12, 12)),
        np.zeros((5, 12, 12)),
        -np.abs(rng.normal(size=(5, 12, 12))),
    ]
    ws = Workspace(1, 12, 12)
    for x in patches * 2:
        for params in members:
            (got_mu, got_sigma), (want_mu, want_sigma) = forward(params, x, ws), forward(params, x)
            assert np.array_equal(got_mu, want_mu)
            assert np.array_equal(got_sigma, want_sigma)


def test_forward_result_does_not_alias_its_workspace():
    rng = np.random.default_rng(34)
    params = init_params(13)
    x1, x2 = rng.normal(size=(2, 5, 12, 12))
    ws = Workspace(1, 12, 12)
    mu, sigma = forward(params, x1, ws)
    kept = mu.copy(), sigma.copy()
    forward(params, x2, ws)
    assert np.array_equal(mu, kept[0])
    assert np.array_equal(sigma, kept[1])
    for buf in (ws.pad, *ws.cols, *ws.z, *ws.acts):
        assert not np.shares_memory(mu, buf)
        assert not np.shares_memory(sigma, buf)


def test_dropout_masked_channel_gets_zero_gradient():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(5, 12, 12))
    y = rng.normal(size=(12, 12))
    params = init_params(9)
    rate, seed = 0.5, 123
    mask = _sample_mask(1, rate, np.random.default_rng(seed))[0]
    dead = np.flatnonzero(mask == 0.0)
    assert dead.size > 0
    grads, _ = backward(params, x, y, dropout_rate=rate, dropout_seed=seed)
    for c in dead:
        assert np.all(grads.k3[:, c] == 0.0)  # consumes the masked channel
        assert np.all(grads.k2[c] == 0.0)  # produces the masked channel


def test_output_scale_gradient_zero_at_matched_residual():
    # |y - mu| = sigma makes dL/ds vanish pixel-wise
    rng = np.random.default_rng(8)
    mu = rng.normal(size=(1, 6, 6))
    s = rng.normal(size=(1, 6, 6)) * 0.3
    out = np.stack([mu, s], axis=1)
    y = mu + np.exp(s)
    _, grad_out = _loss_and_grad_out(out, y)
    assert np.max(np.abs(grad_out[:, 1])) < 1e-15


def test_loss_translation_covariance():
    # feature kept >= 8 px from the border; rolling input and target
    # together relabels pixels without changing the value multiset
    params = init_params(6)
    field = np.zeros((32, 32))
    field[12:20, 12:20] = bump_field(8, 5, bumps=2, sigma_range=(2.0, 4.0))
    x = np.zeros((5, 32, 32))
    x[0] = field
    x[1] = 0.5 * field
    y = 0.8 * field
    base = nll_loss(forward(params, x), y)
    rolled = nll_loss(
        forward(params, np.roll(x, (3, 2), axis=(1, 2))), np.roll(y, (3, 2), axis=(0, 1))
    )
    assert abs(base - rolled) < 1e-12


def test_backward_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        backward(init_params(0), np.zeros((5, 8, 8)), np.zeros((9, 8)))


# ------------------------------------------------------------------- train


def test_toy_identity_validation_mae(toy_run):
    ds, params, _ = toy_run
    errs = []
    for x, y in zip(ds.inputs[ds.validation], ds.targets[ds.validation]):
        mu, _ = forward(params, x)
        errs.append(np.abs(mu - y).mean())
    assert np.mean(errs) < 0.02


def test_toy_loss_smoothed_nonincreasing(toy_run):
    # averaged per epoch (batches differ in content) then smoothed over a
    # 10-epoch window; non-increasing up to optimizer noise: no up-move
    # above 8% of the total descent, final value within 10% of the floor
    _, _, history = toy_run
    epoch_means = np.asarray(history).reshape(200, -1).mean(axis=1)
    smooth = np.convolve(epoch_means, np.ones(10) / 10.0, mode="valid")
    drop = smooth[0] - smooth[-1]
    assert drop > 0.0
    assert np.max(np.diff(smooth)) <= 0.08 * drop
    assert smooth[-1] - smooth.min() <= 0.10 * drop


def test_train_seed_determinism():
    ds = toy_dataset((8, 40, False))
    cfg = TrainConfig(lr=1e-3, epochs=25, dropout_rate=0.1, seed=12)
    a, b = train(ds, cfg), train(ds, cfg)
    for x, y in zip(a.as_list(), b.as_list()):
        assert np.array_equal(x, y)


def test_train_sigma_tracks_injected_noise():
    ds = hetero_dataset(n_train=24, seed=4)
    params = train(ds, TrainConfig(lr=5e-3, epochs=100, dropout_rate=0.1, seed=2))
    sig_hat, sig_true = [], []
    for inputs, sig, _ in hetero_holdout(n_val=8, base_seed=4000):
        sig_hat.append(forward(params, inputs)[1].ravel())
        sig_true.append(sig.ravel())
    rho = np.corrcoef(np.concatenate(sig_hat), np.concatenate(sig_true))[0, 1]
    assert rho > 0.8


def test_train_empty_dataset():
    ds = toy_dataset((4, 0, True))
    with pytest.raises(EmptyDataset):
        train(ds, TrainConfig())


def test_train_diverged_loss():
    # divergence is reported before exp(-s) overflows, so no warning is emitted
    ds = toy_dataset((8, 60, False))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DivergedLoss):
            train(ds, TrainConfig(lr=1e5, epochs=50, dropout_rate=0.0, seed=0))


# --------------------------------------------------------------- ensembles


def test_default_ensemble_size_is_eight():
    assert TrainConfig().ensemble_size == 8


def test_train_ensemble_members_differ():
    ds = toy_dataset((8, 80, False))
    cfg = TrainConfig(lr=1e-3, epochs=5, dropout_rate=0.1, seed=0, ensemble_size=3)
    models = train_ensemble(ds, cfg)
    assert len(models) == 3
    assert not np.array_equal(models[0].k1, models[1].k1)


def test_train_ensemble_member_independent_of_size():
    # member p is train() on seed cfg.seed + p, whatever the ensemble size
    ds = toy_dataset((8, 80, False))
    cfg = TrainConfig(lr=1e-3, epochs=5, dropout_rate=0.1, seed=4, ensemble_size=3)
    three = train_ensemble(ds, cfg)
    two = train_ensemble(ds, replace(cfg, ensemble_size=2))
    assert len(three) == 3 and len(two) == 2
    for p, member in enumerate(three):
        alone = train(ds, replace(cfg, seed=cfg.seed + p))
        for x, y in zip(member.as_list(), alone.as_list()):
            assert np.array_equal(x, y)
        if p < 2:
            for x, y in zip(member.as_list(), two[p].as_list()):
                assert np.array_equal(x, y)


def _trained_on_threads(monkeypatch, ds, cfg):
    """train_ensemble's members and the names of the threads that trained them."""
    names = set()

    def recording(*args, **kwargs):
        names.add(threading.current_thread().name)
        return train(*args, **kwargs)

    monkeypatch.setattr(learner, "train", recording)
    return train_ensemble(ds, cfg), names


def test_train_ensemble_independent_of_pool_size(monkeypatch):
    # one worker where OpenBLAS cannot be pinned, two where it can
    ds = toy_dataset((8, 80, False))
    cfg = TrainConfig(lr=1e-3, epochs=4, dropout_rate=0.1, seed=7, ensemble_size=3)
    monkeypatch.setattr(learner, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(learner, "_openblas_thread_controls", lambda: [])
    one, one_threads = _trained_on_threads(monkeypatch, ds, cfg)
    count = [4]
    fake = (lambda: count[0], lambda n: count.__setitem__(0, n))
    monkeypatch.setattr(learner, "_openblas_thread_controls", lambda: [fake])
    two, two_threads = _trained_on_threads(monkeypatch, ds, cfg)
    assert (len(one_threads), len(two_threads)) == (1, 2)
    assert count == [4]
    monkeypatch.undo()
    for p, (a, b) in enumerate(zip(one, two, strict=True)):
        alone = train(ds, replace(cfg, seed=cfg.seed + p))
        for x, y, z in zip(a.as_list(), b.as_list(), alone.as_list()):
            assert np.array_equal(x, y) and np.array_equal(x, z)


def test_train_ensemble_pins_and_restores_blas_threads(blas_threads, monkeypatch):
    get, _ = blas_threads
    ds = toy_dataset((8, 80, False))
    cfg = TrainConfig(lr=1e-3, epochs=2, dropout_rate=0.1, seed=0, ensemble_size=2)
    during = []

    def recording(*args, **kwargs):
        during.append(get())
        return train(*args, **kwargs)

    monkeypatch.setattr(learner, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(learner, "train", recording)
    train_ensemble(ds, cfg)
    assert during == [1, 1]
    assert get() == 2


def test_train_ensemble_member_error_propagates_and_restores(blas_threads, monkeypatch):
    get, _ = blas_threads
    ds = toy_dataset((8, 80, False))
    cfg = TrainConfig(lr=1e-3, epochs=2, dropout_rate=0.1, seed=5, ensemble_size=3)
    def failing(dataset, c, loss_history=None):
        if c.seed == cfg.seed + 1:
            raise DivergedLoss("member 1 diverged")
        return train(dataset, c, loss_history)

    monkeypatch.setattr(learner, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(learner, "train", failing)
    with pytest.raises(DivergedLoss) as exc:
        train_ensemble(ds, cfg)
    assert type(exc.value) is DivergedLoss and str(exc.value) == "member 1 diverged"
    assert get() == 2


def test_openblas_build_has_a_thread_count_entry_point():
    """Where numpy is built on OpenBLAS the pool must not fall back to one worker."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    if "openblas" not in blas.get("name", "").lower():
        pytest.skip(f"numpy is built on {blas.get('name')!r}, not OpenBLAS")
    controls = learner._openblas_thread_controls()
    assert controls
    assert all(get() >= 1 for get, _ in controls)


def test_predict_ensemble_identical_members():
    params = init_params(0)
    x = np.random.default_rng(5).normal(size=(5, 9, 9))
    ens = predict_ensemble([params, params, params], x)
    assert ens.size == 3
    for m in ens.members[1:]:
        assert np.array_equal(m.mu.data, ens.members[0].mu.data)
        assert np.array_equal(m.sigma.data, ens.members[0].sigma.data)


# ------------------------------------------------------------- validation


def test_dataset_rejects_bad_split():
    # one validation flag per patch
    with pytest.raises(ShapeMismatch):
        Dataset(np.zeros((2, 5, 4, 4)), np.zeros((2, 4, 4)), np.zeros(3, dtype=bool))


def test_dataset_rejects_target_out_of_range():
    with pytest.raises(NonFiniteInput):
        Dataset(np.zeros((1, 5, 4, 4)), np.full((1, 4, 4), 1.5), np.zeros(1, dtype=bool))


def test_dataset_rejects_mixed_shapes():
    with pytest.raises(ShapeMismatch):
        Dataset(np.zeros((2, 5, 4, 4)), np.zeros((2, 6, 6)), np.zeros(2, dtype=bool))
    with pytest.raises(ShapeMismatch):
        Dataset(np.zeros((2, 4, 4, 4)), np.zeros((2, 4, 4)), np.zeros(2, dtype=bool))


def test_dataset_split_filter():
    # train() fits only the patches not held out for validation
    cfg = TrainConfig(lr=1e-3, epochs=3, dropout_rate=0.1, seed=7)
    mixed = train(toy_dataset((3, 0, False), (2, 10, True)), cfg)
    alone = train(toy_dataset((3, 0, False)), cfg)
    for x, y in zip(mixed.as_list(), alone.as_list()):
        assert np.array_equal(x, y)


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(lr=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(dropout_rate=1.0)
    with pytest.raises(ConfigError):
        TrainConfig(ensemble_size=0)


def test_params_shape_validation():
    good = init_params(0)
    bad = list(good.as_list())
    bad[0] = np.zeros((16, 5, 3, 2))
    with pytest.raises(ShapeMismatch):
        RegressorParams(*bad)
