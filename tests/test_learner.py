"""Network, likelihood, gradients, training loop, ensembles."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.signal import convolve, correlate

from conftest import bump_field, hetero_dataset, hetero_holdout, hetero_sigma
from phaseuq.config import TrainConfig
from phaseuq.errors import (
    ConfigError,
    DivergedLoss,
    EmptyDataset,
    NonFiniteInput,
    ShapeMismatch,
)
from phaseuq.grid import RealRaster
from phaseuq.learner import (
    CHANNELS,
    Dataset,
    PredictiveMap,
    RegressorParams,
    SamplePair,
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
    _forward_cols,
    _loss_and_grad_out,
    _sample_mask,
    _Workspace,
)


def flatten(params):
    return np.concatenate([a.ravel() for a in params.as_list()])


def unflatten(flat):
    arrays, at = [], 0
    for a in init_params(0).as_list():
        arrays.append(flat[at : at + a.size].reshape(a.shape))
        at += a.size
    return RegressorParams(*arrays)


def toy_pairs(count, base_seed, split):
    pairs = []
    for i in range(count):
        target = bump_field(16, base_seed + i, bumps=3, sigma_range=(3.0, 6.0))
        x = np.zeros((5, 16, 16))
        x[0] = target
        pairs.append(SamplePair(x, target, split=split))
    return pairs


@pytest.fixture(scope="module")
def toy_run():
    ds = Dataset(tuple(toy_pairs(64, 0, "train") + toy_pairs(16, 1000, "validation")))
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
    pred = forward(init_params(0), np.random.default_rng(0).normal(size=(5, 12, 12)))
    assert isinstance(pred, PredictiveMap)
    assert pred.mu.shape == (12, 12)
    assert pred.log_scale.shape == (12, 12)
    assert np.all(pred.sigma > 0.0)


def test_forward_deterministic_without_dropout():
    x = np.random.default_rng(1).normal(size=(5, 10, 10))
    params = init_params(4)
    a, b = forward(params, x), forward(params, x)
    assert np.array_equal(a.mu.data, b.mu.data)
    assert np.array_equal(a.log_scale.data, b.log_scale.data)


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
    pred = PredictiveMap(RealRaster(mu), RealRaster(np.full((n, n), math.log(0.5))))
    assert abs(nll_loss(pred, RealRaster(mu))) < 1e-12


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
    target = RealRaster(mu)
    lo = nll_loss(PredictiveMap(RealRaster(mu), RealRaster(np.zeros((n, n)))), target)
    hi = nll_loss(
        PredictiveMap(RealRaster(mu), RealRaster(np.full((n, n), math.log(2.0)))), target
    )
    assert abs(hi - lo - math.log(2.0)) < 1e-12


def test_nll_shape_mismatch():
    pred = PredictiveMap(RealRaster(np.zeros((4, 4))), RealRaster(np.zeros((4, 4))))
    with pytest.raises(ShapeMismatch):
        nll_loss(pred, RealRaster(np.zeros((5, 4))))


# ---------------------------------------------------------------- backward


def relu_signature(params, x, y):
    ones = np.ones((1, 32))
    out, (_, z1, _, z2, _, z3, _), _ = _forward_cols(params.as_list(), x[None], ones)
    return (z1 > 0, z2 > 0, z3 > 0, np.sign(y - out[0]))


def test_gradcheck_against_central_differences():
    rng = np.random.default_rng(17)
    x = rng.normal(size=(5, 16, 16))
    y = rng.normal(size=(16, 16))
    params = init_params(17)
    grads, _ = backward(params, x, y)
    flat = flatten(params)
    gflat = flatten(grads)
    h = 1e-5
    picks = rng.choice(flat.size, size=230, replace=False)
    checked = 0
    worst = 0.0
    for i in picks:
        for sgn, store in ((+1, "hi"), (-1, "lo")):
            bumped = flat.copy()
            bumped[i] += sgn * h
            p = unflatten(bumped)
            sig = relu_signature(p, x, y)
            loss = nll_loss(forward(p, x), RealRaster(y))
            if store == "hi":
                sig_hi, loss_hi = sig, loss
            else:
                sig_lo, loss_lo = sig, loss
        if any(not np.array_equal(a, b) for a, b in zip(sig_hi, sig_lo)):
            continue  # a ReLU or |.| kink sits inside the stencil
        fd = (loss_hi - loss_lo) / (2.0 * h)
        rel = abs(fd - gflat[i]) / max(abs(fd), abs(gflat[i]), 1e-10)
        worst = max(worst, rel)
        checked += 1
    assert checked >= 200
    assert worst < 1e-4


def reference_forward(params, x, mask):
    """Per-channel scipy correlations, sample-major; returns output and pre-activations."""

    def conv(a, k, b):
        out = np.zeros((a.shape[0], k.shape[0], *a.shape[2:]))
        for n in range(a.shape[0]):
            for o in range(k.shape[0]):
                for c in range(k.shape[1]):
                    out[n, o] += correlate(a[n, c], k[o, c], mode="same")
                out[n, o] += b[o]
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
        for n in range(a.shape[0]):
            for o in range(k.shape[0]):
                for c in range(k.shape[1]):
                    dk[o, c] += correlate(padded[n, c], dz[n, o], mode="valid")
        grads = [dk, dz.sum(axis=(0, 2, 3))] + grads
        if layer > 0:
            da = np.zeros_like(a)
            for n in range(a.shape[0]):
                for c in range(k.shape[1]):
                    for o in range(k.shape[0]):
                        da[n, c] += convolve(dz[n, o], k[o, c], mode="same")
            dz = da * gates[layer]
    return out, grads


def test_kernels_match_scipy_reference():
    # batch 3 on a non-square frame, dropout zeroing some channels
    rng = np.random.default_rng(21)
    x = rng.normal(size=(3, 5, 12, 20))
    y = rng.normal(size=(3, 12, 20))
    mask = (rng.random((3, 32)) >= 0.4) / 0.6
    assert (mask == 0.0).any(axis=1).all()
    params = unflatten(0.3 * rng.normal(size=flatten(init_params(0)).size))
    want_out, want_grads = reference_gradients(params, x, y, mask)
    out, _, _ = _forward_cols(params.as_list(), x, mask)
    grads, _ = _backward_batch(params.as_list(), x, y, mask)
    for got, want in [(out.transpose(1, 0, 2, 3), want_out), *zip(grads, want_grads)]:
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_reused_workspace_leaks_nothing_between_batches():
    # full batch, a shorter batch in a prefix of the same buffers, full again
    rng = np.random.default_rng(31)
    params = unflatten(0.3 * rng.normal(size=flatten(init_params(0)).size)).as_list()
    ws = _Workspace(4, 10, 14)
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
    ws = _Workspace(2, 8, 8)
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
    kept = [a.copy() for a in (pred.mu.data, pred.log_scale.data, *grads.as_list())]
    forward(params, x2)
    backward(params, x2, y2, dropout_rate=0.5, dropout_seed=2)
    after = (pred.mu.data, pred.log_scale.data, *grads.as_list())
    for a, b in zip(kept, after):
        assert np.array_equal(a, b)


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
    base = nll_loss(forward(params, x), RealRaster(y))
    rolled = nll_loss(
        forward(params, np.roll(x, (3, 2), axis=(1, 2))),
        RealRaster(np.roll(y, (3, 2), axis=(0, 1))),
    )
    assert abs(base - rolled) < 1e-12


def test_backward_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        backward(init_params(0), np.zeros((5, 8, 8)), np.zeros((9, 8)))


# ------------------------------------------------------------------- train


def test_toy_identity_validation_mae(toy_run):
    ds, params, _ = toy_run
    errs = []
    for pair in ds.split("validation"):
        pred = forward(params, pair.inputs)
        errs.append(np.abs(pred.mu.data - pair.target).mean())
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
    ds = Dataset(tuple(toy_pairs(8, 40, "train")))
    cfg = TrainConfig(lr=1e-3, epochs=25, dropout_rate=0.1, seed=12)
    a, b = train(ds, cfg), train(ds, cfg)
    for x, y in zip(a.as_list(), b.as_list()):
        assert np.array_equal(x, y)


def test_train_sigma_tracks_injected_noise():
    ds = Dataset(hetero_dataset(n_train=24, seed=4))
    params = train(ds, TrainConfig(lr=5e-3, epochs=100, dropout_rate=0.1, seed=2))
    sig_hat, sig_true = [], []
    for pair, sig, _ in hetero_holdout(n_val=8, base_seed=4000):
        sig_hat.append(forward(params, pair.inputs).sigma.ravel())
        sig_true.append(sig.ravel())
    rho = np.corrcoef(np.concatenate(sig_hat), np.concatenate(sig_true))[0, 1]
    assert rho > 0.8


def test_train_empty_dataset():
    ds = Dataset(tuple(toy_pairs(4, 0, "validation")))
    with pytest.raises(EmptyDataset):
        train(ds, TrainConfig())


def test_train_diverged_loss():
    # divergence is reported before exp(-s) overflows, so no warning is emitted
    ds = Dataset(tuple(toy_pairs(8, 60, "train")))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DivergedLoss):
            train(ds, TrainConfig(lr=1e5, epochs=50, dropout_rate=0.0, seed=0))


# --------------------------------------------------------------- ensembles


def test_default_ensemble_size_is_eight():
    assert TrainConfig().ensemble_size == 8


def test_train_ensemble_members_differ():
    ds = Dataset(tuple(toy_pairs(8, 80, "train")))
    cfg = TrainConfig(lr=1e-3, epochs=5, dropout_rate=0.1, seed=0, ensemble_size=3)
    models = train_ensemble(ds, cfg)
    assert len(models) == 3
    assert not np.array_equal(models[0].k1, models[1].k1)


def test_train_ensemble_member_independent_of_size():
    # member p is train() on seed cfg.seed + p, whatever the ensemble size
    ds = Dataset(tuple(toy_pairs(8, 80, "train")))
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


def test_predict_ensemble_identical_members():
    params = init_params(0)
    x = np.random.default_rng(5).normal(size=(5, 9, 9))
    ens = predict_ensemble([params, params, params], x)
    assert ens.size == 3
    for m in ens.members[1:]:
        assert np.array_equal(m.mu.data, ens.members[0].mu.data)
        assert np.array_equal(m.log_scale.data, ens.members[0].log_scale.data)


# ------------------------------------------------------------- validation


def test_dataset_rejects_bad_split():
    with pytest.raises(NonFiniteInput):
        Dataset((SamplePair(np.zeros((5, 4, 4)), np.zeros((4, 4)), split="maybe"),))


def test_dataset_rejects_target_out_of_range():
    with pytest.raises(NonFiniteInput):
        Dataset((SamplePair(np.zeros((5, 4, 4)), np.full((4, 4), 1.5), split="train"),))


def test_dataset_rejects_mixed_shapes():
    pairs = (
        SamplePair(np.zeros((5, 4, 4)), np.zeros((4, 4)), split="train"),
        SamplePair(np.zeros((5, 6, 6)), np.zeros((6, 6)), split="train"),
    )
    with pytest.raises(ShapeMismatch):
        Dataset(pairs)


def test_dataset_split_filter():
    pairs = tuple(toy_pairs(3, 0, "train") + toy_pairs(2, 10, "validation"))
    ds = Dataset(pairs)
    assert len(ds.split("train")) == 3
    assert len(ds.split("validation")) == 2
    assert len(ds.split("test")) == 0


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
