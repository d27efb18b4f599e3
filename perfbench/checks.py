"""Output checks computed apart from phaseuq.

Every check reads the artifacts a run left on disk with its own `.puqt`
reader and recomputes what it can with its own code: the convnet forward
pass from the checkpoint tensors (scipy's correlate), the variance
decomposition, a Laplace-mixture CDF, interval masses, the stitching
envelope and the error against the phantom. A check that rejects an
output raises CheckFailed with one line naming the artifact.
"""

from __future__ import annotations

import hashlib
import math
import struct
from pathlib import Path

import numpy as np

MAGIC = b"PUQT"
DTYPES = {1: np.dtype("<f4"), 2: np.dtype("<f8")}
LAYERS = (("k1", "b1"), ("k2", "b2"), ("k3", "b3"), ("k4", "b4"))
ANALYSIS_MAPS = (
    "mean",
    "data_sigma",
    "model_sigma",
    "total_sigma",
    "credibility",
    "credible_bound",
    "abs_error",
)
# credible_bound bisects to this absolute tolerance when called with its default
BOUND_TOL = 1e-6
RTOL = 1e-9


class CheckFailed(Exception):
    pass


# ------------------------------------------------------------ reading


def read_records(path) -> list[tuple[np.ndarray, str]]:
    """All (array, metadata) records of a .puqt file, parsed from the spec."""
    blob = Path(path).read_bytes()
    records, off = [], 0
    while off < len(blob):
        if blob[off : off + 4] != MAGIC:
            raise CheckFailed(f"{path}: no PUQT record at byte {off}")
        version, code, rank = blob[off + 4], blob[off + 5], blob[off + 6]
        if version != 1 or code not in DTYPES:
            raise CheckFailed(f"{path}: version {version} dtype code {code}")
        off += 7
        dims = struct.unpack_from(f"<{rank}I", blob, off)
        off += 4 * rank
        dtype = DTYPES[code]
        count = math.prod(dims)
        array = np.frombuffer(blob, dtype, count, off).reshape(dims).astype(np.float64)
        off += count * dtype.itemsize
        meta = ""
        if off < len(blob) and blob[off : off + 4] != MAGIC:
            (n,) = struct.unpack_from("<I", blob, off)
            meta = blob[off + 4 : off + 4 + n].decode("utf-8")
            off += 4 + n
        records.append((array, meta))
    return records


def read_array(path) -> np.ndarray:
    return read_records(path)[0][0]


def read_meta(path) -> dict[str, str]:
    meta = read_records(path)[0][1]
    return dict(line.partition(" ")[::2] for line in meta.splitlines() if line.strip())


def read_lines(path) -> dict[str, str]:
    text = Path(path).read_text(encoding="utf-8")
    return dict(line.partition(" ")[::2] for line in text.splitlines() if line.strip())


def read_checkpoint(path) -> dict[str, np.ndarray]:
    return {meta.splitlines()[0]: arr for arr, meta in read_records(path)}


def tree_digest(root) -> dict[str, str]:
    """sha256 of every file under root, keyed by its relative path."""
    root = Path(root)
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def puqt_bytes(root) -> int:
    return sum(p.stat().st_size for p in Path(root).rglob("*.puqt"))


# ------------------------------------------------------------ recomputation


def net_forward(ckpt: dict[str, np.ndarray], x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(mu, sigma) of the 5->16->32->16->2 net: zero-padded 3x3 correlations."""
    from scipy import signal  # imported here: its import would count as benchmark set-up

    a = x
    for i, (kname, bname) in enumerate(LAYERS):
        k, b = ckpt[kname], ckpt[bname]
        padded = np.pad(a, ((0, 0), (1, 1), (1, 1)))
        z = np.stack(
            [signal.correlate(padded, k[o], mode="valid", method="direct")[0] + b[o]
             for o in range(k.shape[0])]
        )
        a = z if i == len(LAYERS) - 1 else np.maximum(z, 0.0)
    return a[0], np.exp(a[1])


def mixture_cdf(y, mus, sigmas):
    """Equal-weight Laplace mixture CDF at y; members along axis 0."""
    z = (y - mus) / sigmas
    below = 0.5 * np.exp(np.minimum(z, 0.0))
    above = 1.0 - 0.5 * np.exp(-np.maximum(z, 0.0))
    return np.where(z < 0.0, below, above).mean(axis=0)


def interval_mass(center, half, mus, sigmas):
    return mixture_cdf(center + half, mus, sigmas) - mixture_cdf(center - half, mus, sigmas)


def assert_close(name, got, want, rtol=RTOL, atol=1e-12):
    got, want = np.asarray(got), np.asarray(want)
    if got.shape != want.shape:
        raise CheckFailed(f"{name}: shape {got.shape}, expected {want.shape}")
    bad = ~np.isclose(got, want, rtol=rtol, atol=atol)
    if bad.any():
        i = np.unravel_index(int(np.argmax(bad)), bad.shape)
        raise CheckFailed(
            f"{name}: {int(bad.sum())} values disagree, first at {tuple(map(int, i))}: "
            f"{got[i]!r} vs {want[i]!r}"
        )


# ------------------------------------------------------------ checks


def check_member_outputs(pre, train, predict, sample: np.ndarray) -> None:
    """Each member's mu and sigma on sampled patches match the checkpoints."""
    xs = read_array(Path(pre) / "patches_inputs.puqt")
    mu = read_array(Path(predict) / "mu.puqt")
    sigma = read_array(Path(predict) / "sigma.puqt")
    ckpts = [read_checkpoint(p) for p in sorted(Path(train).glob("checkpoint_*.puqt"))]
    if mu.shape[:2] != (len(ckpts), xs.shape[0]) or sigma.shape != mu.shape:
        raise CheckFailed(f"mu {mu.shape} / sigma {sigma.shape} for {len(ckpts)} members")
    for p, ckpt in enumerate(ckpts):
        for k in sample:
            m, s = net_forward(ckpt, xs[k])
            assert_close(f"mu.puqt member {p} patch {k}", mu[p, k], m)
            assert_close(f"sigma.puqt member {p} patch {k}", sigma[p, k], s)


def check_decomposition(predict, analyze) -> None:
    """mean, data/model/total sigma follow from mu and sigma."""
    mu = read_array(Path(predict) / "mu.puqt")
    sigma = read_array(Path(predict) / "sigma.puqt")
    mean = mu.mean(axis=0)
    data_var = np.mean(2.0 * sigma * sigma, axis=0)
    model_var = np.var(mu, axis=0)
    maps = {n: read_array(Path(analyze) / f"{n}.puqt") for n in ANALYSIS_MAPS[:4]}
    assert_close("mean.puqt", maps["mean"], mean)
    assert_close("data_sigma.puqt squared", maps["data_sigma"] ** 2, data_var)
    assert_close("model_sigma.puqt squared", maps["model_sigma"] ** 2, model_var, atol=1e-15)
    assert_close("total_sigma.puqt squared", maps["total_sigma"] ** 2, data_var + model_var)
    assert_close(
        "total_sigma.puqt squared vs data + model",
        maps["total_sigma"] ** 2,
        maps["data_sigma"] ** 2 + maps["model_sigma"] ** 2,
    )


def epsilon_of(pre, analyze) -> float:
    """The analysis epsilon, re-derived under the background-noise policy."""
    info = read_lines(Path(analyze) / "analysis.txt")
    eps = float(info["epsilon"])
    if info["policy"] == "background-noise":
        sigma_bg = float(read_lines(Path(pre) / "noise.txt")["sigma_background"])
        want = -sigma_bg * math.log1p(-float(info["target_p"]))
        assert_close("analysis.txt epsilon", eps, want)
    return eps


def check_credibility(pre, predict, analyze) -> None:
    mu = read_array(Path(predict) / "mu.puqt")
    sigma = read_array(Path(predict) / "sigma.puqt")
    eps = epsilon_of(pre, analyze)
    want = np.clip(interval_mass(mu.mean(axis=0), eps, mu, sigma), 0.0, 1.0)
    got = read_array(Path(analyze) / "credibility.puqt")
    assert_close("credibility.puqt", got, want, atol=1e-12)


def check_bounds(predict, analyze, sample: np.ndarray) -> None:
    """At sampled pixels the bound reaches target_p and bound - 2 tol does not.

    Where the bound is so large that 2 tol is below the float resolution
    of the interval mass, the shortfall is tested 1e-9 of the bound lower.
    """
    target = float(read_lines(Path(analyze) / "analysis.txt")["target_p"])
    mu = read_array(Path(predict) / "mu.puqt")
    sigma = read_array(Path(predict) / "sigma.puqt")
    bound = read_array(Path(analyze) / "credible_bound.puqt")
    if bound.shape != mu.shape[1:]:
        raise CheckFailed(f"credible_bound.puqt shape {bound.shape}, expected {mu.shape[1:]}")
    mus = mu.reshape(mu.shape[0], -1)[:, sample]
    sigmas = sigma.reshape(sigma.shape[0], -1)[:, sample]
    b = bound.reshape(-1)[sample]
    center = mus.mean(axis=0)
    at = interval_mass(center, b, mus, sigmas)
    shrink = np.maximum(2.0 * BOUND_TOL, 1e-9 * b)
    below = interval_mass(center, b - shrink, mus, sigmas)
    short = np.flatnonzero(at < target - 1e-12)
    if short.size:
        i = short[0]
        raise CheckFailed(
            f"credible_bound.puqt pixel {int(sample[i])}: mass {at[i]!r} < target {target}"
        )
    slack = np.flatnonzero(below >= target)
    if slack.size:
        i = slack[0]
        raise CheckFailed(
            f"credible_bound.puqt pixel {int(sample[i])}: bound - {shrink[i]:.3g} already "
            f"holds mass {below[i]!r} >= {target}"
        )


def patch_envelope(patches: np.ndarray, positions: np.ndarray, shape) -> tuple:
    lo = np.full(shape, np.inf)
    hi = np.full(shape, -np.inf)
    h, w = patches.shape[1:]
    for patch, (r, c) in zip(patches, positions.astype(int)):
        np.minimum(lo[r : r + h, c : c + w], patch, out=lo[r : r + h, c : c + w])
        np.maximum(hi[r : r + h, c : c + w], patch, out=hi[r : r + h, c : c + w])
    return lo, hi


def check_stitch(pre, analyze, stitch) -> None:
    """Every stitched pixel lies within the values of the patches covering it."""
    positions = read_array(Path(pre) / "patches_positions.puqt")
    for name in ANALYSIS_MAPS:
        patches = read_array(Path(analyze) / f"{name}.puqt")
        stitched = read_array(Path(stitch) / f"stitched_{name}.puqt")
        lo, hi = patch_envelope(patches, positions, stitched.shape)
        slack = 1e-12 * max(1.0, float(np.abs(patches).max()))
        out = (stitched < lo - slack) | (stitched > hi + slack)
        if out.any():
            r, c = (int(v) for v in np.argwhere(out)[0])
            raise CheckFailed(
                f"stitched_{name}.puqt pixel ({r}, {c}) = {stitched[r, c]!r} outside "
                f"its patches' range [{lo[r, c]!r}, {hi[r, c]!r}]"
            )


def check_repeat(reference: dict[str, str], digest: dict[str, str], label: str) -> None:
    if digest != reference:
        names = sorted(set(reference) ^ set(digest)) or sorted(
            n for n in reference if reference[n] != digest.get(n)
        )
        raise CheckFailed(f"{label} differs from the first repeat in {names[:3]}")


def mae_against_constant(pre, stitch) -> tuple[float, float]:
    """MAE of the stitched mean and of the best constant map (the median)."""
    truth = read_array(Path(pre) / "truth_normalized.puqt")
    mean = read_array(Path(stitch) / "stitched_mean.puqt")
    return float(np.abs(mean - truth).mean()), float(np.abs(truth - np.median(truth)).mean())


def phase_rmse(simulate, sfpm) -> float:
    """RMS of the wrapped phase error after removing the best global offset."""
    truth = read_array(Path(simulate) / "phantom_phase.puqt")
    recon = read_array(Path(sfpm) / "phase.puqt")
    if recon.shape != truth.shape:
        raise CheckFailed(f"sfpm phase {recon.shape} vs phantom {truth.shape}")
    diff = recon - truth
    offset = np.angle(np.exp(1j * diff).mean())
    return float(np.sqrt(np.mean(np.angle(np.exp(1j * (diff - offset))) ** 2)))


def check_residuals(sfpm) -> None:
    values = [float(v) for v in read_lines(Path(sfpm) / "residuals.txt").values()]
    if not values or not values[-1] < values[0]:
        raise CheckFailed(f"sfpm residuals.txt does not decrease: {values[:1]} .. {values[-1:]}")
