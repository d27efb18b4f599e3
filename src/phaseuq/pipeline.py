"""Staged experiment pipeline behind the command line.

Every stage has the signature ``(cfg, out_root, *input_dirs, export_pgm=False)``,
each input named after the ``PathsBlock`` field the command line reads it
from (``simulate_dir``, ...). A stage reads tensors from earlier run
directories and writes a fresh run directory ``<stage>-NNN`` under the
output root. One context manager, ``_run``, owns that protocol. Artifacts
land in a hidden staging directory, the ``manifest.txt`` is written last
(stage name, configuration hash, input run names, effective seeds, library
versions), and only then is the next free ``NNN`` chosen and the staging
directory renamed to it. A run that loses that name to a concurrent run
on the same root takes the next one, an interrupted run leaves nothing
behind, and existing runs are never touched. Timestamps and absolute paths
stay out of every file, so identical invocations produce byte-identical
trees.
"""

from __future__ import annotations

import contextlib
import dataclasses
import errno
import math
import os
import platform
import shutil
import tempfile
from pathlib import Path

import numpy as np

from . import __version__
from .config import ExperimentConfig, PathsBlock, config_hash
from .errors import (
    ConfigError,
    DemoGateFailure,
    FormatError,
    MaskTooSmall,
    MissingArtifact,
    NonFiniteInput,
    NonPositiveSigma,
    ShapeMismatch,
    ZeroMeanImage,
)
from .grid import resize_bicubic
from .learner import (
    ARCH_ID,
    CHANNELS,
    Dataset,
    RegressorParams,
    Workspace,
    forward,
    run_members,
    train_ensemble,
)
from .optics import (
    add_noise,
    design_patterns,
    forward_leds,
    led_frequency,
    make_pupil,
    synthesize_multiplexed,
)
from .phantom import gaussian_bumps, resolution_target
from .preprocess import (
    MIN_BACKGROUND_PIXELS,
    estimate_noise,
    extract_patches,
    normalize_unit,
    patch_positions,
    stitch_alpha_blend,
)
from .recon import MeasurementStack, dpc_reconstruct, sfpm_reconstruct
from .tensorfile import read_records, read_tensor, write_pgm16, write_records, write_tensor
from .uqstats import (
    PredictiveEnsemble,
    PredictiveMap,
    credibility_map,
    credible_bound,
    decompose_uncertainty,
    reliability_diagram,
)

CHECKPOINT_RECORDS = tuple(f.name for f in dataclasses.fields(RegressorParams))
ANALYSIS_MAPS = (
    "mean",
    "data_sigma",
    "model_sigma",
    "total_sigma",
    "credibility",
    "credible_bound",
    "abs_error",
)

# fixed verification levels for the built-in demo gate
DEMO_GATE_FRACTION = 0.99
DEMO_GATE_CREDIBILITY = 0.9


# ------------------------------------------------------------ run plumbing


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _row_lines(rows) -> list[str]:
    return [f"{key} {_fmt(value)}" for key, value in rows]


def _parse_lines(text: str) -> dict[str, str]:
    """The ``key value`` rows of a text file or tensor metadata block."""
    out: dict[str, str] = {}
    for line in text.splitlines():
        if line.strip():
            key, _, value = line.partition(" ")
            out[key] = value
    return out


def _read_lines(path) -> dict[str, str]:
    path = Path(path)
    if not path.is_file():
        raise MissingArtifact(f"{path} not found")
    return _parse_lines(path.read_text(encoding="utf-8"))


def _required(info: dict[str, str], key: str, source, parse):
    """``parse(info[key])``; a missing key or a value parse rejects is a FormatError."""
    try:
        return parse(info[key])
    except (KeyError, ValueError):
        raise FormatError(f"{source}: {key!r} is missing or not a number") from None


def _load(run_dir, name: str, shape=None) -> tuple[np.ndarray, dict[str, str]]:
    """A tensor and its metadata rows; shape, if given, fixes the rank and each axis not None."""
    path = Path(run_dir) / name
    if not path.is_file():
        raise MissingArtifact(f"{path} not found")
    array, meta = read_tensor(path)
    if shape is not None and (
        array.ndim != len(shape) or any(n not in (None, m) for n, m in zip(shape, array.shape))
    ):
        want = ", ".join("*" if n is None else str(n) for n in shape)
        raise FormatError(f"{path}: expected a tensor of shape ({want}), got {array.shape}")
    return array, _parse_lines(meta)


def _check_pitch(info: dict[str, str], source, pitch: float) -> None:
    """A detector stack must have been formed at the configured detector pitch."""
    found = _required(info, "pitch", source, float)
    if found != pitch:
        raise FormatError(f"{source}: pitch {found} differs from optics.pitch_detector {pitch}")


def _settings_hash(cfg: ExperimentConfig) -> str:
    # input locations do not affect the artifacts, so they stay out of the hash
    return config_hash(dataclasses.replace(cfg, paths=PathsBlock()))


class _Run:
    """A run directory being written; ``path`` is set once it is committed."""

    def __init__(self, staging: Path, export_pgm: bool):
        self.dir = staging
        self.export_pgm = export_pgm
        self.path: Path | None = None

    def save(self, name: str, array, meta_rows=(), preview: bool = False) -> None:
        """Write a float64 tensor, plus a 16-bit PGM of a 2-D preview under --export-pgm."""
        arr = np.asarray(array, dtype=np.float64)
        write_tensor(self.dir / name, arr, "\n".join(_row_lines(meta_rows)))
        if preview and self.export_pgm:
            write_pgm16(self.dir / (name.rsplit(".", 1)[0] + ".pgm"), arr)

    def lines(self, name: str, rows) -> None:
        with open(self.dir / name, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(line + "\n" for line in _row_lines(rows))


def _last_number(root: Path, stage: str) -> int:
    last = 0
    for entry in root.iterdir():
        tail = entry.name[len(stage) + 1 :]
        if entry.name.startswith(stage + "-") and tail.isdigit():
            last = max(last, int(tail))
    return last


@contextlib.contextmanager
def _run(out_root, stage: str, cfg, inputs=None, seeds=None, export_pgm=False):
    """Yield a ``_Run`` in a staging directory; commit it as ``<stage>-NNN`` on exit.

    The number is chosen at commit, after the manifest is written. If a
    concurrent run takes that name first, the rename fails and the next
    free number is tried. On an exception the staging directory is removed.
    """
    root = Path(out_root)
    root.mkdir(parents=True, exist_ok=True)
    run = _Run(Path(tempfile.mkdtemp(prefix=f".{stage}-", dir=root)), export_pgm)
    try:
        yield run
        rows: list[tuple[str, object]] = [
            ("stage", stage),
            ("config_sha256", _settings_hash(cfg)),
        ]
        rows += [(f"input_{k}", Path(v).name) for k, v in sorted((inputs or {}).items())]
        rows += [(f"seed_{k}", v) for k, v in sorted((seeds or {}).items())]
        rows += [
            ("version_phaseuq", __version__),
            ("version_numpy", np.__version__),
            ("version_python", platform.python_version()),
        ]
        run.lines("manifest.txt", rows)
        while run.path is None:
            final = root / f"{stage}-{_last_number(root, stage) + 1:03d}"
            try:
                os.rename(run.dir, final)
                run.path = final
            except OSError as exc:
                if exc.errno not in (errno.EEXIST, errno.ENOTEMPTY):
                    raise
    except BaseException:
        shutil.rmtree(run.dir, ignore_errors=True)
        raise


def _require(block, name: str):
    if block is None:
        raise ConfigError(f"config block {name!r} is required for this stage")
    return block


def _hires_pitch(cfg: ExperimentConfig) -> float:
    o = _require(cfg.optics, "optics")
    return o.pitch_detector * o.n_detector / o.n_hires


# ------------------------------------------------------------ stages


def simulate_stage(cfg: ExperimentConfig, out_root, *, export_pgm: bool = False) -> Path:
    """Phantom, single-LED stack, and multiplexed pattern images."""
    geom = _require(cfg.geometry, "geometry")
    opt = _require(cfg.optics, "optics")
    ph = _require(cfg.phantom, "phantom")
    hp = _hires_pitch(cfg)
    shape_hi = (opt.n_hires, opt.n_hires)
    shape_det = (opt.n_detector, opt.n_detector)

    if ph.kind == "gaussian-bumps":
        phi = gaussian_bumps(shape_hi, ph.count, ph.amplitude_lo, ph.amplitude_hi, ph.seed)
    else:
        phi = resolution_target(shape_hi, ph.amplitude_hi)
    # preprocess estimates the noise on this mask; refuse it before any image is formed
    threshold = cfg.analysis.background_threshold
    background = int(np.count_nonzero(normalize_unit(phi)[0] <= threshold))
    if background < MIN_BACKGROUND_PIXELS:
        raise MaskTooSmall(
            f"analysis.background_threshold {threshold} selects {background} "
            f"background pixels of the phantom, need >= {MIN_BACKGROUND_PIXELS}"
        )
    obj = np.exp(1j * phi)
    pupil = make_pupil(opt.na_obj, geom.wavelength, shape_det, opt.pitch_detector)

    leds = [led for led in range(geom.n_leds) if geom.led_na(led) <= opt.na_max + 1e-12]
    # one object transform for the whole stack; noisy images replace clean ones in place
    stack = forward_leds(obj, hp, pupil, [led_frequency(geom, led) for led in leds])
    patterns = design_patterns(geom, opt.na_obj, opt.na_max)
    # the pattern sums read views of the clean rows, so they are formed before the noise
    clean = dict(zip(leds, stack))
    mux = [synthesize_multiplexed(clean, pattern) for pattern in patterns]
    for i, led in enumerate(leds):
        stack[i] = add_noise(stack[i], cfg.noise, cfg.noise.seed + led)
    mux = [add_noise(img, cfg.noise, cfg.noise.seed + 100000 + i) for i, img in enumerate(mux)]

    seeds = {"phantom": ph.seed, "noise": cfg.noise.seed}
    with _run(out_root, "simulate", cfg, seeds=seeds, export_pgm=export_pgm) as run:
        run.save("phantom_phase.puqt", phi, [("pitch", hp), ("kind", ph.kind)], preview=True)
        run.save(
            "led_stack.puqt",
            stack,
            [("pitch", opt.pitch_detector), ("leds", " ".join(str(led) for led in leds))],
        )
        run.save(
            "multiplexed.puqt",
            np.stack(mux),
            [("pitch", opt.pitch_detector), ("patterns", " ".join(p.label for p in patterns))],
        )
    return run.path


def sfpm_stage(cfg: ExperimentConfig, out_root, simulate_dir, *, export_pgm: bool = False) -> Path:
    """Iterative synthetic-aperture phase retrieval from the LED stack."""
    geom = _require(cfg.geometry, "geometry")
    opt = _require(cfg.optics, "optics")
    arr, info = _load(simulate_dir, "led_stack.puqt", (None, None, None))
    source = Path(simulate_dir) / "led_stack.puqt"
    _check_pitch(info, source, opt.pitch_detector)
    leds = _required(info, "leds", source, lambda text: [int(tok) for tok in text.split()])
    if len(leds) != arr.shape[0]:
        raise FormatError(
            f"led_stack metadata lists {len(leds)} LEDs for {arr.shape[0]} images"
        )
    if len(set(leds)) != len(leds):
        raise FormatError(f"{source}: 'leds' names an LED more than once")
    stack = MeasurementStack(dict(zip(leds, arr)), geom, opt.na_obj, opt.pitch_detector)
    residuals: list[float] = []
    field = sfpm_reconstruct(stack, cfg.sfpm, (opt.n_hires, opt.n_hires), residuals)
    phase = np.angle(field)

    with _run(out_root, "sfpm", cfg, {"simulate": simulate_dir}, export_pgm=export_pgm) as run:
        meta = [("pitch", _hires_pitch(cfg)), ("method", "sfpm")]
        run.save("phase.puqt", phase, meta, preview=True)
        run.lines("residuals.txt", [(str(i), r) for i, r in enumerate(residuals)])
    return run.path


def dpc_stage(cfg: ExperimentConfig, out_root, simulate_dir, *, export_pgm: bool = False) -> Path:
    """One-shot weak-phase reconstruction from the brightfield patterns."""
    geom = _require(cfg.geometry, "geometry")
    opt = _require(cfg.optics, "optics")
    patterns = design_patterns(geom, opt.na_obj, opt.na_max)
    arr, info = _load(simulate_dir, "multiplexed.puqt", (len(patterns), None, None))
    _check_pitch(info, Path(simulate_dir) / "multiplexed.puqt", opt.pitch_detector)
    labels = info.get("patterns", "").split()
    if labels != [p.label for p in patterns]:
        raise FormatError("multiplexed stack does not match the configured pattern set")
    pupil = make_pupil(opt.na_obj, geom.wavelength, arr.shape[1:], opt.pitch_detector)
    phase = dpc_reconstruct(arr[:2], patterns[:2], pupil, opt.pitch_detector, geom)

    with _run(out_root, "dpc", cfg, {"simulate": simulate_dir}, export_pgm=export_pgm) as run:
        meta = [("pitch", opt.pitch_detector), ("method", "dpc")]
        run.save("phase.puqt", phase, meta, preview=True)
    return run.path


def preprocess_stage(
    cfg: ExperimentConfig, out_root, simulate_dir, recon_dir, *, export_pgm: bool = False
) -> Path:
    """Normalized truth, background noise level, and training patches."""
    opt = _require(cfg.optics, "optics")
    hp = _hires_pitch(cfg)
    n = opt.n_hires

    phi, _ = _load(simulate_dir, "phantom_phase.puqt")
    truth_norm, scale, offset = normalize_unit(phi)

    recon, _ = _load(recon_dir, "phase.puqt", (None, None))
    if recon.shape != (n, n):
        recon = resize_bicubic(recon, n, n)
    # global phase offsets cancel inside the noise estimate, the scale must match
    recon_norm = (recon - offset) / scale

    mask = truth_norm <= cfg.analysis.background_threshold
    sigma_background, pixel_count = estimate_noise(recon_norm, mask)

    mux, _ = _load(simulate_dir, "multiplexed.puqt", (CHANNELS[0], None, None))
    channels = []
    for i in range(mux.shape[0]):
        mean = float(mux[i].mean())
        if mean <= 0.0:
            raise ZeroMeanImage(f"multiplexed channel {i} has non-positive mean")
        channels.append(resize_bicubic(mux[i] / mean - 1.0, n, n))
    inputs = np.stack(channels)

    positions = patch_positions(cfg.train.patch, cfg.train.stride, n)
    targets = extract_patches(truth_norm, positions, cfg.train.patch)
    patch_inputs = extract_patches(inputs, positions, cfg.train.patch)
    split = np.array([1.0 if k % 4 == 3 else 0.0 for k in range(len(positions))])

    sources = {"simulate": simulate_dir, "recon": recon_dir}
    with _run(out_root, "preprocess", cfg, sources, export_pgm=export_pgm) as run:
        run.save("truth_normalized.puqt", truth_norm, [("pitch", hp)], preview=True)
        run.save("recon_normalized.puqt", recon_norm, [("pitch", hp)], preview=True)
        run.save("inputs_normalized.puqt", inputs, [("pitch", hp)])
        run.save(
            "background_mask.puqt",
            mask.astype(float),
            [("pitch", hp), ("threshold", cfg.analysis.background_threshold)],
            preview=True,
        )
        run.save("patches_inputs.puqt", patch_inputs, [("layout", "patch channel row col")])
        run.save("patches_targets.puqt", targets, [("layout", "patch row col")])
        run.save(
            "patches_positions.puqt",
            np.asarray(positions, dtype=np.float64),
            [("layout", "patch (row col)")],
        )
        run.save("patches_split.puqt", split, [("encoding", "0=train 1=validation")])
        run.lines("norm.txt", [("scale", scale), ("offset", offset)])
        run.lines(
            "noise.txt",
            [("sigma_background", sigma_background), ("pixel_count", pixel_count)],
        )
    return run.path


def train_stage(
    cfg: ExperimentConfig, out_root, preprocess_dir, *, export_pgm: bool = False, threads=None
) -> Path:
    """Fit the deep ensemble on the training patches, one checkpoint each.

    Checkpoints have no 2-D preview, so export_pgm writes nothing here.
    threads is ignored: ``train_ensemble`` sizes its own member thread pool
    from the CPUs this process may use. It stays only because
    ``perfbench/test_perfbench_checks.py`` passes ``threads=1``, and goes
    when the benchmark stops passing it.
    """
    t = cfg.train
    xs, _ = _load(preprocess_dir, "patches_inputs.puqt")
    ys, _ = _load(preprocess_dir, "patches_targets.puqt")
    split, _ = _load(preprocess_dir, "patches_split.puqt")
    models = train_ensemble(Dataset(xs, ys, split > 0.5), t)

    inputs, seeds = {"preprocess": preprocess_dir}, {"train": t.seed}
    with _run(out_root, "train", cfg, inputs, seeds, export_pgm) as run:
        shash = _settings_hash(cfg)
        for p, params in enumerate(models):
            header = f"arch {ARCH_ID}\nmember {p}\nseed {t.seed + p}\nconfig_sha256 {shash}"
            records = [
                (name, arr, header if name == "k1" else "")
                for name, arr in zip(CHECKPOINT_RECORDS, params.as_list())
            ]
            write_records(run.dir / f"checkpoint_{p:03d}.puqt", records)
    return run.path


def _load_checkpoint(path) -> RegressorParams:
    records = read_records(path)
    names = [name for name, _, _ in records]
    if names != list(CHECKPOINT_RECORDS):
        raise FormatError(f"{path}: unexpected checkpoint records {names}")
    header = records[0][2]
    if f"arch {ARCH_ID}" not in header.splitlines():
        raise FormatError(f"{path}: checkpoint does not declare arch {ARCH_ID}")
    return RegressorParams(*[np.asarray(arr, dtype=np.float64) for _, arr, _ in records])


def predict_stage(
    cfg: ExperimentConfig, out_root, preprocess_dir, train_dir, *, export_pgm: bool = False
) -> Path:
    """Per-member predictive maps over all patches (rank 4, so no PGM previews).

    The members run side by side on ``learner.run_members``' thread pool,
    each in its own workspace, one ``forward`` per patch. Each member's
    maps depend only on its checkpoint and the patches, not on the pool.
    """
    xs, _ = _load(preprocess_dir, "patches_inputs.puqt", (None, CHANNELS[0], None, None))
    paths = sorted(Path(train_dir).glob("checkpoint_*.puqt"))
    if not paths:
        raise MissingArtifact(f"no checkpoints found in {train_dir}")
    members = [_load_checkpoint(p) for p in paths]

    n_patches = xs.shape[0]
    mu = np.empty((len(members), n_patches) + xs.shape[2:])
    sigma = np.empty_like(mu)

    def predict_member(p: int) -> None:
        ws = Workspace(1, *xs.shape[2:])
        for k, x in enumerate(xs):
            # this module's forward, looked up per patch, so a wrapper set on it sees each call
            mu[p, k], sigma[p, k] = forward(members[p], x, ws)

    run_members(predict_member, range(len(members)))
    if not (np.isfinite(mu).all() and np.isfinite(sigma).all()):
        raise NonFiniteInput(f"{train_dir}: a member predicts non-finite mu or sigma")

    inputs = {"preprocess": preprocess_dir, "train": train_dir}
    with _run(out_root, "predict", cfg, inputs, export_pgm=export_pgm) as run:
        layout = [("layout", "member patch row col")]
        run.save("mu.puqt", mu, layout)
        run.save("sigma.puqt", sigma, layout)
    return run.path


def analyze_stage(
    cfg: ExperimentConfig, out_root, preprocess_dir, predict_dir, *, export_pgm: bool = False
) -> Path:
    """Uncertainty decomposition, credibility, bounds, and reliability."""
    a = cfg.analysis
    mu, _ = _load(predict_dir, "mu.puqt")
    sigma, _ = _load(predict_dir, "sigma.puqt")
    truth, _ = _load(preprocess_dir, "patches_targets.puqt")
    if mu.ndim != 4 or mu.shape != sigma.shape or mu.shape[1:] != truth.shape:
        raise ShapeMismatch(
            f"predictions {mu.shape} and {sigma.shape} must be (member, patch, row, col) "
            f"over targets {truth.shape}"
        )
    if not (sigma > 0.0).all():
        raise NonPositiveSigma(f"{Path(predict_dir) / 'sigma.puqt'}: sigma must be > 0")
    ens = PredictiveEnsemble(tuple(PredictiveMap(m, s) for m, s in zip(mu, sigma)))

    if a.policy == "background-noise":
        path = Path(preprocess_dir) / "noise.txt"
        sigma_bg = _required(_read_lines(path), "sigma_background", path, float)
        epsilon = -sigma_bg * math.log1p(-a.target_p)
    else:
        epsilon = a.epsilon  # positive under the explicit policy, checked at parse time

    maps = decompose_uncertainty(ens)
    cmap = credibility_map(ens, epsilon)
    bound = credible_bound(ens, a.target_p)
    diagram = reliability_diagram(cmap, epsilon, maps.mean, truth, a.delta_p)
    abs_error = np.abs(maps.mean - truth)

    inputs = {"preprocess": preprocess_dir, "predict": predict_dir}
    with _run(out_root, "analyze", cfg, inputs, export_pgm=export_pgm) as run:
        layout = [("layout", "patch row col")]
        named = maps._asdict() | {
            "credibility": cmap,
            "credible_bound": bound,
            "abs_error": abs_error,
        }
        for name in ANALYSIS_MAPS:
            run.save(f"{name}.puqt", named[name], layout)
        diagram.to_csv(run.dir / "reliability.csv")
        rows = [
            ("policy", a.policy),
            ("epsilon", epsilon),
            ("target_p", a.target_p),
            ("delta_p", a.delta_p),
            ("avg_credibility", float(cmap.mean())),
            ("populated_bins", int(diagram.populated.sum())),
            ("max_gap", diagram.max_gap()),
        ]
        if a.policy == "background-noise":
            rows.insert(2, ("sigma_background", sigma_bg))
        run.lines("analysis.txt", rows)
    return run.path


def stitch_stage(
    cfg: ExperimentConfig, out_root, preprocess_dir, analyze_dir, *, export_pgm: bool = False
) -> Path:
    """Blend per-patch maps back onto the full frame and summarize regions."""
    opt = _require(cfg.optics, "optics")
    hp = _hires_pitch(cfg)
    n = opt.n_hires
    pos, _ = _load(preprocess_dir, "patches_positions.puqt", (None, 2))
    if (pos < 0).any() or (pos != np.floor(pos)).any():
        raise FormatError(
            f"{Path(preprocess_dir) / 'patches_positions.puqt'}: positions must be "
            "non-negative integers"
        )
    positions = [(int(r), int(c)) for r, c in pos]
    bg, _ = _load(preprocess_dir, "background_mask.puqt", (n, n))
    background = bg > 0.5

    stitched = {
        name: stitch_alpha_blend(_load(analyze_dir, f"{name}.puqt")[0], positions, (n, n))
        for name in ANALYSIS_MAPS
    }

    path = Path(analyze_dir) / "analysis.txt"
    epsilon = _required(_read_lines(path), "epsilon", path, float)
    # blending is convex so values stay in [0, 1] up to rounding
    cmap = np.clip(stitched["credibility"], 0.0, 1.0)

    def region_mean(mask: np.ndarray) -> float:
        return float(cmap[mask].mean()) if mask.any() else float("nan")

    frac_high = (
        float(np.mean(cmap[background] > DEMO_GATE_CREDIBILITY))
        if background.any()
        else float("nan")
    )

    inputs = {"preprocess": preprocess_dir, "analyze": analyze_dir}
    with _run(out_root, "stitch", cfg, inputs, export_pgm=export_pgm) as run:
        for name, frame in stitched.items():
            run.save(f"stitched_{name}.puqt", frame, [("pitch", hp)], preview=True)
        run.lines(
            "summary.txt",
            [
                ("epsilon", epsilon),
                ("avg_credibility_full", region_mean(np.ones((n, n), dtype=bool))),
                ("avg_credibility_cell", region_mean(~background)),
                ("avg_credibility_background", region_mean(background)),
                ("background_fraction_high", frac_high),
                ("gate_credibility_level", DEMO_GATE_CREDIBILITY),
            ],
        )
    return run.path


def demo_stage(cfg: ExperimentConfig, out_root, *, export_pgm: bool = False) -> Path:
    """Full chain on one configuration, ending in a credibility gate.

    The gate requires the background credibility to be trustworthy: at
    least 99 percent of background pixels must sit above credibility 0.9
    under the background-noise epsilon policy. Failing the gate still
    commits the run directory so the artifacts can be inspected.
    """
    ph = _require(cfg.phantom, "phantom")
    seeds = {"phantom": ph.seed, "noise": cfg.noise.seed, "train": cfg.train.seed}
    with _run(out_root, "demo", cfg, seeds=seeds, export_pgm=export_pgm) as run:
        root = run.dir
        sim = simulate_stage(cfg, root, export_pgm=export_pgm)
        rec = sfpm_stage(cfg, root, sim, export_pgm=export_pgm)
        pre = preprocess_stage(cfg, root, sim, rec, export_pgm=export_pgm)
        tr = train_stage(cfg, root, pre, export_pgm=export_pgm)
        prd = predict_stage(cfg, root, pre, tr, export_pgm=export_pgm)
        ana = analyze_stage(cfg, root, pre, prd, export_pgm=export_pgm)
        st = stitch_stage(cfg, root, pre, ana, export_pgm=export_pgm)

        info = _read_lines(st / "summary.txt")
        frac = float(info["background_fraction_high"])
        passed = frac >= DEMO_GATE_FRACTION
        run.lines(
            "demo_report.txt",
            [
                ("gate", "pass" if passed else "fail"),
                ("gate_fraction_required", DEMO_GATE_FRACTION),
                ("gate_credibility_level", DEMO_GATE_CREDIBILITY),
                ("background_fraction_high", frac),
                ("avg_credibility_background", float(info["avg_credibility_background"])),
                ("avg_credibility_cell", float(info["avg_credibility_cell"])),
                ("epsilon", float(info["epsilon"])),
            ],
        )
    if not passed:
        raise DemoGateFailure(
            f"only {frac:.4f} of background pixels reached credibility > "
            f"{DEMO_GATE_CREDIBILITY} (need {DEMO_GATE_FRACTION}); see {run.path}"
        )
    return run.path
