"""Pipeline stages and the command line surface.

A small chain fixture runs every stage once; the CLI tests then poke the
process-level contract (exit codes, error lines, flags) on cheap commands.
"""

import dataclasses
import inspect
import math
import os
import re
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from phaseuq import learner, pipeline
from phaseuq.cli import _STAGE_HELP, DEMO_CONFIG, main
from phaseuq.config import PathsBlock, parse_config
from phaseuq.errors import DemoGateFailure, DivergedLoss, NonFiniteInput
from phaseuq.optics import design_patterns
from phaseuq.tensorfile import read_records, read_tensor, write_tensor

SMALL = """
geometry {
  rows 7
  cols 7
  pitch_led 3.0
  height 60.0
  wavelength 0.532
  center_row 3
  center_col 3
}
optics {
  na_obj 0.12
  na_max 0.45
  n_detector 16
  n_hires 64
  pitch_detector 2.0
}
phantom {
  kind gaussian-bumps
  amplitude_lo 0.5
  amplitude_hi 0.9
  count 3
  seed 1
}
noise {
  model gaussian
  level 0.002
  seed 3
}
sfpm {
  epochs 8
}
train {
  lr 0.005
  epochs 8
  batch_size 8
  dropout_rate 0.1
  seed 0
  ensemble_size 2
  patch 16
  stride 16
}
analysis {
  policy background-noise
  target_p 0.95
  delta_p 0.04
  background_threshold 0.1
}
"""

ERROR_LINE = re.compile(r'^phaseuq-error code=[A-Za-z]+ message="[^"]*"$')


@pytest.fixture(scope="module")
def cfg():
    return parse_config(SMALL)


@pytest.fixture(scope="module")
def chain(cfg, tmp_path_factory):
    """One full stage chain in a shared directory."""
    root = tmp_path_factory.mktemp("chain")
    sim = pipeline.simulate_stage(cfg, root)
    sfpm = pipeline.sfpm_stage(cfg, root, sim)
    dpc = pipeline.dpc_stage(cfg, root, sim)
    pre = pipeline.preprocess_stage(cfg, root, sim, sfpm)
    train = pipeline.train_stage(cfg, root, pre)
    predict = pipeline.predict_stage(cfg, root, pre, train)
    analyze = pipeline.analyze_stage(cfg, root, pre, predict)
    stitch = pipeline.stitch_stage(cfg, root, pre, analyze)
    return {
        "root": root,
        "simulate": sim,
        "sfpm": sfpm,
        "dpc": dpc,
        "preprocess": pre,
        "train": train,
        "predict": predict,
        "analyze": analyze,
        "stitch": stitch,
    }


def _manifest(run_dir):
    text = (run_dir / "manifest.txt").read_text(encoding="utf-8")
    return dict(line.split(" ", 1) for line in text.splitlines())


# ------------------------------------------------------------ stage artifacts


def test_simulate_artifacts(chain, cfg):
    run = chain["simulate"]
    phi, info = read_tensor(run / "phantom_phase.puqt")
    assert phi.shape == (64, 64) and info.splitlines()[0].startswith("pitch ")
    stack, info = read_tensor(run / "led_stack.puqt")
    leds = [int(tok) for tok in dict(
        line.split(" ", 1) for line in info.splitlines()
    )["leds"].split()]
    assert stack.shape == (len(leds), 16, 16) and len(leds) == 49
    mux, info = read_tensor(run / "multiplexed.puqt")
    assert mux.shape == (5, 16, 16)
    assert "bf-up bf-right df-90 df-210 df-330" in info


def test_multiplexed_images_sum_the_stack_rows(tmp_path):
    # noise-free, each pattern image is its LEDs' stack rows added in pattern order
    quiet = parse_config(SMALL.replace("model gaussian", "model none"))
    run = pipeline.simulate_stage(quiet, tmp_path)
    stack, info = read_tensor(run / "led_stack.puqt")
    leds = dict(line.split(" ", 1) for line in info.splitlines())["leds"].split()
    rows = dict(zip((int(tok) for tok in leds), stack))
    mux, info = read_tensor(run / "multiplexed.puqt")
    labels = dict(line.split(" ", 1) for line in info.splitlines())["patterns"].split()
    patterns = design_patterns(quiet.geometry, quiet.optics.na_obj, quiet.optics.na_max)
    assert [p.label for p in patterns] == labels and len(mux) == 5
    for pattern, image in zip(patterns, mux):
        total = np.zeros(image.shape)
        for led in pattern.leds:
            total += rows[led]
        assert np.array_equal(image, total), pattern.label


def test_manifest_contents(chain):
    man = _manifest(chain["simulate"])
    assert man["stage"] == "simulate"
    assert len(man["config_sha256"]) == 64
    assert man["seed_phantom"] == "1" and man["seed_noise"] == "3"
    assert "version_phaseuq" in man and "version_numpy" in man
    assert not any("time" in key for key in man)


def test_runs_are_sequential_and_immutable(cfg, tmp_path):
    first = pipeline.simulate_stage(cfg, tmp_path)
    snapshot = {p.name: p.read_bytes() for p in first.iterdir()}
    second = pipeline.simulate_stage(cfg, tmp_path)
    assert first.name == "simulate-001" and second.name == "simulate-002"
    for name, blob in snapshot.items():
        assert (first / name).read_bytes() == blob
    # identical settings give identical artifacts in the new directory
    for name, blob in snapshot.items():
        assert (second / name).read_bytes() == blob


def test_run_takes_next_number_when_name_taken_at_commit(cfg, tmp_path, monkeypatch):
    """A run that loses its number to a concurrent commit takes the next one."""
    rename = os.rename
    taken = tmp_path / "simulate-001"

    def commit_elsewhere_first(src, dst):
        if not taken.exists():
            taken.mkdir()
            (taken / "manifest.txt").write_text("stage other\n", encoding="utf-8")
        rename(src, dst)

    monkeypatch.setattr(os, "rename", commit_elsewhere_first)
    run = pipeline.simulate_stage(cfg, tmp_path)
    assert run == tmp_path / "simulate-002"
    assert (run / "phantom_phase.puqt").is_file()
    assert [p.name for p in taken.iterdir()] == ["manifest.txt"]
    assert (taken / "manifest.txt").read_text(encoding="utf-8") == "stage other\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["simulate-001", "simulate-002"]


def test_failed_run_leaves_no_staging(cfg, tmp_path, monkeypatch):
    def fail_on_second_tensor(path, array, metadata=""):
        if Path(path).name != "phantom_phase.puqt":
            raise OSError("disk full")
        write_tensor(path, array, metadata)

    monkeypatch.setattr(pipeline, "write_tensor", fail_on_second_tensor)
    with pytest.raises(OSError, match="disk full"):
        pipeline.simulate_stage(cfg, tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_sfpm_stage_output(chain):
    phase, info = read_tensor(chain["sfpm"] / "phase.puqt")
    assert phase.shape == (64, 64)
    assert "method sfpm" in info
    residuals = (chain["sfpm"] / "residuals.txt").read_text().splitlines()
    assert len(residuals) == 8
    first, last = (float(r.split()[1]) for r in (residuals[0], residuals[-1]))
    assert last < first


def test_dpc_stage_output(chain):
    phase, info = read_tensor(chain["dpc"] / "phase.puqt")
    assert phase.shape == (16, 16)
    assert "method dpc" in info


def test_preprocess_artifacts(chain):
    run = chain["preprocess"]
    truth, _ = read_tensor(run / "truth_normalized.puqt")
    assert truth.min() == 0.0 and truth.max() == 1.0
    xs, _ = read_tensor(run / "patches_inputs.puqt")
    ys, _ = read_tensor(run / "patches_targets.puqt")
    pos, _ = read_tensor(run / "patches_positions.puqt")
    split, _ = read_tensor(run / "patches_split.puqt")
    assert xs.shape == (16, 5, 16, 16) and ys.shape == (16, 16, 16)
    assert pos.shape == (16, 2) and split.shape == (16,)
    assert set(np.unique(split)) == {0.0, 1.0}
    assert ys.min() >= 0.0 and ys.max() <= 1.0
    noise = dict(
        line.split() for line in (run / "noise.txt").read_text().splitlines()
    )
    assert float(noise["sigma_background"]) > 0.0
    assert int(noise["pixel_count"]) >= 100


def test_preprocess_resizes_a_dpc_phase(chain, cfg, tmp_path):
    # dpc's phase is on the detector grid; preprocess resizes it to n_hires
    assert read_tensor(chain["dpc"] / "phase.puqt")[0].shape == (16, 16)
    run = pipeline.preprocess_stage(cfg, tmp_path, chain["simulate"], chain["dpc"])
    recon, _ = read_tensor(run / "recon_normalized.puqt")
    assert recon.shape == (cfg.optics.n_hires, cfg.optics.n_hires) == (64, 64)
    noise = dict(line.split() for line in (run / "noise.txt").read_text().splitlines())
    sigma = float(noise["sigma_background"])
    assert math.isfinite(sigma) and sigma > 0.0


def test_train_writes_ensemble_checkpoints(chain, cfg):
    runs = sorted(chain["train"].glob("checkpoint_*.puqt"))
    assert len(runs) == cfg.train.ensemble_size
    records = read_records(runs[0])
    assert [name for name, _, _ in records] == [
        "k1", "b1", "k2", "b2", "k3", "b3", "k4", "b4",
    ]
    header = records[0][2].splitlines()
    assert any(line.startswith("arch puq-cnn-5x16x32x16x2") for line in header)
    assert any(line.startswith("config_sha256 ") for line in header)
    assert records[0][1].shape == (16, 5, 3, 3)


def test_checkpoint_members_differ(chain):
    a, b = sorted(chain["train"].glob("checkpoint_*.puqt"))[:2]
    k1a = read_records(a)[0][1]
    k1b = read_records(b)[0][1]
    assert not np.array_equal(k1a, k1b)


def test_predict_artifacts(chain):
    mu, _ = read_tensor(chain["predict"] / "mu.puqt")
    sigma, _ = read_tensor(chain["predict"] / "sigma.puqt")
    assert mu.shape == (2, 16, 16, 16) and sigma.shape == mu.shape
    assert np.all(sigma > 0.0)


PREDICT_CALLS = 2 * 16  # members x patches of the chain


def _member_k1(chain, p):
    return read_records(sorted(chain["train"].glob("checkpoint_*.puqt"))[p])[0][1]


def _recording_forward(monkeypatch, record):
    """Wraps pipeline.forward so that record(params) runs before every patch."""
    real = pipeline.forward

    def recording(params, x, ws=None):
        record(params)
        return real(params, x, ws)

    monkeypatch.setattr(pipeline, "forward", recording)


def test_predict_independent_of_pool_size(chain, cfg, tmp_path, monkeypatch):
    # one worker where OpenBLAS cannot be pinned, two where a (fake) pin works
    threads, pinned = set(), []
    count = [4]
    fake = (lambda: count[0], lambda n: count.__setitem__(0, n))

    def record(_):
        threads.add(threading.current_thread().name)
        pinned.append(count[0])

    _recording_forward(monkeypatch, record)
    monkeypatch.setattr(learner, "_usable_cpus", lambda: 2)
    runs = {}
    for name, controls in (("one", []), ("two", [fake])):
        monkeypatch.setattr(learner, "_openblas_thread_controls", lambda c=controls: c)
        run = pipeline.predict_stage(cfg, tmp_path / name, chain["preprocess"], chain["train"])
        runs[name] = {f: (run / f).read_bytes() for f in ("mu.puqt", "sigma.puqt")}
        if name == "one":
            assert len(threads) == 1
    assert pinned == [4] * PREDICT_CALLS + [1] * PREDICT_CALLS and count == [4]
    assert runs["one"] == runs["two"]
    monkeypatch.undo()
    # equal to one forward per patch, each in a fresh workspace
    xs, _ = read_tensor(chain["preprocess"] / "patches_inputs.puqt")
    mu, _ = read_tensor(run / "mu.puqt")
    sigma, _ = read_tensor(run / "sigma.puqt")
    paths = sorted(chain["train"].glob("checkpoint_*.puqt"))
    for p, params in enumerate(pipeline._load_checkpoint(path) for path in paths):
        for k, x in enumerate(xs):
            want_mu, want_sigma = learner.forward(params, x)
            assert np.array_equal(mu[p, k], want_mu)
            assert np.array_equal(sigma[p, k], want_sigma)


def test_predict_pins_and_restores_blas_threads(chain, cfg, tmp_path, blas_threads, monkeypatch):
    get, _ = blas_threads
    during = []
    _recording_forward(monkeypatch, lambda _: during.append(get()))
    monkeypatch.setattr(learner, "_usable_cpus", lambda: 2)
    pipeline.predict_stage(cfg, tmp_path, chain["preprocess"], chain["train"])
    assert during == [1] * PREDICT_CALLS
    assert get() == 2


def test_predict_rejects_non_finite_predictions(chain, cfg, tmp_path, monkeypatch):
    """forward's arrays are unchecked; predict checks the stacked maps once."""
    real = pipeline.forward

    def nan_sigma(params, x, ws=None):
        mu, sigma = real(params, x, ws)
        return mu, np.full_like(sigma, np.nan)

    monkeypatch.setattr(pipeline, "forward", nan_sigma)
    with pytest.raises(NonFiniteInput):
        pipeline.predict_stage(cfg, tmp_path, chain["preprocess"], chain["train"])
    assert not list(tmp_path.glob("predict-*"))


def test_predict_member_error_propagates_and_restores(
    chain, cfg, tmp_path, blas_threads, monkeypatch
):
    get, _ = blas_threads
    k1 = _member_k1(chain, 1)

    def fail_member_1(params):
        if np.array_equal(params.k1, k1):
            raise NonFiniteInput("member 1 failed")

    _recording_forward(monkeypatch, fail_member_1)
    monkeypatch.setattr(learner, "_usable_cpus", lambda: 2)
    with pytest.raises(NonFiniteInput) as exc:
        pipeline.predict_stage(cfg, tmp_path, chain["preprocess"], chain["train"])
    assert type(exc.value) is NonFiniteInput and str(exc.value) == "member 1 failed"
    assert get() == 2
    assert not list(tmp_path.glob("*predict-*"))


def test_analyze_artifacts(chain):
    run = chain["analyze"]
    shapes = {}
    for name in pipeline.ANALYSIS_MAPS:
        arr, _ = read_tensor(run / f"{name}.puqt")
        shapes[name] = arr.shape
        assert arr.shape == (16, 16, 16)
    total, _ = read_tensor(run / "total_sigma.puqt")
    data, _ = read_tensor(run / "data_sigma.puqt")
    model, _ = read_tensor(run / "model_sigma.puqt")
    np.testing.assert_allclose(total**2, data**2 + model**2, atol=1e-12)
    cred, _ = read_tensor(run / "credibility.puqt")
    assert cred.min() >= 0.0 and cred.max() <= 1.0


def test_analyze_maps_are_exact_in_predict_files(chain):
    # analyze computes from the sigma in sigma.puqt as written, not from exp(log sigma)
    mu, _ = read_tensor(chain["predict"] / "mu.puqt")
    sigma, _ = read_tensor(chain["predict"] / "sigma.puqt")
    data, _ = read_tensor(chain["analyze"] / "data_sigma.puqt")
    total, _ = read_tensor(chain["analyze"] / "total_sigma.puqt")
    data_var = (2.0 * sigma**2).mean(axis=0)
    model_var = ((mu - mu.mean(axis=0)) ** 2).mean(axis=0)
    assert np.array_equal(data, np.sqrt(data_var))
    assert np.array_equal(total, np.sqrt(data_var + model_var))


def test_analyze_reliability_csv(chain):
    run = chain["analyze"]
    lines = (run / "reliability.csv").read_text().splitlines()
    assert lines[0] == "bin_lo,bin_hi,avg_credibility,accuracy,count"
    assert len(lines) == 26  # header + one row per bin at delta_p 0.04
    counts = [int(line.split(",")[4]) for line in lines[1:]]
    assert sum(counts) == 16 * 16 * 16

    # every bin again from the saved maps: bins are (lo, hi], p = 0 joins the first
    cred, _ = read_tensor(run / "credibility.puqt")
    mean, _ = read_tensor(run / "mean.puqt")
    ys, _ = read_tensor(chain["preprocess"] / "patches_targets.puqt")
    info = dict(line.split(" ", 1) for line in (run / "analysis.txt").read_text().splitlines())
    p = cred.ravel()
    hit = (np.abs(mean - ys) <= float(info["epsilon"])).ravel()
    for m, line in enumerate(lines[1:]):
        lo, hi, avg, acc, count = (float(v) for v in line.split(","))
        sel = (p > lo) & (p <= hi) | ((p == 0.0) & (m == 0))
        assert int(count) == np.count_nonzero(sel)
        if sel.any():
            assert abs(avg - p[sel].mean()) <= 1e-12
            assert abs(acc - hit[sel].mean()) <= 1e-12


def test_analysis_summary_keys(chain):
    info = dict(
        line.split(" ", 1)
        for line in (chain["analyze"] / "analysis.txt").read_text().splitlines()
    )
    assert info["policy"] == "background-noise"
    assert float(info["epsilon"]) > 0.0
    assert 0.0 <= float(info["avg_credibility"]) <= 1.0


def test_stitch_artifacts(chain):
    run = chain["stitch"]
    for name in pipeline.ANALYSIS_MAPS:
        arr, _ = read_tensor(run / f"stitched_{name}.puqt")
        assert arr.shape == (64, 64)
    info = dict(
        line.split(" ", 1)
        for line in (run / "summary.txt").read_text().splitlines()
    )
    for key in (
        "avg_credibility_full",
        "avg_credibility_cell",
        "avg_credibility_background",
        "background_fraction_high",
    ):
        assert key in info


def test_stitch_mean_matches_targets(chain):
    """Stitching the target patches back must reproduce the truth."""
    from phaseuq.preprocess import stitch_alpha_blend

    run = chain["preprocess"]
    truth, _ = read_tensor(run / "truth_normalized.puqt")
    ys, _ = read_tensor(run / "patches_targets.puqt")
    pos, _ = read_tensor(run / "patches_positions.puqt")
    back = stitch_alpha_blend(ys, [(int(r), int(c)) for r, c in pos], truth.shape)
    np.testing.assert_allclose(back, truth, atol=1e-10)


# ------------------------------------------------------------ CLI surface


def _write_cfg(tmp_path, text=SMALL):
    path = tmp_path / "exp.cfg"
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_cli_simulate_roundtrip(tmp_path, capsys):
    rc = main(
        ["simulate", "--config", _write_cfg(tmp_path), "--out", str(tmp_path / "runs")]
    )
    assert rc == 0
    printed = capsys.readouterr().out.strip()
    assert printed.endswith("simulate-001")
    assert (tmp_path / "runs" / "simulate-001" / "phantom_phase.puqt").is_file()


def test_cli_export_pgm(tmp_path):
    main(
        [
            "simulate",
            "--config",
            _write_cfg(tmp_path),
            "--out",
            str(tmp_path / "runs"),
            "--export-pgm",
        ]
    )
    run = tmp_path / "runs" / "simulate-001"
    raw = (run / "phantom_phase.pgm").read_bytes()
    assert raw.startswith(b"P5\n# lo=")
    assert not (run / "led_stack.pgm").exists()  # rank-3 tensors get no preview


def test_cli_seed_override_changes_phantom(tmp_path):
    config = _write_cfg(tmp_path)
    main(["simulate", "--config", config, "--out", str(tmp_path / "a")])
    main(["simulate", "--config", config, "--out", str(tmp_path / "b"), "--seed", "99"])
    one, _ = read_tensor(tmp_path / "a" / "simulate-001" / "phantom_phase.puqt")
    two, _ = read_tensor(tmp_path / "b" / "simulate-001" / "phantom_phase.puqt")
    assert not np.array_equal(one, two)
    man = _manifest(tmp_path / "b" / "simulate-001")
    assert man["seed_phantom"] == "99" and man["seed_noise"] == "99"


def test_cli_unknown_key_is_config_error(tmp_path, capsys):
    bad = SMALL.replace("  level 0.002\n", "  level 0.002\n  gain 4\n")
    rc = main(["simulate", "--config", _write_cfg(tmp_path, bad), "--out", str(tmp_path / "r")])
    err = capsys.readouterr().err.strip()
    assert rc == 2
    assert ERROR_LINE.match(err)
    assert "code=ConfigError" in err
    assert not (tmp_path / "r").exists()


def test_cli_negative_seed_is_config_error(tmp_path, capsys):
    out = tmp_path / "r"
    rc = main(["demo", "--out", str(out), "--seed", "-1"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.count("\n") == 1 and ERROR_LINE.match(err.strip())
    assert "code=ConfigError" in err
    assert not out.exists()


def test_cli_demo_bad_config_leaves_no_run(tmp_path, capsys):
    bad = DEMO_CONFIG.replace("  lr 0.005\n", "  lr -1\n")
    assert bad != DEMO_CONFIG
    out = tmp_path / "r"
    rc = main(["demo", "--config", _write_cfg(tmp_path, bad), "--out", str(out)])
    err = capsys.readouterr().err.strip()
    assert rc == 2 and ERROR_LINE.match(err) and "code=ConfigError" in err
    assert not list(out.glob("demo-*"))


def test_cli_demo_background_mask_too_small_fails_in_simulate(tmp_path, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("images were formed for a field preprocess must refuse")

    monkeypatch.setattr(pipeline, "forward_leds", never)
    monkeypatch.setattr(pipeline, "sfpm_reconstruct", never)
    bad = DEMO_CONFIG.replace("  background_threshold 0.05\n", "  background_threshold 0.0\n")
    assert bad != DEMO_CONFIG
    out = tmp_path / "r"
    rc = main(["demo", "--config", _write_cfg(tmp_path, bad), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.count("\n") == 1 and ERROR_LINE.match(err.strip())
    assert "code=MaskTooSmall" in err
    assert not list(out.glob("demo-*"))


def test_cli_out_is_a_file_fails_before_any_stage(tmp_path, capsys, monkeypatch):
    def no_stage(*args, **kwargs):
        raise AssertionError("a stage ran although --out is a regular file")

    monkeypatch.setattr(pipeline, "simulate_stage", no_stage)
    afile = tmp_path / "afile"
    afile.write_text("keep", encoding="utf-8")
    rc = main(["simulate", "--config", _write_cfg(tmp_path), "--out", str(afile)])
    err = capsys.readouterr().err
    assert rc == 4
    assert err.count("\n") == 1 and ERROR_LINE.match(err.strip())
    assert "code=ExistingArtifact" in err
    assert afile.read_text(encoding="utf-8") == "keep"


def test_cli_os_error_is_one_line(tmp_path, capsys):
    # --out below a regular file: creating the output root fails with an OSError
    afile = tmp_path / "afile"
    afile.write_text("keep", encoding="utf-8")
    rc = main(["simulate", "--config", _write_cfg(tmp_path), "--out", str(afile / "sub")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.count("\n") == 1 and ERROR_LINE.match(err.strip())
    assert "code=OSError" in err


def test_cli_non_utf8_config_is_config_error(tmp_path, capsys):
    path = tmp_path / "exp.cfg"
    path.write_bytes(SMALL.encode("utf-8") + b"# \xff\n")
    rc = main(["simulate", "--config", str(path), "--out", str(tmp_path / "r")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.count("\n") == 1 and ERROR_LINE.match(err.strip())
    assert "code=ConfigError" in err
    assert not (tmp_path / "r").exists()


def test_cli_patch_larger_than_field_is_config_error(tmp_path, capsys):
    bad = DEMO_CONFIG.replace("  patch 16\n", "  patch 256\n")
    assert bad != DEMO_CONFIG
    out = tmp_path / "r"
    rc = main(["demo", "--config", _write_cfg(tmp_path, bad), "--out", str(out)])
    err = capsys.readouterr().err.strip()
    assert rc == 2 and ERROR_LINE.match(err) and "code=ConfigError" in err
    assert "train.patch" in err and "optics.n_hires" in err
    assert not list(out.glob("demo-*"))


def test_cli_concurrent_demos_both_commit(tmp_path):
    """Two demos on one --out, started together, both commit under their own numbers."""
    tiny = SMALL.replace("sfpm {\n  epochs 8", "sfpm {\n  epochs 2").replace(
        "  epochs 8\n  batch_size", "  epochs 1\n  batch_size"
    )
    assert tiny.count("epochs 2") == 1 and tiny.count("epochs 1\n") == 1
    config = _write_cfg(tmp_path, tiny)
    out = tmp_path / "runs"
    src = str(Path(pipeline.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-m", "phaseuq.cli", "demo", "--config", config, "--out", str(out)]
    procs = [
        subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for _ in range(2)
    ]
    try:
        results = [proc.communicate(timeout=300) for proc in procs]
    finally:
        for proc in procs:
            proc.kill()
    for proc, (_, err) in zip(procs, results):
        assert "ExistingArtifact" not in err
        # the gate may fail at one training epoch; the run is committed either way
        assert proc.returncode == 0 or "code=DemoGateFailure" in err, err
    assert sorted(p.name for p in out.iterdir()) == ["demo-001", "demo-002"]
    for run in out.iterdir():
        assert (run / "demo_report.txt").is_file() and (run / "manifest.txt").is_file()


def test_cli_train_export_pgm_writes_no_preview(chain, tmp_path, capsys):
    text = SMALL + f'\npaths {{\n  preprocess_dir {chain["preprocess"]}\n}}\n'
    out = tmp_path / "r"
    rc = main(["train", "--config", _write_cfg(tmp_path, text), "--out", str(out), "--export-pgm"])
    assert rc == 0
    files = sorted(p.name for p in (out / "train-001").iterdir())
    assert files == ["checkpoint_000.puqt", "checkpoint_001.puqt", "manifest.txt"]


def _run_stage(tmp_path, command, **dirs):
    paths = "".join(f"  {key} {value}\n" for key, value in dirs.items())
    text = SMALL + f"\npaths {{\n{paths}}}\n"
    return main([command, "--config", _write_cfg(tmp_path, text), "--out", str(tmp_path / "r")])


def _one_error_line(capsys, code):
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and ERROR_LINE.match(err.strip()), err
    assert f"code={code} " in err
    return err


@pytest.mark.parametrize(
    "text", ["pixel_count 400\n", "sigma_background abc\n"], ids=["missing", "not-a-number"]
)
def test_cli_malformed_noise_file_is_one_error_line(chain, tmp_path, capsys, text):
    pre = tmp_path / "pre"
    shutil.copytree(chain["preprocess"], pre)
    (pre / "noise.txt").write_text(text, encoding="utf-8")
    rc = _run_stage(tmp_path, "analyze", preprocess_dir=pre, predict_dir=chain["predict"])
    err = _one_error_line(capsys, "FormatError")
    assert rc == 1 and "noise.txt" in err and "sigma_background" in err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize(
    "text", ["policy background-noise\n", "epsilon abc\n"], ids=["missing", "not-a-number"]
)
def test_cli_malformed_analysis_file_is_one_error_line(chain, tmp_path, capsys, text):
    ana = tmp_path / "ana"
    shutil.copytree(chain["analyze"], ana)
    (ana / "analysis.txt").write_text(text, encoding="utf-8")
    rc = _run_stage(tmp_path, "stitch", preprocess_dir=chain["preprocess"], analyze_dir=ana)
    err = _one_error_line(capsys, "FormatError")
    assert rc == 1 and "analysis.txt" in err and "epsilon" in err


def test_cli_non_integer_led_is_one_error_line(chain, tmp_path, capsys):
    sim = tmp_path / "sim"
    shutil.copytree(chain["simulate"], sim)
    stack, meta = read_tensor(sim / "led_stack.puqt")
    write_tensor(sim / "led_stack.puqt", stack, meta.replace("leds ", "leds 1.5 ", 1))
    rc = _run_stage(tmp_path, "sfpm", simulate_dir=sim)
    err = _one_error_line(capsys, "FormatError")
    assert rc == 1 and "led_stack.puqt" in err and "leds" in err


def test_cli_repeated_led_is_one_error_line(chain, tmp_path, capsys):
    sim = tmp_path / "sim"
    shutil.copytree(chain["simulate"], sim)
    stack, meta = read_tensor(sim / "led_stack.puqt")
    lines = meta.splitlines()
    k = next(i for i, line in enumerate(lines) if line.startswith("leds "))
    leds = lines[k].split()[1:]
    lines[k] = " ".join(["leds", leds[0], leds[0]] + leds[2:])
    write_tensor(sim / "led_stack.puqt", stack, "\n".join(lines))
    rc = _run_stage(tmp_path, "sfpm", simulate_dir=sim)
    err = _one_error_line(capsys, "FormatError")
    assert rc == 1 and "led_stack.puqt" in err and "leds" in err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize(
    "command, source, name, change",
    [
        ("sfpm", "simulate", "led_stack.puqt", lambda a: a[:, None]),
        ("preprocess", "sfpm", "phase.puqt", lambda a: a[None]),
        ("preprocess", "simulate", "multiplexed.puqt", lambda a: a[0]),
        ("preprocess", "simulate", "multiplexed.puqt", lambda a: a[:1]),
        ("dpc", "simulate", "multiplexed.puqt", lambda a: a[:1]),
        ("predict", "preprocess", "patches_inputs.puqt", lambda a: a[:, 0]),
        ("predict", "preprocess", "patches_inputs.puqt", lambda a: a[:, :1]),
        ("stitch", "preprocess", "background_mask.puqt", lambda a: a[::2, ::2]),
    ],
    ids=[
        "sfpm-rank4-led-stack",
        "preprocess-rank3-phase",
        "preprocess-rank2-multiplexed",
        "preprocess-one-multiplexed-image",
        "dpc-one-multiplexed-image",
        "predict-rank3-patch-inputs",
        "predict-one-channel-patch-inputs",
        "stitch-half-size-background-mask",
    ],
)
def test_cli_malformed_input_tensor_is_one_error_line(
    chain, tmp_path, capsys, command, source, name, change
):
    copy = tmp_path / source
    shutil.copytree(chain[source], copy)
    arr, meta = read_tensor(copy / name)
    write_tensor(copy / name, change(arr), meta)
    dirs = {
        "simulate_dir": chain["simulate"],
        "recon_dir": chain["sfpm"],
        "preprocess_dir": chain["preprocess"],
        "train_dir": chain["train"],
        "analyze_dir": chain["analyze"],
    }
    dirs[{"sfpm": "recon_dir"}.get(source, f"{source}_dir")] = copy
    rc = _run_stage(tmp_path, command, **dirs)
    err = _one_error_line(capsys, "FormatError")
    assert rc == 1 and name in err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("command, name", [("sfpm", "led_stack.puqt"), ("dpc", "multiplexed.puqt")])
@pytest.mark.parametrize("row", ["", "pitch 2.5"], ids=["missing", "differs"])
def test_cli_stack_pitch_must_match_config(chain, tmp_path, capsys, command, name, row):
    sim = tmp_path / "sim"
    shutil.copytree(chain["simulate"], sim)
    arr, meta = read_tensor(sim / name)
    lines = [row if line.startswith("pitch ") else line for line in meta.splitlines()]
    write_tensor(sim / name, arr, "\n".join(lines))
    rc = _run_stage(tmp_path, command, simulate_dir=sim)
    err = _one_error_line(capsys, "FormatError")
    assert rc == 1 and name in err and "pitch" in err
    assert not (tmp_path / "r").exists()


def test_cli_short_split_is_one_error_line(chain, tmp_path, capsys):
    pre = tmp_path / "pre"
    shutil.copytree(chain["preprocess"], pre)
    split, meta = read_tensor(pre / "patches_split.puqt")
    write_tensor(pre / "patches_split.puqt", split[:-1], meta)
    rc = _run_stage(tmp_path, "train", preprocess_dir=pre)
    err = _one_error_line(capsys, "ShapeMismatch")
    assert rc == 1 and "validation" in err
    assert not (tmp_path / "r").exists()


def test_cli_zero_sigma_is_one_error_line(chain, tmp_path, capsys):
    prd = tmp_path / "prd"
    shutil.copytree(chain["predict"], prd)
    sigma, meta = read_tensor(prd / "sigma.puqt")
    sigma[1, 2, 3, 4] = 0.0
    write_tensor(prd / "sigma.puqt", sigma, meta)
    rc = _run_stage(tmp_path, "analyze", preprocess_dir=chain["preprocess"], predict_dir=prd)
    err = _one_error_line(capsys, "NonPositiveSigma")
    assert rc == 1 and "sigma.puqt" in err


@pytest.mark.parametrize(
    "change",
    [lambda pos: pos[:, 0], lambda pos: np.hstack([pos, pos[:, :1]]), lambda pos: pos + 0.5],
    ids=["rank-1", "three-columns", "half-pixel"],
)
def test_cli_malformed_positions_are_one_error_line(chain, tmp_path, capsys, change):
    pre = tmp_path / "pre"
    shutil.copytree(chain["preprocess"], pre)
    pos, meta = read_tensor(pre / "patches_positions.puqt")
    write_tensor(pre / "patches_positions.puqt", change(pos), meta)
    rc = _run_stage(tmp_path, "stitch", preprocess_dir=pre, analyze_dir=chain["analyze"])
    err = _one_error_line(capsys, "FormatError")
    assert rc == 1 and "patches_positions.puqt" in err
    assert not (tmp_path / "r").exists()


def test_cli_rank3_predictions_are_one_error_line(chain, tmp_path, capsys):
    pre, prd = tmp_path / "pre", tmp_path / "prd"
    shutil.copytree(chain["preprocess"], pre)
    shutil.copytree(chain["predict"], prd)
    ys, meta = read_tensor(pre / "patches_targets.puqt")
    write_tensor(pre / "patches_targets.puqt", ys.reshape(-1, ys.shape[-1]), meta)
    for name in ("mu.puqt", "sigma.puqt"):
        arr, meta = read_tensor(prd / name)
        write_tensor(prd / name, arr.reshape(arr.shape[0], -1, arr.shape[-1]), meta)
    rc = _run_stage(tmp_path, "analyze", preprocess_dir=pre, predict_dir=prd)
    err = _one_error_line(capsys, "ShapeMismatch")
    assert rc == 1 and "(member, patch, row, col)" in err


def test_cli_missing_config_file(tmp_path, capsys):
    rc = main(["simulate", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path / "r")])
    err = capsys.readouterr().err.strip()
    assert rc == 3 and "code=MissingArtifact" in err


def test_cli_missing_input_stage(tmp_path, capsys):
    text = SMALL + f'\npaths {{\n  simulate_dir {tmp_path / "absent"}\n}}\n'
    rc = main(["sfpm", "--config", _write_cfg(tmp_path, text), "--out", str(tmp_path / "r")])
    err = capsys.readouterr().err.strip()
    assert rc == 3 and "code=MissingArtifact" in err
    assert not (tmp_path / "r").exists()


def test_cli_missing_checkpoints_leave_no_outputs(chain, tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    text = SMALL + (
        f'\npaths {{\n  preprocess_dir {chain["preprocess"]}\n'
        f"  train_dir {empty}\n}}\n"
    )
    out = tmp_path / "r"
    rc = main(["predict", "--config", _write_cfg(tmp_path, text), "--out", str(out)])
    err = capsys.readouterr().err.strip()
    assert rc == 3 and "code=MissingArtifact" in err
    assert not list(out.glob("predict-*")) if out.exists() else True
    assert not list(out.glob(".predict-*")) if out.exists() else True


def test_paths_block_names_exactly_the_stage_inputs():
    # the CLI reads a command's input runs from its stage's *_dir parameters
    stages = [getattr(pipeline, f"{command}_stage") for command in _STAGE_HELP]
    inputs = {
        name
        for stage in stages
        for name in inspect.signature(stage).parameters
        if name.endswith("_dir")
    }
    assert inputs == {f.name for f in dataclasses.fields(PathsBlock)}


def test_cli_paths_key_required(tmp_path, capsys):
    rc = main(["sfpm", "--config", _write_cfg(tmp_path), "--out", str(tmp_path / "r")])
    err = capsys.readouterr().err.strip()
    assert rc == 2 and "paths.simulate_dir" in err


def test_cli_train_independent_of_blas_threads(chain, tmp_path):
    """Checkpoints are byte-identical with one BLAS thread and with the default."""
    text = SMALL + f'\npaths {{\n  preprocess_dir {chain["preprocess"]}\n}}\n'
    config = _write_cfg(tmp_path, text)
    src = str(Path(pipeline.__file__).resolve().parents[1])
    blas_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in blas_vars}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    runs = {}
    for name, extra in (("one", {"OPENBLAS_NUM_THREADS": "1"}), ("default", {})):
        out = tmp_path / name
        cmd = [sys.executable, "-m", "phaseuq.cli", "train", "--config", config, "--out", str(out)]
        subprocess.run(cmd, env=env | extra, check=True, capture_output=True, timeout=300)
        runs[name] = {p.name: p.read_bytes() for p in sorted((out / "train-001").glob("*.puqt"))}
    assert len(runs["one"]) == 2
    assert runs["one"] == runs["default"]


def test_cli_train_member_divergence_is_one_error_line(chain, cfg, tmp_path, capsys, monkeypatch):
    """A member that diverges on a pool thread fails the command with one line."""
    real = learner.train

    def failing(dataset, c, loss_history=None):
        if c.seed == cfg.train.seed + 1:
            raise DivergedLoss("loss became nan")
        return real(dataset, c, loss_history)

    monkeypatch.setattr(learner, "train", failing)
    text = SMALL + f'\npaths {{\n  preprocess_dir {chain["preprocess"]}\n}}\n'
    out = tmp_path / "r"
    rc = main(["train", "--config", _write_cfg(tmp_path, text), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.count("\n") == 1 and ERROR_LINE.match(err.strip())
    assert "code=DivergedLoss" in err
    assert not (out.exists() and list(out.glob("*train-*")))


def test_cli_predict_member_error_is_one_error_line(chain, tmp_path, capsys, monkeypatch):
    """A member whose forward fails on a pool thread fails the command with one line."""
    k1 = _member_k1(chain, 1)

    def fail_member_1(params):
        if np.array_equal(params.k1, k1):
            raise NonFiniteInput("mu became nan")

    _recording_forward(monkeypatch, fail_member_1)
    monkeypatch.setattr(learner, "_usable_cpus", lambda: 2)
    text = SMALL + (
        f'\npaths {{\n  preprocess_dir {chain["preprocess"]}\n'
        f'  train_dir {chain["train"]}\n}}\n'
    )
    out = tmp_path / "r"
    rc = main(["predict", "--config", _write_cfg(tmp_path, text), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.count("\n") == 1 and ERROR_LINE.match(err.strip())
    assert "code=NonFiniteInput" in err
    assert not (out.exists() and list(out.glob("*predict-*")))


def test_cli_import_loads_no_transform_modules():
    """Starting the CLI loads no scipy module at all."""
    src = str(Path(pipeline.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import sys, phaseuq.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True,
        timeout=60,
    )
    assert done.stdout.strip() == "[]"


def test_cli_transforming_stages_load_no_scipy_fft(tmp_path):
    """simulate, sfpm, dpc and preprocess transform without loading scipy.fft."""
    out = tmp_path / "r"
    paths = f"simulate_dir {out / 'simulate-001'}\n  recon_dir {out / 'sfpm-001'}"
    config = _write_cfg(tmp_path, SMALL + f"paths {{\n  {paths}\n}}\n")
    src = str(Path(pipeline.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import sys\nfrom phaseuq.cli import main\n"
        "for stage in ('simulate', 'sfpm', 'dpc', 'preprocess'):\n"
        f"    assert main([stage, '--config', {config!r}, '--out', {str(out)!r}]) == 0, stage\n"
        "print('scipy.fft' in sys.modules)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True,
        timeout=120,
    )
    assert done.stdout.split()[-1] == "False"


def test_cli_error_line_is_single_line(tmp_path, capsys):
    rc = main(["simulate", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path / "r")])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and ERROR_LINE.match(err.strip())


def test_demo_gate_failure_raises(cfg, tmp_path, monkeypatch):
    """An impossible gate must fail loudly but keep the run directory."""
    monkeypatch.setattr(pipeline, "DEMO_GATE_FRACTION", 2.0)
    with pytest.raises(DemoGateFailure):
        pipeline.demo_stage(cfg, tmp_path)
    assert (tmp_path / "demo-001" / "demo_report.txt").is_file()
    report = (tmp_path / "demo-001" / "demo_report.txt").read_text()
    assert "gate fail" in report


def test_cli_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("phaseuq ")
