"""Each output check of the benchmark rejects one corrupted artifact.

A short pipeline run (2 members, 1 training epoch) provides the
artifacts; every test corrupts one value or byte of a copy of them.
"""

from __future__ import annotations

import dataclasses
import shutil
import struct

import numpy as np
import pytest

import checks
from phaseuq import pipeline
from phaseuq.cli import DEMO_CONFIG
from phaseuq.config import parse_config


STAGES = ("preprocess", "train", "predict", "analyze", "stitch")
PATCH = 7
PIXEL = (PATCH, 3, 4)
FLAT = np.array([np.ravel_multi_index(PIXEL, (121, 16, 16))])


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    cfg = parse_config(DEMO_CONFIG)
    cfg = dataclasses.replace(
        cfg,
        sfpm=dataclasses.replace(cfg.sfpm, epochs=2),
        train=dataclasses.replace(cfg.train, epochs=1, ensemble_size=2),
    )
    root = tmp_path_factory.mktemp("run")
    sim = pipeline.simulate_stage(cfg, root)
    rec = pipeline.sfpm_stage(cfg, root, sim)
    pre = pipeline.preprocess_stage(cfg, root, sim, rec)
    tr = pipeline.train_stage(cfg, root, pre, threads=1)
    prd = pipeline.predict_stage(cfg, root, pre, tr)
    ana = pipeline.analyze_stage(cfg, root, pre, prd)
    pipeline.stitch_stage(cfg, root, pre, ana)
    return root


@pytest.fixture
def run(pristine, tmp_path):
    root = tmp_path / "run"
    shutil.copytree(pristine, root)
    dirs = {name: next(root.glob(f"{name}-*")) for name in STAGES}
    return dirs | {"root": root}


def poke(path, index, change) -> None:
    """Replace one float64 payload value of a single-record .puqt file."""
    blob = bytearray(path.read_bytes())
    rank = blob[6]
    dims = struct.unpack_from(f"<{rank}I", blob, 7)
    offset = 7 + 4 * rank + 8 * int(np.ravel_multi_index(index, dims))
    (value,) = struct.unpack_from("<d", blob, offset)
    struct.pack_into("<d", blob, offset, change(value))
    path.write_bytes(bytes(blob))


def test_untouched_run_passes_every_check(run):
    checks.check_member_outputs(run["preprocess"], run["train"], run["predict"], [PATCH])
    checks.check_decomposition(run["predict"], run["analyze"])
    checks.check_credibility(run["preprocess"], run["predict"], run["analyze"])
    checks.check_bounds(run["predict"], run["analyze"], FLAT)
    checks.check_stitch(run["preprocess"], run["analyze"], run["stitch"])
    digest = checks.tree_digest(run["root"])
    checks.check_repeat(digest, checks.tree_digest(run["root"]), "repeat")


def test_one_mu_value(run):
    poke(run["predict"] / "mu.puqt", (1, *PIXEL), lambda v: v + 1e-6)
    with pytest.raises(checks.CheckFailed, match="mu.puqt member 1 patch 7"):
        checks.check_member_outputs(run["preprocess"], run["train"], run["predict"], [PATCH])


def test_one_sigma_value(run):
    poke(run["predict"] / "sigma.puqt", (0, *PIXEL), lambda v: v * (1 + 1e-6))
    with pytest.raises(checks.CheckFailed, match="sigma.puqt member 0 patch 7"):
        checks.check_member_outputs(run["preprocess"], run["train"], run["predict"], [PATCH])


def test_bound_shrunk_by_two_tol(run):
    poke(run["analyze"] / "credible_bound.puqt", PIXEL, lambda v: v - 2 * checks.BOUND_TOL)
    with pytest.raises(checks.CheckFailed, match="mass .* < target"):
        checks.check_bounds(run["predict"], run["analyze"], FLAT)


def test_stitched_pixel_outside_patch_range(run):
    positions = checks.read_array(run["preprocess"] / "patches_positions.puqt")
    patches = checks.read_array(run["analyze"] / "credibility.puqt")
    _, hi = checks.patch_envelope(patches, positions, (128, 128))
    poke(run["stitch"] / "stitched_credibility.puqt", (40, 50), lambda v: hi[40, 50] + 1e-9)
    with pytest.raises(checks.CheckFailed, match=r"stitched_credibility.puqt pixel \(40, 50\)"):
        checks.check_stitch(run["preprocess"], run["analyze"], run["stitch"])


def test_one_flipped_byte_between_repeats(run):
    reference = checks.tree_digest(run["root"])
    path = run["analyze"] / "analysis.txt"
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0x01
    path.write_bytes(bytes(blob))
    with pytest.raises(checks.CheckFailed, match="analysis.txt"):
        checks.check_repeat(reference, checks.tree_digest(run["root"]), "repeat")
