"""The benchmark's tracer still sees the calls it counts.

perfbench/tracer.py wraps phaseuq functions by module attribute and counts
their work from their arguments, so a renamed function or a changed
signature silently zeroes a benchmark figure. This checks that every site
it wraps exists, and runs the tracer on a small demo and on one ``sfpm``
command, checking its counts against the run trees.
"""

import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

from phaseuq import pipeline
from phaseuq.cli import DEMO_CONFIG
from phaseuq.config import parse_config
from phaseuq.tensorfile import read_tensor

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
DEMO_STAGES = ("simulate", "sfpm", "preprocess", "train", "predict", "analyze", "stitch")
SFPM_EPOCHS, MEMBERS = 2, 2


def _small_demo_config() -> str:
    text = DEMO_CONFIG
    for old, new in [
        ("epochs 30", f"epochs {SFPM_EPOCHS}"),
        ("epochs 120", "epochs 1"),
        ("ensemble_size 4", f"ensemble_size {MEMBERS}"),
    ]:
        assert text.count(old) == 1, old
        text = text.replace(old, new)
    return text


def _traced(tmp_path, *cli_args):
    """Run ``phaseuq <cli_args>`` under the tracer; returns the process and its spans."""
    spans_path = tmp_path / "spans.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, str(TRACER), str(spans_path), *cli_args],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    return proc, json.loads(spans_path.read_text(encoding="utf-8"))


def _led_count(simulate_dir) -> int:
    _, meta = read_tensor(Path(simulate_dir) / "led_stack.puqt")
    return len(next(line for line in meta.splitlines() if line.startswith("leds ")).split()) - 1


def test_every_traced_site_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    # optics.forward_single_led is gone; the tracer still lists it until the benchmark changes
    known_missing = {("pipeline", "forward_single_led"), ("optics", "forward_single_led")}
    sites = [site for _, sites, _ in tracer.TRACED for site in sites]
    missing = {
        (mod, attr)
        for mod, attr in sites
        if not callable(getattr(importlib.import_module(f"phaseuq.{mod}"), attr, None))
    }
    assert missing <= known_missing, sorted(missing - known_missing)


def test_traced_sfpm_command_reads_its_input_run(tmp_path):
    text = _small_demo_config()
    sim = pipeline.simulate_stage(parse_config(text), tmp_path / "sim")
    cfg_path = tmp_path / "sfpm.cfg"
    cfg_path.write_text(text + f"paths {{\n  simulate_dir {sim}\n}}\n", encoding="utf-8")
    proc, spans = _traced(tmp_path, "sfpm", "--config", str(cfg_path), "--out", "out")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str(Path("out") / "sfpm-001")
    assert (tmp_path / "out" / "sfpm-001" / "phase.puqt").is_file()
    assert spans["pipeline.sfpm_stage"]["calls"] == 1
    assert spans["recon.sfpm_reconstruct"]["work"] == SFPM_EPOCHS * _led_count(sim) == 162


def test_tracer_counts_match_the_run_tree(tmp_path):
    cfg = tmp_path / "demo.cfg"
    cfg.write_text(_small_demo_config(), encoding="utf-8")
    proc, spans = _traced(tmp_path, "demo", "--config", str(cfg), "--out", str(tmp_path / "out"))
    # one training epoch rarely passes the credibility gate; a gate failure still commits the run
    assert proc.returncode == 0 or "code=DemoGateFailure" in proc.stderr, proc.stderr
    tree = tmp_path / "out" / "demo-001"

    missing = [s for s in DEMO_STAGES if spans.get(f"pipeline.{s}_stage", {}).get("calls") != 1]
    assert not missing, f"stage spans missing: {missing}"

    positions, _ = read_tensor(next(tree.glob("preprocess-*")) / "patches_positions.puqt")
    n_leds = _led_count(next(tree.glob("simulate-*")))
    n_patches = positions.shape[0]
    assert (n_patches, n_leds) == (121, 81)

    def count(key, field):
        return spans.get(key, {}).get(field, 0)

    assert count("learner.forward", "calls") == MEMBERS * n_patches == 242
    assert count("recon.sfpm_reconstruct", "work") == SFPM_EPOCHS * n_leds == 162
    pixels = n_patches * 16 * 16
    assert count("uqstats.decompose_uncertainty", "work") == MEMBERS * pixels == 61_952
    for key in ("credibility_map", "credible_bound", "reliability_diagram"):
        assert count(f"uqstats.{key}", "calls") == 1, key
    # simulate transforms the object once and forms each of the n_leds images once;
    # the five pattern images are sums of those rows, and sfpm transforms twice
    assert count("optics.synthesize_multiplexed", "calls") == 5
    assert count("grid.fft", "calls") == 1 + n_leds + 2 == 84

    # one optimizer step per batch of the patches not held out, per epoch and member
    split, _ = read_tensor(next(tree.glob("preprocess-*")) / "patches_split.puqt")
    train = parse_config(cfg.read_text(encoding="utf-8")).train
    steps = train.epochs * math.ceil(int((split < 0.5).sum()) / train.batch_size)
    assert count("learner.train", "calls") == MEMBERS
    assert count("learner.train", "work") == MEMBERS * steps == 12
