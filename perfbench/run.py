"""Benchmark for phaseuq: a training-heavy demo and a wide-field imaging pass.

    python3 perfbench/run.py --workload demo|wide-field --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout that holds ``src/phaseuq``. Every
phaseuq call is a separate ``python3 -m phaseuq.cli`` process, timed from
outside; with ``--trace 1`` the second operation of every round runs through
tracer.py. A run does whole rounds of two operations until ``--seconds``
have passed, checks every operation's outputs with checks.py (repeats
within a run must give byte-identical run trees), and prints as its last
stdout line
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
of BENCHMARK.json untraced, its per-layer metrics traced. See README.md.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
from checks import CheckFailed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

DEMO_EPOCHS = 6
SETUP_EPOCHS = 1
WIDE_DETECTOR, WIDE_HIRES = 128, 512
PATCH_SAMPLE = 6
PIXEL_SAMPLE = 4096
PHASE_RMSE_BOUND = 0.6  # rad; see README.md for the measured values
# two successive operations differ by run-to-run noise the trace cannot see
STAGE_SUM_SLACK = 0.1
STAGES = ("simulate", "sfpm", "preprocess", "train", "predict", "analyze", "stitch")
THREAD_VARS = ("PHASEUQ_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def process_age() -> float:
    """Seconds since this process started, as the kernel counts it."""
    with open("/proc/self/stat", encoding="ascii") as fh:
        start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")


def set_key(text: str, block: str, key: str, value) -> str:
    text, n = re.subn(rf"(\b{block} \{{[^}}]*?\n\s*{key} )\S+", rf"\g<1>{value}", text)
    if n != 1:
        raise SystemExit(f"perfbench: DEMO_CONFIG has no {block}.{key}")
    return text


def paths_block(**dirs) -> str:
    return "paths {\n" + "".join(f"  {k} {v}\n" for k, v in dirs.items()) + "}\n"


@dataclasses.dataclass
class Call:
    wall: float
    rss_mib: float
    returncode: int
    stdout: str
    stderr: str
    spans: dict | None


@dataclasses.dataclass
class Op:
    wall: float = 0.0
    calls: list = dataclasses.field(default_factory=list)
    tree: Path | None = None
    dirs: dict = dataclasses.field(default_factory=dict)

    @property
    def rss_mib(self) -> float:
        return max(c.rss_mib for c in self.calls)

    @property
    def spans(self) -> dict:
        return merge_spans(c.spans for c in self.calls)


def merge_spans(tables) -> dict:
    out: dict = {}
    for table in tables:
        for key, span in (table or {}).items():
            acc = out.setdefault(key, dict.fromkeys(span, 0))
            for field, value in span.items():
                acc[field] += value
    return out


class Runner:
    """Starts phaseuq CLI processes in one work directory and times them."""

    def __init__(self, work: Path):
        self.work = work
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        self.count = 0

    def cli(self, args, traced=False) -> Call:
        self.count += 1
        logs = self.work / "logs"
        logs.mkdir(exist_ok=True)
        out, err, spans = (logs / f"{self.count:04d}.{ext}" for ext in ("out", "err", "json"))
        if traced:
            cmd = [sys.executable, str(HERE / "tracer.py"), str(spans), *args]
        else:
            cmd = [sys.executable, "-m", "phaseuq.cli", *args]
        with open(out, "wb") as fo, open(err, "wb") as fe:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.work, env=self.env, stdout=fo, stderr=fe)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Call(
            wall,
            usage.ru_maxrss / 1024.0,
            proc.returncode,
            out.read_text(encoding="utf-8", errors="replace"),
            err.read_text(encoding="utf-8", errors="replace"),
            json.loads(spans.read_text(encoding="utf-8")) if traced and spans.exists() else None,
        )


def stage_dirs(tree: Path) -> dict:
    dirs = {}
    for stage in STAGES:
        found = sorted(tree.glob(f"{stage}-*"))
        if len(found) == 1:
            dirs[stage] = found[0]
    return dirs


class Workload:
    trains_in_setup = False

    def __init__(self, seed: int, runner: Runner):
        self.seed = seed
        self.runner = runner
        self.work = runner.work

    def setup(self, demo_config: str, traced: bool) -> None:
        raise NotImplementedError

    def out_name(self, index: int) -> str:
        raise NotImplementedError

    def run(self, index: int, traced: bool) -> Op:
        raise NotImplementedError

    def check(self, op: Op) -> list[str]:
        """Workload-specific checks; returns diagnostics worth printing."""
        raise NotImplementedError

    def check_common(self, op: Op) -> None:
        d = op.dirs
        missing = {"preprocess", "train", "predict", "analyze", "stitch"} - set(d)
        if missing:
            raise CheckFailed(f"operation {op.tree} lacks {sorted(missing)} runs")
        rng = np.random.default_rng(self.seed)
        n_patches = checks.read_array(d["preprocess"] / "patches_positions.puqt").shape[0]
        patches = np.sort(rng.choice(n_patches, min(PATCH_SAMPLE, n_patches), replace=False))
        checks.check_member_outputs(d["preprocess"], d["train"], d["predict"], patches)
        checks.check_decomposition(d["predict"], d["analyze"])
        checks.check_credibility(d["preprocess"], d["predict"], d["analyze"])
        n_pixels = checks.read_array(d["analyze"] / "credible_bound.puqt").size
        pixels = np.sort(rng.choice(n_pixels, min(PIXEL_SAMPLE, n_pixels), replace=False))
        checks.check_bounds(d["predict"], d["analyze"], pixels)
        checks.check_stitch(d["preprocess"], d["analyze"], d["stitch"])


class Demo(Workload):
    """`phaseuq demo` on the built-in config with fewer training epochs."""

    name = "demo"

    def setup(self, demo_config: str, traced: bool) -> None:
        (self.work / "demo.cfg").write_text(
            set_key(demo_config, "train", "epochs", DEMO_EPOCHS), encoding="utf-8"
        )

    def out_name(self, index: int) -> str:
        return f"op-{index}"

    def run(self, index: int, traced: bool) -> Op:
        out = self.out_name(index)
        args = ["demo", "--config", "demo.cfg", "--out", out, "--seed", str(self.seed)]
        call = self.runner.cli(args, traced)
        tree = self.work / out / "demo-001"
        op = Op(call.wall, [call], tree, stage_dirs(tree))
        gate_failure = call.returncode == 1 and "code=DemoGateFailure" in call.stderr
        if call.returncode != 0 and not gate_failure:
            raise RuntimeError(f"demo exited {call.returncode}: {call.stderr.strip()[-300:]}")
        return op

    def check(self, op: Op) -> list[str]:
        self.check_common(op)
        d = op.dirs
        report = checks.read_lines(op.tree / "demo_report.txt")
        cred = np.clip(checks.read_array(d["stitch"] / "stitched_credibility.puqt"), 0.0, 1.0)
        background = checks.read_array(d["preprocess"] / "background_mask.puqt") > 0.5
        frac = float(np.mean(cred[background] > float(report["gate_credibility_level"])))
        reported = float(report["background_fraction_high"])
        checks.assert_close("demo_report.txt background_fraction_high", reported, frac)
        passed = frac >= float(report["gate_fraction_required"])
        if report["gate"] != ("pass" if passed else "fail"):
            raise CheckFailed(f"demo_report.txt says gate {report['gate']} at fraction {frac}")
        if (op.calls[0].returncode == 0) != passed:
            raise CheckFailed(f"demo exit code {op.calls[0].returncode} with gate {report['gate']}")
        mae, const = checks.mae_against_constant(d["preprocess"], d["stitch"])
        return [f"gate {report['gate']} {frac:.4f}", f"mae {mae:.4f} vs constant {const:.4f}"]


class WideField(Workload):
    """simulate -> sfpm -> preprocess -> predict -> analyze -> stitch at 512^2."""

    name = "wide-field"
    trains_in_setup = True

    def setup(self, demo_config: str, traced: bool) -> None:
        small = set_key(demo_config, "train", "epochs", SETUP_EPOCHS)
        wide = set_key(demo_config, "optics", "n_detector", WIDE_DETECTOR)
        self.config = set_key(wide, "optics", "n_hires", WIDE_HIRES)
        # the built-in seeds, not --seed: every run images its field with the same
        # ensemble, whose training luck would otherwise set the cost of credible_bound
        self.setup_op = self._chain(
            "setup", small, ("simulate", "sfpm", "preprocess", "train"), {}, traced, seed=None
        )
        self.train_dir = "setup/train-001"

    def _chain(self, out: str, config: str, stages, extra: dict, traced: bool, seed) -> Op:
        dirs = {
            "simulate_dir": f"{out}/simulate-001",
            "recon_dir": f"{out}/sfpm-001",
            "preprocess_dir": f"{out}/preprocess-001",
            "predict_dir": f"{out}/predict-001",
            "analyze_dir": f"{out}/analyze-001",
            **extra,
        }
        cfg = self.work / f"{out}.cfg"
        cfg.write_text(config + paths_block(**dirs), encoding="utf-8")
        op = Op(tree=self.work / out)
        t0 = time.perf_counter()
        for stage in stages:
            args = [stage, "--config", cfg.name, "--out", out]
            call = self.runner.cli(args + ([] if seed is None else ["--seed", str(seed)]), traced)
            op.calls.append(call)
            if call.returncode != 0 or call.stdout.strip() != f"{out}/{stage}-001":
                raise RuntimeError(
                    f"{stage} exited {call.returncode}: {call.stderr.strip()[-300:]}"
                )
        op.wall = time.perf_counter() - t0
        op.dirs = stage_dirs(op.tree)
        return op

    def out_name(self, index: int) -> str:
        return f"pass-{index}"

    def run(self, index: int, traced: bool) -> Op:
        stages = ("simulate", "sfpm", "preprocess", "predict", "analyze", "stitch")
        extra = {"train_dir": self.train_dir}
        op = self._chain(self.out_name(index), self.config, stages, extra, traced, self.seed)
        op.dirs["train"] = self.work / self.train_dir
        return op

    def check(self, op: Op) -> list[str]:
        self.check_common(op)
        checks.check_residuals(op.dirs["sfpm"])
        rmse = checks.phase_rmse(op.dirs["simulate"], op.dirs["sfpm"])
        if not rmse <= PHASE_RMSE_BOUND:
            raise CheckFailed(f"sfpm phase RMSE {rmse:.4f} rad above {PHASE_RMSE_BOUND}")
        return [f"sfpm phase rmse {rmse:.4f} rad"]


WORKLOADS = {w.name: w for w in (Demo, WideField)}


def cross_check(workload: Workload, op: Op, untraced: Op, start_s: float) -> None:
    """Traced totals against counts taken another way."""
    spans, d = op.spans, op.dirs
    members = len(list(d["train"].glob("checkpoint_*.puqt")))
    patches = checks.read_array(d["preprocess"] / "patches_inputs.puqt").shape[0]
    calls = spans.get("learner.forward", {}).get("calls", 0)
    if calls != members * patches:
        raise CheckFailed(f"learner.forward_calls {calls} != {members} members x {patches}")
    leds = checks.read_meta(d["simulate"] / "led_stack.puqt")["leds"].split()
    updates = spans.get("recon.sfpm_reconstruct", {}).get("work", 0)
    if updates != workload.sfpm_epochs * len(leds):
        raise CheckFailed(
            f"recon.led_updates {updates} != {workload.sfpm_epochs} epochs x {len(leds)} LEDs"
        )
    written = spans.get("tensorfile.write", {}).get("work", 0)
    on_disk = checks.puqt_bytes(op.tree)
    if written != on_disk:
        raise CheckFailed(f"tensorfile.bytes_written {written} != {on_disk} bytes of .puqt")
    stage_sum = sum(v["total_s"] for k, v in spans.items() if k.startswith("pipeline."))
    outside = len(untraced.calls) * start_s
    overhead = abs(op.wall - untraced.wall)
    gap = untraced.wall - outside - stage_sum
    if abs(gap) > overhead + STAGE_SUM_SLACK * untraced.wall:
        raise CheckFailed(
            f"stage times sum to {stage_sum:.3f} s against {untraced.wall:.3f} s untraced "
            f"less {outside:.3f} s of process starts (tracing overhead {overhead:.3f} s)"
        )


def layer_metrics(spans: dict, train_spans: dict) -> dict:
    def get(key, field):
        return spans.get(key, {}).get(field, 0)

    def ratio(num, den, scale):
        return scale * num / den if den else 0.0

    m = {}
    for stage in STAGES:
        m[f"pipeline.{stage}_s"] = get(f"pipeline.{stage}_stage", "total_s")
    m["pipeline.self_s"] = sum(v["self_s"] for k, v in spans.items() if k.startswith("pipeline."))
    train = train_spans.get("pipeline.train_stage", {})
    member = train_spans.get("learner.train", {})
    # overrides the loop's value: on wide-field the training happens in set-up
    m["pipeline.train_s"] = train.get("total_s", 0.0)
    m["pipeline.train_cpu_s"] = train.get("cpu_s", 0.0)
    m["learner.train_s"] = member.get("total_s", 0.0)
    m["learner.train_steps"] = member.get("work", 0)
    m["learner.step_ms"] = ratio(member.get("total_s", 0.0), member.get("work", 0), 1e3)
    m["learner.forward_calls"] = get("learner.forward", "calls")
    m["learner.forward_ms"] = ratio(
        get("learner.forward", "total_s"), m["learner.forward_calls"], 1e3
    )
    m["recon.sfpm_s"] = get("recon.sfpm_reconstruct", "total_s")
    m["recon.led_updates"] = get("recon.sfpm_reconstruct", "work")
    m["recon.led_update_us"] = ratio(m["recon.sfpm_s"], m["recon.led_updates"], 1e6)
    m["grid.fft_calls"] = get("grid.fft", "calls")
    m["grid.fft_s"] = get("grid.fft", "total_s")
    m["grid.resize_s"] = get("grid.resize_bicubic", "total_s")
    m["optics.image_calls"] = get("optics.forward_single_led", "calls")
    m["optics.forward_single_led_s"] = get("optics.forward_single_led", "total_s")
    m["optics.synthesize_multiplexed_s"] = get("optics.synthesize_multiplexed", "total_s")
    m["preprocess.stitch_alpha_blend_s"] = get("preprocess.stitch_alpha_blend", "total_s")
    m["preprocess.stitched_patches"] = get("preprocess.stitch_alpha_blend", "work")
    for name, key in (
        ("decompose", "decompose_uncertainty"),
        ("credibility_map", "credibility_map"),
        ("credible_bound", "credible_bound"),
        ("reliability_diagram", "reliability_diagram"),
    ):
        m[f"uqstats.{name}_s"] = get(f"uqstats.{key}", "total_s")
    m["uqstats.member_pixels"] = get("uqstats.decompose_uncertainty", "work")
    m["uqstats.laplace_cdf_calls"] = get("uqstats.laplace_cdf", "calls")
    m["uqstats.laplace_cdf_s"] = get("uqstats.laplace_cdf", "total_s")
    m["tensorfile.write_s"] = get("tensorfile.write", "total_s")
    m["tensorfile.read_s"] = get("tensorfile.read", "total_s")
    m["tensorfile.bytes_written"] = get("tensorfile.write", "work")
    m["tensorfile.bytes_read"] = get("tensorfile.read", "work")
    m["config.parse_s"] = get("config.parse", "total_s")
    return m


def machine_facts() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        blas = None
    return {
        "cpu_count": os.cpu_count(),
        "blas": blas,
        "numpy": np.__version__,
        "python": sys.version.split()[0],
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not (SRC / "phaseuq" / "cli.py").is_file():
        print(f"perfbench: no phaseuq sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from phaseuq import cli, config

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    work = OUT / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return measure(args, spec, work, cli.DEMO_CONFIG, config.parse_config)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, spec, work: Path, demo_config: str, parse_config) -> int:
    trace = bool(args.trace)
    runner = Runner(work)
    workload = WORKLOADS[args.workload](args.seed, runner)
    workload.sfpm_epochs = parse_config(demo_config).sfpm.epochs
    start = runner.cli(["--version"])
    workload.setup(demo_config, trace)
    setup_s = process_age()

    untraced, pairs = [], []
    attempted = failed = 0
    correct = True
    reference = None
    t0 = time.perf_counter()
    # whole rounds of two operations, the second traced under --trace 1
    while attempted == 0 or time.perf_counter() - t0 < args.seconds:
        first = None
        for traced in (False, trace):
            attempted += 1
            try:
                op = workload.run(attempted, traced)
            except RuntimeError as exc:
                failed += 1
                print(f"perfbench: operation {attempted} failed: {exc}", file=sys.stderr)
                shutil.rmtree(work / workload.out_name(attempted), ignore_errors=True)
                continue
            # the program ran to its end, so its time counts whatever the checks say
            if traced:
                pairs.append((first, op))
            else:
                untraced.append(op)
                first = op
            try:
                notes = workload.check(op)
                digest = checks.tree_digest(op.tree)
                reference = reference or digest
                checks.check_repeat(reference, digest, f"operation {attempted}")
                if traced:
                    if first is None:
                        raise CheckFailed("no untraced operation in this round to compare")
                    cross_check(workload, op, first, start.wall)
                print(
                    f"perfbench: {workload.name} operation {attempted}"
                    f"{' traced' if traced else ''}: {op.wall:.3f} s, {op.rss_mib:.1f} MiB; "
                    + "; ".join(notes),
                    file=sys.stderr,
                )
            except (CheckFailed, OSError, KeyError, ValueError, IndexError) as exc:
                failed += 1
                correct = False
                print(f"perfbench: operation {attempted} rejected: {exc}", file=sys.stderr)
            finally:
                shutil.rmtree(work / workload.out_name(attempted), ignore_errors=True)

    if trace:
        values = []
        for plain, op in pairs:
            if plain is None:
                continue
            train = workload.setup_op if workload.trains_in_setup else op
            v = layer_metrics(op.spans, train.spans)
            v["trace.overhead_s"] = op.wall - plain.wall
            values.append(v)
        names = spec["per_layer"]
    else:
        values = [
            {"setup_s": setup_s, "wall_s": op.wall, "peak_rss_mib": op.rss_mib} for op in untraced
        ]
        names = spec["end_to_end"]
    if not values:
        print("perfbench: no operation completed", file=sys.stderr)
        return 1
    metrics = {
        m["name"]: {"value": statistics.median(v[m["name"]] for v in values), "unit": m["unit"]}
        for m in names
    }
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = dict(result, workload=workload.name, seed=args.seed, machine=machine_facts())
    if trace:
        record["spans"] = {"setup": workload.setup_op.spans if workload.trains_in_setup else {}}
        record["spans"]["operations"] = [op.spans for _, op in pairs]
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8"
    )
    print(json.dumps({"machine": record["machine"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
