"""Spans and counts around phaseuq's public functions, from outside it.

Run as ``python3 tracer.py OUT.json <phaseuq cli arguments>``: it wraps
each traced function under every module attribute through which phaseuq
calls it, runs ``phaseuq.cli.main`` with the remaining arguments, and
writes the accumulated spans to OUT.json. Each span keeps its total and
self time (its duration minus the spans it called on the same thread),
its process CPU time and its call count; some spans add a count of the
work they did. Nothing is written into the run tree.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import threading
import time
from collections import defaultdict

STAGES = ("simulate", "sfpm", "dpc", "preprocess", "train", "predict", "analyze", "stitch")


def _arg(args, kwargs, index, name):
    if name in kwargs:
        return kwargs[name]
    return args[index] if index < len(args) else None


def _led_updates(args, kwargs, result):
    # sfpm_reconstruct appends one residual per epoch; each epoch visits every LED
    residuals = _arg(args, kwargs, 3, "residuals") or ()
    return len(residuals) * len(_arg(args, kwargs, 0, "stack").images)


def _member_pixels(args, kwargs, result):
    ens = _arg(args, kwargs, 0, "ens")
    return ens.size * ens.members[0].mu.data.size


def _file_size(args, kwargs, result):
    return os.path.getsize(_arg(args, kwargs, 0, "path"))


def _patch_count(args, kwargs, result):
    return len(_arg(args, kwargs, 0, "patches"))


# (span key, [(module, attribute it is called through)], work counter)
TRACED = [
    *[(f"pipeline.{s}_stage", [("pipeline", f"{s}_stage")], None) for s in STAGES],
    ("learner.train_ensemble", [("pipeline", "train_ensemble")], None),
    ("learner.train", [("learner", "train")], None),
    ("learner.forward", [("pipeline", "forward")], None),
    ("recon.sfpm_reconstruct", [("pipeline", "sfpm_reconstruct")], _led_updates),
    (
        "grid.fft",
        [(mod, name) for mod in ("recon", "optics") for name in ("fft2_unitary", "ifft2_unitary")],
        None,
    ),
    ("grid.resize_bicubic", [("pipeline", "resize_bicubic")], None),
    (
        "optics.forward_single_led",
        [("pipeline", "forward_single_led"), ("optics", "forward_single_led")],
        None,
    ),
    ("optics.synthesize_multiplexed", [("pipeline", "synthesize_multiplexed")], None),
    ("preprocess.stitch_alpha_blend", [("pipeline", "stitch_alpha_blend")], _patch_count),
    ("uqstats.decompose_uncertainty", [("pipeline", "decompose_uncertainty")], _member_pixels),
    ("uqstats.credibility_map", [("pipeline", "credibility_map")], None),
    ("uqstats.credible_bound", [("pipeline", "credible_bound")], None),
    ("uqstats.reliability_diagram", [("pipeline", "reliability_diagram")], None),
    ("uqstats.laplace_cdf", [("uqstats", "laplace_cdf")], None),
    (
        "tensorfile.write",
        [("pipeline", "write_tensor"), ("pipeline", "write_records")],
        _file_size,
    ),
    ("tensorfile.read", [("pipeline", "read_tensor"), ("pipeline", "read_records")], _file_size),
    ("config.parse", [("cli", "load_config"), ("cli", "parse_config")], None),
]


class Tracer:
    """Per-key totals; a per-thread stack of open spans gives self time."""

    def __init__(self):
        self.lock = threading.Lock()
        self.local = threading.local()
        self.spans = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "cpu_s": 0.0, "work": 0}
        )

    def _stack(self) -> list[float]:
        if not hasattr(self.local, "stack"):
            self.local.stack = []
        return self.local.stack

    def wrap(self, key, fn, work=None):
        def traced(*args, **kwargs):
            stack = self._stack()
            stack.append(0.0)
            cpu0, t0 = time.process_time(), time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                cpu = time.process_time() - cpu0
                children = stack.pop()
                if stack:
                    stack[-1] += dur
                with self.lock:
                    span = self.spans[key]
                    span["calls"] += 1
                    span["total_s"] += dur
                    span["self_s"] += dur - children
                    span["cpu_s"] += cpu
            if work is not None:
                count = work(args, kwargs, result)
                with self.lock:
                    self.spans[key]["work"] += count
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        learner = importlib.import_module("phaseuq.learner")
        learner.train = self._count_steps(learner.train)
        for key, sites, work in TRACED:
            for mod_name, attr in sites:
                mod = importlib.import_module(f"phaseuq.{mod_name}")
                fn = getattr(mod, attr, None)
                if fn is not None:
                    setattr(mod, attr, self.wrap(key, fn, work))

    def _count_steps(self, train):
        """Counts optimizer steps as the work of learner.train."""

        def train_counting_steps(dataset, cfg, loss_history=None):
            # train appends one loss per optimizer step to loss_history
            history = [] if loss_history is None else loss_history
            before = len(history)
            try:
                return train(dataset, cfg, history)
            finally:
                with self.lock:
                    self.spans["learner.train"]["work"] += len(history) - before

        return train_counting_steps

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh, sort_keys=True)


def main(argv) -> int:
    out, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    from phaseuq import cli

    try:
        return cli.main(cli_args)
    finally:
        tracer.dump(out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
