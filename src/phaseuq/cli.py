"""Command line front end.

One subcommand per pipeline stage plus ``demo``, which chains the whole
pipeline on a built-in configuration and checks a credibility gate. Every
invocation writes a fresh run directory under ``--out`` and prints its
path. Every command takes the same flags and reaches its stage through one
call; failures print a single machine-parsable line on stderr::

    phaseuq-error code=<ErrorClass> message="..."

Exit codes: 2 configuration problems, 3 missing input artifacts, 4 an
``--out`` that exists and is not a directory, 1 any other pipeline error
or operating-system error (reported as ``code=OSError``).
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import sys
from pathlib import Path

from . import __version__, pipeline
from .config import ExperimentConfig, load_config, parse_config
from .errors import ConfigError, ExistingArtifact, MissingArtifact, PhaseUqError

DEMO_CONFIG = """\
# Built-in demo: simulate, reconstruct, learn, and verify calibration.
geometry {
  rows 9
  cols 9
  pitch_led 2.2
  height 60.0
  wavelength 0.532
  center_row 4
  center_col 4
}
optics {
  na_obj 0.1
  na_max 0.41
  n_detector 32
  n_hires 128
  pitch_detector 2.0
}
phantom {
  kind gaussian-bumps
  amplitude_lo 0.6
  amplitude_hi 1.0
  count 6
  seed 2
}
noise {
  model gaussian
  level 0.002
  seed 11
}
sfpm {
  epochs 30
}
train {
  lr 0.005
  epochs 120
  batch_size 16
  dropout_rate 0.1
  seed 5
  ensemble_size 4
  patch 16
  stride 12
}
analysis {
  target_p 0.98
  delta_p 0.04
  background_threshold 0.05
}
"""

_EXIT_CODES = {"ConfigError": 2, "MissingArtifact": 3, "ExistingArtifact": 4}

_STAGE_HELP = {
    "simulate": "render a phantom and its coded-illumination measurements",
    "sfpm": "iterative synthetic-aperture phase retrieval",
    "dpc": "one-shot weak-phase reconstruction from brightfield patterns",
    "preprocess": "normalize, estimate noise, and cut training patches",
    "train": "fit the deep ensemble and write one checkpoint per member",
    "predict": "run every checkpoint over the patches",
    "analyze": "uncertainty decomposition, credibility, and reliability",
    "stitch": "blend patch maps onto the full frame and summarize regions",
    "demo": "full pipeline on a built-in config with a calibration gate",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phaseuq",
        description="coded-illumination phase imaging with ensemble uncertainty",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, blurb in _STAGE_HELP.items():
        sp = sub.add_parser(name, help=blurb)
        sp.add_argument(
            "--config",
            required=name != "demo",
            help="experiment config file"
            + (" (default: the built-in demo config)" if name == "demo" else ""),
        )
        sp.add_argument(
            "--out", required=True, help="output root; each run gets a new directory"
        )
        sp.add_argument(
            "--seed", type=int, default=None, help="override every configured seed"
        )
        sp.add_argument(
            "--export-pgm",
            action="store_true",
            help="also write 16-bit PGM previews of 2-D tensors",
        )
    return parser


def _load(path) -> ExperimentConfig:
    if not Path(path).is_file():
        raise MissingArtifact(f"config file {path} not found")
    return load_config(path)


def _effective_config(cfg: ExperimentConfig, seed) -> ExperimentConfig:
    if seed is None:
        return cfg
    updates = {
        "noise": dataclasses.replace(cfg.noise, seed=seed),
        "train": dataclasses.replace(cfg.train, seed=seed),
    }
    if cfg.phantom is not None:
        updates["phantom"] = dataclasses.replace(cfg.phantom, seed=seed)
    return dataclasses.replace(cfg, **updates)


def _resolve_inputs(cfg: ExperimentConfig, command: str, stage) -> list[Path]:
    """The input runs named by the stage's ``*_dir`` parameters, from ``cfg.paths``."""
    dirs = []
    for name in inspect.signature(stage).parameters:
        if not name.endswith("_dir"):
            continue
        value = getattr(cfg.paths, name)
        if not value:
            raise ConfigError(f"paths.{name} is required for the {command} command")
        path = Path(value)
        if not path.is_dir():
            raise MissingArtifact(f"paths.{name} -> {value} is not a directory")
        dirs.append(path)
    return dirs


def _dispatch(args) -> Path:
    command = args.command
    if command == "demo" and not args.config:
        cfg = parse_config(DEMO_CONFIG)
    else:
        cfg = _load(args.config)
    cfg = _effective_config(cfg, args.seed)
    out = args.out
    if Path(out).exists() and not Path(out).is_dir():
        raise ExistingArtifact(f"--out {out} exists and is not a directory")
    # looked up at call time, so a wrapper set on the pipeline module is what runs
    stage = getattr(pipeline, f"{command}_stage")
    run = stage(cfg, out, *_resolve_inputs(cfg, command, stage), export_pgm=args.export_pgm)
    if command == "demo":
        sys.stdout.write((run / "demo_report.txt").read_text(encoding="utf-8"))
    return run


def _report(code: str, exc: Exception) -> int:
    message = str(exc).replace('"', "'").replace("\n", " ")
    sys.stderr.write(f'phaseuq-error code={code} message="{message}"\n')
    return _EXIT_CODES.get(code, 1)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        run = _dispatch(args)
    except PhaseUqError as exc:
        return _report(exc.code, exc)
    except OSError as exc:
        return _report("OSError", exc)
    print(run)
    return 0


if __name__ == "__main__":
    sys.exit(main())
