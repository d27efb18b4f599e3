"""Experiment configuration: a small brace-block text format.

Syntax, one item per line:

    # comment
    block {
      key value
      key value
    }

Blocks hold key/value leaves and do not nest, and every key sits inside a
block; values are typed by a fixed per-block schema. Unknown blocks or
keys are errors, as are duplicates: silent misconfiguration is worse than
a loud one.

Each block is one frozen dataclass, and the library takes these as they
are (``GeometryBlock`` as the LED array, ``NoiseBlock`` for measurement
noise, ``TrainConfig`` for training, ``SfpmConfig`` for the sfpm solver).
Every block checks its ranges in ``__post_init__``, so a bad value raises
ConfigError when the config is parsed, or when a block is rebuilt with
``dataclasses.replace``, before any stage runs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass, fields

from .errors import ConfigError, IndexOutOfRange

_PHANTOM_KINDS = ("gaussian-bumps", "resolution-target")
_NOISE_MODELS = ("gaussian", "poisson", "none")
_POLICIES = ("background-noise", "explicit")
_SFPM_INITS = ("upsampled-brightfield", "flat")


def _check(ok: bool, key: str, rule: str, value) -> None:
    if not ok:
        raise ConfigError(f"{key} must be {rule}, got {value!r}")


def _positive(key: str, value: float) -> None:
    _check(math.isfinite(value) and value > 0.0, key, "finite and > 0", value)


def _nonnegative(key: str, value: float) -> None:
    _check(math.isfinite(value) and value >= 0.0, key, "finite and >= 0", value)


def _at_least(key: str, value: int, lo: int) -> None:
    _check(value >= lo, key, f">= {lo}", value)


def _index(key: str, value: int, n: int) -> None:
    _check(0 <= value < n, key, f"in [0, {n})", value)


def _fraction(key: str, value: float) -> None:
    _check(0.0 <= value < 1.0, key, "in [0, 1)", value)


def _one_of(key: str, value: str, choices: tuple[str, ...]) -> None:
    _check(value in choices, key, "one of " + ", ".join(choices), value)


@dataclass(frozen=True)
class GeometryBlock:
    """Planar LED matrix a fixed height above the sample: the geometry block.

    pitch_led and height are millimetres; wavelength is micrometres.
    LEDs are addressed by flat index row * cols + col.
    """

    rows: int
    cols: int
    pitch_led: float
    height: float
    wavelength: float
    center_row: int
    center_col: int

    def __post_init__(self):
        _at_least("geometry.rows", self.rows, 1)
        _at_least("geometry.cols", self.cols, 1)
        _positive("geometry.pitch_led", self.pitch_led)
        _positive("geometry.height", self.height)
        _positive("geometry.wavelength", self.wavelength)
        _index("geometry.center_row", self.center_row, self.rows)
        _index("geometry.center_col", self.center_col, self.cols)

    @property
    def n_leds(self) -> int:
        return self.rows * self.cols

    def offsets(self, led: int) -> tuple[int, int]:
        """(row, col) offset of an LED from the centre LED."""
        if not 0 <= led < self.n_leds:
            raise IndexOutOfRange(f"led {led} outside 0..{self.n_leds - 1}")
        return led // self.cols - self.center_row, led % self.cols - self.center_col

    def led_na(self, led: int) -> float:
        dr, dc = self.offsets(led)
        r = math.hypot(dr, dc) * self.pitch_led
        return math.sin(math.atan2(r, self.height))

    def led_angle_deg(self, led: int) -> float:
        """Direction of the LED in the x-right / y-up frame, degrees."""
        dr, dc = self.offsets(led)
        return math.degrees(math.atan2(-dr, dc))

    def max_na(self) -> float:
        return max(self.led_na(i) for i in range(self.n_leds))


@dataclass(frozen=True)
class OpticsBlock:
    na_obj: float
    na_max: float
    n_detector: int
    n_hires: int
    pitch_detector: float

    def __post_init__(self):
        _positive("optics.na_obj", self.na_obj)
        # the darkfield patterns cover the annulus na_obj < NA <= na_max
        _positive("optics.na_max", self.na_max)
        _check(self.na_max > self.na_obj, "optics.na_max", "> optics.na_obj", self.na_max)
        # the transforms and the transfer function's reflection need an even detector grid
        n = self.n_detector
        _check(n >= 2 and n % 2 == 0, "optics.n_detector", "even and >= 2", n)
        # the simulated object grid is an integer upsampling of the detector
        _check(
            self.n_hires >= 1 and self.n_hires % self.n_detector == 0,
            "optics.n_hires",
            f"a positive multiple of n_detector={self.n_detector}",
            self.n_hires,
        )
        _positive("optics.pitch_detector", self.pitch_detector)


@dataclass(frozen=True)
class PhantomBlock:
    kind: str
    amplitude_lo: float
    amplitude_hi: float
    count: int = 8
    seed: int = 0

    def __post_init__(self):
        _one_of("phantom.kind", self.kind, _PHANTOM_KINDS)
        _nonnegative("phantom.amplitude_lo", self.amplitude_lo)
        _check(
            math.isfinite(self.amplitude_hi) and self.amplitude_hi >= self.amplitude_lo,
            "phantom.amplitude_hi",
            f"finite and >= amplitude_lo={self.amplitude_lo}",
            self.amplitude_hi,
        )
        _at_least("phantom.count", self.count, 1)
        _at_least("phantom.seed", self.seed, 0)


@dataclass(frozen=True)
class NoiseBlock:
    model: str = "none"
    level: float = 0.0
    seed: int = 0

    def __post_init__(self):
        _one_of("noise.model", self.model, _NOISE_MODELS)
        _nonnegative("noise.level", self.level)
        if self.model == "poisson":
            _positive("noise.level", self.level)  # photons per unit intensity
        _at_least("noise.seed", self.seed, 0)


@dataclass(frozen=True)
class SfpmConfig:
    """Settings of the sequential synthetic-aperture solver: the sfpm block."""

    epochs: int = 50
    step: float = 1.0
    init: str = "upsampled-brightfield"

    def __post_init__(self):
        _at_least("sfpm.epochs", self.epochs, 1)
        _check(0.0 < self.step <= 1.0, "sfpm.step", "in (0, 1]", self.step)
        _one_of("sfpm.init", self.init, _SFPM_INITS)


@dataclass(frozen=True)
class TrainConfig:
    """Ensemble training and patch tiling settings: the train block."""

    lr: float = 1e-3
    epochs: int = 200
    batch_size: int = 16
    dropout_rate: float = 0.1
    seed: int = 0
    ensemble_size: int = 8
    patch: int = 16
    stride: int = 8

    def __post_init__(self):
        _positive("train.lr", self.lr)
        _at_least("train.epochs", self.epochs, 1)
        _at_least("train.batch_size", self.batch_size, 1)
        _fraction("train.dropout_rate", self.dropout_rate)
        _at_least("train.seed", self.seed, 0)
        _at_least("train.ensemble_size", self.ensemble_size, 1)
        _at_least("train.patch", self.patch, 1)
        # a stride above the patch leaves pixels that no patch covers
        _check(1 <= self.stride <= self.patch, "train.stride", f"in [1, patch={self.patch}]", self.stride)


@dataclass(frozen=True)
class AnalysisBlock:
    policy: str = "background-noise"
    epsilon: float = 0.0
    target_p: float = 0.95
    delta_p: float = 0.04
    background_threshold: float = 0.1

    def __post_init__(self):
        _one_of("analysis.policy", self.policy, _POLICIES)
        _nonnegative("analysis.epsilon", self.epsilon)
        if self.policy == "explicit":
            _positive("analysis.epsilon", self.epsilon)
        _fraction("analysis.target_p", self.target_p)
        # reliability bins are ((m-1) delta_p, m delta_p] for m = 1 .. 1/delta_p
        inverse = 1.0 / self.delta_p if 1e-3 <= self.delta_p <= 1.0 else 0.0
        _check(
            math.isclose(round(inverse) * self.delta_p, 1.0, rel_tol=0.0, abs_tol=1e-12),
            "analysis.delta_p",
            "in [1e-3, 1] (at most 1,000 bins) with 1/delta_p an integer",
            self.delta_p,
        )
        _check(
            0.0 <= self.background_threshold <= 1.0,
            "analysis.background_threshold",
            "in [0, 1]",
            self.background_threshold,
        )


@dataclass(frozen=True)
class PathsBlock:
    simulate_dir: str = ""
    recon_dir: str = ""
    preprocess_dir: str = ""
    train_dir: str = ""
    predict_dir: str = ""
    analyze_dir: str = ""


@dataclass(frozen=True)
class ExperimentConfig:
    geometry: GeometryBlock | None = None
    optics: OpticsBlock | None = None
    phantom: PhantomBlock | None = None
    noise: NoiseBlock = NoiseBlock()
    sfpm: SfpmConfig = SfpmConfig()
    train: TrainConfig = TrainConfig()
    analysis: AnalysisBlock = AnalysisBlock()
    paths: PathsBlock = PathsBlock()

    def __post_init__(self):
        if self.optics is not None:
            n = self.optics.n_hires
            _check(self.train.patch <= n, "train.patch", f"<= optics.n_hires={n}", self.train.patch)


_BLOCK_TYPES = {
    "geometry": GeometryBlock,
    "optics": OpticsBlock,
    "phantom": PhantomBlock,
    "noise": NoiseBlock,
    "sfpm": SfpmConfig,
    "train": TrainConfig,
    "analysis": AnalysisBlock,
    "paths": PathsBlock,
}


def parse_blocks(text: str) -> dict[str, dict[str, str]]:
    """Blocks of the brace-block syntax, one level deep; values stay strings."""
    blocks: dict[str, dict[str, str]] = {}
    name, body = "", None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line == "}":
            if body is None:
                raise ConfigError(f"line {lineno}: unmatched '}}'")
            body = None
        elif line.endswith("{"):
            if body is not None:
                raise ConfigError(f"line {lineno}: block inside block {name!r}")
            name = line[:-1].strip()
            if not name:
                raise ConfigError(f"line {lineno}: block needs a name")
            if name in blocks:
                raise ConfigError(f"line {lineno}: duplicate block {name!r}")
            body = blocks[name] = {}
        else:
            parts = line.split(None, 1)
            if len(parts) != 2:
                raise ConfigError(f"line {lineno}: expected 'key value', got {line!r}")
            if body is None:
                raise ConfigError(f"line {lineno}: {line!r} is outside any block")
            key, value = parts
            if key in body:
                raise ConfigError(f"line {lineno}: duplicate key {key!r}")
            body[key] = value
    if body is not None:
        raise ConfigError(f"unclosed block {name!r}")
    return blocks


def _convert(block: str, key: str, kind: type, raw: str):
    try:
        return kind(raw)
    except ValueError:
        raise ConfigError(f"{block}.{key}: cannot read {raw!r} as {kind.__name__}")


_FIELD_TYPES = {"int": int, "float": float, "str": str}


def _build_block(name: str, raw: dict[str, str]):
    cls = _BLOCK_TYPES[name]
    field_map = {f.name: f for f in fields(cls)}
    values = {}
    for key, value in raw.items():
        if key not in field_map:
            raise ConfigError(f"unknown key {name}.{key}")
        values[key] = _convert(name, key, _FIELD_TYPES[field_map[key].type], value)
    for key, f in field_map.items():
        required = f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
        if key not in values and required:
            raise ConfigError(f"missing required key {name}.{key}")
    return cls(**values)


def parse_config(text: str) -> ExperimentConfig:
    blocks = {}
    for name, body in parse_blocks(text).items():
        if name not in _BLOCK_TYPES:
            raise ConfigError(f"unknown block {name!r}")
        blocks[name] = _build_block(name, body)
    return ExperimentConfig(**blocks)


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    return parse_config(text)


def canonical_text(cfg: ExperimentConfig) -> str:
    """Deterministic serialization used for hashing and manifests."""
    out = []
    for name in _BLOCK_TYPES:
        block = getattr(cfg, name)
        if block is None:
            continue
        out.append(f"{name} {{")
        for f in fields(block):
            value = getattr(block, f.name)
            if isinstance(value, str) and not value:
                continue  # empty path entries have no text form
            out.append(f"  {f.name} {value}")
        out.append("}")
    return "\n".join(out) + "\n"


def config_hash(cfg: ExperimentConfig) -> str:
    return hashlib.sha256(canonical_text(cfg).encode("utf-8")).hexdigest()
