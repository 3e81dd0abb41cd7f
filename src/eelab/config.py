"""JSON experiment configuration: defaults, validation, round-tripping.

A config file may specify any subset of the keys; defaults fill the
rest. Unknown keys are rejected, and every validation error names the
offending key path (e.g. "ladder.temperatures[1]"). The validated
config serializes back to JSON via to_dict(); reloading that JSON
yields an identical config.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from typing import Optional

from .eeladder import LadderConfig
from .errors import ConfigError
from .statespace import EnergyModel, LadderLevel, builtin_model
from .swcut import RegionModelConfig

EXPERIMENTS = (
    "run", "spectral", "segment", "q1", "q2", "q3", "q4", "swcut_vs_gibbs",
)


def _require(cond: bool, path: str, msg: str) -> None:
    if not cond:
        raise ConfigError(f"{path}: {msg}" if path else msg)


def _check_keys(d: dict, allowed: set[str], path: str) -> None:
    unknown = sorted(d.keys() - allowed)
    if unknown:
        raise ConfigError(f"unknown key {path}.{unknown[0]}" if path
                          else f"unknown key {unknown[0]}")


def _get_num(d: dict, key: str, path: str, lo=None, hi=None, integer=False):
    v = d[key]
    where = f"{path}.{key}" if path else key
    if integer:
        _require(isinstance(v, int) and not isinstance(v, bool),
                 where, f"expected an integer, got {v!r}")
    else:
        _require(isinstance(v, (int, float)) and not isinstance(v, bool),
                 where, f"expected a number, got {v!r}")
        v = float(v)
    if lo is not None:
        _require(v >= lo, where, f"must be >= {lo}, got {v}")
    if hi is not None:
        _require(v <= hi, where, f"must be <= {hi}, got {v}")
    return v


def _get_choice(d: dict, key: str, path: str, choices) -> str:
    v = d[key]
    _require(v in choices, f"{path}.{key}",
             f"must be one of {sorted(choices)}, got {v!r}")
    return v


def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for k, v in override.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _merge(out[k], v)
        else:
            out[k] = v
    return out


# ---------------------------------------------------------------------------
# Sections
# ---------------------------------------------------------------------------


@dataclass
class LadderSection:
    n_levels: int = 2
    temperature_ratio: float = 4.0
    temperatures: Optional[list[float]] = None
    truncation_min: float = 0.5
    truncation_step: float = 0.5
    truncations: Optional[list[float]] = None
    ring_boundaries: Optional[list[float]] = None
    burn_in: int = 1000
    p_jump: float = 0.1
    jump_mode: str = "restricted"
    schedule: str = "parallel"
    macro_steps: int = 100_000
    steps_per_level: int = 100_000
    max_records: Optional[int] = None
    init_state: Optional[int] = None

    @classmethod
    def from_dict(cls, d: dict, path: str = "ladder") -> "LadderSection":
        allowed = set(cls.__dataclass_fields__)
        _check_keys(d, allowed, path)
        sec = cls(**d)
        v = vars(sec)
        _get_num(v, "n_levels", path, lo=1, integer=True)
        for name in ("burn_in", "macro_steps", "steps_per_level"):
            _get_num(v, name, path, lo=0, integer=True)
        for name in ("temperature_ratio", "truncation_min", "truncation_step"):
            _get_num(v, name, path)
        _get_num(v, "p_jump", path, lo=0.0, hi=1.0)
        for name in ("max_records", "init_state"):
            if v[name] is not None:
                _get_num(v, name, path, lo=0, integer=True)
        _get_choice(v, "jump_mode", path, ("restricted", "unrestricted"))
        _get_choice(v, "schedule", path, ("parallel", "serial"))
        if sec.ring_boundaries is not None:
            b = sec.ring_boundaries
            _require(isinstance(b, list) and
                     all(isinstance(x, (int, float)) and not isinstance(x, bool)
                         for x in b),
                     f"{path}.ring_boundaries", "expected a list of numbers")
            _require(all(x <= y for x, y in zip(b, b[1:])),
                     f"{path}.ring_boundaries", f"must be sorted ascending, got {b}")
        for name in ("temperatures", "truncations"):
            _require(v[name] is None or isinstance(v[name], list), f"{path}.{name}",
                     f"expected a list or null, got {v[name]!r}")
        if sec.temperatures is not None:
            _require(len(sec.temperatures) >= 1, f"{path}.temperatures",
                     "must list at least the level-0 temperature")
            for i, t in enumerate(sec.temperatures):
                _require(isinstance(t, (int, float)) and not isinstance(t, bool)
                         and t >= 1.0, f"{path}.temperatures[{i}]",
                         f"temperature must be >= 1, got {t!r}")
            _require(sec.temperatures[0] == 1.0, f"{path}.temperatures[0]",
                     "level-0 temperature must be exactly 1")
            if "n_levels" in d:
                _require(sec.n_levels == len(sec.temperatures), f"{path}.n_levels",
                         f"is {sec.n_levels} but temperatures lists "
                         f"{len(sec.temperatures)} levels")
            sec.n_levels = len(sec.temperatures)
        if sec.truncations is not None:
            for i, x in enumerate(sec.truncations):
                _require(isinstance(x, (int, float)) and math.isfinite(x),
                         f"{path}.truncations[{i}]", f"must be finite, got {x!r}")
        return sec

    def levels(self) -> list[LadderLevel]:
        if self.temperatures is not None:
            temps = list(self.temperatures)
        else:
            temps = [self.temperature_ratio ** i for i in range(self.n_levels)]
        if self.truncations is not None:
            truncs = [-math.inf] + list(self.truncations)
            _require(len(truncs) == len(temps), "ladder.truncations",
                     f"need {len(temps) - 1} entries for {len(temps)} levels")
        else:
            truncs = [-math.inf] + [
                self.truncation_min + i * self.truncation_step
                for i in range(1, len(temps))
            ]
        return [LadderLevel(i, float(t), float(h))
                for i, (t, h) in enumerate(zip(temps, truncs))]

    def build(self, **overrides) -> LadderConfig:
        kw = dict(
            levels=self.levels(),
            burn_in=self.burn_in,
            p_jump=self.p_jump,
            jump_mode=self.jump_mode,
            schedule=self.schedule,
            macro_steps=self.macro_steps,
            steps_per_level=self.steps_per_level,
            ring_boundaries=self.ring_boundaries,
            max_records=self.max_records,
            init_state=self.init_state,
        )
        kw.update(overrides)
        return LadderConfig(**kw)


@dataclass
class ImageSection:
    kind: str = "two_region"
    width: int = 32
    height: int = 32
    means: list[float] = field(default_factory=lambda: [0.25, 0.75])
    noise_sd: float = 0.03
    layout: str = "halves"
    image_seed: int = 0
    path: Optional[str] = None

    @classmethod
    def from_dict(cls, d: dict, path: str) -> "ImageSection":
        _check_keys(d, set(cls.__dataclass_fields__), path)
        sec = cls(**d)
        v = vars(sec)
        _get_choice(v, "kind", path, ("two_region", "pgm"))
        if sec.kind == "pgm":
            _require(bool(sec.path), f"{path}.path", "required for kind 'pgm'")
        else:
            for name in ("width", "height"):
                _get_num(v, name, path, lo=1, integer=True)
            _get_num(v, "noise_sd", path, lo=0.0)
            _get_num(v, "image_seed", path, lo=0, integer=True)
            _require(isinstance(sec.means, list) and len(sec.means) >= 2 and
                     all(isinstance(m, (int, float)) and not isinstance(m, bool)
                         for m in sec.means),
                     f"{path}.means", "expected a list of at least 2 numbers")
            _get_choice(v, "layout", path, ("halves", "disk"))
        return sec


@dataclass
class SegmentationSection:
    image: ImageSection = field(default_factory=ImageSection)
    n_labels: int = 2
    beta: float = 0.3
    p_max: float = 0.97
    p_min: float = 0.02
    scale: float = 0.2
    region_mode: str = "fixed_means"
    sigma: float = 0.05
    means: list[float] = field(default_factory=lambda: [0.25, 0.75])
    order: int = 0
    sweeps: int = 2
    init: str = "threshold"
    sampler: str = "swcut"
    cluster_pick: str = "uniform"

    @classmethod
    def from_dict(cls, d: dict, path: str = "segmentation") -> "SegmentationSection":
        _check_keys(d, set(cls.__dataclass_fields__), path)
        d = dict(d)
        img = d.pop("image", None)
        sec = cls(**d)
        if img is not None:
            _require(isinstance(img, dict), f"{path}.image", "must be an object")
            sec.image = ImageSection.from_dict(
                _merge(asdict(ImageSection()), img), f"{path}.image"
            )
        v = vars(sec)
        _get_num(v, "n_labels", path, lo=2, integer=True)
        _get_num(v, "sweeps", path, lo=0, integer=True)
        _get_num(v, "order", path, lo=0, hi=2, integer=True)
        _get_num(v, "beta", path, lo=0.0)
        for name in ("p_max", "p_min", "scale", "sigma"):
            _get_num(v, name, path)
        _require(isinstance(sec.means, list) and
                 all(isinstance(m, (int, float)) and not isinstance(m, bool)
                     for m in sec.means),
                 f"{path}.means", "expected a list of numbers")
        _require(0 < sec.p_min <= sec.p_max < 1, f"{path}.p_max",
                 "need 0 < p_min <= p_max < 1")
        _require(sec.scale > 0, f"{path}.scale", "must be > 0")
        _require(sec.sigma > 0, f"{path}.sigma", "must be > 0")
        _get_choice(v, "region_mode", path, ("fixed_means", "poly_fit"))
        _get_choice(v, "init", path, ("threshold", "random"))
        _get_choice(v, "sampler", path, ("swcut", "gibbs"))
        _get_choice(v, "cluster_pick", path, ("uniform", "pixel"))
        if sec.region_mode == "fixed_means":
            _require(len(sec.means) >= sec.n_labels, f"{path}.means",
                     f"need {sec.n_labels} means")
        return sec

    def region_config(self) -> RegionModelConfig:
        if self.region_mode == "fixed_means":
            return RegionModelConfig(mode="fixed_means", sigma=self.sigma,
                                     means=tuple(self.means), order=self.order)
        return RegionModelConfig(mode="poly_fit", sigma=self.sigma,
                                 order=self.order)


_DEFAULT_MODEL = {
    "kind": "double_well_grid",
    "points": 41,
    "bounds": [-2.0, 2.0],
    "depth": 4.0,
}

_Q3_DEFAULTS = {"ledger_sizes": [100, 1000, 10000], "p_jump": 0.5}
_Q4_DEFAULTS = {"alpha": 0.5, "coarse_cells": 8}
_MIXING_DEFAULTS = {"max_sweeps": 20, "target_agreement": 0.95, "check_every": 16}


@dataclass
class ExperimentConfig:
    """Fully resolved experiment settings."""

    experiment: str
    seed: int = 20060815
    out: Optional[str] = None
    replicates: int = 20
    tv_checkpoints: int = 20
    model: dict = field(default_factory=lambda: dict(_DEFAULT_MODEL))
    ladder: LadderSection = field(default_factory=LadderSection)
    segmentation: SegmentationSection = field(default_factory=SegmentationSection)
    q3: dict = field(default_factory=lambda: dict(_Q3_DEFAULTS))
    q4: dict = field(default_factory=lambda: dict(_Q4_DEFAULTS))
    mixing: dict = field(default_factory=lambda: dict(_MIXING_DEFAULTS))

    def build_model(self) -> EnergyModel:
        params = dict(self.model)
        kind = params.pop("kind", None)
        _require(kind is not None, "model.kind", "is required")
        return builtin_model(kind, **params)

    def to_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "seed": self.seed,
            "out": self.out,
            "replicates": self.replicates,
            "tv_checkpoints": self.tv_checkpoints,
            "model": dict(self.model),
            "ladder": asdict(self.ladder),
            "segmentation": asdict(self.segmentation),
            "q3": dict(self.q3),
            "q4": dict(self.q4),
            "mixing": dict(self.mixing),
        }


def _check_model(model: dict) -> None:
    """Type-check the model parameters by key path; the value ranges are
    checked where the model is built."""
    kind = model.get("kind")
    _require(kind is None or isinstance(kind, str), "model.kind",
             f"must be a string, got {kind!r}")
    for key in ("points", "width", "height", "labels"):
        if key in model:
            _get_num(model, key, "model", integer=True)
    for key in ("depth", "beta"):
        if key in model:
            _get_num(model, key, "model")
    for key in ("weights", "energies", "means", "sds", "bounds"):
        v = model.get(key, [])
        _require(isinstance(v, list) and
                 all(isinstance(x, (int, float)) and not isinstance(x, bool)
                     for x in v),
                 f"model.{key}", f"must be a list of numbers, got {v!r}")
    if "bounds" in model:
        _require(len(model["bounds"]) == 2, "model.bounds",
                 f"must be [lo, hi], got {model['bounds']!r}")


def _section(raw: dict, key: str) -> dict:
    v = raw.get(key, {})
    _require(isinstance(v, dict), key, f"must be an object, got {v!r}")
    return v


_TOP_KEYS = {
    "experiment", "seed", "out", "replicates", "tv_checkpoints",
    "model", "ladder", "segmentation", "q3", "q4", "mixing",
}


def validate_config(raw: dict, experiment: Optional[str] = None) -> ExperimentConfig:
    """Validate a raw config dict (defaults applied) into an ExperimentConfig."""
    _require(isinstance(raw, dict), "", "config root must be a JSON object")
    _check_keys(raw, _TOP_KEYS, "")

    exp = raw.get("experiment", experiment)
    _require(exp is not None, "experiment",
             "missing (give it in the config or on the command line)")
    _require(exp in EXPERIMENTS, "experiment",
             f"must be one of {list(EXPERIMENTS)}, got {exp!r}")
    if experiment is not None and exp != experiment:
        raise ConfigError(
            f"experiment: config says {exp!r} but the command line says "
            f"{experiment!r}"
        )

    seed = _get_num(raw, "seed", "", lo=0, integer=True) if "seed" in raw else 20060815
    out = raw.get("out")
    if out is not None:
        _require(isinstance(out, str), "out", "must be a string path")
    replicates = (int(_get_num(raw, "replicates", "", lo=1, integer=True))
                  if "replicates" in raw else 20)
    tv_checkpoints = (int(_get_num(raw, "tv_checkpoints", "", lo=1, integer=True))
                      if "tv_checkpoints" in raw else 20)

    model = _merge(_DEFAULT_MODEL, _section(raw, "model"))
    if "kind" in raw.get("model", {}):
        model = dict(raw["model"])  # a new kind replaces the default params
    _check_model(model)

    ladder = LadderSection.from_dict(_section(raw, "ladder"))
    seg = SegmentationSection.from_dict(_section(raw, "segmentation"))

    q3 = _merge(_Q3_DEFAULTS, _section(raw, "q3"))
    _check_keys(q3, set(_Q3_DEFAULTS), "q3")
    _require(isinstance(q3["ledger_sizes"], list) and
             all(isinstance(v, int) and not isinstance(v, bool) and v >= 0
                 for v in q3["ledger_sizes"]),
             "q3.ledger_sizes", "must be a list of non-negative integers")
    _get_num(q3, "p_jump", "q3", lo=0.0, hi=1.0)

    q4 = _merge(_Q4_DEFAULTS, _section(raw, "q4"))
    _check_keys(q4, set(_Q4_DEFAULTS), "q4")
    _get_num(q4, "alpha", "q4", lo=0.0, hi=1.0)
    _get_num(q4, "coarse_cells", "q4", lo=1, integer=True)

    mixing = _merge(_MIXING_DEFAULTS, _section(raw, "mixing"))
    _check_keys(mixing, set(_MIXING_DEFAULTS), "mixing")
    _get_num(mixing, "max_sweeps", "mixing", lo=1, integer=True)
    _require(0.0 < _get_num(mixing, "target_agreement", "mixing", hi=1.0),
             "mixing.target_agreement", "must be in (0, 1]")
    _get_num(mixing, "check_every", "mixing", lo=1, integer=True)

    cfg = ExperimentConfig(
        experiment=exp, seed=seed, out=out, replicates=replicates,
        tv_checkpoints=tv_checkpoints, model=model, ladder=ladder,
        segmentation=seg, q3=q3, q4=q4, mixing=mixing,
    )
    cfg.build_model()  # surface model parameter errors now
    cfg.ladder.levels()
    return cfg


def load_config(path, experiment: Optional[str] = None) -> ExperimentConfig:
    """Load and validate a JSON config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    return validate_config(raw, experiment)
