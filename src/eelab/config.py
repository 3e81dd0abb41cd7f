"""JSON experiment configuration: defaults, validation, round-tripping.

A config file may specify any subset of the keys; defaults fill the
rest. Each leaf's default and rule (type, range or choices, whether it
may be null) are written once, as a Rule: in the field metadata of the
section dataclasses, and in the spec dicts of the dict sections (model,
q3, q4, mixing). One walker checks every leaf against its rule; the
sections add only the checks that span several fields. Unknown keys are
rejected, and every validation error names the offending key path
(e.g. "ladder.temperatures[1]"). Values are stored exactly as given.
The validated config serializes back to JSON via to_dict(); reloading
that JSON yields an identical config.
"""

from __future__ import annotations

import copy
import json
import math
import operator
from dataclasses import MISSING, asdict, dataclass, field, fields
from typing import Any, Optional

from .eeladder import LadderConfig, ring_table
from .errors import CapabilityError, ConfigError
from .netpbm import read_pgm
from .spectral import SPECTRAL_CAP
from .statespace import EnergyModel, LadderLevel, builtin_model, enumerate_distribution
from .swcut import Image, RegionModelConfig

EXPERIMENTS = (
    "run", "spectral", "segment", "q1", "q2", "q3", "q4", "swcut_vs_gibbs",
)

# Largest segmentation image, in pixels. Building SwCutSampler peaks at
# about 1 KB per pixel (tracemalloc: 977 B at 32x32, 1016 B at 64x64 with
# fixed means; 899 B and 940 B with poly_fit), so this is about 1 GiB
MAX_IMAGE_PIXELS = 2 ** 20
# Longest segment run, in steps (sweeps * pixels): its log-posterior trace
# holds one float64 per step, so this is 1 GiB
MAX_SEGMENT_STEPS = 2 ** 27
# Most rows a replicate experiment keeps until it writes them. A
# tv_curves.csv row takes about 136 B (tracemalloc), so this is about 1 GiB
MAX_KEPT_ROWS = 2 ** 23


def _require(cond: bool, path: str, msg: str) -> None:
    if not cond:
        raise ConfigError(f"{path}: {msg}" if path else msg)


def _check_keys(d: dict, allowed, path: str) -> None:
    unknown = sorted(d.keys() - allowed)
    if unknown:
        raise ConfigError(f"unknown key {path}.{unknown[0]}" if path
                          else f"unknown key {unknown[0]}")


# ---------------------------------------------------------------------------
# Leaf rules
# ---------------------------------------------------------------------------

_WHAT = {"int": "an integer", "num": "a number", "str": "a string",
         "ints": "a list of integers", "nums": "a list of numbers"}
_BOUNDS = (("ge", ">=", operator.ge), ("gt", ">", operator.gt),
           ("le", "<=", operator.le), ("lt", "<", operator.lt))


@dataclass(frozen=True)
class Rule:
    """One config leaf: its default and the values it may take.

    type is "int", "num" or "str", or "ints"/"nums" for a list whose
    entries the bounds apply to. Numbers must be finite and booleans are
    never numbers. A default of MISSING means the leaf has none.
    """

    type: str
    default: Any = field(default_factory=lambda: MISSING)  # MISSING: none
    ge: Optional[float] = None
    gt: Optional[float] = None
    le: Optional[float] = None
    lt: Optional[float] = None
    choices: tuple = ()
    nullable: bool = False
    min_len: int = 0


def _leaf(*args, **kwargs):
    """A dataclass field holding a Rule's default, with the Rule attached."""
    rule = Rule(*args, **kwargs)
    if isinstance(rule.default, list):
        return field(default_factory=lambda: list(rule.default),
                     metadata={"rule": rule})
    return field(default=rule.default, metadata={"rule": rule})


def _is(kind: str, v) -> bool:
    if kind == "str":
        return isinstance(v, str)
    if isinstance(v, bool):
        return False
    return isinstance(v, int) if kind == "int" else isinstance(v, (int, float))


def _check(rule: Rule, v, path: str):
    """Raise a ConfigError keyed by path unless v obeys rule; return v."""
    if v is None and rule.nullable:
        return v
    listed = rule.type in ("ints", "nums")
    ok = (isinstance(v, list) and all(_is(rule.type[:-1], x) for x in v)
          if listed else _is(rule.type, v))
    _require(ok, path, f"expected {_WHAT[rule.type]}"
             f"{' or null' if rule.nullable else ''}, got {v!r}")
    if not listed:
        _check_value(rule, v, path)
        return v
    _require(len(v) >= rule.min_len, path,
             f"needs at least {rule.min_len} entries, got {len(v)}")
    for i, x in enumerate(v):
        _check_value(rule, x, f"{path}[{i}]")
    return v


def _check_value(rule: Rule, v, path: str) -> None:
    if rule.choices:
        _require(v in rule.choices, path,
                 f"must be one of {sorted(rule.choices)}, got {v!r}")
    if isinstance(v, str):
        return
    _require(not isinstance(v, float) or math.isfinite(v), path,
             f"must be finite, got {v!r}")
    for name, op, holds in _BOUNDS:
        bound = getattr(rule, name)
        if bound is not None:
            _require(holds(v, bound), path, f"must be {op} {bound}, got {v!r}")


def _spec_defaults(spec: dict) -> dict:
    return {k: copy.copy(r.default) for k, r in spec.items()
            if r.default is not MISSING}


def _spec_field(spec: dict):
    """A dataclass field holding a dict section's defaults, with its spec."""
    return field(default_factory=lambda: _spec_defaults(spec),
                 metadata={"spec": spec})


def _section(cls):
    """A dataclass field holding a default cls, a nested section."""
    return field(default_factory=cls, metadata={"section": cls})


def _dict_section(spec: dict, given, path: str) -> dict:
    _require(isinstance(given, dict), path, f"must be an object, got {given!r}")
    _check_keys(given, spec, path)
    for k, v in given.items():
        _check(spec[k], v, f"{path}.{k}")
    # a new model kind replaces the default parameters
    return dict(given) if "kind" in given else {**_spec_defaults(spec), **given}


def _build(cls, given, path: str):
    """cls(**given), each given leaf checked against its rule, nested
    sections built the same way and dict sections merged over their
    defaults; then cls's checks that span several fields."""
    _require(isinstance(given, dict), path, f"must be an object, got {given!r}")
    _check_keys(given, cls.__dataclass_fields__, path)
    kw = {}
    for f in fields(cls):
        where = f"{path}.{f.name}" if path else f.name
        if "spec" in f.metadata:
            kw[f.name] = _dict_section(f.metadata["spec"], given.get(f.name, {}), where)
        elif f.name in given and "section" in f.metadata:
            kw[f.name] = _build(f.metadata["section"], given[f.name], where)
        elif f.name in given:
            kw[f.name] = _check(f.metadata["rule"], given[f.name], where)
    obj = cls(**kw)
    obj._check_across(path, given)
    return obj


# ---------------------------------------------------------------------------
# Sections
# ---------------------------------------------------------------------------


@dataclass
class LadderSection:
    n_levels: int = _leaf("int", 2, ge=1)
    temperature_ratio: float = _leaf("num", 4.0, ge=1)
    temperatures: Optional[list[float]] = _leaf("nums", None, ge=1, nullable=True,
                                                 min_len=1)
    truncation_min: float = _leaf("num", 0.5)
    truncation_step: float = _leaf("num", 0.5)
    truncations: Optional[list[float]] = _leaf("nums", None, nullable=True)
    ring_boundaries: Optional[list[float]] = _leaf("nums", None, nullable=True)
    burn_in: int = _leaf("int", 1000, ge=0)
    p_jump: float = _leaf("num", 0.1, ge=0.0, le=1.0)
    jump_mode: str = _leaf("str", "restricted", choices=("restricted", "unrestricted"))
    schedule: str = _leaf("str", "parallel", choices=("parallel", "serial"))
    macro_steps: int = _leaf("int", 100_000, ge=0)
    steps_per_level: int = _leaf("int", 100_000, ge=0)
    max_records: Optional[int] = _leaf("int", None, ge=0, nullable=True)
    init_state: Optional[int] = _leaf("int", None, ge=0, nullable=True)

    def _check_across(self, path: str, given: dict) -> None:
        b = self.ring_boundaries
        if b is not None:
            _require(all(x <= y for x, y in zip(b, b[1:])),
                     f"{path}.ring_boundaries", f"must be sorted ascending, got {b}")
        if self.temperatures is not None:
            _require(self.temperatures[0] == 1.0, f"{path}.temperatures[0]",
                     "level-0 temperature must be exactly 1")
            if "n_levels" in given:
                _require(self.n_levels == len(self.temperatures), f"{path}.n_levels",
                         f"is {self.n_levels} but temperatures lists "
                         f"{len(self.temperatures)} levels")
            self.n_levels = len(self.temperatures)

    def levels(self) -> list[LadderLevel]:
        if self.temperatures is not None:
            temps = list(self.temperatures)
        else:
            try:
                temps = [self.temperature_ratio ** i for i in range(self.n_levels)]
            except OverflowError:
                raise ConfigError(
                    f"ladder.temperature_ratio: {self.temperature_ratio} ** "
                    f"{self.n_levels - 1} overflows a float") from None
        if self.truncations is not None:
            truncs = [-math.inf] + list(self.truncations)
            _require(len(truncs) == len(temps), "ladder.truncations",
                     f"need {len(temps) - 1} entries for {len(temps)} levels")
        else:
            truncs = [-math.inf] + [
                self.truncation_min + i * self.truncation_step
                for i in range(1, len(temps))
            ]
        for i in range(1, len(temps)):
            _require(temps[i] > temps[i - 1], "ladder.temperature_ratio"
                     if self.temperatures is None else f"ladder.temperatures[{i}]",
                     f"level temperatures must strictly increase, got {temps[i]} "
                     f"at level {i} after {temps[i - 1]}")
            _require(truncs[i] >= truncs[i - 1], "ladder.truncation_step"
                     if self.truncations is None else f"ladder.truncations[{i - 1}]",
                     f"level truncations must not decrease, got {truncs[i]} "
                     f"at level {i} after {truncs[i - 1]}")
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
    kind: str = _leaf("str", "two_region", choices=("two_region", "pgm"))
    width: int = _leaf("int", 32, ge=1)
    height: int = _leaf("int", 32, ge=1)
    means: list[float] = _leaf("nums", [0.25, 0.75], min_len=2)
    noise_sd: float = _leaf("num", 0.03, ge=0.0)
    layout: str = _leaf("str", "halves", choices=("halves", "disk"))
    image_seed: int = _leaf("int", 0, ge=0)
    path: Optional[str] = _leaf("str", None, nullable=True)
    # (path, image) of the last read_pgm; not a field, so to_dict and ==
    # ignore it
    _read = None

    def _check_across(self, path: str, given: dict) -> None:
        if self.kind == "pgm":
            _require(bool(self.path), f"{path}.path", "required for kind 'pgm'")

    def pgm_image(self) -> Image:
        """The image the pgm file at path holds. validate_config reads it
        for a segment run, and later calls return that image until path
        changes, so the run does not parse the file a second time."""
        if self._read is None or self._read[0] != self.path:
            self._read = (self.path, read_pgm(self.path))
        return self._read[1]


@dataclass
class SegmentationSection:
    image: ImageSection = _section(ImageSection)
    n_labels: int = _leaf("int", 2, ge=2)
    beta: float = _leaf("num", 0.3, ge=0.0)
    p_max: float = _leaf("num", 0.97, gt=0.0, lt=1.0)
    p_min: float = _leaf("num", 0.02, gt=0.0, lt=1.0)
    scale: float = _leaf("num", 0.2, gt=0.0)
    region_mode: str = _leaf("str", "fixed_means", choices=("fixed_means", "poly_fit"))
    sigma: float = _leaf("num", 0.05, gt=0.0)
    means: list[float] = _leaf("nums", [0.25, 0.75])
    order: int = _leaf("int", 0, ge=0, le=2)
    sweeps: int = _leaf("int", 2, ge=0)
    init: str = _leaf("str", "threshold", choices=("threshold", "random"))
    sampler: str = _leaf("str", "swcut", choices=("swcut", "gibbs"))
    cluster_pick: str = _leaf("str", "uniform", choices=("uniform", "pixel"))

    def _check_across(self, path: str, given: dict) -> None:
        _require(self.p_min <= self.p_max, f"{path}.p_max",
                 f"must be >= p_min ({self.p_min}), got {self.p_max}")
        if self.region_mode == "fixed_means":
            means = self.means[:self.n_labels]
            _require(len(means) == self.n_labels, f"{path}.means",
                     f"need {self.n_labels} means")
            _require(all(0.0 <= m <= 1.0 for m in means), f"{path}.means",
                     f"the first {self.n_labels} must lie in [0, 1], the "
                     f"intensity range, got {means}")
        # with the leaves and means checked, only sigma can be refused here
        try:
            self.region_config()
        except ConfigError as exc:
            raise ConfigError(f"{path}.sigma: {exc}") from None

    def check_scales(self, width: int, height: int) -> None:
        """Refuse a beta or sigma with which the log posterior of a width x
        height image overflows. With intensities and means in [0, 1] its
        Potts term is at most beta * n_edges, and its likelihood term at most
        n_pixels * d / (2 sigma^2), d <= 1 the largest max(m^2, (1 - m)^2)
        over the label means (1 with poly_fit); floats overflow to inf."""
        n_pixels = width * height
        n_edges = 2 * n_pixels - width - height
        _require(self.beta * n_edges < math.inf, "segmentation.beta",
                 f"beta * {n_edges} edges overflows the log posterior, "
                 f"got {self.beta!r}")
        means = self.means[:self.n_labels] if self.region_mode == "fixed_means" else []
        d = max([max(m * m, (1.0 - m) * (1.0 - m)) for m in means], default=1.0)
        two_var = 2.0 * self.sigma * self.sigma
        _require(n_pixels * d / two_var < math.inf, "segmentation.sigma",
                 f"n_pixels * d / (2 sigma^2) overflows the log posterior "
                 f"({n_pixels} pixels, d = {d!r} from the means, "
                 f"sigma = {self.sigma!r})")

    def region_config(self) -> RegionModelConfig:
        if self.region_mode == "fixed_means":
            return RegionModelConfig(mode="fixed_means", sigma=self.sigma,
                                     means=tuple(self.means), order=self.order)
        return RegionModelConfig(mode="poly_fit", sigma=self.sigma,
                                 order=self.order)


# Parameter types by name; builtin_model checks which a kind takes and
# their ranges. Leaves with a default make up the default model.
_MODEL = {
    "kind": Rule("str", "double_well_grid"),
    "points": Rule("int", 41),
    "bounds": Rule("nums", [-2.0, 2.0]),
    "depth": Rule("num", 4.0),
    **{k: Rule("int") for k in ("width", "height", "labels")},
    "beta": Rule("num"),
    **{k: Rule("nums") for k in ("weights", "energies", "means", "sds")},
}
_Q3 = {"ledger_sizes": Rule("ints", [100, 1000, 10000], ge=0),
       "p_jump": Rule("num", 0.5, ge=0.0, le=1.0)}
_Q4 = {"alpha": Rule("num", 0.5, ge=0.0, le=1.0),
       "coarse_cells": Rule("int", 8, ge=2)}
_MIXING = {"max_sweeps": Rule("int", 20, ge=1),
           "target_agreement": Rule("num", 0.95, gt=0.0, le=1.0),
           "check_every": Rule("int", 16, ge=1)}


@dataclass
class ExperimentConfig:
    """Fully resolved experiment settings."""

    experiment: str = _leaf("str", choices=EXPERIMENTS)
    seed: int = _leaf("int", 20060815, ge=0)
    out: Optional[str] = _leaf("str", None, nullable=True)
    replicates: int = _leaf("int", 20, ge=1)
    tv_checkpoints: int = _leaf("int", 20, ge=1)
    model: dict = _spec_field(_MODEL)
    ladder: LadderSection = _section(LadderSection)
    segmentation: SegmentationSection = _section(SegmentationSection)
    q3: dict = _spec_field(_Q3)
    q4: dict = _spec_field(_Q4)
    mixing: dict = _spec_field(_MIXING)
    # (model section, model) of the last build_model; not a field, so
    # to_dict and == ignore it
    _built = None

    def _check_across(self, path: str, given: dict) -> None:
        bounds = self.model.get("bounds")
        _require(bounds is None or len(bounds) == 2, "model.bounds",
                 f"must be [lo, hi], got {bounds!r}")
        steps = self.ladder.macro_steps, self.ladder.steps_per_level
        _require(self.experiment != "q2" or steps[0] == steps[1],
                 "ladder.steps_per_level", f"q2 compares the schedules at one "
                 f"step budget, so it must equal ladder.macro_steps ({steps[0]}), "
                 f"got {steps[1]}")
        if self.experiment in ("q1", "q2"):
            # the leaf the schedule reads; q2 runs both at macro_steps
            serial = self.experiment == "q1" and self.ladder.schedule == "serial"
            key = "steps_per_level" if serial else "macro_steps"
            n = getattr(self.ladder, key)
            _require(n > 0, f"ladder.{key}", f"{self.experiment} measures its "
                     f"chains' steps, so it needs at least 1, got {n}")
        levels = self.ladder.n_levels
        _require(self.experiment not in ("q3", "q4", "spectral") or levels >= 2,
                 "ladder.n_levels",
                 f"{self.experiment} needs at least 2 levels, got {levels}")
        # the rows one replicate keeps, and the leaf that sets them: a curve
        # of tv_checkpoints rows and a passage row per q1/q2 arm, a row per
        # q3 ledger size, a row per swcut_vs_gibbs sampler
        curve = ("tv_checkpoints", 2 * (self.tv_checkpoints + 1))
        leaf, per = {"q1": curve, "q2": curve,
                     "q3": ("q3.ledger_sizes", len(self.q3["ledger_sizes"])),
                     "swcut_vs_gibbs": ("replicates", 2)}.get(self.experiment,
                                                              (None, 0))
        if per:
            _require(per <= MAX_KEPT_ROWS, leaf, f"{self.experiment} would keep "
                     f"{per} rows per replicate, more than {MAX_KEPT_ROWS}")
            _require(self.replicates * per <= MAX_KEPT_ROWS, "replicates",
                     f"must be at most {MAX_KEPT_ROWS // per}: {self.experiment} "
                     f"keeps {per} rows per replicate, and at most {MAX_KEPT_ROWS} "
                     f"in all, got {self.replicates}")
        kind = self.segmentation.image.kind
        _require(self.experiment != "swcut_vs_gibbs" or kind == "two_region",
                 "segmentation.image.kind", f"swcut_vs_gibbs needs a synthetic "
                 f"two_region image, got {kind!r}")

    def build_model(self) -> EnergyModel:
        """The model the model section describes. validate_config builds
        it, and later calls return that model until the section changes,
        so an experiment does not fill the energy table a second time."""
        if self._built is not None and self._built[0] == self.model:
            return self._built[1]
        params = dict(self.model)
        kind = params.pop("kind", None)
        _require(kind is not None, "model.kind", "is required")
        model = builtin_model(kind, **params)
        self._built = (copy.deepcopy(self.model), model)
        return model

    def to_dict(self) -> dict:
        return asdict(self)


def validate_config(raw: dict, experiment: Optional[str] = None) -> ExperimentConfig:
    """Validate a raw config dict (defaults applied) into an ExperimentConfig."""
    _require(isinstance(raw, dict), "", "config root must be a JSON object")
    exp = raw.get("experiment", experiment)
    _require(exp is not None, "experiment",
             "missing (give it in the config or on the command line)")
    if experiment is not None and exp != experiment:
        raise ConfigError(
            f"experiment: config says {exp!r} but the command line says "
            f"{experiment!r}"
        )
    cfg = _build(ExperimentConfig, {**raw, "experiment": exp}, "")
    # the leaves that set the model's state count
    size_key = {"potts_grid": "model.labels ** (model.width * model.height)",
                "table": "model.weights", "energy_table": "model.energies",
                }.get(cfg.model.get("kind"), "model.points")
    try:
        model = cfg.build_model()  # surface model parameter errors now
    except ConfigError as exc:
        raise ConfigError(f"model: {exc}") from None
    except CapabilityError as exc:
        raise ConfigError(f"{size_key}: {exc}") from None
    _require(exp not in ("spectral", "q4") or model.size <= SPECTRAL_CAP, size_key,
             f"the dense eigensolver is capped at {SPECTRAL_CAP} states, got "
             f"{model.size}")
    # q1 and q2 find a start and a target basin in the line's quarters; a
    # spectrum's gap needs a second eigenvalue
    need = {"q1": 4, "q2": 4, "spectral": 2, "q4": 2}.get(exp, 1)
    _require(model.size >= need, "model",
             f"{exp} needs a model with >= {need} states, got {model.size}")
    _require(exp not in ("q1", "q2") or model.kind != "potts_grid", "model.kind",
             f"{exp} reads states as points on a line, not potts_grid labelings")
    image = cfg.segmentation.image
    if exp == "segment" and image.kind == "pgm":
        try:
            image = image.pgm_image()  # a missing or malformed file is refused here
        except (OSError, ConfigError) as exc:
            raise ConfigError(f"segmentation.image.path: {exc}") from None
    if exp in ("segment", "swcut_vs_gibbs"):
        leaf = ("path" if cfg.segmentation.image.kind == "pgm"
                else "width" if image.width >= image.height else "height")
        _require(image.width * image.height <= MAX_IMAGE_PIXELS,
                 f"segmentation.image.{leaf}", f"width * height must be at most "
                 f"{MAX_IMAGE_PIXELS} pixels, got {image.width} x {image.height}")
        cfg.segmentation.check_scales(image.width, image.height)
        sweeps = cfg.segmentation.sweeps
        _require(exp != "segment" or sweeps * image.width * image.height
                 <= MAX_SEGMENT_STEPS, "segmentation.sweeps", f"sweeps * width * "
                 f"height must be at most {MAX_SEGMENT_STEPS} steps, one float64 "
                 f"of log-posterior trace each, got {sweeps} x {image.width} x "
                 f"{image.height}")
    levels = cfg.ladder.levels()
    if exp in ("spectral", "q4"):
        # the MIS kernel and the spectra divide by both laws
        for lv in levels[:2]:
            zero = int((enumerate_distribution(model, lv).probs == 0).sum())
            _require(zero == 0, "model",
                     f"{exp} needs the level-{lv.index} law positive, but it "
                     f"underflows to 0 at {zero} of {model.size} states")
    if exp == "q3" and cfg.q3["p_jump"] == 1:
        # jumps never leave their ring, so with no local move the chains of
        # two or more rings have no unique stationary law
        rings = len(set(ring_table(model.energies(),
                                   cfg.ladder.build().jump_boundaries()).tolist()))
        _require(rings == 1, "q3.p_jump",
                 f"1 leaves no local move, and jumps never leave their ring: "
                 f"the ring boundaries put the model's states in {rings} rings, "
                 f"so the chain has no unique stationary law (use p_jump < 1, "
                 f"or one ring: jump_mode unrestricted or no ring boundaries)")
    init = cfg.ladder.init_state
    _require(init is None or init < model.size, "ladder.init_state",
             f"must be < {model.size}, the model's state count, got {init}")
    return cfg


def read_config(path):
    """The raw JSON value of a config file, not yet validated."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None


def load_config(path, experiment: Optional[str] = None) -> ExperimentConfig:
    """Load and validate a JSON config file."""
    return validate_config(read_config(path), experiment)
