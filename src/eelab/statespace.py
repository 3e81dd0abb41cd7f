"""State spaces, energy tables, tempered/truncated level densities.

States of every built-in model are integer indices 0..N-1 in a stable
order. An energy model is a table of the finite energy h(x) of every
state, filled when the model is built; a space larger than the
enumeration cap is refused then, before it is enumerated. The target
distribution is pi(x) proportional to exp(-h(x)). A ladder level
(T, H) defines the flattened density q(x) proportional to
exp(-max(h(x), H) / T), so level 0 with T=1, H=-inf is exactly pi.

All normalization happens in the log domain via log-sum-exp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import CapabilityError, ConfigError, DomainError, ShapeError

DEFAULT_ENUM_CAP = 2 ** 20

PROB_SUM_TOL = 1e-12


# ---------------------------------------------------------------------------
# Core types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LadderLevel:
    """One rung of the distribution ladder.

    index 0 is the target itself and must have temperature 1 and an
    inactive truncation (H = -inf).
    """

    index: int
    temperature: float
    truncation: float

    def __post_init__(self):
        if self.index < 0:
            raise ConfigError(f"level index must be >= 0, got {self.index}")
        if not math.isfinite(self.temperature) or self.temperature < 1.0:
            raise ConfigError(
                f"level {self.index}: temperature must be >= 1, got {self.temperature}"
            )
        if self.index == 0:
            if self.temperature != 1.0:
                raise ConfigError("level 0 must have temperature exactly 1")
            if self.truncation != -math.inf:
                raise ConfigError("level 0 must have truncation -inf")
        elif math.isnan(self.truncation):
            raise ConfigError(f"level {self.index}: truncation is NaN")


def validate_ladder(levels: list[LadderLevel]) -> None:
    """Check indices are 0..K-1 with T strictly increasing, H non-decreasing."""
    if not levels:
        raise ConfigError("ladder needs at least one level")
    for i, lv in enumerate(levels):
        if lv.index != i:
            raise ConfigError(f"ladder levels out of order at position {i}")
    for a, b in zip(levels, levels[1:]):
        if not b.temperature > a.temperature:
            raise ConfigError(
                f"temperatures must be strictly increasing "
                f"(level {b.index}: {b.temperature} <= {a.temperature})"
            )
        if b.truncation < a.truncation:
            raise ConfigError(
                f"truncations must be non-decreasing (level {b.index})"
            )


def geometric_ladder(
    n_levels: int,
    ratio: float = 2.0,
    h_min: float = 0.0,
    dh: float = 1.0,
) -> list[LadderLevel]:
    """Default ladder: T_i = ratio**i, H_i = h_min + i*dh (i >= 1)."""
    if n_levels < 1:
        raise ConfigError("n_levels must be >= 1")
    if ratio <= 1.0:
        raise ConfigError("temperature ratio must be > 1")
    if dh < 0:
        raise ConfigError("truncation step dh must be >= 0")
    levels = [LadderLevel(0, 1.0, -math.inf)]
    for i in range(1, n_levels):
        levels.append(LadderLevel(i, ratio ** i, h_min + i * dh))
    return levels


@dataclass(frozen=True)
class FiniteDistribution:
    """Exact probability vector over states 0..N-1."""

    probs: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=np.float64)
        if probs.ndim != 1:
            raise ShapeError(f"probs must be 1-D, got shape {probs.shape}")
        if np.any(probs < 0):
            raise ConfigError("probabilities must be non-negative")
        if not abs(probs.sum() - 1.0) <= PROB_SUM_TOL:  # a NaN fails
            raise ConfigError(
                f"probabilities must sum to 1 within {PROB_SUM_TOL}, "
                f"got {probs.sum()!r}"
            )
        object.__setattr__(self, "probs", probs)

    def __len__(self) -> int:
        return len(self.probs)

    @classmethod
    def from_logweights(cls, logweights) -> "FiniteDistribution":
        """Normalize exp(logweights) with the max exponent subtracted first."""
        lw = np.asarray(logweights, dtype=np.float64)
        w = np.exp(lw - lw.max())
        return cls(w / w.sum())


# ---------------------------------------------------------------------------
# Energy models
# ---------------------------------------------------------------------------


@dataclass
class EnergyModel:
    """A materialised energy table over states 0..N-1.

    h holds the energy of every state; neighbor_fn returns a fixed-length
    tuple of proposal candidates for the local random-walk move, with
    None marking out-of-range slots that count as automatic rejections.
    A table holding an infinite or NaN energy is refused.
    """

    kind: str
    h: np.ndarray
    neighbor_fn: Callable[[int], tuple]

    def __post_init__(self):
        bad = np.flatnonzero(~np.isfinite(self.h))
        if len(bad):
            raise ConfigError(f"{self.kind} energies must be finite, got "
                              f"{self.h[bad[0]]} at state {bad[0]}")

    @property
    def size(self) -> int:
        return len(self.h)

    def check_state(self, state: int) -> None:
        if not (0 <= state < self.size):
            raise DomainError(
                f"state {state} outside space of size {self.size} ({self.kind})"
            )

    def energies(self) -> np.ndarray:
        """Energy of every state."""
        return self.h

    def neighbors(self, state: int) -> tuple:
        self.check_state(state)
        return self.neighbor_fn(state)


def level_logdensities(model: EnergyModel, level: LadderLevel) -> np.ndarray:
    """log q_i(x) = -max(h(x), H_i) / T_i, unnormalized, for every state."""
    return -np.maximum(model.h, level.truncation) / level.temperature


def enumerate_distribution(
    model: EnergyModel, level: LadderLevel
) -> FiniteDistribution:
    """Exact normalized level distribution over all states."""
    logd = level_logdensities(model, level)
    return FiniteDistribution.from_logweights(logd)


# ---------------------------------------------------------------------------
# Built-in model kinds
# ---------------------------------------------------------------------------


def _refuse_above_cap(kind: str, size: int, enum_cap: int) -> None:
    if size > enum_cap:
        raise CapabilityError(f"{kind} model with {size} states is above the "
                              f"enumeration cap {enum_cap}")


def _path_model(kind: str, h: np.ndarray) -> EnergyModel:
    """States 0..n-1 with energies h, the local move proposing either
    neighbour on the path."""
    n = len(h)
    return EnergyModel(kind, h, lambda s: (s - 1 if s > 0 else None,
                                           s + 1 if s < n - 1 else None))


def _grid(kind: str, points: int, bounds, enum_cap: int) -> np.ndarray:
    """The points of a 1-D grid over [lo, hi], refused above the cap."""
    if points < 2:
        raise ConfigError(f"{kind} needs points >= 2")
    lo, hi = float(bounds[0]), float(bounds[1])
    if not lo < hi:
        raise ConfigError(f"{kind} bounds must satisfy lo < hi")
    _refuse_above_cap(kind, points, enum_cap)
    return np.linspace(lo, hi, points)


def _table_model(weights, enum_cap: int) -> EnergyModel:
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1 or len(w) < 1:
        raise ConfigError("table weights must be a non-empty 1-D sequence")
    if np.any(~np.isfinite(w)) or np.any(w <= 0):
        raise ConfigError("table weights must be finite and > 0")
    _refuse_above_cap("table", len(w), enum_cap)
    return _path_model("table", -np.log(w))


def _energy_table_model(energies, enum_cap: int) -> EnergyModel:
    h = np.asarray(energies, dtype=np.float64)
    if h.ndim != 1 or len(h) < 1:
        raise ConfigError("energy table must be a non-empty 1-D sequence")
    _refuse_above_cap("energy_table", len(h), enum_cap)
    return _path_model("energy_table", h)


def _double_well_grid(points: int, bounds, enum_cap: int, depth: float = 1.0) -> EnergyModel:
    xs = _grid("double_well_grid", points, bounds, enum_cap)
    if depth <= 0:
        raise ConfigError("double_well_grid depth must be > 0")
    return _path_model("double_well_grid", depth * (xs ** 2 - 1.0) ** 2)


def _gaussian_mixture_grid(means, sds, weights, points: int, bounds,
                           enum_cap: int) -> EnergyModel:
    means = np.asarray(means, dtype=np.float64)
    sds = np.asarray(sds, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if not (len(means) == len(sds) == len(weights)) or len(means) == 0:
        raise ConfigError("gaussian_mixture_grid: means/sds/weights lengths differ")
    if np.any(sds <= 0):
        raise ConfigError("gaussian_mixture_grid: sds must be > 0")
    if np.any(weights <= 0):
        raise ConfigError("gaussian_mixture_grid: weights must be > 0")
    xs = _grid("gaussian_mixture_grid", points, bounds, enum_cap)
    # h = -log sum_k w_k phi((x-m_k)/s_k)/s_k, computed stably in the log domain
    z = (xs[:, None] - means[None, :]) / sds[None, :]
    logcomp = np.log(weights[None, :] / sds[None, :]) - 0.5 * z ** 2
    m = logcomp.max(axis=1)
    h = -(m + np.log(np.exp(logcomp - m[:, None]).sum(axis=1)))
    return _path_model("gaussian_mixture_grid", h)


def lattice_edges(width: int, height: int) -> tuple[np.ndarray, np.ndarray]:
    """4-neighborhood edge endpoints as flat indices (no wraparound)."""
    idx = np.arange(width * height).reshape(height, width)
    ei = np.concatenate([idx[:, :-1].reshape(-1), idx[:-1, :].reshape(-1)])
    ej = np.concatenate([idx[:, 1:].reshape(-1), idx[1:, :].reshape(-1)])
    return ei, ej


def potts_agreements(lab: np.ndarray) -> np.ndarray:
    """The number of agreeing 4-neighbor pairs of the labeling (or of each
    labeling) held in the last two axes, rows by columns, of lab."""
    return ((lab[..., :, :-1] == lab[..., :, 1:]).sum(axis=(-2, -1))
            + (lab[..., :-1, :] == lab[..., 1:, :]).sum(axis=(-2, -1)))


def labelings(codes, labels: int, width: int, height: int) -> np.ndarray:
    """The labelings numbered by codes, as a (len(codes), height, width)
    array of labels 0..labels-1 in the smallest dtype that holds them: code
    x = sum of lab[s] * labels**s over flat sites s = row * width + column."""
    rest = np.asarray(codes)  # an object array for codes beyond int64
    digits = np.empty((len(rest), width * height), np.min_scalar_type(labels - 1))
    for s in range(width * height):
        rest, digits[:, s] = rest // labels, rest % labels
    return digits.reshape(-1, height, width)


def labeling_code(lab, labels: int) -> int:
    """The code of one labeling of 0..labels-1 (the inverse of labelings)."""
    return sum(v * labels ** s for s, v in enumerate(np.ravel(lab).tolist()))


def labeling_model(kind: str, width: int, height: int, labels: int,
                   logweights: Callable[[np.ndarray], np.ndarray],
                   enum_cap: int) -> EnergyModel:
    """The N labelings of a width x height grid as states (x is the one of
    code x), with energies -logweights(lab) for the (N, height, width) array
    lab of them all and single-site relabelings, site by site and label by
    label, as local moves; refused above enum_cap before anything is built."""
    n_sites = width * height
    # with labels >= 2, more sites than enum_cap has bits are over the cap,
    # and labels ** n_sites may be too large to compute
    if labels > 1 and n_sites > enum_cap.bit_length():
        raise CapabilityError(f"{kind} model with {labels}**{n_sites} states is "
                              f"above the enumeration cap {enum_cap}")
    size = labels ** n_sites
    _refuse_above_cap(kind, size, enum_cap)
    lab = labelings(np.arange(size), labels, width, height)
    h = np.asarray(-logweights(lab), dtype=np.float64)
    rows = lab.reshape(size, n_sites)
    powers = [labels ** s for s in range(n_sites)]
    return EnergyModel(kind, h, lambda x: tuple(
        x + (v - cur) * p for cur, p in zip(rows[x].tolist(), powers)
        for v in range(labels) if v != cur))


def _potts_grid(width: int, height: int, labels: int, beta: float,
                enum_cap: int) -> EnergyModel:
    if width < 1 or height < 1:
        raise ConfigError("potts_grid needs width, height >= 1")
    if labels < 2:
        raise ConfigError("potts_grid needs labels >= 2")
    if beta < 0:
        raise ConfigError("potts_grid needs beta >= 0")
    return labeling_model("potts_grid", width, height, labels,
                          lambda lab: beta * potts_agreements(lab), enum_cap)


# kind: (builder, required parameters, optional parameters)
_MODEL_KINDS = {
    "table": (_table_model, {"weights"}, set()),
    "energy_table": (_energy_table_model, {"energies"}, set()),
    "double_well_grid": (_double_well_grid, {"points", "bounds"}, {"depth"}),
    "gaussian_mixture_grid": (_gaussian_mixture_grid,
                              {"means", "sds", "weights", "points", "bounds"}, set()),
    "potts_grid": (_potts_grid, {"width", "height", "labels", "beta"}, set()),
}


def builtin_model(kind: str, enum_cap: int = DEFAULT_ENUM_CAP, **params) -> EnergyModel:
    """Construct one of the built-in model kinds.

    Kinds: table(weights), energy_table(energies),
    double_well_grid(points, bounds, depth=1),
    gaussian_mixture_grid(means, sds, weights, points, bounds),
    potts_grid(width, height, labels, beta).

    Raises CapabilityError, before enumerating, for a space of more than
    enum_cap states, and ConfigError for parameters whose energy table is
    not finite. numpy's floating-point warnings are off while the table is
    filled, since an overflow or NaN there ends in that refusal.
    """
    if enum_cap < 1:
        raise ConfigError("enum_cap must be >= 1")
    if kind not in _MODEL_KINDS:
        raise ConfigError(f"unknown model kind {kind!r}")
    build, required, optional = _MODEL_KINDS[kind]
    missing = required - params.keys()
    if missing:
        raise ConfigError(f"model kind {kind!r} missing parameters {sorted(missing)}")
    unknown = params.keys() - required - optional
    if unknown:
        raise ConfigError(f"model kind {kind!r} got unknown parameters {sorted(unknown)}")
    with np.errstate(all="ignore"):
        return build(enum_cap=enum_cap, **params)
