"""State spaces, energy functions, tempered/truncated level densities.

States of every built-in model are integer indices 0..N-1 in a stable
order. An energy model assigns a finite energy h(x) to each state; the
target distribution is pi(x) proportional to exp(-h(x)). A ladder level
(T, H) defines the flattened density q(x) proportional to
exp(-max(h(x), H) / T), so level 0 with T=1, H=-inf is exactly pi.

All normalization happens in the log domain via log-sum-exp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import (
    CapabilityError,
    ConfigError,
    DomainError,
    EmptyRingError,
    ShapeError,
)

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
    """Exact probability vector over an ordered subset of state indices."""

    states: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        states = np.asarray(self.states, dtype=np.int64)
        probs = np.asarray(self.probs, dtype=np.float64)
        if states.shape != probs.shape or states.ndim != 1:
            raise ShapeError("states and probs must be 1-D and equal length")
        if np.any(probs < 0):
            raise ConfigError("probabilities must be non-negative")
        if abs(probs.sum() - 1.0) > PROB_SUM_TOL:
            raise ConfigError(
                f"probabilities must sum to 1 within {PROB_SUM_TOL}, "
                f"got {probs.sum()!r}"
            )
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "probs", probs)

    def __len__(self) -> int:
        return len(self.states)

    @classmethod
    def from_weights(cls, states, weights) -> "FiniteDistribution":
        w = np.asarray(weights, dtype=np.float64)
        if np.any(w < 0) or w.sum() <= 0:
            raise ConfigError("weights must be non-negative with positive sum")
        return cls(np.asarray(states), w / w.sum())

    @classmethod
    def from_logweights(cls, states, logweights) -> "FiniteDistribution":
        """Normalize exp(logweights) with the max exponent subtracted first."""
        lw = np.asarray(logweights, dtype=np.float64)
        w = np.exp(lw - lw.max())
        return cls(np.asarray(states), w / w.sum())


# ---------------------------------------------------------------------------
# Energy models
# ---------------------------------------------------------------------------


@dataclass
class EnergyModel:
    """An energy function over an indexed state space.

    size is the total state count (may exceed the enumeration cap);
    enumerable is True when exact enumeration is allowed. neighbor_fn
    returns a fixed-length tuple of proposal candidates for the local
    random-walk move, with None marking out-of-range slots that count
    as automatic rejections.
    """

    kind: str
    size: int
    energy_fn: Callable[[int], float]
    neighbor_fn: Callable[[int], tuple]
    proposal_size: int
    enumerable: bool
    meta: dict = field(default_factory=dict)
    _energies: Optional[np.ndarray] = field(default=None, repr=False)

    def check_state(self, state: int) -> None:
        if not (0 <= state < self.size):
            raise DomainError(
                f"state {state} outside space of size {self.size} ({self.kind})"
            )

    def energy(self, state: int) -> float:
        self.check_state(state)
        if self._energies is not None:
            return float(self._energies[state])
        return float(self.energy_fn(state))

    def energies(self) -> np.ndarray:
        """Energy of every state (enumerable models only)."""
        if not self.enumerable:
            raise CapabilityError(
                f"{self.kind} model with {self.size} states is above the "
                "enumeration cap"
            )
        if self._energies is None:
            self._energies = np.array(
                [self.energy_fn(s) for s in range(self.size)], dtype=np.float64
            )
        return self._energies

    def neighbors(self, state: int) -> tuple:
        self.check_state(state)
        return self.neighbor_fn(state)


def energy(model: EnergyModel, state: int) -> float:
    """h(state); raises DomainError outside the space."""
    return model.energy(state)


def level_logdensity(model: EnergyModel, level: LadderLevel, state: int) -> float:
    """log q_i(x) = -max(h(x), H_i) / T_i, unnormalized."""
    h = model.energy(state)
    return -max(h, level.truncation) / level.temperature


def level_logdensities(model: EnergyModel, level: LadderLevel) -> np.ndarray:
    """Vectorized log q_i over the whole (enumerable) space."""
    h = model.energies()
    return -np.maximum(h, level.truncation) / level.temperature


def enumerate_distribution(
    model: EnergyModel, level: LadderLevel
) -> FiniteDistribution:
    """Exact normalized level distribution over all states."""
    logd = level_logdensities(model, level)
    return FiniteDistribution.from_logweights(np.arange(model.size), logd)


def truncate_to_ring(
    dist: FiniteDistribution, model: EnergyModel, lo: float, hi: float
) -> FiniteDistribution:
    """Restrict dist to states with h(x) in [lo, hi) and renormalize."""
    h = np.array([model.energy(int(s)) for s in dist.states])
    mask = (h >= lo) & (h < hi)
    if not mask.any():
        raise EmptyRingError(f"no state of the distribution has energy in [{lo}, {hi})")
    if mask.all():
        return dist
    probs = dist.probs[mask]
    total = probs.sum()
    if total <= 0:
        raise EmptyRingError(
            f"states in [{lo}, {hi}) carry zero probability mass"
        )
    return FiniteDistribution(dist.states[mask], probs / total)


# ---------------------------------------------------------------------------
# Built-in model kinds
# ---------------------------------------------------------------------------


def _path_neighbor_fn(n: int) -> Callable[[int], tuple]:
    def nbrs(state: int) -> tuple:
        return (state - 1 if state > 0 else None,
                state + 1 if state < n - 1 else None)

    return nbrs


def _path_model(kind: str, h: np.ndarray, enum_cap: int, meta: dict) -> EnergyModel:
    """States 0..n-1 with energies h, the local move proposing either
    neighbour on the path."""
    n = len(h)
    return EnergyModel(
        kind=kind,
        size=n,
        energy_fn=lambda s: float(h[s]),
        neighbor_fn=_path_neighbor_fn(n),
        proposal_size=2,
        enumerable=n <= enum_cap,
        meta=meta,
        _energies=h,
    )


def _table_model(weights, enum_cap: int) -> EnergyModel:
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1 or len(w) < 1:
        raise ConfigError("table weights must be a non-empty 1-D sequence")
    if np.any(~np.isfinite(w)) or np.any(w <= 0):
        raise ConfigError("table weights must be finite and > 0")
    return _path_model("table", -np.log(w), enum_cap, {"weights": w})


def _energy_table_model(energies, enum_cap: int) -> EnergyModel:
    h = np.asarray(energies, dtype=np.float64)
    if h.ndim != 1 or len(h) < 1:
        raise ConfigError("energy table must be a non-empty 1-D sequence")
    if np.any(~np.isfinite(h)):
        raise ConfigError("energies must be finite")
    return _path_model("energy_table", h, enum_cap, {})


def _double_well_grid(points: int, bounds, depth: float, enum_cap: int) -> EnergyModel:
    if points < 2:
        raise ConfigError("double_well_grid needs points >= 2")
    lo, hi = float(bounds[0]), float(bounds[1])
    if not lo < hi:
        raise ConfigError("double_well_grid bounds must satisfy lo < hi")
    if depth <= 0:
        raise ConfigError("double_well_grid depth must be > 0")
    xs = np.linspace(lo, hi, points)
    h = depth * (xs ** 2 - 1.0) ** 2
    return _path_model("double_well_grid", h, enum_cap, {"depth": depth, "grid": xs})


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
    if points < 2:
        raise ConfigError("gaussian_mixture_grid needs points >= 2")
    lo, hi = float(bounds[0]), float(bounds[1])
    if not lo < hi:
        raise ConfigError("gaussian_mixture_grid bounds must satisfy lo < hi")
    xs = np.linspace(lo, hi, points)
    # h = -log sum_k w_k phi((x-m_k)/s_k)/s_k, computed stably in the log domain
    z = (xs[:, None] - means[None, :]) / sds[None, :]
    logcomp = np.log(weights[None, :] / sds[None, :]) - 0.5 * z ** 2
    m = logcomp.max(axis=1)
    h = -(m + np.log(np.exp(logcomp - m[:, None]).sum(axis=1)))
    return _path_model(
        "gaussian_mixture_grid", h, enum_cap,
        {"means": means, "sds": sds, "weights": weights, "grid": xs},
    )


def _potts_grid(width: int, height: int, labels: int, beta: float,
                enum_cap: int) -> EnergyModel:
    if width < 1 or height < 1:
        raise ConfigError("potts_grid needs width, height >= 1")
    if labels < 2:
        raise ConfigError("potts_grid needs labels >= 2")
    if beta < 0:
        raise ConfigError("potts_grid needs beta >= 0")
    n_sites = width * height
    size = labels ** n_sites

    # 4-neighborhood lattice edges over flat site indices (no wraparound)
    edges = []
    for r in range(height):
        for c in range(width):
            i = r * width + c
            if c + 1 < width:
                edges.append((i, i + 1))
            if r + 1 < height:
                edges.append((i, i + width))

    powers = [labels ** s for s in range(n_sites)]

    def decode(state: int) -> list[int]:
        digits = []
        for _ in range(n_sites):
            digits.append(state % labels)
            state //= labels
        return digits

    def energy_fn(state: int) -> float:
        w = decode(state)
        agree = sum(1 for i, j in edges if w[i] == w[j])
        return -beta * agree

    def neighbor_fn(state: int) -> tuple:
        w = decode(state)
        out = []
        for s in range(n_sites):
            cur = w[s]
            for v in range(labels):
                if v != cur:
                    out.append(state + (v - cur) * powers[s])
        return tuple(out)

    return EnergyModel(
        kind="potts_grid",
        size=size,
        energy_fn=energy_fn,
        neighbor_fn=neighbor_fn,
        proposal_size=n_sites * (labels - 1),
        enumerable=size <= enum_cap,
        meta={
            "width": width,
            "height": height,
            "labels": labels,
            "beta": beta,
        },
    )


_MODEL_PARAMS = {
    "table": ({"weights"}, set()),
    "energy_table": ({"energies"}, set()),
    "double_well_grid": ({"points", "bounds"}, {"depth"}),
    "gaussian_mixture_grid": ({"means", "sds", "weights", "points", "bounds"}, set()),
    "potts_grid": ({"width", "height", "labels", "beta"}, set()),
}


def builtin_model(kind: str, enum_cap: int = DEFAULT_ENUM_CAP, **params) -> EnergyModel:
    """Construct one of the built-in model kinds.

    Kinds: table(weights), energy_table(energies),
    double_well_grid(points, bounds, depth=1),
    gaussian_mixture_grid(means, sds, weights, points, bounds),
    potts_grid(width, height, labels, beta).
    """
    if enum_cap < 1:
        raise ConfigError("enum_cap must be >= 1")
    if kind not in _MODEL_PARAMS:
        raise ConfigError(f"unknown model kind {kind!r}")
    required, optional = _MODEL_PARAMS[kind]
    missing = required - params.keys()
    if missing:
        raise ConfigError(f"model kind {kind!r} missing parameters {sorted(missing)}")
    unknown = params.keys() - required - optional
    if unknown:
        raise ConfigError(f"model kind {kind!r} got unknown parameters {sorted(unknown)}")

    if kind == "table":
        return _table_model(params["weights"], enum_cap)
    if kind == "energy_table":
        return _energy_table_model(params["energies"], enum_cap)
    if kind == "double_well_grid":
        return _double_well_grid(
            params["points"], params["bounds"], params.get("depth", 1.0), enum_cap
        )
    if kind == "gaussian_mixture_grid":
        return _gaussian_mixture_grid(
            params["means"], params["sds"], params["weights"],
            params["points"], params["bounds"], enum_cap,
        )
    return _potts_grid(
        params["width"], params["height"], params["labels"], params["beta"], enum_cap
    )
