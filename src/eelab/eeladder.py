"""Equi-energy ladder: ring ledgers, jump moves, and run schedules.

A run keeps one chain per ladder level. Each level's chain mixes local
random-walk moves with jump moves that propose a state recorded by the
level above, either from the energy ring of the current state
(restricted) or from all records (unrestricted). A jump from x to y at
level i is accepted with probability

    min(1, [d_i(y) * d_{i+1}(x)] / [d_i(x) * d_{i+1}(y)])

where d_i is the unnormalized level density; this ratio makes the
idealized within-ring jump exactly reversible for the level-i target
(see idealized_jump_matrix). An empty ring falls back to a local move,
so the chain never stalls.

Per-level rng streams are split from the run seed, which makes traces
deterministic and schedule-independent per level.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import CapabilityError, ConfigError
from .kernels import RandomWalkKernel
from .rng import RandomStream
from .statespace import (
    EnergyModel,
    FiniteDistribution,
    LadderLevel,
    enumerate_distribution,
    level_logdensities,
    validate_ladder,
)

MOVE_LOCAL = 0
MOVE_JUMP = 1
MOVE_JUMP_FALLBACK = 2
MOVE_NAMES = {MOVE_LOCAL: "local", MOVE_JUMP: "jump", MOVE_JUMP_FALLBACK: "jump_fallback"}


class RingLedger:
    """Append-only store of recorded states grouped into energy rings.

    boundaries H_1 <= ... <= H_{K-1} define rings R_j = {x : h(x) in
    [H_j, H_{j+1})} with H_0 = -inf and H_K = +inf. Records are never
    dropped; an optional max_records cap stops recording once reached.
    """

    def __init__(self, level: int, boundaries, max_records: Optional[int] = None):
        b = [float(v) for v in boundaries]
        if any(y < x for x, y in zip(b, b[1:])):
            raise ConfigError("ring boundaries must be sorted")
        if max_records is not None and max_records < 0:
            raise ConfigError("max_records must be >= 0")
        self.level = level
        self.boundaries = b
        self.max_records = max_records
        self.rings: list[list[int]] = [[] for _ in range(len(b) + 1)]
        self._flat: list[int] = []

    @property
    def n_rings(self) -> int:
        return len(self.rings)

    @property
    def total(self) -> int:
        return len(self._flat)

    @property
    def all_records(self) -> list[int]:
        return self._flat

    def ring_index(self, energy: float) -> int:
        """The unique j with energy in [H_j, H_{j+1}) (left-closed)."""
        return bisect_right(self.boundaries, energy)

    def ring_table(self, energies) -> list[int]:
        """ring_index of every state's energy, indexed by state."""
        return [self.ring_index(float(e)) for e in energies]

    def record(self, state: int, ring: int) -> None:
        if self.max_records is not None and len(self._flat) >= self.max_records:
            return
        self.rings[ring].append(state)
        self._flat.append(state)

    def draw(self, mode: str, current_ring: int, rng: RandomStream) -> Optional[int]:
        """Uniform draw of a recorded state, or None when nothing is available.

        Consumes no randomness in the None case, so a fallback local move
        sees exactly the rng stream a plain local move would.
        """
        if mode == "restricted":
            pool = self.rings[current_ring]
        elif mode == "unrestricted":
            pool = self._flat
        else:
            raise ConfigError(f"unknown jump mode {mode!r}")
        if not pool:
            return None
        return pool[rng.randint(len(pool))]


@dataclass
class LadderConfig:
    """Run parameters for both schedules.

    ring_boundaries default to the truncation energies of levels 1..K-1.
    A single-level ladder degenerates to a plain local-MH chain.
    """

    levels: list[LadderLevel]
    burn_in: int = 0
    p_jump: float = 0.1
    jump_mode: str = "restricted"
    schedule: str = "parallel"
    macro_steps: int = 10_000
    steps_per_level: int = 10_000
    ring_boundaries: Optional[list[float]] = None
    max_records: Optional[int] = None
    init_state: Optional[int] = None

    def __post_init__(self):
        validate_ladder(self.levels)
        if not 0.0 <= self.p_jump <= 1.0:
            raise ConfigError(f"p_jump must be in [0, 1], got {self.p_jump}")
        if self.burn_in < 0:
            raise ConfigError("burn_in must be >= 0")
        if self.jump_mode not in ("restricted", "unrestricted"):
            raise ConfigError(f"unknown jump_mode {self.jump_mode!r}")
        if self.schedule not in ("parallel", "serial"):
            raise ConfigError(f"unknown schedule {self.schedule!r}")
        if self.macro_steps < 0 or self.steps_per_level < 0:
            raise ConfigError("step counts must be >= 0")

    @property
    def n_levels(self) -> int:
        return len(self.levels)

    def boundaries(self) -> list[float]:
        if self.ring_boundaries is not None:
            return list(self.ring_boundaries)
        return [lv.truncation for lv in self.levels[1:]]


def ee_jump_step(
    x: int,
    ring: int,
    ledger: RingLedger,
    mode: str,
    logd_lo,
    logd_hi,
    local_kernel: RandomWalkKernel,
    rng: RandomStream,
) -> tuple[int, int, bool]:
    """One jump move at the lower level against the upper level's ledger.

    Draws a recorded state from the current state's energy ring (or from
    all records in unrestricted mode) and accepts it with
    min(1, [d_lo(y) d_hi(x)] / [d_lo(x) d_hi(y)]). An empty pool falls
    back to one local move; since the failed draw consumed no
    randomness, the fallback behaves exactly like a plain local step.
    Returns (new_state, move_type, accepted).
    """
    y = ledger.draw(mode, ring, rng)
    if y is None:
        new, acc = local_kernel.step(x, rng)
        return new, MOVE_JUMP_FALLBACK, acc
    logr = (logd_lo[y] + logd_hi[x]) - (logd_lo[x] + logd_hi[y])
    if logr >= 0.0 or rng.uniform() < math.exp(logr):
        return y, MOVE_JUMP, True
    return x, MOVE_JUMP, False


@dataclass
class LevelTrace:
    """Columnar trace of one level's chain, one row per step. Energy and
    ring are functions of the state: index them by ``states``."""

    level: int
    states: np.ndarray
    move_types: np.ndarray
    accepted: np.ndarray

    def __len__(self) -> int:
        return len(self.states)


@dataclass
class TraceSet:
    """All level traces of one run plus the ledgers it produced."""

    levels: list[LevelTrace]
    ledgers: list[RingLedger]
    burn_in: int

    def empirical_counts(self, level: int, n_states: int,
                         upto: Optional[int] = None) -> np.ndarray:
        """Visit counts of post-burn-in states at a level."""
        tr = self.levels[level]
        states = tr.states[self.burn_in:upto]
        return np.bincount(states, minlength=n_states).astype(np.float64)

    def empirical_distribution(self, level: int, n_states: int,
                               upto: Optional[int] = None) -> FiniteDistribution:
        counts = self.empirical_counts(level, n_states, upto)
        return FiniteDistribution.from_weights(np.arange(n_states), counts)


def _schedule(config: LadderConfig):
    """The (level, step) pairs of a run in execution order, top level first.

    parallel: every level advances once per macro step, so a level's
    post-burn-in states reach the level below within the same macro step.
    serial: each level runs to completion before the one below starts, so
    the ledger a level reads is frozen.
    """
    top_down = range(config.n_levels - 1, -1, -1)
    if config.schedule == "serial":
        return ((i, t) for i in top_down for t in range(config.steps_per_level))
    return ((i, t) for t in range(config.macro_steps) for i in top_down)


def run_ladder(model: EnergyModel, config: LadderConfig, seed: int) -> TraceSet:
    """Run every level's chain in the order config.schedule gives.

    Each level-step is a jump against the ledger of the level above with
    probability p_jump (never at the top level), else a local move; from
    step burn_in on, the new state is recorded in the level's own ledger.
    """
    if not model.enumerable:
        raise CapabilityError("ladder runs require an enumerable model")
    K = config.n_levels
    logd = [level_logdensities(model, lv).tolist() for lv in config.levels]
    local = [RandomWalkKernel(model, lv) for lv in config.levels]
    ledgers = [RingLedger(i, config.boundaries(), config.max_records) for i in range(K)]
    ring_of = ledgers[0].ring_table(model.energies())
    rngs = RandomStream.from_seed(seed).spawn(K)
    states = []
    for rng in rngs:
        s = config.init_state if config.init_state is not None else rng.randint(model.size)
        model.check_state(s)
        states.append(s)

    p_jump, mode, burn_in = config.p_jump, config.jump_mode, config.burn_in
    can_jump = [i < K - 1 and p_jump > 0.0 for i in range(K)]
    columns = [([], [], []) for _ in range(K)]  # states, move types, accepted
    for i, t in _schedule(config):
        rng = rngs[i]
        x = states[i]
        if can_jump[i] and rng.uniform() < p_jump:
            x, move, acc = ee_jump_step(x, ring_of[x], ledgers[i + 1], mode,
                                        logd[i], logd[i + 1], local[i], rng)
        else:
            x, acc = local[i].step(x, rng)
            move = MOVE_LOCAL
        states[i] = x
        if t >= burn_in:
            ledgers[i].record(x, ring_of[x])
        visited, moves, accepted = columns[i]
        visited.append(x)
        moves.append(move)
        accepted.append(acc)

    traces = [LevelTrace(i, np.asarray(visited, dtype=np.int64),
                         np.asarray(moves, dtype=np.int8),
                         np.asarray(accepted, dtype=np.int8))
              for i, (visited, moves, accepted) in enumerate(columns)]
    return TraceSet(traces, ledgers, burn_in)


# ---------------------------------------------------------------------------
# Exact kernels for the jump move (oracle side of the Q3 comparison)
# ---------------------------------------------------------------------------


def _jump_log_accept(logd_lo: np.ndarray, logd_hi: np.ndarray,
                     x: int, y: int) -> float:
    return (logd_lo[y] + logd_hi[x]) - (logd_lo[x] + logd_hi[y])


def idealized_jump_matrix(
    model: EnergyModel,
    level_lo: LadderLevel,
    level_hi: LadderLevel,
    boundaries,
) -> np.ndarray:
    """Exact kernel of the jump move with the empirical ledger replaced by
    the true level-hi distribution truncated to the current energy ring.

    The result is block-diagonal over rings and reversible for the
    level-lo target.
    """
    h = model.energies()
    logd_lo = level_logdensities(model, level_lo)
    logd_hi = level_logdensities(model, level_hi)
    q_hi = enumerate_distribution(model, level_hi)
    rings = RingLedger(level_hi.index, boundaries)
    ring_of = np.array(rings.ring_table(h))

    n = model.size
    K = np.zeros((n, n))
    for r in range(rings.n_rings):
        members = np.nonzero(ring_of == r)[0]
        if len(members) == 0:
            continue
        qr = q_hi.probs[members]
        qr = qr / qr.sum()
        for xi, x in enumerate(members):
            row = 0.0
            for yi, y in enumerate(members):
                if y == x:
                    continue
                a = min(1.0, math.exp(_jump_log_accept(logd_lo, logd_hi, x, y)))
                K[x, y] = qr[yi] * a
                row += K[x, y]
            K[x, x] = 1.0 - row
    return K


def empirical_jump_chain_matrix(
    model: EnergyModel,
    level_lo: LadderLevel,
    level_hi: LadderLevel,
    ledger: RingLedger,
    p_jump: float,
    jump_mode: str = "restricted",
) -> np.ndarray:
    """Exact kernel of one runner step at level lo against a frozen ledger.

    The step is: with probability p_jump attempt a jump whose proposal is
    the empirical (multiplicity-weighted) distribution of the ledger pool
    for the current ring, falling back to a local move when the pool is
    empty; otherwise move locally.
    """
    if not 0.0 <= p_jump <= 1.0:
        raise ConfigError("p_jump must be in [0, 1]")
    ring_of = ledger.ring_table(model.energies())
    logd_lo = level_logdensities(model, level_lo)
    logd_hi = level_logdensities(model, level_hi)
    K_local = RandomWalkKernel(model, level_lo).exact_matrix()

    n = model.size
    pool_counts: dict[int, np.ndarray] = {}

    def counts_for(pool) -> np.ndarray:
        key = id(pool)
        if key not in pool_counts:
            pool_counts[key] = np.bincount(pool, minlength=n)
        return pool_counts[key]

    K_jump = np.zeros((n, n))
    for x in range(n):
        if jump_mode == "restricted":
            pool = ledger.rings[ring_of[x]]
        else:
            pool = ledger.all_records
        if not pool:
            K_jump[x] = K_local[x]
            continue
        counts = counts_for(pool)
        m = len(pool)
        row = 0.0
        for y in np.nonzero(counts)[0]:
            if y == x:
                continue
            a = min(1.0, math.exp(_jump_log_accept(logd_lo, logd_hi, x, y)))
            K_jump[x, y] = (counts[y] / m) * a
            row += K_jump[x, y]
        K_jump[x, x] = 1.0 - row
    return p_jump * K_jump + (1.0 - p_jump) * K_local


def ledger_from_iid(
    model: EnergyModel,
    level: LadderLevel,
    boundaries,
    n_records: int,
    rng: RandomStream,
) -> RingLedger:
    """Ledger filled with n i.i.d. exact draws from the level distribution."""
    dist = enumerate_distribution(model, level)
    cum = np.cumsum(dist.probs)
    cum[-1] = 1.0
    ledger = RingLedger(level.index, boundaries)
    ring_of = ledger.ring_table(model.energies())
    draws = np.searchsorted(cum, rng.uniforms(n_records), side="right")
    for s in draws.tolist():
        ledger.record(s, ring_of[s])
    return ledger
