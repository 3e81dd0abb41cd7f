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

    def extend(self, states, rings) -> None:
        """Append states in order, rings[k] being the ring of states[k],
        until max_records is reached."""
        states, rings = np.asarray(states), np.asarray(rings)
        if self.max_records is not None:
            room = max(self.max_records - len(self._flat), 0)
            states, rings = states[:room], rings[:room]
        for j, ring in enumerate(self.rings):
            ring.extend(states[rings == j].tolist())
        self._flat.extend(states.tolist())


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


def run_ladder(model: EnergyModel, config: LadderConfig, seed: int) -> TraceSet:
    """Run every level's chain, top level first, each to completion.

    Each level-step is a jump against the ledger of the level above with
    probability p_jump (never at the top level), else a local move; a
    jump whose pool holds no visible record falls back to the local move.
    From step burn_in on, the new state is recorded in the level's own
    ledger.

    Ledgers are append-only and a level never writes to the one above, so
    running each level to completion is exact for both schedules. On the
    serial schedule a level reads the finished upper ledger. On the
    parallel schedule, where every level advances once per macro step,
    level i at step t reads the upper ledger as it stood after upper step
    t: the records made at steps <= t, a prefix of each finished pool.
    """
    if not model.enumerable:
        raise CapabilityError("ladder runs require an enumerable model")
    K = config.n_levels
    logd = [level_logdensities(model, lv).tolist() for lv in config.levels]
    ledgers = [RingLedger(i, config.boundaries(), config.max_records) for i in range(K)]
    ring_list = ledgers[0].ring_table(model.energies())
    ring_of = np.asarray(ring_list)
    rngs = RandomStream.from_seed(seed).spawn(K)
    inits = []
    for rng in rngs:
        s = config.init_state if config.init_state is not None else rng.randint(model.size)
        model.check_state(s)
        inits.append(s)

    serial = config.schedule == "serial"
    n_steps = config.steps_per_level if serial else config.macro_steps
    p_jump, mode, burn_in = config.p_jump, config.jump_mode, config.burn_in
    # Upper record k is made at upper step burn_in + k. Before lower step t
    # the upper level has taken its steps <= t (parallel) or all of them
    # (serial), so a jump sees the records with flat index <= t + lag.
    lag = (n_steps if serial else 0) - burn_in
    # a step's trace code is 2 * move type + accepted
    local, jump, fallback = 2 * MOVE_LOCAL, 2 * MOVE_JUMP, 2 * MOVE_JUMP_FALLBACK
    traces = []
    for i in range(K - 1, -1, -1):
        x = inits[i]
        uniform = rngs[i].uniform
        moves = RandomWalkKernel(model, config.levels[i]).moves
        jumps = p_jump if i < K - 1 else 0.0
        lo = logd[i]
        hi = logd[i + 1] if jumps else None  # None: this level never jumps
        visited, codes = [], []
        for t in range(n_steps):
            code = local
            if jumps and uniform() < jumps:
                ring = ring_list[x]
                visible = bisect_right(pool_index[ring], t + lag)
                # an empty pool draws no uniform, so its fallback is
                # bit-identical to a plain local move
                code = jump if visible else fallback
            if code == jump:  # uniform over the visible records
                j = int(uniform() * visible)
                y = pools[ring][visible - 1 if j == visible else j]
                logr = (lo[y] + hi[x]) - (lo[x] + hi[y])
                if logr >= 0.0 or uniform() < math.exp(logr):
                    x, code = y, code + 1
            else:  # RandomWalkKernel.step on its move table
                slots = moves[x]
                m = len(slots)
                j = int(uniform() * m)
                y, p = slots[m - 1 if j == m else j]
                if y is not None and (p is None or uniform() < p):
                    x, code = y, code + 1
            visited.append(x)
            codes.append(code)
        codes = np.asarray(codes, dtype=np.int8)
        trace = LevelTrace(i, np.asarray(visited, dtype=np.int64), codes >> 1, codes & 1)
        traces.append(trace)

        # fill the level's ledger in one pass; pools[ring] is the pool a
        # jump from that ring draws from (its ring, or all records) and
        # pool_index[ring] the flat indices of that pool's records
        upper = ledgers[i]
        recorded = trace.states[burn_in:]
        rings = ring_of[recorded]
        upper.extend(recorded, rings)
        if mode == "restricted":
            rings = rings[:upper.total]
            pools = upper.rings
            pool_index = [np.flatnonzero(rings == j).tolist()
                          for j in range(upper.n_rings)]
        else:
            pools = [upper.all_records] * upper.n_rings
            pool_index = [range(upper.total)] * upper.n_rings
    return TraceSet(traces[::-1], ledgers, burn_in)


# ---------------------------------------------------------------------------
# Exact kernels for the jump move (oracle side of the Q3 comparison)
# ---------------------------------------------------------------------------


def _jump_kernel(base: np.ndarray, logd_lo: np.ndarray, logd_hi: np.ndarray,
                 pools) -> np.ndarray:
    """Exact kernel of a jump move, one row per source state.

    pools holds (sources, proposed, weights): from each source x the move
    proposes proposed[k] (ascending) with probability weights[k] and
    accepts it with min(1, [d_lo(y) d_hi(x)] / [d_lo(x) d_hi(y)]); the
    rejected mass stays on the diagonal. Rows of sources with an empty
    pool, and of states in no pool, are those of base. Acceptances go
    through math.exp and rows are summed left to right, so the matrix does
    not depend on numpy's SIMD dispatch.
    """
    K = base.copy()
    for xs, ys, w in pools:
        if len(ys) == 0:
            continue
        logr = (logd_lo[ys] + logd_hi[xs, None]) - (logd_lo[xs, None] + logd_hi[ys])
        a = np.fromiter(map(math.exp, np.minimum(logr, 0.0).ravel().tolist()),
                        float, logr.size).reshape(logr.shape)
        P = w * a
        P[xs[:, None] == ys] = 0.0
        K[xs] = 0.0
        K[np.ix_(xs, ys)] = P
        K[xs, xs] = 1.0 - np.cumsum(P, axis=1)[:, -1]
    return K


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
    q_hi = enumerate_distribution(model, level_hi).probs
    rings = RingLedger(level_hi.index, boundaries)
    ring_of = np.array(rings.ring_table(model.energies()))
    pools = []
    for r in np.unique(ring_of):
        members = np.flatnonzero(ring_of == r)
        qr = q_hi[members]
        pools.append((members, members, qr / qr.sum()))
    return _jump_kernel(np.zeros((model.size, model.size)),
                        level_logdensities(model, level_lo),
                        level_logdensities(model, level_hi), pools)


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
    n = model.size
    K_local = RandomWalkKernel(model, level_lo).exact_matrix()
    if jump_mode == "restricted":
        ring_of = np.asarray(ledger.ring_table(model.energies()))
        sources = [np.flatnonzero(ring_of == j) for j in range(ledger.n_rings)]
        records = ledger.rings
    else:
        sources, records = [np.arange(n)], [ledger.all_records]
    pools = []
    for xs, pool in zip(sources, records):
        counts = np.bincount(np.asarray(pool, dtype=np.int64), minlength=n)
        ys = np.flatnonzero(counts)
        pools.append((xs, ys, counts[ys] / len(pool)))
    K_jump = _jump_kernel(K_local, level_logdensities(model, level_lo),
                          level_logdensities(model, level_hi), pools)
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
    ring_of = np.asarray(ledger.ring_table(model.energies()))
    draws = np.searchsorted(cum, rng.uniforms(n_records), side="right")
    ledger.extend(draws, ring_of[draws])
    return ledger
