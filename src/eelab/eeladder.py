"""Equi-energy ladder: energy rings, jump moves, and run schedules.

A run keeps one chain per ladder level. Each level's chain mixes local
random-walk moves with jump moves that propose a state recorded by the
level above from the energy ring of the current state. An unrestricted
jump is the jump with no ring boundaries, one ring: it proposes any
record, and with the records replaced by the upper level's law it is the
Metropolized independence sampler (idealized_jump_matrix of a table with
no boundaries). A level's records are its trace's states from step
burn_in on, at most max_records of them: its ledger is derived from its
trace (TraceSet.ledger). A ring is never stored: ring_table derives it from a
state's energy where it is needed. A jump from x to y at level i is
accepted with probability

    min(1, [d_i(y) * d_{i+1}(x)] / [d_i(x) * d_{i+1}(y)])

where d_i is the unnormalized level density; this ratio makes the
idealized within-ring jump exactly reversible for the level-i target
(see idealized_jump_matrix). A jump whose ring holds no record falls
back to a local move, so the chain never stalls.

On the exact side, level_chain_matrix builds every level-0 chain,
p_jump K_jump + (1 - p_jump) K_local, from a JumpTable and proposal
weights: the table's idealized ones (idealized_jump_matrix) or a
ledger's counts (empirical_jump_chain_matrix).

Per-level rng streams are split from the run seed, which makes traces
deterministic and schedule-independent per level.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigError
from .kernels import RandomWalkKernel
from .rng import RandomStream
from .statespace import (
    EnergyModel,
    LadderLevel,
    enumerate_distribution,
    level_logdensities,
    validate_ladder,
)

MOVE_LOCAL = 0
MOVE_JUMP = 1
MOVE_JUMP_FALLBACK = 2
MOVE_NAMES = {MOVE_LOCAL: "local", MOVE_JUMP: "jump", MOVE_JUMP_FALLBACK: "jump_fallback"}


def _sorted_boundaries(boundaries) -> tuple:
    """boundaries as a tuple, or a ConfigError if they are not sorted."""
    b = tuple(boundaries)
    if any(y < x for x, y in zip(b, b[1:])):
        raise ConfigError("ring boundaries must be sorted")
    return b


def ring_table(energies, boundaries) -> np.ndarray:
    """The ring of each energy.

    boundaries H_1 <= ... <= H_{K-1} define rings R_j = {x : h(x) in
    [H_j, H_{j+1})} with H_0 = -inf and H_K = +inf; equal boundaries
    leave an empty ring between them. No boundaries make one ring.
    """
    b = np.asarray(_sorted_boundaries(boundaries), dtype=np.float64)
    return np.searchsorted(b, np.asarray(energies, dtype=np.float64), side="right")


def _records(states: np.ndarray, burn_in: int, max_records: Optional[int]) -> np.ndarray:
    """A level's records: its states from step burn_in on, at most max_records."""
    return states[burn_in:][:max_records]


@dataclass(frozen=True, eq=False)
class RingLedger:
    """Recorded states (int64, in record order). The ring layout a jump
    reads them by is its JumpTable's. A run's ledgers are views of its
    traces (TraceSet.ledger)."""

    records: np.ndarray

    @property
    def total(self) -> int:
        return len(self.records)


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
        if self.max_records is not None and self.max_records < 0:
            raise ConfigError("max_records must be >= 0")
        if self.ring_boundaries is not None:
            _sorted_boundaries(self.ring_boundaries)

    @property
    def n_levels(self) -> int:
        return len(self.levels)

    @property
    def n_steps(self) -> int:
        """Steps each level takes on this config's schedule."""
        return self.steps_per_level if self.schedule == "serial" else self.macro_steps

    @property
    def record_lag(self) -> int:
        """Upper record k is made at upper step burn_in + k. Before lower
        step t the upper level has taken its steps <= t (parallel) or all
        of them (serial), so a jump at step t sees the records with index
        <= t + record_lag."""
        return (self.n_steps if self.schedule == "serial" else 0) - self.burn_in

    def first_record_step(self) -> Optional[int]:
        """The first step at which a jump sees a record of the level above,
        or None if none ever does (a single level, max_records 0, or
        burn_in >= the step count). Before it every jump falls back to a
        local move."""
        if self.n_levels < 2 or self.max_records == 0 or self.burn_in >= self.n_steps:
            return None
        return max(0, -self.record_lag)

    def boundaries(self) -> list[float]:
        if self.ring_boundaries is not None:
            return list(self.ring_boundaries)
        return [lv.truncation for lv in self.levels[1:]]

    def jump_boundaries(self) -> list[float]:
        """The ring layout jumps draw by: the boundaries when jumps are
        restricted, none (one ring) when they are unrestricted."""
        return self.boundaries() if self.jump_mode == "restricted" else []


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
    """All level traces of one run, what its ledgers derive from (burn_in
    and max_records), and the configured ring boundaries.

    top_source holds what the top level's trace is a function of (see
    run_ladder); a later run may take its top level from here.
    """

    levels: list[LevelTrace]
    burn_in: int
    max_records: Optional[int]
    boundaries: tuple
    top_source: tuple = field(default=(), repr=False, compare=False)

    def ledger(self, level: int) -> RingLedger:
        """The level's records (see _records)."""
        return RingLedger(_records(self.levels[level].states, self.burn_in,
                                   self.max_records))

    def empirical_counts(self, level: int, n_states: int,
                         upto: Optional[int] = None) -> np.ndarray:
        """Visit counts of post-burn-in states at a level."""
        tr = self.levels[level]
        states = tr.states[self.burn_in:upto]
        return np.bincount(states, minlength=n_states).astype(np.float64)


def _code(state: int, move_type: int, accepted: int) -> int:
    """A level-step's packed trace code: its state, move type and
    acceptance in one int, 8 * state + 2 * move_type + accepted."""
    return 8 * state + 2 * move_type + accepted


def _step_table(moves, move_type: int) -> list:
    """RandomWalkKernel.step as a table of one row per state x,
    (m, slots, stay): stay is the code of staying at x, and slots holds a
    (target, acceptance, code on moving) triple for each of x's m neighbor
    slots, then a copy of the last one, which a draw floor(u * m) == m
    picks as RandomStream.randint's guard does. Only a stream that yields
    exactly 1.0 makes that draw (floor(u * m) < m for every double u < 1
    and m < 2**53), such as edge_blocks in tests/test_eeladder.py. An
    out-of-range slot is (x, None, stay): the chain stays without drawing
    a uniform and records a rejection. Codes are made once here, so the
    chain appends them without making an int."""
    moved = [_code(y, move_type, 1) for y in range(len(moves))]
    table = []
    for x, neighbors in enumerate(moves):
        stay = _code(x, move_type, 0)
        slots = [(x, None, stay) if y is None else (y, p, moved[y])
                 for y, p in neighbors]
        slots.append(slots[-1])
        table.append((len(neighbors), tuple(slots), stay))
    return table


def _visible_counts(mask: np.ndarray, n_steps: int, lag: int) -> array:
    """seen[t] for t < n_steps: the number of True entries of mask at
    flat index <= t + lag, as an array('i') (array('q') where the count
    could pass 2**31 - 1). Steps before the first visible entry see 0,
    steps after the last see the total."""
    total = int(np.count_nonzero(mask))
    code, dtype = ("i", np.int32) if total < 2**31 else ("q", np.int64)
    out = array(code, [total]) * n_steps
    seen = np.frombuffer(out, dtype)  # a writable view of out
    lo = min(max(-lag, 0), n_steps)
    hi = min(max(len(mask) - lag, lo), n_steps)
    seen[:lo] = 0
    if hi > lo:
        start = lo + lag  # >= 0, and 0 on both ladder schedules
        np.cumsum(mask[start:hi + lag], dtype=dtype, out=seen[lo:hi])
        seen[lo:hi] += np.count_nonzero(mask[:start])
    return out


def run_ladder(model: EnergyModel, config: LadderConfig, seed: int,
               reuse: Optional[TraceSet] = None) -> TraceSet:
    """Run every level's chain, top level first, each to completion.

    Each level-step is a jump against the records of the level above
    with probability p_jump (never at the top level), else a local move;
    a jump whose pool holds no visible record falls back to the local
    move. A level's records are the states of its trace from step burn_in
    on, at most max_records of them (_records).

    A level never writes to the level above, so running each level to
    completion is exact for both schedules: before level i runs, the
    jump pools are built from the finished trace of level i + 1, one per
    ring (one ring holding every record when jump_mode is unrestricted).
    On the serial schedule a level reads every upper record. On the
    parallel schedule, where every level advances once per macro step,
    level i at step t reads the records the upper level made at its steps
    <= t, a prefix of each pool (LadderConfig.record_lag).

    A level-step is table lookups and one append; the for statement pulls
    its first draw from the level's RandomStream.stream, and its slot and
    record draws are math.floor, not int(), of u * m. Before a level runs,
    its local move becomes a step table (_step_table), one for a plain
    local move and one for a jump's fallback, and a jump's codes are
    listed by state. Each step appends one packed code, 8 * state +
    2 * move type + accepted, an int made once in those tables, so the
    loop keeps 8 bytes per step and makes no int. After the loop the
    codes become the trace's int64 states and its int8 move types and
    acceptance flags. A jump finds how many of its pool's records it may
    see in a table made before the level runs (_visible_counts), one
    array('i') of 4 bytes per step and ring, and the pools and tables are
    dropped before the trace columns are made.

    The top level never jumps, so its trace depends only on the model,
    the seed, the top level (whose index, the level count minus one,
    picks its rng stream), the step count and init_state. When reuse is
    a run whose top level came from the same model object and equal
    values of the other four, its top LevelTrace is taken as it is (the
    same object, not a copy) instead of being run again; any other reuse
    is ignored. q1 and q2 pass the first arm's run to the second this way.
    """
    K = config.n_levels
    logd = [level_logdensities(model, lv).tolist() for lv in config.levels]
    # the ring each state's jumps draw from: an unrestricted jump has one
    jump_bounds = config.jump_boundaries()
    jump_ring = ring_table(model.energies(), jump_bounds)
    rngs = RandomStream.from_seed(seed).spawn(K)
    inits = []
    for rng in rngs:
        s = config.init_state if config.init_state is not None else rng.randint(model.size)
        model.check_state(s)
        inits.append(s)

    n_steps = config.n_steps
    floor = math.floor  # int() of a float >= 0, at half the cost
    p_jump, burn_in, cap = config.p_jump, config.burn_in, config.max_records
    # init_state None means the start is drawn from the top level's stream
    source = (model, seed, config.levels[-1], n_steps, config.init_state)
    # the model compares by identity (== on its energy table is ambiguous)
    given = reuse.top_source if reuse is not None else ()
    shared = bool(given) and given[0] is model and given[1:] == source[1:]
    # the codes a jump appends, for the levels that jump: accepted, by its
    # target, and refused, by the state it stays at
    jumping = range(model.size if K > 1 and p_jump else 0)
    jumped = [_code(y, MOVE_JUMP, 1) for y in jumping]
    refused = [_code(x, MOVE_JUMP, 0) for x in jumping]
    traces = []
    for i in range(K - 1, -1, -1):
        if shared and i == K - 1:
            traces.append(reuse.levels[-1])
            continue
        x = inits[i]
        stream, uniform = rngs[i].stream, rngs[i].uniform
        moves = RandomWalkKernel(model, config.levels[i]).moves
        jumps = p_jump if i < K - 1 else 0.0
        if jumps:
            # the records of the level above, one (pool, seen) pair per
            # ring: the ring's records in record order, and seen[t] the
            # number of them a jump at step t may see; rows[x] is the pair
            # of x's ring
            records = _records(traces[-1].states, burn_in, cap)
            masks = ((jump_ring == j)[records] for j in range(len(jump_bounds) + 1))
            pairs = [(records[m].tolist(),
                      _visible_counts(m, n_steps, config.record_lag))
                     for m in masks]
            rows = [pairs[r] for r in jump_ring.tolist()]
            del pairs  # so that dropping rows frees the pools and tables
        local = _step_table(moves, MOVE_LOCAL)
        fallback = _step_table(moves, MOVE_JUMP_FALLBACK) if jumps else None
        lo = logd[i]
        hi = logd[i + 1] if jumps else None  # None: this level never jumps
        codes = []
        append = codes.append
        # u is the step's first draw: the jump test on a level that jumps,
        # else the slot draw; range first, so no draw is read past the end
        for t, u in zip(range(n_steps), stream):
            table = local
            if jumps:
                if u < jumps:
                    pool, seen = rows[x]
                    visible = seen[t]
                    if visible:  # uniform over the visible records
                        j = floor(uniform() * visible)
                        # floor(u * visible) == visible only on a stream
                        # yielding exactly 1.0
                        y = pool[visible - 1 if j == visible else j]
                        logr = (lo[y] + hi[x]) - (lo[x] + hi[y])
                        if logr >= 0.0 or uniform() < math.exp(logr):
                            x = y
                            append(jumped[y])
                        else:
                            append(refused[x])
                        continue
                    # an empty pool draws no uniform, so its fallback is
                    # bit-identical to a plain local move
                    table = fallback
                u = uniform()
            # RandomWalkKernel.step on the state's row of the step table
            m, slots, stay = table[x]
            y, p, code = slots[floor(u * m)]
            if p is None or uniform() < p:
                x = y
                append(code)
            else:
                append(stay)
        # the pools and tables go before the trace columns are made
        rows = pool = seen = None
        states = np.fromiter(codes, np.int64, len(codes))
        del codes
        kinds = states.astype(np.int8)  # the low byte holds the low 3 bits
        kinds &= 7
        accepted = kinds & 1
        kinds >>= 1
        states >>= 3
        traces.append(LevelTrace(i, states, kinds, accepted))
    return TraceSet(traces[::-1], burn_in, cap, tuple(config.boundaries()), source)


# ---------------------------------------------------------------------------
# Exact kernels for the jump move (oracle side of the Q3 comparison)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class JumpTable:
    """What every exact level-0 chain of a jump from level lo to level hi
    under one ring layout shares; jump_table builds it.

    rings holds one (xs, accept) pair per ring that holds a state: its
    states in ascending order, and accept[i, j] = math.exp(min(log r, 0))
    for r = [d_lo(y) d_hi(x)] / [d_lo(x) d_hi(y)], x = xs[i], y = xs[j]
    (math.exp, so it does not depend on numpy's SIMD dispatch). ideal, the
    idealized proposal weights, is the level-hi law, or exp(log d_hi - its
    ring maximum) in a ring where that law underflows to zero everywhere.
    K_local is level lo's RandomWalkKernel matrix. ideal and K_local are
    read-only.
    """

    rings: tuple
    ideal: np.ndarray
    K_local: np.ndarray


def jump_table(model: EnergyModel, level_lo: LadderLevel, level_hi: LadderLevel,
               boundaries) -> JumpTable:
    """The JumpTable of jumps from level_lo to level_hi under boundaries."""
    boundaries = _sorted_boundaries(boundaries)
    logd_lo = level_logdensities(model, level_lo)
    logd_hi = level_logdensities(model, level_hi)
    ideal = enumerate_distribution(model, level_hi).probs.copy()
    ring = ring_table(model.energies(), boundaries)
    rings = []
    for r in range(len(boundaries) + 1):
        xs = np.flatnonzero(ring == r)
        if len(xs) == 0:
            continue
        logr = (logd_lo[xs] + logd_hi[xs, None]) - (logd_lo[xs, None] + logd_hi[xs])
        accept = np.fromiter(map(math.exp, np.minimum(logr, 0.0).ravel().tolist()),
                             float, logr.size).reshape(logr.shape)
        rings.append((xs, accept))
        if ideal[xs].sum() == 0.0:
            shifted = logd_hi[xs] - logd_hi[xs].max()
            ideal[xs] = np.fromiter(map(math.exp, shifted.tolist()), float, len(xs))
    K_local = RandomWalkKernel(model, level_lo).exact_matrix()
    ideal.setflags(write=False)
    K_local.setflags(write=False)
    return JumpTable(tuple(rings), ideal, K_local)


def level_chain_matrix(table: JumpTable, weights: np.ndarray,
                       p_jump: float) -> np.ndarray:
    """Exact kernel of one level-0 EE step, p_jump K_jump + (1 - p_jump)
    K_local: from each state x the jump proposes y in x's ring with
    probability weights[y] / (the ring's weight sum) and accepts it with
    the table's acceptance, the rejected mass staying on the diagonal; a
    ring whose weights are all zero (an empty pool) moves locally. Rows
    are summed left to right, so the matrix does not depend on numpy's
    SIMD dispatch."""
    if not 0.0 <= p_jump <= 1.0:
        raise ConfigError("p_jump must be in [0, 1]")
    K = table.K_local.copy()
    for xs, accept in table.rings:
        w = weights[xs]
        cols = np.flatnonzero(w > 0)
        if len(cols) == 0:
            continue
        # summed over the whole ring, zero weights too: dropping them would
        # regroup numpy's pairwise sum and move the last bits
        P = accept[:, cols]
        P *= w[cols] / w.sum()
        P[cols, np.arange(len(cols))] = 0.0  # the proposals of x itself
        K[xs] = 0.0
        K[np.ix_(xs, xs[cols])] = P
        K[xs, xs] = 1.0 - np.cumsum(P, axis=1)[:, -1]
    K *= p_jump
    K += (1.0 - p_jump) * table.K_local
    return K


def idealized_jump_matrix(table: JumpTable) -> np.ndarray:
    """Exact kernel of the jump proposing from table.ideal, the level-hi
    law truncated to the current ring: block-diagonal over rings and
    reversible for the level-lo target. With no boundaries it is the
    Metropolized independence sampler proposing from the level-hi law."""
    return level_chain_matrix(table, table.ideal, 1.0)


def empirical_jump_chain_matrix(table: JumpTable, ledger: RingLedger,
                                p_jump: float) -> np.ndarray:
    """Exact kernel of one runner step at level lo against a frozen ledger:
    its jump proposes from the ledger's records in the current ring,
    weighted by multiplicity."""
    counts = np.bincount(ledger.records, minlength=len(table.ideal))
    return level_chain_matrix(table, counts, p_jump)


def ledger_from_iid(model: EnergyModel, level: LadderLevel, n_records: int,
                    rng: RandomStream) -> RingLedger:
    """Ledger filled with n i.i.d. exact draws from the level distribution."""
    dist = enumerate_distribution(model, level)
    cum = np.cumsum(dist.probs)
    cum[-1] = 1.0
    draws = np.searchsorted(cum, rng.uniforms(n_records), side="right")
    return RingLedger(draws)
