import math
import tracemalloc
from bisect import bisect_right
from collections import namedtuple
from dataclasses import fields

import numpy as np
import pytest

from eelab import rng as rng_module
from eelab.config import validate_config
from eelab.eeladder import (
    MOVE_JUMP,
    MOVE_JUMP_FALLBACK,
    MOVE_LOCAL,
    LadderConfig,
    LevelTrace,
    RingLedger,
    empirical_jump_chain_matrix,
    idealized_jump_matrix,
    jump_table,
    ledger_from_iid,
    ring_table,
    run_ladder,
)
from eelab.errors import ConfigError
from eelab.experiments import _first_passage, _warmup_step
from eelab.kernels import (
    IndependenceKernel,
    RandomWalkKernel,
    reversibility_gap,
    stationary_distribution,
    stationary_gap,
)
from eelab.rng import RandomStream
from eelab.spectral import tv_distance
from eelab.statespace import (
    LadderLevel,
    builtin_model,
    enumerate_distribution,
    geometric_ladder,
    level_logdensities,
)

LEVEL0 = LadderLevel(0, 1.0, -math.inf)


def two_mode_model(n=20, depth=2.0):
    xs = np.linspace(-2, 2, n)
    return builtin_model("energy_table", energies=depth * (xs ** 2 - 1) ** 2)


def small_config(**kw):
    levels = geometric_ladder(2, ratio=4.0, h_min=0.5, dh=0.5)
    defaults = dict(levels=levels, burn_in=100, p_jump=0.2, schedule="parallel",
                    macro_steps=2000, steps_per_level=2000)
    defaults.update(kw)
    return LadderConfig(**defaults)


class TestRingIndex:
    def test_boundary_conventions(self):
        # left-closed: an energy on a boundary is in the ring above it
        assert ring_table([0.5, 1.0, 3.7], [1.0, 2.0]).tolist() == [0, 1, 2]

    def test_every_energy_has_a_ring(self):
        energies = [-1e9, -0.001, 0.0, 0.5, 4.999, 5.0, 1e9]
        rings = ring_table(energies, [0.0, 1.0, 5.0])
        assert np.all((rings >= 0) & (rings < 4))

    def test_ring_table_applies_ring_index_per_state(self):
        energies = np.array([-0.5, 0.0, 0.99, 1.0, 7.0])
        assert ring_table(energies, [0.0, 1.0]).tolist() == [0, 1, 1, 2, 2]

    def test_ring_table_equals_bisect_right(self):
        gen = np.random.default_rng(8)
        layouts = [[], [0.5], [-1.0, 0.25, 0.25, 1.5], [0.0, 0.0, 0.0],
                   sorted(gen.normal(size=6).tolist())]
        for bounds in layouts:
            # random energies, and every boundary itself
            energies = gen.normal(size=200).tolist() + bounds + [-math.inf, math.inf]
            got = ring_table(energies, bounds)
            assert got.tolist() == [bisect_right(bounds, e) for e in energies], bounds

    def test_unsorted_boundaries_raise(self):
        with pytest.raises(ConfigError):
            ring_table([0.0], [1.0, 0.5])
        with pytest.raises(ConfigError):
            jump_table(two_mode_model(), LEVEL0, LadderLevel(1, 4.0, 0.5), [2.0, 1.0])


class TestRecord:
    def test_totals_count_records(self):
        model = two_mode_model()
        led = ledger_from_iid(model, LadderLevel(1, 4.0, 0.5), 10,
                              RandomStream.from_seed(2))
        assert led.total == 10
        assert [f.name for f in fields(led)] == ["records"]

    def test_a_negative_record_count_is_refused(self):
        with pytest.raises(ConfigError):
            ledger_from_iid(two_mode_model(), LadderLevel(1, 4.0, 0.5), -2,
                            RandomStream.from_seed(2))

    def test_energy_routes_to_ring(self):
        model = two_mode_model()
        h = model.energies()
        led = ledger_from_iid(model, LadderLevel(1, 4.0, 0.5), 500,
                              RandomStream.from_seed(3))
        rings = ring_table(h, [1.0, 2.0])[led.records]
        assert rings.tolist() == [bisect_right([1.0, 2.0], h[x])
                                  for x in led.records.tolist()]

    def test_max_records_cap(self):
        """A ledger holds the first max_records post-burn-in states of its
        level's trace: nothing below the cap is dropped."""
        for cap in (0, 3, 10_000):
            cfg = small_config(burn_in=50, macro_steps=300, max_records=cap)
            ts = run_ladder(two_mode_model(), cfg, seed=4)
            for i, tr in enumerate(ts.levels):
                want = tr.states[50:50 + cap].tolist()
                assert ts.ledger(i).records.tolist() == want, cap


class TestJumpAcceptance:
    def test_derived_acceptance_value(self):
        """x with h=0.5, y with h=0.6, level-1 density T=2, H=0: the jump
        x -> y is accepted with probability exp(-0.05)."""
        model = builtin_model("energy_table", energies=[0.5, 0.6])
        lv1 = LadderLevel(1, 2.0, 0.0)
        ledger = RingLedger(np.array([1]))
        K = empirical_jump_chain_matrix(jump_table(model, LEVEL0, lv1, []),  # one ring
                                        ledger, 1.0)
        assert K[0, 1] == pytest.approx(math.exp(-0.05), abs=1e-12)

    def test_favorable_ratio_always_accepted(self):
        """When d_0(y)/d_1(y) >= d_0(x)/d_1(x) the jump is accepted w.p. 1,
        so the kernel entry equals the full proposal mass."""
        model = builtin_model("energy_table", energies=[0.5, 0.6])
        lv1 = LadderLevel(1, 2.0, 0.0)
        ledger = RingLedger(np.array([0]))  # proposing the lower-energy state from x=1
        K = empirical_jump_chain_matrix(jump_table(model, LEVEL0, lv1, []), ledger, 1.0)
        assert K[1, 0] == pytest.approx(1.0, abs=1e-12)

    def test_empty_ledger_reduces_to_local_kernel(self):
        model = two_mode_model(10)
        lv1 = LadderLevel(1, 4.0, 1.0)
        empty = RingLedger(np.array([], dtype=np.int64))
        K_local = RandomWalkKernel(model, LEVEL0).exact_matrix()
        K = empirical_jump_chain_matrix(jump_table(model, LEVEL0, lv1, [1.0]), empty,
                                        0.7)
        np.testing.assert_allclose(K, K_local, atol=1e-15)


class TestRuns:
    def test_traces_have_exactly_m_rows(self):
        model = two_mode_model()
        cfg = small_config(macro_steps=777)
        ts = run_ladder(model, cfg, seed=5)
        assert all(len(tr) == 777 for tr in ts.levels)

    def test_pjump_zero_gives_pure_local_chains(self):
        model = two_mode_model()
        cfg = small_config(p_jump=0.0, macro_steps=500)
        ts = run_ladder(model, cfg, seed=5)
        for tr in ts.levels:
            assert np.all(tr.move_types == MOVE_LOCAL)

    def test_empty_ledger_forces_fallback_moves(self):
        model = two_mode_model()
        cfg = small_config(p_jump=1.0, macro_steps=300, max_records=0)
        ts = run_ladder(model, cfg, seed=5)
        jumps = ts.levels[0].move_types
        assert np.all(jumps == MOVE_JUMP_FALLBACK)

    def test_single_level_serial_is_plain_local_chain(self):
        model = two_mode_model()
        cfg = LadderConfig(levels=[LEVEL0], burn_in=0, p_jump=0.5,
                           schedule="serial", steps_per_level=400)
        ts = run_ladder(model, cfg, seed=9)
        assert np.all(ts.levels[0].move_types == MOVE_LOCAL)

    def test_seed_determinism_both_schedules(self):
        model = two_mode_model()
        for schedule in ("parallel", "serial"):
            cfg = small_config(schedule=schedule)
            a = run_ladder(model, cfg, seed=77)
            b = run_ladder(model, cfg, seed=77)
            for ta, tb in zip(a.levels, b.levels):
                assert np.array_equal(ta.states, tb.states)
                assert np.array_equal(ta.move_types, tb.move_types)
                assert np.array_equal(ta.accepted, tb.accepted)

    def test_ledger_partition_invariant(self):
        model = two_mode_model()
        cfg = small_config()
        ts = run_ladder(model, cfg, seed=3)
        h = model.energies()
        for i in range(cfg.n_levels):
            led = ts.ledger(i)
            rings = ring_table(h, ts.boundaries)[led.records]
            assert rings.tolist() == [bisect_right(cfg.boundaries(), h[s])
                                      for s in led.records.tolist()]
            assert np.all(rings <= len(ts.boundaries))

    def test_burn_in_states_absent_from_ledger(self):
        model = two_mode_model()
        cfg = small_config(burn_in=150, macro_steps=400)
        ts = run_ladder(model, cfg, seed=3)
        for i, tr in enumerate(ts.levels):
            assert ts.ledger(i).total == 400 - 150
            assert ts.ledger(i).records.tolist() == tr.states[150:].tolist()

    @pytest.mark.parametrize("schedule", ["parallel", "serial"])
    def test_warmup_step_is_the_first_jump_with_a_ledger(self, schedule):
        """Every level-0 jump before the warm-up step finds the level-1
        ledger empty; the one at the warm-up step finds a record. When the
        ledger never holds one, there is no warm-up step."""
        cfg = small_config(schedule=schedule, p_jump=1.0,
                           jump_mode="unrestricted", burn_in=120,
                           macro_steps=300, steps_per_level=300)
        moves = run_ladder(two_mode_model(), cfg, seed=3).levels[0].move_types
        warm = _warmup_step(cfg)
        assert warm == (120 if schedule == "parallel" else 0)
        assert np.all(moves[:warm] == MOVE_JUMP_FALLBACK)
        assert moves[warm] == MOVE_JUMP
        for empty in (small_config(schedule=schedule, p_jump=1.0, max_records=0),
                      small_config(schedule=schedule, p_jump=1.0, burn_in=300,
                                   macro_steps=300, steps_per_level=300)):
            assert _warmup_step(empty) is None
            moves = run_ladder(two_mode_model(), empty, seed=3).levels[0].move_types
            assert np.all(moves == MOVE_JUMP_FALLBACK)
        assert _warmup_step(small_config(levels=[LEVEL0], schedule=schedule)) is None

    def test_serial_ledger_matches_own_trace(self):
        """In a serial run the upper ledger is written only by its own level
        before the lower level starts; its records are exactly the upper
        trace's post-burn-in states."""
        model = two_mode_model()
        cfg = small_config(schedule="serial", steps_per_level=500, burn_in=50)
        ts = run_ladder(model, cfg, seed=13)
        recorded = ts.ledger(1).records.tolist()
        assert recorded == ts.levels[1].states[50:].tolist()

    def test_init_state_honored(self):
        model = two_mode_model()
        cfg = small_config(init_state=4, p_jump=0.0, macro_steps=1)
        ts = run_ladder(model, cfg, seed=1)
        for tr in ts.levels:
            assert tr.states[0] in (3, 4, 5)  # one local move from 4

    def test_bad_config_rejected(self):
        levels = geometric_ladder(2)
        with pytest.raises(ConfigError):
            LadderConfig(levels=levels, p_jump=1.5)
        with pytest.raises(ConfigError):
            LadderConfig(levels=levels, jump_mode="sideways")
        with pytest.raises(ConfigError):
            LadderConfig(levels=levels, burn_in=-1)
        with pytest.raises(ConfigError):
            LadderConfig(levels=levels, max_records=-1)
        with pytest.raises(ConfigError):
            LadderConfig(levels=levels, ring_boundaries=[2.0, 1.0])

    def test_unrestricted_jumps_have_no_boundaries(self):
        """jump_boundaries is the layout jumps draw by; the configured
        boundaries stay what boundaries() returns either way."""
        levels = geometric_ladder(3)
        for ring_boundaries in (None, [0.5], []):
            restricted, unrestricted = (
                LadderConfig(levels=levels, ring_boundaries=ring_boundaries,
                             jump_mode=mode) for mode in ("restricted", "unrestricted"))
            assert restricted.jump_boundaries() == restricted.boundaries()
            assert unrestricted.jump_boundaries() == []
            assert unrestricted.boundaries() == restricted.boundaries()


def interleaved_run(model, cfg, seed):
    """Reference: the ladder loop that takes the schedule's (level, step)
    pairs one at a time (every level advances once per macro step on the
    parallel schedule), with plain-list ledgers and the local MH move
    written out. Returns per-level (states, moves, accepted) lists and
    each level's (rings, flat records)."""
    K = cfg.n_levels
    logd = [level_logdensities(model, lv).tolist() for lv in cfg.levels]
    bounds = cfg.boundaries()
    ring_of = [bisect_right(bounds, float(e)) for e in model.energies()]
    rings = [[[] for _ in range(len(bounds) + 1)] for _ in range(K)]
    flat = [[] for _ in range(K)]
    rngs = RandomStream.from_seed(seed).spawn(K)
    states = [cfg.init_state if cfg.init_state is not None
              else rng.randint(model.size) for rng in rngs]
    top_down = range(K - 1, -1, -1)
    if cfg.schedule == "serial":
        order = [(i, t) for i in top_down for t in range(cfg.steps_per_level)]
    else:
        order = [(i, t) for t in range(cfg.macro_steps) for i in top_down]

    def local(i, x, rng):
        nbrs = model.neighbors(x)
        y = nbrs[rng.randint(len(nbrs))]
        if y is None:
            return x, False
        dl = logd[i][y] - logd[i][x]
        if dl >= 0.0 or rng.uniform() < math.exp(dl):
            return y, True
        return x, False

    columns = [([], [], []) for _ in range(K)]
    for i, t in order:
        rng, x = rngs[i], states[i]
        if i < K - 1 and cfg.p_jump > 0.0 and rng.uniform() < cfg.p_jump:
            pool = (rings[i + 1][ring_of[x]] if cfg.jump_mode == "restricted"
                    else flat[i + 1])
            if pool:
                y = pool[rng.randint(len(pool))]
                logr = (logd[i][y] + logd[i + 1][x]) - (logd[i][x] + logd[i + 1][y])
                move, acc = MOVE_JUMP, logr >= 0.0 or rng.uniform() < math.exp(logr)
                x = y if acc else x
            else:
                move = MOVE_JUMP_FALLBACK
                x, acc = local(i, x, rng)
        else:
            move = MOVE_LOCAL
            x, acc = local(i, x, rng)
        states[i] = x
        if t >= cfg.burn_in and (cfg.max_records is None
                                 or len(flat[i]) < cfg.max_records):
            rings[i][ring_of[x]].append(x)
            flat[i].append(x)
        for column, value in zip(columns[i], (x, move, acc)):
            column.append(value)
    return columns, list(zip(rings, flat))


STEPS = 200


def assert_matches_reference(model, levels, schedule, jump_mode):
    """Every trace column and every ledger of run_ladder equals the
    step-by-step reference, whatever the cap, burn-in and jump
    probability."""
    seed = 0
    for max_records in (None, 0, 1, 300):
        for burn_in in (0, 60, STEPS + 40):
            for p_jump in (0.0, 0.2, 1.0):
                seed += 1
                cfg = LadderConfig(levels=levels, burn_in=burn_in, p_jump=p_jump,
                                   jump_mode=jump_mode, schedule=schedule,
                                   macro_steps=STEPS, steps_per_level=STEPS,
                                   max_records=max_records)
                case = (max_records, burn_in, p_jump)
                columns, ledgers = interleaved_run(model, cfg, seed)
                ts = run_ladder(model, cfg, seed)
                for tr, (states, moves, accepted) in zip(ts.levels, columns):
                    assert tr.states.tolist() == states, case
                    assert tr.move_types.tolist() == moves, case
                    assert tr.accepted.tolist() == [int(a) for a in accepted], case
                for i, (rings, flat) in enumerate(ledgers):
                    led = ts.ledger(i)
                    ring = ring_table(model.energies(), ts.boundaries)[led.records]
                    assert led.records.tolist() == flat, case
                    assert [led.records[ring == j].tolist()
                            for j in range(len(ts.boundaries) + 1)] == rings, case


@pytest.mark.parametrize("n_levels", [1, 2, 3])
@pytest.mark.parametrize("jump_mode", ["restricted", "unrestricted"])
@pytest.mark.parametrize("schedule", ["parallel", "serial"])
def test_run_matches_interleaved_reference(schedule, jump_mode, n_levels):
    levels = geometric_ladder(n_levels, ratio=4.0, h_min=0.5, dh=0.5)
    assert_matches_reference(two_mode_model(), levels, schedule, jump_mode)


@pytest.mark.parametrize("n_levels", [2, 3])
@pytest.mark.parametrize("schedule", ["parallel", "serial"])
def test_unrestricted_run_is_the_one_ring_run(schedule, n_levels):
    """An unrestricted jump is the restricted jump with no ring boundaries:
    the two runs are equal in every trace column. With the default
    boundaries the restricted run differs, so the rings are in play."""
    model = two_mode_model()
    levels = geometric_ladder(n_levels, ratio=4.0, h_min=0.5, dh=0.5)
    differs = False
    for seed, (burn_in, p_jump, max_records) in enumerate(
            [(0, 0.2, None), (60, 1.0, 1), (60, 0.5, 300)]):
        kw = dict(levels=levels, burn_in=burn_in, p_jump=p_jump, schedule=schedule,
                  macro_steps=STEPS, steps_per_level=STEPS, max_records=max_records)
        one_ring = run_ladder(model, LadderConfig(ring_boundaries=[], **kw), seed)
        unrestricted = run_ladder(model, LadderConfig(jump_mode="unrestricted", **kw),
                                  seed)
        rings = run_ladder(model, LadderConfig(**kw), seed)
        for a, b, c in zip(one_ring.levels, unrestricted.levels, rings.levels,
                           strict=True):
            for column in fields(LevelTrace):
                assert np.array_equal(getattr(a, column.name),
                                      getattr(b, column.name)), (seed, column.name)
            differs |= not np.array_equal(a.states, c.states)
    assert differs


def edge_blocks(gen):
    """rng._blocks with every 61st uniform replaced by 1.0: the value that
    a draw of int(u * m) guards against, as it maps to m. No double below
    1 does (u * m rounds below m), so a [0, 1) stream never reaches it."""
    while True:
        block = gen.random(rng_module._BUF).tolist()
        block[::61] = [1.0] * len(block[::61])
        yield block


WIDE_AND_STEEP = {
    # 8 neighbor slots per state
    "potts_2x2": (builtin_model("potts_grid", width=2, height=2, labels=3, beta=0.6),
                  -2.0),
    # uphill steps of 800 and more: level 0's acceptance underflows to 0.0,
    # and the move still draws its uniform
    "steep": (builtin_model("energy_table", energies=[
        0.0, 800.0, 1.0, 1700.0, 0.25, 2.0, 900.0, 0.0, 1.5, 850.0]), 0.0),
}


@pytest.mark.parametrize("n_levels", [1, 2, 3])
@pytest.mark.parametrize("jump_mode", ["restricted", "unrestricted"])
@pytest.mark.parametrize("schedule", ["parallel", "serial"])
@pytest.mark.parametrize("name", list(WIDE_AND_STEEP))
def test_run_matches_interleaved_reference_on_wide_and_steep_models(
        monkeypatch, name, schedule, jump_mode, n_levels):
    """The step table is RandomWalkKernel.step: on states with many slots,
    on an acceptance of exactly 0.0, and where a draw picks one past the
    last slot (or the last visible record)."""
    model, h_min = WIDE_AND_STEEP[name]
    levels = geometric_ladder(n_levels, ratio=4.0, h_min=h_min, dh=0.5)
    moves = RandomWalkKernel(model, levels[0]).moves
    if name == "potts_2x2":
        assert {len(slots) for slots in moves} == {8}
    else:
        assert 0.0 in [p for slots in moves for _, p in slots]
    monkeypatch.setattr(rng_module, "_blocks", edge_blocks)
    assert_matches_reference(model, levels, schedule, jump_mode)


def test_run_ladder_peak_memory_per_level_step():
    """A default-sized two-level run peaks at no more than 32 bytes per
    level-step (restricted, parallel) or 28 (unrestricted, or serial): the
    upper trace, the jump pools and their tables of visible counts, and one
    list of pre-made packed codes, which gives way to the int64 states and
    two int8 columns after the pools and tables are dropped. With a pool
    of flat record indices per ring, bisected, kept until the run ended,
    the three took about 34, 29 and 30."""
    cfg = validate_config({"experiment": "run"})
    model, ladder = cfg.build_model(), cfg.ladder.build()
    assert (ladder.n_levels, ladder.jump_mode, ladder.schedule) == (
        2, "restricted", "parallel")
    for overrides, bound in [({}, 32), ({"jump_mode": "unrestricted"}, 28),
                             ({"schedule": "serial"}, 28)]:
        ladder = cfg.ladder.build(**overrides)
        tracemalloc.start()
        try:
            ts = run_ladder(model, ladder, cfg.seed)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * ladder.n_levels * ladder.n_steps, overrides
        assert [(tr.states.dtype, tr.move_types.dtype, tr.accepted.dtype)
                for tr in ts.levels] == [(np.int64, np.int8, np.int8)] * 2
        del ts


def assert_same_run(ts, fresh):
    """Every trace column and every ledger of two runs are equal."""
    for tr, want in zip(ts.levels, fresh.levels, strict=True):
        assert tr.level == want.level
        assert tr.states.tolist() == want.states.tolist()
        assert tr.move_types.tolist() == want.move_types.tolist()
        assert tr.accepted.tolist() == want.accepted.tolist()
    for i in range(len(fresh.levels)):
        led, want = ts.ledger(i), fresh.ledger(i)
        assert led.records.tolist() == want.records.tolist()
    assert ts.boundaries == fresh.boundaries


FLIP = {"jump_mode": {"restricted": "unrestricted", "unrestricted": "restricted"},
        "schedule": {"parallel": "serial", "serial": "parallel"}}


@pytest.mark.parametrize("flip", ["jump_mode", "schedule"])
@pytest.mark.parametrize("n_levels", [1, 2, 3])
@pytest.mark.parametrize("jump_mode", ["restricted", "unrestricted"])
@pytest.mark.parametrize("schedule", ["parallel", "serial"])
def test_reused_top_level_equals_a_fresh_run(schedule, jump_mode, n_levels, flip):
    """A run that takes its top level from a run in the other jump mode or
    schedule equals a fresh run, over the interleaved reference's grid."""
    model = two_mode_model()
    levels = geometric_ladder(n_levels, ratio=4.0, h_min=0.5, dh=0.5)
    seed = 0
    for max_records in (None, 0, 1, 300):
        for burn_in in (0, 60, STEPS + 40):
            for p_jump in (0.0, 0.2, 1.0):
                seed += 1
                kw = dict(levels=levels, burn_in=burn_in, p_jump=p_jump,
                          jump_mode=jump_mode, schedule=schedule,
                          macro_steps=STEPS, steps_per_level=STEPS,
                          max_records=max_records)
                first = run_ladder(model, LadderConfig(**kw), seed)
                kw[flip] = FLIP[flip][kw[flip]]
                cfg = LadderConfig(**kw)
                ts = run_ladder(model, cfg, seed, reuse=first)
                assert ts.levels[-1] is first.levels[-1]
                assert_same_run(ts, run_ladder(model, cfg, seed))


def _differs(field):
    """(first run's model, config and seed, second's) that differ only in
    one thing the top level depends on."""
    model = two_mode_model()
    base = dict(levels=geometric_ladder(2, ratio=4.0, h_min=0.5, dh=0.5),
                burn_in=60, p_jump=0.2, macro_steps=STEPS, steps_per_level=STEPS)
    first, second, seeds, models = dict(base), dict(base), (5, 5), (model, model)
    if field == "seed":
        seeds = (5, 6)
    elif field == "model object":
        models = (model, two_mode_model())
    elif field == "model energies":
        models = (model, two_mode_model(depth=3.0))
    elif field == "burn_in":
        second["burn_in"] = 61
    elif field == "max_records":
        second["max_records"] = 100
    elif field == "boundaries":
        second["ring_boundaries"] = [1.5]
    elif field == "step count":
        second["macro_steps"] = STEPS + 1
    elif field == "schedule step count":
        # parallel runs macro_steps, serial steps_per_level
        first["steps_per_level"] = STEPS + 1
        second.update(schedule="serial", steps_per_level=STEPS + 1)
    elif field == "start state":
        first["init_state"], second["init_state"] = 3, 4
    elif field == "drawn start state":
        # the start the top level's stream draws, given instead: the
        # stream then makes one draw fewer
        second["init_state"] = RandomStream.from_seed(5).spawn(2)[1].randint(model.size)
    elif field == "level count":
        second["levels"] = geometric_ladder(3, ratio=4.0, h_min=0.5, dh=0.5)
    elif field == "top level":
        second["levels"] = geometric_ladder(2, ratio=5.0, h_min=0.5, dh=0.5)
    return (models[0], LadderConfig(**first), seeds[0]), (
        models[1], LadderConfig(**second), seeds[1])


KEY_FIELDS = ["seed", "model object", "model energies", "step count",
              "schedule step count", "start state", "drawn start state",
              "level count", "top level"]


@pytest.mark.parametrize("field", KEY_FIELDS)
def test_reuse_of_a_different_top_level_is_not_taken(field):
    (m1, c1, s1), (m2, c2, s2) = _differs(field)
    first = run_ladder(m1, c1, s1)
    ts = run_ladder(m2, c2, s2, reuse=first)
    assert ts.levels[-1] is not first.levels[-1]
    assert_same_run(ts, run_ladder(m2, c2, s2))


@pytest.mark.parametrize("field", ["burn_in", "max_records", "boundaries"])
def test_reuse_across_ledger_settings_equals_a_fresh_run(field):
    """burn_in, max_records and the ring boundaries shape only the
    ledgers, which derive from the traces: the top level is reused."""
    (m1, c1, s1), (m2, c2, s2) = _differs(field)
    first = run_ladder(m1, c1, s1)
    ts = run_ladder(m2, c2, s2, reuse=first)
    assert ts.levels[-1] is first.levels[-1]
    assert_same_run(ts, run_ladder(m2, c2, s2))


def test_reuse_is_taken_across_equal_spellings_of_the_top_level():
    """Default ring boundaries and the same ones given explicitly, and
    parallel macro_steps equal to serial steps_per_level, share a top
    level."""
    model = two_mode_model()
    levels = geometric_ladder(2, ratio=4.0, h_min=0.5, dh=0.5)
    c1 = LadderConfig(levels=levels, burn_in=60, macro_steps=STEPS,
                      steps_per_level=STEPS + 7)
    c2 = LadderConfig(levels=levels, burn_in=60, schedule="serial",
                      steps_per_level=STEPS, ring_boundaries=[0.5 + 0.5])
    first = run_ladder(model, c1, 9)
    ts = run_ladder(model, c2, 9, reuse=first)
    assert ts.levels[-1] is first.levels[-1]
    assert_same_run(ts, run_ladder(model, c2, 9))


def test_level0_without_jumps_is_the_local_kernel_chain():
    model = two_mode_model()
    cfg = small_config(p_jump=0.0, macro_steps=500)
    ts = run_ladder(model, cfg, seed=21)
    rng = RandomStream.from_seed(21).spawn(cfg.n_levels)[0]
    kernel = RandomWalkKernel(model, cfg.levels[0])
    x = rng.randint(model.size)
    states, accepted = [], []
    for _ in range(500):
        x, acc = kernel.step(x, rng)
        states.append(x)
        accepted.append(int(acc))
    assert ts.levels[0].states.tolist() == states
    assert ts.levels[0].accepted.tolist() == accepted


def test_first_passage_is_the_first_state_in_the_target():
    gen = np.random.default_rng(4)
    target = gen.random(30) < 0.1
    for _ in range(50):
        states = gen.integers(30, size=int(gen.integers(0, 60)))
        expected = next((t for t, s in enumerate(states.tolist()) if target[s]), -1)
        assert _first_passage(states, target) == expected


class TestIdealizedJump:
    def test_block_diagonal_reversible_stationary(self):
        """The jump kernel with exact ring-truncated proposals preserves the
        target exactly: this is the oracle the two-density acceptance
        ratio is chosen to satisfy."""
        model = two_mode_model(24, depth=3.0)
        levels = geometric_ladder(2, ratio=4.0, h_min=0.5, dh=0.5)
        boundaries = [lv.truncation for lv in levels[1:]]
        pi = enumerate_distribution(model, levels[0])
        K = idealized_jump_matrix(jump_table(model, levels[0], levels[1], boundaries))

        assert stationary_gap(K, pi.probs) <= 1e-12
        assert reversibility_gap(K, pi.probs) <= 1e-12
        rings = np.array([bisect_right(boundaries, e) for e in model.energies()])
        cross = K[rings[:, None] != rings[None, :]]
        assert np.all(cross == 0.0)

    def test_ledger_bias_decays_with_ledger_size(self):
        model = two_mode_model(16)
        levels = geometric_ladder(2, ratio=4.0, h_min=0.5, dh=0.5)
        table = jump_table(model, levels[0], levels[1], [lv.truncation for lv in levels[1:]])
        pi = enumerate_distribution(model, levels[0])
        rng = RandomStream.from_seed(31)
        tvs = []
        for size in (100, 1000, 10000):
            led = ledger_from_iid(model, levels[1], size, rng)
            K = empirical_jump_chain_matrix(table, led, 0.5)
            tvs.append(tv_distance(stationary_distribution(K), pi.probs))
        assert tvs[0] > tvs[2]


# Reference copies of the per-pair loops the jump kernels were first
# written as; the vectorized builder must reproduce them bit for bit.


def _loop_log_accept(logd_lo, logd_hi, x, y):
    return (logd_lo[y] + logd_hi[x]) - (logd_lo[x] + logd_hi[y])


def loop_idealized_jump_matrix(model, level_lo, level_hi, boundaries):
    h = model.energies()
    logd_lo = level_logdensities(model, level_lo)
    logd_hi = level_logdensities(model, level_hi)
    q_hi = enumerate_distribution(model, level_hi)
    ring_of = np.array([bisect_right(boundaries, e) for e in h])
    n = model.size
    K = np.zeros((n, n))
    for r in range(len(boundaries) + 1):
        members = np.nonzero(ring_of == r)[0]
        if len(members) == 0:
            continue
        qr = q_hi.probs[members]
        qr = qr / qr.sum()
        for x in members:
            row = 0.0
            for yi, y in enumerate(members):
                if y == x:
                    continue
                a = min(1.0, math.exp(_loop_log_accept(logd_lo, logd_hi, x, y)))
                K[x, y] = qr[yi] * a
                row += K[x, y]
            K[x, x] = 1.0 - row
    return K


def loop_empirical_jump_chain_matrix(model, level_lo, level_hi, ledger, p_jump,
                                     jump_mode="restricted"):
    ring_of = [bisect_right(ledger.boundaries, e) for e in model.energies()]
    logd_lo = level_logdensities(model, level_lo)
    logd_hi = level_logdensities(model, level_hi)
    K_local = RandomWalkKernel(model, level_lo).exact_matrix()
    n = model.size
    K_jump = np.zeros((n, n))
    for x in range(n):
        pool = [y for y in ledger.records.tolist()
                if jump_mode == "unrestricted" or ring_of[y] == ring_of[x]]
        if not pool:
            K_jump[x] = K_local[x]
            continue
        counts = np.bincount(pool, minlength=n)
        m = len(pool)
        row = 0.0
        for y in np.nonzero(counts)[0]:
            if y == x:
                continue
            a = min(1.0, math.exp(_loop_log_accept(logd_lo, logd_hi, x, y)))
            K_jump[x, y] = (counts[y] / m) * a
            row += K_jump[x, y]
        K_jump[x, x] = 1.0 - row
    return p_jump * K_jump + (1.0 - p_jump) * K_local


# what the loop reference reads of a ledger: its records and the ring
# boundaries that split them
LoopLedger = namedtuple("LoopLedger", "records boundaries")

# one ring per truncation, several rings, and two empty rings (below every
# energy and between equal boundaries)
RING_LAYOUTS = {"truncation": [1.0], "four_rings": [0.3, 1.0, 2.5],
                "empty_rings": [-1.0, 0.7, 0.7, 1.5]}


class TestJumpKernelMatchesLoops:
    model = two_mode_model(40, depth=3.0)
    levels = geometric_ladder(2, ratio=4.0, h_min=0.5, dh=0.5)

    @pytest.mark.parametrize("layout", RING_LAYOUTS)
    def test_idealized(self, layout):
        b = RING_LAYOUTS[layout]
        K = idealized_jump_matrix(jump_table(self.model, *self.levels, b))
        assert np.array_equal(K, loop_idealized_jump_matrix(self.model, *self.levels, b))

    @pytest.mark.parametrize("layout", RING_LAYOUTS)
    @pytest.mark.parametrize("jump_mode", ["restricted", "unrestricted"])
    @pytest.mark.parametrize("size", [0, 1, 50, 2000])
    @pytest.mark.parametrize("cap", [None, 30])
    def test_empirical(self, layout, jump_mode, size, cap):
        b = RING_LAYOUTS[layout]
        full = ledger_from_iid(self.model, self.levels[1], size,
                               RandomStream.from_seed(size + 7))
        ledger = RingLedger(full.records[:cap])
        assert ledger.total == (size if cap is None else min(size, cap))
        # the builder's unrestricted jump is the one-ring jump
        bounds = b if jump_mode == "restricted" else ()
        K = empirical_jump_chain_matrix(jump_table(self.model, *self.levels, bounds),
                                        ledger, 0.6)
        assert np.array_equal(K, loop_empirical_jump_chain_matrix(
            self.model, *self.levels, LoopLedger(ledger.records, tuple(b)), 0.6,
            jump_mode))


class TestJumpTable:
    """One jump_table per model, level pair and ring layout serves every
    jump matrix built under them: building a matrix leaves the table as
    it was."""

    levels = geometric_ladder(3, ratio=4.0, h_min=0.5, dh=0.5)

    # one to four rings; the ring above h = 5000 holds states only at
    # depth 2000, where the level-1 law is 0.0 in every one of them
    @pytest.mark.parametrize("boundaries", [[], [1.0], [1.0, 5000.0],
                                            [0.3, 1.0, 5000.0]])
    @pytest.mark.parametrize("depth", [4.0, 200.0, 2000.0])
    def test_one_table_builds_what_a_fresh_table_builds(self, boundaries, depth):
        model = builtin_model("double_well_grid", points=41, bounds=[-2.0, 2.0],
                              depth=depth)
        lo, hi = self.levels[:2]
        top = ring_table(model.energies(), [5000.0]) == 1
        assert top.any() == (depth == 2000.0)
        assert not enumerate_distribution(model, hi).probs[top].any()
        # restricted jumps, then unrestricted ones: the one-ring layout
        for bounds in (boundaries, []):
            table = jump_table(model, lo, hi, bounds)
            built = [(idealized_jump_matrix(table),
                      idealized_jump_matrix(jump_table(model, lo, hi, bounds)))]
            for size in (0, 5, 300):
                ledger = ledger_from_iid(model, hi, size, RandomStream.from_seed(size))
                built.append((
                    empirical_jump_chain_matrix(table, ledger, 0.6),
                    empirical_jump_chain_matrix(jump_table(model, lo, hi, bounds),
                                                ledger, 0.6)))
            for shared, fresh in built:
                assert np.array_equal(shared, fresh)

    def test_the_table_carries_its_lower_levels_local_move(self):
        model = two_mode_model(20)
        lo, hi = self.levels[1:]
        table = jump_table(model, lo, hi, [1.0])
        assert np.array_equal(table.K_local, RandomWalkKernel(model, lo).exact_matrix())
        assert not table.K_local.flags.writeable
        with pytest.raises(ValueError):
            table.K_local[0, 0] = 0.5

    def test_equal_spellings_of_one_layout_build_one_table(self):
        model = two_mode_model(20)
        lo, hi = self.levels[:2]
        tuple_table, list_table = (jump_table(model, lo, hi, b) for b in ((1.0,), [1.0]))
        assert np.array_equal(idealized_jump_matrix(tuple_table),
                              idealized_jump_matrix(list_table))
        for (xs, accept), (ys, want) in zip(tuple_table.rings, list_table.rings,
                                            strict=True):
            assert np.array_equal(xs, ys) and np.array_equal(accept, want)


@pytest.mark.parametrize("points", [21, 61, 201])
@pytest.mark.parametrize("depth", [1.0, 4.0, 40.0])
def test_one_ring_idealized_jump_is_the_independence_sampler(points, depth):
    """The paper's first question: a jump to any state, proposed from the
    level-hi law, is the Metropolized independence sampler. With no ring
    boundaries the idealized jump matrix is its exact matrix."""
    model = builtin_model("double_well_grid", points=points, bounds=[-2.0, 2.0],
                          depth=depth)
    levels = geometric_ladder(2, ratio=4.0, h_min=0.5, dh=0.5)
    pi, q_hi = (enumerate_distribution(model, lv) for lv in levels)
    K = idealized_jump_matrix(jump_table(model, *levels, []))
    assert np.max(np.abs(K - IndependenceKernel(pi, q_hi).exact_matrix())) <= 1e-12


@pytest.mark.parametrize("depth", [200.0, 2000.0])
def test_idealized_kernel_is_exact_on_deep_wells(depth):
    """exp(log r) overflows for such depths; the kernel takes
    exp(min(log r, 0)) and keeps its gaps at machine precision."""
    model = builtin_model("double_well_grid", points=41, bounds=[-2.0, 2.0],
                          depth=depth)
    levels = geometric_ladder(2, ratio=4.0, h_min=0.5, dh=0.5)
    pi = enumerate_distribution(model, levels[0])
    K = idealized_jump_matrix(jump_table(model, *levels, [levels[1].truncation]))
    assert stationary_gap(K, pi.probs) <= 1e-12
    assert reversibility_gap(K, pi.probs) <= 1e-12


def test_idealized_ring_where_the_upper_law_underflows_proposes_in_it():
    """Above h = 5000 the level-1 law of a depth-2000 well is 0.0 in every
    state, but its ring-conditional law is not: a jump from that ring
    proposes within it, from the level-1 log-densities, and the kernel
    stays exact for the level-0 target."""
    model = builtin_model("double_well_grid", points=41, bounds=[-2.0, 2.0],
                          depth=2000.0)
    levels = geometric_ladder(2, ratio=4.0, h_min=0.5, dh=0.5)
    boundaries = [levels[1].truncation, 5000.0]
    assert boundaries == [1.0, 5000.0]
    top = np.flatnonzero(ring_table(model.energies(), boundaries) == 2)
    assert top.tolist() == [0, 1, 2, 3, 37, 38, 39, 40]
    assert not enumerate_distribution(model, levels[1]).probs[top].any()
    K = idealized_jump_matrix(jump_table(model, *levels, boundaries))
    outside = np.setdiff1d(np.arange(model.size), top)
    assert not K[np.ix_(top, outside)].any()
    assert (np.diag(K)[top] < 1.0).all()
    # the same rows from log-space arithmetic alone
    lo, hi = (level_logdensities(model, lv) for lv in levels)
    log_q = hi[top] - np.logaddexp.reduce(hi[top])
    want = np.zeros((len(top), len(top)))
    for a, x in enumerate(top):
        for b, y in enumerate(top):
            if x != y:
                want[a, b] = math.exp(log_q[b] + min(0.0, (lo[y] + hi[x]) - (lo[x] + hi[y])))
        want[a, a] = 1.0 - want[a].sum()
    assert np.allclose(K[np.ix_(top, top)], want, rtol=0.0, atol=1e-12)
    pi = enumerate_distribution(model, levels[0])
    assert stationary_gap(K, pi.probs) <= 1e-12
    assert reversibility_gap(K, pi.probs) <= 1e-12
