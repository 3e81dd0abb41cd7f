import math

import numpy as np
import pytest

from eelab.eeladder import (
    MOVE_JUMP,
    MOVE_JUMP_FALLBACK,
    MOVE_LOCAL,
    LadderConfig,
    RingLedger,
    ee_jump_step,
    empirical_jump_chain_matrix,
    idealized_jump_matrix,
    ledger_from_iid,
    run_ladder,
)
from eelab.errors import ConfigError
from eelab.kernels import (
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
        led = RingLedger(1, [1.0, 2.0])
        assert led.ring_index(0.5) == 0
        assert led.ring_index(1.0) == 1  # left-closed
        assert led.ring_index(3.7) == 2

    def test_every_energy_has_a_ring(self):
        led = RingLedger(0, [0.0, 1.0, 5.0])
        for e in (-1e9, -0.001, 0.0, 0.5, 4.999, 5.0, 1e9):
            assert 0 <= led.ring_index(e) < led.n_rings


    def test_ring_table_applies_ring_index_per_state(self):
        led = RingLedger(0, [0.0, 1.0])
        energies = np.array([-0.5, 0.0, 0.99, 1.0, 7.0])
        assert led.ring_table(energies) == [0, 1, 1, 2, 2]


class TestRecord:
    def test_totals_count_records(self):
        led = RingLedger(1, [1.0, 2.0])
        for k in range(10):
            led.record(k, led.ring_index(0.3 * k))
        assert led.total == 10

    def test_energy_routes_to_ring(self):
        led = RingLedger(1, [1.0, 2.0])
        led.record(7, led.ring_index(1.5))
        assert led.rings[1] == [7]

    def test_max_records_cap(self):
        led = RingLedger(1, [1.0], max_records=3)
        for k in range(10):
            led.record(k, 0)
        assert led.total == 3
        assert led.rings[0] == [0, 1, 2]  # nothing below the cap is dropped


class TestDrawProposal:
    def test_restricted_empty_ring(self):
        led = RingLedger(1, [1.0, 2.0])
        led.record(3, 1)  # populates ring 1 only
        rng = RandomStream.from_seed(0)
        assert led.draw("restricted", 0, rng) is None

    def test_unrestricted_finds_any_record(self):
        led = RingLedger(1, [1.0, 2.0])
        led.record(3, 1)
        rng = RandomStream.from_seed(0)
        assert led.draw("unrestricted", 0, rng) == 3

    def test_single_state_point_mass(self):
        led = RingLedger(1, [1.0])
        led.record(9, 0)
        rng = RandomStream.from_seed(0)
        for _ in range(5):
            assert led.draw("restricted", 0, rng) == 9

    def test_empty_draw_consumes_no_randomness(self):
        led = RingLedger(1, [1.0])
        a = RandomStream.from_seed(123)
        b = RandomStream.from_seed(123)
        assert led.draw("restricted", 0, a) is None
        assert led.draw("unrestricted", 0, a) is None
        assert a.uniform() == b.uniform()


class TestJumpAcceptance:
    def test_derived_acceptance_value(self):
        """x with h=0.5, y with h=0.6, level-1 density T=2, H=0: the jump
        x -> y is accepted with probability exp(-0.05)."""
        model = builtin_model("energy_table", energies=[0.5, 0.6])
        lv1 = LadderLevel(1, 2.0, 0.0)
        ledger = RingLedger(1, [])  # single ring
        ledger.record(1, 0)
        K = empirical_jump_chain_matrix(model, LEVEL0, lv1, ledger, p_jump=1.0)
        assert K[0, 1] == pytest.approx(math.exp(-0.05), abs=1e-12)

    def test_favorable_ratio_always_accepted(self):
        """When d_0(y)/d_1(y) >= d_0(x)/d_1(x) the jump is accepted w.p. 1,
        so the kernel entry equals the full proposal mass."""
        model = builtin_model("energy_table", energies=[0.5, 0.6])
        lv1 = LadderLevel(1, 2.0, 0.0)
        ledger = RingLedger(1, [])
        ledger.record(0, 0)  # proposing the lower-energy state from x=1
        K = empirical_jump_chain_matrix(model, LEVEL0, lv1, ledger, p_jump=1.0)
        assert K[1, 0] == pytest.approx(1.0, abs=1e-12)

    def test_empty_ledger_reduces_to_local_kernel(self):
        model = two_mode_model(10)
        lv1 = LadderLevel(1, 4.0, 1.0)
        empty = RingLedger(1, [1.0])
        K = empirical_jump_chain_matrix(model, LEVEL0, lv1, empty, p_jump=0.7)
        K_local = RandomWalkKernel(model, LEVEL0).exact_matrix()
        np.testing.assert_allclose(K, K_local, atol=1e-15)

    def test_fallback_consumes_rng_exactly_like_local_step(self):
        """With an empty ledger the jump step must behave bit-for-bit like a
        plain local move on the same stream."""
        from eelab.statespace import level_logdensities

        model = two_mode_model(10)
        lv1 = LadderLevel(1, 4.0, 1.0)
        kernel = RandomWalkKernel(model, LEVEL0)
        logd0 = level_logdensities(model, LEVEL0)
        logd1 = level_logdensities(model, lv1)
        empty = RingLedger(1, [1.0])
        h = model.energies()
        a = RandomStream.from_seed(404)
        b = RandomStream.from_seed(404)
        x = 5
        for _ in range(50):
            xa, move, _ = ee_jump_step(x, empty.ring_index(float(h[x])), empty,
                                       "restricted", logd0, logd1, kernel, a)
            xb, _ = kernel.step(x, b)
            assert move == MOVE_JUMP_FALLBACK
            assert xa == xb
            x = xa
        assert a.uniform() == b.uniform()

    def test_jump_step_accepts_recorded_state(self):
        from eelab.statespace import level_logdensities

        model = builtin_model("energy_table", energies=[0.5, 0.6])
        lv1 = LadderLevel(1, 2.0, 0.0)
        kernel = RandomWalkKernel(model, LEVEL0)
        logd0 = level_logdensities(model, LEVEL0)
        logd1 = level_logdensities(model, lv1)
        ledger = RingLedger(1, [])
        ledger.record(0, 0)
        rng = RandomStream.from_seed(1)
        y, move, acc = ee_jump_step(1, ledger.ring_index(0.6), ledger, "restricted",
                                    logd0, logd1, kernel, rng)
        assert (y, move, acc) == (0, MOVE_JUMP, True)  # favorable ratio


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
        for led in ts.ledgers:
            for j, states in enumerate(led.rings):
                for s in states:
                    assert led.ring_index(float(h[s])) == j
            assert sum(len(states) for states in led.rings) == led.total

    def test_burn_in_states_absent_from_ledger(self):
        model = two_mode_model()
        cfg = small_config(burn_in=150, macro_steps=400)
        ts = run_ladder(model, cfg, seed=3)
        for led in ts.ledgers:
            assert led.total == 400 - 150

    def test_serial_ledger_matches_own_trace(self):
        """In a serial run the upper ledger is written only by its own level
        before the lower level starts; its records are exactly the upper
        trace's post-burn-in states."""
        model = two_mode_model()
        cfg = small_config(schedule="serial", steps_per_level=500, burn_in=50)
        ts = run_ladder(model, cfg, seed=13)
        recorded = ts.ledgers[1].all_records
        assert recorded == list(ts.levels[1].states[50:])

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


class TestIdealizedJump:
    def test_block_diagonal_reversible_stationary(self):
        """The jump kernel with exact ring-truncated proposals preserves the
        target exactly: this is the oracle the two-density acceptance
        ratio is chosen to satisfy."""
        model = two_mode_model(24, depth=3.0)
        levels = geometric_ladder(2, ratio=4.0, h_min=0.5, dh=0.5)
        boundaries = [lv.truncation for lv in levels[1:]]
        pi = enumerate_distribution(model, levels[0])
        K = idealized_jump_matrix(model, levels[0], levels[1], boundaries)

        assert stationary_gap(K, pi.probs) <= 1e-12
        assert reversibility_gap(K, pi.probs) <= 1e-12
        h = model.energies()
        led = RingLedger(0, boundaries)
        rings = np.array([led.ring_index(float(e)) for e in h])
        cross = K[rings[:, None] != rings[None, :]]
        assert np.all(cross == 0.0)

    def test_ledger_bias_decays_with_ledger_size(self):
        model = two_mode_model(16)
        levels = geometric_ladder(2, ratio=4.0, h_min=0.5, dh=0.5)
        boundaries = [lv.truncation for lv in levels[1:]]
        pi = enumerate_distribution(model, levels[0])
        rng = RandomStream.from_seed(31)
        tvs = []
        for size in (100, 1000, 10000):
            led = ledger_from_iid(model, levels[1], boundaries, size, rng)
            K = empirical_jump_chain_matrix(
                model, levels[0], levels[1], led, p_jump=0.5
            )
            tvs.append(tv_distance(stationary_distribution(K), pi.probs))
        assert tvs[0] > tvs[2]
