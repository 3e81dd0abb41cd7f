import math

import numpy as np
import pytest

from eelab.errors import CapabilityError, ConfigError, DomainError, ShapeError
from eelab.statespace import (
    FiniteDistribution,
    LadderLevel,
    builtin_model,
    enumerate_distribution,
    geometric_ladder,
    level_logdensities,
    validate_ladder,
)

LEVEL0 = LadderLevel(0, 1.0, -math.inf)


class TestEnergy:
    def test_table_weights_give_log_energies(self):
        # unnormalized weights (1, 1/3): h(1) = -log(1/3) = ln 3
        m = builtin_model("table", weights=[1.0, 1.0 / 3.0])
        assert m.energies()[1] == pytest.approx(math.log(3.0), abs=1e-12)
        assert m.energies()[0] == pytest.approx(0.0, abs=1e-12)

    def test_energy_is_deterministic(self):
        m = builtin_model("gaussian_mixture_grid", means=[-1, 1], sds=[0.4, 0.4],
                          weights=[1, 1], points=31, bounds=(-3, 3))
        again = builtin_model("gaussian_mixture_grid", means=[-1, 1], sds=[0.4, 0.4],
                              weights=[1, 1], points=31, bounds=(-3, 3))
        np.testing.assert_array_equal(m.energies(), again.energies())

    def test_double_well_zero_at_unit(self):
        m = builtin_model("double_well_grid", points=41, bounds=(-2.0, 2.0))
        # x = 1 is grid point 30 of linspace(-2, 2, 41)
        assert np.linspace(-2.0, 2.0, 41)[30] == pytest.approx(1.0)
        assert m.energies()[30] == pytest.approx(0.0, abs=1e-12)

    def test_state_outside_space_raises(self):
        m = builtin_model("table", weights=[1, 2])
        m.check_state(1)
        with pytest.raises(DomainError):
            m.check_state(2)
        with pytest.raises(DomainError):
            m.neighbors(-1)


class TestLevelLogdensity:
    def test_truncation_inactive(self):
        m = builtin_model("energy_table", energies=[2.0])
        lv = LadderLevel(1, 2.0, 1.0)
        assert level_logdensities(m, lv)[0] == pytest.approx(-1.0, abs=1e-15)

    def test_truncation_active(self):
        m = builtin_model("energy_table", energies=[-1.0])
        lv = LadderLevel(1, 2.0, 0.0)
        assert level_logdensities(m, lv)[0] == pytest.approx(0.0, abs=1e-15)

    def test_level0_is_identity(self):
        m = builtin_model("energy_table", energies=[0.7])
        assert level_logdensities(m, LEVEL0)[0] == -0.7


class TestEnumerateDistribution:
    def test_two_state_target(self):
        m = builtin_model("energy_table", energies=[0.0, math.log(3.0)])
        d = enumerate_distribution(m, LEVEL0)
        np.testing.assert_allclose(d.probs, [0.75, 0.25], atol=1e-15)

    def test_uniform_energies_give_uniform(self):
        m = builtin_model("energy_table", energies=[2.5] * 7)
        d = enumerate_distribution(m, LEVEL0)
        np.testing.assert_allclose(d.probs, np.full(7, 1.0 / 7.0), atol=1e-15)

    def test_double_well_symmetry(self):
        m = builtin_model("double_well_grid", points=41, bounds=(-2.0, 2.0))
        d = enumerate_distribution(m, LEVEL0)
        np.testing.assert_allclose(d.probs, d.probs[::-1], atol=1e-15)

    def test_level0_identity_with_direct_normalization(self):
        rng = np.random.default_rng(3)
        h = rng.uniform(-2, 5, size=17)
        m = builtin_model("energy_table", energies=h)
        d = enumerate_distribution(m, LEVEL0)
        direct = np.exp(-(h - h.max()))
        direct /= direct.sum()
        np.testing.assert_allclose(d.probs, direct, atol=1e-15)

    def test_sums_to_one_and_positive_at_every_level(self):
        m = builtin_model("double_well_grid", points=25, bounds=(-2, 2), depth=50.0)
        for lv in geometric_ladder(4, ratio=3.0, h_min=1.0, dh=2.0):
            d = enumerate_distribution(m, lv)
            assert abs(d.probs.sum() - 1.0) <= 1e-12
            assert np.all(d.probs > 0)

    def test_non_enumerable_raises_capability(self):
        # the model itself is refused, so nothing is left to enumerate
        with pytest.raises(CapabilityError, match="cap 1000"):
            builtin_model("potts_grid", width=5, height=5, labels=3, beta=0.1,
                          enum_cap=1000)


class TestBuiltinModels:
    def test_table_normalization(self):
        m = builtin_model("table", weights=[3.0, 1.0])
        d = enumerate_distribution(m, LEVEL0)
        np.testing.assert_allclose(d.probs, [0.75, 0.25], atol=1e-15)

    def test_potts_grid_enumerates_16_labelings(self):
        m = builtin_model("potts_grid", width=2, height=2, labels=2, beta=0.5)
        assert m.size == 16
        assert m.energies().shape == (16,)

    def test_gaussian_mixture_symmetric_modes(self):
        m = builtin_model("gaussian_mixture_grid", means=[-1.0, 1.0],
                          sds=[0.3, 0.3], weights=[1, 1], points=41,
                          bounds=(-3.0, 3.0))
        d = enumerate_distribution(m, LEVEL0)
        np.testing.assert_allclose(d.probs, d.probs[::-1], atol=1e-12)

    def test_invalid_params_raise_config_error(self):
        with pytest.raises(ConfigError):
            builtin_model("table", weights=[])
        with pytest.raises(ConfigError):
            builtin_model("table", weights=[1.0, -2.0])
        with pytest.raises(ConfigError):
            builtin_model("gaussian_mixture_grid", means=[0], sds=[-1],
                          weights=[1], points=10, bounds=(0, 1))
        with pytest.raises(ConfigError):
            builtin_model("potts_grid", width=2, height=2, labels=1, beta=0.1)
        with pytest.raises(ConfigError):
            builtin_model("double_well_grid", points=1, bounds=(-2, 2))
        with pytest.raises(ConfigError):
            builtin_model("no_such_kind", x=1)
        with pytest.raises(ConfigError):
            builtin_model("table", weights=[1], bogus=2)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("params", [
        dict(kind="energy_table", energies=[0.0, math.inf]),
        dict(kind="double_well_grid", points=5, bounds=(-2, 2), depth=1e308),
        dict(kind="double_well_grid", points=5, bounds=(-1e308, 1e308)),
        dict(kind="gaussian_mixture_grid", means=[0], sds=[1e-300], weights=[1],
             points=5, bounds=(-1, 1)),
        dict(kind="potts_grid", width=2, height=2, labels=2, beta=1e308),
    ], ids=["inf-entry", "deep-well", "wide-grid", "narrow-mixture", "potts"])
    def test_a_non_finite_energy_table_is_refused(self, params):
        """Every kind refuses a table holding inf or NaN, with no numpy
        warning on the way."""
        with pytest.raises(ConfigError, match="energies must be finite"):
            builtin_model(**params)

    @pytest.mark.parametrize("params", [
        dict(kind="potts_grid", width=4, height=4, labels=4, beta=0.2),
        dict(kind="double_well_grid", points=2 ** 20 + 1, bounds=(-2, 2)),
        dict(kind="energy_table", energies=[0.0] * 5, enum_cap=4),
        dict(kind="table", weights=[1.0] * 5, enum_cap=4),
        dict(kind="gaussian_mixture_grid", means=[0], sds=[1], weights=[1],
             points=5, bounds=(0, 1), enum_cap=4),
    ], ids=lambda p: p["kind"])
    def test_above_cap_model_is_refused(self, params):
        """Every kind is refused at build time, at the default cap 2^20 too."""
        with pytest.raises(CapabilityError, match="enumeration cap"):
            builtin_model(**params)


class TestLadder:
    def test_geometric_defaults(self):
        levels = geometric_ladder(3, ratio=2.0, h_min=0.5, dh=1.0)
        assert [lv.temperature for lv in levels] == [1.0, 2.0, 4.0]
        assert levels[0].truncation == -math.inf
        assert [lv.truncation for lv in levels[1:]] == [1.5, 2.5]

    def test_level0_constraints(self):
        with pytest.raises(ConfigError):
            LadderLevel(0, 2.0, -math.inf)
        with pytest.raises(ConfigError):
            LadderLevel(0, 1.0, 0.0)
        with pytest.raises(ConfigError):
            LadderLevel(1, 0.5, 0.0)

    def test_validate_ladder_ordering(self):
        good = [LadderLevel(0, 1.0, -math.inf), LadderLevel(1, 2.0, 1.0)]
        validate_ladder(good)
        bad = [LadderLevel(0, 1.0, -math.inf), LadderLevel(1, 1.0, 1.0)]
        with pytest.raises(ConfigError):
            validate_ladder(bad)

    def test_monotone_flattening(self):
        """Tempering shrinks log-density gaps: q_i(x)/q_i(y) <= pi(x)/pi(y)
        for h(x) < h(y), both energies above the truncation."""
        rng = np.random.default_rng(5)
        h = np.sort(rng.uniform(1.0, 6.0, size=12))
        m = builtin_model("energy_table", energies=h)
        for lv in geometric_ladder(3, ratio=2.0, h_min=0.0, dh=0.5)[1:]:
            logq = level_logdensities(m, lv)
            for xi in range(11):
                for yi in range(xi + 1, 12):
                    if h[xi] == h[yi]:
                        continue
                    lq = logq[xi] - logq[yi]
                    lpi = -h[xi] + h[yi]
                    assert lq <= lpi + 1e-12


class TestFiniteDistribution:
    def test_rejects_negative_and_unnormalized(self):
        with pytest.raises(ConfigError):
            FiniteDistribution(np.array([-0.1, 1.1]))
        with pytest.raises(ConfigError):
            FiniteDistribution(np.array([0.6, 0.6]))

    def test_rejects_a_2d_probability_array(self):
        with pytest.raises(ShapeError, match="1-D"):
            FiniteDistribution(np.full((2, 2), 0.25))

    def test_rejects_a_nan_probability(self):
        with pytest.raises(ConfigError, match="sum to 1"):
            FiniteDistribution(np.array([0.5, np.nan]))

    def test_from_logweights_handles_huge_exponents(self):
        d = FiniteDistribution.from_logweights([-700.0, -701.0, -1400.0])
        assert abs(d.probs.sum() - 1.0) <= 1e-12
        assert d.probs[2] == pytest.approx(0.0, abs=1e-200)
