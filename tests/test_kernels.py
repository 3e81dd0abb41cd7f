import math

import numpy as np
import pytest

from eelab.config import validate_config
from eelab.eeladder import empirical_jump_chain_matrix, jump_table, ledger_from_iid
from eelab.errors import (
    CapabilityError,
    ConfigError,
    NumericError,
    ShapeError,
    SupportError,
)
from eelab.kernels import (
    IndependenceKernel,
    MixtureKernel,
    RandomWalkKernel,
    check_transition_matrix,
    reversibility_gap,
    stationary_distribution,
    stationary_gap,
)
from eelab.rng import RandomStream
from eelab.statespace import (
    EnergyModel,
    FiniteDistribution,
    LadderLevel,
    builtin_model,
    enumerate_distribution,
)
from eelab.swcut import GibbsSiteSampler, Image, RegionModelConfig

LEVEL0 = LadderLevel(0, 1.0, -math.inf)


class StayPut:
    """A kernel that never moves: a degenerate mixture component."""

    def __init__(self, n):
        self.n = n

    def exact_matrix(self):
        return np.eye(self.n)


def two_state_mis():
    pi = FiniteDistribution(np.array([0.75, 0.25]))
    q = FiniteDistribution(np.array([0.5, 0.5]))
    return IndependenceKernel(pi, q)


def loop_random_walk_matrix(kern):
    """RandomWalkKernel.exact_matrix written as a loop over states and
    their slots, in the order the matrix method adds them."""
    n = kern.model.size
    K = np.zeros((n, n))
    for x in range(n):
        m = len(kern.moves[x])
        for y, p in kern.moves[x]:
            if y is not None:
                K[x, y] += (1.0 if p is None else p) / m
        K[x, x] += 1.0 - K[x].sum()
    return K


class TestRandomWalk:
    def test_exact_matrix_equals_the_loop_reference(self):
        """Filled slot by slot over all states, the matrix keeps every bit
        of the per-state loop, also where slots repeat a target, propose
        the state itself, or differ in number between states."""
        config = validate_config({"experiment": "spectral", "model": {"points": 201}})
        model = config.build_model()
        kernels = [RandomWalkKernel(model, lv) for lv in config.ladder.levels()]
        kernels.append(RandomWalkKernel(builtin_model(
            "potts_grid", width=2, height=2, labels=3, beta=0.7)))
        h = np.random.default_rng(5).random(7)
        ragged = EnergyModel("energy_table", h, lambda s: (
            (s, (s + 1) % 7, (s + 1) % 7, None) if s % 2 else ((s + 3) % 7,)))
        kernels.append(RandomWalkKernel(ragged, LEVEL0))
        for kern in kernels:
            assert loop_random_walk_matrix(kern).tobytes() == kern.exact_matrix().tobytes()

    def test_path_boundary_rejection(self):
        # 3-state path, uniform target: K(0,1) = 1/2, K(0,0) = 1/2
        m = builtin_model("energy_table", energies=[0.0, 0.0, 0.0])
        K = RandomWalkKernel(m, LEVEL0).exact_matrix()
        expected = np.array([
            [0.5, 0.5, 0.0],
            [0.5, 0.0, 0.5],
            [0.0, 0.5, 0.5],
        ])
        np.testing.assert_allclose(K, expected, atol=1e-15)

    def test_uphill_in_density_always_accepted(self):
        m = builtin_model("energy_table", energies=[1.0, 0.0])
        K = RandomWalkKernel(m, LEVEL0).exact_matrix()
        assert K[0, 1] == pytest.approx(0.5)  # proposal prob, acceptance 1

    def test_double_well_stationarity(self):
        m = builtin_model("double_well_grid", points=41, bounds=(-2, 2))
        pi = enumerate_distribution(m, LEVEL0)
        K = RandomWalkKernel(m, LEVEL0).exact_matrix()
        check_transition_matrix(K)
        assert stationary_gap(K, pi.probs) <= 1e-12
        assert reversibility_gap(K, pi.probs) <= 1e-12

    def test_empirical_frequencies_match_matrix(self):
        """Chi-square-style sanity check: simulated transition frequencies
        from a fixed state agree with the exact row within 3 standard errors."""
        m = builtin_model("energy_table", energies=[0.0, 0.8, 0.3])
        kern = RandomWalkKernel(m, LEVEL0)
        K = kern.exact_matrix()
        rng = RandomStream.from_seed(11)
        n = 200_000
        counts = np.zeros(3)
        for _ in range(n):
            y, _ = kern.step(1, rng)
            counts[y] += 1
        freq = counts / n
        se = np.sqrt(K[1] * (1 - K[1]) / n)
        assert np.all(np.abs(freq - K[1]) <= 3 * se + 1e-12)

    def test_non_enumerable_model_refused(self):
        # 2^9 states above a cap of 100: the model is refused before a
        # move table could be built on it
        with pytest.raises(CapabilityError, match="cap 100"):
            builtin_model("potts_grid", enum_cap=100, width=3, height=3,
                          labels=2, beta=0.5)

    def test_empty_neighborhood_refused(self):
        m = EnergyModel("energy_table", np.zeros(2), lambda s: ())
        with pytest.raises(ConfigError, match="empty local neighborhood"):
            RandomWalkKernel(m, LEVEL0)


class TestIndependence:
    def test_two_state_exact_matrix(self):
        K = two_state_mis().exact_matrix()
        np.testing.assert_allclose(
            K, [[5.0 / 6.0, 1.0 / 6.0], [0.5, 0.5]], atol=1e-15
        )

    def test_perfect_proposal_rows_equal_target(self):
        pi = FiniteDistribution(np.array([0.5, 0.3, 0.2]))
        K = IndependenceKernel(pi, pi).exact_matrix()
        for row in K:
            np.testing.assert_allclose(row, pi.probs, atol=1e-15)

    def test_diagonal_is_not_negative_on_a_deep_well(self):
        """On the 41-point well of depth 30 a diagonal written as
        1 - (row sum) rounds to -2.2e-16; the rejection mass cannot."""
        config = validate_config({"experiment": "spectral", "model": {"depth": 30.0}})
        model = config.build_model()
        pi, q = (enumerate_distribution(model, lv) for lv in config.ladder.levels()[:2])
        K = IndependenceKernel(pi, q).exact_matrix()
        check_transition_matrix(K)
        assert stationary_gap(K, pi.probs) <= 1e-12

    def test_self_proposal_mass_stays(self):
        pi = FiniteDistribution(np.array([0.6, 0.4]))
        q = FiniteDistribution(np.array([0.9, 0.1]))
        K = IndependenceKernel(pi, q).exact_matrix()
        # from state 0, self-proposals (mass 0.9) always accepted
        assert K[0, 0] >= 0.9

    def test_acceptance_ordering(self):
        """If pi(y)/q(y) >= pi(x)/q(x) the proposal is accepted w.p. 1:
        the off-diagonal entry equals the full proposal mass q(y)."""
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(2, 30))
            pi = rng.random(n) + 0.05
            q = rng.random(n) + 0.05
            pi, q = pi / pi.sum(), q / q.sum()
            kern = IndependenceKernel(
                FiniteDistribution(pi),
                FiniteDistribution(q),
            )
            K = kern.exact_matrix()
            w = pi / q
            for x in range(n):
                for y in range(n):
                    if x != y and w[y] >= w[x]:
                        assert K[x, y] == pytest.approx(q[y], abs=1e-14)

    def test_support_violation_raises_at_construction(self):
        pi = FiniteDistribution(np.array([0.5, 0.5]))
        q = FiniteDistribution(np.array([1.0, 0.0]))
        with pytest.raises(SupportError):
            IndependenceKernel(pi, q)

    def test_length_mismatch_raises_at_construction(self):
        pi = FiniteDistribution(np.array([0.5, 0.5]))
        q = FiniteDistribution(np.full(3, 1.0 / 3.0))
        with pytest.raises(ShapeError, match="differ in length"):
            IndependenceKernel(pi, q)


class TestMixture:
    def test_degenerate_weights(self):
        m = builtin_model("energy_table", energies=[0.0, math.log(3.0)])
        pi = enumerate_distribution(m, LEVEL0)
        q = FiniteDistribution(np.array([0.5, 0.5]))
        local = RandomWalkKernel(m, LEVEL0)
        jump = IndependenceKernel(pi, q)
        np.testing.assert_allclose(
            MixtureKernel(1.0, local, jump).exact_matrix(),
            local.exact_matrix(), atol=1e-15,
        )
        np.testing.assert_allclose(
            MixtureKernel(0.0, local, jump).exact_matrix(),
            jump.exact_matrix(), atol=1e-15,
        )

    def test_half_mixture_with_identity(self):
        kern = two_state_mis()
        mix = MixtureKernel(0.5, StayPut(2), kern)
        expected = 0.5 * np.eye(2) + 0.5 * np.array(
            [[5.0 / 6.0, 1.0 / 6.0], [0.5, 0.5]]
        )
        np.testing.assert_allclose(mix.exact_matrix(), expected, atol=1e-15)

    def test_mixture_linearity_entrywise(self):
        m = builtin_model("double_well_grid", points=21, bounds=(-2, 2))
        pi = enumerate_distribution(m, LEVEL0)
        q = enumerate_distribution(m, LadderLevel(1, 4.0, 1.0))
        local = RandomWalkKernel(m, LEVEL0)
        jump = IndependenceKernel(pi, q)
        for alpha in (0.25, 0.5, 0.9):
            mixed = MixtureKernel(alpha, local, jump).exact_matrix()
            combo = alpha * local.exact_matrix() + (1 - alpha) * jump.exact_matrix()
            assert np.abs(mixed - combo).max() <= 1e-14

    def test_alpha_out_of_range(self):
        with pytest.raises(ConfigError):
            MixtureKernel(1.5, StayPut(2), StayPut(2))

    def test_mismatched_targets_rejected(self):
        m = builtin_model("energy_table", energies=[0.0, math.log(3.0)])
        pi = enumerate_distribution(m, LEVEL0)
        other = FiniteDistribution(np.array([0.5, 0.5]))
        local = RandomWalkKernel(m, LEVEL0)
        jump = IndependenceKernel(other, other)
        with pytest.raises(ConfigError):
            MixtureKernel(0.5, local, jump)


def flat_gibbs(width, height, labels, beta):
    """GibbsSiteSampler whose flat likelihood leaves the potts_grid law as
    its target."""
    image = Image(width, height, np.full((height, width), 0.5))
    cfg = RegionModelConfig(mode="fixed_means", sigma=0.5, means=(0.5,) * labels)
    return GibbsSiteSampler(image, labels, beta, cfg)


class TestGibbs:
    def test_zero_coupling_conditionals_uniform(self):
        """At beta = 0 each of the n sites is redrawn uniformly: 1/(nL) for
        each one-site change, 1/L on the diagonal, 0 elsewhere."""
        n, L = 4, 2
        K = flat_gibbs(2, 2, L, 0.0).exact_matrix()
        for x in range(L ** n):
            expect = np.zeros(L ** n)
            for site in range(n):
                digit = (x // L ** site) % L
                for v in range(L):
                    expect[x + (v - digit) * L ** site] += 1.0 / (n * L)
            np.testing.assert_allclose(K[x], expect, rtol=0, atol=1e-15)

    def test_exact_matrix_preserves_potts_target(self):
        m = builtin_model("potts_grid", width=2, height=2, labels=3, beta=0.7)
        pi = enumerate_distribution(m, LEVEL0)
        K = flat_gibbs(2, 2, 3, 0.7).exact_matrix()
        check_transition_matrix(K)
        assert stationary_gap(K, pi.probs) <= 1e-12
        assert reversibility_gap(K, pi.probs) <= 1e-12


def lstsq_stationary(K):
    """The earlier solver: SVD least squares on pi (K - I) = 0 stacked on
    sum(pi) = 1, then clipped at 0 and normalised."""
    n = K.shape[0]
    A = np.vstack([K.T - np.eye(n), np.ones((1, n))])
    b = np.zeros(n + 1)
    b[n] = 1.0
    pi, *_ = np.linalg.lstsq(A, b, rcond=None)
    pi = np.clip(pi, 0.0, None)
    return pi / pi.sum()


def random_chain(n, seed):
    """Dense random rows: irreducible and, for n >= 3, not reversible
    (Kolmogorov's criterion fails on the cycle 0 -> 1 -> 2 -> 0)."""
    K = np.random.default_rng(seed).random((n, n)) ** 3
    K /= K.sum(axis=1, keepdims=True)
    if n >= 3:
        forward = K[0, 1] * K[1, 2] * K[2, 0]
        backward = K[0, 2] * K[2, 1] * K[1, 0]
        assert abs(forward - backward) > 1e-3 * max(forward, backward)
    return K


def block_chain(sizes, seed):
    """Block-diagonal chain of dense random blocks: one closed class per
    block, so the stationary law is not unique and the square system is
    singular in exact arithmetic."""
    rng = np.random.default_rng(seed)
    K = np.zeros((sum(sizes), sum(sizes)))
    start = 0
    for size in sizes:
        B = rng.random((size, size))
        K[start:start + size, start:start + size] = B / B.sum(axis=1, keepdims=True)
        start += size
    return K


def q3_chain():
    """The q3 ledger-bias chain at 201 points with a 1000-record ledger."""
    config = validate_config({"experiment": "q3", "model": {"points": 201}})
    model = config.build_model()
    levels = config.ladder.levels()
    table = jump_table(model, levels[0], levels[1], config.ladder.build().jump_boundaries())
    ledger = ledger_from_iid(model, levels[1], 1000, RandomStream.from_seed(0))
    return empirical_jump_chain_matrix(table, ledger, float(config.q3["p_jump"]))


# expected: the exact law, None to compare with lstsq_stationary, or
# NumericError
SOLVER_CASES = [
    pytest.param(lambda: np.array([[0.9, 0.1], [0.3, 0.7]]), [0.75, 0.25],
                 id="two_state"),
    pytest.param(lambda: random_chain(2, 1), None, id="random_2"),
    pytest.param(lambda: random_chain(7, 2), None, id="random_7"),
    pytest.param(lambda: random_chain(201, 3), None, id="random_201"),
    pytest.param(q3_chain, None, id="q3_empirical_chain"),
    # two absorbing states: an exactly zero pivot
    pytest.param(lambda: np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                                   [0.5, 0.25, 0.25]]),
                 NumericError, id="two_absorbing_states"),
    # a singular system that LU would answer with rounding noise along the
    # null direction (0.095-0.5 of negative mass for these blocks on every
    # OpenBLAS kernel tried); the support-graph check refuses it first
    pytest.param(lambda: block_chain((5, 6), 2), NumericError,
                 id="two_blocks_negative_mass"),
    # rows that do not sum to 1: the dropped balance equation is not
    # redundant, and only the stationarity check sees it
    pytest.param(lambda: np.array([[0.5, 0.2], [0.3, 0.7]]), NumericError,
                 id="rows_not_stochastic"),
]


class TestMatrixHelpers:
    def test_rows_sum_to_one_for_all_kernel_types(self):
        m = builtin_model("double_well_grid", points=15, bounds=(-2, 2))
        pi = enumerate_distribution(m, LEVEL0)
        q = enumerate_distribution(m, LadderLevel(1, 3.0, 0.5))
        mats = [
            RandomWalkKernel(m, LEVEL0).exact_matrix(),
            IndependenceKernel(pi, q).exact_matrix(),
            MixtureKernel(0.3, RandomWalkKernel(m, LEVEL0),
                          IndependenceKernel(pi, q)).exact_matrix(),
        ]
        for K in mats:
            assert np.abs(K.sum(axis=1) - 1.0).max() <= 1e-12

    def test_check_transition_matrix_refuses_a_nan_entry(self):
        K = np.array([[0.5, 0.5], [np.nan, 0.5]])
        with pytest.raises(NumericError, match="row sums"):
            check_transition_matrix(K)

    def test_stationary_distribution_refuses_every_reducible_chain(self):
        """Two closed classes: the refusal does not depend on where rounding
        in a singular LU lands, which differs by BLAS kernel."""
        for seed in range(40):
            with pytest.raises(NumericError, match="reducible"):
                stationary_distribution(block_chain((3, 4), seed))

    def test_stationary_distribution_allows_transient_states(self):
        """One closed class and a transient state, which carries no mass:
        state 2 that state 0 cannot reach, and state 0 that no state
        reaches (a deep well's underflowed uphill moves make such chains)."""
        K = np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.2, 0.3, 0.5]])
        for K, want in ((K, [0.5, 0.5, 0.0]), (K[::-1, ::-1], [0.0, 0.5, 0.5])):
            np.testing.assert_allclose(stationary_distribution(K), want,
                                       rtol=0, atol=1e-15)

    def test_stationary_distribution_refuses_two_classes_below_a_transient(self):
        # state 0 leaks into the closed classes {1, 2} and {3}
        K = np.array([[0.4, 0.3, 0.0, 0.3], [0.0, 0.5, 0.5, 0.0],
                      [0.0, 0.5, 0.5, 0.0], [0.0, 0.0, 0.0, 1.0]])
        with pytest.raises(NumericError, match="reducible"):
            stationary_distribution(K)

    @pytest.mark.parametrize("build, expected", SOLVER_CASES)
    def test_stationary_distribution_solver(self, build, expected):
        """The LU solve agrees with the exact law or with the earlier
        least-squares solve at 1e-12, and refuses a system with no unique
        stationary law that it cannot answer with a valid one."""
        K = build()
        if expected is NumericError:
            with pytest.raises(NumericError):
                stationary_distribution(K)
            return
        pi = stationary_distribution(K)
        want = lstsq_stationary(K) if expected is None else expected
        np.testing.assert_allclose(pi, want, rtol=0, atol=1e-12)
        assert stationary_gap(K, pi) <= 1e-12
