import json
import math

import numpy as np
import pytest

from eelab.config import validate_config
from eelab.errors import ConfigError, NumericError, ReversibilityError, ShapeError
from eelab.experiments import run_experiment
from eelab.kernels import IndependenceKernel, MixtureKernel, RandomWalkKernel
from eelab.spectral import (
    Partition,
    coarsen,
    eigen_spectrum,
    mis_gap_report,
    ratio_extremes,
    tv_distance,
)
from eelab.statespace import (
    FiniteDistribution,
    LadderLevel,
    builtin_model,
    enumerate_distribution,
)

LEVEL0 = LadderLevel(0, 1.0, -math.inf)


def random_reversible(rng, n):
    """Reversible kernel via a symmetric flow matrix: K = F / rowsum(F),
    pi = rowsum(F) / total."""
    A = rng.random((n, n)) + 0.05
    F = 0.5 * (A + A.T)
    rows = F.sum(axis=1)
    return F / rows[:, None], rows / rows.sum()


def random_pair(rng, n):
    pi = rng.random(n) + 0.05
    q = rng.random(n) + 0.05
    return (
        FiniteDistribution(np.arange(n), pi / pi.sum()),
        FiniteDistribution(np.arange(n), q / q.sum()),
    )


def plain_eigenvalues(K, p):
    """The symmetrisation of eigen_spectrum written as plain expressions,
    one temporary per step."""
    s = np.sqrt(p)
    S = s[:, None] * K / s[None, :]
    S = 0.5 * (S + S.T)
    return np.linalg.eigvalsh(S)[::-1]


def double_well_kernels(points):
    """pi, q and the local, MIS and mixture kernels of the spectral
    experiment's double well."""
    config = validate_config({"experiment": "spectral", "model": {"points": points}})
    model = config.build_model()
    levels = config.ladder.levels()
    pi = enumerate_distribution(model, levels[0])
    q = enumerate_distribution(model, levels[1])
    local = RandomWalkKernel(model, levels[0])
    jump = IndependenceKernel(pi, q)
    mix = MixtureKernel(float(config.q4["alpha"]), local, jump)
    return pi, q, {"local": local, "mis": jump, "mixture": mix}


class TestEigenSpectrum:
    def test_in_place_symmetrisation_is_bit_identical(self):
        """Reusing two work arrays changes no bit of the eigenvalues.
        Compared on one machine: LAPACK output differs across BLAS kernels."""
        K, p = random_reversible(np.random.default_rng(67), 40)
        cases = [(K, p)]
        pi, _, kernels = double_well_kernels(101)
        cases += [(k.exact_matrix(), pi.probs) for k in kernels.values()]
        for K, p in cases:
            assert np.array_equal(eigen_spectrum(K, p).eigenvalues,
                                  plain_eigenvalues(K, p))

    def test_spectral_experiment_reports_are_bit_identical(self, tmp_path):
        """The experiment builds each dense matrix once and forms the
        mixture in place; its reports equal those of the kernels' own
        exact matrices bit for bit."""
        config = validate_config({"experiment": "spectral", "model": {"points": 101}})
        out = run_experiment(config, out_dir=tmp_path / "spectral")
        with open(out / "spectral.json", encoding="utf-8") as fh:
            got = json.load(fh)
        pi, q, kernels = double_well_kernels(101)
        want = {"local": eigen_spectrum(kernels["local"].exact_matrix(), pi),
                "mis": mis_gap_report(pi, q),
                "mixture": eigen_spectrum(kernels["mixture"].exact_matrix(), pi)}
        for name, rep in want.items():
            assert got[name] == json.loads(json.dumps(rep.to_dict())), name

    def test_identity_kernel(self):
        pi = np.full(4, 0.25)
        rep = eigen_spectrum(np.eye(4), pi)
        np.testing.assert_allclose(rep.eigenvalues, np.ones(4), atol=1e-12)

    def test_rank_one_kernel(self):
        pi = np.array([0.5, 0.5])
        rep = eigen_spectrum(np.full((2, 2), 0.5), pi)
        np.testing.assert_allclose(sorted(rep.eigenvalues), [0.0, 1.0], atol=1e-12)

    def test_canonical_mis_eigenvalues(self):
        pi = np.array([0.75, 0.25])
        K = np.array([[5.0 / 6.0, 1.0 / 6.0], [0.5, 0.5]])
        rep = eigen_spectrum(K, pi)
        np.testing.assert_allclose(rep.eigenvalues, [1.0, 1.0 / 3.0], atol=1e-12)
        assert rep.gap == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_rejects_non_reversible(self):
        K = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
        pi = np.full(3, 1.0 / 3.0)
        with pytest.raises(ReversibilityError) as err:
            eigen_spectrum(K, pi)
        assert "pair" in str(err.value)

    def test_rejects_a_nan_kernel_entry(self):
        K = np.array([[0.5, 0.5], [np.nan, 0.5]])
        with pytest.raises(NumericError, match="row sums"):
            eigen_spectrum(K, np.full(2, 0.5))

    def test_rejects_a_nan_in_pi(self):
        with pytest.raises(ConfigError, match="positive pi"):
            eigen_spectrum(np.full((2, 2), 0.5), np.array([0.5, np.nan]))

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_reversibility_check_fails_on_nan(self):
        # an infinite pi passes the positivity check, and inf - inf is NaN
        with pytest.raises(ReversibilityError, match="not reversible"):
            eigen_spectrum(np.full((2, 2), 0.5), np.array([0.5, np.inf]))

    @pytest.mark.parametrize("vals, message", [([np.nan, np.nan], "top eigenvalue"),
                                               ([np.nan, 1.0], "outside")])
    def test_eigenvalue_checks_fail_on_nan(self, monkeypatch, vals, message):
        """vals are ascending, as eigvalsh returns them."""
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: np.array(vals))
        with pytest.raises(ReversibilityError, match=message):
            eigen_spectrum(np.full((2, 2), 0.5), np.full(2, 0.5))

    def test_eigenpair_residuals_on_random_kernels(self):
        """The symmetrized solve gives the eigenvalues of K itself, sorted
        descending: within 1e-8 of the general (non-symmetric) eigensolver,
        on random reversible 10-state kernels."""
        rng = np.random.default_rng(17)
        for _ in range(25):
            K, pi = random_reversible(rng, 10)
            rep = eigen_spectrum(K, pi)
            general = np.linalg.eigvals(K)
            assert np.abs(general.imag).max() <= 1e-8
            np.testing.assert_allclose(rep.eigenvalues,
                                       np.sort(general.real)[::-1], atol=1e-8)

    def test_eigenvalues_within_unit_interval(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            K, pi = random_reversible(rng, 8)
            rep = eigen_spectrum(K, pi)
            assert rep.eigenvalues[0] == pytest.approx(1.0, abs=1e-10)
            assert rep.eigenvalues.min() >= -1.0 - 1e-10


class TestMisGapReport:
    def test_canonical_two_state(self):
        pi = FiniteDistribution(np.arange(2), np.array([0.75, 0.25]))
        q = FiniteDistribution(np.arange(2), np.array([0.5, 0.5]))
        rep = mis_gap_report(pi, q)
        assert rep.lambda2 == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert rep.bound_printed == pytest.approx(0.5, abs=1e-12)
        assert rep.bound_alternate == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert rep.matched_bound == "alternate"

    def test_perfect_proposal(self):
        pi = FiniteDistribution(np.arange(3), np.array([0.2, 0.5, 0.3]))
        rep = mis_gap_report(pi, pi)
        assert rep.lambda2 == pytest.approx(0.0, abs=1e-10)
        assert rep.bound_printed == pytest.approx(0.0, abs=1e-12)
        assert rep.bound_alternate == pytest.approx(0.0, abs=1e-12)
        assert rep.matched_bound == "both"

    def test_same_form_matches_across_random_sweep(self):
        """The exact lambda2 equals 1 - min q/pi in every random case; the
        report flags the printed form accordingly."""
        rng = np.random.default_rng(41)
        forms = set()
        for _ in range(20):
            n = int(rng.integers(2, 51))
            pi, q = random_pair(rng, n)
            rep = mis_gap_report(pi, q)
            assert abs(rep.lambda2 - rep.bound_alternate) <= 1e-9
            forms.add(rep.matched_bound in ("alternate", "both"))
        assert forms == {True}

    def test_report_serializes(self):
        pi = FiniteDistribution(np.arange(2), np.array([0.75, 0.25]))
        q = FiniteDistribution(np.arange(2), np.array([0.5, 0.5]))
        d = mis_gap_report(pi, q).to_dict()
        assert d["matched_bound"] == "alternate"
        assert len(d["eigenvalues"]) == 2


class TestRatioExtremes:
    def test_two_state(self):
        pi = FiniteDistribution(np.arange(2), np.array([0.75, 0.25]))
        q = FiniteDistribution(np.arange(2), np.array([0.5, 0.5]))
        assert ratio_extremes(pi, q) == (pytest.approx(0.5), pytest.approx(1.5))

    def test_identical_distributions(self):
        pi = FiniteDistribution(np.arange(4), np.full(4, 0.25))
        assert ratio_extremes(pi, pi) == (pytest.approx(1.0), pytest.approx(1.0))

    def test_extremes_straddle_one(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            pi, q = random_pair(rng, int(rng.integers(2, 40)))
            lo, hi = ratio_extremes(pi, q)
            assert lo <= 1.0 + 1e-12
            assert hi >= 1.0 - 1e-12


class TestCoarsen:
    def test_identity_partition(self):
        d = FiniteDistribution(np.arange(4), np.array([0.4, 0.1, 0.3, 0.2]))
        out = coarsen(d, Partition(np.arange(4)))
        np.testing.assert_allclose(out.probs, d.probs, atol=1e-15)

    def test_single_cell(self):
        d = FiniteDistribution(np.arange(4), np.array([0.4, 0.1, 0.3, 0.2]))
        out = coarsen(d, Partition(np.zeros(4, dtype=int)))
        np.testing.assert_allclose(out.probs, [1.0], atol=1e-15)

    def test_pairwise_cells_raise_min_ratio(self):
        pi = FiniteDistribution(np.arange(4), np.array([0.4, 0.1, 0.3, 0.2]))
        q = FiniteDistribution(np.arange(4), np.full(4, 0.25))
        part = Partition(np.array([0, 0, 1, 1]))
        pi_c, q_c = coarsen(pi, part), coarsen(q, part)
        np.testing.assert_allclose(pi_c.probs, [0.5, 0.5], atol=1e-15)
        np.testing.assert_allclose(q_c.probs, [0.5, 0.5], atol=1e-15)
        assert ratio_extremes(pi, q)[0] == pytest.approx(0.4)
        assert ratio_extremes(pi_c, q_c)[0] == pytest.approx(1.0)

    def test_contraction_over_random_partitions(self):
        """Coarse ratios are q-weighted averages of fine ratios, so the
        min can only rise and the max can only fall (exact inequality)."""
        rng = np.random.default_rng(101)
        checked = 0
        while checked < 120:
            n = int(rng.integers(2, 41))
            pi, q = random_pair(rng, n)
            m = int(rng.integers(1, n + 1))
            raw = rng.integers(0, m, size=n)
            _, relabeled = np.unique(raw, return_inverse=True)
            part = Partition(relabeled)
            fine_lo, fine_hi = ratio_extremes(pi, q)
            lo, hi = ratio_extremes(coarsen(pi, part), coarsen(q, part))
            assert lo >= fine_lo - 1e-12
            assert hi <= fine_hi + 1e-12
            checked += 1


class TestMixtureGap:
    def test_gap_convexity(self):
        """lambda2 of a mixture never exceeds the mixed lambda2s (variational
        characterization on the shared symmetrization)."""
        rng = np.random.default_rng(59)
        for _ in range(20):
            n = int(rng.integers(3, 20))
            K1, pi = random_reversible(rng, n)
            # second reversible kernel for the same pi: MH over uniform proposal
            prop = np.full((n, n), 1.0 / n)
            ratio = np.minimum(1.0, pi[None, :] / pi[:, None])
            K2 = prop * ratio
            np.fill_diagonal(K2, 0.0)
            np.fill_diagonal(K2, 1.0 - K2.sum(axis=1))
            alpha = float(rng.random())
            lam_mix = eigen_spectrum(alpha * K1 + (1 - alpha) * K2, pi).lambda2
            lam1 = eigen_spectrum(K1, pi).lambda2
            lam2 = eigen_spectrum(K2, pi).lambda2
            assert lam_mix <= alpha * lam1 + (1 - alpha) * lam2 + 1e-10

    def test_complementarity_on_double_well(self):
        """Mixing the local walk with flattened-proposal jumps beats the
        local walk alone on the two-mode target."""
        m = builtin_model("double_well_grid", points=41, bounds=(-2, 2), depth=4.0)
        pi = enumerate_distribution(m, LEVEL0)
        q = enumerate_distribution(m, LadderLevel(1, 8.0, 1.0))
        local = RandomWalkKernel(m, LEVEL0)
        jump = IndependenceKernel(pi, q)
        mix = MixtureKernel(0.5, local, jump)
        gap_local = eigen_spectrum(local.exact_matrix(), pi).gap
        gap_mix = eigen_spectrum(mix.exact_matrix(), pi).gap
        assert gap_mix > gap_local


class TestTvDistance:
    def test_equal_distributions(self):
        d = FiniteDistribution(np.arange(3), np.array([0.2, 0.5, 0.3]))
        assert tv_distance(d, d) == 0.0

    def test_disjoint_supports(self):
        p = FiniteDistribution(np.arange(4), np.array([0.5, 0.5, 0.0, 0.0]))
        q = FiniteDistribution(np.arange(4), np.array([0.0, 0.0, 0.5, 0.5]))
        assert tv_distance(p, q) == pytest.approx(1.0)

    def test_quarter_example(self):
        p = FiniteDistribution(np.arange(2), np.array([0.75, 0.25]))
        q = FiniteDistribution(np.arange(2), np.array([0.5, 0.5]))
        assert tv_distance(p, q) == pytest.approx(0.25)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            tv_distance(np.array([1.0]), np.array([0.5, 0.5]))
