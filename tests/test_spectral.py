import json
import math
import os
import tracemalloc

import numpy as np
import pytest

from eelab import experiments, spectral
from eelab.cli import main
from eelab.config import validate_config
from eelab.errors import ConfigError, NumericError, ReversibilityError, ShapeError
from eelab.experiments import _kernel_reports, run_experiment
from eelab.kernels import BLOCK_ROWS, IndependenceKernel, MixtureKernel, RandomWalkKernel
from eelab.spectral import (
    Partition,
    coarsen,
    eigen_spectrum,
    mis_eigenvalues,
    mis_gap_report,
    mis_spectrum,
    ratio_extremes,
    tv_distance,
    with_mis_bounds,
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
        FiniteDistribution(pi / pi.sum()),
        FiniteDistribution(q / q.sum()),
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
        """Symmetrising one copy in place, by row blocks, changes no bit of
        the eigenvalues. Compared on one machine: LAPACK output differs
        across BLAS kernels."""
        rng = np.random.default_rng(67)
        cases = [random_reversible(rng, 40), random_reversible(rng, 300)]
        pi, _, kernels = double_well_kernels(101)
        cases += [(k.exact_matrix(), pi.probs) for k in kernels.values()]
        for K, p in cases:
            assert np.array_equal(eigen_spectrum(K, p).eigenvalues,
                                  plain_eigenvalues(K, p))

    def test_spectral_experiment_reports_are_bit_identical(self, tmp_path):
        """The experiment symmetrises its matrices in place and forms the
        mixture in the MIS matrix; its reports equal those of the kernels'
        own exact matrices bit for bit (the MIS one through mis_spectrum)."""
        config = validate_config({"experiment": "spectral", "model": {"points": 101}})
        out = run_experiment(config, out_dir=tmp_path / "spectral")
        with open(out / "spectral.json", encoding="utf-8") as fh:
            got = json.load(fh)
        pi, q, kernels = double_well_kernels(101)
        want = {"local": eigen_spectrum(kernels["local"].exact_matrix(), pi),
                "mis": with_mis_bounds(
                    mis_spectrum(kernels["mis"].exact_matrix(), pi, q), pi, q),
                "mixture": eigen_spectrum(kernels["mixture"].exact_matrix(), pi)}
        for name, rep in want.items():
            assert got[name] == json.loads(json.dumps(rep.to_dict())), name

    def test_identity_kernel(self):
        pi = np.full(4, 0.25)
        rep = eigen_spectrum(np.eye(4), pi)
        np.testing.assert_allclose(rep.eigenvalues, np.ones(4), atol=1e-12)

    def test_a_one_state_kernel_has_no_gap(self):
        pi = FiniteDistribution(np.array([1.0]))
        with pytest.raises(ShapeError, match="second eigenvalue"):
            eigen_spectrum(np.eye(1), pi)
        with pytest.raises(ShapeError, match="second eigenvalue"):
            mis_spectrum(np.eye(1), pi, pi)

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

    def test_names_the_worst_pair_past_the_first_row_block(self):
        """The worst pair is named in global indices, the first of its two
        mirror images in row-major order."""
        K, p = random_reversible(np.random.default_rng(71), 300)
        assert 180 > BLOCK_ROWS
        K[250, 180] += 1e-3
        K[250, 250] -= 1e-3
        K[40, 7] += 1e-4  # a smaller violation in the first block
        K[40, 40] -= 1e-4
        for check in (lambda: eigen_spectrum(K, p),
                      lambda: mis_spectrum(K, FiniteDistribution(p),
                                           FiniteDistribution(p))):
            with pytest.raises(ReversibilityError) as err:
                check()
            assert str(err.value).endswith("at pair (180, 250)")

    def test_inputs_are_left_unchanged(self):
        """eigen_spectrum works on a copy, and mis_spectrum reads its
        matrix by row blocks; neither writes to its input."""
        pi, q, kernels = double_well_kernels(301)
        K_local = kernels["local"].exact_matrix()
        K_mis = kernels["mis"].exact_matrix()
        for K, run in ((K_local, lambda: eigen_spectrum(K_local, pi)),
                       (K_mis, lambda: mis_spectrum(K_mis, pi, q))):
            before = K.tobytes()
            run()
            assert K.tobytes() == before

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_kernel_reports_peak_below_one_and_a_half_dense_arrays(self, monkeypatch,
                                                                   cpus):
        """The local, MIS and mixture reports of a 401-point well allocate
        at most 1.5 n x n float64 arrays at their peak (LAPACK's own copy
        is not traced): each dense matrix is freed before the next is
        built, and only alpha times the local matrix's entries on its
        support outlive it, for the mixture. On two CPUs the solves run in
        forked workers, and the peak traced here is this process's.
        Rebuilding the local matrix
        beside the MIS one peaked at 2.06, and building the mixture beside
        both components and symmetrising out of place took 4."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        monkeypatch.setattr(experiments, "_solver_threads", lambda: 1)
        pi, q, kernels = double_well_kernels(401)
        n = len(pi)
        tracemalloc.start()
        try:
            _kernel_reports([("", kernels["local"], pi, q)], kernels["mixture"].alpha)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * n * n * 8

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
        pi = FiniteDistribution(np.array([0.75, 0.25]))
        q = FiniteDistribution(np.array([0.5, 0.5]))
        rep = mis_gap_report(pi, q)
        assert rep.lambda2 == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert rep.bound_printed == pytest.approx(0.5, abs=1e-12)
        assert rep.bound_alternate == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert rep.matched_bound == "alternate"

    def test_perfect_proposal(self):
        pi = FiniteDistribution(np.array([0.2, 0.5, 0.3]))
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
        pi = FiniteDistribution(np.array([0.75, 0.25]))
        q = FiniteDistribution(np.array([0.5, 0.5]))
        d = mis_gap_report(pi, q).to_dict()
        assert d["matched_bound"] == "alternate"
        assert len(d["eigenvalues"]) == 2


def q4_instances(depth=4.0):
    """(pi, q) of the q4 experiment's fine and coarse MIS reports at
    default config, coarsened as exp_q4 does."""
    config = validate_config({"experiment": "q4", "model": {"depth": depth}})
    model = config.build_model()
    levels = config.ladder.levels()
    pi = enumerate_distribution(model, levels[0])
    q = enumerate_distribution(model, levels[1])
    n = len(pi)
    m = min(int(config.q4["coarse_cells"]), n)
    part = Partition((np.arange(n) * m) // n)
    return {"fine": (pi, q), "coarse": (coarsen(pi, part), coarsen(q, part))}


def dense_mis_eigenvalues(pi, q):
    return eigen_spectrum(IndependenceKernel(pi, q).exact_matrix(), pi).eigenvalues


class TestMisEigenvalues:
    """Liu's closed form against the dense solve of the same kernel."""

    def test_random_pairs(self):
        rng = np.random.default_rng(71)
        for n in (2, 2, 3, 5, 10, 31, 64, 100, 250, 500):
            pi, q = random_pair(rng, n)
            np.testing.assert_allclose(mis_eigenvalues(pi, q),
                                       dense_mis_eigenvalues(pi, q),
                                       rtol=0, atol=1e-12)

    def test_ties_in_w(self):
        """pi/q takes three values, each on several states."""
        rng = np.random.default_rng(73)
        for n in (2, 6, 40, 200):
            q = rng.random(n) + 0.05
            pi = q * rng.choice([0.5, 1.0, 2.0], size=n)
            pi, q = FiniteDistribution(pi / pi.sum()), FiniteDistribution(q / q.sum())
            np.testing.assert_allclose(mis_eigenvalues(pi, q),
                                       dense_mis_eigenvalues(pi, q),
                                       rtol=0, atol=1e-12)

    def test_perfect_proposal(self):
        """pi = q: every eigenvalue but the top one is 0."""
        rng = np.random.default_rng(79)
        pi, _ = random_pair(rng, 30)
        vals = mis_eigenvalues(pi, pi)
        np.testing.assert_allclose(vals, [1.0] + [0.0] * 29, rtol=0, atol=1e-12)
        np.testing.assert_allclose(vals, dense_mis_eigenvalues(pi, pi),
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("space", ["fine", "coarse"])
    def test_q4_default_instances(self, space):
        pi, q = q4_instances()[space]
        np.testing.assert_allclose(mis_eigenvalues(pi, q),
                                   dense_mis_eigenvalues(pi, q),
                                   rtol=0, atol=1e-12)

    def test_report_equals_dense_report(self):
        """mis_spectrum makes the dense path's report: same lambda2 and gap
        within 1e-12, and the same bound that matches."""
        for pi, q in q4_instances().values():
            got = with_mis_bounds(
                mis_spectrum(IndependenceKernel(pi, q).exact_matrix(), pi, q), pi, q)
            want = mis_gap_report(pi, q)
            assert abs(got.lambda2 - want.lambda2) <= 1e-12
            assert abs(got.gap - want.gap) <= 1e-12
            assert got.matched_bound == want.matched_bound == "alternate"

    def test_checks_the_kernel_as_eigen_spectrum_does(self):
        """A kernel that is not the MIS kernel of (pi, q) but fails one of
        eigen_spectrum's own checks is refused by that check."""
        pi = FiniteDistribution(np.full(3, 1.0 / 3.0))
        K = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
        with pytest.raises(ReversibilityError, match="not reversible"):
            mis_spectrum(K, pi, pi)
        with pytest.raises(NumericError, match="row sums"):
            mis_spectrum(np.full((3, 3), 0.5), pi, pi)

    def test_another_kernel_fails_the_moment_check(self):
        """The identity passes eigen_spectrum's checks for any pi but is
        not the MIS kernel of (pi, pi), which draws each step from pi."""
        pi = FiniteDistribution(np.full(4, 0.25))
        with pytest.raises(NumericError, match="closed-form MIS spectrum"):
            mis_spectrum(np.eye(4), pi, pi)

    @pytest.mark.parametrize("experiment, depth", [
        ("spectral", 40.0), ("q4", 40.0), ("spectral", 30.0), ("q4", 30.0)],
        ids=["spectral", "q4", "spectral-depth30", "q4-depth30"])
    def test_depth_40_well_runs(self, tmp_path, experiment, depth):
        """The deepest default well whose pi stays positive: q/pi reaches
        ~1e67 and nothing overflows (the file also runs with
        RuntimeWarning as an error). At depth 30 a MIS diagonal written as
        1 - (row sum) rounds to -2.2e-16 and fails the kernel checks."""
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"model": {"depth": depth}}))
        out = tmp_path / "out"
        assert main([experiment, "--config", str(path), "--out", str(out)]) == 0
        name = "spectral.json" if experiment == "spectral" else "spectral_reports.json"
        with open(out / name, encoding="utf-8") as fh:
            reports = json.load(fh)
        for space, (pi, q) in q4_instances(depth=depth).items():
            key = "mis" if space == "fine" else "coarse_mis"
            if key in reports:
                assert abs(reports[key]["lambda2"]
                           - mis_gap_report(pi, q).lambda2) <= 1e-12


def _shift_one(real):
    def mutant(pi, q):
        vals = real(pi, q).copy()
        vals[len(vals) // 2] += 1e-6
        return vals
    return mutant


def _inverted_ratio(real):
    def mutant(pi, q):
        """mis_eigenvalues with pi/q where it takes q/pi."""
        r = pi.probs / q.probs
        order = np.argsort(r, kind="stable")
        r, p, qs = r[order], pi.probs[order], q.probs[order]
        tail_q = np.cumsum(qs[::-1])[::-1]
        tail_p = np.cumsum(p[::-1])[::-1]
        lam = tail_q[:-1] - tail_p[:-1] * r[:-1]
        return np.concatenate(([1.0], np.sort(lam)[::-1]))
    return mutant


@pytest.mark.parametrize("mutate", [_shift_one, _inverted_ratio])
@pytest.mark.parametrize("experiment", ["spectral", "q4"])
def test_wrong_closed_form_fails_the_run(tmp_path, capsys, monkeypatch, mutate,
                                         experiment):
    """The in-run moment check catches a closed form that is off by 1e-6
    in one eigenvalue, or that inverts the importance ratio."""
    monkeypatch.setattr(spectral, "mis_eigenvalues", mutate(spectral.mis_eigenvalues))
    assert main([experiment, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(
        "eelab: error: closed-form MIS spectrum disagrees with the kernel")


class TestRatioExtremes:
    def test_two_state(self):
        pi = FiniteDistribution(np.array([0.75, 0.25]))
        q = FiniteDistribution(np.array([0.5, 0.5]))
        assert ratio_extremes(pi, q) == (pytest.approx(0.5), pytest.approx(1.5))

    def test_identical_distributions(self):
        pi = FiniteDistribution(np.full(4, 0.25))
        assert ratio_extremes(pi, pi) == (pytest.approx(1.0), pytest.approx(1.0))

    def test_length_mismatch(self):
        pi = FiniteDistribution(np.array([0.5, 0.5]))
        q = FiniteDistribution(np.full(3, 1.0 / 3.0))
        with pytest.raises(ShapeError, match="differ in length"):
            ratio_extremes(pi, q)

    def test_extremes_straddle_one(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            pi, q = random_pair(rng, int(rng.integers(2, 40)))
            lo, hi = ratio_extremes(pi, q)
            assert lo <= 1.0 + 1e-12
            assert hi >= 1.0 - 1e-12


class TestCoarsen:
    def test_identity_partition(self):
        d = FiniteDistribution(np.array([0.4, 0.1, 0.3, 0.2]))
        out = coarsen(d, Partition(np.arange(4)))
        np.testing.assert_allclose(out.probs, d.probs, atol=1e-15)

    def test_single_cell(self):
        d = FiniteDistribution(np.array([0.4, 0.1, 0.3, 0.2]))
        out = coarsen(d, Partition(np.zeros(4, dtype=int)))
        np.testing.assert_allclose(out.probs, [1.0], atol=1e-15)

    def test_pairwise_cells_raise_min_ratio(self):
        pi = FiniteDistribution(np.array([0.4, 0.1, 0.3, 0.2]))
        q = FiniteDistribution(np.full(4, 0.25))
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
        d = FiniteDistribution(np.array([0.2, 0.5, 0.3]))
        assert tv_distance(d, d) == 0.0

    def test_disjoint_supports(self):
        p = FiniteDistribution(np.array([0.5, 0.5, 0.0, 0.0]))
        q = FiniteDistribution(np.array([0.0, 0.0, 0.5, 0.5]))
        assert tv_distance(p, q) == pytest.approx(1.0)

    def test_quarter_example(self):
        p = FiniteDistribution(np.array([0.75, 0.25]))
        q = FiniteDistribution(np.array([0.5, 0.5]))
        assert tv_distance(p, q) == pytest.approx(0.25)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            tv_distance(np.array([1.0]), np.array([0.5, 0.5]))
