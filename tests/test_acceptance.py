"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Run with `pytest tests/test_acceptance.py -v -s`.

Tolerances are fixed here, not tuned at runtime: exact-arithmetic
identities at 1e-12 (1e-14 for mixture linearity), eigenvalue matches at
1e-9, convexity at 1e-10, and sampling thresholds (TV 0.05, 5x mixing
speedup) pinned from pilot runs.
"""

import functools
import json
import math
import time

import numpy as np
import pytest

from eelab.config import validate_config
from eelab.eeladder import (
    LadderConfig,
    empirical_jump_chain_matrix,
    idealized_jump_matrix,
    jump_table,
    ledger_from_iid,
    run_ladder,
)
from eelab.experiments import run_experiment
from eelab.kernels import (
    IndependenceKernel,
    MixtureKernel,
    RandomWalkKernel,
    reversibility_gap,
    stationary_distribution,
    stationary_gap,
)
from eelab.rng import RandomStream
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
    geometric_ladder,
)
from eelab.swcut import (
    GibbsSiteSampler,
    Image,
    RegionModelConfig,
    SwCutSampler,
    edge_affinity,
    enumerate_posterior,
    initial_labeling,
    make_two_region_image,
)

LEVEL0 = LadderLevel(0, 1.0, -math.inf)


def criterion(number, title):
    """Print one pass/fail line per criterion, with wall time."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.time()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {number} FAIL [{time.time() - t0:.1f}s]: {title}")
                raise
            print(f"\nACCEPTANCE {number} PASS [{time.time() - t0:.1f}s]: {title}")

        return wrapper

    return deco


def random_pair(rng, n):
    pi = rng.random(n) + 0.05
    q = rng.random(n) + 0.05
    return (
        FiniteDistribution(pi / pi.sum()),
        FiniteDistribution(q / q.sum()),
    )


def two_mode_model(n=24, depth=3.0):
    xs = np.linspace(-2, 2, n)
    return builtin_model("energy_table", energies=depth * (xs ** 2 - 1) ** 2)


@criterion(1, "independence-sampler spectral identity on random targets")
def test_criterion_1_mis_spectral_identity():
    """lambda2 equals 1 - min q/pi within 1e-9 over >= 20 random pairs on
    2..50 states; the report flags the other printed form case by case;
    canonical 2-state instance has lambda2 = 1/3."""
    rng = np.random.default_rng(202601)
    for trial in range(25):
        n = int(rng.integers(2, 51))
        pi, q = random_pair(rng, n)
        rep = mis_gap_report(pi, q)
        assert abs(rep.lambda2 - rep.bound_alternate) <= 1e-9
        # flag present and consistent with the measured eigenvalue
        printed_hit = abs(rep.lambda2 - rep.bound_printed) <= 1e-9
        assert rep.matched_bound in ("printed", "alternate", "both", "neither")
        assert (rep.matched_bound in ("printed", "both")) == printed_hit

    pi = FiniteDistribution(np.array([0.75, 0.25]))
    q = FiniteDistribution(np.array([0.5, 0.5]))
    rep = mis_gap_report(pi, q)
    assert rep.lambda2 == pytest.approx(1.0 / 3.0, abs=1e-9)


def test_spectral_run_mis_lambda2_equals_dense_reference(tmp_path):
    """The spectral run takes the MIS spectrum from Liu's closed form; at
    1001 states its lambda2 equals that of the dense mis_gap_report
    within 1e-12."""
    config = validate_config({"experiment": "spectral", "model": {"points": 1001}})
    out = run_experiment(config, out_dir=tmp_path / "spectral")
    with open(out / "spectral.json", encoding="utf-8") as fh:
        lam2 = json.load(fh)["mis"]["lambda2"]
    model = config.build_model()
    levels = config.ladder.levels()
    pi = enumerate_distribution(model, levels[0])
    q = enumerate_distribution(model, levels[1])
    assert abs(lam2 - mis_gap_report(pi, q).lambda2) <= 1e-12


@criterion(2, "coarsening contracts probability-ratio extremes")
def test_criterion_2_coarsening_contraction():
    """Over >= 100 random (pi, q, partition) triples the min ratio never
    decreases and the max never increases (tolerance 1e-12)."""
    rng = np.random.default_rng(202602)
    for trial in range(120):
        n = int(rng.integers(2, 41))
        pi, q = random_pair(rng, n)
        m = int(rng.integers(1, n + 1))
        _, cells = np.unique(rng.integers(0, m, size=n), return_inverse=True)
        part = Partition(cells)
        fine_lo, fine_hi = ratio_extremes(pi, q)
        lo, hi = ratio_extremes(coarsen(pi, part), coarsen(q, part))
        assert lo >= fine_lo - 1e-12
        assert hi <= fine_hi + 1e-12


@criterion(3, "exact kernels: stochastic, stationary, reversible, linear mixtures")
def test_criterion_3_kernel_exactness():
    model = builtin_model("double_well_grid", points=41, bounds=(-2, 2), depth=4.0)
    lv1 = LadderLevel(1, 4.0, 1.0)
    pi = enumerate_distribution(model, LEVEL0)
    q = enumerate_distribution(model, lv1)

    local = RandomWalkKernel(model, LEVEL0)
    jump = IndependenceKernel(pi, q)
    mix = MixtureKernel(0.5, local, jump)

    potts = builtin_model("potts_grid", width=2, height=2, labels=2, beta=0.6)
    potts_pi = enumerate_distribution(potts, LEVEL0)
    # a flat likelihood leaves the Potts prior as the posterior
    flat = RegionModelConfig(mode="fixed_means", sigma=0.5, means=(0.5, 0.5))
    gibbs = GibbsSiteSampler(Image(2, 2, np.full((2, 2), 0.5)), 2, 0.6, flat)

    ideal = idealized_jump_matrix(jump_table(model, LEVEL0, lv1, [1.0]))

    cases = [
        (local.exact_matrix(), pi.probs, "random-walk"),
        (jump.exact_matrix(), pi.probs, "independence"),
        (mix.exact_matrix(), pi.probs, "mixture"),
        (gibbs.exact_matrix(), potts_pi.probs, "gibbs"),
        (ideal, pi.probs, "idealized ring-jump"),
    ]
    for K, p, name in cases:
        assert np.all(K >= 0), name
        assert np.abs(K.sum(axis=1) - 1.0).max() <= 1e-12, name
        assert stationary_gap(K, p) <= 1e-12, name
        assert reversibility_gap(K, p) <= 1e-12, name

    combo = 0.5 * local.exact_matrix() + 0.5 * jump.exact_matrix()
    assert np.abs(mix.exact_matrix() - combo).max() <= 1e-14


@criterion(4, "mixture spectral gap beats the local walk on the double well")
def test_criterion_4_mixture_complementarity():
    model = builtin_model("double_well_grid", points=41, bounds=(-2, 2), depth=4.0)
    pi = enumerate_distribution(model, LEVEL0)
    q = enumerate_distribution(model, LadderLevel(1, 4.0, 1.0))
    local = RandomWalkKernel(model, LEVEL0)
    jump = IndependenceKernel(pi, q)
    alpha = 0.5

    lam_local = eigen_spectrum(local.exact_matrix(), pi).lambda2
    lam_mis = eigen_spectrum(jump.exact_matrix(), pi).lambda2
    mix = MixtureKernel(alpha, local, jump)
    rep_mix = eigen_spectrum(mix.exact_matrix(), pi)

    assert rep_mix.lambda2 <= alpha * lam_local + (1 - alpha) * lam_mis + 1e-10
    assert rep_mix.gap > eigen_spectrum(local.exact_matrix(), pi).gap


@criterion(5, "all four ladder variants reach the target law (median TV < 0.05)")
def test_criterion_5_ee_ladder_correctness():
    """Restricted/unrestricted x parallel/serial on a 24-state two-mode
    target: median TV to the enumerated target < 0.05 over 20 seeds within
    1e5 level-0 steps (inside the 2e5 budget)."""
    model = two_mode_model()
    levels = geometric_ladder(2, ratio=4.0, h_min=1.0, dh=1.0)
    pi = enumerate_distribution(model, levels[0])
    h = model.energies()
    left = int(np.argmin(h[: model.size // 2]))
    steps = 100_000

    medians = {}
    for jump_mode in ("restricted", "unrestricted"):
        for schedule in ("parallel", "serial"):
            tvs = []
            for k in range(20):
                cfg = LadderConfig(
                    levels=levels, burn_in=1000, p_jump=0.15,
                    jump_mode=jump_mode, schedule=schedule,
                    macro_steps=steps, steps_per_level=steps,
                    init_state=left,
                )
                ts = run_ladder(model, cfg, seed=4000 + k)
                counts = ts.empirical_counts(0, model.size)
                tvs.append(tv_distance(counts / counts.sum(), pi))
            medians[(jump_mode, schedule)] = float(np.median(tvs))

    for combo, med in medians.items():
        assert med < 0.05, f"{combo}: median TV {med:.4f}"


@criterion(6, "ledger bias decays with ledger size; idealized kernel is exact")
def test_criterion_6_reversibility_bias_decay():
    model = two_mode_model(16)
    levels = geometric_ladder(2, ratio=4.0, h_min=1.0, dh=1.0)
    table = jump_table(model, levels[0], levels[1], [lv.truncation for lv in levels[1:]])
    pi = enumerate_distribution(model, levels[0])

    K_ideal = idealized_jump_matrix(table)
    assert stationary_gap(K_ideal, pi.probs) <= 1e-12
    assert reversibility_gap(K_ideal, pi.probs) <= 1e-12

    medians = []
    for size in (100, 1000, 10000):
        tvs = []
        for k in range(20):
            rng = RandomStream.from_seed(7000 + k)
            ledger = ledger_from_iid(model, levels[1], size, rng)
            K = empirical_jump_chain_matrix(table, ledger, 0.5)
            tvs.append(tv_distance(stationary_distribution(K), pi.probs))
        medians.append(float(np.median(tvs)))

    assert medians[0] >= medians[1] >= medians[2], medians


@criterion(7, "cluster sampler matches the enumerated 3x3 posterior")
def test_criterion_7_swcut_exactness():
    """1e6 cluster moves and 1e6 site updates each land within TV 0.05 of
    the 512-state oracle; two affinity settings agree within TV 0.05."""
    img = Image(3, 3, np.array([
        [0.1, 0.2, 0.7],
        [0.15, 0.5, 0.8],
        [0.2, 0.6, 0.75],
    ]))
    beta = 0.4
    cfg = RegionModelConfig(mode="fixed_means", sigma=0.25, means=(0.2, 0.7))
    post = enumerate_posterior(img, 2, beta, cfg)
    powers = np.array([2 ** k for k in range(9)])
    steps = 1_000_000

    def sw_run(aff_params, seed):
        aff = edge_affinity(img, **aff_params)
        sam = SwCutSampler(img, 2, beta, cfg, aff)
        rng = RandomStream.from_seed(seed)
        lab = initial_labeling(img, 2, "random", rng).flat.copy()
        counts = np.zeros(512)
        for _ in range(steps):
            sam.step(lab, rng)
            counts[int((lab - 1) @ powers)] += 1
        return counts / counts.sum()

    emp_a = sw_run(dict(p_max=0.85, p_min=0.1, scale=0.2), seed=1)
    emp_b = sw_run(dict(p_max=0.6, p_min=0.3, scale=0.5), seed=2)
    assert tv_distance(emp_a, post.probs) < 0.05
    assert tv_distance(emp_b, post.probs) < 0.05
    assert tv_distance(emp_a, emp_b) < 0.05

    gibbs = GibbsSiteSampler(img, 2, beta, cfg)
    rng = RandomStream.from_seed(3)
    lab = initial_labeling(img, 2, "random", rng).flat.copy()
    counts = np.zeros(512)
    for _ in range(steps):
        gibbs.step(lab, rng)
        counts[int((lab - 1) @ powers)] += 1
    assert tv_distance(counts / counts.sum(), post.probs) < 0.05


@criterion(8, "cluster moves reach ground truth >= 5x faster than site moves")
def test_criterion_8_mixing_comparison():
    """32x32 two-region image at low noise: median sweeps to 95% ground
    truth agreement, 20 seeds each."""
    image, truth = make_two_region_image(32, 32, means=(0.25, 0.75),
                                         noise_sd=0.03, seed=100)
    cfg = RegionModelConfig(mode="fixed_means", sigma=0.05, means=(0.25, 0.75))
    beta = 0.3
    aff = edge_affinity(image, p_max=0.97, p_min=0.02, scale=0.2)
    n = image.n_pixels
    tf = truth.flat
    max_sweeps = 20

    def sweeps_to_target(sampler, seed):
        rng = RandomStream.from_seed(seed)
        lab = initial_labeling(image, 2, "random", rng).flat.copy()
        for t in range(max_sweeps * n):
            sampler.step(lab, rng)
            if (t + 1) % 16 == 0:
                agree = max(float((lab == tf).mean()),
                            float((lab == 3 - tf).mean()))
                if agree >= 0.95:
                    return (t + 1) / n
        return math.inf

    sw = [sweeps_to_target(SwCutSampler(image, 2, beta, cfg, aff), 1000 + k)
          for k in range(20)]
    gb = [sweeps_to_target(GibbsSiteSampler(image, 2, beta, cfg), 2000 + k)
          for k in range(20)]
    med_sw, med_gb = float(np.median(sw)), float(np.median(gb))
    assert med_sw > 0 and math.isfinite(med_sw)
    assert med_gb >= 5.0 * med_sw, f"gibbs {med_gb} vs swcut {med_sw}"


@criterion(9, "identical config and seed reproduce byte-identical artifacts")
def test_criterion_9_determinism(tmp_path):
    configs = [
        {"experiment": "run", "seed": 5,
         "model": {"kind": "energy_table", "energies": [0.0, 2.0, 0.5]},
         "ladder": {"macro_steps": 2000, "burn_in": 100}},
        {"experiment": "spectral", "seed": 5},
        {"experiment": "segment", "seed": 5,
         "segmentation": {"image": {"width": 12, "height": 12}, "sweeps": 2}},
        {"experiment": "q1", "seed": 5, "replicates": 2,
         "model": {"kind": "energy_table",
                   "energies": [0.0, 2.0, 0.5, 3.0, 1.0]},
         "ladder": {"macro_steps": 3000, "steps_per_level": 3000,
                    "burn_in": 100}},
        {"experiment": "q2", "seed": 5, "replicates": 2,
         "model": {"kind": "energy_table",
                   "energies": [0.0, 2.0, 0.5, 3.0, 1.0]},
         "ladder": {"macro_steps": 3000, "steps_per_level": 3000,
                    "burn_in": 100}},
        {"experiment": "q3", "seed": 5, "replicates": 2,
         "q3": {"ledger_sizes": [50, 500]},
         "model": {"kind": "energy_table",
                   "energies": [0.0, 2.0, 0.5, 3.0, 1.0]}},
        {"experiment": "q4", "seed": 5},
        {"experiment": "swcut_vs_gibbs", "seed": 5, "replicates": 2,
         "segmentation": {"image": {"width": 12, "height": 12}},
         "mixing": {"max_sweeps": 10}},
    ]
    for raw in configs:
        exp = raw["experiment"]
        out_a = run_experiment(validate_config(dict(raw)),
                               out_dir=tmp_path / f"{exp}_a")
        out_b = run_experiment(validate_config(dict(raw)),
                               out_dir=tmp_path / f"{exp}_b")
        names_a = sorted(p.name for p in out_a.iterdir())
        names_b = sorted(p.name for p in out_b.iterdir())
        assert names_a == names_b, exp
        for name in names_a:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), (
                f"{exp}/{name} differs between identical runs"
            )
