import math

import numpy as np
import pytest

from eelab.errors import CapabilityError, ConfigError
from eelab import swcut
from eelab.kernels import reversibility_gap, stationary_gap
from eelab.rng import RandomStream
from eelab.spectral import tv_distance
from eelab.swcut import (
    EdgeAffinityMap,
    GibbsSiteSampler,
    Image,
    Labeling,
    RegionLikelihood,
    RegionModelConfig,
    SwCutSampler,
    _incidence,
    _poly_design,
    _roots,
    _run_roots,
    agreement,
    edge_affinity,
    encode_labeling,
    decode_labeling,
    enumerate_posterior,
    initial_labeling,
    lattice_edges,
    make_two_region_image,
    posterior_logdensity,
    potts_logprior,
    region_loglik,
    segment,
)


def flat_image(w, h, value=0.5):
    return Image(w, h, np.full((h, w), value))


def const_affinity(image, p):
    n_edges = 2 * image.width * image.height - image.width - image.height
    return EdgeAffinityMap(image.width, image.height, np.full(n_edges, p))


@pytest.mark.parametrize("mode", ["fixed_means", "poly_fit"])
def test_sigma_needs_a_finite_non_zero_likelihood_scale(mode):
    """1 / (2 sigma^2) is finite at sigma 1e-154 and overflows at 1e-155;
    it is non-zero at 1e153, and 2 sigma^2 overflows at 1e154."""
    kw = dict(mode=mode, means=(0.2, 0.7))
    for sigma in (1e-154, 1.0, 1e153):
        RegionModelConfig(sigma=sigma, **kw)
    for sigma in (0.0, -1.0, 1e-155, 1e-308, 1e154, 1e308, math.inf, math.nan):
        with pytest.raises(ConfigError, match="sigma"):
            RegionModelConfig(sigma=sigma, **kw)


class TestEdgeAffinity:
    def test_zero_contrast_hits_pmax(self):
        aff = edge_affinity(flat_image(3, 3), p_max=0.9, p_min=0.05, scale=0.1)
        np.testing.assert_allclose(aff.p, 0.9, atol=1e-15)

    def test_exponential_law_value(self):
        img = Image(2, 1, np.array([[0.4, 0.5]]))
        aff = edge_affinity(img, p_max=0.9, p_min=0.05, scale=0.1)
        assert aff.p[0] == pytest.approx(0.9 * math.exp(-1.0), abs=1e-12)

    def test_clamp_at_pmin(self):
        img = Image(2, 1, np.array([[0.0, 1.0]]))
        aff = edge_affinity(img, p_max=0.9, p_min=0.05, scale=0.01)
        assert aff.p[0] == pytest.approx(0.05)

    def test_invalid_params(self):
        with pytest.raises(ConfigError):
            edge_affinity(flat_image(2, 2), p_max=1.0, p_min=0.1, scale=0.1)
        with pytest.raises(ConfigError):
            edge_affinity(flat_image(2, 2), p_max=0.5, p_min=0.6, scale=0.1)
        with pytest.raises(ConfigError):
            edge_affinity(flat_image(2, 2), p_max=0.9, p_min=0.1, scale=0.0)


class TestPottsPrior:
    def test_all_equal_2x2(self):
        W = Labeling(np.ones((2, 2), dtype=int), 2)
        assert potts_logprior(W, 0.5) == pytest.approx(2.0)

    def test_checkerboard(self):
        W = Labeling(np.array([[1, 2], [2, 1]]), 2)
        assert potts_logprior(W, 0.5) == 0.0

    def test_label_permutation_invariance(self):
        rng = np.random.default_rng(2)
        lab = rng.integers(1, 4, size=(4, 5))
        W = Labeling(lab, 3)
        perm = np.array([0, 3, 1, 2])  # 1->3, 2->1, 3->2
        Wp = Labeling(perm[lab], 3)
        assert potts_logprior(W, 0.7) == potts_logprior(Wp, 0.7)


class TestRegionLoglik:
    def test_fixed_means_quadratic_term(self):
        img = Image(2, 1, np.array([[0.2, 0.4]]))
        W = Labeling(np.ones((1, 2), dtype=int), 1)
        cfg = RegionModelConfig(mode="fixed_means", sigma=0.1, means=(0.3,))
        ll = region_loglik(img, W, cfg)
        const = 2 * (math.log(0.1) + 0.5 * math.log(2 * math.pi))
        assert ll + const == pytest.approx(-1.0, abs=1e-12)

    def test_poly_order0_equals_region_mean_fit(self):
        rng = np.random.default_rng(8)
        img = Image(4, 3, rng.random((3, 4)))
        W = Labeling(np.ones((3, 4), dtype=int), 1)
        cfg = RegionModelConfig(mode="poly_fit", sigma=0.2, order=0)
        ll = region_loglik(img, W, cfg)
        ssr = float(((img.flat - img.flat.mean()) ** 2).sum())
        const = 12 * (math.log(0.2) + 0.5 * math.log(2 * math.pi))
        assert ll == pytest.approx(-ssr / (2 * 0.04) - const, abs=1e-10)

    def test_poly_residuals_orthogonal_to_design(self):
        rng = np.random.default_rng(12)
        img = Image(6, 5, rng.random((5, 6)))
        design = _poly_design(6, 5, 2)
        coef, *_ = np.linalg.lstsq(design, img.flat, rcond=None)
        resid = img.flat - design @ coef
        assert np.abs(design.T @ resid).max() <= 1e-8

    def test_small_region_falls_back_to_mean(self):
        img = Image(2, 2, np.array([[0.1, 0.9], [0.2, 0.8]]))
        W = Labeling(np.array([[1, 2], [2, 2]]), 2)  # region 1 has one pixel
        cfg = RegionModelConfig(mode="poly_fit", sigma=0.2, order=2)
        ll = region_loglik(img, W, cfg)  # must not raise
        assert np.isfinite(ll)


class TestPosterior:
    def test_flat_posterior_when_beta_zero_and_equal_means(self):
        img = Image(2, 2, np.array([[0.3, 0.7], [0.5, 0.1]]))
        cfg = RegionModelConfig(mode="fixed_means", sigma=0.3, means=(0.5, 0.5))
        vals = set()
        for code in range(16):
            W = decode_labeling(code, 2, 2, 2)
            vals.add(round(posterior_logdensity(img, W, 0.0, cfg), 12))
        assert len(vals) == 1

    def test_translation_invariance(self):
        img = Image(2, 2, np.array([[0.3, 0.7], [0.5, 0.1]]))
        img2 = Image(2, 2, img.pixels + 0.2)
        W = Labeling(np.array([[1, 2], [1, 2]]), 2)
        c1 = RegionModelConfig(mode="fixed_means", sigma=0.2, means=(0.2, 0.6))
        c2 = RegionModelConfig(mode="fixed_means", sigma=0.2, means=(0.4, 0.8))
        assert posterior_logdensity(img, W, 0.4, c1) == pytest.approx(
            posterior_logdensity(img2, W, 0.4, c2), abs=1e-10
        )

    def test_enumerated_posterior_normalizes(self):
        img = Image(3, 3, np.linspace(0, 1, 9).reshape(3, 3))
        cfg = RegionModelConfig(mode="fixed_means", sigma=0.3, means=(0.25, 0.75))
        post = enumerate_posterior(img, 2, 0.4, cfg)
        assert len(post) == 512
        assert abs(post.probs.sum() - 1.0) <= 1e-12

    def test_one_pixel_posterior_proportional_to_likelihood(self):
        img = Image(1, 1, np.array([[0.3]]))
        cfg = RegionModelConfig(mode="fixed_means", sigma=0.2, means=(0.25, 0.75))
        post = enumerate_posterior(img, 2, 1.7, cfg)
        w = np.exp([-(0.3 - 0.25) ** 2 / 0.08, -(0.3 - 0.75) ** 2 / 0.08])
        np.testing.assert_allclose(post.probs, w / w.sum(), atol=1e-12)

    def test_uniform_when_flat(self):
        img = flat_image(2, 2)
        cfg = RegionModelConfig(mode="fixed_means", sigma=0.2, means=(0.5, 0.5))
        post = enumerate_posterior(img, 2, 0.0, cfg)
        np.testing.assert_allclose(post.probs, np.full(16, 1 / 16), atol=1e-12)

    def test_enumeration_cap(self):
        img = flat_image(4, 4)
        cfg = RegionModelConfig(mode="fixed_means", sigma=0.2, means=(0.4, 0.6))
        with pytest.raises(CapabilityError):
            enumerate_posterior(img, 2, 0.1, cfg, enum_cap=1000)

    def test_label_permutation_equivariance_exact(self):
        """Swapping the two means permutes the enumerated posterior by the
        corresponding relabeling of every configuration."""
        img = Image(2, 2, np.array([[0.2, 0.8], [0.7, 0.3]]))
        c12 = RegionModelConfig(mode="fixed_means", sigma=0.25, means=(0.2, 0.7))
        c21 = RegionModelConfig(mode="fixed_means", sigma=0.25, means=(0.7, 0.2))
        p = enumerate_posterior(img, 2, 0.3, c12)
        q = enumerate_posterior(img, 2, 0.3, c21)
        for code in range(16):
            W = decode_labeling(code, 2, 2, 2)
            swapped = Labeling(3 - W.labels, 2)
            assert q.probs[encode_labeling(swapped)] == pytest.approx(
                p.probs[code], abs=1e-12
            )


def bond_roots(W, aff, rng):
    """Each pixel's root under one bond draw as SwCutSampler.step makes it:
    each same-label edge is on with probability p_e."""
    ei, ej = lattice_edges(aff.width, aff.height)
    edges = list(zip(ei.tolist(), ej.tolist(), aff.p.tolist()))
    u = rng.uniforms(len(ei)).tolist()
    return _roots(W.flat.size, edges, W.flat.tolist(), u)


def moved_pixels(sampler, lab, rng):
    """The pixels one SW-cut move relabels, and their labels before it."""
    before = lab.copy()
    sampler.step(lab, rng)
    moved = np.flatnonzero(lab != before)
    return moved, before[moved]


FLAT = RegionModelConfig(mode="fixed_means", sigma=0.5, means=(0.5, 0.5))


class TestFormClusters:
    def test_all_bonds_on_single_cluster(self):
        img = flat_image(3, 3)
        W = Labeling(np.ones((3, 3), dtype=int), 2)
        aff = const_affinity(img, 1 - 1e-12)
        rng = RandomStream.from_seed(0)
        assert bond_roots(W, aff, rng) == [0] * 9
        # a move relabels the whole field or nothing
        sam = SwCutSampler(img, 2, 0.0, FLAT, aff)
        lab = W.flat.copy()
        sizes = {len(moved_pixels(sam, lab, rng)[0]) for _ in range(50)}
        assert sizes == {0, 9}

    def test_all_bonds_off_singletons(self):
        img = flat_image(3, 3)
        W = Labeling(np.ones((3, 3), dtype=int), 2)
        aff = const_affinity(img, 1e-12)
        rng = RandomStream.from_seed(0)
        assert bond_roots(W, aff, rng) == list(range(9))
        sam = SwCutSampler(img, 2, 0.0, FLAT, aff)
        lab = W.flat.copy()
        sizes = {len(moved_pixels(sam, lab, rng)[0]) for _ in range(50)}
        assert sizes == {0, 1}

    def test_cross_label_edges_never_bond(self):
        img = flat_image(2, 2)
        W = Labeling(np.array([[1, 1], [2, 2]]), 2)
        aff = const_affinity(img, 1 - 1e-12)
        rng = RandomStream.from_seed(0)
        assert bond_roots(W, aff, rng) == [0, 0, 2, 2]
        # at p_e = 1/2 a move may relabel part of a row, never both rows
        sam = SwCutSampler(img, 2, 0.0, FLAT, const_affinity(img, 0.5))
        moved = {tuple(moved_pixels(sam, W.flat.copy(), rng)[0])
                 for _ in range(200)}
        assert moved == {(), (0,), (1,), (0, 1), (2,), (3,), (2, 3)}

    def test_cluster_purity(self):
        img, _ = make_two_region_image(6, 6, noise_sd=0.1, seed=3)
        aff = edge_affinity(img, p_max=0.8, p_min=0.1, scale=0.2)
        rng = RandomStream.from_seed(5)
        W = initial_labeling(img, 3, "random", rng)
        for _ in range(20):
            # every pixel carries its root's label
            assert (W.flat[bond_roots(W, aff, rng)] == W.flat).all()
        cfg = RegionModelConfig(mode="fixed_means", sigma=0.3,
                                means=(0.2, 0.5, 0.8))
        sam = SwCutSampler(img, 3, 0.3, cfg, aff)
        lab = W.flat.copy()
        for _ in range(200):
            _, was = moved_pixels(sam, lab, rng)
            assert len(set(was.tolist())) <= 1


COMPONENT_SHAPES = [(1, 1), (1, 9), (9, 1), (2, 2), (3, 3), (15, 17), (16, 16),
                    (17, 16), (32, 32), (64, 64)]


def assert_roots_match_union_find(width, height, on):
    ei, ej = lattice_edges(width, height)
    n = width * height
    # the bond mask as _roots' draw: one label, and u below p = 1/2 exactly
    # on the bonds
    edges = list(zip(ei.tolist(), ej.tolist(), [0.5] * len(ei)))
    expect = _roots(n, edges, [0] * n, np.where(on, 0.25, 0.75).tolist())
    # _run_roots' input from the bond mask: the horizontal bonds cut the
    # rows into runs, the vertical ones join them
    n_h = height * (width - 1)
    start = np.ones((height, width), dtype=bool)
    start[:, 1:] = ~on[:n_h].reshape(height, width - 1)
    run, run_root = _run_roots(start, on[n_h:].reshape(height - 1, width))
    first = np.flatnonzero(start)
    assert (first[run] <= np.arange(n)).all() and (np.diff(run) >= 0).all()
    assert first[run_root[run]].tolist() == expect


def path_bonds(width, height, cells):
    """The bond mask joining each (row, col) cell to the next in cells,
    4-neighbours all."""
    ei, ej = lattice_edges(width, height)
    edge = {(a, b): k for k, (a, b) in enumerate(zip(ei.tolist(), ej.tolist()))}
    px = [r * width + c for r, c in cells]
    on = np.zeros(len(ei), dtype=bool)
    for a, b in zip(px, px[1:]):
        on[edge[min(a, b), max(a, b)]] = True
    return on


def serpentine(width, height):
    return [(r, c if r % 2 == 0 else width - 1 - c)
            for r in range(height) for c in range(width)]


def spiral(width, height):
    """Every cell, from the top-left corner inwards, clockwise."""
    cells, top, bottom, left, right = [], 0, height - 1, 0, width - 1
    while top <= bottom and left <= right:
        cells += [(top, c) for c in range(left, right + 1)]
        cells += [(r, right) for r in range(top + 1, bottom + 1)]
        if top < bottom:
            cells += [(bottom, c) for c in range(right - 1, left - 1, -1)]
        if left < right:
            cells += [(r, left) for r in range(bottom - 1, top, -1)]
        top, bottom, left, right = top + 1, bottom - 1, left + 1, right - 1
    return cells


def comb(width, height):
    """A spine along the bottom row and a tooth up every other column;
    the smallest pixel tops the first tooth, far from most of the comb."""
    on = path_bonds(width, height, [(height - 1, c) for c in range(width)])
    for c in range(0, width, 2):
        on |= path_bonds(width, height, [(r, c) for r in range(height)])
    return on


def adversarial_bonds():
    """Bond masks that need several hook rounds, deep pointer chains or
    many bonds between the same two runs."""
    w, h = 13, 11
    n_h = h * (w - 1)
    masks = {
        "serpentine_rows": (w, h, path_bonds(w, h, serpentine(w, h))),
        "serpentine_cols": (w, h, path_bonds(
            w, h, [(r, c) for c, r in serpentine(h, w)])),
        "spiral": (w, h, path_bonds(w, h, spiral(w, h))),
        "comb": (w, h, comb(w, h)),
    }
    # the bar in rows 6-10 of col 0, whose top is lowest, is joined by the
    # runs in rows 8 and 10 to the bars in rows 2-7 of col 3 and rows 0-9
    # of col 5, which do not touch: round 2 hooks it under the col-5 bar,
    # round 3 hooks the col-3 bar
    bars = [[(r, 0) for r in range(6, 11)], [(r, 3) for r in range(2, 8)],
            [(r, 5) for r in range(10)], [(8, c) for c in range(4)],
            [(10, c) for c in range(6)], [(9, 5), (10, 5)], [(7, 3), (8, 3)]]
    masks["three_rounds"] = (w, h, np.any(
        [path_bonds(w, h, cells) for cells in bars], axis=0))
    lab = np.add.outer(np.arange(h), np.arange(w)).reshape(-1) % 2
    ei, ej = lattice_edges(w, h)
    masks["checkerboard"] = (w, h, lab[ei] == lab[ej])
    vertical = np.zeros(len(ei), dtype=bool)
    vertical[n_h:] = True
    masks["vertical_only"] = (w, h, vertical)
    # rows 4 and 5 each one run, joined by every vertical bond but two;
    # row 6 hangs off row 5's last pixel, rows 2-3 off row 4's first
    two_runs = path_bonds(w, h, [(4, c) for c in range(w)])
    two_runs |= path_bonds(w, h, [(5, c) for c in range(w)])
    for c in range(w):
        if c not in (3, 7):
            two_runs |= path_bonds(w, h, [(4, c), (5, c)])
    two_runs |= path_bonds(w, h, [(5, w - 1), (6, w - 1)])
    two_runs |= path_bonds(w, h, [(2, 0), (3, 0), (4, 0)])
    masks["two_runs_many_bonds"] = (w, h, two_runs)
    for n in (2, 37):
        masks[f"1x{n}_all_on"] = (n, 1, np.ones(n - 1, dtype=bool))
        masks[f"{n}x1_all_on"] = (1, n, np.ones(n - 1, dtype=bool))
    return masks


ADVERSARIAL_BONDS = adversarial_bonds()


class TestComponentRoots:
    @pytest.mark.parametrize("p_on", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("width,height", COMPONENT_SHAPES)
    def test_matches_union_find(self, width, height, p_on):
        n_edges = len(lattice_edges(width, height)[0])
        gen = np.random.default_rng(width * 100 + height)
        for _ in range(5):
            assert_roots_match_union_find(width, height,
                                          gen.random(n_edges) < p_on)

    @pytest.mark.parametrize("name", list(ADVERSARIAL_BONDS))
    def test_adversarial_masks_match_union_find(self, name):
        width, height, on = ADVERSARIAL_BONDS[name]
        assert_roots_match_union_find(width, height, on)
        # turned half round, the smallest pixel moves to the far end
        n_h = height * (width - 1)
        turned = np.concatenate([on[:n_h][::-1], on[n_h:][::-1]])
        assert_roots_match_union_find(width, height, turned)

    @pytest.mark.parametrize("width,height", COMPONENT_SHAPES)
    def test_incidence_lists_edges_in_edge_order(self, width, height):
        ei, ej = lattice_edges(width, height)
        expect = [[] for _ in range(width * height)]
        for k, (a, b) in enumerate(zip(ei.tolist(), ej.tolist())):
            expect[a].append((k, b))
            expect[b].append((k, a))
        nbr, eid = _incidence(width, height)
        got = [[(k, b) for k, b in zip(ks, bs) if k >= 0]
               for ks, bs in zip(eid.tolist(), nbr.tolist())]
        assert got == expect
        assert ((nbr < 0) == (eid < 0)).all()


def assert_paths_take_identical_steps(monkeypatch, img, aff, cfg, pick):
    """The image run on either side of the scalar/vector crossover gives
    the same labels and deltas, bit for bit, at every step."""
    samplers = []
    for limit in (10 ** 9, 0):
        monkeypatch.setattr(swcut, "_SCALAR_MAX_PIXELS", limit)
        samplers.append(SwCutSampler(img, 2, 0.1, cfg, aff, pick))
        sampler = samplers[-1]
        assert (sampler._pick is SwCutSampler._pick_vector) == (limit == 0)
    # the two run in lockstep, so a failure names the first step that differs
    for init in ("threshold", "random"):
        runs = []
        for _ in samplers:
            rng = RandomStream.from_seed(3)
            runs.append((rng, initial_labeling(img, 2, init, rng).flat.copy()))
        for step in range(150):
            deltas = [s.step(lab, rng) for s, (rng, lab) in zip(samplers, runs)]
            same = np.array_equal(runs[0][1], runs[1][1])
            assert same and deltas[0] == deltas[1], (init, step, *deltas)


@pytest.mark.parametrize("mode", ["fixed_means", "poly_fit"])
@pytest.mark.parametrize("pick", ["uniform", "pixel"])
def test_vector_and_scalar_paths_take_identical_steps(monkeypatch, mode, pick):
    """A 20x20 image takes the same steps on either path."""
    img, _ = make_two_region_image(20, 20, noise_sd=0.1, seed=7)
    aff = edge_affinity(img, p_max=0.95, p_min=0.05, scale=0.3)
    # a flat likelihood and weak prior, so large clusters change label
    cfg = RegionModelConfig(mode=mode, sigma=1.0, means=(0.25, 0.75), order=1)
    assert_paths_take_identical_steps(monkeypatch, img, aff, cfg, pick)


@pytest.mark.parametrize("width,height", [(1, 100), (100, 1)])
@pytest.mark.parametrize("pick", ["uniform", "pixel"])
def test_vector_path_on_strips_takes_the_scalar_steps(monkeypatch, width,
                                                     height, pick):
    """One-pixel-wide strips, where the vector path has no horizontal or
    no vertical bonds, take the same steps on either path."""
    gen = np.random.default_rng(width)
    img = Image(width, height, gen.random((height, width)))
    aff = edge_affinity(img, p_max=0.95, p_min=0.05, scale=0.3)
    cfg = RegionModelConfig(mode="fixed_means", sigma=1.0, means=(0.25, 0.75))
    assert_paths_take_identical_steps(monkeypatch, img, aff, cfg, pick)


@pytest.mark.parametrize("pick", ["uniform", "pixel"])
def test_paths_take_identical_steps_on_the_criterion_7_image(monkeypatch, pick):
    """Criterion 7's 3x3 image and first affinity setting take the same
    steps on either path."""
    img = Image(3, 3, np.array([[0.1, 0.2, 0.7], [0.15, 0.5, 0.8],
                                [0.2, 0.6, 0.75]]))
    aff = edge_affinity(img, p_max=0.85, p_min=0.1, scale=0.2)
    cfg = RegionModelConfig(mode="fixed_means", sigma=0.25, means=(0.2, 0.7))
    assert_paths_take_identical_steps(monkeypatch, img, aff, cfg, pick)


def test_vector_cut_sums_equal_the_loop():
    """The bincount cut sums of large clusters add the loop's floats in
    the loop's order."""
    img, truth = make_two_region_image(20, 20, noise_sd=0.1, seed=8,
                                       layout="disk")
    aff = edge_affinity(img, p_max=0.95, p_min=0.05, scale=0.3)
    cfg = RegionModelConfig(mode="fixed_means", sigma=0.1, means=(0.2, 0.5, 0.8))
    sampler = SwCutSampler(img, 3, 0.4, cfg, aff, "pixel")
    assert sampler._pick is SwCutSampler._pick_vector
    gen = np.random.default_rng(2)
    rng = RandomStream.from_seed(4)
    large = 0
    for _ in range(40):
        lab = truth.flat.copy()
        flip = gen.random(lab.size) < 0.1
        lab[flip] = gen.integers(1, 4, flip.sum())
        u = gen.random(len(sampler.ei))
        v0, cut_log, cut_count = sampler._pick_vector(lab, u, rng)
        large += len(v0) > 32
        assert (cut_log, cut_count) == sampler._cut_sums(lab, list(v0))
    assert large >= 10


class TestSwCutStep:
    def test_symmetric_weights_give_uniform_relabel(self):
        """Flat likelihood, beta = 0, whole grid in one cluster: the new
        label is uniform over {1, 2}."""
        img = flat_image(2, 2)
        cfg = RegionModelConfig(mode="fixed_means", sigma=0.5, means=(0.5, 0.5))
        aff = const_affinity(img, 1 - 1e-12)
        sam = SwCutSampler(img, 2, 0.0, cfg, aff)
        rng = RandomStream.from_seed(6)
        counts = np.zeros(2)
        lab = np.ones(4, dtype=np.int64)
        for _ in range(20_000):
            sam.step(lab, rng)
            counts[lab[0] - 1] += 1
        np.testing.assert_allclose(counts / counts.sum(), [0.5, 0.5], atol=0.02)

    def test_long_run_matches_oracle_2x2(self):
        img = Image(2, 2, np.array([[0.2, 0.8], [0.3, 0.7]]))
        beta = 0.4
        cfg = RegionModelConfig(mode="fixed_means", sigma=0.3, means=(0.3, 0.7))
        post = enumerate_posterior(img, 2, beta, cfg)
        aff = edge_affinity(img, p_max=0.8, p_min=0.1, scale=0.3)
        sam = SwCutSampler(img, 2, beta, cfg, aff)
        rng = RandomStream.from_seed(99)
        lab = np.ones(4, dtype=np.int64)
        counts = np.zeros(16)
        powers = np.array([1, 2, 4, 8])
        for _ in range(60_000):
            sam.step(lab, rng)
            counts[int((lab - 1) @ powers)] += 1
        assert tv_distance(counts / counts.sum(), post.probs) < 0.05

    def test_pixel_weighted_pick_same_stationary_law(self):
        img = Image(2, 2, np.array([[0.2, 0.8], [0.3, 0.7]]))
        beta = 0.4
        cfg = RegionModelConfig(mode="fixed_means", sigma=0.3, means=(0.3, 0.7))
        post = enumerate_posterior(img, 2, beta, cfg)
        aff = edge_affinity(img, p_max=0.8, p_min=0.1, scale=0.3)
        sam = SwCutSampler(img, 2, beta, cfg, aff, cluster_pick="pixel")
        rng = RandomStream.from_seed(55)
        lab = np.ones(4, dtype=np.int64)
        counts = np.zeros(16)
        powers = np.array([1, 2, 4, 8])
        for _ in range(60_000):
            sam.step(lab, rng)
            counts[int((lab - 1) @ powers)] += 1
        assert tv_distance(counts / counts.sum(), post.probs) < 0.05

    def test_poly_fit_mode_runs_and_accepts(self):
        img, _ = make_two_region_image(4, 4, noise_sd=0.02, seed=7)
        cfg = RegionModelConfig(mode="poly_fit", sigma=0.1, order=1)
        aff = edge_affinity(img)
        sam = SwCutSampler(img, 2, 0.2, cfg, aff)
        rng = RandomStream.from_seed(8)
        lab = initial_labeling(img, 2, "random", rng).flat.copy()
        for _ in range(50):
            assert math.isfinite(sam.step(lab, rng))
        assert set(lab.tolist()) <= {1, 2}


class TestGibbsSite:
    def test_conditional_two_agreeing_one_disagreeing_neighbor(self):
        """beta=1, neighbors labeled (1,1,2), flat likelihood:
        P(W_i = 1) = e^2 / (e^2 + e) = e/(e+1)."""
        img = flat_image(3, 2)
        cfg = RegionModelConfig(mode="fixed_means", sigma=0.5, means=(0.5, 0.5))
        sam = GibbsSiteSampler(img, 2, 1.0, cfg)
        lab = np.array([1, 9, 1, 9, 2, 9])  # site 1 neighbors: 0, 2, 4
        lab = np.array([1, 1, 1, 2, 2, 2], dtype=np.int64)
        # grid: sites 0,1,2 top row; 3,4,5 bottom. site 1 neighbors = 0, 2, 4
        lab[0], lab[2], lab[4] = 1, 1, 2
        logw = sam._site_logweights(lab, 1)
        p = np.exp(np.array(logw) - max(logw))
        p /= p.sum()
        assert p[0] == pytest.approx(math.e / (math.e + 1.0), abs=1e-12)

    def test_zero_beta_flat_likelihood_uniform(self):
        img = flat_image(2, 2)
        cfg = RegionModelConfig(mode="fixed_means", sigma=0.5, means=(0.5, 0.5))
        sam = GibbsSiteSampler(img, 2, 0.0, cfg)
        lab = np.ones(4, dtype=np.int64)
        logw = sam._site_logweights(lab, 0)
        np.testing.assert_allclose(logw, logw[0], atol=1e-15)

    def test_long_run_matches_oracle_2x2(self):
        img = Image(2, 2, np.array([[0.2, 0.8], [0.3, 0.7]]))
        beta = 0.4
        cfg = RegionModelConfig(mode="fixed_means", sigma=0.3, means=(0.3, 0.7))
        post = enumerate_posterior(img, 2, beta, cfg)
        sam = GibbsSiteSampler(img, 2, beta, cfg)
        rng = RandomStream.from_seed(77)
        lab = np.ones(4, dtype=np.int64)
        counts = np.zeros(16)
        powers = np.array([1, 2, 4, 8])
        for _ in range(100_000):
            sam.step(lab, rng)
            counts[int((lab - 1) @ powers)] += 1
        assert tv_distance(counts / counts.sum(), post.probs) < 0.05


class TestGibbsExactMatrix:
    """GibbsSiteSampler.exact_matrix against the enumerated posterior."""

    @pytest.mark.parametrize("width,height,n_labels", [
        (2, 2, 2), (2, 2, 3), (3, 2, 2), (3, 2, 3), (3, 3, 2),
    ])
    @pytest.mark.parametrize("mode,order", [
        ("fixed_means", 0), ("poly_fit", 1), ("poly_fit", 2),
    ])
    def test_stationary_and_reversible(self, width, height, n_labels, mode, order):
        gen = np.random.default_rng(100 * width + 10 * height + n_labels)
        image = Image(width, height, gen.random((height, width)))
        cfg = RegionModelConfig(mode=mode, sigma=0.3, order=order,
                                means=(0.2, 0.8, 0.5)[:n_labels])
        post = enumerate_posterior(image, n_labels, 0.6, cfg)
        K = GibbsSiteSampler(image, n_labels, 0.6, cfg).exact_matrix()
        assert np.all(K >= 0)
        assert np.abs(K.sum(axis=1) - 1.0).max() <= 1e-12
        assert stationary_gap(K, post.probs) <= 1e-12
        assert reversibility_gap(K, post.probs) <= 1e-12

    def test_moves_change_at_most_one_pixel(self):
        image = Image(3, 2, np.linspace(0.0, 1.0, 6).reshape(2, 3))
        cfg = RegionModelConfig(mode="fixed_means", sigma=0.3, means=(0.2, 0.8))
        K = GibbsSiteSampler(image, 2, 0.6, cfg).exact_matrix()
        for x, y in zip(*np.nonzero(K)):
            a = decode_labeling(int(x), 2, 3, 2).labels
            b = decode_labeling(int(y), 2, 3, 2).labels
            assert (a != b).sum() <= 1

    def test_large_lattice_is_refused(self):
        image = flat_image(4, 4)
        cfg = RegionModelConfig(mode="fixed_means", sigma=0.5, means=(0.5, 0.5))
        with pytest.raises(CapabilityError):
            GibbsSiteSampler(image, 2, 0.5, cfg).exact_matrix()


def reference_ssr(image, idx, order):
    """lstsq residual sum of squares of a polynomial surface over the pixels
    idx (mean fit below one pixel per coefficient), built from scratch."""
    idx = np.asarray(idx, dtype=np.int64)
    v = image.flat[idx]
    rows, cols = np.divmod(idx, image.width)
    x = 2.0 * cols / (image.width - 1) - 1.0 if image.width > 1 else 0.0 * cols
    y = 2.0 * rows / (image.height - 1) - 1.0 if image.height > 1 else 0.0 * rows
    X = np.column_stack([x ** a * y ** (t - a)
                         for t in range(order + 1) for a in range(t + 1)])
    if len(v) < X.shape[1]:
        return float(((v - v.mean()) ** 2).sum()) if len(v) else 0.0
    coef, *_ = np.linalg.lstsq(X, v, rcond=None)
    return float(((v - X @ coef) ** 2).sum())


def assert_ssrs_match(rl, image, lab, order):
    got = rl.region_ssrs(lab)
    for c in range(rl.n_labels):
        ref = reference_ssr(image, np.nonzero(lab == c + 1)[0], order)
        assert abs(got[c] - ref) <= 1e-9 * max(1.0, ref), (c, got[c], ref)


def poly_cfg(order):
    return RegionModelConfig(mode="poly_fit", sigma=0.1, order=order)


class TestRegionLikelihood:
    @pytest.mark.parametrize("size", [3, 32, 64])
    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_random_subsets_match_lstsq(self, size, order):
        gen = np.random.default_rng(size * 10 + order)
        image = Image(size, size, gen.random((size, size)))
        rl = RegionLikelihood(image, 2, poly_cfg(order))
        n = size * size
        for _ in range(20):
            lab = np.full(n, 2, dtype=np.int64)
            lab[gen.choice(n, gen.integers(0, n + 1), replace=False)] = 1
            assert_ssrs_match(rl, image, lab, order)

    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_degenerate_regions_match_lstsq(self, order):
        """Single rows and columns, two rows, and regions with fewer pixels
        than coefficients (the mean fallback)."""
        gen = np.random.default_rng(order)
        image = Image(7, 6, gen.random((6, 7)))
        rl = RegionLikelihood(image, 3, poly_cfg(order))
        grids = []
        for r in (0, 2, 5):
            g = np.full((6, 7), 3)
            g[r, :] = 1
            g[:, r] = 2
            grids.append(g)
        g = np.full((6, 7), 3)
        g[1:3, :] = 1  # two rows: collinear under y^2
        g[4, 2:4] = 2  # two pixels, fewer than the coefficients
        grids.append(g)
        g = np.full((6, 7), 3)
        g[0, 0] = 1
        grids.append(g)  # one pixel, and an empty label 2
        for g in grids:
            assert_ssrs_match(rl, image, g.reshape(-1), order)

    def test_small_blocks_match_lstsq(self):
        """Compact blocks of up to 6x6 pixels at 64x64, order 2: normal
        equations from one to six rows, collinear to ill-conditioned."""
        gen = np.random.default_rng(64)
        image = Image(64, 64, gen.random((64, 64)))
        rl = RegionLikelihood(image, 2, poly_cfg(2))
        for h in range(1, 7):
            for w in range(1, 7):
                for r0, c0 in [(0, 0), (0, 64 - w), (64 - h, 64 - w), (32, 32)]:
                    g = np.full((64, 64), 2)
                    g[r0:r0 + h, c0:c0 + w] = 1
                    assert_ssrs_match(rl, image, g.reshape(-1), 2)

    @pytest.mark.parametrize("width,height", [(9, 1), (1, 9)])
    def test_strip_matches_lstsq(self, width, height):
        gen = np.random.default_rng(width)
        image = Image(width, height, gen.random((height, width)))
        for order in (0, 1, 2):
            rl = RegionLikelihood(image, 2, poly_cfg(order))
            for _ in range(10):
                lab = gen.integers(1, 3, size=9)
                assert_ssrs_match(rl, image, lab, order)

    def test_collinear_regions_are_refit(self, monkeypatch):
        """A single row at order 1 (y constant) and two rows at order 2 (y^2
        affine in y) leave an LDL' pivot near zero, so _region_ssr refits
        them from their pixels; a well-conditioned 8x8 block is not refit."""
        real, sizes = swcut._region_ssr, []

        def spy(values, design):
            sizes.append(len(values))
            return real(values, design)

        monkeypatch.setattr(swcut, "_region_ssr", spy)
        gen = np.random.default_rng(5)
        image = Image(16, 16, gen.random((16, 16)))
        for order, height in ((1, 1), (2, 2), (2, 8)):
            rl = RegionLikelihood(image, 2, poly_cfg(order))
            for r0 in range(16 - height + 1):
                g = np.full((16, 16), 2)
                g[r0:r0 + height, 4:12] = 1
                sizes.clear()
                assert_ssrs_match(rl, image, g.reshape(-1), order)
                assert sizes == ([] if height == 8 else [8 * height]), (order, r0)

    def test_committed_moves_keep_statistics_exact(self):
        """Statistics updated move by move equal a from-scratch fit."""
        img, _ = make_two_region_image(16, 16, noise_sd=0.05, seed=2)
        rl = RegionLikelihood(img, 3, poly_cfg(2))
        gen = np.random.default_rng(3)
        lab = gen.integers(1, 4, size=256)
        for _ in range(200):
            i = int(gen.integers(256))
            rl.site_terms(lab, i)
            lab[i] = 1 + (lab[i] % 3)
            rl.commit(int(lab[i]))
        assert_ssrs_match(rl, img, lab, 2)


def test_region_ssrs_match_lstsq_property():
    """Random images up to 6x6 (some of one intensity, some one pixel
    wide), orders 0-2 and random labelings: every region's SSR matches a
    from-scratch lstsq fit."""
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    unit = st.floats(0.0, 1.0)

    @settings(max_examples=100, deadline=None, database=None)
    @given(width=st.integers(1, 6), height=st.integers(1, 6),
           order=st.integers(0, 2), n_labels=st.integers(1, 3),
           constant=st.booleans(), data=st.data())
    def check(width, height, order, n_labels, constant, data):
        n = width * height
        values = ([data.draw(unit)] * n if constant
                  else data.draw(st.lists(unit, min_size=n, max_size=n)))
        image = Image(width, height, np.reshape(values, (height, width)))
        lab = np.array(data.draw(st.lists(st.integers(1, n_labels),
                                          min_size=n, max_size=n)))
        rl = RegionLikelihood(image, n_labels, poly_cfg(order))
        assert_ssrs_match(rl, image, lab, order)

    check()


def logpost_of(image, lab, n_labels, beta, cfg):
    W = Labeling(lab.reshape(image.height, image.width), n_labels)
    return posterior_logdensity(image, W, beta, cfg)


def assert_delta_matches(delta, before, after):
    assert abs(delta - (after - before)) <= 1e-9 * max(1.0, abs(before)), (
        delta, after - before)


def both_samplers(image, n_labels, beta, cfg):
    aff = edge_affinity(image, p_max=0.8, p_min=0.1, scale=0.3)
    return (SwCutSampler(image, n_labels, beta, cfg, aff),
            GibbsSiteSampler(image, n_labels, beta, cfg))


class TestPolyFitSamplers:
    @pytest.mark.parametrize("width,height,order,n_labels", [
        (8, 8, 0, 3), (8, 8, 1, 2), (9, 7, 2, 3), (6, 1, 1, 2), (1, 6, 2, 2),
        (2, 2, 2, 2),
    ])
    def test_every_delta_matches_recomputed_posterior(self, width, height,
                                                      order, n_labels):
        gen = np.random.default_rng(width * height + order)
        image = Image(width, height, gen.random((height, width)))
        cfg = poly_cfg(order)
        for sampler in both_samplers(image, n_labels, 0.4, cfg):
            rng = RandomStream.from_seed(order + 1)
            lab = initial_labeling(image, n_labels, "random", rng).flat.copy()
            before = logpost_of(image, lab, n_labels, 0.4, cfg)
            for _ in range(150):
                delta = sampler.step(lab, rng)
                after = logpost_of(image, lab, n_labels, 0.4, cfg)
                assert_delta_matches(delta, before, after)
                before = after

    @pytest.mark.parametrize("which", [0, 1], ids=["swcut", "gibbs"])
    def test_long_run_matches_oracle_2x2(self, which):
        img = Image(2, 2, np.array([[0.2, 0.8], [0.3, 0.7]]))
        beta = 0.4
        cfg = RegionModelConfig(mode="poly_fit", sigma=0.3, order=1)
        post = enumerate_posterior(img, 2, beta, cfg)
        sam = both_samplers(img, 2, beta, cfg)[which]
        rng = RandomStream.from_seed(31 + which)
        lab = np.ones(4, dtype=np.int64)
        counts = np.zeros(16)
        powers = np.array([1, 2, 4, 8])
        for _ in range(60_000):
            sam.step(lab, rng)
            counts[int((lab - 1) @ powers)] += 1
        assert tv_distance(counts / counts.sum(), post.probs) < 0.05

    @pytest.mark.parametrize("sampler", ["swcut", "gibbs"])
    def test_delta_sum_does_not_drift(self, sampler):
        img, _ = make_two_region_image(32, 32, noise_sd=0.05, seed=4)
        cfg = poly_cfg(2)
        final, logposts = segment(img, n_labels=2, beta=0.4, region_cfg=cfg,
                                  sampler=sampler, sweeps=10, init="random", seed=6)
        expect = posterior_logdensity(img, final, 0.4, cfg)
        assert abs(logposts[-1] - expect) <= 1e-9 * max(1.0, abs(expect))


@pytest.mark.parametrize("mode", ["fixed_means", "poly_fit"])
def test_label_changes_between_steps_are_picked_up(mode):
    """Labels reassigned by the caller, in place (followed by reset) or as
    a new array, are seen by the next step's delta."""
    img, _ = make_two_region_image(6, 6, noise_sd=0.1, seed=5)
    cfg = RegionModelConfig(mode=mode, sigma=0.1, means=(0.25, 0.75), order=1)
    for sampler in both_samplers(img, 2, 0.4, cfg):
        rng = RandomStream.from_seed(9)
        lab = initial_labeling(img, 2, "random", rng).flat.copy()
        for k in range(40):
            sampler.step(lab, rng)
            if k % 2:
                lab[k % 36] = 3 - lab[k % 36]
                sampler.likelihood.reset(lab)
            else:
                lab = initial_labeling(img, 2, "random", rng).flat.copy()
            before = logpost_of(img, lab, 2, 0.4, cfg)
            delta = sampler.step(lab, rng)
            assert_delta_matches(delta, before, logpost_of(img, lab, 2, 0.4, cfg))


@pytest.mark.parametrize("order", [0, 2])
def test_reset_contract(order):
    """After an in-place edit and reset, and on a new array object with no
    reset, every cluster delta equals the recomputed likelihood change."""
    gen = np.random.default_rng(order)
    image = Image(7, 6, gen.random((6, 7)))
    cfg = poly_cfg(order)
    rl = RegionLikelihood(image, 3, cfg)

    def loglik(lab):
        return region_loglik(image, Labeling(lab.reshape(6, 7), 3), cfg)

    def check(lab):
        l_cur = int(lab[0])
        v0 = np.flatnonzero(lab == l_cur)[:5].tolist()
        deltas = rl.cluster_deltas(lab, v0, l_cur)
        before = loglik(lab)
        for c in range(3):
            moved = lab.copy()
            moved[v0] = c + 1
            assert_delta_matches(deltas[c], before, loglik(moved))

    lab = gen.integers(1, 4, 42)
    check(lab)
    lab[gen.random(42) < 0.4] = 2
    rl.reset(lab)
    check(lab)
    fresh = lab.copy()
    fresh[gen.random(42) < 0.4] = 3
    check(fresh)


@pytest.mark.parametrize("mode", ["fixed_means", "poly_fit"])
def test_reused_samplers_equal_fresh_ones_across_replicates(mode):
    """Samplers reused over two replicate seeds, as swcut_vs_gibbs runs
    them, take the same steps, bit for bit, as fresh ones per seed."""
    img, _ = make_two_region_image(20, 20, noise_sd=0.1, seed=5)
    cfg = RegionModelConfig(mode=mode, sigma=0.1, means=(0.25, 0.75), order=1)

    def run(sampler, seed):
        rng = RandomStream.from_seed(seed)
        lab = initial_labeling(img, 2, "random", rng).flat.copy()
        return [(sampler.step(lab, rng), lab.tobytes()) for _ in range(60)]

    reused = both_samplers(img, 2, 0.4, cfg)
    for seed in (11, 12):
        for sampler, fresh in zip(reused, both_samplers(img, 2, 0.4, cfg)):
            assert run(sampler, seed) == run(fresh, seed)


class TestSegment:
    def test_zero_sweeps_returns_initial(self):
        img, _ = make_two_region_image(6, 6, seed=2)
        cfg = RegionModelConfig(mode="fixed_means", sigma=0.05, means=(0.25, 0.75))
        final, logposts = segment(img, n_labels=2, beta=0.3, region_cfg=cfg,
                                  sweeps=0, init="threshold", seed=5)
        expected = initial_labeling(img, 2, "threshold", RandomStream.from_seed(5))
        assert np.array_equal(final.labels, expected.labels)
        assert len(logposts) == 0

    def test_recovers_ground_truth_strong_contrast(self):
        img, truth = make_two_region_image(12, 12, noise_sd=0.0, seed=3)
        cfg = RegionModelConfig(mode="fixed_means", sigma=0.05, means=(0.25, 0.75))
        for seed in (1, 2, 3):
            final, _ = segment(img, n_labels=2, beta=0.3, region_cfg=cfg,
                               sweeps=2, init="random", seed=seed)
            assert agreement(final, truth) >= 0.99

    def test_seed_determinism(self):
        img, _ = make_two_region_image(8, 8, seed=6)
        cfg = RegionModelConfig(mode="fixed_means", sigma=0.05, means=(0.25, 0.75))
        a, ta = segment(img, n_labels=2, beta=0.3, region_cfg=cfg, sweeps=2, seed=11)
        b, tb = segment(img, n_labels=2, beta=0.3, region_cfg=cfg, sweeps=2, seed=11)
        assert np.array_equal(a.labels, b.labels)
        np.testing.assert_array_equal(ta, tb)

    def test_trace_matches_recomputed_posterior(self):
        img, _ = make_two_region_image(5, 5, seed=8)
        cfg = RegionModelConfig(mode="fixed_means", sigma=0.1, means=(0.25, 0.75))
        final, logposts = segment(img, n_labels=2, beta=0.4, region_cfg=cfg,
                                  sweeps=1, seed=9)
        assert logposts[-1] == pytest.approx(
            posterior_logdensity(img, final, 0.4, cfg), abs=1e-8
        )

    def test_gibbs_sampler_variant(self):
        img, truth = make_two_region_image(8, 8, noise_sd=0.01, seed=10)
        cfg = RegionModelConfig(mode="fixed_means", sigma=0.05, means=(0.25, 0.75))
        final, _ = segment(img, n_labels=2, beta=0.3, region_cfg=cfg,
                           sampler="gibbs", sweeps=5, init="random", seed=4)
        assert agreement(final, truth) >= 0.95


class TestHelpers:
    def test_lattice_edge_count(self):
        ei, ej = lattice_edges(4, 3)
        assert len(ei) == 2 * 12 - 4 - 3

    def test_encode_decode_roundtrip(self):
        for code in range(16):
            W = decode_labeling(code, 2, 2, 2)
            assert encode_labeling(W) == code

    def test_threshold_init_splits_by_intensity(self):
        img, truth = make_two_region_image(8, 8, noise_sd=0.01, seed=1)
        W = initial_labeling(img, 2, "threshold", RandomStream.from_seed(0))
        assert agreement(W, truth) >= 0.95

    @pytest.mark.parametrize("n_labels", [2, 3])
    def test_agreement_equals_the_mean_of_matches(self, n_labels):
        """The counted agreement is the same double as the mean of the
        match mask, over the label swap when there are two labels."""
        gen = np.random.default_rng(n_labels)
        for shape in [(1, 1), (3, 7), (32, 32), (29, 31)]:
            for _ in range(20):
                a, b = (Labeling(gen.integers(1, n_labels + 1, shape), n_labels)
                        for _ in range(2))
                expect = float((a.labels == b.labels).mean())
                if n_labels == 2:
                    expect = max(expect, float((a.labels == 3 - b.labels).mean()))
                assert agreement(a, b) == expect

    def test_labeling_validation(self):
        with pytest.raises(ConfigError):
            Labeling(np.array([[0, 1]]), 2)  # label 0 out of range
        with pytest.raises(ConfigError):
            Labeling(np.array([[1, 3]]), 2)

    def test_image_validation(self):
        with pytest.raises(ConfigError):
            Image(2, 1, np.array([[0.5, 1.5]]))
