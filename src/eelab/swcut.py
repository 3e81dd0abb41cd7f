"""Bayesian image segmentation by Swendsen-Wang cut cluster moves.

The target is the posterior over label fields W combining a Potts prior
(beta * number of agreeing 4-neighbor pairs) with a Gaussian region
likelihood (fixed per-region means, or a fitted low-order polynomial
surface per region). A cluster move bonds same-label neighbor pairs with
data-driven edge probabilities, picks one connected cluster, and
relabels it wholesale from candidate weights

    w(c) ~ prod_{e in Cut(V0,c)} (1 - p_e) * exp(log posterior of W with V0 -> c)

which makes the Metropolis-Hastings acceptance ratio exactly 1 by
construction, so a move is always accepted and never checks its ratio;
criterion 7's long run against the enumerated posterior is what
establishes exactness. A random-scan single-site Gibbs sampler over the
same posterior is the baseline. Both samplers take their likelihood
changes from one RegionLikelihood; region_loglik is the independent
from-scratch recompute they are checked against.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import CapabilityError, ConfigError, ShapeError
from .rng import RandomStream
from .statespace import (DEFAULT_ENUM_CAP, FiniteDistribution, LadderLevel,
                         enumerate_distribution, labeling_code, labeling_model,
                         labelings, lattice_edges, potts_agreements)

logger = logging.getLogger(__name__)

LOG_ROOT_2PI = 0.5 * math.log(2.0 * math.pi)


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Image:
    """Grayscale pixel grid with intensities in [0, 1]."""

    width: int
    height: int
    pixels: np.ndarray

    def __post_init__(self):
        px = np.asarray(self.pixels, dtype=np.float64)
        if self.width < 1 or self.height < 1:
            raise ConfigError("image must have width, height >= 1")
        if px.shape != (self.height, self.width):
            raise ShapeError(
                f"pixel grid {px.shape} does not match {self.height}x{self.width}"
            )
        if np.any(px < 0) or np.any(px > 1) or np.any(~np.isfinite(px)):
            raise ConfigError("intensities must lie in [0, 1]")
        object.__setattr__(self, "pixels", px)

    @property
    def n_pixels(self) -> int:
        return self.width * self.height

    @property
    def flat(self) -> np.ndarray:
        return self.pixels.reshape(-1)


@dataclass(frozen=True)
class Labeling:
    """Per-pixel region labels in {1..n_labels}."""

    labels: np.ndarray
    n_labels: int

    def __post_init__(self):
        lab = np.asarray(self.labels, dtype=np.int64)
        if lab.ndim != 2:
            raise ShapeError("labels must be a 2-D grid")
        if self.n_labels < 1:
            raise ConfigError("n_labels must be >= 1")
        if lab.min() < 1 or lab.max() > self.n_labels:
            raise ConfigError(f"labels must lie in 1..{self.n_labels}")
        object.__setattr__(self, "labels", lab)

    @property
    def flat(self) -> np.ndarray:
        return self.labels.reshape(-1)


@dataclass(frozen=True)
class RegionModelConfig:
    """Gaussian region likelihood settings."""

    mode: str = "fixed_means"
    sigma: float = 0.1
    means: Optional[tuple] = None
    order: int = 0

    def __post_init__(self):
        if self.mode not in ("fixed_means", "poly_fit"):
            raise ConfigError(f"unknown region model mode {self.mode!r}")
        # 1 / (2 sigma^2) and log sigma must be finite and non-zero; no **,
        # which raises OverflowError on a large sigma
        two_var = 2.0 * self.sigma * self.sigma
        if not (self.sigma > 0 and 0.0 < two_var < math.inf
                and 1.0 / two_var < math.inf):
            raise ConfigError(f"sigma must be > 0 with 1/(2 sigma^2) finite and "
                              f"non-zero, got {self.sigma!r}")
        if self.mode == "fixed_means":
            if self.means is None or len(self.means) < 1:
                raise ConfigError("fixed_means mode requires a means list")
            object.__setattr__(self, "means", tuple(float(m) for m in self.means))
        if self.order not in (0, 1, 2):
            raise ConfigError("poly_fit order must be 0, 1 or 2")


def _incidence(width: int, height: int) -> tuple[np.ndarray, np.ndarray]:
    """Each pixel's neighbours and the lattice_edges indices joining them.

    Row i of both (n, 4) arrays lists i's left, right, upper and lower
    neighbour, which is the increasing order of their edge indices; a
    missing neighbour (at the image border) is -1 in both arrays.
    """
    idx = np.arange(width * height).reshape(height, width)
    n_h = height * (width - 1)
    h_edge = np.arange(n_h).reshape(height, width - 1)
    v_edge = n_h + np.arange((height - 1) * width).reshape(height - 1, width)
    nbr = np.full((height, width, 4), -1, dtype=np.int64)
    eid = np.full((height, width, 4), -1, dtype=np.int64)
    nbr[:, 1:, 0], eid[:, 1:, 0] = idx[:, :-1], h_edge
    nbr[:, :-1, 1], eid[:, :-1, 1] = idx[:, 1:], h_edge
    nbr[1:, :, 2], eid[1:, :, 2] = idx[:-1, :], v_edge
    nbr[:-1, :, 3], eid[:-1, :, 3] = idx[1:, :], v_edge
    return nbr.reshape(-1, 4), eid.reshape(-1, 4)


@dataclass(frozen=True)
class EdgeAffinityMap:
    """Per-lattice-edge bond probabilities p_e, strictly inside (0, 1)."""

    width: int
    height: int
    p: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=np.float64)
        n_edges = 2 * self.width * self.height - self.width - self.height
        if p.shape != (n_edges,):
            raise ShapeError(f"expected {n_edges} edge probabilities, got {p.shape}")
        if np.any(p <= 0) or np.any(p >= 1):
            raise ConfigError("edge probabilities must lie strictly inside (0, 1)")
        object.__setattr__(self, "p", p)

    @property
    def log1mp(self) -> np.ndarray:
        # math.log1p per edge: numpy's SIMD loops may differ in the last bit
        return np.fromiter(map(math.log1p, (-self.p).tolist()), float, len(self.p))


def edge_affinity(
    image: Image, p_max: float = 0.9, p_min: float = 0.05, scale: float = 0.1
) -> EdgeAffinityMap:
    """Bond probabilities p_e = clamp(p_max * exp(-|dI|/scale), p_min, p_max)."""
    if not (0.0 < p_min <= p_max < 1.0):
        raise ConfigError("need 0 < p_min <= p_max < 1")
    if scale <= 0:
        raise ConfigError("affinity scale must be > 0")
    ei, ej = lattice_edges(image.width, image.height)
    contrast = np.abs(image.flat[ei] - image.flat[ej])
    # math.exp per edge: numpy's SIMD loops may differ in the last bit
    e = np.fromiter(map(math.exp, (-contrast / scale).tolist()), float, len(contrast))
    p = np.clip(p_max * e, p_min, p_max)
    return EdgeAffinityMap(image.width, image.height, p)


# ---------------------------------------------------------------------------
# Posterior terms
# ---------------------------------------------------------------------------


def potts_logprior(W: Labeling, beta: float) -> float:
    """beta * number of agreeing 4-neighbor pairs (unnormalized log prior)."""
    if beta < 0:
        raise ConfigError("beta must be >= 0")
    return beta * int(potts_agreements(W.labels))


def _poly_design(width: int, height: int, order: int) -> np.ndarray:
    """Monomial columns x^a y^b (a+b <= order) on coords scaled to [-1, 1]."""
    cols = np.arange(width, dtype=np.float64)
    rows = np.arange(height, dtype=np.float64)
    x = 2.0 * cols / (width - 1) - 1.0 if width > 1 else np.zeros(width)
    y = 2.0 * rows / (height - 1) - 1.0 if height > 1 else np.zeros(height)
    X, Y = np.meshgrid(x, y)
    xf, yf = X.reshape(-1), Y.reshape(-1)
    columns = [
        xf ** a * yf ** b
        for total in range(order + 1)
        for a in range(total + 1)
        for b in [total - a]
    ]
    return np.column_stack(columns)


def _region_ssr(values: np.ndarray, design: Optional[np.ndarray]) -> float:
    """Residual sum of squares of the least-squares fit (mean fallback)."""
    if design is None or len(values) < design.shape[1]:
        if design is not None:
            logger.debug(
                "region with %d pixels < %d coefficients; falling back to mean fit",
                len(values), design.shape[1],
            )
        return float(((values - values.mean()) ** 2).sum()) if len(values) else 0.0
    coef, *_ = np.linalg.lstsq(design, values, rcond=None)
    resid = values - design @ coef
    return float((resid ** 2).sum())


def region_loglik(image: Image, W: Labeling, cfg: RegionModelConfig) -> float:
    """Gaussian log-likelihood of the image under the labeling."""
    I = image.flat
    lab = W.flat
    const = math.log(cfg.sigma) + LOG_ROOT_2PI
    if cfg.mode == "fixed_means":
        if len(cfg.means) < W.n_labels:
            raise ConfigError(
                f"fixed_means needs {W.n_labels} means, got {len(cfg.means)}"
            )
        means = np.asarray(cfg.means)
        ssr = float(((I - means[lab - 1]) ** 2).sum())
        return -ssr / (2.0 * cfg.sigma ** 2) - image.n_pixels * const

    design = _poly_design(image.width, image.height, cfg.order)
    total = 0.0
    for l in range(1, W.n_labels + 1):
        idx = np.nonzero(lab == l)[0]
        if len(idx) == 0:
            continue
        total += _region_ssr(I[idx], design[idx])
    return -total / (2.0 * cfg.sigma ** 2) - image.n_pixels * const


def posterior_logdensity(
    image: Image, W: Labeling, beta: float, cfg: RegionModelConfig
) -> float:
    """Unnormalized log posterior: Potts prior plus region likelihood."""
    if W.labels.shape != (image.height, image.width):
        raise ShapeError("labeling shape does not match image")
    return potts_logprior(W, beta) + region_loglik(image, W, cfg)


# ---------------------------------------------------------------------------
# Exact enumeration oracle
# ---------------------------------------------------------------------------


def encode_labeling(W: Labeling) -> int:
    """statespace's labeling code of W (labels shifted to 0)."""
    return labeling_code(W.labels - 1, W.n_labels)


def decode_labeling(code: int, n_labels: int, width: int, height: int) -> Labeling:
    lab = labelings([code], n_labels, width, height)[0]
    return Labeling(1 + lab.astype(np.int64), n_labels)


def enumerate_posterior(
    image: Image,
    n_labels: int,
    beta: float,
    cfg: RegionModelConfig,
    enum_cap: int = DEFAULT_ENUM_CAP,
) -> FiniteDistribution:
    """Exact posterior over all n_labels^(w*h) labelings, indexed by
    encode_labeling's code."""
    def logposts(labs: np.ndarray) -> np.ndarray:
        return np.array([posterior_logdensity(
            image, Labeling(1 + lab.astype(np.int64), n_labels), beta, cfg)
            for lab in labs])
    model = labeling_model("segmentation_posterior", image.width, image.height,
                           n_labels, logposts, enum_cap)
    return enumerate_distribution(model, LadderLevel(0, 1.0, -math.inf))


# ---------------------------------------------------------------------------
# Connected components
# ---------------------------------------------------------------------------


def _roots(n: int, edges: list, label: list, u: list) -> list[int]:
    """Each pixel's root, its component's smallest pixel, where edge
    k = (a, b, p) bonds when u[k] < p and label[a] == label[b]."""
    # union-find with path halving; the larger root always hooks under the
    # smaller, so parent[i] <= i and each root is its component's minimum
    parent = list(range(n))
    for (a, b, p), uk in zip(edges, u):
        if uk < p and label[a] == label[b]:
            while parent[a] != a:
                parent[a] = a = parent[parent[a]]
            while parent[b] != b:
                parent[b] = b = parent[parent[b]]
            if a < b:
                parent[b] = a
            elif b < a:
                parent[a] = b
    # in increasing i, parent[parent[i]] is already i's root
    for i in range(n):
        parent[i] = parent[parent[i]]
    return parent


def _run_roots(start: np.ndarray, bonds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row runs and their components under vertical bonds.

    start (h x w, bool) marks each pixel that begins a row run: all of
    column 0, and every pixel not bonded to its left neighbour. bonds
    ((h - 1) x w, bool) marks the vertical bonds, bonds[r, c] joining
    pixel (r, c) to (r + 1, c). Returns each pixel's run id (the runs
    numbered 0, 1, ... in pixel order) and each run's root, the smallest
    run id of its component, whose first pixel is the component's
    smallest pixel.

    The runs are merged by Shiloach & Vishkin's hook-and-shortcut scheme:
    each round hooks roots across the pairs of runs that vertical bonds
    join, jumps pointers to a fixed point and keeps the pairs whose roots
    still differ. Parent <= run throughout, so each root is its
    component's minimum. At 32x32 numpy's per-call overhead is most of
    the cost, so a round is a handful of whole-array calls over the runs
    (a few hundred), not the pixels."""
    width = start.shape[1]
    run = np.cumsum(start.reshape(-1))
    run -= 1
    # bond (r, c) joins the same two runs as bond (r, c - 1) when that is
    # on and neither of its pixels starts a run, and is dropped; for bools
    # a >= b is a | ~b
    keep = start[:-1] | start[1:]
    np.greater_equal(keep[:, 1:], bonds[:, :-1], out=keep[:, 1:])
    keep &= bonds
    a = keep.reshape(-1).nonzero()[0]
    pairs = run.take((a, a + width))
    root = np.arange(run[-1] + 1)
    while pairs.shape[1]:
        # each pair both ways round: the larger root takes the smallest
        # root it meets, the smaller one keeps itself
        np.minimum.at(root, pairs.ravel(), pairs[::-1].ravel())
        while True:
            up = root.take(root)
            if up.tobytes() == root.tobytes():
                break
            root = up
        pairs = root.take(pairs)
        pairs = pairs.compress(pairs[0] != pairs[1], axis=1)
    return run, root


# ---------------------------------------------------------------------------
# Region likelihood changes
# ---------------------------------------------------------------------------

# LDL' pivot over its column's diagonal at or below which lstsq refits
_RCOND_MIN = 1e-5


class RegionLikelihood:
    """Region log-likelihood changes of relabeling moves (both samplers).

    fixed_means keeps the per-pixel table
    lik[i, c] = -(I_i - mean_c)^2 / (2 sigma^2).

    poly_fit keeps each label's sufficient statistics for the
    least-squares surface fit over its pixels -- the Gram matrix of
    [X, y], which holds the count, X'X, X'y and y'y for the monomial
    design X (p <= 6 columns, the first all ones) -- and its residual sum
    of squares (SSR). A move's candidate statistics cost O(|pixels| p^2)
    and each candidate SSR one LDL' sweep of the Gram matrix in Python
    floats, whose last pivot is the SSR y'y - b'G^-1 b. The SSR follows
    _region_ssr: a region with fewer pixels than coefficients is fit by its
    mean, and one with a pivot not above _RCOND_MIN times its column's
    diagonal (collinear pixels, a zero design column) is refit with lstsq
    on its pixels, which keeps lstsq's min-norm SSR where rank is in doubt.

    The statistics describe one label array, the last one seen. reset(lab)
    rebuilds them from lab; a delta call or region_ssrs on an array object
    other than the last one seen resets by itself, so a fresh array needs
    no call. The array's contents are not compared: a caller that changes
    the tracked array in place by anything but a move it commits must call
    reset before the next delta. commit records a move that the caller has
    written into the array.
    """

    def __init__(self, image: Image, n_labels: int, cfg: RegionModelConfig):
        self.n_labels = n_labels
        self.sigma = cfg.sigma
        if cfg.mode == "fixed_means":
            if len(cfg.means) < n_labels:
                raise ConfigError(
                    f"fixed_means needs {n_labels} means, got {len(cfg.means)}"
                )
            means = np.asarray(cfg.means[:n_labels])
            I = image.flat
            self.lik = -((I[:, None] - means[None, :]) ** 2) / (2.0 * cfg.sigma ** 2)
            self._lik_rows = [tuple(row) for row in self.lik.tolist()]
            return
        self.lik = None
        design = _poly_design(image.width, image.height, cfg.order)
        self._z = np.column_stack([design, image.flat])
        # each pixel's own Gram matrix, for single-site deltas
        self._outer = self._z[:, :, None] * self._z[:, None, :]
        p = design.shape[1]
        self._labels: Optional[np.ndarray] = None
        self._gram = np.zeros((n_labels, p + 1, p + 1))
        self._ssr = [0.0] * n_labels
        self._pending = None
        # _ssrs' plan: each pivot, the rows below it and the columns they update
        self._sweep = [(j, [(i, range(i, p + 1)) for i in range(j + 1, p + 1)])
                       for j in range(p)]

    def cluster_deltas(self, lab: np.ndarray, v0: list[int], l_cur: int) -> list[float]:
        """Log-likelihood change of relabeling the pixels v0 (all labeled
        l_cur) to each label 1..L; the entry of l_cur is 0."""
        if self.lik is None:
            v0 = np.asarray(v0)
            z = self._z[v0]
            return self._poly_deltas(lab, v0, l_cur, z.T @ z)
        L = self.n_labels
        if len(v0) <= 32:
            rows = self._lik_rows
            lik_sums = [0.0] * L
            for v in v0:
                row = rows[v]
                for c in range(L):
                    lik_sums[c] += row[c]
        else:
            lik_sums = self.lik[v0].sum(axis=0).tolist()
        base = lik_sums[l_cur - 1]
        return [s - base for s in lik_sums]

    def site_terms(self, lab: np.ndarray, i: int) -> list[float]:
        """Per-label log-likelihood of pixel i's label, up to a constant
        shared by all labels."""
        if self.lik is not None:
            return self._lik_rows[i]
        return self._poly_deltas(lab, i, int(lab[i]), self._outer[i])

    def commit(self, l_new: int) -> None:
        """Record that the pixels of the last delta call now carry l_new,
        as the caller has written them into the tracked array."""
        if self.lik is None and self._pending[0] != l_new - 1:
            k, gram, ssr = self._pending
            for c in (k, l_new - 1):
                self._gram[c] = gram[c]
                self._ssr[c] = ssr[c]

    def reset(self, lab: np.ndarray) -> None:
        """Rebuild the statistics from lab, the array later calls track."""
        if self.lik is not None:
            return
        self._labels = lab
        for c in range(self.n_labels):
            z = self._z[lab == c + 1]
            self._gram[c] = z.T @ z
        self._ssr = self._ssrs(self._gram)

    # -- poly_fit ------------------------------------------------------------

    def region_ssrs(self, lab: np.ndarray) -> np.ndarray:
        """Residual sum of squares of each label's region under lab."""
        if lab is not self._labels:
            self.reset(lab)
        return np.array(self._ssr)

    def _poly_deltas(self, lab: np.ndarray, pixels, l_cur: int,
                     outer: np.ndarray) -> list[float]:
        """Log-likelihood changes of moving pixels, whose Gram matrix
        is outer, from label l_cur to each label."""
        if lab is not self._labels:
            self.reset(lab)
        # the moved pixels leave label k + 1 and join every other label
        k = l_cur - 1
        cand = self._gram + outer
        np.subtract(self._gram[k], outer, out=cand[k])
        ssr = self._ssrs(cand, pixels, k)
        self._pending = (k, cand, ssr)
        old, two_var = self._ssr, 2.0 * self.sigma ** 2
        return [0.0 if c == k else -((ssr[k] + s) - (old[k] + o)) / two_var
                for c, (s, o) in enumerate(zip(ssr, old))]

    def _ssrs(self, gram: np.ndarray, pixels=None, k: int = -1) -> list[float]:
        """SSR of each label's region from its Gram matrix: label c's
        pixels, plus `pixels` moved there from label k + 1 when given (for
        c == k, label k + 1 without them). Pivot j of the in-place LDL' leaves
        the Schur complement of columns 0..j in the upper rows below it."""
        p = gram.shape[1] - 1
        out = []
        for c, g in enumerate(gram.tolist()):
            n, diag = g[0][0], [g[j][j] for j in range(p)]
            if n < p:  # mean fallback, as in _region_ssr
                out.append(g[p][p] - g[0][p] ** 2 / n if n else 0.0)
                continue
            for j, rows in self._sweep:
                gj, d = g[j], g[j][j]
                if not d > _RCOND_MIN * diag[j]:  # NaN too
                    members = self._labels == c + 1
                    if pixels is not None:
                        members[pixels] = c != k
                    z = self._z[members]
                    out.append(_region_ssr(z[:, p], z[:, :p]))
                    break
                for i, cols in rows:
                    f, gi = gj[i] / d, g[i]
                    for m in cols:
                        gi[m] -= f * gj[m]
            else:
                out.append(g[p][p])
        return out


# ---------------------------------------------------------------------------
# Samplers
# ---------------------------------------------------------------------------


def _label_weights(logw: list[float]) -> tuple[list[float], float]:
    """exp(logw - max logw) per label, and their correctly rounded sum.

    math.exp per label: numpy's SIMD exp may differ in the last bit."""
    top = max(logw)
    w = [math.exp(v - top) for v in logw]
    return w, math.fsum(w)


def _draw_label(logw: list[float], rng: RandomStream) -> int:
    """A label 1..L with probability proportional to exp(logw[label - 1]),
    from one uniform and a left-to-right cumulative compare."""
    w, total = _label_weights(logw)
    u = rng.uniform() * total
    acc = 0.0
    for c, wc in enumerate(w):
        acc += wc
        if u < acc:
            return c + 1
    return len(w)


# Lattices of at most this many pixels group with _roots, where numpy's
# per-call overhead costs more than the array passes save. Timed per move
# on 2 vCPUs (median vector/scalar ratio of interleaved rounds, threshold
# and random init): fixed means 1.56 at 8x8, 1.14 at 10x10, 0.96-1.02 at
# 11x11, 0.88 at 12x12; poly_fit order 1 1.48, 1.17-1.20, 1.07-1.08 and
# 0.88-0.96. So the paths break even near 11x11, which stays scalar.
_SCALAR_MAX_PIXELS = 121

# Largest state space of GibbsSiteSampler.exact_matrix (128 MB of matrix)
_EXACT_MAX_STATES = 4096


class SwCutSampler:
    """Reusable Swendsen-Wang cut stepper with precomputed tables.

    cluster_pick is "uniform" (uniform over the cluster list) or "pixel"
    (the cluster containing a uniformly chosen pixel); both leave the
    stationary law unchanged.

    A move draws a bond for every same-label lattice edge and groups the
    whole field, because the uniform pick needs the number of clusters.
    Above _SCALAR_MAX_PIXELS pixels the grouping works in run space: the
    move compares 2-D views of the labels and of the bond uniforms against
    p into buffers made here, marking where row runs start and which
    vertical bonds are on; _run_roots numbers the runs and merges them by
    hook-and-jump rounds over the pairs of runs those bonds join. The
    cluster is picked among the root runs (a few hundred at 32x32, against
    1024 pixels), only its runs are mapped back to pixels, and its cut
    sums are one bincount when it has more than 32 pixels. Smaller
    lattices group straight to roots with _roots and collect only the
    picked cluster. Both paths give the same cluster, member order and
    float sums, so every draw and result is identical.
    """

    def __init__(
        self,
        image: Image,
        n_labels: int,
        beta: float,
        region_cfg: RegionModelConfig,
        aff: EdgeAffinityMap,
        cluster_pick: str = "uniform",
    ):
        if beta < 0:
            raise ConfigError("beta must be >= 0")
        if cluster_pick not in ("uniform", "pixel"):
            raise ConfigError(f"unknown cluster_pick {cluster_pick!r}")
        if (aff.width, aff.height) != (image.width, image.height):
            raise ShapeError("affinity map shape does not match image")
        self.image = image
        self.n_labels = n_labels
        self.beta = beta
        self.cluster_pick = cluster_pick

        self.n = image.n_pixels
        self.ei, self.ej = lattice_edges(image.width, image.height)
        self.p = aff.p
        self.log1mp = aff.log1mp
        self._log1mp_list = self.log1mp.tolist()
        # edges incident to each pixel, with the opposite endpoint
        self._nbr, self._eid = _incidence(image.width, image.height)
        self.incident = [
            tuple((k, b) for k, b in zip(ks, bs) if k >= 0)
            for ks, bs in zip(self._eid.tolist(), self._nbr.tolist())
        ]
        self._in_v0 = [False] * self.n
        # the function, not a bound method, which would make the sampler a
        # reference cycle that only the cyclic collector frees (+5.7 MB RSS)
        if self.n <= _SCALAR_MAX_PIXELS:
            self._pick = SwCutSampler._pick_scalar
            self._edges = list(zip(self.ei.tolist(), self.ej.tolist(), self.p.tolist()))
        else:
            self._pick = SwCutSampler._pick_vector
        self._pixels = np.arange(self.n)
        # the vector path's buffers, and p's horizontal and vertical edges
        # as 2-D views (a row-major edge k maps onto them as lattice_edges
        # numbers it)
        w, h = image.width, image.height
        self._n_h = n_h = h * (w - 1)
        self._p_h = self.p[:n_h].reshape(h, w - 1)
        self._p_v = self.p[n_h:].reshape(h - 1, w)
        self._start = np.ones((h, w), dtype=bool)
        self._off_h = np.empty((h, w - 1), dtype=bool)
        self._bonds = np.empty((h - 1, w), dtype=bool)
        self._on_v = np.empty((h - 1, w), dtype=bool)
        self.likelihood = RegionLikelihood(image, n_labels, region_cfg)

    # -- one cluster move ----------------------------------------------------

    def step(self, labels: np.ndarray, rng: RandomStream) -> float:
        """One cluster move, mutating the flat label array in place.

        Returns the log posterior change. The new label is drawn from
        the candidate weights and always accepted.
        """
        u = rng.uniforms(len(self.ei))
        v0, cut_log, cut_count = self._pick(self, labels, u, rng)

        l_cur = int(labels[v0[0]])

        # candidate log weights: cut product * posterior, relative to current
        dliks = self.likelihood.cluster_deltas(labels, v0, l_cur)
        beta = self.beta
        cc_cur = cut_count[l_cur]
        logw = [
            cut_log[c + 1] + dliks[c] + beta * (cut_count[c + 1] - cc_cur)
            for c in range(self.n_labels)
        ]

        l_new = _draw_label(logw, rng)

        # the MH ratio (cut products * proposal ratio * posterior ratio) is
        # exactly 1 by the weight design, so the move is always accepted
        dpost = logw[l_new - 1] - cut_log[l_new]

        if l_new != l_cur:
            labels[np.asarray(v0)] = l_new
            self.likelihood.commit(l_new)
        return float(dpost)

    def _pick_scalar(self, lab: np.ndarray, u: np.ndarray, rng: RandomStream):
        """The picked cluster and its cut sums, grouped by _roots."""
        root = _roots(self.n, self._edges, lab.tolist(), u.tolist())
        if self.cluster_pick == "uniform":
            roots = [i for i, r in enumerate(root) if i == r]
            picked = roots[rng.randint(len(roots))]
        else:
            picked = root[rng.randint(self.n)]
        v0 = [i for i, r in enumerate(root) if r == picked]
        return (v0, *self._cut_sums(lab, v0))

    def _pick_vector(self, lab: np.ndarray, u: np.ndarray, rng: RandomStream):
        """The picked cluster and its cut sums, under the bonds the edge
        uniforms u draw (edge k is on when its pixels agree and
        u[k] < p[k]), grouped in run space."""
        h, w, n_h = self.image.height, self.image.width, self._n_h
        lab2 = lab.reshape(h, w)
        start, bonds = self._start, self._bonds
        # a pixel starts a row run unless it bonds to its left neighbour;
        # column 0 stays True from __init__
        np.not_equal(lab2[:, 1:], lab2[:, :-1], out=start[:, 1:])
        np.greater_equal(u[:n_h].reshape(h, w - 1), self._p_h, out=self._off_h)
        np.logical_or(start[:, 1:], self._off_h, out=start[:, 1:])
        np.equal(lab2[1:], lab2[:-1], out=bonds)
        np.less(u[n_h:].reshape(h - 1, w), self._p_v, out=self._on_v)
        bonds &= self._on_v
        run, root = _run_roots(start, bonds)
        # pick a root run; only the picked cluster is mapped to pixels
        if self.cluster_pick == "uniform":
            roots = (root == self._pixels[:len(root)]).nonzero()[0]
            picked = roots[rng.randint(len(roots))]
        else:
            picked = root[run[rng.randint(self.n)]]
        in_v0 = (root == picked).take(run)
        v0 = in_v0.nonzero()[0]
        if len(v0) <= 32:
            v0 = v0.tolist()
            return (v0, *self._cut_sums(lab, v0))
        # the loop's edge order (v0 ascending, then incidence order), so
        # bincount adds the same floats in the same sequence
        nbr, eid = self._nbr[v0], self._eid[v0]
        cut = (eid >= 0) & ~in_v0[nbr]
        c = lab[nbr[cut]]
        L1 = self.n_labels + 1
        cut_log = np.bincount(c, weights=self.log1mp[eid[cut]], minlength=L1)
        return v0, cut_log.tolist(), np.bincount(c, minlength=L1).tolist()

    def _cut_sums(self, lab: np.ndarray, v0: list[int]):
        """Per label c, the summed log(1 - p_e) and the count of the edges
        joining the cluster v0 to pixels labeled c outside it."""
        L = self.n_labels
        in_v0 = self._in_v0
        for v in v0:
            in_v0[v] = True
        cut_log = [0.0] * (L + 1)
        cut_count = [0] * (L + 1)
        label = lab.item
        log1mp = self._log1mp_list
        for v in v0:
            for k, other in self.incident[v]:
                if not in_v0[other]:
                    c = label(other)
                    cut_log[c] += log1mp[k]
                    cut_count[c] += 1
        for v in v0:
            in_v0[v] = False
        return cut_log, cut_count


class GibbsSiteSampler:
    """Random-scan single-site Gibbs over the same posterior; with equal
    means (a flat likelihood) it is potts_grid's random-scan Gibbs kernel."""

    def __init__(
        self,
        image: Image,
        n_labels: int,
        beta: float,
        region_cfg: RegionModelConfig,
    ):
        if beta < 0:
            raise ConfigError("beta must be >= 0")
        self.image = image
        self.n_labels = n_labels
        self.beta = beta
        self.n = image.n_pixels
        nbr, _ = _incidence(image.width, image.height)
        self.nbrs = [tuple(b for b in row if b >= 0) for row in nbr.tolist()]
        self.likelihood = RegionLikelihood(image, n_labels, region_cfg)

    def _site_logweights(self, lab: np.ndarray, i: int) -> list[float]:
        logw = [0.0] * self.n_labels
        for nb in self.nbrs[i]:
            logw[lab[nb] - 1] += self.beta
        return [a + b for a, b in zip(logw, self.likelihood.site_terms(lab, i))]

    def step(self, labels: np.ndarray, rng: RandomStream) -> float:
        """Resample one uniformly chosen pixel from its full conditional."""
        i = rng.randint(self.n)
        logw = self._site_logweights(labels, i)
        l_new = _draw_label(logw, rng)
        dpost = logw[l_new - 1] - logw[labels[i] - 1]
        labels[i] = l_new
        self.likelihood.commit(l_new)
        return dpost

    def exact_matrix(self) -> np.ndarray:
        """Transition matrix of one step over all L^n labelings, indexed
        by encode_labeling's code; at most _EXACT_MAX_STATES of them."""
        L, n = self.n_labels, self.n
        size = L ** n
        if size > _EXACT_MAX_STATES:
            raise CapabilityError(f"{size} labelings exceed the cap {_EXACT_MAX_STATES}")
        K = np.zeros((size, size))
        labs = labelings(np.arange(size), L, self.image.width, self.image.height)
        for x, lab in enumerate(1 + labs.reshape(size, n).astype(np.int64)):
            for i in range(n):
                w, total = _label_weights(self._site_logweights(lab, i))
                for c in range(L):
                    K[x, x + (c + 1 - int(lab[i])) * L ** i] += w[c] / total / n
        return K


# ---------------------------------------------------------------------------
# Segmentation driver
# ---------------------------------------------------------------------------


def initial_labeling(
    image: Image, n_labels: int, mode: str, rng: RandomStream
) -> Labeling:
    """Quantile-threshold bins of intensity, or uniform random labels."""
    if mode == "threshold":
        I = image.flat
        qs = np.quantile(I, [k / n_labels for k in range(1, n_labels)])
        lab = 1 + np.searchsorted(qs, I, side="right")
    elif mode == "random":
        lab = 1 + np.array([rng.randint(n_labels) for _ in range(image.n_pixels)])
    else:
        raise ConfigError(f"unknown init mode {mode!r}")
    return Labeling(lab.reshape(image.height, image.width).astype(np.int64), n_labels)


def segment(
    image: Image,
    *,
    n_labels: int,
    beta: float,
    region_cfg: RegionModelConfig,
    affinity: Optional[EdgeAffinityMap] = None,
    sampler: str = "swcut",
    sweeps: int = 1,
    init: str = "threshold",
    cluster_pick: str = "uniform",
    seed: int = 0,
) -> tuple[Labeling, np.ndarray]:
    """Run a sampler for sweeps * width * height steps; return the final
    labeling and the log posterior after each step.

    One step is a single cluster move (swcut) or a single site update
    (gibbs), so sweep counts are comparable across samplers.
    """
    if sweeps < 0:
        raise ConfigError("sweeps must be >= 0")
    rng = RandomStream.from_seed(seed)
    W = initial_labeling(image, n_labels, init, rng)

    if sampler == "swcut":
        aff = affinity if affinity is not None else edge_affinity(image)
        stepper = SwCutSampler(image, n_labels, beta, region_cfg, aff, cluster_pick)
    elif sampler == "gibbs":
        stepper = GibbsSiteSampler(image, n_labels, beta, region_cfg)
    else:
        raise ConfigError(f"unknown sampler {sampler!r}")

    lab = W.flat.copy()
    n_steps = sweeps * image.n_pixels
    logpost = posterior_logdensity(image, W, beta, region_cfg)
    logposts = np.empty(n_steps)
    for t in range(n_steps):
        logpost += stepper.step(lab, rng)
        logposts[t] = logpost
    return Labeling(lab.reshape(image.height, image.width), n_labels), logposts


def make_two_region_image(
    width: int,
    height: int,
    means: tuple[float, float] = (0.25, 0.75),
    noise_sd: float = 0.05,
    seed: int = 0,
    layout: str = "halves",
) -> tuple[Image, Labeling]:
    """Synthetic two-region test image plus its ground-truth labeling."""
    if layout == "halves":
        truth = np.ones((height, width), dtype=np.int64)
        truth[:, width // 2:] = 2
    elif layout == "disk":
        yy, xx = np.mgrid[0:height, 0:width]
        r = min(width, height) / 3.0
        truth = np.where(
            (xx - width / 2.0) ** 2 + (yy - height / 2.0) ** 2 <= r * r, 2, 1
        ).astype(np.int64)
    else:
        raise ConfigError(f"unknown layout {layout!r}")
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    base = np.asarray(means)[truth - 1]
    pixels = np.clip(base + gen.normal(0.0, noise_sd, size=truth.shape), 0.0, 1.0)
    return Image(width, height, pixels), Labeling(truth, 2)


def agreement(a: Labeling, b: Labeling) -> float:
    """Fraction of pixels with equal labels, maximized over label swaps
    (two-label case) or taken directly for L > 2."""
    if a.labels.shape != b.labels.shape:
        raise ShapeError("labelings differ in shape")
    size = a.labels.size
    same = np.count_nonzero(a.labels == b.labels)
    if a.n_labels == 2 and b.n_labels == 2:
        # labels in {1, 2} agree after the swap exactly where they differ
        return max(same, size - same) / size
    return same / size
