"""Exact eigenanalysis of reversible kernels and convergence diagnostics.

A reversible kernel K with stationary pi is similar to the symmetric
matrix S = D^(1/2) K D^(-1/2), D = diag(pi), so its spectrum is real and
obtained from a dense symmetric eigensolver. The independence-sampler
report computes the second eigenvalue together with both candidate
closed forms, 1 - min pi/q and 1 - min q/pi, and records which (if
either) matches; it never asserts one of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import CapabilityError, ConfigError, ReversibilityError, ShapeError, SupportError
from .kernels import IndependenceKernel, check_transition_matrix
from .statespace import FiniteDistribution

REVERSIBILITY_TOL = 1e-10
EIGEN_RANGE_TOL = 1e-10
BOUND_MATCH_TOL = 1e-9
SPECTRAL_CAP = 4096


@dataclass
class SpectralReport:
    """Eigenvalues plus the two candidate gap bounds for MIS kernels."""

    eigenvalues: np.ndarray
    lambda2: float
    gap: float
    ratio_min_pi_over_q: Optional[float] = None
    ratio_max_pi_over_q: Optional[float] = None
    bound_printed: Optional[float] = None
    bound_alternate: Optional[float] = None
    matched_bound: Optional[str] = None

    def to_dict(self) -> dict:
        return {
            "eigenvalues": [float(v) for v in self.eigenvalues],
            "lambda2": self.lambda2,
            "gap": self.gap,
            "ratio_min_pi_over_q": self.ratio_min_pi_over_q,
            "ratio_max_pi_over_q": self.ratio_max_pi_over_q,
            "bound_printed": self.bound_printed,
            "bound_alternate": self.bound_alternate,
            "matched_bound": self.matched_bound,
        }


def eigen_spectrum(
    K: np.ndarray,
    pi: FiniteDistribution | np.ndarray,
) -> SpectralReport:
    """All eigenvalues of a reversible kernel, sorted descending.

    Rejects non-reversible input (reporting the worst violating pair)
    rather than falling back to a complex eigensolver. Every check is
    written so that a NaN fails it.
    """
    p = pi.probs if isinstance(pi, FiniteDistribution) else np.asarray(pi, float)
    K = np.asarray(K, dtype=np.float64)
    check_transition_matrix(K, tol=1e-9)
    n = K.shape[0]
    if n > SPECTRAL_CAP:
        raise CapabilityError(f"dense eigensolver capped at {SPECTRAL_CAP} states")
    if len(p) != n:
        raise ShapeError("pi length does not match kernel size")
    if not np.all(p > 0):
        raise ConfigError("eigen_spectrum requires strictly positive pi")

    # two n x n work arrays: F's buffer is reused for S, viol's for the
    # symmetrised S; the arithmetic and its order are those of the plain
    # expressions np.abs(F - F.T), s K / s and 0.5 (S + S.T)
    F = p[:, None] * K
    viol = F - F.T
    np.abs(viol, out=viol)
    err = viol.max()
    if not err <= REVERSIBILITY_TOL:
        x, y = np.unravel_index(int(viol.argmax()), viol.shape)
        raise ReversibilityError(
            f"kernel is not reversible: |pi(x)K(x,y) - pi(y)K(y,x)| = {err:.3e} "
            f"at pair ({x}, {y})"
        )

    s = np.sqrt(p)
    S = np.multiply(s[:, None], K, out=F)
    S /= s[None, :]
    sym = np.add(S, S.T, out=viol)
    sym *= 0.5
    del F, S
    vals = np.linalg.eigvalsh(sym)[::-1]

    if not abs(vals[0] - 1.0) <= EIGEN_RANGE_TOL:
        raise ReversibilityError(f"top eigenvalue {vals[0]!r} is not 1")
    if not (vals[-1] >= -1.0 - EIGEN_RANGE_TOL and vals[0] <= 1.0 + EIGEN_RANGE_TOL):
        raise ReversibilityError("eigenvalues fall outside [-1, 1]")

    lam2 = float(vals[1]) if n > 1 else float(vals[0])
    return SpectralReport(
        eigenvalues=vals,
        lambda2=lam2,
        gap=1.0 - lam2,
    )


def ratio_extremes(
    pi: FiniteDistribution, q: FiniteDistribution
) -> tuple[float, float]:
    """(min, max) of pi(x)/q(x) over the shared state order."""
    if len(pi) != len(q) or np.any(pi.states != q.states):
        raise ShapeError("pi and q must share the same state order")
    if np.any(q.probs <= 0):
        raise SupportError("ratio extremes need a full-support proposal")
    r = pi.probs / q.probs
    return float(r.min()), float(r.max())


def mis_gap_report(pi: FiniteDistribution, q: FiniteDistribution) -> SpectralReport:
    """Exact MIS spectrum plus both closed-form gap candidates.

    bound_printed is 1 - min pi/q (the form printed in the source
    discussion); bound_alternate is 1 - min q/pi. matched_bound records
    which of the two equals lambda2 within 1e-9: "printed", "alternate",
    "both", or "neither".
    """
    return with_mis_bounds(
        eigen_spectrum(IndependenceKernel(pi, q).exact_matrix(), pi), pi, q)


def with_mis_bounds(report: SpectralReport, pi: FiniteDistribution,
                    q: FiniteDistribution) -> SpectralReport:
    """Fill in the ratio extremes and both closed-form gap candidates of
    mis_gap_report on the spectral report of the MIS kernel of (pi, q)."""
    rmin, rmax = ratio_extremes(pi, q)
    report.ratio_min_pi_over_q = rmin
    report.ratio_max_pi_over_q = rmax
    report.bound_printed = 1.0 - rmin
    qmin = float((q.probs / pi.probs).min())
    report.bound_alternate = 1.0 - qmin

    hit_printed = abs(report.lambda2 - report.bound_printed) <= BOUND_MATCH_TOL
    hit_alternate = abs(report.lambda2 - report.bound_alternate) <= BOUND_MATCH_TOL
    if hit_printed and hit_alternate:
        report.matched_bound = "both"
    elif hit_printed:
        report.matched_bound = "printed"
    elif hit_alternate:
        report.matched_bound = "alternate"
    else:
        report.matched_bound = "neither"
    return report


@dataclass(frozen=True)
class Partition:
    """Surjection from fine state indices onto coarse cells 0..M-1."""

    map: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.map, dtype=np.int64)
        if m.ndim != 1 or len(m) == 0:
            raise ShapeError("partition map must be a non-empty 1-D array")
        n_cells = int(m.max()) + 1
        if m.min() < 0 or len(np.unique(m)) != n_cells:
            raise ConfigError("partition must map onto 0..M-1 with no empty cell")
        object.__setattr__(self, "map", m)

    @property
    def n_cells(self) -> int:
        return int(self.map.max()) + 1


def coarsen(dist: FiniteDistribution, part: Partition) -> FiniteDistribution:
    """Coarse cell probability = sum of its fine members' probabilities."""
    if len(part.map) != len(dist):
        raise ShapeError("partition does not cover the distribution's states")
    coarse = np.bincount(part.map, weights=dist.probs, minlength=part.n_cells)
    return FiniteDistribution(np.arange(part.n_cells), coarse / coarse.sum())


def tv_distance(p: FiniteDistribution | np.ndarray, q: FiniteDistribution | np.ndarray) -> float:
    """Total variation distance, 0.5 * sum |p_i - q_i|."""
    pv = p.probs if isinstance(p, FiniteDistribution) else np.asarray(p, float)
    qv = q.probs if isinstance(q, FiniteDistribution) else np.asarray(q, float)
    if pv.shape != qv.shape:
        raise ShapeError(f"length mismatch: {pv.shape} vs {qv.shape}")
    if isinstance(p, FiniteDistribution) and isinstance(q, FiniteDistribution):
        if np.any(p.states != q.states):
            raise ShapeError("distributions use different state orderings")
    return float(0.5 * np.abs(pv - qv).sum())
