"""Exact eigenanalysis of reversible kernels and convergence diagnostics.

A reversible kernel K with stationary pi is similar to the symmetric
matrix S = D^(1/2) K D^(-1/2), D = diag(pi), so its spectrum is real and
obtained from a dense symmetric eigensolver. The independence-sampler
(MIS) spectrum also has Liu's closed form (mis_eigenvalues): mis_spectrum
takes it in place of the dense solve, after the kernel has passed every
check eigen_spectrum makes, and checks it against the kernel's first two
spectral moments; mis_gap_report keeps the dense solve as the reference.
The checks, the symmetrisation and the MIS moments work on strips of
BLOCK_ROWS rows. eigen_spectrum symmetrises one copy of its input in
place, so it holds one n x n work array (LAPACK makes its own copy), and
mis_spectrum holds none; the spectral experiments symmetrise the
matrices they build with no copy at all. Either report records which
of the candidate gap forms 1 - min pi/q and 1 - min q/pi (if either)
matches its second eigenvalue; it never asserts one of them.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .errors import (CapabilityError, ConfigError, NumericError, ReversibilityError,
                     ShapeError, SupportError)
from .kernels import (IndependenceKernel, check_transition_matrix,
                      reversibility_violation, row_blocks)
from .statespace import FiniteDistribution

REVERSIBILITY_TOL = 1e-10
EIGEN_RANGE_TOL = 1e-10
BOUND_MATCH_TOL = 1e-9
SPECTRAL_CAP = 4096
# mis_spectrum's moment gaps grow with n: the largest measured up to
# SPECTRAL_CAP states was 3.2e-11 (4096-point double wells of depth 1-10
# and 40, random pairs), 3.3e-13 at 1001 states
MIS_MOMENT_TOL = 1e-8


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
        return {**asdict(self), "eigenvalues": self.eigenvalues.tolist()}


def _checked_law(K: np.ndarray, pi: FiniteDistribution | np.ndarray) -> np.ndarray:
    """The checks eigen_spectrum makes of a kernel and its law: K is
    row-stochastic, at most SPECTRAL_CAP states, pi strictly positive and
    K reversible with respect to it (the worst violating pair is
    reported). Returns pi's probabilities and leaves K unchanged. Every
    check is written so that a NaN fails it.
    """
    p = pi.probs if isinstance(pi, FiniteDistribution) else np.asarray(pi, float)
    check_transition_matrix(K, tol=1e-9)
    n = K.shape[0]
    if n > SPECTRAL_CAP:
        raise CapabilityError(f"dense eigensolver capped at {SPECTRAL_CAP} states")
    if len(p) != n:
        raise ShapeError("pi length does not match kernel size")
    if not np.all(p > 0):
        raise ConfigError("eigen_spectrum requires strictly positive pi")

    err, (x, y) = reversibility_violation(K, p)
    if not err <= REVERSIBILITY_TOL:
        raise ReversibilityError(
            f"kernel is not reversible: |pi(x)K(x,y) - pi(y)K(y,x)| = {err:.3e} "
            f"at pair ({x}, {y})"
        )
    return p


def _symmetrise(K: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Overwrite K by S = D^(1/2) K D^(-1/2), symmetrised as 0.5 (S + S^T).

    The symmetric part is formed one strip of rows at a time from the
    strip's diagonal block rightwards, and mirrored below the diagonal;
    the arithmetic and its order are those of the plain expressions
    s K / s and 0.5 (S + S^T), so the bits are too.
    """
    s = np.sqrt(p)
    K *= s[:, None]
    K /= s[None, :]
    n = K.shape[0]
    for rows in row_blocks(n):
        right = slice(rows.start, n)
        sym = K[rows, right] + K[right, rows].T
        sym *= 0.5
        K[rows, right] = sym
        K[right, rows] = sym.T
    return K


def _owned_spectrum(K: np.ndarray, pi: FiniteDistribution | np.ndarray) -> SpectralReport:
    """eigen_spectrum of a float64 matrix that the caller owns and gives
    up: K is checked, then overwritten by its symmetrised form."""
    p = _checked_law(K, pi)
    return _checked_report(np.linalg.eigvalsh(_symmetrise(K, p))[::-1])


def _checked_report(vals: np.ndarray) -> SpectralReport:
    """The report of a descending spectrum of at least two eigenvalues
    whose top eigenvalue is 1 and whose eigenvalues all lie in [-1, 1] (a
    NaN fails either check)."""
    if len(vals) < 2:
        raise ShapeError("a one-state kernel has no second eigenvalue")
    if not abs(vals[0] - 1.0) <= EIGEN_RANGE_TOL:
        raise ReversibilityError(f"top eigenvalue {vals[0]!r} is not 1")
    if not (vals[-1] >= -1.0 - EIGEN_RANGE_TOL and vals[0] <= 1.0 + EIGEN_RANGE_TOL):
        raise ReversibilityError("eigenvalues fall outside [-1, 1]")
    lam2 = float(vals[1])
    return SpectralReport(eigenvalues=vals, lambda2=lam2, gap=1.0 - lam2)


def eigen_spectrum(
    K: np.ndarray,
    pi: FiniteDistribution | np.ndarray,
) -> SpectralReport:
    """All eigenvalues of a reversible kernel, sorted descending.

    Rejects non-reversible input (reporting the worst violating pair)
    rather than falling back to a complex eigensolver. Every check is
    written so that a NaN fails it.
    """
    return _owned_spectrum(np.array(K, dtype=np.float64), pi)


def mis_eigenvalues(pi: FiniteDistribution, q: FiniteDistribution) -> np.ndarray:
    """Liu's closed-form spectrum of the MIS kernel of (pi, q), descending.

    With the states sorted so that w = pi/q is non-increasing, the
    eigenvalues are 1 and lambda_k = sum_{i >= k} (q_i - pi_i / w_k) for
    k = 1..n-1 (Liu 1996). Here r = q/pi = 1/w is sorted ascending and
    lambda_k = (tail sum of q) - (tail sum of pi) * r_k.
    """
    r = q.probs / pi.probs
    order = np.argsort(r, kind="stable")
    r, p, qs = r[order], pi.probs[order], q.probs[order]
    tail_q = np.cumsum(qs[::-1])[::-1]
    tail_p = np.cumsum(p[::-1])[::-1]
    lam = tail_q[:-1] - tail_p[:-1] * r[:-1]
    return np.concatenate(([1.0], np.sort(lam)[::-1]))


def mis_spectrum(K: np.ndarray, pi: FiniteDistribution,
                 q: FiniteDistribution) -> SpectralReport:
    """eigen_spectrum of the MIS kernel K of (pi, q), its eigenvalues
    taken from mis_eigenvalues instead of a dense solve.

    K passes every check eigen_spectrum makes, and the closed form is
    checked against K, with which it shares no code: its sum must equal
    tr K and its sum of squares tr K^2, each within MIS_MOMENT_TOL, or
    NumericError is raised. K is similar to the symmetrised S, so these
    are tr S and ||S||_F^2; tr K^2 = sum_xy K(x,y) K(y,x) is summed by
    row strips, and K is left unchanged.
    """
    K = np.asarray(K, dtype=np.float64)
    _checked_law(K, pi)
    vals = mis_eigenvalues(pi, q)
    sumsq = sum(np.vdot(K[rows], K[:, rows].T) for rows in row_blocks(K.shape[0]))
    for moment, got, want in (("sum", vals.sum(), np.trace(K)),
                              ("sum of squares", vals @ vals, sumsq)):
        if not abs(got - want) <= MIS_MOMENT_TOL:
            raise NumericError(
                f"closed-form MIS spectrum disagrees with the kernel: eigenvalue "
                f"{moment} {got!r} vs {want!r} from the matrix")
    return _checked_report(vals)


def ratio_extremes(
    pi: FiniteDistribution, q: FiniteDistribution
) -> tuple[float, float]:
    """(min, max) of pi(x)/q(x) over the states."""
    if len(pi) != len(q):
        raise ShapeError("pi and q differ in length")
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
    return FiniteDistribution(coarse / coarse.sum())


def tv_distance(p: FiniteDistribution | np.ndarray, q: FiniteDistribution | np.ndarray) -> float:
    """Total variation distance, 0.5 * sum |p_i - q_i|."""
    pv = p.probs if isinstance(p, FiniteDistribution) else np.asarray(p, float)
    qv = q.probs if isinstance(q, FiniteDistribution) else np.asarray(q, float)
    if pv.shape != qv.shape:
        raise ShapeError(f"length mismatch: {pv.shape} vs {qv.shape}")
    return float(0.5 * np.abs(pv - qv).sum())
