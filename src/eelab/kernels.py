"""Single-step Markov transition kernels and their exact matrices.

Every kernel exposes exact_matrix() -> dense row-stochastic ndarray
whose diagonal absorbs all rejection mass. The random-walk kernel reads
the model's energy table once and builds a move table over every state;
its step(state, rng) -> (state, accepted) draws 1-2 uniforms (the
acceptance draw is skipped when the acceptance probability is exactly
1) and is the reference for the ladder's inlined local move. The
independence (MIS) and mixture kernels are exact matrices only.
"""

from __future__ import annotations

import math
from itertools import zip_longest

import numpy as np

from .errors import (
    ConfigError,
    NumericError,
    ShapeError,
    SupportError,
)
from .rng import RandomStream
from .statespace import (
    EnergyModel,
    FiniteDistribution,
    LadderLevel,
    level_logdensities,
)

ROW_SUM_TOL = 1e-12
STATIONARY_TOL = 1e-12
# rows per strip of the work done on a dense matrix a strip at a time (the
# MIS diagonal, the reversibility check, and spectral's symmetrisation):
# a strip of a 4096-state matrix is 2 MB
BLOCK_ROWS = 64


def row_blocks(n: int) -> list[slice]:
    """Consecutive slices of at most BLOCK_ROWS rows covering 0..n-1."""
    return [slice(i, min(i + BLOCK_ROWS, n)) for i in range(0, n, BLOCK_ROWS)]


# ---------------------------------------------------------------------------
# Matrix checks
# ---------------------------------------------------------------------------


def check_transition_matrix(K: np.ndarray, tol: float = ROW_SUM_TOL) -> None:
    """Entries >= 0 and rows summing to 1 within tol (a NaN fails)."""
    K = np.asarray(K)
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise ShapeError(f"transition matrix must be square, got {K.shape}")
    if np.any(K < 0):
        raise NumericError("transition matrix has negative entries")
    err = np.abs(K.sum(axis=1) - 1.0).max()
    if not err <= tol:
        raise NumericError(f"row sums deviate from 1 by {err:.3e} > {tol:.0e}")


def stationary_gap(K: np.ndarray, pi: np.ndarray) -> float:
    """max_y |(pi K)(y) - pi(y)|."""
    return float(np.abs(pi @ K - pi).max())


def reversibility_violation(K: np.ndarray,
                            pi: np.ndarray) -> tuple[float, tuple[int, int]]:
    """max_{x,y} |pi(x) K(x,y) - pi(y) K(y,x)| and the first pair (x, y) in
    row-major order that reaches it (a NaN gives NaN and the first NaN's
    pair), worked a strip of rows at a time with the arithmetic of the
    dense |F - F^T|, F = diag(pi) K, so the maximum has the same bits."""
    n = K.shape[0]
    err, worst = -np.inf, 0
    for rows in row_blocks(n):
        viol = pi[rows, None] * K[rows]
        viol -= (pi[:, None] * K[:, rows]).T
        np.abs(viol, out=viol)
        m = viol.max()
        if not m <= err:
            err, worst = m, rows.start * n + int(viol.argmax())
            if np.isnan(m):
                break
    return float(err), divmod(worst, n)


def reversibility_gap(K: np.ndarray, pi: np.ndarray) -> float:
    """max_{x,y} |pi(x) K(x,y) - pi(y) K(y,x)| (reversibility_violation)."""
    return reversibility_violation(K, pi)[0]


def _search_steps(support: np.ndarray, x: int) -> np.ndarray:
    """Frontier-search step count from state x to every state along a
    boolean support matrix's edges; -1 where x does not reach."""
    steps = np.full(len(support), -1)
    frontier = np.arange(len(support)) == x
    k = 0
    while frontier.any():
        steps[frontier] = k
        k += 1
        frontier = support[frontier].any(axis=0) & (steps < 0)
    return steps


def stationary_distribution(K: np.ndarray) -> np.ndarray:
    """Stationary law of a row-stochastic matrix with one closed class.

    A chain with two closed classes has no unique law, so it raises
    NumericError before any solve (transient states are allowed). Solved
    by LU as the square system pi (K - I) = 0 with its last balance
    equation (redundant, as the rows of K - I sum to 0) replaced by
    sum(pi) = 1; works for non-reversible kernels (used by the
    ledger-bias experiment). The answer is checked independently of the
    solve: NumericError if the system is singular, if more than
    STATIONARY_TOL of negative mass is clipped, or if the normalised law
    misses stationarity by more than STATIONARY_TOL.
    """
    # descend from state 0 until every state reaches x; if x's class is
    # closed first, a state that never reaches it leads to a second one.
    # Each move, to the farthest state x reaches that cannot return,
    # goes to a class strictly below x's.
    support, x = K > 0, 0
    while not (to_x := _search_steps(support.T, x) >= 0).all():
        from_x = _search_steps(support, x)
        below = (from_x >= 0) & ~to_x
        if not below.any():
            raise NumericError("stationary distribution of a reducible chain "
                               "with two or more closed classes")
        x = int(np.argmax(np.where(below, from_x, -1)))
    n = K.shape[0]
    A = K.T - np.eye(n)
    A[n - 1] = 1.0
    b = np.zeros(n)
    b[n - 1] = 1.0
    try:
        pi = np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"stationary distribution solve failed: {exc}") from None
    negative = -pi[pi < 0].sum()
    if not negative <= STATIONARY_TOL:
        raise NumericError(
            f"stationary solve has negative mass {negative:.3e} > "
            f"{STATIONARY_TOL:.0e}")
    pi = np.clip(pi, 0.0, None)
    total = pi.sum()
    if total <= 0 or not np.isfinite(total):
        raise NumericError("stationary distribution solve failed")
    pi /= total
    gap = stationary_gap(K, pi)
    if not gap <= STATIONARY_TOL:
        raise NumericError(
            f"stationary solve misses pi K = pi by {gap:.3e} > {STATIONARY_TOL:.0e}")
    return pi


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------


def _mh_accept(dl: float):
    """Metropolis acceptance of a log-density change dl: None when dl >= 0
    (the move is taken without drawing a uniform), else exp(dl)."""
    return None if dl >= 0.0 else math.exp(dl)


class RandomWalkKernel:
    """Local Metropolis-Hastings with a uniform fixed-size neighborhood.

    Proposals fall uniformly on the model's neighbor slots; out-of-range
    slots (None) count as automatic rejections, which keeps the proposal
    symmetric at the boundary. ``moves[x]`` holds one ``(y, p)`` pair per
    neighbor slot of x, where y is None for an out-of-range slot and p is
    the acceptance probability from ``_mh_accept`` (None: always
    accepted). ConfigError if a state has no neighbor slot.
    """

    def __init__(self, model: EnergyModel, level: LadderLevel):
        self.model = model
        self._logd = level_logdensities(model, level)
        ld = self._logd.tolist()
        self.moves = [
            tuple((None, None) if y is None else (y, _mh_accept(ld[y] - ld[x]))
                  for y in model.neighbors(x))
            for x in range(model.size)
        ]
        if not all(self.moves):
            raise ConfigError("model has an empty local neighborhood")

    @property
    def target_probs(self) -> np.ndarray:
        return FiniteDistribution.from_logweights(self._logd).probs

    def step(self, state: int, rng: RandomStream) -> tuple[int, bool]:
        slots = self.moves[state]
        y, p = slots[rng.randint(len(slots))]
        if y is not None and (p is None or rng.uniform() < p):
            return y, True
        return state, False

    def exact_matrix(self) -> np.ndarray:
        """K[x, y] sums 1/m, times the acceptance probability, over x's m
        slots that propose y, added slot by slot over all states at once;
        the diagonal then takes the rest of each row. That rest is the
        rejection mass, never negative: where rounding makes it so (nine
        slots of 1/9 sum to more than 1), the diagonal is 0."""
        n = self.model.size
        K = np.zeros((n, n))
        states = np.arange(n)
        width = np.array([len(slots) for slots in self.moves], dtype=np.float64)
        for col in zip_longest(*self.moves, fillvalue=(None, None)):
            y = np.array([-1 if t is None else t for t, _ in col], dtype=np.int64)
            p = np.array([1.0 if a is None else a for _, a in col])
            on = y >= 0
            K[states[on], y[on]] += p[on] / width[on]
        stay = K[states, states] + (1.0 - K.sum(axis=1))
        K[states, states] = np.maximum(stay, 0.0)
        return K


class IndependenceKernel:
    """Metropolized independence sampler: propose y ~ q, accept by the
    importance-ratio rule min(1, w(y)/w(x)) with w = pi/q."""

    def __init__(self, target: FiniteDistribution, proposal: FiniteDistribution):
        if len(target) != len(proposal):
            raise ShapeError("target and proposal differ in length")
        bad = (proposal.probs <= 0) & (target.probs > 0)
        if bad.any():
            raise SupportError(
                f"proposal has zero mass on {int(bad.sum())} target states"
            )
        if np.any(target.probs <= 0):
            raise SupportError("independence kernel requires strictly positive target")
        self.target = target
        self.proposal = proposal
        self._logw = np.log(target.probs) - np.log(proposal.probs)

    @property
    def target_probs(self) -> np.ndarray:
        return self.target.probs

    def exact_matrix(self) -> np.ndarray:
        """K[x, y] = q(y) a(x, y) off the diagonal, with a the acceptance
        probability, and K[x, x] the rejection mass
        q(x) + sum_y q(y) (1 - a(x, y)), a sum of non-negative terms (the
        y = x term is 0), so that no rounding makes it negative."""
        q = self.proposal.probs
        K = np.subtract(self._logw[None, :], self._logw[:, None])
        np.exp(K, out=K)
        np.minimum(K, 1.0, out=K)
        stay = np.empty(len(q))
        for rows in row_blocks(len(q)):
            rejected = np.subtract(1.0, K[rows])
            rejected *= q[None, :]
            stay[rows] = rejected.sum(axis=1)
        stay += q
        K *= q[None, :]
        np.fill_diagonal(K, stay)
        return K


class MixtureKernel:
    """alpha times the local kernel plus (1 - alpha) times the jump."""

    def __init__(self, alpha: float, local, jump):
        if not 0.0 <= alpha <= 1.0:
            raise ConfigError(f"mixture weight must be in [0, 1], got {alpha}")
        self.alpha = alpha
        self.local = local
        self.jump = jump
        try:
            p_local, p_jump = local.target_probs, jump.target_probs
        except AttributeError:
            pass
        else:
            if not np.allclose(p_local, p_jump, atol=1e-9):
                raise ConfigError("mixture components target different densities")

    def exact_matrix(self) -> np.ndarray:
        return (
            self.alpha * self.local.exact_matrix()
            + (1.0 - self.alpha) * self.jump.exact_matrix()
        )
