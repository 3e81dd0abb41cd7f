"""Single-step Markov transition kernels and their exact matrices.

Every kernel exposes step(state, rng) -> (state, accepted) and
exact_matrix() -> dense row-stochastic ndarray whose diagonal absorbs
all rejection mass; the random-walk kernel reads the model's energy
table once and builds a move table over every state.
Acceptance draws are skipped when the acceptance probability is exactly
1, so the per-step rng consumption is: random-walk 1-2 uniforms,
independence 1-2 uniforms, mixture 1 + component.
"""

from __future__ import annotations

import math

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


def reversibility_gap(K: np.ndarray, pi: np.ndarray) -> float:
    """max_{x,y} |pi(x) K(x,y) - pi(y) K(y,x)|."""
    F = pi[:, None] * K
    return float(np.abs(F - F.T).max())


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

    def __init__(self, model: EnergyModel, level: LadderLevel | None = None):
        self.model = model
        self._logd = (-model.energies() if level is None
                      else level_logdensities(model, level))
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
        w = np.exp(self._logd - self._logd.max())
        return w / w.sum()

    def step(self, state: int, rng: RandomStream) -> tuple[int, bool]:
        slots = self.moves[state]
        y, p = slots[rng.randint(len(slots))]
        if y is not None and (p is None or rng.uniform() < p):
            return y, True
        return state, False

    def exact_matrix(self) -> np.ndarray:
        n = self.model.size
        K = np.zeros((n, n))
        for x in range(n):
            m = len(self.moves[x])
            for y, p in self.moves[x]:
                if y is None:
                    continue
                K[x, y] += (1.0 if p is None else p) / m
            K[x, x] += 1.0 - K[x].sum()
        return K


class IndependenceKernel:
    """Metropolized independence sampler: propose y ~ q, accept by the
    importance-ratio rule min(1, w(y)/w(x)) with w = pi/q."""

    def __init__(self, target: FiniteDistribution, proposal: FiniteDistribution):
        if len(target) != len(proposal) or np.any(target.states != proposal.states):
            raise ShapeError("target and proposal must share the same state order")
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
        self._cum = np.cumsum(proposal.probs)
        self._cum[-1] = 1.0

    @property
    def target_probs(self) -> np.ndarray:
        return self.target.probs

    def step(self, state: int, rng: RandomStream) -> tuple[int, bool]:
        y = int(np.searchsorted(self._cum, rng.uniform(), side="right"))
        dl = self._logw[y] - self._logw[state]
        if dl >= 0.0 or rng.uniform() < math.exp(dl):
            return y, True
        return state, False

    def exact_matrix(self) -> np.ndarray:
        q = self.proposal.probs
        accept = np.minimum(1.0, np.exp(self._logw[None, :] - self._logw[:, None]))
        K = q[None, :] * accept
        np.fill_diagonal(K, 0.0)
        np.fill_diagonal(K, 1.0 - K.sum(axis=1))
        return K


class MixtureKernel:
    """With probability alpha take the local kernel's move, else the jump's."""

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

    @property
    def target_probs(self) -> np.ndarray:
        return self.local.target_probs

    def step(self, state: int, rng: RandomStream) -> tuple[int, bool]:
        if rng.uniform() < self.alpha:
            return self.local.step(state, rng)
        return self.jump.step(state, rng)

    def exact_matrix(self) -> np.ndarray:
        return (
            self.alpha * self.local.exact_matrix()
            + (1.0 - self.alpha) * self.jump.exact_matrix()
        )
