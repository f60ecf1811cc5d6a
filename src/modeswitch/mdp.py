"""Finite mode-pair MDPs: representation, mode-optimal policy synthesis via
value iteration, policy-induced chains, and discounted policy evaluation."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Tolerance for "rows sum to one" checks on transition kernels.
ROW_SUM_TOL = 1e-12

#: Default discount factor and per-step change rate of every environment.
DEFAULT_DISCOUNT = 0.999
DEFAULT_CHANGE_RATE = 0.01

#: Default Bellman-residual target and iteration budget of value iteration.
DEFAULT_VI_TOL = 1e-10
DEFAULT_VI_MAX_ITER = 2_000_000


class ConvergenceError(RuntimeError):
    """An iterative solver exhausted its iteration budget."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (last residual {residual:.3e})")
        self.residual = residual


def check_stochastic(array: np.ndarray, name: str) -> None:
    """Validate that the trailing axis of ``array`` holds probability rows."""
    if not np.all(np.isfinite(array)):
        raise ValueError(f"{name} has non-finite entries")
    if np.any(array < 0.0):
        raise ValueError(f"{name} has negative entries")
    worst = float(np.max(np.abs(array.sum(axis=-1) - 1.0)))
    if worst > ROW_SUM_TOL:
        raise ValueError(f"{name} rows must sum to 1 (worst deviation {worst:.3e})")


def check_solver_budget(tol: float, max_iter: int) -> None:
    """Validate an iterative solver's stopping target and iteration budget."""
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")


@dataclass(frozen=True)
class ModePairMdp:
    """A finite MDP whose transition kernel switches once at a random time.

    ``kernel_pre`` and ``kernel_post`` are indexed ``[state][action][next]``
    and hold the transition law in effect before and after the switch.
    ``stage_cost`` is indexed ``[state][action]``; for environments whose
    realized cost depends on the active mode it holds the pre-change
    expectation (the post-change one travels alongside, see
    :class:`modeswitch.environments.SwitchingEnv`).  ``change_rate`` is the
    per-step probability of the geometric switching time.
    """

    kernel_pre: np.ndarray
    kernel_post: np.ndarray
    stage_cost: np.ndarray
    discount: float = DEFAULT_DISCOUNT
    change_rate: float = DEFAULT_CHANGE_RATE

    def __post_init__(self):
        for field in ("kernel_pre", "kernel_post", "stage_cost"):
            object.__setattr__(self, field, np.asarray(getattr(self, field), dtype=float))
        if self.kernel_pre.ndim != 3 or self.kernel_pre.shape[0] != self.kernel_pre.shape[2]:
            raise ValueError("kernels must have shape (n_states, n_actions, n_states)")
        if self.kernel_post.shape != self.kernel_pre.shape:
            raise ValueError("pre- and post-change kernels must share a shape")
        if self.stage_cost.shape != self.kernel_pre.shape[:2]:
            raise ValueError("stage_cost must have shape (n_states, n_actions)")
        check_stochastic(self.kernel_pre, "kernel_pre")
        check_stochastic(self.kernel_post, "kernel_post")
        if not np.all(np.isfinite(self.stage_cost)):
            raise ValueError("stage_cost must be finite")
        if not 0.0 < self.discount < 1.0:
            raise ValueError(f"discount must lie in (0, 1), got {self.discount}")
        if not 0.0 < self.change_rate < 1.0:
            raise ValueError(f"change_rate must lie in (0, 1), got {self.change_rate}")

    @property
    def n_states(self) -> int:
        return self.kernel_pre.shape[0]

    @property
    def n_actions(self) -> int:
        return self.kernel_pre.shape[1]


@dataclass(frozen=True)
class InducedChain:
    """Markov chain obtained by running a fixed policy against one kernel.

    ``cost_vec[x]`` is the stage cost of the policy's action at ``x`` (an
    expectation over the active demand/disturbance law when costs are
    mode-dependent).
    """

    transition: np.ndarray
    cost_vec: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "transition", np.asarray(self.transition, dtype=float))
        object.__setattr__(self, "cost_vec", np.asarray(self.cost_vec, dtype=float))
        if self.transition.ndim != 2 or self.transition.shape[0] != self.transition.shape[1]:
            raise ValueError("transition must be square")
        if self.cost_vec.shape != (self.transition.shape[0],):
            raise ValueError("cost_vec length must match the state count")
        check_stochastic(self.transition, "transition")
        if not np.all(np.isfinite(self.cost_vec)):
            raise ValueError("cost_vec must be finite")

    @property
    def n_states(self) -> int:
        return self.transition.shape[0]


def greedy_backup(
    kernel: np.ndarray, stage_cost: np.ndarray, discount: float, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One Bellman optimality backup; ties go to the lowest action index."""
    q = stage_cost + discount * (kernel @ values)
    return q.min(axis=1), q.argmin(axis=1)


def value_iteration(
    kernel: np.ndarray,
    stage_cost: np.ndarray,
    discount: float,
    tol: float = DEFAULT_VI_TOL,
    max_iter: int = DEFAULT_VI_MAX_ITER,
) -> tuple[np.ndarray, np.ndarray]:
    """Solve one mode's discounted MDP to a Bellman residual below ``tol``.

    Iterates the optimality backup from the zero vector.  Besides the usual
    sup-norm stop, the loop exits early once the iterate change has collapsed
    in span seminorm; the iterate is then re-centred by the midpoint of one
    further backup's residual, which restores the sup-norm residual
    guarantee (shifting a value vector by a constant leaves greedy actions
    unchanged).

    Args:
        kernel: transition law, ``[state][action][next]``.
        stage_cost: cost per ``(state, action)``; minimized.
        discount: discount factor in ``(0, 1)``.
        tol: sup-norm Bellman residual target, finite and > 0.
        max_iter: iteration budget, at least 1.

    Returns:
        ``(policy, values)``: the greedy policy for ``values`` and a value
        vector whose Bellman residual is at most ``tol`` and which lies
        within ``tol * discount / (1 - discount)`` of the optimum.

    Raises:
        ConvergenceError: the budget ran out before either stop triggered.
    """
    kernel = np.asarray(kernel, dtype=float)
    stage_cost = np.asarray(stage_cost, dtype=float)
    check_stochastic(kernel, "kernel")
    check_solver_budget(tol, max_iter)

    values = np.zeros(kernel.shape[0])
    delta = values
    for _ in range(max_iter):
        new_values, _ = greedy_backup(kernel, stage_cost, discount, values)
        delta = new_values - values
        hi = float(delta.max())
        lo = float(delta.min())
        values = new_values
        if max(abs(hi), abs(lo)) <= tol:
            break
        if hi - lo <= tol:
            # Span has collapsed: the iterate is optimal up to a constant.
            follow_up, _ = greedy_backup(kernel, stage_cost, discount, values)
            residual = follow_up - values
            shift = (float(residual.max()) + float(residual.min())) / (2.0 * (1.0 - discount))
            values = values + shift
            break
    else:
        raise ConvergenceError(
            "value iteration did not converge", float(np.max(np.abs(delta)))
        )
    _, policy = greedy_backup(kernel, stage_cost, discount, values)
    return policy, values


def induced_chain(policy: np.ndarray, kernel: np.ndarray, stage_cost: np.ndarray) -> InducedChain:
    """Restrict a kernel and a stage-cost table to the rows a policy selects."""
    policy = np.asarray(policy, dtype=np.int64)
    kernel = np.asarray(kernel, dtype=float)
    stage_cost = np.asarray(stage_cost, dtype=float)
    n_states, n_actions = kernel.shape[:2]
    if policy.shape != (n_states,):
        raise ValueError("policy length must match the state count")
    if np.any(policy < 0) or np.any(policy >= n_actions):
        raise ValueError("policy selects an action outside the action set")
    rows = np.arange(n_states)
    return InducedChain(kernel[rows, policy], stage_cost[rows, policy])


def finite_horizon_cost(
    chain: InducedChain, initial_dist: np.ndarray, horizon: int | float, discount: float
) -> float:
    """Expected discounted cost of a chain over ``horizon`` steps.

    ``horizon`` may be ``math.inf``, in which case the infinite-horizon value
    is obtained exactly from the linear fixed point
    ``(I - discount * P) v = c``.
    """
    initial_dist = np.asarray(initial_dist, dtype=float)
    if initial_dist.shape != (chain.n_states,):
        raise ValueError("initial_dist length must match the state count")
    if np.any(initial_dist < 0.0) or abs(float(initial_dist.sum()) - 1.0) > ROW_SUM_TOL:
        raise ValueError("initial_dist must be a probability vector")
    if math.isinf(horizon):
        eye = np.eye(chain.n_states)
        cost_to_go = np.linalg.solve(eye - discount * chain.transition, chain.cost_vec)
        return float(initial_dist @ cost_to_go)
    horizon = int(horizon)
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    total = 0.0
    dist = initial_dist
    disc = 1.0
    for _ in range(horizon):
        total += disc * float(dist @ chain.cost_vec)
        dist = dist @ chain.transition
        disc *= discount
    return total
