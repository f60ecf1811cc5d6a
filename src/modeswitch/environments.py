"""Experiment environments: seeded random kernel pairs, and a capacity-limited
inventory model whose demand law switches from Poisson to uniform."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mdp import DEFAULT_CHANGE_RATE, DEFAULT_DISCOUNT, ModePairMdp, check_fits_in_memory

#: Tail mass below which the pre-change Poisson demand pmf is truncated.
_DEMAND_TAIL_EPS = 1e-12


def _check_kernels_fit(n_states: int, n_actions: int) -> None:
    """Size an environment's two float64 kernels, and the bool temporary that
    :func:`~modeswitch.mdp.check_stochastic` makes of one, before either exists."""
    entry_bytes = 2 * np.dtype(float).itemsize + np.dtype(bool).itemsize
    needed = n_states * n_actions * n_states * entry_bytes
    check_fits_in_memory(
        needed, f"kernels of {n_states} states x {n_actions} actions need {needed} bytes"
    )


@dataclass(frozen=True)
class RandomMdpSpec:
    """Seeded random environment: uniform kernel entries, uniform costs."""

    n_states: int = 5
    n_actions: int = 3
    seed: int = 0
    change_rate: float = DEFAULT_CHANGE_RATE
    discount: float = DEFAULT_DISCOUNT

    def __post_init__(self):
        if self.n_states < 1 or self.n_actions < 1:
            raise ValueError("n_states and n_actions must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        _check_kernels_fit(self.n_states, self.n_actions)


@dataclass(frozen=True)
class InventorySpec:
    """Lost-sales inventory model with a capacity cap.

    Stock plus the order is capped at ``capacity``; realized integer demand is
    Poisson(``demand_rate``) before the change and uniform on {0..capacity}
    after it.  ``order_cost_basis`` selects what the per-unit order price
    multiplies: the current stock level ("stock", the default) or the units
    ordered ("order").  Only "order" reproduces the published tradeoff
    weights, all six within 0.1%; "stock" comes within 10% at two of them
    and 13-25% off at the other four (acceptance criterion 8).
    """

    capacity: int = 10
    order_cost: float = 1.0
    holding_cost: float = 5.0
    shortfall_cost: float = 100.0
    demand_rate: float = 2.0
    discount: float = DEFAULT_DISCOUNT
    change_rate: float = DEFAULT_CHANGE_RATE
    order_cost_basis: str = "stock"

    def __post_init__(self):
        if self.capacity < 1:
            raise ValueError("capacity must be at least 1")
        if min(self.order_cost, self.holding_cost, self.shortfall_cost) < 0.0:
            raise ValueError("unit costs must be nonnegative")
        if self.demand_rate <= 0.0:
            raise ValueError("demand_rate must be positive")
        if self.order_cost_basis not in ("stock", "order"):
            raise ValueError("order_cost_basis must be 'stock' or 'order'")
        _check_kernels_fit(self.capacity + 1, self.capacity + 1)


@dataclass(frozen=True)
class SwitchingEnv:
    """An environment bundle: the kernel pair plus per-mode stage costs.

    ``cost_pre``/``cost_post`` are the stage-cost tables in effect before and
    after the change (identical objects when costs are mode-independent).
    ``initial_dist`` is the start-state law used by simulations.
    """

    mdp: ModePairMdp
    cost_post: np.ndarray
    initial_dist: np.ndarray
    label: str

    @property
    def cost_pre(self) -> np.ndarray:
        """The pre-change stage costs: the model's validated ``stage_cost``."""
        return self.mdp.stage_cost


def gen_random_mdp(spec: RandomMdpSpec) -> ModePairMdp:
    """Deterministically generate the seeded random kernel pair.

    Draw order is fixed (pre-change kernel entries, then costs).  The
    post-change kernel reuses the pre-change rows with the action axis
    cyclically shifted, so action 0's pre-change law appears under action 1.
    """
    rng = np.random.default_rng(spec.seed)
    kernel_pre = rng.random((spec.n_states, spec.n_actions, spec.n_states))
    kernel_pre /= kernel_pre.sum(axis=2, keepdims=True)
    stage_cost = rng.random((spec.n_states, spec.n_actions))
    shifted = (np.arange(spec.n_actions) + spec.n_actions - 1) % spec.n_actions
    kernel_post = kernel_pre[:, shifted, :]
    return ModePairMdp(kernel_pre, kernel_post, stage_cost, spec.discount, spec.change_rate)


def random_env(spec: RandomMdpSpec) -> SwitchingEnv:
    """Wrap the random MDP as an environment (uniform start states)."""
    mdp = gen_random_mdp(spec)
    uniform = np.full(spec.n_states, 1.0 / spec.n_states)
    return SwitchingEnv(
        mdp=mdp,
        cost_post=mdp.stage_cost,
        initial_dist=uniform,
        label=f"random-mdp(seed={spec.seed}, rho={spec.change_rate:g})",
    )


def _poisson_pmf_lumped(rate: float) -> np.ndarray:
    """Poisson pmf truncated at the first point whose tail is below
    :data:`_DEMAND_TAIL_EPS`, with the leftover tail mass lumped onto that point."""
    probs = [math.exp(-rate)]
    total = probs[0]
    while 1.0 - total > _DEMAND_TAIL_EPS:
        w = len(probs)
        probs.append(probs[-1] * rate / w)
        total += probs[-1]
        if w > 100_000:
            raise ValueError("demand pmf truncation did not terminate; rate too large")
    pmf = np.array(probs)
    pmf[-1] += max(0.0, 1.0 - total)
    return pmf


def _demand_kernel_and_cost(
    spec: InventorySpec, pmf: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Transition kernel and exact expected stage cost under one demand pmf.

    A row and its expected holding and shortfall costs depend only on the
    post-order stock ``min(stock + order, capacity)``, so each is built once
    per fill level and read through the (stock, order) fill matrix."""
    n = spec.capacity + 1
    demand = np.arange(pmf.size)
    rows = np.zeros((n, n))
    held = np.zeros(n)
    unmet = np.zeros(n)
    for filled in range(n):
        leftover = np.maximum(filled - demand, 0)
        np.add.at(rows[filled], leftover, pmf)
        held[filled] = pmf @ leftover
        unmet[filled] = pmf @ np.maximum(demand - filled, 0)
    stock, order = np.ogrid[:n, :n]
    fill = np.minimum(stock + order, spec.capacity)
    base = spec.order_cost * (stock if spec.order_cost_basis == "stock" else order)
    cost = base + spec.holding_cost * held[fill] + spec.shortfall_cost * unmet[fill]
    return rows[fill], cost


def build_inventory(spec: InventorySpec) -> SwitchingEnv:
    """Assemble the inventory environment with mode-dependent expected costs.

    States and actions are {0..capacity}; the next state is what remains of
    the capped post-order stock after demand, floored at zero.  Expected
    stage costs are computed exactly against each mode's (truncated) pmf, so
    the pre- and post-change cost tables differ.  Episodes start empty.
    """
    pmf_pre = _poisson_pmf_lumped(spec.demand_rate)
    pmf_post = np.full(spec.capacity + 1, 1.0 / (spec.capacity + 1))
    kernel_pre, cost_pre = _demand_kernel_and_cost(spec, pmf_pre)
    kernel_post, cost_post = _demand_kernel_and_cost(spec, pmf_post)
    mdp = ModePairMdp(kernel_pre, kernel_post, cost_pre, spec.discount, spec.change_rate)
    start = np.zeros(spec.capacity + 1)
    start[0] = 1.0
    return SwitchingEnv(
        mdp=mdp,
        cost_post=cost_post,
        initial_dist=start,
        label=(
            f"inventory(N={spec.capacity}, d={spec.shortfall_cost:g}, "
            f"rho={spec.change_rate:g})"
        ),
    )
