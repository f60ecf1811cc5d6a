"""Stationary analysis of policy-induced chains: fixed-point distributions,
total-variation mixing profiles with the geometric envelopes derived from
them, and checks of the discounted cost-gap bound those envelopes imply."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mdp import InducedChain, check_fits_in_memory

_STATIONARY_RESIDUAL_TOL = 1e-10
_ENVELOPE_BETA_FLOOR = 1e-6


class ReducibleChainError(ValueError):
    """The chain failed the positivity check that stationary analysis needs."""


class MixingBoundError(RuntimeError):
    """The cost-gap bound was violated; this indicates a computation bug."""


@dataclass(frozen=True)
class MixingProfile:
    """Worst-case total-variation distance to stationarity, per step.

    ``tv_by_step[t]`` is the maximum over start states of the TV distance
    between the ``t``-step distribution and the stationary one.  The profile
    is dominated by the geometric envelope ``envelope_b * envelope_beta **
    t`` that :func:`mixing_profile` derives from the same kernel powers.
    """

    tv_by_step: np.ndarray
    envelope_b: float
    envelope_beta: float

    def __post_init__(self):
        object.__setattr__(self, "tv_by_step", np.asarray(self.tv_by_step, dtype=float))
        dist = self.tv_by_step
        if np.any(dist < -1e-15) or np.any(dist > 1.0 + 1e-12):
            raise ValueError("tv distances must lie in [0, 1]")
        if np.any(np.diff(dist) > 1e-12):
            raise ValueError("tv distances must be nonincreasing in t")
        if self.envelope_b <= 0.0 or not 0.0 < self.envelope_beta < 1.0:
            raise ValueError("envelope must have b > 0 and beta in (0, 1)")
        steps = np.arange(dist.size)
        if np.any(dist > self.envelope_b * self.envelope_beta**steps + 1e-12):
            raise ValueError("envelope does not dominate the recorded profile")


@dataclass(frozen=True)
class MixingBoundReport:
    """Slack of the geometric cost-gap bound over all (start state, horizon),
    with the mixing profile whose envelope gave the bound."""

    max_slack: float
    min_slack: float
    profile: MixingProfile


def _reachability(transition: np.ndarray) -> np.ndarray:
    """Boolean pattern of (I + P)^n: who can reach whom in at most n steps."""
    n = transition.shape[0]
    step = ((transition > 0.0) | np.eye(n, dtype=bool)).astype(np.uint8)
    reach = np.eye(n, dtype=np.uint8)
    for _ in range(n):
        reach = np.minimum(reach @ step, 1)
    return reach.astype(bool)


def _has_single_recurrent_class(transition: np.ndarray) -> bool:
    """True when exactly one closed communicating class exists.

    Entrywise positivity of (I + P)^n certifies irreducibility outright;
    policies that never replenish the top of the state space induce chains
    with transient states, for which the stationary distribution is still
    unique provided all recurrent states communicate.
    """
    reach = _reachability(transition)
    if reach.all():
        return True
    # A state is recurrent iff everything it reaches can reach it back.
    recurrent = np.array(
        [bool(np.all(~reach[i] | reach[:, i])) for i in range(reach.shape[0])]
    )
    if not recurrent.any():
        return False
    seeds = np.flatnonzero(recurrent)
    first = seeds[0]
    return bool(np.all(reach[seeds, first] & reach[first, seeds]))


def stationary_distribution(chain: InducedChain) -> np.ndarray:
    """Unique stationary distribution of a chain with one recurrent class.

    Raises:
        ReducibleChainError: the reachability pattern of ``(I + P)^n`` shows
            more than one closed communicating class (or the linear solve is
            inconsistent with one), so no unique stationary distribution
            exists and the quantities built from it are undefined.
    """
    transition = chain.transition
    n = chain.n_states
    if not _has_single_recurrent_class(transition):
        raise ReducibleChainError(
            "(I + P)^n reachability shows multiple closed communicating "
            "classes: no unique stationary distribution exists, so the "
            "quantities built from it are undefined"
        )
    system = transition.T - np.eye(n)
    system[-1, :] = 1.0
    target = np.zeros(n)
    target[-1] = 1.0
    dist = np.linalg.solve(system, target)
    dist = np.clip(dist, 0.0, None)
    dist /= dist.sum()
    residual = float(np.abs(dist @ transition - dist).sum())
    if residual > _STATIONARY_RESIDUAL_TOL:
        raise ReducibleChainError(
            f"stationary solve left an l1 residual of {residual:.3e}"
        )
    return dist


def mixing_profile(
    chain: InducedChain, t_max: int, stationary: np.ndarray, discount: float
) -> MixingProfile:
    """Exact TV mixing profile up to ``t_max`` plus the lemma's envelope.

    The supremum over initial distributions is attained at a point mass, so
    each ``d(t)`` is the maximum over rows of half the l1 distance between
    the ``t``-step kernel power and the chain's ``stationary`` law, which the
    caller has already solved (:func:`stationary_distribution`).  With
    ``dbar(t)`` the largest TV distance between two rows of that power,
    ``d(t) <= dbar(m) ** floor(t/m) <= b * beta**t`` for ``beta = dbar(m) **
    (1/m)`` (at least 1e-6) and ``b = beta ** (1-m)`` (Levin, Peres & Wilmer
    2017, Lemmas 4.10-4.12).  The ``m`` taken minimises ``b / (1 - discount
    * beta)`` over ``dbar(m) < 1``; no ``m >= t`` has a ratio below
    ``dbar(t) ** ((1-t)/t)``, so ``dbar`` is not taken once that reaches the
    best.  :class:`ValueError` if no ``m <= t_max`` has ``dbar(m) < 1``: the
    chain is not shown to mix.
    """
    if t_max < 1:
        raise ValueError("t_max must be at least 1")
    n = chain.n_states
    power = np.eye(n)
    tv = np.empty(t_max + 1)
    best = (math.inf, 0.0, 0)  # log(b / (1 - discount*beta)), beta, m
    searching = True
    for t in range(t_max + 1):
        tv[t] = 0.5 * float(np.max(np.abs(power - stationary).sum(axis=1)))
        if t and searching:
            # one row against the later ones at a time: (n, n) temporaries
            rows = (np.abs(power[i + 1 :] - power[i]).sum(axis=1).max() for i in range(n - 1))
            dbar = 0.5 * float(max(rows, default=0.0))
            if dbar < 1.0:
                beta = max(dbar ** (1.0 / t), _ENVELOPE_BETA_FLOOR)
                ratio = (1 - t) * math.log(beta) - math.log1p(-discount * beta)
                best = min(best, (ratio, beta, t))
            searching = dbar > 0.0 and (1 - t) / t * math.log(dbar) < best[0]
        if t < t_max:
            power = power @ chain.transition
    _, beta, m = best
    if not m:
        raise ValueError(f"chain not shown to mix: rows of P^m are TV 1 apart for all m <= {t_max}")
    return MixingProfile(tv, beta ** (1 - m), beta)


def k_step_costs(
    transition: np.ndarray, cost, discount: float, k_max: int, terminal
) -> np.ndarray:
    """Rows ``J_0 .. J_k_max`` of ``J_k = cost + discount * transition @ J_{k-1}``
    from ``J_0 = terminal``.

    ``J_k[x]`` is the expected discounted cost of ``k`` steps of the chain
    started at ``x`` plus ``discount**k`` times the expected terminal value
    after them; every start state is propagated at once.
    """
    costs = np.empty((k_max + 1, transition.shape[0]))
    costs[0] = terminal
    for k in range(1, k_max + 1):
        costs[k] = cost + discount * (transition @ costs[k - 1])
    return costs


def verify_mixing_bound(
    chain: InducedChain, discount: float, k_max: int, stationary: np.ndarray
) -> MixingBoundReport:
    """Check the geometric cost-gap bound for every start state and horizon.

    For each point-mass start and each ``k <= k_max`` the cost gap must stay
    below both the stepwise bound ``2 * |c|_inf * sum_{t<k} discount^t d(t)``
    and the envelope bound ``2 * |c|_inf * b * (1-(discount*beta)^k) /
    (1-discount*beta)``.  Both are theorems, so any violation beyond float
    noise is reported as a bug with its witness.  ``stationary`` is the
    chain's solved stationary law, as :func:`mixing_profile` takes it.

    Before anything is computed, the tables are sized against physical
    memory at ``8 * (3n + 12)`` bytes per horizon for ``n`` states (a
    :class:`ValueError` names the count).  Live at once per horizon are one
    float row of states (the k-step costs, turned into their gaps in place)
    and up to twelve floats: the profile, the bounds, their temporaries and
    the profiles a caller keeps of the chains it checked before (``modeswitch
    mixing`` checks four).  The two further rows are headroom for what the
    allocator keeps beyond that.
    """
    needed = (k_max + 1) * 8 * (3 * chain.n_states + 12)
    check_fits_in_memory(needed, f"mixing tables for mixing_k_max {k_max} need {needed} bytes")
    profile = mixing_profile(chain, k_max, stationary, discount)
    cost_inf = float(np.max(np.abs(chain.cost_vec)))
    stationary_cost = float(chain.cost_vec @ stationary)

    stepwise = np.zeros(k_max + 1)
    geom = discount ** np.arange(k_max)
    stepwise[1:] = 2.0 * cost_inf * np.cumsum(geom * profile.tv_by_step[:-1])

    rate = discount * profile.envelope_beta
    ks = np.arange(k_max + 1)
    envelope = 2.0 * cost_inf * profile.envelope_b * (1.0 - rate**ks) / (1.0 - rate)

    atol = 1e-9 * max(1.0, cost_inf / (1.0 - discount))
    # Row k holds horizon k (row 0 is zero).  Each factor takes the scalar
    # discount**k, which a vectorised power need not match to the last bit.
    factors = np.fromiter(
        ((1.0 - discount**k) / (1.0 - discount) for k in range(k_max + 1)), float, k_max + 1
    )
    # The k-step costs become their gaps in place: one row of states per horizon.
    gaps = k_step_costs(chain.transition, chain.cost_vec, discount, k_max, 0.0)
    gaps -= factors[:, None] * stationary_cost
    np.abs(gaps, out=gaps)
    worst = gaps.max(axis=1)
    stepwise_broken = worst > stepwise + atol
    broken = np.flatnonzero(stepwise_broken | (worst > envelope + atol))
    if broken.size:
        k = broken[0]
        kind, bound = ("stepwise", stepwise) if stepwise_broken[k] else ("envelope", envelope)
        raise MixingBoundError(
            f"{kind} cost-gap bound violated at state {np.argmax(gaps[k])}, horizon {k}: "
            f"gap {worst[k]:.6e} > bound {bound[k]:.6e}"
        )
    # The slack envelope[k] - gaps[k, x] is extreme where the gap is.
    max_slack = (envelope[1:] - gaps[1:].min(axis=1)).max()
    min_slack = (envelope[1:] - worst[1:]).min()
    return MixingBoundReport(float(max_slack), float(min_slack), profile)
