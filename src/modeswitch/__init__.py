"""Change-detection-based controller switching for finite MDPs whose
transition kernel switches once at a geometric random time."""

__version__ = "0.1.0"

from importlib import import_module as _import_module

from .mdp import (
    ConvergenceError,
    InducedChain,
    ModePairMdp,
    finite_horizon_cost,
    induced_chain,
    value_iteration,
)
from .chains import (
    MixingBoundError,
    MixingBoundReport,
    MixingProfile,
    ReducibleChainError,
    k_step_costs,
    mixing_profile,
    stationary_distribution,
    verify_mixing_bound,
)
from .regret import SwitchingCostRates, false_alarm_weight
from .detector import (
    BeliefDynamics,
    BeliefGrid,
    BeliefOperator,
    BeliefValueTable,
    DivergenceError,
    ImpossibleTransitionError,
    ThresholdStructureError,
    bayes_step,
    belief_update,
    evaluate_switch_rule,
    extract_thresholds,
    finite_horizon_dp,
    solve_fixed_point,
    stop_cost_table,
)
from .environments import (
    InventorySpec,
    RandomMdpSpec,
    SwitchingEnv,
    build_inventory,
    gen_random_mdp,
    random_env,
)
from .pipeline import SolvedEnv, mode_pair_chains, mode_pair_weight, solve_env

#: The Monte Carlo's names.  They resolve on first use through the module
#: ``__getattr__`` (PEP 562), so importing the package, and the ``solve`` and
#: ``mixing`` commands, never load ``simulate``.
_MONTE_CARLO = (
    "EpisodeBatch",
    "RegretCheck",
    "SimReport",
    "episode_rng",
    "regret_consistency",
    "run_batch",
    "run_sweep",
    "summarize",
)

__all__ = sorted(
    [name for name in dir() if not name.startswith("_")] + ["simulate", *_MONTE_CARLO]
)


def __getattr__(name: str):
    if name != "simulate" and name not in _MONTE_CARLO:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    simulate = _import_module(".simulate", __name__)
    return simulate if name == "simulate" else getattr(simulate, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
