"""Acceptance suite: one test per criterion, at its stated tolerance.

The canonical random instance (seed 10, change rate 0.01, grid 1000) is shared
through session-scoped caches; the seeded-environment criteria use the first
ten seeds whose instances admit a defined tradeoff weight.  A summary hook in
conftest prints one PASS/FAIL line per criterion at the end of the run.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from modeswitch.chains import stationary_distribution, verify_mixing_bound
from modeswitch.detector import (
    DEFAULT_FP_TOL,
    BeliefGrid,
    BeliefOperator,
    BeliefValueTable,
    bayes_step,
    belief_update,
    evaluate_switch_rule,
    solve_fixed_point,
    stop_cost_table,
)
from modeswitch.environments import InventorySpec, build_inventory
from modeswitch.mdp import induced_chain, value_iteration
from modeswitch.pipeline import mode_pair_weight
from modeswitch.simulate import run_batch, run_sweep, summarize

from conftest import (
    CANONICAL_SEED,
    TABLE1_RHOS,
    VALID_SEEDS,
    light_solve_cached,
    solve_random_cached,
)

MASTER_SEED = 20240 + 601


def test_criterion_01_one_step_continuation_is_affine(light_solve):
    """One operator application to the stop payoff has an affine continuation."""
    grid = BeliefGrid.uniform(50)
    for seed in VALID_SEEDS:
        _, weight, dyn = light_solve(seed, 0.01)
        table = stop_cost_table(grid, weight, dyn.n_states)
        cont = BeliefOperator(dyn, grid).continuation(table.values)
        expected = weight * (1.0 - dyn.change_rate) * (1.0 - grid.points)
        worst = float(np.abs(cont - expected[:, None]).max())
        assert worst <= 1e-12, (seed, worst)


def test_criterion_02_expected_posterior_identity(light_solve):
    """The mixture-weighted posterior equals the prior-drifted belief."""
    beliefs = np.linspace(0.0, 1.0, 100)
    for seed in VALID_SEEDS:
        _, _, dyn = light_solve(seed, 0.01)
        drift = beliefs + dyn.change_rate * (1.0 - beliefs)
        for state in range(dyn.n_states):
            for p, target in zip(beliefs, drift):
                _, mix = bayes_step(
                    p, dyn.kernel_pre[state], dyn.kernel_post[state], dyn.change_rate
                )
                total = sum(
                    mix[nxt] * belief_update(dyn, state, nxt, p)
                    for nxt in range(dyn.n_states)
                    if mix[nxt] > 0.0
                )
                assert abs(total - target) <= 1e-12, (seed, state, p)


def test_criterion_03_fixed_point_matches_finite_horizon_oracle(canonical):
    """Fixed-point table equals the 12/rate-step backward induction to 1e-5."""
    from modeswitch.detector import finite_horizon_dp

    horizon = math.ceil(12.0 / canonical.env.mdp.change_rate)
    oracle = finite_horizon_dp(canonical.dyn, canonical.weight, canonical.grid, horizon)
    gap = float(np.abs(canonical.value_table.values - oracle.values).max())
    print(f"\n  criterion 3: sup gap {gap:.3e} over {horizon} oracle steps")
    assert gap <= 1e-5


def test_criterion_04_operator_iterates_decrease_monotonically(canonical):
    """201 operator applications from the stop payoff never increase a cell."""
    operator = BeliefOperator(canonical.dyn, canonical.grid)
    values = stop_cost_table(canonical.grid, canonical.weight, canonical.dyn.n_states).values
    step = operator.stepper(canonical.weight)
    violations = 0
    for _ in range(201):
        nxt = step(values)
        violations += int(np.any(nxt > values))
        values = nxt
    assert violations == 0


def test_criterion_05_fixed_point_shape(canonical):
    """Concavity in the belief, cone membership, and zero value at belief 1."""
    values = canonical.value_table.values
    concavity = values[:-2] + values[2:] - 2.0 * values[1:-1]
    assert float(concavity.max()) <= 1e-9
    stop = canonical.weight * (1.0 - canonical.grid.points)[:, None]
    assert float(values.min()) >= -1e-12
    assert float((values - stop).max()) <= 1e-12
    assert float(np.abs(values[-1]).max()) <= 1e-12


def test_criterion_06_fixed_point_unique_from_both_ends(canonical):
    """Iterating from the stop payoff and from zero meets within 10 tol."""
    zeros = BeliefValueTable(
        canonical.grid, np.zeros((canonical.grid.size, canonical.dyn.n_states))
    )
    from_below, _ = solve_fixed_point(
        BeliefOperator(canonical.dyn, canonical.grid),
        canonical.weight,
        start=zeros,
    )
    gap = float(np.abs(from_below.values - canonical.value_table.values).max())
    print(f"\n  criterion 6: two-sided gap {gap:.3e}")
    assert gap <= 10.0 * DEFAULT_FP_TOL


def test_criterion_07_cost_gap_bound_never_violated(light_solve):
    """The geometric cost-gap bound holds for every chain, state, and horizon."""
    for seed in VALID_SEEDS:
        env, _, _ = light_solve(seed, 0.01)
        mdp = env.mdp
        policy_pre, _, _ = value_iteration(mdp.kernel_pre, env.cost_pre, mdp.discount)
        policy_post, _, _ = value_iteration(mdp.kernel_post, env.cost_post, mdp.discount)
        for policy in (policy_pre, policy_post):
            for kernel, cost in (
                (mdp.kernel_pre, env.cost_pre),
                (mdp.kernel_post, env.cost_post),
            ):
                chain = induced_chain(policy, kernel, cost)
                dist = stationary_distribution(chain)
                for discount in (0.9, 0.999):
                    report = verify_mixing_bound(chain, discount, 200, dist)
                    assert report.min_slack >= -1e-12, (seed, discount)


EXPECTED_INVENTORY_WEIGHTS = {
    (10, 100.0): 19.39,
    (10, 200.0): 8.06,
    (10, 300.0): 7.10,
    (15, 100.0): 15.49,
    (15, 200.0): 6.97,
    (15, 300.0): 5.33,
}


def _inventory_weight(capacity, shortfall, basis):
    spec = InventorySpec(
        capacity=capacity, shortfall_cost=shortfall, order_cost_basis=basis
    )
    env = build_inventory(spec)
    mdp = env.mdp
    policy_pre, _, _ = value_iteration(mdp.kernel_pre, env.cost_pre, mdp.discount)
    policy_post, _, _ = value_iteration(mdp.kernel_post, env.cost_post, mdp.discount)
    return mode_pair_weight(env, policy_pre, policy_post)[3]


def test_criterion_08_inventory_weight_table():
    """Published tradeoff weights reproduced within 10% under a cost reading."""
    print()
    for (capacity, shortfall), expected in EXPECTED_INVENTORY_WEIGHTS.items():
        errors = {}
        for basis in ("stock", "order"):
            weight = _inventory_weight(capacity, shortfall, basis)
            errors[basis] = abs(weight - expected) / expected
            print(
                f"  criterion 8: N={capacity} d={shortfall:g} basis={basis}: "
                f"weight {weight:.3f} vs {expected} (rel err {errors[basis]:.3f})"
            )
        assert min(errors.values()) <= 0.10, (capacity, shortfall, errors)


def test_criterion_09_monte_carlo_matches_dp_value(canonical):
    """Realized detection cost sits within noise of the DP prediction."""
    rate = canonical.env.mdp.change_rate
    horizon = 2500
    batch = run_batch(canonical, 6000, horizon, MASTER_SEED)
    # A truncated episode is charged a forced stop at the horizon, which
    # biases the mean upward, so the horizon must leave (almost) none.
    assert batch.truncated.mean() < 1e-4
    realized = batch.objective_realized
    estimate = float(realized.mean())
    stderr = float(realized.std(ddof=1)) / math.sqrt(realized.size)
    predicted = canonical.start_value()
    tolerance = 3.0 * stderr + 2.0 * canonical.weight / (canonical.grid.size - 1)
    print(
        f"\n  criterion 9: empirical {estimate:.4f} vs DP {predicted:.4f}"
        f" (tolerance {tolerance:.4f}, change rate {rate:g})"
    )
    assert abs(estimate - predicted) <= tolerance


def test_criterion_10_perturbed_rules_cost_at_least_the_optimum(canonical):
    """Twenty perturbed threshold rules never beat the fixed point."""
    rng = np.random.default_rng(MASTER_SEED)
    slack = 2.0 * canonical.weight / (canonical.grid.size - 1)
    top = canonical.grid.points[-2]
    operator = BeliefOperator(canonical.dyn, canonical.grid)
    for trial in range(20):
        rule = np.clip(
            canonical.thresholds
            + rng.uniform(-0.05, 0.05, size=canonical.thresholds.size),
            0.0,
            top,
        )
        evaluated = evaluate_switch_rule(rule, operator, canonical.weight)
        shortfall = float((canonical.value_table.values - evaluated.values).max())
        assert shortfall <= slack, (trial, shortfall, slack)


def test_criterion_11_cost_trends_across_the_rate_grid(solve_random):
    """Detection switching stays within 5% of the baseline; costs grow as the
    change rate falls."""
    horizons = [math.ceil(2.0 / rho) for rho in TABLE1_RHOS]
    cd = {rho: [] for rho in TABLE1_RHOS}
    mo = {rho: [] for rho in TABLE1_RHOS}
    for seed in VALID_SEEDS[:5]:
        solveds = [solve_random(seed, rho) for rho in TABLE1_RHOS]
        for rho, batch in zip(TABLE1_RHOS, run_sweep(solveds, 6000, horizons, MASTER_SEED)):
            report = summarize(batch)
            cd[rho].append(report.mean_cost_cd)
            mo[rho].append(report.mean_cost_mo)
    means = {}
    print()
    for rho in TABLE1_RHOS:
        means[rho] = (float(np.mean(cd[rho])), float(np.mean(mo[rho])))
        print(
            f"  criterion 11: rho={rho:.4f} J_CD={means[rho][0]:8.2f}"
            f" J_MO={means[rho][1]:8.2f} ratio={means[rho][0] / means[rho][1]:.4f}"
        )
        assert means[rho][0] <= 1.05 * means[rho][1], rho
    ordered = sorted(TABLE1_RHOS, reverse=True)  # decreasing rate, growing horizon
    for earlier, later in zip(ordered, ordered[1:]):
        assert means[later][0] > means[earlier][0]
        assert means[later][1] > means[earlier][1]


def test_criterion_12_threshold_and_false_alarm_trends(solve_random):
    """Thresholds fall and false alarms rise as the change rate grows."""
    thresholds = {}
    false_alarms = {}
    n_episodes = 6000
    solveds = [solve_random(CANONICAL_SEED, rho) for rho in TABLE1_RHOS]
    horizons = [math.ceil(16.0 / rho) for rho in TABLE1_RHOS]
    batches = run_sweep(solveds, n_episodes, horizons, MASTER_SEED)
    print()
    for rho, solved, batch in zip(TABLE1_RHOS, solveds, batches):
        thresholds[rho] = solved.thresholds
        report = summarize(batch)
        false_alarms[rho] = report.false_alarm_rate
        print(
            f"  criterion 12: rho={rho:.4f} thresholds={np.round(solved.thresholds, 4)}"
            f" pfa={report.false_alarm_rate:.4f} truncated={report.truncated_frac:.1e}"
        )
    ordered = sorted(TABLE1_RHOS)  # increasing change rate
    for lower, higher in zip(ordered, ordered[1:]):
        assert np.all(thresholds[higher] <= thresholds[lower])
        pooled = math.sqrt(
            (false_alarms[higher] * (1 - false_alarms[higher]) + 1e-12) / n_episodes
            + (false_alarms[lower] * (1 - false_alarms[lower]) + 1e-12) / n_episodes
        )
        assert false_alarms[higher] >= false_alarms[lower] - 3.0 * pooled


def test_criterion_13_csv_determinism(tmp_path):
    """Identical CSVs for 1 vs 8 workers and across reruns."""
    import json

    from modeswitch.cli import main

    body = {
        "environment": {
            "kind": "random-mdp",
            "n_states": 3,
            "n_actions": 2,
            "seed": 3,
            "rho": 0.05,
            "gamma": 0.9,
        },
        "grid_size": 101,
        "n_episodes": 2100,
        "horizon": 60,
        "master_seed": 5,
        "out_dir": str(tmp_path / "a"),
    }
    config = tmp_path / "config.json"
    config.write_text(json.dumps(body))

    def csv_bytes(out):
        return {
            child.name: child.read_bytes()
            for child in sorted(out.iterdir())
            if child.suffix == ".csv"
        }

    assert main(["simulate", "--config", str(config), "--workers", "1"]) == 0
    serial = csv_bytes(tmp_path / "a")
    assert main(["simulate", "--config", str(config), "--workers", "8"]) == 0
    threaded = csv_bytes(tmp_path / "a")
    assert serial == threaded
    assert main(
        ["simulate", "--config", str(config), "--out", str(tmp_path / "b")]
    ) == 0
    rerun = csv_bytes(tmp_path / "b")
    assert serial == rerun
    assert main(["solve", "--config", str(config), "--out", str(tmp_path / "c")]) == 0
    first_solve = csv_bytes(tmp_path / "c")
    assert main(["solve", "--config", str(config), "--out", str(tmp_path / "d")]) == 0
    assert first_solve == csv_bytes(tmp_path / "d")


def test_criterion_14_coupling_is_bitwise_exact():
    """Episodes untouched by both the switch and the change match to the bit."""
    solved = solve_random_cached(CANONICAL_SEED, 0.05, grid_size=301)
    horizon = 40
    never = replace(solved, thresholds=np.ones(solved.env.mdp.n_states))
    batch = run_batch(never, 800, horizon, MASTER_SEED)
    untouched = np.minimum(batch.switch_time, batch.change_point) >= horizon
    count = int(untouched.sum())
    print(f"\n  criterion 14: {count} untouched episodes of 800")
    assert count > 0
    assert np.all(batch.cost_cd[untouched] == batch.cost_mo[untouched])
