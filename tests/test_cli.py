"""Tests for the command-line front end: artifacts, determinism, exit codes."""

import copy
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr
from dataclasses import MISSING, asdict, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modeswitch import cli
from modeswitch.cli import ExperimentConfig, main
from modeswitch.environments import (
    InventorySpec,
    RandomMdpSpec,
    build_inventory,
    gen_random_mdp,
    random_env,
)
from modeswitch.mdp import ModePairMdp
from modeswitch.pipeline import solve_env


def write_config(tmp_path, **overrides):
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
        "n_episodes": 64,
        "horizon": 60,
        "master_seed": 11,
        "out_dir": str(tmp_path / "out"),
        "mixing_k_max": 60,
    }
    body.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(body))
    return path


def checkout_env(**variables):
    """This process's environment with the package of this checkout first on
    ``PYTHONPATH``, and ``variables`` set."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, **variables}


def read_outputs(out_dir):
    return {
        child.name: child.read_bytes()
        for child in sorted(out_dir.iterdir())
        if child.suffix == ".csv"
    }


class TestSolveCommand:
    def test_writes_artifacts_and_manifest(self, tmp_path):
        config = write_config(tmp_path)
        assert main(["solve", "--config", str(config)]) == 0
        out = tmp_path / "out"
        for name in (
            "policies.csv",
            "values.csv",
            "stationary.csv",
            "value_table.csv",
            "thresholds.csv",
            "manifest.json",
        ):
            assert (out / name).exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["solve"]["lambda"] > 0.0
        assert set(manifest["solve"]["cost_rates"]) == {
            "post_in_pre", "pre_in_pre", "pre_in_post", "post_in_post"
        }
        assert manifest["versions"]["modeswitch"]

    def test_reruns_are_byte_identical(self, tmp_path):
        config = write_config(tmp_path)
        assert main(["solve", "--config", str(config)]) == 0
        first = read_outputs(tmp_path / "out")
        assert main(["solve", "--config", str(config)]) == 0
        second = read_outputs(tmp_path / "out")
        assert first == second

    def test_value_table_does_not_depend_on_blas_threads(self, tmp_path):
        config = write_config(
            tmp_path, environment={"kind": "inventory", "capacity": 15, "rho": 0.01}
        )
        tables = []
        for threads in ("1", "2"):
            out = tmp_path / f"blas{threads}"
            env = checkout_env(OPENBLAS_NUM_THREADS=threads)
            command = ["solve", "--config", str(config), "--out", str(out)]
            subprocess.run(
                [sys.executable, "-m", "modeswitch.cli", *command], env=env, check=True, timeout=120
            )
            tables.append((out / "value_table.csv").read_bytes())
        assert tables[0] == tables[1]

    def test_inventory_manifest_lambda(self, tmp_path):
        config = write_config(
            tmp_path,
            environment={
                "kind": "inventory",
                "capacity": 6,
                "shortfall_cost": 100.0,
                "rho": 0.05,
                "gamma": 0.99,
                "order_cost_basis": "order",
            },
            grid_size=51,
        )
        assert main(["solve", "--config", str(config)]) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["solve"]["lambda"] > 0.0


class TestSimulateCommand:
    def test_report_and_episode_csvs(self, tmp_path):
        config = write_config(tmp_path, write_episodes=True)
        assert main(["simulate", "--config", str(config)]) == 0
        out = tmp_path / "out"
        report_lines = (out / "report.csv").read_text().splitlines()
        assert report_lines[0].startswith("rho,lambda,j_mo,j_cd")
        assert len(report_lines) == 2
        episode_lines = (out / "episodes.csv").read_text().splitlines()
        assert len(episode_lines) == 65

    def test_worker_count_invariance(self, tmp_path):
        config = write_config(tmp_path, n_episodes=2100)
        assert main(["simulate", "--config", str(config), "--workers", "1"]) == 0
        serial = read_outputs(tmp_path / "out")
        assert main(["simulate", "--config", str(config), "--workers", "8"]) == 0
        threaded = read_outputs(tmp_path / "out")
        assert serial == threaded

    def test_rho_sweep_rows(self, tmp_path):
        config = write_config(tmp_path, rho_sweep=[0.05, 0.08], n_episodes=32)
        assert main(["simulate", "--config", str(config)]) == 0
        lines = (tmp_path / "out" / "report.csv").read_text().splitlines()
        assert len(lines) == 3


class TestFigureCommand:
    def test_threshold_and_pfa_files(self, tmp_path):
        config = write_config(tmp_path, rho_sweep=[0.05, 0.08], n_episodes=48)
        assert main(["figure1", "--config", str(config)]) == 0
        out = tmp_path / "out"
        threshold_lines = (out / "thresholds.csv").read_text().splitlines()
        assert len(threshold_lines) == 1 + 2 * 3
        pfa_lines = (out / "pfa.csv").read_text().splitlines()
        assert len(pfa_lines) == 3

    def test_requires_sweep(self, tmp_path):
        config = write_config(tmp_path)
        assert main(["figure1", "--config", str(config)]) == 1


class TestMixingCommand:
    def test_profiles_and_nonnegative_slack(self, tmp_path):
        config = write_config(tmp_path)
        assert main(["mixing", "--config", str(config)]) == 0
        out = tmp_path / "out"
        envelope_lines = (out / "mixing_envelope.csv").read_text().splitlines()
        assert len(envelope_lines) == 5
        for line in envelope_lines[1:]:
            cells = line.split(",")
            assert float(cells[-1]) >= 0.0  # min slack
        profile_lines = (out / "mixing_profile.csv").read_text().splitlines()
        assert len(profile_lines) == 1 + 4 * 61

    def test_solves_each_stationary_law_once(self, tmp_path, monkeypatch):
        import modeswitch.chains as chains
        import modeswitch.pipeline as pipeline

        solve = chains.stationary_distribution
        calls = []

        def counting(chain):
            calls.append(chain.transition.tobytes())
            return solve(chain)

        monkeypatch.setattr(chains, "stationary_distribution", counting)
        monkeypatch.setattr(pipeline, "stationary_distribution", counting)
        assert main(["mixing", "--config", str(write_config(tmp_path))]) == 0
        assert len(calls) == 4
        assert len(set(calls)) == 4


    def test_chain_not_shown_to_mix_exits_2_naming_the_stage(self, tmp_path, capsys):
        # Both actions swap the two states before the change, so the chains
        # under the pre-change kernel are periodic: rows of P^m stay at TV
        # distance 1 for every m.  The solve itself is well defined.
        swap = [[[0.0, 1.0], [0.0, 1.0]], [[1.0, 0.0], [1.0, 0.0]]]
        noisy = [[[0.1, 0.9], [0.9, 0.1]], [[0.1, 0.9], [0.9, 0.1]]]
        config = write_config(
            tmp_path,
            environment={
                "kind": "custom-kernels",
                "kernel_pre": swap,
                "kernel_post": noisy,
                "stage_cost": [[0.0, 1.0], [5.0, 6.0]],
                "rho": 0.05,
                "gamma": 0.9,
            },
            mixing_k_max=30,
        )
        assert main(["solve", "--config", str(config)]) == 0
        assert main(["mixing", "--config", str(config)]) == 2
        assert capsys.readouterr().err == (
            "error in stage 'mixing rho=0.05': chain not shown to mix: "
            "rows of P^m are TV 1 apart for all m <= 30\n"
        )

    @pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4 for a child's peak")
    def test_peak_memory_stays_within_the_counted_tables(self, tmp_path):
        # mixing_profile.csv has 4 * (mixing_k_max + 1) rows.  Written in
        # blocks, the command's peak stays under verify_mixing_bound's count,
        # 8 * (3n + 12) bytes per horizon at n = 3 states, above an
        # interpreter that runs the same command at 60 horizons.  Built whole
        # in memory before it was written, the file's lines took about six
        # times the count at 5 * 10**4 horizons.
        def peak(k_max):
            out = tmp_path / f"k{k_max}"
            config = write_config(tmp_path, mixing_k_max=k_max, out_dir=str(out))
            rss = child_peak_rss("mixing", config)
            with open(out / "mixing_profile.csv") as csv:
                assert sum(1 for _ in csv) == 4 * (k_max + 1) + 1
            return rss

        baseline = peak(60)
        k_max = 5 * 10**4
        counted = (k_max + 1) * 8 * (3 * 3 + 12)
        assert peak(k_max) <= baseline + counted

    @pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4 for a child's peak")
    @pytest.mark.parametrize("workers", [1, 2])
    def test_episode_records_stay_within_their_count(self, tmp_path, workers):
        # A simulate with episode records peaks under run_sweep's record
        # count, twice simulate._RECORD_BYTES per episode, above the same
        # command at 1000 episodes.  When every chunk's records were held until all were
        # joined, the heap kept them resident beside the joined batch, and
        # 2 * 10**5 episodes peaked 1.4 to 3.6 MiB over the count.
        from modeswitch import simulate

        def peak(n_episodes):
            out = tmp_path / f"n{n_episodes}"
            config = write_config(
                tmp_path, n_episodes=n_episodes, horizon=2, workers=workers,
                write_episodes=True, out_dir=str(out),
            )
            rss = child_peak_rss("simulate", config)
            with open(out / "episodes.csv") as csv:
                assert sum(1 for _ in csv) == n_episodes + 1
            return rss

        baseline = peak(1000)
        n_episodes = 2 * 10**5
        counted = 2 * n_episodes * simulate._RECORD_BYTES
        assert peak(n_episodes) <= baseline + counted


def child_peak_rss(command, config):
    """Peak resident bytes of ``modeswitch <command> --config <config>``,
    run with the package of this checkout; the command must exit 0.

    The command runs as the child of a fresh interpreter, not of this one:
    Linux carries a process's peak into the ``ru_maxrss`` of a child it
    forks and execs, and this test process is larger than the small runs."""
    env = checkout_env()
    launcher = (
        "import os, subprocess, sys\n"
        "child = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)\n"
        "_, status, usage = os.wait4(child.pid, 0)\n"
        "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n"
    )
    command_line = [sys.executable, "-m", "modeswitch.cli", command, "--config", str(config)]
    launched = subprocess.run(
        [sys.executable, "-c", launcher, *command_line],
        env=env, stdout=subprocess.PIPE, text=True, check=True,
    )
    code, maxrss = map(int, launched.stdout.split())
    assert code == 0
    # ru_maxrss is in bytes on macOS and in KiB elsewhere.
    return maxrss * (1 if sys.platform == "darwin" else 1024)


#: The package's Monte Carlo names, all of them from ``modeswitch.simulate``.
MONTE_CARLO_NAMES = (
    "EpisodeBatch", "RegretCheck", "SimReport", "episode_rng", "regret_consistency",
    "run_batch", "run_sweep", "summarize",
)


def fresh_interpreter(code, *args):
    """Standard output of ``code`` run by a fresh interpreter on the package of
    this checkout, with ``args`` as its ``sys.argv[1:]``."""
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        env=checkout_env(), stdout=subprocess.PIPE, text=True, check=True, timeout=120,
    ).stdout


class TestMonteCarloLoading:
    """The Monte Carlo module loads on first use of one of its names."""

    @pytest.mark.parametrize(
        "command, loads", [("solve", False), ("mixing", False), ("simulate", True)]
    )
    def test_only_monte_carlo_commands_load_simulate(self, tmp_path, command, loads):
        config = write_config(tmp_path, n_episodes=16)
        code = (
            "import sys\n"
            "from modeswitch import cli\n"
            "before = 'modeswitch.simulate' in sys.modules\n"
            "assert cli.main(sys.argv[1:]) == 0\n"
            "print(before, 'modeswitch.simulate' in sys.modules)\n"
        )
        printed = fresh_interpreter(code, command, "--config", str(config))
        assert printed == f"False {loads}\n"

    def test_package_names_stay_public_and_load_on_use(self):
        code = (
            "import sys\n"
            "import modeswitch\n"
            "print('modeswitch.simulate' in sys.modules)\n"
            "from modeswitch import run_batch\n"
            "print('modeswitch.simulate' in sys.modules)\n"
        )
        assert fresh_interpreter(code) == "False\nTrue\n"
        import modeswitch
        from modeswitch import simulate

        for name in MONTE_CARLO_NAMES:
            assert name in modeswitch.__all__ and name in dir(modeswitch)
            assert getattr(modeswitch, name) is getattr(simulate, name)
        assert "simulate" in modeswitch.__all__ and modeswitch.simulate is simulate
        with pytest.raises(AttributeError, match="no attribute 'absent'"):
            modeswitch.absent

    def test_cli_names_are_the_simulate_functions(self):
        from modeswitch import simulate

        for name in ("run_batch", "run_sweep", "summarize"):
            assert getattr(cli, name) is getattr(simulate, name)
        with pytest.raises(AttributeError, match="no attribute 'absent'"):
            cli.absent

    def test_a_replaced_summarize_is_the_one_simulate_calls(self, tmp_path, monkeypatch):
        # simulate and figure1 write the paired regret that the replaced
        # summarize returns for each rate's batch into that rate's manifest
        # run, the same on one worker and on two.
        summarize = cli.summarize
        expected = []
        for rho in (0.05, 0.08):
            spec = RandomMdpSpec(n_states=3, n_actions=2, seed=3, change_rate=rho, discount=0.9)
            report = summarize(cli.run_batch(solve_env(random_env(spec), 101), 16, 60, 11))
            expected.append((report.regret, report.stderr_regret))
        reports = []

        def recording(batch):
            reports.append(summarize(batch))
            return reports[-1]

        monkeypatch.setattr(cli, "summarize", recording)
        config = write_config(tmp_path, rho_sweep=[0.05, 0.08], n_episodes=16)
        for command in ("simulate", "figure1"):
            for workers in ("1", "2"):
                reports.clear()
                assert main([command, "--config", str(config), "--workers", workers]) == 0
                assert [report.n_episodes for report in reports] == [16, 16]
                runs = json.loads((tmp_path / "out" / "manifest.json").read_text())[command]
                paired = [(run["regret"], run["stderr_regret"]) for run in runs]
                assert paired == [(report.regret, report.stderr_regret) for report in reports]
                assert paired == expected
        assert all(stderr > 0.0 for _, stderr in expected)


class TestCsvWriter:
    def test_cell_formats(self, tmp_path):
        floats = [-0.0, math.nan, math.inf, -math.inf, 5e-324, 1e300, 0.1, 2.0**53 + 1]
        ints = [0, -1, 7, 2**53 + 1, -(2**63), 2**63 - 1, 42, -42]
        flags = [True, False] * 4
        path = tmp_path / "cells.csv"
        cli._write_csv(
            path,
            ["flag", "int64", "intp", "float"],
            [
                np.array(flags),
                np.array(ints, dtype=np.int64),
                np.array(ints[::-1], dtype=np.intp),
                np.array(floats),
            ],
        )
        expected = ["flag,int64,intp,float"] + [
            f"{int(flag)},{a},{b},{format(x, '.17g')}"
            for flag, a, b, x in zip(flags, ints, ints[::-1], floats)
        ]
        assert path.read_bytes() == ("\n".join(expected) + "\n").encode()
        assert [line.split(",")[3] for line in expected[1:]] == [
            "-0", "nan", "inf", "-inf", "4.9406564584124654e-324",
            "1.0000000000000001e+300", "0.10000000000000001", "9007199254740992",
        ]
        assert expected[4].split(",")[1] == "9007199254740993"

    def test_header_only_without_rows(self, tmp_path):
        path = tmp_path / "empty.csv"
        cli._write_csv(path, ["a", "b"], [np.array([], dtype=np.intp), np.array([])])
        assert path.read_bytes() == b"a,b\n"


class TestErrorPaths:
    def test_unknown_key_is_config_error(self, tmp_path):
        config = write_config(tmp_path, typo_key=1)
        assert main(["solve", "--config", str(config)]) == 1

    def test_zero_episodes_is_config_error(self, tmp_path, capsys):
        config = write_config(tmp_path, n_episodes=0)
        assert main(["simulate", "--config", str(config)]) == 1
        assert "no episodes requested" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path):
        assert main(["solve", "--config", str(tmp_path / "nope.json")]) == 1

    def test_an_out_dir_that_cannot_be_made_names_the_setup_stage(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        config = write_config(tmp_path, out_dir=str(taken))
        assert main(["solve", "--config", str(config)]) == 2
        assert capsys.readouterr().err.startswith("error in stage 'setup': ")

    @pytest.mark.parametrize("command", ["simulate", "figure1"])
    def test_failure_names_the_swept_rate(self, tmp_path, capsys, monkeypatch, command):
        solve_env = cli.solve_env
        calls = []

        def second_rate_fails(*args, **kwargs):
            calls.append(None)
            if len(calls) == 2:
                raise FloatingPointError("overflow in the kernel")
            return solve_env(*args, **kwargs)

        monkeypatch.setattr(cli, "solve_env", second_rate_fails)
        config = write_config(tmp_path, rho_sweep=[0.05, 0.08], n_episodes=16)
        assert main([command, "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err == f"error in stage '{command} rho=0.08': overflow in the kernel\n"

    @pytest.mark.parametrize("command", ["simulate", "figure1"])
    def test_monte_carlo_failure_names_every_swept_rate(
        self, tmp_path, capsys, monkeypatch, command
    ):
        def broken(*args, **kwargs):
            raise FloatingPointError("overflow in the kernel")

        monkeypatch.setattr(cli, "run_sweep", broken)
        config = write_config(tmp_path, rho_sweep=[0.05, 0.08], n_episodes=16)
        assert main([command, "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err == f"error in stage '{command} rho=0.05,0.08': overflow in the kernel\n"
        assert not any((tmp_path / "out").glob("*.csv"))

    def test_mixing_failure_names_the_rate(self, tmp_path, capsys, monkeypatch):
        def broken(*args):
            raise np.linalg.LinAlgError("singular chain")

        monkeypatch.setattr(cli, "verify_mixing_bound", broken)
        assert main(["mixing", "--config", str(write_config(tmp_path))]) == 2
        assert capsys.readouterr().err == "error in stage 'mixing rho=0.05': singular chain\n"

    def test_seeding_that_drifts_from_numpy_writes_nothing(self, tmp_path, capsys, monkeypatch):
        from modeswitch import _seeding

        monkeypatch.setattr(_seeding, "_MIX_MULT_L", _seeding._MIX_MULT_L + np.uint32(2))
        assert main(["simulate", "--config", str(write_config(tmp_path))]) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            f"error in stage 'simulate rho=0.05': numpy {np.__version__} seeds episode streams"
        )
        assert err.count("\n") == 1
        assert not (tmp_path / "out" / "report.csv").exists()

    def test_a_demand_rate_too_large_to_truncate_exits_2(self, tmp_path, capsys):
        # The spec is valid; its Poisson demand pmf fails while the kernels
        # are built.
        config = write_config(
            tmp_path, environment={"kind": "inventory", "capacity": 3, "demand_rate": 1e6}
        )
        assert main(["solve", "--config", str(config)]) == 2
        assert capsys.readouterr().err == (
            "error in stage 'solve': demand pmf truncation did not terminate; rate too large\n"
        )

    def test_undefined_weight_is_numerical_error(self, tmp_path, capsys):
        # Identical kernels give identical policies, so the numerator gap is zero.
        kernel = [[[0.7, 0.3], [0.4, 0.6]], [[0.5, 0.5], [0.2, 0.8]]]
        config = write_config(
            tmp_path,
            environment={
                "kind": "custom-kernels",
                "kernel_pre": kernel,
                "kernel_post": kernel,
                "stage_cost": [[1.0, 0.4], [0.8, 0.2]],
                "rho": 0.05,
                "gamma": 0.9,
            },
        )
        assert main(["solve", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error in stage 'solve rho=0.05': ")
        assert "numerator nonpositive" in err

    @pytest.mark.parametrize(
        ("budget", "solver"),
        [
            ("modeswitch.mdp.DEFAULT_VI_MAX_ITER", "value iteration"),
            ("modeswitch.detector.DEFAULT_FP_MAX_ITER", "stopping-operator iteration"),
        ],
    )
    def test_a_spent_solver_budget_exits_2_naming_the_stage(
        self, tmp_path, capsys, monkeypatch, budget, solver
    ):
        # The solvers read their budgets when they run, so a lowered one binds.
        monkeypatch.setattr(budget, 2)
        config = write_config(tmp_path)
        assert main(["solve", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            f"error in stage 'solve rho=0.05': {solver} did not converge (last residual "
        )
        assert err.count("\n") == 1

    def test_oversized_belief_stencil_is_refused_up_front(self, tmp_path, capsys):
        # 16 states at grid 10**7: an 80 MB grid but a 47 GB operator stencil,
        # two 16-byte terms per grid point for each (state, next state) pair
        # possible under either kernel (146 of the 256).
        grid_size = 10**7
        env = build_inventory(InventorySpec(capacity=15, change_rate=0.01))
        dyn = solve_env(env, grid_size=2).dyn
        pairs = int(np.count_nonzero((dyn.kernel_pre > 0.0) | (dyn.kernel_post > 0.0)))
        needed = grid_size * pairs * 2 * 16
        if needed <= os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE"):
            pytest.skip("this host's physical memory would hold the stencil")
        config = write_config(
            tmp_path,
            environment={"kind": "inventory", "capacity": 15, "rho": 0.01},
            grid_size=grid_size,
        )
        assert main(["solve", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert "error in stage 'solve rho=0.01'" in err
        assert f"needs {needed} bytes" in err
        assert "Traceback" not in err

    def test_grid_size_is_sized_before_the_grid_is_built(self, tmp_path, capsys, monkeypatch):
        # 4 MB of physical memory: a 10**6-point grid's stencil (288 MB for
        # three dense states) and even the grid itself (40 MB) do not fit.
        from modeswitch.detector import BeliefGrid

        pages = {"SC_PHYS_PAGES": 1024, "SC_PAGE_SIZE": 4096}
        monkeypatch.setattr(os, "sysconf", pages.__getitem__)
        built = []
        uniform = BeliefGrid.uniform.__func__

        def spy(cls, size):
            built.append(size)
            return uniform(cls, size)

        monkeypatch.setattr(BeliefGrid, "uniform", classmethod(spy))
        config = write_config(tmp_path, grid_size=10**6)
        assert main(["solve", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            "error in stage 'solve rho=0.05': belief operator stencil for grid 1000000"
        )
        assert "more than the 4194304 bytes of physical memory" in err
        assert err.count("\n") == 1
        assert 10**6 not in built

    def test_episode_records_are_sized_before_any_chunk_runs(self, tmp_path, capsys, monkeypatch):
        # 4 MB of physical memory holds the kernels and the stencil, but not
        # 10**6 episodes' records (50 bytes each, held twice while joined).
        from modeswitch import simulate

        pages = {"SC_PHYS_PAGES": 1024, "SC_PAGE_SIZE": 4096}
        monkeypatch.setattr(os, "sysconf", pages.__getitem__)
        chunks = []
        monkeypatch.setattr(simulate, "_run_chunk", lambda *args: chunks.append(args))
        config = write_config(tmp_path, n_episodes=10**6)
        assert main(["simulate", "--config", str(config)]) == 2
        assert capsys.readouterr().err == (
            "error in stage 'simulate rho=0.05': 1 x 1000000 episode records need "
            "100000000 bytes, more than the 4194304 bytes of physical memory\n"
        )
        assert not chunks

    def test_mixing_k_max_is_sized_before_any_matrix_power(self, tmp_path, capsys, monkeypatch):
        # 4 MB of physical memory holds the kernels and the stencil, but not
        # the mixing tables of 10**5 horizons (168 bytes each at three states).
        from modeswitch import chains

        pages = {"SC_PHYS_PAGES": 1024, "SC_PAGE_SIZE": 4096}
        monkeypatch.setattr(os, "sysconf", pages.__getitem__)
        profiles = []
        monkeypatch.setattr(chains, "mixing_profile", lambda *args: profiles.append(args))
        config = write_config(tmp_path, mixing_k_max=10**5)
        assert main(["mixing", "--config", str(config)]) == 2
        assert capsys.readouterr().err == (
            "error in stage 'mixing rho=0.05': mixing tables for mixing_k_max 100000 need "
            "16800168 bytes, more than the 4194304 bytes of physical memory\n"
        )
        assert not profiles

    @pytest.mark.parametrize(
        ("environment", "message"),
        [
            (
                {"kind": "random-mdp", "n_states": 60},
                "random-mdp): kernels of 60 states x 3 actions need 183600 bytes",
            ),
            (
                {"kind": "inventory", "capacity": 10},
                "inventory): kernels of 11 states x 11 actions need 22627 bytes",
            ),
        ],
        ids=["random-mdp", "inventory"],
    )
    def test_kernels_are_sized_before_they_are_built(
        self, tmp_path, capsys, monkeypatch, environment, message
    ):
        # 16 KiB of physical memory: two float64 kernels and one bool entry
        # each, 17 bytes per (state, action, next state), do not fit.
        pages = {"SC_PHYS_PAGES": 4, "SC_PAGE_SIZE": 4096}
        monkeypatch.setattr(os, "sysconf", pages.__getitem__)
        config = write_config(tmp_path, environment=environment)
        assert main(["solve", "--config", str(config)]) == 1
        assert capsys.readouterr().err == (
            f"config error: environment ({message}, "
            "more than the 16384 bytes of physical memory\n"
        )

    @pytest.mark.parametrize(
        ("overrides", "args", "message"),
        [
            ({"grid_size": "big"}, [], "grid_size must be an integer"),
            ({"rho_sweep": "abc"}, [], "rho_sweep must be a list of numbers or null"),
            ({"workers": 2.5}, [], "workers must be an integer"),
            ({"n_episodes": True}, [], "n_episodes must be an integer"),
            ({"horizon": 0}, [], "horizon must be at least 1"),
            (
                {"horizon": 10**20},
                [],
                "horizon must be at most 2**63 - 1, got 100000000000000000000",
            ),
            ({}, ["--workers", "0"], "workers must be at least 1"),
            ({"environment": {"kind": ["random-mdp"]}}, [], "unknown environment kind"),
            (
                {"environment": {"kind": "custom-kernels", "kernel_post": [[[1.0]]]}},
                [],
                "environment (custom-kernels) is missing keys: kernel_pre, stage_cost",
            ),
            (
                {"environment": {"kind": "random-mdp", "n_states": "5"}},
                [],
                'environment n_states must be an integer, got "5"',
            ),
            (
                {"environment": {"kind": "random-mdp", "rho": 1.5}},
                [],
                "environment rho must lie in (0, 1), got 1.5",
            ),
            ({"rho_sweep": [0.05, 1.5]}, [], "rho_sweep values must lie in (0, 1), got 1.5"),
            ({}, ["--seed", "-1"], "master_seed must be non-negative"),
            ({"mixing_k_max": 0}, [], "mixing_k_max must be at least 1"),
            ({"write_episodes": "no"}, [], 'write_episodes must be true or false, got "no"'),
            (
                {"environment": {"kind": "random-mdp", "n_states": 0}},
                [],
                "environment (random-mdp): n_states and n_actions must be at least 1",
            ),
            (
                {"environment": {"kind": "inventory", "capacity": -2}},
                [],
                "environment (inventory): capacity must be at least 1",
            ),
            (
                {"environment": {"kind": "inventory", "order_cost_basis": "units"}},
                [],
                "environment (inventory): order_cost_basis must be 'stock' or 'order'",
            ),
            (
                {
                    "environment": {
                        "kind": "custom-kernels",
                        "kernel_pre": [[[0.6, 0.5], [1.0, 0.0]], [[0.5, 0.5], [0.0, 1.0]]],
                        "kernel_post": [[[0.5, 0.5], [1.0, 0.0]], [[0.5, 0.5], [0.0, 1.0]]],
                        "stage_cost": [[1.0, 2.0], [3.0, 4.0]],
                    }
                },
                [],
                "environment (custom-kernels): kernel_pre rows must sum to 1",
            ),
            (
                {
                    "environment": {
                        "kind": "custom-kernels",
                        "kernel_pre": [[[math.nan, 1.0], [1.0, 0.0]], [[0.5, 0.5], [0.0, 1.0]]],
                        "kernel_post": [[[0.5, 0.5], [1.0, 0.0]], [[0.5, 0.5], [0.0, 1.0]]],
                        "stage_cost": [[1.0, 2.0], [3.0, 4.0]],
                    }
                },
                [],
                "environment (custom-kernels): kernel_pre has non-finite entries",
            ),
            (
                {"environment": {"kind": "random-mdp", "seed": -1}},
                [],
                "environment (random-mdp): seed must be non-negative",
            ),
        ],
        ids=[
            "grid-size-string",
            "rho-sweep-string",
            "workers-float",
            "episodes-bool",
            "horizon-zero",
            "horizon-above-int64",
            "workers-flag-zero",
            "kind-list",
            "missing-kernels",
            "env-int-string",
            "env-rho-above-one",
            "rho-sweep-above-one",
            "seed-flag-negative",
            "mixing-k-max-zero",
            "write-episodes-string",
            "env-no-states",
            "env-negative-capacity",
            "env-unknown-cost-basis",
            "env-rows-above-one",
            "env-kernel-nan",
            "env-seed-negative",
        ],
    )
    def test_invalid_config_exits_1_with_one_line(self, tmp_path, capsys, overrides, args, message):
        config = write_config(tmp_path, **overrides)
        assert main(["simulate", "--config", str(config), *args]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err
        assert err.count("\n") == 1

    def test_a_json_array_is_not_a_config(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text("[1, 2]")
        assert main(["solve", "--config", str(config)]) == 1
        assert capsys.readouterr().err == "config error: config must be a JSON object\n"

    def test_the_largest_horizon_is_int64_max(self, tmp_path):
        # The Monte Carlo records a switch time as an int64, so 2**63 - 1
        # loads and 2**63 is a config error (nothing runs either horizon).
        largest = 2**63 - 1
        assert cli.load_config(write_config(tmp_path, horizon=largest)).horizon == largest
        with pytest.raises(cli.ConfigError, match=r"at most 2\*\*63 - 1, got 9223372036854775808$"):
            cli.load_config(write_config(tmp_path, horizon=largest + 1))

    @pytest.mark.parametrize(
        ("overrides", "message"),
        [
            ({"vi_tol": 1e-10}, "unknown keys in config: vi_tol"),
            ({"vi_max_iter": 2_000_000}, "unknown keys in config: vi_max_iter"),
            ({"fp_tol": 1e-9}, "unknown keys in config: fp_tol"),
            ({"fp_max_iter": 1_000_000}, "unknown keys in config: fp_max_iter"),
            (
                {"environment": {"kind": "inventory", "demand_tail_eps": 1e-12}},
                "unknown keys in environment (inventory): demand_tail_eps",
            ),
        ],
        ids=["vi-tol", "vi-max-iter", "fp-tol", "fp-max-iter", "demand-tail-eps"],
    )
    def test_solver_constants_are_unknown_keys(self, tmp_path, capsys, overrides, message):
        # Solver tolerances, budgets and the demand truncation are constants
        # of the library, not settings: a config that sets one is refused.
        config = write_config(tmp_path, **overrides)
        assert main(["solve", "--config", str(config)]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"


class TestManifestConfig:
    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    def test_config_echo_is_the_loaded_config(self, tmp_path, command):
        # The echo holds every config key and nothing else, so a key the
        # schema drops cannot linger in the manifest.
        config = write_config(tmp_path, rho_sweep=[0.05, 0.08])
        assert main([command, "--config", str(config)]) == 0
        echo = json.loads((tmp_path / "out" / "manifest.json").read_text())["config"]
        assert set(echo) == cli._TOP_KEYS
        assert echo == json.loads(json.dumps(asdict(cli.load_config(config))))


class TestConfigSchema:
    def test_accepted_keys(self):
        assert cli._TOP_KEYS == {
            "environment",
            "grid_size",
            "rho_sweep",
            "n_episodes",
            "horizon",
            "master_seed",
            "workers",
            "out_dir",
            "mixing_k_max",
            "write_episodes",
        }
        assert cli._ENV_KEYS == {
            "random-mdp": {"kind", "n_states", "n_actions", "seed", "rho", "gamma"},
            "inventory": {
                "kind",
                "capacity",
                "order_cost",
                "holding_cost",
                "shortfall_cost",
                "demand_rate",
                "rho",
                "gamma",
                "order_cost_basis",
            },
            "custom-kernels": {"kind", "kernel_pre", "kernel_post", "stage_cost", "rho", "gamma"},
        }

    @pytest.mark.parametrize("kind", ["random-mdp", "inventory", "custom-kernels"])
    def test_spelled_out_defaults_change_nothing(self, tmp_path, kind):
        # A config that leaves optional keys out solves exactly like one that
        # gives each at its dataclass default, so no other default is in play.
        mdp = gen_random_mdp(RandomMdpSpec(n_states=3, n_actions=2, seed=0))
        spec, given = {
            "random-mdp": (RandomMdpSpec, {"seed": 10}),  # seed 0 has no weight
            "inventory": (InventorySpec, {}),
            "custom-kernels": (
                ModePairMdp,
                {
                    "kernel_pre": mdp.kernel_pre.tolist(),
                    "kernel_post": mdp.kernel_post.tolist(),
                    "stage_cost": mdp.stage_cost.tolist(),
                },
            ),
        }[kind]
        renamed = {"change_rate": "rho", "discount": "gamma"}
        minimal = {"environment": {"kind": kind, **given}}
        spelled = {
            **{f.name: f.default for f in fields(ExperimentConfig) if f.default is not MISSING},
            "environment": {
                **{
                    renamed.get(f.name, f.name): f.default
                    for f in fields(spec)
                    if f.default is not MISSING
                },
                **minimal["environment"],
            },
        }
        results = []
        for name, body in (("minimal", minimal), ("spelled", spelled)):
            out = tmp_path / name
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({**body, "out_dir": str(out)}))
            assert main(["solve", "--config", str(path)]) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            results.append((read_outputs(out), manifest["solve"], manifest["label"]))
        assert results[0] == results[1]


#: The README config shrunk to a quick run, and a two-state custom-kernels one.
_PROPERTY_BASES = (
    {
        "environment": {
            "kind": "random-mdp", "n_states": 5, "n_actions": 3, "seed": 10,
            "rho": 0.01, "gamma": 0.999,
        },
        "grid_size": 21,
        "n_episodes": 8,
        "horizon": 5,
        "rho_sweep": [0.01, 0.0078, 0.006, 0.0046, 0.0036, 0.0028],
        "master_seed": 7,
        "workers": 2,
    },
    {
        "environment": {
            "kind": "custom-kernels",
            "kernel_pre": [[[0.8, 0.2], [0.1, 0.9]], [[0.7, 0.3], [0.2, 0.8]]],
            "kernel_post": [[[0.8, 0.2], [0.5, 0.5]], [[0.3, 0.7], [0.4, 0.6]]],
            "stage_cost": [[0.0, 0.1], [0.7, 0.6]],
            "rho": 0.05,
            "gamma": 0.9,
        },
        "grid_size": 21,
        "n_episodes": 8,
        "horizon": 5,
    },
)

#: Values of a wrong JSON type for most keys, non-finite numbers, 0 and -1.
#: Huge values are left out: horizon only adds work, and every other size
#: (kernels, grid, mixing_k_max, n_episodes) is checked against physical
#: memory, so a size just under that limit would really allocate.
_BAD_VALUES = ("x", [], {}, True, None, math.nan, math.inf, -math.inf, 0, -1)


def _leaves(path, value):
    """Paths of the numbers nested in the list ``value`` at ``path``."""
    if not isinstance(value, list):
        return [path]
    return [leaf for index, item in enumerate(value) for leaf in _leaves((*path, index), item)]


def _mutation_paths(body):
    """Every top-level key but out_dir (``--out`` overrides it), every
    environment key of the kind, and every number in a list."""
    env = body["environment"]
    paths = [(key,) for key in sorted(cli._TOP_KEYS - {"out_dir"})]
    paths += [("environment", key) for key in sorted(cli._ENV_KEYS[env["kind"]])]
    lists = {("rho_sweep",): body.get("rho_sweep")}
    lists.update((("environment", key), value) for key, value in env.items())
    for path, value in lists.items():
        if isinstance(value, list):
            paths += _leaves(path, value)
    return paths


class TestConfigProperty:
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_mutated_config_exits_cleanly(self, data):
        body = data.draw(st.sampled_from(_PROPERTY_BASES))
        path = data.draw(st.sampled_from(_mutation_paths(body)))
        value = data.draw(st.sampled_from(_BAD_VALUES))
        command = data.draw(st.sampled_from(sorted(cli._COMMANDS)))
        body = copy.deepcopy(body)
        node = body
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        with tempfile.TemporaryDirectory() as scratch:
            config = Path(scratch) / "config.json"
            config.write_text(json.dumps(body))
            err = io.StringIO()
            with redirect_stderr(err):
                code = main([command, "--config", str(config), "--out", str(Path(scratch) / "out")])
        err = err.getvalue()
        assert code in (0, 1, 2), (path, value, command)
        if code:
            assert err.count("\n") == 1 and "Traceback" not in err, (path, value, err)
        if code == 1:
            assert err.startswith("config error: "), (path, value, err)
        if code == 2:
            assert re.match(r"error in stage '[^']+': ", err), (path, value, err)
