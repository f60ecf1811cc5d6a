"""Benchmark of the modeswitch CLI: end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Each workload (see ``workloads.py`` and ``README.md``) is one CLI command run
as a child process, one at a time.  With ``--trace 0`` the benchmark times
set-up probes and then repeats the untraced command while another repetition
still fits in ``--seconds`` (at least once), and reports medians of the
end-to-end metrics.  With ``--trace 1`` it runs the command once untraced and
once under ``child.py trace``, and reports the per-layer metrics.  Every
execution's outputs are checked against ``reference/``.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``; details go to ``.bench_out/``.

    python3 bench/run.py --write-reference [--scale smoke]

re-creates the stored reference outputs from the current source.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import check
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_out"
REFERENCE = BENCH_DIR / "reference"

SETUP_PROBES = 9
# Every child is killed at this point after start, so the run ends within 180 s.
DEADLINE_S = 170.0
# Keep numpy's BLAS to one thread: the only parallelism is the CLI's own
# `workers` (2 on mc-long), so no run uses more threads than the 2 cores.
CHILD_ENV_OVERRIDES = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


@dataclass
class Execution:
    argv: list[str]
    start: float
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(CHILD_ENV_OVERRIDES)
    return env


def spawn(argv: list[str], log_path: Path, deadline: float) -> Execution:
    """Run one child to completion; its own rusage gives CPU time and peak RSS."""
    with open(log_path, "w") as log:
        start = time.monotonic()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(max(deadline - start, 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            end = time.monotonic()
            proc.returncode = os.waitstatus_to_exitcode(status)
        except ChildProcessError:  # reaped by the timer's kill
            end, usage = time.monotonic(), None
            proc.returncode = -9
        finally:
            timer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    if usage is None:
        return Execution(argv, start, end - start, 0.0, 0.0, proc.returncode)
    return Execution(
        argv,
        start,
        end - start,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024.0,
        proc.returncode,
    )


def environment() -> dict:
    def version(package: str) -> str:
        try:
            return importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            return "absent"

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git_sha": git_sha(),
        "loadavg": list(os.getloadavg()),
        "platform": platform.platform(),
    }


def git_sha() -> str:
    """HEAD of the checkout, read from its own .git without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def quartiles(values: list[float]) -> dict:
    if len(values) > 1:
        q1, q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q2 = q3 = values[0]
    return {"n": len(values), "q1": q1, "median": statistics.median(values), "q3": q3}


class Run:
    """One benchmark invocation: its scratch directory and every child it starts."""

    def __init__(self, workload: str, scale: str, seed: int, tag: str):
        self.workload = workload
        self.scale = scale
        self.seed = seed
        self.dir = OUT_ROOT / f"{tag}-{os.getpid()}"
        if self.dir.exists():
            shutil.rmtree(self.dir)
        self.dir.mkdir(parents=True)
        self.config = workloads.config(workload, scale, seed)
        self.config_path = self.dir / "config.json"
        self.config_path.write_text(json.dumps(self.config, indent=1) + "\n")
        self.deadline = time.monotonic() + DEADLINE_S
        self.executions: list[dict] = []
        self.failures = 0

    def setup_probe(self, index: int) -> float:
        stamp = self.dir / f"setup{index}.stamp"
        argv = [sys.executable, str(BENCH_DIR / "child.py"), "setup", str(self.config_path), str(stamp)]
        run = spawn(argv, self.dir / f"setup{index}.log", self.deadline)
        if run.exit_code != 0:
            raise RuntimeError(f"set-up probe failed, see {self.dir / f'setup{index}.log'}")
        return float(stamp.read_text()) - run.start

    def launch(self, traced: bool, index: int) -> tuple[Execution, Path, dict | None]:
        """Run the workload command once; the trace is None when untraced or failed."""
        out = self.dir / f"exec{index}"
        cli_args = [workloads.command(self.workload), "--config", str(self.config_path), "--out", str(out)]
        trace_path = self.dir / f"exec{index}.trace.json"
        if traced:
            argv = [sys.executable, str(BENCH_DIR / "child.py"), "trace", str(trace_path), str(self.seed), *cli_args]
        else:
            argv = [sys.executable, "-m", "modeswitch.cli", *cli_args]
        run = spawn(argv, self.dir / f"exec{index}.log", self.deadline)
        trace = json.loads(trace_path.read_text()) if traced and trace_path.is_file() else None
        return run, out, trace

    def execute(self, traced: bool) -> tuple[Execution, Path, dict | None]:
        """Run the workload command once and check its outputs."""
        index = len(self.executions)
        run, out, trace = self.launch(traced, index)
        if run.exit_code != 0:
            problems = [f"exit code {run.exit_code}, see {self.dir / f'exec{index}.log'}"]
        else:
            problems = check.check_outputs(
                out,
                REFERENCE / self.scale / self.workload,
                seed_free=self.seed != workloads.REFERENCE_SEED,
                fp_tol=self.config.get("fp_tol", 1e-9),
                solves=trace["solves"] if trace else None,
            )
        self.failures += bool(problems)
        self.executions.append({**asdict(run), "traced": traced, "problems": problems})
        status = "ok" if not problems else "FAILED: " + "; ".join(problems[:5])
        print(
            f"execution {index} ({'traced' if traced else 'untraced'}): wall {run.wall_s:.3f} s, "
            f"cpu {run.cpu_s:.3f} s, peak rss {run.peak_rss_mb:.1f} MB, {status}",
            flush=True,
        )
        return run, out, trace


def end_to_end(run: Run, seconds: float) -> tuple[dict, dict]:
    start = time.monotonic()
    run.setup_probe(0)  # warm-up: byte-code and file caches
    setups = [run.setup_probe(i) for i in range(1, SETUP_PROBES + 1)]
    walls: list[float] = []
    cpus: list[float] = []
    rss: list[float] = []
    while True:
        execution, out, _ = run.execute(traced=False)
        shutil.rmtree(out, ignore_errors=True)
        walls.append(execution.wall_s)
        cpus.append(execution.cpu_s)
        rss.append(execution.peak_rss_mb)
        if time.monotonic() - start + statistics.median(walls) > seconds:
            break
    summary = {"setup_s": quartiles(setups), "wall_s": quartiles(walls), "cpu_s": quartiles(cpus), "peak_rss_mb": quartiles(rss)}
    metrics = {name: stats["median"] for name, stats in summary.items()}
    return metrics, summary


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (_, start, end, _, _) in enumerate(spans)]


def layer_metrics(trace: dict, traced: Execution, untraced: Execution, out: Path) -> tuple[dict, dict]:
    spans = trace["spans"]
    own = [span for span in spans if not span[4].get("probe")]
    own_selfs = [(span[0], s) for span, s in zip(spans, self_times(spans)) if not span[4].get("probe")]

    def total(name: str, group: list[list] = own) -> float:
        return sum(span[2] - span[1] for span in group if span[0] == name)

    module_self: dict[str, float] = {}
    for name, s in own_selfs:
        module = name.split(".")[0]
        module_self[module] = module_self.get(module, 0.0) + s

    fixed_points = [span for span in own if span[0] == "detector.solve_fixed_point"]
    fp_s = total("detector.solve_fixed_point")
    iterations = sum(span[4]["iterations"] for span in fixed_points)
    stencil_terms = sum(span[4]["iterations"] * span[4]["grid"] * span[4]["n_states"] ** 2 for span in fixed_points)

    batches = [span for span in own if span[0] == "simulate.run_batch"]
    batch_source = "command"
    if not batches:
        batches = [span for span in spans if span[0] == "simulate.run_batch"]
        batch_source = "probe"
    batch_s = total("simulate.run_batch", batches)
    episode_steps = sum(span[4]["episode_steps"] for span in batches)
    report = out / "report.csv"
    if report.is_file():
        fractions = [float(row["truncated_frac"]) for row in check.read_rows(report)]
        truncated_frac = sum(fractions) / len(fractions)
    else:
        truncated_frac = sum(span[4]["truncated"] for span in batches) / sum(span[4]["episodes"] for span in batches)

    traced_wall = traced.wall_s - trace["probe_s"]
    traced_setup = trace["main_start"] - traced.start
    metrics = {
        "detector.fixed_point_s": fp_s,
        "detector.fixed_point_iters": iterations,
        "detector.apply_us": fp_s / iterations * 1e6,
        "detector.stencil_terms_per_s": stencil_terms / fp_s,
        "detector.operator_build_s": trace["operator_build_s"],
        "detector.thresholds_s": total("detector.extract_thresholds"),
        "pipeline.solve_env_s": total("pipeline.solve_env"),
        "pipeline.self_s": module_self["pipeline"],
        "simulate.run_batch_s": batch_s,
        "simulate.episode_steps": episode_steps,
        "simulate.ns_per_episode_step": batch_s / episode_steps * 1e9,
        "simulate.rng_s": trace["rng_s"],
        "simulate.cpu_per_wall": sum(span[4]["cpu_s"] for span in batches) / batch_s,
        "simulate.truncated_frac": truncated_frac,
        "mdp.value_iteration_s": total("mdp.value_iteration"),
        "chains.stationary_s": total("chains.stationary_distribution"),
        "regret.weight_s": total("regret.false_alarm_weight"),
        "environments.build_s": total("environments.random_env") + total("environments.build_inventory"),
        "cli.write_s": sum(s for name, s in own_selfs if name.startswith("cli.cmd_")),
        "cli.bytes_written": sum(path.stat().st_size for path in out.iterdir()),
        "cli.load_config_s": total("cli.load_config"),
        "trace.wall_s": traced_wall,
        "trace.setup_s": traced_setup,
        "trace.overhead_s": traced_wall - untraced.wall_s,
        "trace.coverage": (traced_setup + sum(module_self.values())) / traced_wall,
    }
    details = {
        "module_self_s": module_self,
        "simulate_source": batch_source,
        "rng_calls": trace["rng_calls"],
        "spans": [{"name": n, "start": s, "end": e, "parent": p, **a} for n, s, e, p, a in spans],
    }
    return metrics, details


def traced_layers(run: Run) -> tuple[dict, dict]:
    untraced, out, _ = run.execute(traced=False)
    shutil.rmtree(out, ignore_errors=True)
    traced, out, trace = run.execute(traced=True)
    if trace is None or trace["exit_code"] != 0:
        raise RuntimeError(f"traced execution failed, see {run.dir}")
    metrics, details = layer_metrics(trace, traced, untraced, out)
    shutil.rmtree(out, ignore_errors=True)
    print("module self times (s): " + json.dumps({k: round(v, 4) for k, v in details["module_self_s"].items()}))
    return metrics, details


def write_references(scale: str) -> int:
    for name in workloads.WORKLOADS:
        run = Run(name, scale, workloads.REFERENCE_SEED, f"reference-{scale}-{name}")
        execution, out, trace = run.launch(traced=True, index=0)
        if execution.exit_code != 0:
            print(f"{name}: exit code {execution.exit_code}, see {run.dir}", file=sys.stderr)
            return 1
        check.write_reference(out, REFERENCE / scale / name, trace["solves"])
        shutil.rmtree(run.dir)
        print(f"{name}: reference written ({execution.wall_s:.1f} s)")
    return 0


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=workloads.SCALES, default="full")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "modeswitch" / "__init__.py").is_file():
        print(f"bench: no modeswitch sources under {SRC}", file=sys.stderr)
        return 2
    if args.write_reference:
        return write_references(args.scale)
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    spec = load_spec()
    kind = "per_layer" if args.trace else "end_to_end"
    units = {metric["name"]: metric["unit"] for metric in spec[kind]}
    env = environment()
    print(f"bench: workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} scale={args.scale}")
    print("environment: " + json.dumps(env), flush=True)

    tag = f"{args.workload}-{args.scale}-seed{args.seed}-trace{args.trace}"
    run = Run(args.workload, args.scale, args.seed, tag)
    if args.trace:
        values, details = traced_layers(run)
    else:
        values, details = end_to_end(run, args.seconds)
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(values)} do not match BENCHMARK.json {sorted(units)}")

    attempted = len(run.executions)
    result = {
        "correct": run.failures == 0,
        "attempted": attempted,
        "failed": run.failures,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    detail_path = OUT_ROOT / f"{tag}.json"
    detail_path.write_text(
        json.dumps(
            {
                "args": vars(args),
                "environment": env,
                "config": run.config,
                "failed_frac": run.failures / attempted,
                "executions": run.executions,
                "details": details,
                "result": result,
            },
            indent=1,
        )
        + "\n"
    )
    if run.failures == 0:
        shutil.rmtree(run.dir)
    print(f"details: {detail_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
