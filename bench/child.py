"""Child-process side of the benchmark.  Needs the checkout's ``src`` on PYTHONPATH.

    python3 bench/child.py setup <config> <stamp-file>
        Import the CLI and load the config, then write the monotonic clock to
        <stamp-file>: the parent's spawn-to-stamp interval is the set-up time.

    python3 bench/child.py trace <trace-file> <seed> <cli argument>...
        Run ``modeswitch.cli.main`` with spans recorded around the layer
        functions each module calls, bound in the caller's namespace, then
        write the spans and counters to <trace-file> as JSON.

Spans are kept in memory as [name, start, end, parent index, attributes] and
written once at exit.  Nothing inside ``src`` is edited: the wrappers replace
the names the calling module looks up.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import statistics
import sys
import threading
import time

OPERATOR_BUILD_REPEATS = 5
PROBE_EPISODES = 1024


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.probe = False
        self.solved: list = []
        # Per-thread sums, so worker threads never share a read-modify-write.
        self._rng_s: dict[int, float] = {}
        self._rng_calls: dict[int, int] = {}

    def wrap(self, fn, name: str, on_result=None):
        """Return ``fn`` wrapped in a span; ``on_result(attrs, bound, result)``
        may add attributes.  Spans nest along the calling (main) thread."""
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = {"probe": True} if self.probe else {}
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, attrs]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            cpu_start = time.process_time()
            span[1] = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.monotonic()
                attrs["cpu_s"] = time.process_time() - cpu_start
                self._stack.pop()
            if on_result is not None:
                on_result(attrs, signature.bind(*args, **kwargs).arguments, result)
            return result

        return wrapper

    def add_rng(self, seconds: float) -> None:
        tid = threading.get_ident()
        self._rng_s[tid] = self._rng_s.get(tid, 0.0) + seconds
        self._rng_calls[tid] = self._rng_calls.get(tid, 0) + 1

    def rng_totals(self) -> tuple[float, int]:
        return sum(self._rng_s.values()), sum(self._rng_calls.values())


class TimedGenerator:
    """Proxy around a numpy Generator that times every method call."""

    def __init__(self, generator, tracer: Tracer):
        self._generator = generator
        self._tracer = tracer

    def __getattr__(self, name):
        attr = getattr(self._generator, name)
        if not callable(attr):
            return attr

        def timed(*args, **kwargs):
            start = time.monotonic()
            result = attr(*args, **kwargs)
            self._tracer.add_rng(time.monotonic() - start)
            return result

        return timed


def install(tracer: Tracer):
    import modeswitch.cli as cli
    import modeswitch.pipeline as pipeline
    import modeswitch.simulate as simulate

    def fixed_point_attrs(attrs, _bound, result):
        table, iterations = result
        attrs["iterations"] = iterations
        attrs["grid"], attrs["n_states"] = table.values.shape

    def keep_solved(_attrs, _bound, result):
        tracer.solved.append(result)

    def batch_attrs(attrs, bound, result):
        attrs["episode_steps"] = bound["n_episodes"] * bound["horizon"]
        attrs["truncated"] = int(result.truncated.sum())
        attrs["episodes"] = int(bound["n_episodes"])

    cli.load_config = tracer.wrap(cli.load_config, "cli.load_config")
    for key, fn in list(cli._COMMANDS.items()):
        cli._COMMANDS[key] = tracer.wrap(fn, f"cli.{fn.__name__}")
    cli.random_env = tracer.wrap(cli.random_env, "environments.random_env")
    cli.build_inventory = tracer.wrap(cli.build_inventory, "environments.build_inventory")
    cli.solve_env = tracer.wrap(cli.solve_env, "pipeline.solve_env", keep_solved)
    cli.run_batch = tracer.wrap(cli.run_batch, "simulate.run_batch", batch_attrs)
    cli.summarize = tracer.wrap(cli.summarize, "simulate.summarize")
    pipeline.value_iteration = tracer.wrap(pipeline.value_iteration, "mdp.value_iteration")
    pipeline.induced_chain = tracer.wrap(pipeline.induced_chain, "mdp.induced_chain")
    pipeline.stationary_distribution = tracer.wrap(
        pipeline.stationary_distribution, "chains.stationary_distribution"
    )
    pipeline.false_alarm_weight = tracer.wrap(pipeline.false_alarm_weight, "regret.false_alarm_weight")
    pipeline.solve_fixed_point = tracer.wrap(
        pipeline.solve_fixed_point, "detector.solve_fixed_point", fixed_point_attrs
    )
    pipeline.extract_thresholds = tracer.wrap(pipeline.extract_thresholds, "detector.extract_thresholds")

    episode_rng = simulate.episode_rng

    def timed_episode_rng(master_seed, index):
        start = time.monotonic()
        generator = episode_rng(master_seed, index)
        tracer.add_rng(time.monotonic() - start)
        return TimedGenerator(generator, tracer)

    simulate.episode_rng = timed_episode_rng
    return cli


def probes(tracer: Tracer, cli, seed: int) -> dict:
    """Layer measurements taken after the command, outside its traced wall time."""
    from modeswitch.detector import finite_horizon_dp

    build_s = 0.0
    for solved in tracer.solved:
        times = []
        for _ in range(OPERATOR_BUILD_REPEATS):
            start = time.monotonic()
            finite_horizon_dp(solved.dyn, solved.weight, solved.grid, 0)
            times.append(time.monotonic() - start)
        build_s += statistics.median(times)
    if tracer.solved and not any(span[0] == "simulate.run_batch" for span in tracer.spans):
        # The command runs no Monte Carlo: time a fixed batch on its instance.
        solved = tracer.solved[0]
        tracer.probe = True
        cli.run_batch(solved, PROBE_EPISODES, math.ceil(2.0 / solved.dyn.change_rate), seed, 1)
    return {"operator_build_s": build_s}


def trace_main(trace_path: str, seed: int, cli_args: list[str]) -> int:
    tracer = Tracer()
    cli = install(tracer)
    main = tracer.wrap(cli.main, "cli.main")
    main_start = time.monotonic()
    code = main(cli_args)
    main_end = time.monotonic()
    extra = probes(tracer, cli, seed) if code == 0 else {}
    rng_s, rng_calls = tracer.rng_totals()
    body = {
        "exit_code": code,
        "main_start": main_start,
        "main_end": main_end,
        "probe_s": time.monotonic() - main_end,
        "spans": tracer.spans,
        "rng_s": rng_s,
        "rng_calls": rng_calls,
        "solves": [
            {"rho": s.dyn.change_rate, "thresholds": [float(v) for v in s.thresholds]}
            for s in tracer.solved
        ],
        **extra,
    }
    with open(trace_path, "w") as handle:
        json.dump(body, handle)
    return code


def setup_main(config_path: str, stamp_path: str) -> int:
    import modeswitch.cli as cli

    cli.load_config(config_path)
    stamp = time.monotonic()
    with open(stamp_path, "w") as handle:
        handle.write(repr(stamp))
    return 0


if __name__ == "__main__":
    mode, *rest = sys.argv[1:]
    if mode == "setup":
        sys.exit(setup_main(*rest))
    if mode == "trace":
        sys.exit(trace_main(rest[0], int(rest[1]), rest[2:]))
    sys.exit(f"unknown mode {mode!r}")
