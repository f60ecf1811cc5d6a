"""Self-test of the benchmark (not part of the repository's test suite).

    python3 bench/selftest.py

- a smoke-scale run of every workload, untraced and traced, at the reference
  seed and at another seed, finishes and emits exactly the metrics that
  BENCHMARK.json names;
- the output check passes the reference outputs and rejects a perturbed
  threshold, value-table entry or weight;
- without the program's sources the benchmark exits nonzero and prints no
  result.
"""

from __future__ import annotations

import gzip
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

import check
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SCRATCH = ROOT / ".bench_out" / "selftest"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def fresh(name: str) -> Path:
    path = SCRATCH / name
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


def unpack_reference(workload: str, dest: Path) -> None:
    """Lay the smoke reference of ``workload`` out as a CLI output directory."""
    ref = BENCH_DIR / "reference" / "smoke" / workload
    for path in ref.glob("*.csv.gz"):
        (dest / path.name[: -len(".gz")]).write_bytes(gzip.decompress(path.read_bytes()))
    shutil.copyfile(ref / "manifest.json", dest / "manifest.json")


def check_dir(workload: str, out: Path, solves=None) -> list[str]:
    return check.check_outputs(
        out, BENCH_DIR / "reference" / "smoke" / workload, seed_free=False, fp_tol=1e-9, solves=solves
    )


class SmokeRuns(unittest.TestCase):
    def test_every_workload_emits_every_metric(self):
        for workload in workloads.WORKLOADS:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                for seed in (workloads.REFERENCE_SEED, 3):
                    with self.subTest(workload=workload, trace=trace, seed=seed):
                        proc = run_bench(
                            "--workload", workload, "--seed", str(seed), "--seconds", "1",
                            "--trace", str(trace), "--scale", "smoke",
                        )
                        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
                        result = json.loads(proc.stdout.strip().splitlines()[-1])
                        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                        self.assertTrue(result["correct"])
                        self.assertEqual(result["failed"], 0)
                        self.assertGreaterEqual(result["attempted"], 1)
                        names = {metric["name"]: metric["unit"] for metric in SPEC[kind]}
                        self.assertEqual(set(result["metrics"]), set(names))
                        for name, metric in result["metrics"].items():
                            self.assertEqual(metric["unit"], names[name])
                            self.assertIsInstance(metric["value"], (int, float))
                        if trace:
                            self.assertGreaterEqual(result["metrics"]["trace.coverage"]["value"], 0.95)

    def test_fails_without_sources(self):
        bare = fresh("bare")
        shutil.copyfile(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(BENCH_DIR, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench("--workload", "mc-long", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


class OutputCheck(unittest.TestCase):
    def test_reference_passes(self):
        for workload in workloads.WORKLOADS:
            out = fresh(f"pass-{workload}")
            unpack_reference(workload, out)
            solves = json.loads((BENCH_DIR / "reference" / "smoke" / workload / "thresholds.json").read_text())
            self.assertEqual(check_dir(workload, out, solves), [], workload)

    def test_perturbed_threshold_fails(self):
        out = fresh("threshold")
        unpack_reference("inventory-solve", out)
        lines = (out / "thresholds.csv").read_text().splitlines()
        state, value = lines[3].split(",")
        lines[3] = f"{state},{float(value) + 0.01!r}"
        (out / "thresholds.csv").write_text("\n".join(lines) + "\n")
        problems = check_dir("inventory-solve", out)
        self.assertTrue(any(p.startswith("thresholds.csv") for p in problems), problems)

    def test_perturbed_traced_threshold_fails(self):
        out = fresh("traced-threshold")
        unpack_reference("random-sweep", out)
        solves = json.loads((BENCH_DIR / "reference" / "smoke" / "random-sweep" / "thresholds.json").read_text())
        solves[2]["thresholds"][1] += 1e-12
        problems = check_dir("random-sweep", out, solves)
        self.assertTrue(any(p.startswith("traced thresholds") for p in problems), problems)

    def test_value_table_beyond_fp_tol_fails(self):
        out = fresh("value-table")
        unpack_reference("inventory-solve", out)
        lines = (out / "value_table.csv").read_text().splitlines()
        state, p, value = lines[50].split(",")
        lines[50] = f"{state},{p},{float(value) + 1e-8!r}"
        (out / "value_table.csv").write_text("\n".join(lines) + "\n")
        problems = check_dir("inventory-solve", out)
        self.assertTrue(any(p.startswith("value_table.csv") for p in problems), problems)

    def test_perturbed_weight_fails(self):
        out = fresh("weight")
        unpack_reference("mc-long", out)
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["simulate"][0]["lambda"] *= 1 + 1e-6
        (out / "manifest.json").write_text(json.dumps(manifest))
        problems = check_dir("mc-long", out)
        self.assertTrue(any("lambda" in p for p in problems), problems)


if __name__ == "__main__":
    unittest.main()
