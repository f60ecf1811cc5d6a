"""Output check: compare a workload's outputs with the stored reference.

Reference outputs were made at ``workloads.REFERENCE_SEED``.  At that seed
every output is compared; at any other seed only the outputs that do not
depend on the seed (all solver outputs, the ``rho``/``lambda`` columns and
the manifest's solve summaries), plus internal consistency of the episode
records with the report.

Rules:
- thresholds, policies and integer or boolean CSV columns match exactly;
- the value table matches within the config's ``fp_tol`` (absolute);
- weights, cost rates, and every other float match within ``REL_TOL``
  relative (``ABS_TOL`` absolute near zero);
- the fixed-point residual of every solve is at most ``fp_tol``.

Every function returns a list of problems; an empty list is a pass.
"""

from __future__ import annotations

import csv
import gzip
import io
import json
import math
import shutil
from pathlib import Path

REL_TOL = 1e-9
ABS_TOL = 1e-12

EXACT, REL, FP = "exact", "rel", "fp"

# file -> {column: rule}; "*" covers the columns not named.
CSV_RULES = {
    "policies.csv": {"*": EXACT},
    "values.csv": {"state": EXACT, "*": REL},
    "stationary.csv": {"probability": REL, "*": EXACT},
    "value_table.csv": {"p": REL, "value": FP, "*": EXACT},
    "thresholds.csv": {"*": EXACT},
    "report.csv": {"*": REL},
    "episodes.csv": {"rho": REL, "cost_cd": REL, "cost_mo": REL, "objective_realized": REL, "*": EXACT},
}

# Columns that do not depend on the seed, for files that otherwise do.
SEED_FREE_COLUMNS = {"report.csv": {"rho", "lambda"}, "episodes.csv": {"rho", "episode"}}


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    if path.suffix == ".gz":
        text = gzip.decompress(path.read_bytes()).decode()
    else:
        text = path.read_text()
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def read_rows(path: Path) -> list[dict[str, str]]:
    header, rows = _read_csv(path)
    return [dict(zip(header, row)) for row in rows]


def compare_csv(name: str, got: Path, ref: Path, fp_tol: float, columns: set[str] | None) -> list[str]:
    """Compare ``got`` with ``ref`` cell by cell; only ``columns`` if given."""
    if not got.is_file():
        return [f"{name}: missing"]
    header, rows = _read_csv(got)
    ref_header, ref_rows = _read_csv(ref)
    if header != ref_header:
        return [f"{name}: header {header} != reference {ref_header}"]
    if len(rows) != len(ref_rows):
        return [f"{name}: {len(rows)} rows != reference {len(ref_rows)}"]
    rules = CSV_RULES[name]
    problems = []
    for col, column in enumerate(header):
        if columns is not None and column not in columns:
            continue
        rule = rules.get(column, rules["*"])
        for line, (row, ref_row) in enumerate(zip(rows, ref_rows), start=2):
            a, b = float(row[col]), float(ref_row[col])
            if rule == EXACT:
                ok = a == b
            elif rule == FP:
                ok = abs(a - b) <= fp_tol
            else:
                ok = _close(a, b)
            if not ok:
                problems.append(f"{name}:{line} {column}={row[col]} != reference {ref_row[col]} ({rule})")
                break
    return problems


def _manifest_runs(manifest: dict) -> list[dict]:
    if "solve" in manifest:
        return [{"label": manifest["label"], **manifest["solve"]}]
    return manifest["simulate"]


def check_manifest(got: Path, ref: Path, fp_tol: float) -> list[str]:
    """Seed-free solve summaries: weights, cost rates, residuals."""
    if not got.is_file():
        return ["manifest.json: missing"]
    runs = _manifest_runs(json.loads(got.read_text()))
    ref_runs = _manifest_runs(json.loads(ref.read_text()))
    if len(runs) != len(ref_runs):
        return [f"manifest.json: {len(runs)} runs != reference {len(ref_runs)}"]
    problems = []
    for index, (run, ref_run) in enumerate(zip(runs, ref_runs)):
        where = f"manifest.json run {index}"
        for key in ("label", "rho", "horizon"):
            if run.get(key) != ref_run.get(key):
                problems.append(f"{where}: {key}={run.get(key)!r} != reference {ref_run.get(key)!r}")
        if not _close(run["lambda"], ref_run["lambda"]):
            problems.append(f"{where}: lambda={run['lambda']!r} != reference {ref_run['lambda']!r}")
        for key, value in ref_run["cost_rates"].items():
            if not _close(run["cost_rates"][key], value):
                problems.append(f"{where}: cost_rates.{key}={run['cost_rates'][key]!r} != reference {value!r}")
        residuals = run["residuals"]
        if not residuals["fixed_point"] <= fp_tol:
            problems.append(f"{where}: fixed-point residual {residuals['fixed_point']!r} > fp_tol {fp_tol}")
        if not (isinstance(residuals["fixed_point_iterations"], int) and residuals["fixed_point_iterations"] >= 1):
            problems.append(f"{where}: bad iteration count {residuals['fixed_point_iterations']!r}")
    return problems


def check_thresholds(solves: list[dict], ref: Path) -> list[str]:
    """Thresholds of every solve a traced run made, exactly."""
    ref_solves = json.loads(ref.read_text())
    if len(solves) != len(ref_solves):
        return [f"traced thresholds: {len(solves)} solves != reference {len(ref_solves)}"]
    problems = []
    for solve, ref_solve in zip(solves, ref_solves):
        if not _close(solve["rho"], ref_solve["rho"]) or solve["thresholds"] != ref_solve["thresholds"]:
            problems.append(f"traced thresholds at rho={solve['rho']}: {solve['thresholds']} != reference")
    return problems


def check_episodes(out_dir: Path) -> list[str]:
    """Episode records agree with their own closed forms and with report.csv."""
    report = {row["rho"]: row for row in read_rows(out_dir / "report.csv")}
    horizons = {run["rho"]: run["horizon"] for run in _manifest_runs(json.loads((out_dir / "manifest.json").read_text()))}
    groups: dict[str, list[dict]] = {}
    for row in read_rows(out_dir / "episodes.csv"):
        groups.setdefault(row["rho"], []).append(row)
    if set(groups) != set(report):
        return [f"episodes.csv rates {sorted(groups)} != report.csv rates {sorted(report)}"]
    problems = []
    for rho, rows in groups.items():
        weight = float(report[rho]["lambda"])
        horizon = horizons[float(rho)]
        for row in rows:
            change, switch = int(row["change_point"]), int(row["switch_time"])
            truncated = row["truncated"] == "1"
            expected_objective = max(switch - change - 1, 0) + (weight if change >= switch else 0.0)
            if (
                row["false_alarm"] != ("1" if switch < change else "0")
                or int(row["delay"]) != max(switch - change, 0)
                or (truncated and switch != horizon)
                or not _close(float(row["objective_realized"]), expected_objective)
            ):
                problems.append(f"episodes.csv rho={rho} episode {row['episode']}: inconsistent record")
                break
        n = len(rows)
        for column, mean in (
            ("pfa", sum(r["false_alarm"] == "1" for r in rows) / n),
            ("mean_delay", sum(int(r["delay"]) for r in rows) / n),
            ("truncated_frac", sum(r["truncated"] == "1" for r in rows) / n),
        ):
            if not _close(float(report[rho][column]), mean):
                problems.append(f"report.csv rho={rho} {column}={report[rho][column]} != episode mean {mean!r}")
    return problems


def check_outputs(out_dir: Path, ref_dir: Path, seed_free: bool, fp_tol: float, solves: list[dict] | None = None) -> list[str]:
    """All checks for one execution.  ``seed_free``: the seed differs from the reference seed."""
    problems = []
    for ref in sorted(ref_dir.glob("*.csv.gz")):
        name = ref.name[: -len(".gz")]
        columns = SEED_FREE_COLUMNS.get(name) if seed_free else None
        problems += compare_csv(name, out_dir / name, ref, fp_tol, columns)
    problems += check_manifest(out_dir / "manifest.json", ref_dir / "manifest.json", fp_tol)
    if (ref_dir / "episodes.csv.gz").is_file() and not problems:
        problems += check_episodes(out_dir)
    if solves is not None:
        problems += check_thresholds(solves, ref_dir / "thresholds.json")
    return problems


def write_reference(out_dir: Path, ref_dir: Path, solves: list[dict]) -> None:
    """Store one execution's outputs (made at the reference seed) as the reference."""
    if ref_dir.exists():
        shutil.rmtree(ref_dir)
    ref_dir.mkdir(parents=True)
    for path in sorted(out_dir.glob("*.csv")):
        # mtime=0 keeps the stored bytes a function of the outputs alone.
        (ref_dir / (path.name + ".gz")).write_bytes(gzip.compress(path.read_bytes(), mtime=0))
    manifest = json.loads((out_dir / "manifest.json").read_text())
    # The config echo holds run-specific paths and created_at a timestamp; neither is checked.
    for key in ("config", "created_at"):
        manifest.pop(key)
    (ref_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    (ref_dir / "thresholds.json").write_text(json.dumps(solves, indent=1) + "\n")
