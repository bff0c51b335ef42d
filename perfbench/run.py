"""Fig. 7 sweep benchmark: whole ``repro sweep`` processes, timed from outside.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig7_serial --seed 2022 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one after another
    python3 perfbench/run.py --write-reference       # refresh the committed reference

One run starts fresh sweep processes (``child.py``) back to back for
``--seconds`` seconds and reports the median of each end-to-end metric
over them.  Every process's per-point results are checked: at the default
seed against the committed reference (rtol 1e-6), at any other seed against
the run's first process on that seed, which must itself have no failed
point and, where both architectures reach the accuracy goal, a CS optimum
below the baseline optimum.  With ``--trace 1`` the run alternates
untraced and traced processes and reports the per-layer metrics instead;
the traced processes' span tables are written to
``.perfbench-work/trace-<workload>-seed<seed>.json`` for ``diff.py``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md
for why each workload exists.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
CHILD = HERE / "child.py"
REFERENCE = HERE / "reference" / "fig7_smoke_seed2022.json"

sys.path.insert(0, str(HERE))
import layers  # noqa: E402
from child import CHECKED_METRICS, WORKLOADS  # noqa: E402

DEFAULT_SEED = 2022
#: Corpora one ``fig7_adaptive`` run cycles through (see corpus_seed).
ADAPTIVE_CORPORA = 3
CORPUS_SEED_STRIDE = 1_000_003
RTOL = 1e-6
GRID_POINTS = 18
#: Fewest processes one run measures, whatever ``--seconds`` says.
MIN_PROCESSES = 3
#: One run (set-up included) ends within this; a sweep process still
#: running then is killed and its points count as failed.
RUN_BUDGET_S = 170.0

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("pass_frac", "frac"),
)

#: Pinned in the process-pool workload only: two workers that each start
#: a 2-thread OpenBLAS oversubscribe a 2-core host (see README.md).
PINNED_BLAS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class SetupError(RuntimeError):
    """The benchmark could not prepare a run; no result is printed."""


# --- correctness -------------------------------------------------------------


def check_points(points: list[dict], reference: dict[str, dict], rtol: float = RTOL) -> list[str]:
    """One message per point that raised, is unknown or deviates from ``reference``."""
    failures = []
    for row in points:
        if row["error"] is not None:
            failures.append(f"{row['point']}: raised {row['error']}")
            continue
        expected = reference.get(row["point"])
        if expected is None:
            failures.append(f"{row['point']}: not in the reference")
            continue
        for name in CHECKED_METRICS:
            value, want = row["metrics"].get(name), expected[name]
            if value is None or not math.isclose(value, want, rel_tol=rtol, abs_tol=0.0):
                failures.append(f"{row['point']}: {name}={value!r}, reference {want!r}")
                break
    return failures


def self_test(reference: dict) -> None:
    """``fail_frac`` must count a 1e-5 relative deviation, a raising point and a crash."""
    rows = [
        {"point": point, "metrics": dict(metrics), "error": None}
        for point, metrics in reference["points"].items()
    ]
    rows[0]["metrics"]["snr_db"] *= 1 + 1e-5
    rows[1] = {"point": rows[1]["point"], "metrics": {}, "error": "RuntimeError: injected"}
    run = Run("fig7_serial", reference)
    run.check({"points": rows, "ledger_failures": 0, "optima": reference["optima"],
               "power_saving": reference["power_saving"], "environment": {}}, reference["seed"])
    run.check({"error": "sweep process exited with -9"}, reference["seed"])
    if (run.failed, run.attempted) != (2 + GRID_POINTS, 2 * GRID_POINTS):
        raise SetupError(
            f"correctness self-test: {run.failed}/{run.attempted} points counted as "
            f"failed, expected {2 + GRID_POINTS}/{2 * GRID_POINTS}: {run.problems}"
        )


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def points_by_name(points: list[dict]) -> dict[str, dict]:
    return {row["point"]: row["metrics"] for row in points if row["error"] is None}


# --- sweep processes -----------------------------------------------------------


def child_env(workload: str) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    if workload == "fig7_pool2":
        env.update(PINNED_BLAS)
    return env


def run_child(
    workload: str, seed: int, cache_dir: Path, tag: str, deadline: float, traced: bool = False
) -> dict:
    """Run one sweep process; returns its record plus the outside measurements."""
    out = WORK / f"{tag}.json"
    out.unlink(missing_ok=True)
    command = [
        sys.executable, str(CHILD), "--workload", workload, "--seed", str(seed),
        "--cache-dir", str(cache_dir), "--out", str(out),
    ]
    trace_dir = None
    if traced:
        trace_dir = WORK / f"{tag}-spans"
        shutil.rmtree(trace_dir, ignore_errors=True)
        trace_dir.mkdir(parents=True)
        command += ["--trace-dir", str(trace_dir)]
    with open(WORK / f"{workload}-report.txt", "w") as report, open(WORK / f"{tag}.err", "w") as err:
        t0_ns = time.monotonic_ns()
        process = subprocess.Popen(
            command + ["--t0-ns", str(t0_ns)],
            stdout=report, stderr=err, env=child_env(workload), cwd=ROOT,
            start_new_session=True,
        )
        status, usage = _reap(process, deadline)
    try:  # a pool worker the sweep process left behind
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    if trace_dir is not None:
        shutil.rmtree(trace_dir, ignore_errors=True)
    result = {"exit": status, "cpu_s": usage.ru_utime + usage.ru_stime,
              "peak_rss_mb": usage.ru_maxrss / 1024.0}
    if status != 0 or not out.exists():
        error = (WORK / f"{tag}.err").read_text()[-2000:]
        result["error"] = f"sweep process exited with {status}: {error}"
        return result
    record = json.loads(out.read_text())
    out.unlink()
    (WORK / f"{tag}.err").unlink()
    result.update(record)
    result["wall_s"] = (record["t_report_ns"] - t0_ns) / 1e9
    result["setup_s"] = (record["t_ready_ns"] - t0_ns) / 1e9
    return result


def _reap(process: subprocess.Popen, deadline: float):
    """Wait for ``process`` until ``deadline``; rusage covers its reaped workers."""
    while True:
        pid, status, usage = os.wait4(process.pid, os.WNOHANG)
        if pid:
            process.returncode = os.waitstatus_to_exitcode(status)
            return process.returncode, usage
        if time.monotonic() > deadline:
            os.killpg(process.pid, signal.SIGKILL)
            _pid, status, usage = os.wait4(process.pid, 0)
            process.returncode = os.waitstatus_to_exitcode(status)
            return process.returncode, usage
        time.sleep(0.02)


def warm_up(workload: str, deadline: float) -> None:
    """Import the package once untimed: compiles bytecode, warms the page cache."""
    try:
        completed = subprocess.run(
            [sys.executable, "-c", "import repro.experiments, repro.util.textplot"],
            env=child_env(workload), cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise SetupError("importing the package did not finish in time") from None
    if completed.returncode != 0:
        raise SetupError(f"cannot import the package from {SRC}: {completed.stderr[-2000:]}")


# --- one run -------------------------------------------------------------------


class Run:
    """The processes of one run and the checks on them."""

    def __init__(self, workload: str, reference: dict):
        self.workload = workload
        # Points every process must reproduce, per corpus seed.  At a seed
        # without a committed reference, its first process defines them.
        self.references = {reference["seed"]: reference["points"]}
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.environment: dict = {}
        self.optima: dict[int, dict] = {}

    def check(self, result: dict, seed: int, measured: bool = True) -> None:
        """Count the points of one process at ``seed`` and record what is wrong."""
        if measured:
            self.attempted += GRID_POINTS
        if "error" in result:
            self.problems.append(result["error"])
            if measured:
                self.failed += GRID_POINTS
            return
        self.environment = result["environment"]
        self.optima[seed] = {"optima": result["optima"], "power_saving": result["power_saving"]}
        points = result["points"]
        low_rung_failures = result["ledger_failures"]
        reference = self.references.get(seed)
        if reference is None and not low_rung_failures and not any(
            row["error"] for row in points
        ):
            reference = self.references[seed] = points_by_name(points)
            # On some smoke corpora one architecture never reaches the
            # accuracy goal; the optima are then not comparable.
            optima = result["optima"]
            if None not in optima.values() and not (
                optima["cs"]["power_uw"] < optima["baseline"]["power_uw"]
            ):
                self.problems.append("the CS optimum is not below the baseline optimum")
        if reference is not None:
            failures = check_points(points, reference)
        else:
            failures = [f"{row['point']}: raised {row['error']}" for row in points if row["error"]]
        if low_rung_failures:
            failures.append(f"{low_rung_failures} point(s) raised at a low-fidelity rung")
        n_failed = len(failures)
        if not WORKLOADS[self.workload]["adaptive"] and len(points) != GRID_POINTS:
            failures.append(f"sweep returned {len(points)} of {GRID_POINTS} points")
            n_failed = GRID_POINTS
        if measured:
            self.failed += min(n_failed, GRID_POINTS)
        self.problems.extend(failures)

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0


def corpus_seed(workload: str, seed: int, index: int) -> int:
    """Corpus seed of the ``index``-th process of a run at ``seed``.

    How many points survive to full fidelity in the adaptive sweep depends
    on the corpus, so its cost moves with the seed by about 10%.  Its
    processes therefore cycle through ADAPTIVE_CORPORA seeds derived from
    ``seed`` (the first is ``seed`` itself), and a run's median spans
    several corpora.  The other workloads do the same work on every corpus.
    """
    if workload != "fig7_adaptive":
        return seed
    return seed + (index % ADAPTIVE_CORPORA) * CORPUS_SEED_STRIDE


def measure(workload: str, seed: int, seconds: float, trace: bool, reference: dict):
    """One run: set up, then sweep processes back to back for ``seconds``."""
    deadline = time.monotonic() + RUN_BUDGET_S
    WORK.mkdir(exist_ok=True)
    run_dir = WORK / f"{workload}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir()
    run = Run(workload, reference)
    untraced: list[dict] = []
    traced: list[dict] = []
    try:
        warm_up(workload, deadline)
        shared_cache = run_dir / "cache"
        if workload == "fig7_requery":
            # Untimed: fill the cache from this commit and seed, then make
            # sure a re-query really hits every point before timing starts.
            fill = run_child(workload, seed, shared_cache, f"{run_dir.name}-fill", deadline)
            run.check(fill, seed, measured=False)
            probe = run_child(
                workload, seed, shared_cache, f"{run_dir.name}-probe", deadline, traced=True
            )
            run.check(probe, seed, measured=False)
            hit_frac = probe.get("layers", {}).get("cache.hit_frac")
            if hit_frac != 1.0:
                raise SetupError(f"re-query set-up: cache.hit_frac is {hit_frac}, not 1.0")
        start = time.monotonic()
        durations: list[float] = []
        while True:
            is_traced = trace and len(traced) < len(untraced)
            # Traced and untraced processes see the same corpora in turn.
            process_seed = corpus_seed(workload, seed, len(traced if is_traced else untraced))
            if workload == "fig7_requery":
                cache = shared_cache
            else:
                cache = run_dir / f"cache-{len(durations)}"
            began = time.monotonic()
            result = run_child(
                workload, process_seed, cache, f"{run_dir.name}-{len(durations)}", deadline,
                traced=is_traced,
            )
            durations.append(time.monotonic() - began)
            if cache != shared_cache:
                shutil.rmtree(cache, ignore_errors=True)
            run.check(result, process_seed)
            (traced if is_traced else untraced).append(result)
            now = time.monotonic()
            typical = statistics.median(durations)
            if trace:
                enough = len(untraced) >= 2 and len(traced) >= 2
            else:
                enough = len(untraced) >= MIN_PROCESSES
            if enough and now - start + typical > seconds:
                break
            if now + 2 * typical > deadline:
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return run, untraced, traced


def median_of(results: list[dict], key: str) -> float | None:
    values = [r[key] for r in results if key in r and "error" not in r]
    return statistics.median(values) if values else None


def end_to_end(run: Run, untraced: list[dict]) -> dict[str, dict]:
    metrics = {}
    for name, unit in END_TO_END:
        if name == "pass_frac":
            value = 1.0 - run.failed / run.attempted
        else:
            value = median_of(untraced, name)
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def per_layer(untraced: list[dict], traced: list[dict]) -> tuple[dict[str, dict], list[str], dict]:
    """Per-layer metrics, the names of those not measured, and the span table."""
    ok = [r for r in traced if "error" not in r]
    metrics = {}
    absent = []
    for name, unit, _deps in layers.PER_LAYER:
        values = [r["layers"][name] for r in ok if r["layers"].get(name) is not None]
        if name == "trace.overhead_frac":
            base, with_spans = median_of(untraced, "wall_s"), median_of(ok, "wall_s")
            values = [with_spans / base - 1.0] * len(ok) if base and with_spans else []
        if values and len(values) == len(ok):
            metrics[name] = {"value": statistics.median(values), "unit": unit}
        else:
            # Not measured: the layer's entry point did not resolve, its
            # spans did not come back, or the workload does not use it.
            metrics[name] = {"value": -1, "unit": unit}
            absent.append(name)
    names = sorted({name for r in ok for name in r["spans"]})
    spans = {
        name: {
            field: statistics.median(r["spans"].get(name, {}).get(field, 0) for r in ok)
            for field in ("count", "self_s", "total_s")
        }
        for name in names
    }
    return metrics, absent, spans


def report(workload: str, seed: int, trace: bool, run: Run, untraced, traced) -> dict:
    """Print the human-readable summary; returns the result object."""
    print(f"== {workload} seed={seed} trace={int(trace)}: "
          f"{len(untraced)} untraced + {len(traced)} traced sweep processes")
    for key, value in run.environment.items():
        print(f"   env {key}: {value}")
    print(f"   env traced: {trace}")
    fig7b = run.optima.get(seed, {})
    for arch, best in (fig7b.get("optima") or {}).items():
        if best is None:
            print(f"   fig7b optimum {arch}: infeasible (no point reaches the accuracy goal)")
        else:
            print(f"   fig7b optimum {arch}: {best['point']} accuracy={best['accuracy']:.4f} "
                  f"power={best['power_uw']:.3f} uW")
    if fig7b.get("power_saving"):
        print(f"   fig7b power saving: {fig7b['power_saving']:.3f}x")
    for problem in run.problems[:20]:
        print(f"   FAIL {problem}")
    fail_frac = run.failed / run.attempted
    print(f"   {'fail_frac':<12} {fail_frac:>10.4f} frac  ({run.failed}/{run.attempted} points)")
    if trace:
        metrics, absent, spans = per_layer(untraced, traced)
        out = WORK / f"trace-{workload}-seed{seed}.json"
        out.write_text(json.dumps({
            "workload": workload, "seed": seed, "environment": run.environment,
            "layers": metrics, "absent": absent, "spans": spans,
            "untraced_wall_s": [r.get("wall_s") for r in untraced],
            "traced_wall_s": [r.get("wall_s") for r in traced],
        }, indent=1))
        for name, entry in metrics.items():
            shown = "absent" if name in absent else f"{entry['value']:.6g}"
            print(f"   {name:<26} {shown:>12} {entry['unit']}")
        print(f"   spans written to {out.relative_to(ROOT)}")
    else:
        metrics = end_to_end(run, untraced)
        for name, entry in metrics.items():
            values = [r[name] for r in untraced if name in r and "error" not in r]
            spread = ""
            if len(values) >= 2:
                spread = f"  (n={len(values)}, min {min(values):.4f}, max {max(values):.4f})"
            value = entry["value"]
            shown = "n/a" if value is None else f"{value:.4f}"
            print(f"   {name:<12} {shown:>10} {entry['unit']}{spread}")
    return {
        "correct": run.correct and all(m["value"] is not None for m in metrics.values()),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }


def write_reference() -> None:
    WORK.mkdir(exist_ok=True)
    deadline = time.monotonic() + RUN_BUDGET_S
    warm_up("fig7_serial", deadline)
    cache = WORK / "reference-cache"
    shutil.rmtree(cache, ignore_errors=True)
    result = run_child("fig7_serial", DEFAULT_SEED, cache, "reference", deadline)
    shutil.rmtree(cache, ignore_errors=True)
    if "error" in result or any(row["error"] for row in result["points"]):
        raise SetupError(f"reference sweep failed: {result.get('error')}")
    REFERENCE.parent.mkdir(exist_ok=True)
    REFERENCE.write_text(json.dumps({
        "scale": "smoke", "seed": DEFAULT_SEED, "rtol": RTOL,
        "points": points_by_name(result["points"]),
        "optima": result["optima"], "power_saving": result["power_saving"],
    }, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE.relative_to(ROOT)}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args()

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    try:
        if args.write_reference:
            write_reference()
            return 0
        reference = load_reference()
        self_test(reference)
        workloads = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
        for workload in workloads:
            run, untraced, traced = measure(
                workload, args.seed, args.seconds, bool(args.trace), reference
            )
            result = report(workload, args.seed, bool(args.trace), run, untraced, traced)
            print(json.dumps(result, allow_nan=False))
    except SetupError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
