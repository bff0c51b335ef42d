"""One Fig. 7 sweep process, as ``repro sweep --scale smoke`` runs it.

Started by ``run.py`` as a fresh interpreter.  It calls the public
``repro.experiments`` functions the CLI calls, prints the report the CLI
prints, and writes a JSON record for ``run.py`` to check and time:
monotonic timestamps of harness-ready and report-printed, the per-point
metrics, the Fig. 7b optima and the environment facts.  With
``--trace-dir`` the layer entry points are wrapped in spans first and the
record carries the per-layer metrics as well.
"""

from __future__ import annotations

import time

T_START_NS = time.monotonic_ns()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

#: Grid point metrics compared against the reference.
CHECKED_METRICS = ("snr_db", "accuracy", "accuracy_hard", "power_uw", "area_units")

#: ``repro sweep`` defaults (see ``repro.cli``).
MIN_ACCURACY = 0.9
RUNGS = 3
KEEP_FRAC = 1 / 3

WORKLOADS = {
    "fig7_serial": {"executor": "serial", "workers": None, "adaptive": False},
    "fig7_pool2": {"executor": "process", "workers": 2, "adaptive": False},
    "fig7_requery": {"executor": "serial", "workers": None, "adaptive": False},
    "fig7_adaptive": {"executor": None, "workers": None, "adaptive": True},
}


def blas_threads() -> int | None:
    """Threads of the OpenBLAS numpy loaded, read from the library itself."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libraries = sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line})
    for library in libraries:
        try:
            handle = ctypes.CDLL(library)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            function = getattr(handle, symbol, None)
            if function is not None:
                function.argtypes = []
                function.restype = ctypes.c_int
                return int(function())
    return None


def environment() -> dict:
    import numpy
    import scipy
    from repro.kernels import registry

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "start_method": multiprocessing.get_start_method(),
        "kernel_backend_requested": registry.requested(),
        "kernel_backend_active": registry.active("fista"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def evaluation_row(evaluation) -> dict:
    return {
        "point": evaluation.point.describe(),
        "metrics": {k: evaluation.metrics.get(k) for k in CHECKED_METRICS},
        "error": evaluation.error,
    }


def optimum(evaluation) -> dict | None:
    if evaluation is None:
        return None
    return {
        "point": evaluation.point.describe(),
        "accuracy": evaluation.metric("accuracy"),
        "power_uw": evaluation.metric("power_uw"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace-dir", help="record spans; worker spans are flushed here")
    parser.add_argument("--t0-ns", type=int, help="monotonic time the parent spawned us")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]

    recorder = None
    span = lambda name: contextlib.nullcontext()  # noqa: E731
    if args.trace_dir:
        import layers
        import spans

        recorder = spans.SpanRecorder(Path(args.trace_dir))
        span = recorder.span

    with span("import.repro"):
        import repro.experiments
        from repro.experiments import runner
        from repro.util.textplot import pareto_chart

    installed = layers.install(recorder) if recorder is not None else set()

    # The workload seed replaces the preset's corpus/evaluator seed; the
    # program then generates its inputs from it.
    runner.SCALES["smoke"] = dataclasses.replace(runner.SCALES["smoke"], seed=args.seed)

    with span("setup.harness"):
        repro.experiments.make_harness("smoke")
    t_ready_ns = time.monotonic_ns()
    if recorder is not None:
        recorder.count("scipy_signal_loaded", int("scipy.signal" in sys.modules))

    ledger_failures = 0
    with span("explore.run"):
        if workload["adaptive"]:
            sweep = repro.experiments.run_adaptive_search_space(
                "smoke",
                rungs=RUNGS,
                keep_frac=KEEP_FRAC,
                executor=workload["executor"],
                n_workers=workload["workers"],
                cache_dir=args.cache_dir,
            )
            ledger_failures = sum(r.failures for r in sweep.ledger.rungs)
            ledger_text = sweep.ledger.summary()
        else:
            sweep = repro.experiments.run_search_space(
                "smoke",
                executor=workload["executor"],
                n_workers=workload["workers"],
                cache_dir=args.cache_dir,
            )

    full_sweep = sweep
    if sweep.failures():
        sweep = sweep.successes()
    with span("report.analyze"):
        fig7 = repro.experiments.analyze_fig7(sweep, min_accuracy=MIN_ACCURACY)
    with span("report.render"):
        lines = []
        if workload["adaptive"]:
            lines += ["adaptive exploration (successive halving):", ledger_text, ""]
        lines.append(f"evaluated {len(full_sweep)} design points at scale 'smoke'")
        lines.append("baseline accuracy front:")
        lines.append(repro.experiments.render_front(fig7.accuracy_front_baseline, "accuracy"))
        lines.append("\ncs accuracy front:")
        lines.append(repro.experiments.render_front(fig7.accuracy_front_cs, "accuracy"))
        lines.append("\n" + fig7.summary() + "\n")
        lines.append(
            pareto_chart(
                {"baseline": fig7.accuracy_front_baseline, "cs": fig7.accuracy_front_cs},
                title="Fig. 7b: accuracy vs power Pareto fronts",
            )
        )
        print("\n".join(lines))
        sys.stdout.flush()
    t_report_ns = time.monotonic_ns()

    record = {
        "t_start_ns": T_START_NS,
        "t_ready_ns": t_ready_ns,
        "t_report_ns": t_report_ns,
        "points": [evaluation_row(e) for e in full_sweep],
        "ledger_failures": ledger_failures,
        "optima": {"baseline": optimum(fig7.optimal_baseline), "cs": optimum(fig7.optimal_cs)},
        "power_saving": fig7.power_saving,
        "environment": environment(),
    }
    if recorder is not None:
        values, table = layers.derive(
            recorder.collect(), installed, args.t0_ns or T_START_NS, t_report_ns
        )
        record["layers"] = values
        record["spans"] = table
        record["installed"] = sorted(installed)
    Path(args.out).write_text(json.dumps(record))
    return 0



if __name__ == "__main__":
    sys.exit(main())
