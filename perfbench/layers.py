"""Layer entry points of the traced run and the per-layer metrics.

Each target is named ``"module:Qualified.name"`` and resolved when the
traced sweep process starts.  A target that no longer resolves (code
moved or renamed) is skipped: every metric that depends on it is then
reported as absent, and the benchmark keeps running.

Metric values are self times: a span's duration minus the part of it its
child spans cover.  Spans of forked pool workers name the sweep process's span that was open
at fork time as their parent, so worker time is removed from that span's
self time too.
"""

from __future__ import annotations

import importlib
import sys
from collections import defaultdict

#: (span name, target).  A span name may cover several targets.
TARGETS: tuple[tuple[str, str], ...] = (
    ("eeg.synth", "repro.eeg.synthetic:make_bonn_like_dataset"),
    ("eeg.resample", "repro.eeg.preprocessing:resample_dataset"),
    ("detection.fit", "repro.detection.spectral:SpectralCombDetector.fit"),
    ("detection.score", "repro.detection.spectral:SpectralCombDetector.accuracy"),
    ("detection.score", "repro.detection.spectral:SpectralCombDetector.soft_accuracy"),
    ("evaluator.fingerprint", "repro.core.explorer:FrontEndEvaluator.fingerprint"),
    ("evaluator.chain_build", "repro.core.explorer:FrontEndEvaluator.build_point_chain"),
    ("evaluator.evaluate", "repro.core.explorer:FrontEndEvaluator.evaluate"),
    ("blocks.lna", "repro.blocks.lna:LNA.process"),
    ("blocks.sample_hold", "repro.blocks.sample_hold:SampleHold.process"),
    ("blocks.adc", "repro.blocks.sar_adc:SarAdc.process"),
    ("blocks.cs_encoder", "repro.blocks.cs_frontend:CsEncoderBlock.process"),
    ("blocks.cs_encoder", "repro.blocks.cs_frontend:DigitalCsEncoderBlock.process"),
    ("blocks.reconstruction", "repro.blocks.cs_frontend:CsReconstructionBlock.process"),
    ("blocks.normalizer", "repro.blocks.dsp:Normalizer.process"),
    ("blocks.transmitter", "repro.blocks.transmitter:Transmitter.process"),
    ("blocks.process_batch", "repro.blocks.lna:LNA.process_batch"),
    ("blocks.process_batch", "repro.blocks.sample_hold:SampleHold.process_batch"),
    ("blocks.process_batch", "repro.blocks.sar_adc:SarAdc.process_batch"),
    ("blocks.process_batch", "repro.blocks.cs_frontend:CsEncoderBlock.process_batch"),
    ("blocks.process_batch", "repro.blocks.cs_frontend:DigitalCsEncoderBlock.process_batch"),
    ("blocks.process_batch", "repro.blocks.cs_frontend:CsReconstructionBlock.process_batch"),
    ("blocks.process_batch", "repro.blocks.dsp:Normalizer.process_batch"),
    ("blocks.process_batch", "repro.blocks.transmitter:Transmitter.process_batch"),
    ("cs.recover", "repro.cs.reconstruction:Reconstructor.recover"),
    ("cs.fista", "repro.cs.reconstruction:fista"),
    ("metrics.snr", "repro.metrics.snr:snr_vs_reference"),
    ("power.estimate", "repro.core.simulator:collect_power"),
    ("cache.get", "repro.core.execution:EvaluationCache.get"),
    ("cache.put", "repro.core.execution:EvaluationCache.put"),
    ("explore.sweep", "repro.core.explorer:DesignSpaceExplorer.explore"),
    ("adaptive.run", "repro.core.explorer:DesignSpaceExplorer.explore_adaptive"),
    ("batch.evaluate_chunk", "repro.core.batch:BatchedEvaluator.evaluate_chunk"),
    ("batch.group", "repro.core.batch:BatchedEvaluator.run_group_signals"),
)

#: The kernel registry whose ``call`` is counted (FISTA solves, frames,
#: iterations) and whose public ``usage()`` ledger gives calls/fallbacks.
REGISTRY = "repro.kernels:registry"

#: Spans that evaluate design points (explore.overhead_s excludes them).
EVALUATION_SPANS = ("evaluator.evaluate", "batch.evaluate_chunk")

#: Per-layer metrics: (name, unit, installed span names they depend on);
#: ``"registry"`` stands for the counted kernel dispatch.
PER_LAYER: tuple[tuple[str, str, tuple[str, ...]], ...] = (
    ("import.repro_s", "s", ()),
    ("import.scipy_signal", "count", ()),
    ("eeg.synth_s", "s", ("eeg.synth",)),
    ("eeg.resample_s", "s", ("eeg.resample",)),
    ("detection.fit_s", "s", ("detection.fit",)),
    ("detection.score_s", "s", ("detection.score",)),
    ("evaluator.fingerprint_s", "s", ("evaluator.fingerprint",)),
    ("evaluator.chain_build_s", "s", ("evaluator.chain_build",)),
    ("evaluator.points", "count", ("evaluator.chain_build",)),
    ("blocks.lna_s", "s", ("blocks.lna",)),
    ("blocks.sample_hold_s", "s", ("blocks.sample_hold",)),
    ("blocks.adc_s", "s", ("blocks.adc",)),
    ("blocks.cs_encoder_s", "s", ("blocks.cs_encoder",)),
    ("blocks.normalizer_s", "s", ("blocks.normalizer",)),
    ("blocks.transmitter_s", "s", ("blocks.transmitter",)),
    ("blocks.process_batch_s", "s", ("blocks.process_batch",)),
    ("cs.recover_s", "s", ("cs.recover",)),
    ("cs.fista_s", "s", ("cs.fista",)),
    ("cs.fista_solves", "count", ("registry",)),
    ("cs.fista_frames", "count", ("registry",)),
    ("cs.fista_iters_mean", "count", ("registry",)),
    ("cs.fista_cap_frac", "frac", ("registry",)),
    ("kernels.calls", "count", ("registry",)),
    ("kernels.fallbacks", "count", ("registry",)),
    ("metrics.snr_s", "s", ("metrics.snr",)),
    ("power.estimate_s", "s", ("power.estimate",)),
    ("cache.get_s", "s", ("cache.get",)),
    ("cache.put_s", "s", ("cache.put",)),
    ("cache.hit_frac", "frac", ("cache.get",)),
    ("explore.sweep_s", "s", ("explore.sweep",)),
    ("explore.overhead_s", "s", ("explore.sweep",) + EVALUATION_SPANS),
    ("pool.first_result_s", "s", ("explore.sweep", "evaluator.evaluate")),
    ("pool.worker_cpu_s", "s", ("evaluator.evaluate",)),
    ("pool.worker_rss_mb", "MB", ("evaluator.evaluate",)),
    ("batch.groups", "count", ("batch.group",)),
    ("batch.fallback_points", "count", ("batch.evaluate_chunk", "evaluator.evaluate")),
    ("adaptive.rung0_s", "s", ("adaptive.run", "explore.sweep")),
    ("adaptive.rung1_s", "s", ("adaptive.run", "explore.sweep")),
    ("adaptive.full_s", "s", ("adaptive.run", "explore.sweep")),
    ("adaptive.full_evals", "count", ("adaptive.run", "explore.sweep")),
    ("report.analyze_s", "s", ()),
    ("report.render_s", "s", ()),
    ("trace.overhead_frac", "frac", ()),
    ("trace.unattributed_frac", "frac", ()),
)

UNITS = {name: unit for name, unit, _ in PER_LAYER}


def _resolve(target: str):
    """``(owner, attribute, object)`` of ``"module:Qual.name"``."""
    module_name, _, qualname = target.partition(":")
    owner = importlib.import_module(module_name)
    *path, attribute = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attribute, getattr(owner, attribute)


def _replace_everywhere(owner, original, wrapper) -> None:
    """Rebind every reference to ``original`` the program looks up by name.

    On a class that is each attribute bound to it (``__call__ = evaluate``
    aliases); for a module-level function it is every loaded ``repro``
    module that imported it with ``from ... import``.
    """
    if isinstance(owner, type):
        for name, value in list(vars(owner).items()):
            if value is original:
                setattr(owner, name, wrapper)
        return
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "repro" or module_name.startswith("repro.")):
            continue
        for name, value in list(vars(module).items()):
            if value is original:
                setattr(module, name, wrapper)


def _span_attrs(name: str):
    if name == "cache.get":
        return lambda args, kwargs, result: {"hit": result is not None}
    if name == "explore.sweep":
        return lambda args, kwargs, result: {"points": len(result)}
    return None


def install(recorder) -> set[str]:
    """Wrap every resolvable target; returns the span names installed."""
    resolved: dict[str, bool] = {}
    for name, target in TARGETS:
        try:
            owner, _attribute, original = _resolve(target)
        except (ImportError, AttributeError):
            resolved[name] = False
            continue
        _replace_everywhere(owner, original, recorder.wrap(name, original, _span_attrs(name)))
        resolved.setdefault(name, True)
    installed = {name for name, ok in resolved.items() if ok}
    try:
        registry = _resolve(REGISTRY)[2]
    except (ImportError, AttributeError):
        return installed
    original_call = registry.call

    def counted_call(kernel, *args, **kwargs):
        fallbacks = registry.usage().get(kernel, {}).get("fallback_calls", 0)
        result = original_call(kernel, *args, **kwargs)
        recorder.count("kernels.calls")
        recorder.count("kernels.fallbacks", registry.usage()[kernel]["fallback_calls"] - fallbacks)
        if kernel == "fista":
            _z, iterations = result
            recorder.count("fista.solves")
            recorder.count("fista.frames", args[1].shape[0])
            recorder.count("fista.iterations", iterations)
            recorder.count("fista.at_cap", int(iterations >= args[3]))
        return result

    registry.call = counted_call
    installed.add("registry")
    return installed


# --- derivation ----------------------------------------------------------


def _union_ns(intervals: list[tuple[int, int]]) -> int:
    total = 0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def _clip(intervals, start: int, end: int) -> list[tuple[int, int]]:
    return [(max(s, start), min(e, end)) for s, e in intervals if e > start and s < end]


def span_table(records: list[dict]) -> tuple[list[dict], dict[str, dict]]:
    """All spans (with pid and self time) and per-name count/total/self."""
    spans = []
    for record in records:
        for span in record["spans"]:
            spans.append({**span, "pid": record["pid"]})
    children: dict[str, list[dict]] = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append(span)
    table: dict[str, dict] = {}
    for span in spans:
        covered = _union_ns(
            _clip([(c["start"], c["end"]) for c in children[span["id"]]], span["start"], span["end"])
        )
        span["self_ns"] = span["end"] - span["start"] - covered
        row = table.setdefault(span["name"], {"count": 0, "total_s": 0.0, "self_s": 0.0})
        row["count"] += 1
        row["total_s"] += (span["end"] - span["start"]) / 1e9
        row["self_s"] += span["self_ns"] / 1e9
    return spans, table


def derive(
    records: list[dict], installed: set[str], wall_start_ns: int, wall_end_ns: int
) -> tuple[dict[str, float | None], dict[str, dict]]:
    """Per-layer metric values (``None`` = absent) and the span table."""
    spans, table = span_table(records)
    by_id = {span["id"]: span for span in spans}
    main_pid = records[0]["pid"]

    def ancestors(span):
        parent = by_id.get(span["parent"])
        while parent is not None:
            yield parent
            parent = by_id.get(parent["parent"])

    def self_s(name: str) -> float:
        return table.get(name, {}).get("self_s", 0.0)

    def count(name: str) -> int:
        return table.get(name, {}).get("count", 0)

    counters: dict[str, float] = defaultdict(float)
    for record in records:
        for key, value in record["counters"].items():
            counters[key] += value

    # Self time of the span named like the metric; the metrics below that
    # are not plain self times overwrite their entry.
    values: dict[str, float | None] = {
        name: self_s(name[: -len("_s")]) for name, _unit, _deps in PER_LAYER if name.endswith("_s")
    }
    values["import.scipy_signal"] = counters["scipy_signal_loaded"]
    values["evaluator.points"] = count("evaluator.chain_build")

    solves = counters["fista.solves"]
    values["cs.fista_solves"] = solves
    values["cs.fista_frames"] = counters["fista.frames"]
    values["cs.fista_iters_mean"] = counters["fista.iterations"] / solves if solves else None
    values["cs.fista_cap_frac"] = counters["fista.at_cap"] / solves if solves else None
    values["kernels.calls"] = counters["kernels.calls"]
    values["kernels.fallbacks"] = counters["kernels.fallbacks"]

    gets = [s for s in spans if s["name"] == "cache.get"]
    hits = sum(1 for s in gets if s.get("attrs", {}).get("hit"))
    values["cache.hit_frac"] = hits / len(gets) if gets else None

    sweep_names = ("explore.sweep", "adaptive.run")
    sweeps = [
        s for s in spans
        if s["name"] in sweep_names and not any(a["name"] in sweep_names for a in ancestors(s))
    ]
    evaluations = [(s["start"], s["end"]) for s in spans if s["name"] in EVALUATION_SPANS]
    values["explore.sweep_s"] = sum(s["end"] - s["start"] for s in sweeps) / 1e9
    values["explore.overhead_s"] = sum(
        s["end"] - s["start"] - _union_ns(_clip(evaluations, s["start"], s["end"]))
        for s in sweeps
    ) / 1e9

    workers = [r for r in records if r["pid"] != main_pid and r["spans"]]
    worker_ends = [
        s["end"] for s in spans if s["pid"] != main_pid and s["name"] in EVALUATION_SPANS
    ]
    if workers and worker_ends and sweeps:
        values["pool.first_result_s"] = (min(worker_ends) - min(s["start"] for s in sweeps)) / 1e9
        values["pool.worker_cpu_s"] = sum(r["cpu_s"] for r in workers)
        values["pool.worker_rss_mb"] = max(r["maxrss_mb"] for r in workers)
    else:
        values["pool.first_result_s"] = None
        values["pool.worker_cpu_s"] = None
        values["pool.worker_rss_mb"] = None

    if count("batch.evaluate_chunk"):
        values["batch.groups"] = count("batch.group")
        values["batch.fallback_points"] = sum(
            1
            for s in spans
            if s["name"] == "evaluator.evaluate"
            and any(a["name"] == "batch.evaluate_chunk" for a in ancestors(s))
        )
    else:
        values["batch.groups"] = values["batch.fallback_points"] = None

    adaptive = [s for s in spans if s["name"] == "adaptive.run"]
    rungs = sorted(
        (
            s for s in spans
            if s["name"] == "explore.sweep" and any(a["name"] == "adaptive.run" for a in ancestors(s))
        ),
        key=lambda s: s["start"],
    )
    if adaptive and len(rungs) >= 3:
        values["adaptive.rung0_s"] = (rungs[0]["end"] - rungs[0]["start"]) / 1e9
        values["adaptive.rung1_s"] = (rungs[1]["end"] - rungs[1]["start"]) / 1e9
        values["adaptive.full_s"] = (rungs[-1]["end"] - rungs[-1]["start"]) / 1e9
        values["adaptive.full_evals"] = rungs[-1].get("attrs", {}).get("points")
    else:
        for key in ("adaptive.rung0_s", "adaptive.rung1_s", "adaptive.full_s", "adaptive.full_evals"):
            values[key] = None

    roots = [
        (s["start"], s["end"]) for s in spans if s["pid"] == main_pid and s["parent"] is None
    ]
    wall = wall_end_ns - wall_start_ns
    covered = _union_ns(_clip(roots, wall_start_ns, wall_end_ns))
    values["trace.unattributed_frac"] = 1.0 - covered / wall if wall > 0 else None
    values["trace.overhead_frac"] = None  # needs untraced runs: set by run.py

    for name, _unit, deps in PER_LAYER:
        if any(dep not in installed for dep in deps):
            values[name] = None
    return values, table
