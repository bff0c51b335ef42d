"""Per-layer diff of two traced runs.

Usage::

    python3 perfbench/diff.py BEFORE.json AFTER.json

Both files are traced-run outputs of ``run.py --trace 1``
(``.perfbench-work/trace-<workload>-seed<seed>.json``).  Prints the
self-time and call-count change of every span name, largest self-time
move first, then every per-layer metric whose value changed, so a
failing end-to-end comparison names the layer that moved.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def load(path: str) -> dict:
    data = json.loads(Path(path).read_text())
    if "spans" not in data or "layers" not in data:
        raise ValueError(f"{path} is not a traced-run output of perfbench/run.py")
    return data


def span_rows(before: dict, after: dict) -> list[tuple]:
    rows = []
    for name in sorted(set(before["spans"]) | set(after["spans"])):
        a = before["spans"].get(name, {"self_s": 0.0, "count": 0})
        b = after["spans"].get(name, {"self_s": 0.0, "count": 0})
        delta = b["self_s"] - a["self_s"]
        rows.append((name, a["self_s"], b["self_s"], delta, a["count"], b["count"]))
    rows.sort(key=lambda row: abs(row[3]), reverse=True)
    return rows


def metric_rows(before: dict, after: dict) -> list[tuple]:
    rows = []
    for name in sorted(set(before["layers"]) | set(after["layers"])):
        a, b = before["layers"].get(name, {}), after["layers"].get(name, {})
        shown_a = "absent" if not a or name in before.get("absent", ()) else a["value"]
        shown_b = "absent" if not b or name in after.get("absent", ()) else b["value"]
        if shown_a == shown_b:
            continue
        if isinstance(shown_a, str) or isinstance(shown_b, str):
            size = float("inf")
        else:
            size = abs(shown_b - shown_a) / max(abs(shown_a), 1e-12)
        rows.append((name, shown_a, shown_b, size, b.get("unit") or a.get("unit", "")))
    rows.sort(key=lambda row: row[3], reverse=True)
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("before")
    parser.add_argument("after")
    args = parser.parse_args(argv)
    try:
        before, after = load(args.before), load(args.after)
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if before.get("workload") != after.get("workload"):
        print(f"warning: comparing workload {before.get('workload')} with "
              f"{after.get('workload')}", file=sys.stderr)

    spans = span_rows(before, after)
    if spans:
        name, a, _b, delta, _ca, _cb = spans[0]
        share = f"{delta / a:+.1%}" if a else "new"
        print(f"largest self-time move: {name} {delta:+.4f} s ({share})\n")
    print(f"{'span':<24}{'self_s before':>14}{'self_s after':>14}{'delta_s':>11}"
          f"{'calls before':>14}{'calls after':>13}{'delta':>8}")
    for name, a, b, delta, ca, cb in spans:
        print(f"{name:<24}{a:>14.4f}{b:>14.4f}{delta:>+11.4f}{ca:>14g}{cb:>13g}{cb - ca:>+8g}")

    metrics = metric_rows(before, after)
    if metrics:
        print(f"\n{'per-layer metric':<26}{'before':>14}{'after':>14}  unit")
        for name, a, b, _size, unit in metrics:
            fa = a if isinstance(a, str) else f"{a:.6g}"
            fb = b if isinstance(b, str) else f"{b:.6g}"
            print(f"{name:<26}{fa:>14}{fb:>14}  {unit}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
