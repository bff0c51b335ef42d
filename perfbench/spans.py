"""In-memory span recorder for the traced benchmark run.

A span is a name, a start, an end (``time.monotonic_ns``, one clock for
every process on the host) and the id of the span that caused it.  Spans
stay in memory and are written out when the sweep process ends.

Process-pool workers are forked from the sweep process, so they inherit
the wrapped layer entry points together with this recorder.  In a worker
the recorder starts empty, parents its first spans to the span that was
open in the forking thread, and appends its spans to
``<flush_dir>/spans-<pid>.jsonl`` each time its outermost span closes:
pool workers leave through ``os._exit``, which runs no exit hook, so a
flush per completed unit of work is the only way the spans come back.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import os
import resource
import threading
import time
from collections.abc import Callable, Iterator
from pathlib import Path


class SpanRecorder:
    """Records spans and counters of one process (and of its forks)."""

    def __init__(self, flush_dir: Path):
        self.flush_dir = Path(flush_dir)
        self.main_pid = os.getpid()
        self.pid = self.main_pid
        self.spans: list[dict] = []
        self.counters: dict[str, float] = {}
        self.remote_parent: str | None = None
        self._local = threading.local()
        self._ids = itertools.count(1)
        os.register_at_fork(after_in_child=self._after_fork)

    def _stack(self) -> list[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _after_fork(self) -> None:
        stack = self._stack()
        self.remote_parent = stack[-1] if stack else self.remote_parent
        self.pid = os.getpid()
        self.spans = []
        self.counters = {}
        self._local = threading.local()
        self._ids = itertools.count(1)

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def begin(self) -> tuple[str, str | None, int]:
        stack = self._stack()
        parent = stack[-1] if stack else self.remote_parent
        span_id = f"{self.pid}:{next(self._ids)}"
        stack.append(span_id)
        return span_id, parent, time.monotonic_ns()

    def end(self, token: tuple[str, str | None, int], name: str, attrs: dict) -> None:
        end = time.monotonic_ns()
        span_id, parent, start = token
        stack = self._stack()
        stack.pop()
        span = {"id": span_id, "parent": parent, "name": name, "start": start, "end": end}
        if attrs:
            span["attrs"] = attrs
        self.spans.append(span)
        if not stack and self.pid != self.main_pid:
            self.flush()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record one span around a block of code."""
        token = self.begin()
        try:
            yield
        finally:
            self.end(token, name, {})

    def wrap(self, name: str, fn: Callable, attrs: Callable | None = None) -> Callable:
        """``fn`` wrapped in a span; ``attrs(args, kwargs, result)`` adds fields."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = self.begin()
            extra: dict = {}
            try:
                result = fn(*args, **kwargs)
                if attrs is not None:
                    extra = attrs(args, kwargs, result)
                return result
            finally:
                self.end(token, name, extra)

        return traced

    def process_record(self) -> dict:
        """This process's spans, counters, CPU time and peak RSS."""
        usage = resource.getrusage(resource.RUSAGE_SELF)
        return {
            "pid": self.pid,
            "spans": self.spans,
            "counters": dict(self.counters),
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "maxrss_mb": usage.ru_maxrss / 1024.0,
        }

    def flush(self) -> None:
        """Append this worker's closed spans to its per-process file."""
        record = self.process_record()
        path = self.flush_dir / f"spans-{self.pid}.jsonl"
        with path.open("a") as handle:
            handle.write(json.dumps(record) + "\n")
        self.spans = []

    def collect(self) -> list[dict]:
        """Every process's record: this one plus the flushed workers'.

        Spans of a worker accumulate over its flushes; its counters and
        resource usage are cumulative, so its last flush wins.
        """
        records = [self.process_record()]
        for path in sorted(self.flush_dir.glob("spans-*.jsonl")):
            merged: dict | None = None
            for line in path.read_text().splitlines():
                record = json.loads(line)
                if merged is None:
                    merged = record
                else:
                    merged["spans"].extend(record["spans"])
                    for key in ("counters", "cpu_s", "maxrss_mb"):
                        merged[key] = record[key]
            if merged is not None:
                records.append(merged)
        return records

