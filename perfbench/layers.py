"""Per-layer tracing for the benchmark's traced runs.

A :class:`Tracer` wraps the public entry points of each ``repro`` layer
from outside the program: it assigns timing wrappers onto the modules and
classes for one traced iteration (:meth:`Tracer.install`) and puts the
originals back afterwards (:meth:`Tracer.uninstall`).  No program file
changes, and the untraced runs never import this module.

Each wrapped call records a span: name, start, end, parent span and process.
Spans stay in memory.  :meth:`Tracer.take` closes one traced iteration's
accumulator and returns its metrics; :meth:`Tracer.dump` writes the spans
of the last one closed.  A layer's *self time* is the duration of its spans minus the part covered by
their child spans in the same process.  A call is counted only when it
enters a layer from outside it, so a hierarchical allocator's inner
waterfalls, or the ``next_request_batch`` that ``advance_request_batch``
evaluates, do not count twice.

Shard workers are forked after :meth:`Tracer.install`, so they inherit the
wrappers.  Each group window records into its own :class:`_Acc`, which rides
back to the coordinator on the window result and is merged there: on
``giant`` the kernel, feedback, allocator and log metrics therefore sum the
busy time of both shard workers, which overlaps ``shard.dispatch_s``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.allocators.base import Allocator
from repro.core.columnar import TraceColumns
from repro.core.feedback import FeedbackPolicy
from repro.experiments import fig6 as fig6_experiment
from repro.io import traces as traces_io
from repro.report import export
from repro.sim import multi, sharded
from repro.sim.multi_batched import MultiBatchKernel
from repro.sim.superstep import QuantumLog
from repro.verify import auditor
from repro.workloads.jobsets import JobSetGenerator

__all__ = ["Tracer", "traced_group_window"]

Hook = Callable[["_Acc", Any, tuple, dict], None]

#: The tracer installed in this process.  Shard workers reach it here: the
#: window function they run is sent by reference, not as a closure.
_ACTIVE: "Tracer | None" = None


class _Acc:
    """Spans and counters of one process's share of a traced run."""

    __slots__ = ("pid", "spans", "stack", "child", "self_s", "calls", "counts", "busy_s")

    def __init__(self) -> None:
        self.pid = os.getpid()
        #: ``[name, start, end, parent index, pid]`` per span
        self.spans: list[list[Any]] = []
        self.stack: list[int] = []
        #: time covered by closed children, per open span index
        self.child: dict[int, float] = {}
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: defaultdict[str, int] = defaultdict(int)
        self.counts: defaultdict[str, int] = defaultdict(int)
        #: wall time of the group window this accumulator recorded
        self.busy_s = 0.0

    def merge(self, other: "_Acc") -> None:
        base = len(self.spans)
        for name, start, end, parent, pid in other.spans:
            self.spans.append(
                [name, start, end, None if parent is None else parent + base, pid]
            )
        for table, extra in (
            (self.self_s, other.self_s),
            (self.calls, other.calls),
            (self.counts, other.counts),
        ):
            for key, value in extra.items():
                table[key] += value


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Span recorder for one traced benchmark process."""

    def __init__(self) -> None:
        self.acc = _Acc()
        #: the accumulator :meth:`take` last closed; :meth:`dump` writes it
        self.taken = self.acc
        self.origin = time.perf_counter()
        self._undo: list[tuple[Any, str, Any]] = []
        self.original_window: Callable[[Any], Any] = sharded.run_group_window

    # -- spans ----------------------------------------------------------

    def _open(self, name: str) -> int:
        acc = self.acc
        parent = acc.stack[-1] if acc.stack else None
        if parent is None or _layer(acc.spans[parent][0]) != _layer(name):
            acc.calls[name] += 1
        index = len(acc.spans)
        acc.spans.append([name, time.perf_counter(), None, parent, acc.pid])
        acc.stack.append(index)
        return index

    def _close(self, index: int) -> None:
        acc = self.acc
        end = time.perf_counter()
        span = acc.spans[index]
        span[2] = end
        acc.stack.pop()
        duration = end - span[1]
        acc.self_s[span[0]] += duration - acc.child.pop(index, 0.0)
        parent = span[3]
        if parent is not None:
            acc.child[parent] = acc.child.get(parent, 0.0) + duration

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    # -- wrapping -------------------------------------------------------

    def _wrap(self, owner: Any, attr: str, name: str, hook: Hook | None = None) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = tracer._open(name)
            try:
                result = original(*args, **kwargs)
                if hook is not None:
                    hook(tracer.acc, result, args, kwargs)
                return result
            finally:
                tracer._close(index)

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def install(self) -> "Tracer":
        """Wrap every layer's entry points; returns ``self``.  Allocator and
        feedback-policy classes are found as the subclasses loaded by now,
        which covers every class the workloads use."""
        global _ACTIVE
        w = self._wrap
        w(JobSetGenerator, "generate", "workloads.generate")
        for owner in (multi, fig6_experiment):
            w(owner, "simulate_job_set", "sim.simulate", _count_sim)
        for cls in _subclasses(Allocator):
            for attr in ("allocate_batch", "allocate"):
                if attr in cls.__dict__:
                    w(cls, attr, "allocators.allocate")
        w(Allocator, "allocation_fixed_point", "allocators.fixed_point", _count_fixed_point)
        for cls in _subclasses(FeedbackPolicy):
            if "next_request_batch" in cls.__dict__:
                w(cls, "next_request_batch", "feedback.next_request")
        w(FeedbackPolicy, "advance_request_batch", "feedback.advance", _count_advance)
        w(MultiBatchKernel, "execute_quantum", "kernel.execute")
        w(MultiBatchKernel, "superstep_plan", "kernel.plan", _count_plan)
        w(MultiBatchKernel, "apply_superstep", "kernel.apply_superstep", _count_superstep)
        w(MultiBatchKernel, "admit", "kernel.admit_remove")
        w(MultiBatchKernel, "remove", "kernel.admit_remove")
        w(QuantumLog, "append_quantum", "log.append", _count_append)
        w(QuantumLog, "build_traces", "log.build_traces")
        w(sharded, "run_supervised", "shard.dispatch", _merge_windows)
        self._undo.append((sharded, "run_group_window", self.original_window))
        sharded.run_group_window = traced_group_window
        w(TraceColumns, "build_records", "trace.build_records", _count_records)
        w(traces_io, "save_traces", "io.save", _count_bytes("io.bytes"))
        w(traces_io, "load_traces", "io.load")
        w(export, "write_csv", "export.write", _count_bytes("export.bytes"))
        w(auditor, "audit_multi_result", "audit", _count_violations)
        _ACTIVE = self
        return self

    def uninstall(self) -> None:
        global _ACTIVE
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        _ACTIVE = None

    # -- results --------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer self times (s), counts and ratios of everything
        recorded so far; ``tracing.overhead_ratio`` is left to the caller,
        which times untraced runs too."""
        s, calls, n = self.acc.self_s, self.acc.calls, self.acc.counts
        quanta = n["log.quanta"]
        fast = n["log.fast_forwarded_quanta"]
        return {
            "workloads.generate_s": s["workloads.generate"],
            "sim.simulate_s": s["sim.simulate"],
            "sim.simulate_calls": calls["sim.simulate"],
            "sim.quanta": n["sim.quanta"],
            "allocators.allocate_s": s["allocators.allocate"],
            "allocators.allocate_calls": calls["allocators.allocate"],
            "allocators.fixed_point_s": s["allocators.fixed_point"],
            "allocators.fixed_point_calls": calls["allocators.fixed_point"],
            "allocators.fixed_point_refused": n["allocators.fixed_point_refused"],
            "feedback.next_request_s": s["feedback.next_request"],
            "feedback.next_request_calls": calls["feedback.next_request"],
            "feedback.advance_s": s["feedback.advance"],
            "feedback.advance_calls": calls["feedback.advance"],
            "feedback.advance_refused": n["feedback.advance_refused"],
            "kernel.execute_s": s["kernel.execute"],
            "kernel.execute_calls": calls["kernel.execute"],
            "kernel.plan_calls": calls["kernel.plan"],
            "kernel.plan_refused": n["kernel.plan_refused"],
            "kernel.superstep_s": s["kernel.plan"] + s["kernel.apply_superstep"],
            "kernel.apply_superstep_calls": calls["kernel.apply_superstep"],
            "kernel.admit_remove_s": s["kernel.admit_remove"],
            "log.append_s": s["log.append"],
            "log.quanta": quanta,
            "log.fast_forwarded_quanta": fast,
            "log.fast_forward_ratio": fast / quanta if quanta else 0.0,
            "log.build_traces_s": s["log.build_traces"],
            "shard.dispatch_s": s["shard.dispatch"],
            "shard.dispatch_calls": calls["shard.dispatch"],
            "shard.windows": n["shard.windows"],
            "shard.window_quanta": n["shard.window_quanta"],
            "shard.retries": n["shard.retries"],
            "shard.pool_restarts": n["shard.pool_restarts"],
            "shard.serial_fallback": n["shard.serial_fallback"],
            "trace.build_records_s": s["trace.build_records"],
            "trace.records_built": n["trace.records_built"],
            "io.save_s": s["io.save"],
            "io.load_s": s["io.load"],
            "io.bytes": n["io.bytes"],
            "export.write_s": s["export.write"],
            "export.bytes": n["export.bytes"],
            "audit.s": s["audit"],
            "audit.violations": n["audit.violations"],
        }

    def take(self) -> dict[str, float]:
        """:meth:`metrics` of everything recorded since the last call, which
        then starts a fresh accumulator: one call per traced iteration."""
        metrics = self.metrics()
        self.taken, self.acc = self.acc, _Acc()
        return metrics

    def dump(self, path: Path) -> None:
        """Write the spans of the accumulator :meth:`take` last closed,
        times in seconds since the tracer was created."""
        spans = [
            {
                "id": i,
                "name": name,
                "start": start - self.origin,
                "end": None if end is None else end - self.origin,
                "parent": parent,
                "pid": pid,
            }
            for i, (name, start, end, parent, pid) in enumerate(self.taken.spans)
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": spans}))


def _subclasses(cls: type) -> list[type]:
    out: list[type] = []
    pending = [cls]
    while pending:
        for sub in pending.pop().__subclasses__():
            if sub not in out:
                out.append(sub)
                pending.append(sub)
    return out


# -- counters read from public return values --------------------------------


def _count_sim(acc: _Acc, result: Any, args: tuple, kwargs: dict) -> None:
    acc.counts["sim.quanta"] += result.quanta_elapsed


def _count_fixed_point(acc: _Acc, result: Any, args: tuple, kwargs: dict) -> None:
    if result == 0:
        acc.counts["allocators.fixed_point_refused"] += 1


def _count_advance(acc: _Acc, result: Any, args: tuple, kwargs: dict) -> None:
    if result is None:
        acc.counts["feedback.advance_refused"] += 1


def _count_plan(acc: _Acc, result: Any, args: tuple, kwargs: dict) -> None:
    if result is None:
        acc.counts["kernel.plan_refused"] += 1


def _count_superstep(acc: _Acc, result: Any, args: tuple, kwargs: dict) -> None:
    # apply_superstep(self, k, plan, alloc, length)
    acc.counts["log.fast_forwarded_quanta"] += int(args[1] if len(args) > 1 else kwargs["k"])


def _count_append(acc: _Acc, result: Any, args: tuple, kwargs: dict) -> None:
    acc.counts["log.quanta"] += int(kwargs["repeat"])


def _count_records(acc: _Acc, result: Any, args: tuple, kwargs: dict) -> None:
    acc.counts["trace.records_built"] += len(result)


def _count_bytes(key: str) -> Hook:
    def hook(acc: _Acc, result: Any, args: tuple, kwargs: dict) -> None:
        acc.counts[key] += Path(result).stat().st_size

    return hook


def _count_violations(acc: _Acc, result: Any, args: tuple, kwargs: dict) -> None:
    acc.counts["audit.violations"] += len(result)


def _merge_windows(acc: _Acc, outcome: Any, args: tuple, kwargs: dict) -> None:
    """Fold the group windows' accumulators into this process's and read
    the supervisor's bookkeeping off the returned outcome."""
    dispatch = acc.stack[-1]
    for result in outcome.results:
        shipped = getattr(result, "layer_acc", None)
        if shipped is None:
            continue
        result.layer_acc = None
        if shipped.pid == acc.pid:
            # Run in-process (a one-group window): its time is not the
            # dispatch's own.
            acc.child[dispatch] = acc.child.get(dispatch, 0.0) + shipped.busy_s
        acc.merge(shipped)
        acc.counts["shard.windows"] += 1
        acc.counts["shard.window_quanta"] += result.executed
    acc.counts["shard.retries"] += sum(max(a - 1, 0) for a in outcome.attempts.values())
    acc.counts["shard.pool_restarts"] += outcome.pool_restarts
    acc.counts["shard.serial_fallback"] += int(outcome.serial_fallback)


class _TracedWindowResult(sharded.GroupWindowResult):
    """A window result that also carries the window's layer accumulator
    (no ``__slots__``, so it has room for the extra attribute)."""


def traced_group_window(task: Any) -> Any:
    """``run_group_window`` recording into a fresh accumulator that travels
    back with the result.  Sent to shard workers by reference."""
    tracer = _ACTIVE if _ACTIVE is not None else Tracer().install()
    outer = tracer.acc
    inner = tracer.acc = _Acc()
    start = time.perf_counter()
    try:
        result = tracer.original_window(task)
    finally:
        tracer.acc = outer
    inner.busy_s = time.perf_counter() - start
    traced = _TracedWindowResult(
        **{f.name: getattr(result, f.name) for f in dataclasses.fields(result)}
    )
    traced.layer_acc = inner
    return traced
