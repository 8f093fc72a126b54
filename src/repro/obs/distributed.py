"""Pool-worker tracing: one trace across the coordinator and its
worker processes.

The coordinator's recorder owns the run's **trace context** — its trace
id plus the span id of whatever span encloses the dispatch.  When the
coordinator records, :func:`~repro.engine.dispatch.dispatch_jobs` passes
:func:`worker_init` as the ``ProcessPoolExecutor`` initializer (only
then, so the disabled path stays untouched).  Inside the worker,
:func:`begin_job_capture` starts a throwaway recorder per job, seeded
with the coordinator's trace id and parented under its dispatch span;
the capture payload rides home on the job record under the ``"obs"``
key, and the coordinator calls :func:`absorb` to pop it and stitch it
into its own recorder (timestamps rebased via the worker's wall-clock
epoch, records tagged ``worker_pid``, worker metrics merged into the
registry).

Span ids are globally unique strings (random prefix per recorder), so
stitching is pure concatenation — no id remapping.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

from repro.obs import core
from repro.obs.sinks import MemorySink

__all__ = [
    "TraceContext",
    "absorb",
    "begin_job_capture",
    "propagation_context",
    "worker_init",
]


@dataclass(frozen=True)
class TraceContext:
    """A propagatable (trace id, parent span id) pair."""

    trace_id: str
    span_id: Optional[str] = None


def propagation_context() -> Optional[TraceContext]:
    """The context to hand a pool worker from the current execution
    point; None when tracing is off (children then run with
    tracing off too — the zero-cost default)."""
    parent = core.trace_parent()
    if parent is None:
        return None
    return TraceContext(trace_id=parent[0], span_id=parent[1])


#: Set once per worker process by worker_init (pool initializer).
_WORKER_CONTEXT: Optional[TraceContext] = None


def worker_init(trace_id: str, span_id: Optional[str]) -> None:
    """``ProcessPoolExecutor`` initializer: remember the coordinator's
    trace context so job executions in this worker capture under it.

    A *forked* worker (the Linux default) also inherits the
    coordinator's live recorder; discard that reference — without
    flushing its sinks, which belong to the parent — so per-job
    captures start clean instead of recording into a dead copy."""
    global _WORKER_CONTEXT
    _WORKER_CONTEXT = TraceContext(trace_id=trace_id, span_id=span_id)
    if core.enabled():
        core.discard()


class JobCapture:
    """A per-job throwaway recorder inside a pool worker.

    :meth:`finish` tears it down and returns the JSON-safe payload the
    job record carries home (``{"pid", "wall_epoch", "records",
    "metrics"}``).
    """

    def __init__(self, context: TraceContext) -> None:
        self.sink = MemorySink()
        self.recorder = core.configure(
            self.sink, trace_id=context.trace_id, parent_span=context.span_id
        )

    def finish(self) -> dict:
        wall_epoch = self.recorder.wall_epoch
        if core.current() is self.recorder:
            metrics = core.shutdown()
        else:  # replaced mid-job; still close our own
            metrics = self.recorder.close()
        records = [r for r in self.sink.records if r.get("type") != "metrics"]
        return {
            "pid": os.getpid(),
            "wall_epoch": wall_epoch,
            "records": records,
            "metrics": metrics or {},
        }


def begin_job_capture() -> Optional[JobCapture]:
    """Start capturing obs output for one job in a pool worker.

    Returns None (capture nothing) unless this process was initialized
    with :func:`worker_init` — i.e. the coordinator is tracing — and no
    recorder is already live here (inline dispatch records directly
    into the coordinator's recorder; wrapping it would steal records).
    """
    if _WORKER_CONTEXT is None or core.enabled():
        return None
    return JobCapture(_WORKER_CONTEXT)


def absorb(record: Optional[dict]) -> int:
    """Pop a job record's ``"obs"`` payload (if any) and stitch it into
    the active recorder.  The dispatch step calls this on every record
    as it arrives, *before* the record reaches the result cache or the
    caller, so records stay byte-identical to an untraced run.  Returns
    the number of stitched records."""
    if not record:
        return 0
    payload = record.pop("obs", None)
    if not payload:
        return 0
    recorder = core.current()
    if recorder is None:
        return 0
    return recorder.merge_worker(payload)
