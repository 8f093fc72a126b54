"""The dispatch step: how a list of cache-missing jobs gets executed.

:func:`dispatch_jobs` splits the jobs into variant groups
(:func:`~repro.engine.worker.variant_groups`) and runs each group through
:func:`~repro.engine.worker.execute_group` — inline when serial, through
``ProcessPoolExecutor.map`` with an amortizing chunksize when
``workers > 1``.  Records come back in submission order, which is what
keeps ``--jobs 4`` byte-identical to a serial run; fingerprints and
record schemas are untouched by construction (the same
:func:`~repro.engine.worker.execute_group` produces every record).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from repro.errors import ExperimentError
from repro.obs import core as obs
from repro.obs import distributed

from repro.engine.jobs import Job
from repro.engine.worker import execute_group, job_failure, variant_groups

__all__ = ["dispatch_jobs"]


def _pool_kwargs() -> dict:
    """Extra ``ProcessPoolExecutor`` kwargs: when the coordinator is
    tracing, initialize every pool worker with the run's trace context
    so per-group captures stitch under it (no-op kwargs otherwise — the
    disabled path constructs the pool exactly as before)."""
    context = distributed.propagation_context()
    if context is None:
        return {}
    return {
        "initializer": distributed.worker_init,
        "initargs": (context.trace_id, context.span_id),
    }


def dispatch_jobs(jobs: Sequence[Job], workers: Optional[int] = None) -> List[dict]:
    """Execute ``jobs`` group by group — inline, or ``pool.map`` over
    ``workers`` processes — and return one record per job in submission
    order."""
    if not jobs:
        return []
    obs.add("engine.dispatch.jobs", len(jobs))
    indices = variant_groups(jobs)
    groups = [[jobs[i] for i in group] for group in indices]
    if workers and workers > 1 and len(groups) > 1:
        from concurrent.futures import ProcessPoolExecutor

        # Larger chunks amortize pickling/IPC; the /4 keeps enough
        # chunks in flight to balance uneven group costs.
        chunksize = max(1, len(groups) // (workers * 4))
        with ProcessPoolExecutor(max_workers=workers, **_pool_kwargs()) as pool:
            results = _drain(
                pool.map(execute_group, groups, chunksize=chunksize), groups
            )
    else:
        # execute_group names the failing group itself
        results = [execute_group(group) for group in groups]
    records: List[dict] = [None] * len(jobs)  # type: ignore[list-item]
    for group, group_records in zip(indices, results):
        for i, record in zip(group, group_records):
            records[i] = record
    return records


def _drain(
    results: Iterable[List[dict]], groups: Sequence[Sequence[Job]]
) -> List[List[dict]]:
    """Collect pool results, re-raising the first failure with a job's
    identity.  :func:`~repro.engine.worker.execute_group` already names
    its group in its :class:`ExperimentError`; this catch covers failures
    the worker could not wrap (a killed process, an unpicklable record),
    blaming the first undelivered group (``pool.map`` yields in
    submission order, so that is the count of groups collected so
    far)."""
    collected: List[List[dict]] = []
    it = iter(results)
    while True:
        try:
            records = next(it)
        except StopIteration:
            return collected
        except ExperimentError:
            raise
        except Exception as exc:
            raise job_failure(groups[len(collected)][0], exc) from exc
        for record in records:
            distributed.absorb(record)
        collected.append(records)
