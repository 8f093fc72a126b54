"""The dispatch step: how a list of cache-missing jobs gets executed.

:func:`dispatch_jobs` runs them inline when serial and through
``ProcessPoolExecutor.map`` with an amortizing chunksize when
``workers > 1``.  Records come back in submission order, which is what
keeps ``--jobs 4`` byte-identical to a serial run; fingerprints and
record schemas are untouched by construction (the same
:func:`~repro.engine.worker.execute_job` produces every record).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from repro.errors import ExperimentError
from repro.obs import core as obs
from repro.obs import distributed

from repro.engine.jobs import Job
from repro.engine.worker import execute_job

__all__ = ["dispatch_jobs"]


def _job_failure(job: Job, exc: BaseException) -> ExperimentError:
    """Name the job that died — a bare worker traceback loses which cell
    of a 24-job matrix failed."""
    return ExperimentError(
        f"job failed for ({job.benchmark}, {job.experiment}, "
        f"{job.effective_library()}): {exc}"
    )


def _pool_kwargs() -> dict:
    """Extra ``ProcessPoolExecutor`` kwargs: when the coordinator is
    tracing, initialize every pool worker with the run's trace context
    so per-job captures stitch under it (no-op kwargs otherwise — the
    disabled path constructs the pool exactly as before)."""
    context = distributed.propagation_context()
    if context is None:
        return {}
    return {
        "initializer": distributed.worker_init,
        "initargs": (context.trace_id, context.span_id),
    }


def dispatch_jobs(jobs: Sequence[Job], workers: Optional[int] = None) -> List[dict]:
    """Execute ``jobs`` — inline, or ``pool.map`` over ``workers``
    processes — and return one record per job in submission order."""
    if not jobs:
        return []
    obs.add("engine.dispatch.jobs", len(jobs))
    if workers and workers > 1 and len(jobs) > 1:
        from concurrent.futures import ProcessPoolExecutor

        # Larger chunks amortize pickling/IPC; the /4 keeps enough
        # chunks in flight to balance uneven job costs.
        chunksize = max(1, len(jobs) // (workers * 4))
        with ProcessPoolExecutor(max_workers=workers, **_pool_kwargs()) as pool:
            return _drain(pool.map(execute_job, jobs, chunksize=chunksize), jobs)
    # execute_job names the failing job itself
    return [execute_job(job) for job in jobs]


def _drain(results: Iterable[dict], todo: Sequence[Job]) -> List[dict]:
    """Collect pool results, re-raising the first failure with a job's
    identity.  :func:`~repro.engine.worker.execute_job` already names the
    exact job in its :class:`ExperimentError`; this catch covers failures
    the worker could not wrap (a killed process, an unpicklable record),
    blaming the first undelivered job (``pool.map`` yields in submission
    order, so that is the count of records collected so far)."""
    records: List[dict] = []
    it = iter(results)
    while True:
        try:
            record = next(it)
        except StopIteration:
            return records
        except ExperimentError:
            raise
        except Exception as exc:
            raise _job_failure(todo[len(records)], exc) from exc
        distributed.absorb(record)
        records.append(record)
