"""The parallel, content-addressed experiment engine.

The paper's whole-program study is a job matrix — ``experiment key x
benchmark x machine`` — that is embarrassingly parallel and highly
cacheable.  This package runs it that way:

* :mod:`repro.engine.jobs` — picklable :class:`Job`/:class:`MachineSpec`
  value objects and SHA-256 content fingerprints;
* :mod:`repro.engine.worker` — variant-group execution (one
  :func:`repro.runtime.simulate_many` call for several cost-only
  variants, :func:`repro.runtime.simulate` for a lone job) with a
  two-level compile cache (front end once per benchmark, optimizer once
  per opt level);
* :mod:`repro.engine.cache` — the result cache: :class:`DirCache` (the
  ``.repro-cache/`` layout) and :class:`NullCache` (``--no-cache``);
* :mod:`repro.engine.dispatch` — :func:`dispatch_jobs`, which runs
  cache misses group by group, inline or over a process pool;
* :mod:`repro.engine.core` — :class:`ExperimentEngine` (cache
  partition + dispatch) and the :func:`run_study` facade.

See ``docs/ENGINE.md`` for the job-matrix model, the result cache, the
worker pool, and the telemetry schema.
"""

from repro.engine.cache import (
    RECORD_SCHEMA,
    CacheBackend,
    CacheStats,
    DirCache,
    NullCache,
    default_cache_root,
    make_cache,
)
from repro.engine.core import (
    ExperimentEngine,
    JobOutcome,
    StudyResult,
    build_matrix,
    load_telemetry,
    run_study,
)
from repro.engine.dispatch import dispatch_jobs
from repro.engine.jobs import ENGINE_VERSION, Job, MachineSpec, source_sha
from repro.engine.worker import (
    clear_compile_cache,
    execute_group,
    variant_groups,
)

__all__ = [
    "CacheBackend",
    "CacheStats",
    "DirCache",
    "ENGINE_VERSION",
    "ExperimentEngine",
    "Job",
    "JobOutcome",
    "MachineSpec",
    "NullCache",
    "RECORD_SCHEMA",
    "StudyResult",
    "build_matrix",
    "clear_compile_cache",
    "default_cache_root",
    "dispatch_jobs",
    "execute_group",
    "load_telemetry",
    "make_cache",
    "run_study",
    "source_sha",
    "variant_groups",
]
