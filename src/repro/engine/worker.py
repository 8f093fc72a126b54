"""Job execution and the per-process compile cache.

:func:`execute_group` is the function the engine submits — inline for
serial runs, through a ``ProcessPoolExecutor`` for parallel ones — so it
must be a module-level importable and everything it touches picklable.
Its unit is a *variant group* (:func:`variant_groups`): the cache-missing
jobs that differ only in machine-cost overrides.  A group of several
TIMING variants is one batched :func:`repro.simulate_many` call; every
other job runs alone through :func:`repro.simulate`.

The compile cache is two-level, exploiting the structure of the paper's
study:

* **lowered** programs are keyed by ``(source hash, merged config)`` —
  the front end (parse / analyze / lower) runs once per benchmark per
  process, shared by all six experiment keys;
* **optimized** programs are keyed by ``(source hash, merged config,
  OptimizationConfig)`` — each program is optimized once *per opt
  level*, not once per cell: ``pl`` and ``pl_shmem`` resolve to the same
  ``OptimizationConfig.full()`` and reuse one optimized program, since
  the library is a machine property, not a compiler property.  The
  per-pass :class:`~repro.comm.PipelineReport` of the optimization run
  is cached alongside the program, so cache hits still carry full
  pipeline telemetry.

Reuse is sound because :func:`repro.comm.optimize` returns a fresh
program (documented non-mutating) and :func:`repro.runtime.simulate`
never writes into the program it runs — the paper-table benchmarks
already re-simulate one program object repeatedly.

Caches are per-process: the serial path shares one across the whole
study, each pool worker warms its own.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List, Sequence, Tuple

from repro.comm import OptimizationConfig, optimize_with_report
from repro.errors import ExperimentError
from repro.experiments_registry import experiment_spec
from repro.ir.nodes import IRProgram
from repro.machine import pack_variant_specs
from repro.obs import core as obs
from repro.obs import distributed
from repro.programs import benchmark_source
from repro.programs.common import compile_source
from repro.runtime import ExecutionMode, SimOptions, simulate, simulate_many

from repro.engine.cache import RECORD_SCHEMA
from repro.engine.jobs import ConfigValue, Job, source_sha

_ConfigItems = Tuple[Tuple[str, ConfigValue], ...]

_LOWERED: Dict[Tuple[str, _ConfigItems], IRProgram] = {}
_OPTIMIZED: Dict[
    Tuple[str, _ConfigItems, OptimizationConfig], Tuple[IRProgram, dict]
] = {}


def clear_compile_cache() -> None:
    """Drop this process's compiled programs (tests; long sessions)."""
    _LOWERED.clear()
    _OPTIMIZED.clear()


def compile_cached(
    benchmark: str, config_items: _ConfigItems, opt: OptimizationConfig
) -> Tuple[IRProgram, dict, float, float, bool, bool]:
    """An optimized program for one benchmark, through the two-level
    cache.

    Returns ``(program, pipeline_report, compile_seconds,
    optimize_seconds, lowered_hit, optimized_hit)``; the report is the
    JSON-safe :meth:`~repro.comm.PipelineReport.as_dict` form and the
    wall times are 0.0 for phases served from cache.
    """
    sha = source_sha(benchmark)
    opt_key = (sha, config_items, opt)
    cached = _OPTIMIZED.get(opt_key)
    if cached is not None:
        obs.add("engine.compile_cache.optimized_hit")
        program, report = cached
        return program, report, 0.0, 0.0, True, True

    obs.add("engine.compile_cache.optimized_miss")
    low_key = (sha, config_items)
    lowered = _LOWERED.get(low_key)
    lowered_hit = lowered is not None
    obs.add(
        "engine.compile_cache.lowered_hit"
        if lowered_hit
        else "engine.compile_cache.lowered_miss"
    )
    compile_s = 0.0
    if lowered is None:
        t0 = time.perf_counter()
        lowered = compile_source(
            benchmark_source(benchmark),
            f"{benchmark}.zl",
            dict(config_items),
            opt=None,
        )
        compile_s = time.perf_counter() - t0
        _LOWERED[low_key] = lowered

    t0 = time.perf_counter()
    program, pipeline_report = optimize_with_report(lowered, opt)
    optimize_s = time.perf_counter() - t0
    report = pipeline_report.as_dict()
    _OPTIMIZED[opt_key] = (program, report)
    return program, report, compile_s, optimize_s, lowered_hit, False


def job_failure(job: Job, exc: BaseException) -> ExperimentError:
    """Name the job that died — a bare worker traceback loses which cell
    of a 24-job matrix failed."""
    return ExperimentError(
        f"job failed for ({job.benchmark}, {job.experiment}, "
        f"{job.effective_library()}): {exc}"
    )


def variant_groups(jobs: Sequence[Job]) -> List[List[int]]:
    """Indices of ``jobs`` split into variant groups, in order of first
    appearance.

    A variant group is the TIMING jobs (not forced onto the interpreted
    walk by ``fast=False``) equal in everything but
    ``MachineSpec.overrides``: they share one compiled program and one
    machine shape, so :func:`execute_group` evaluates them in one
    batched call.  Every other job is a group of one.
    """
    groups: Dict[tuple, List[int]] = {}
    for i, job in enumerate(jobs):
        if job.mode != ExecutionMode.TIMING.value or job.fast is False:
            groups[(i,)] = [i]
            continue
        key = (
            job.benchmark,
            job.experiment,
            job.config,
            job.fast,
            job.machine.name,
            job.machine.nprocs,
            job.effective_library(),
        )
        groups.setdefault(key, []).append(i)
    return list(groups.values())


def execute_group(jobs: Sequence[Job]) -> List[dict]:
    """Run one variant group and return one JSON-safe record (result +
    telemetry) per job, in input order.

    A group of two or more jobs is one :func:`repro.simulate_many` call,
    each variant a row; its records carry ``"batched": True``.  A group
    of one runs through :func:`repro.simulate`.  Batched rows are
    bit-identical to the scalar fast path, so both kinds of record share
    one result cache.

    A record is exactly what the result cache stores and what
    :class:`~repro.engine.core.JobOutcome` reconstructs an
    :class:`~repro.experiments_registry.ExperimentResult` from — floats
    survive the JSON round trip bit-exactly, so cached and fresh runs
    render byte-identical tables.

    Failures are re-raised as :class:`~repro.errors.ExperimentError`
    naming the group's (benchmark, experiment, library), so a pooled
    study reports which matrix cell died instead of a bare worker
    traceback.

    When this process is a pool worker of a *tracing* coordinator (see
    :func:`repro.obs.distributed.worker_init`), the group runs under a
    capture recorder and the first record carries the captured
    spans/metrics home under the ``"obs"`` key — popped by
    :func:`~repro.engine.dispatch.dispatch_jobs` before the record
    reaches the cache or the caller.
    """
    capture = distributed.begin_job_capture()
    try:
        records = _execute_group(jobs)
    except Exception as exc:
        if capture is not None:
            capture.finish()
        if isinstance(exc, ExperimentError):
            raise
        raise job_failure(jobs[0], exc) from exc
    if capture is not None:
        records[0]["obs"] = capture.finish()
    return records


def _execute_group(jobs: Sequence[Job]) -> List[dict]:
    started = time.time()
    t_total = time.perf_counter()
    job0 = jobs[0]
    batched = len(jobs) > 1
    fields = {
        "benchmark": job0.benchmark,
        "experiment": job0.experiment,
        "machine": job0.machine.name,
        "nprocs": job0.machine.nprocs,
    }
    if batched:
        name, fields["variants"] = "group", len(jobs)
    else:
        name, fields["variant"] = "job", job0.machine.variant
    with obs.span(name, **fields):
        spec = experiment_spec(job0.experiment)
        if batched:
            # content-keyed packing memo: every group of a sweep shares
            # the same variant list, so the (V,)-stacked cost tensors
            # are built once per sweep instead of once per group
            matrix = pack_variant_specs(
                job0.machine.name,
                job0.machine.nprocs,
                job0.effective_library(),
                [job.machine.overrides for job in jobs],
            )
            library = matrix.base.library
        else:
            machine = job0.machine.build(spec.library)
            library = machine.library

        merged = job0.merged_config()
        config_items = tuple(sorted(merged.items()))
        program, pipeline, compile_s, optimize_s, lowered_hit, optimized_hit = (
            compile_cached(job0.benchmark, config_items, spec.opt)
        )

        options = SimOptions(mode=ExecutionMode(job0.mode), fast=job0.fast)
        t0 = time.perf_counter()
        if batched:
            run = simulate_many(program, matrix, options=options).run(
                program.name
            )
            times = run.times
        else:
            run = simulate(program, machine, options=options)
            times = (run.time,)
        simulate_s = time.perf_counter() - t0

    # the group's shared phases are attributed per record: simulation
    # and total wall time split evenly, compile telemetry on the first
    # record (the later variants would have been compile-cache hits
    # had they run one by one)
    n = len(jobs)
    total_s = time.perf_counter() - t_total
    records = []
    for v, job in enumerate(jobs):
        first = v == 0
        record = {
            "schema": RECORD_SCHEMA,
            "fingerprint": job.fingerprint(),
            "benchmark": job.benchmark,
            "experiment": job.experiment,
            "machine": job.machine.name,
            "nprocs": job.machine.nprocs,
            # swept-variant identity: "base" plus {} for the calibrated
            # machines (readers of pre-sweep records must .get these)
            "machine_variant": job.machine.variant,
            "machine_overrides": {k: val for k, val in job.machine.overrides},
            "library": library,
            "mode": job.mode,
            "config": {str(k): val for k, val in merged.items()},
            "result": {
                "static_count": int(run.static_comm_count),
                "dynamic_count": int(run.dynamic_comm_count),
                "execution_time": float(times[v]),
                "total_messages": int(run.instrument.total_messages),
                "total_bytes": int(run.instrument.total_bytes),
                "warnings": list(run.warnings),
                "fastpath": (
                    run.fastpath.as_dict() if run.fastpath is not None else None
                ),
            },
            "pipeline": pipeline,
            "timings": {
                "compile_s": compile_s if first else 0.0,
                "optimize_s": optimize_s if first else 0.0,
                "simulate_s": simulate_s / n,
                "total_s": total_s / n,
            },
            "compile_cache": {
                "lowered_hit": lowered_hit if first else True,
                "optimized_hit": optimized_hit if first else True,
            },
            "cache_hit": False,
        }
        if batched:
            record["batched"] = True
        record["worker_pid"] = os.getpid()
        record["started_at"] = started
        records.append(record)
    return records

