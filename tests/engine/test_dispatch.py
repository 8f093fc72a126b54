"""The dispatch step: inline/pool parity and pool-worker observability.

The worker pool must be invisible in the results — byte-identical
records, same fingerprints, same cache — while the coordinator's trace
still sees every worker's spans and counters.
"""

import pytest

from repro import run_study
from repro.engine import (
    ExperimentEngine,
    Job,
    MachineSpec,
    build_matrix,
    dispatch_jobs,
    variant_groups,
)
from repro.errors import ExperimentError
from repro.obs import MemorySink, recording
from repro.obs import core as obs
from repro.programs import small_config

SWM_SMALL = small_config("swm")


def _matrix(keys=("baseline", "cc")):
    return build_matrix(
        ["swm"],
        keys=keys,
        machine=MachineSpec(nprocs=16),
        config_overrides={"swm": SWM_SMALL},
    )


def _strip(record):
    """Drop the volatile host-local fields; everything else must be
    byte-identical between inline and pooled execution."""
    return {
        k: v
        for k, v in record.items()
        if k not in ("timings", "started_at", "worker_pid", "compile_cache")
    }


# ---------------------------------------------------------------------------
# parity: pooled results are indistinguishable from inline ones
# ---------------------------------------------------------------------------


def test_pool_matches_inline_byte_for_byte():
    jobs = _matrix(keys=("baseline", "cc", "pl"))
    inline = dispatch_jobs(jobs)
    pooled = dispatch_jobs(jobs, workers=2)
    assert [_strip(r) for r in inline] == [_strip(r) for r in pooled]
    assert [r["fingerprint"] for r in pooled] == [j.fingerprint() for j in jobs]


def test_study_through_the_pool(tmp_path):
    serial = run_study(
        benchmarks=("swm",), keys=("baseline", "cc"), nprocs=16,
        config_overrides={"swm": SWM_SMALL}, cache_dir=tmp_path / "a",
    )
    pooled = run_study(
        benchmarks=("swm",), keys=("baseline", "cc"), nprocs=16,
        config_overrides={"swm": SWM_SMALL}, cache_dir=tmp_path / "b",
        jobs=2,
    )
    assert dict(serial.results) == dict(pooled.results)
    # and a pooled run warms the cache for a serial one
    warm = run_study(
        benchmarks=("swm",), keys=("baseline", "cc"), nprocs=16,
        config_overrides={"swm": SWM_SMALL}, cache_dir=tmp_path / "b",
    )
    assert warm.cache_hits == 2


def test_empty_dispatch():
    assert dispatch_jobs([]) == []
    assert dispatch_jobs([], workers=2) == []


# ---------------------------------------------------------------------------
# pool observability: worker capture and counter parity
# ---------------------------------------------------------------------------


def test_pool_worker_spans_are_stitched_into_the_coordinator_trace():
    jobs = _matrix(keys=("baseline", "cc", "pl"))
    sink = MemorySink()
    with recording(sink) as rec:
        records = dispatch_jobs(jobs, workers=2)
    # the worker capture payload is popped before records reach anyone
    assert all("obs" not in r for r in records)
    worker_spans = [
        r
        for r in sink.records
        if r["type"] == "span" and "worker_pid" in r
    ]
    assert worker_spans, "worker-side spans must ship back to the coordinator"
    assert {r["trace"] for r in worker_spans} == {rec.trace_id}
    # every job runs under a worker-side "job" span (compile spans only
    # appear when the forked worker's compile cache is cold)
    assert {r["name"] for r in worker_spans} >= {"job"}
    assert sum(r["name"] == "job" for r in worker_spans) == len(jobs)
    # worker span ids are globally unique: no id collides across pids
    ids = [r["id"] for r in sink.records if r["type"] == "span"]
    assert len(ids) == len(set(ids))


def test_worker_counters_merge_into_the_coordinator_registry():
    jobs = _matrix(keys=("baseline", "cc", "pl"))
    with recording(MemorySink()):
        dispatch_jobs(jobs)
        inline = obs.counters()
    with recording(MemorySink()):
        dispatch_jobs(jobs, workers=2)
        pooled = obs.counters()
    sim_inline = {k: v for k, v in inline.items() if k.startswith("sim.")}
    sim_pooled = {k: v for k, v in pooled.items() if k.startswith("sim.")}
    assert sim_inline and sim_inline == sim_pooled


def test_counter_parity_inline_vs_pool_on_the_paper_matrix():
    """The regression gate: the same simulator work happens (and is
    counted) whether the jobs ran inline or in the pool, across the full
    paper matrix.  Only ``sim.*`` counters are comparable — compile-cache
    counters legitimately differ per worker process."""
    from repro.programs import BENCHMARKS

    cfg = {b: small_config(b) for b in BENCHMARKS}

    def sim_counters(**kw):
        with recording(MemorySink()):
            run_study(
                benchmarks=BENCHMARKS,
                nprocs=16,
                config_overrides=cfg,
                cache=False,
                **kw,
            )
            return {
                k: v for k, v in obs.counters().items() if k.startswith("sim.")
            }

    inline = sim_counters()
    pooled = sim_counters(jobs=2)
    assert inline and inline == pooled


def test_dispatch_counters_flow_through_the_engine(tmp_path):
    engine = ExperimentEngine(cache_dir=tmp_path, jobs=2)
    with recording(MemorySink()):
        engine.run(_matrix())
        counters = obs.counters()
    assert counters["engine.dispatch.jobs"] == 2
    assert counters["engine.result_cache.miss"] == 2
    assert counters["cache.backend.stores"] == 2


# ---------------------------------------------------------------------------
# variant groups: the unit dispatch hands to a worker
# ---------------------------------------------------------------------------


def _variant(latency, **kwargs):
    spec = MachineSpec.coerce(
        "t3d", nprocs=kwargs.pop("nprocs", 4), overrides={"net.latency": latency}
    )
    return Job.make("swm", kwargs.pop("key", "baseline"), machine=spec,
                    config=SWM_SMALL, **kwargs)


def test_variant_groups_split_on_everything_but_overrides():
    jobs = [
        _variant(1e-6),
        _variant(1e-6, key="cc"),
        _variant(1e-4),
        _variant(1e-6, nprocs=9),
        _variant(1e-4, key="cc"),
        _variant(1e-4, nprocs=9),
    ]
    assert variant_groups(jobs) == [[0, 2], [1, 4], [3, 5]]


def test_non_batchable_jobs_are_groups_of_one():
    jobs = [
        _variant(1e-6, mode="numeric"),
        _variant(1e-4, mode="numeric"),
        _variant(1e-6, fast=False),
        _variant(1e-4, fast=False),
        _variant(1e-6, fast=True),
        _variant(1e-4, fast=True),
    ]
    assert variant_groups(jobs) == [[0], [1], [2], [3], [4, 5]]


def test_grouped_records_come_back_in_submission_order():
    jobs = [_variant(1e-6), _variant(1e-6, key="cc"), _variant(1e-4)]
    records = dispatch_jobs(jobs)
    assert [r["fingerprint"] for r in records] == [j.fingerprint() for j in jobs]
    assert [r.get("batched", False) for r in records] == [True, False, True]
    # the batched pair shares one simulate_many call: compile telemetry
    # lands on its first row, the call's time is split evenly
    assert records[2]["compile_cache"] == {
        "lowered_hit": True, "optimized_hit": True,
    }
    assert records[0]["timings"]["simulate_s"] == records[2]["timings"]["simulate_s"]


def test_failing_group_names_its_cell():
    bad = MachineSpec.coerce("t3d", nprocs=4)
    jobs = [
        Job.make("swm", "cc", machine=bad, config={"n": -1}),
        Job.make("swm", "cc", machine=MachineSpec.coerce(
            bad, overrides={"net.latency": 1e-4}), config={"n": -1}),
    ]
    with pytest.raises(ExperimentError, match=r"\(swm, cc, pvm\)"):
        dispatch_jobs(jobs)
