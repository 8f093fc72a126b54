"""The result-cache contract, executed against the directory store.

The store must honor: fingerprint-addressed round trips,
schema/fingerprint mismatches read as misses, atomic ``put`` under
concurrent writers (a reader sees an old record, a new record, or a
clean miss — never a torn document), best-effort ``put`` that reports
an unwritable directory once, and ``stats``/``prune`` maintenance.  The
concurrency test hammers one shared store from multiple *processes*,
which is exactly how two engine runs share a cache directory.
"""

import json
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.engine import (
    RECORD_SCHEMA,
    CacheBackend,
    DirCache,
    NullCache,
    make_cache,
)
from repro.obs import MemorySink, recording

#: every storing backend; null joins for the protocol-shape tests only
STORES = ("dir",)

FP_A = "ab" * 32
FP_B = "cd" * 32


def _record(fingerprint, payload="x", size=1):
    return {
        "schema": RECORD_SCHEMA,
        "fingerprint": fingerprint,
        "payload": payload * size,
    }


@pytest.fixture(params=STORES)
def backend(request, tmp_path):
    """Each storing backend over a fresh store."""
    return make_cache(True, tmp_path)


# ---------------------------------------------------------------------------
# protocol shape and selection
# ---------------------------------------------------------------------------


def test_every_backend_satisfies_the_protocol(tmp_path):
    for impl in (DirCache(tmp_path / "d"), NullCache()):
        assert isinstance(impl, CacheBackend)
        assert impl.kind in ("dir", "null")
        desc = impl.describe()
        assert set(desc) == {"backend", "location"}
        assert desc["backend"] == impl.kind


def test_make_cache_selection(tmp_path, monkeypatch):
    assert make_cache(False, tmp_path).kind == "null"
    assert make_cache(True, tmp_path).kind == "dir"
    assert make_cache(True, tmp_path).root == tmp_path
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
    assert make_cache(True).root == tmp_path / "env"


def test_null_backend_stores_nothing():
    null = NullCache()
    null.put(FP_A, _record(FP_A))
    assert null.get(FP_A) is None
    assert null.stats().entries == 0
    assert null.prune() == 0


# ---------------------------------------------------------------------------
# the storage contract, per backend
# ---------------------------------------------------------------------------


def test_roundtrip_and_overwrite(backend):
    assert backend.get(FP_A) is None
    record = _record(FP_A)
    backend.put(FP_A, record)
    assert backend.get(FP_A) == record
    replacement = _record(FP_A, payload="y")
    backend.put(FP_A, replacement)
    assert backend.get(FP_A) == replacement


def test_wrong_fingerprint_reads_as_miss(backend):
    backend.put(FP_B, _record(FP_A))  # filed under the wrong key
    assert backend.get(FP_B) is None


def test_other_schema_reads_as_miss(backend):
    backend.put(FP_A, dict(_record(FP_A), schema=RECORD_SCHEMA + 1))
    assert backend.get(FP_A) is None


def test_stats_census(backend):
    assert backend.stats().entries == 0
    backend.put(FP_A, _record(FP_A))
    backend.put(FP_B, dict(_record(FP_B), schema=RECORD_SCHEMA - 1))
    stats = backend.stats()
    assert stats.entries == 2
    assert stats.bytes > 0
    assert stats.schemas[RECORD_SCHEMA] == 1
    assert stats.schemas[RECORD_SCHEMA - 1] == 1
    assert stats.backend == backend.kind
    assert "2 entries" in stats.describe()


def test_prune_by_schema(backend):
    backend.put(FP_A, _record(FP_A))
    backend.put(FP_B, dict(_record(FP_B), schema=RECORD_SCHEMA - 1))
    assert backend.prune(schema=RECORD_SCHEMA - 1) == 1
    assert backend.stats().entries == 1
    assert backend.get(FP_A) is not None


def test_prune_by_age(backend):
    backend.put(FP_A, _record(FP_A))
    # a just-written record is younger than a day
    assert backend.prune(older_than=86400.0) == 0
    # and everything matches the no-filter prune
    assert backend.prune() == 1
    assert backend.stats().entries == 0


def test_unwritable_directory_warns_once_and_keeps_running(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory")
    store = DirCache(blocker / "cache")
    sink = MemorySink()
    with recording(sink) as rec:
        store.put(FP_A, _record(FP_A))  # must not raise
        store.put(FP_B, _record(FP_B))
        counters = dict(rec.metrics.counters)
    assert store.get(FP_A) is None
    assert counters["cache.backend.store_errors"] == 2
    warnings = [r for r in sink.records if r.get("name") == "warning"]
    assert len(warnings) == 1
    assert warnings[0]["attrs"]["cache_dir"] == str(blocker / "cache")
    err = capsys.readouterr().err
    assert err.count("warning:") == 1
    assert str(blocker / "cache") in err and "not writable" in err


# ---------------------------------------------------------------------------
# concurrent writers: two engine runs sharing one cache directory
# ---------------------------------------------------------------------------


def _hammer_writer(location, fingerprint, payload, rounds):
    """One writer process: repeatedly overwrite the shared fingerprint
    with a large single-payload record."""
    store = DirCache(location)
    record = _record(fingerprint, payload=payload, size=2000)
    for _ in range(rounds):
        store.put(fingerprint, record)
    return payload


def _hammer_reader(location, fingerprint, rounds):
    """One reader process: every observed record must be exactly one
    writer's document — never a mixture, never a partial parse."""
    store = DirCache(location)
    seen = set()
    for _ in range(rounds):
        record = store.get(fingerprint)
        if record is None:
            continue  # a clean miss mid-write is within the contract
        payload = record["payload"]
        assert payload in ("a" * 2000, "b" * 2000), "torn record observed"
        assert record["schema"] == RECORD_SCHEMA
        seen.add(payload[0])
    return seen


@pytest.mark.parametrize("kind", STORES)
def test_concurrent_writers_never_tear_records(kind, tmp_path):
    location = str(tmp_path)
    rounds = 150
    with ProcessPoolExecutor(max_workers=3) as pool:
        writers = [
            pool.submit(_hammer_writer, location, FP_A, p, rounds)
            for p in ("a", "b")
        ]
        reader = pool.submit(_hammer_reader, location, FP_A, rounds)
        for f in writers:
            f.result(timeout=120)
        reader.result(timeout=120)  # raises on any torn observation
    final = DirCache(location).get(FP_A)
    assert final is not None
    assert final["payload"] in ("a" * 2000, "b" * 2000)


def test_telemetry_envelope_carries_backend_attribution(tmp_path):
    from repro import run_study
    from repro.programs import small_config

    out = tmp_path / "telemetry.json"
    store = tmp_path / "store"
    study = run_study(
        benchmarks=("swm",),
        keys=("baseline",),
        nprocs=16,
        config_overrides={"swm": small_config("swm")},
        cache_dir=store,
    )
    study.write_telemetry(out)
    doc = json.loads(out.read_text())
    assert doc["cache"] == {"backend": "dir", "location": str(store)}
