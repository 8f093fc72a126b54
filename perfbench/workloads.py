"""The benchmark's workloads: what command each timed unit runs.

Every workload is one ``repro`` CLI command, built here from the
workload name, the seed and the unit's cache directory.  The program
only ever sees the generated argv.  This module imports nothing from
``repro``, so the parent process stays free of the program under test.
"""

from __future__ import annotations

import random
from typing import List, Tuple

#: The seed whose outputs are pinned in ``expected.json``.
DEFAULT_SEED = 1

#: The paper matrix: four programs under six experiment keys.
PAPER_PROGRAMS = ("tomcatv", "swm", "simple", "sp")
PAPER_KEYS = 6

#: ``corpus_cold``: generated programs ``gen_<base+i>``, where ``base``
#: is ``seed*1000`` for seeds below :data:`CORPUS_SEEDS`, and wraps
#: around above it: the program accepts at most nine digits after
#: ``gen_``, so any larger seed would name programs it does not know.
CORPUS_SIZE = 256
CORPUS_NPROCS = 4
CORPUS_SEEDS = 999_999

#: ``sweep_*``: one ``net.latency`` axis of log-uniform values.
SWEEP_VALUES = 64
SWEEP_LOW, SWEEP_HIGH = 1e-6, 1e-4


#: Every workload, in ``BENCHMARK.json`` order (whose ``why`` fields
#: and ``README.md`` give the reasons for each).
WORKLOADS = ("paper_cold", "corpus_cold", "sweep_cold", "sweep_warm")

#: Workloads whose units run on a cache that the same command filled,
#: untimed, beforehand.  Every other unit starts from an empty cache.
WARM = ("sweep_warm",)


def corpus_programs(seed: int) -> Tuple[str, ...]:
    base = (seed % CORPUS_SEEDS) * 1000
    return tuple(f"gen_{base + i}" for i in range(CORPUS_SIZE))


def sweep_latencies(seed: int) -> Tuple[str, ...]:
    """``SWEEP_VALUES`` distinct log-uniform latencies, as the CLI text
    the program parses (six significant digits, as the report prints)."""
    rng = random.Random(seed)
    values: List[str] = []
    while len(values) < SWEEP_VALUES:
        text = f"{10 ** rng.uniform(-6.0, -4.0):.6g}"
        if text not in values:
            values.append(text)
    return tuple(values)


def argv(workload: str, seed: int, cache_dir: str) -> List[str]:
    """The CLI argv of one unit of ``workload`` (``--jobs 1``)."""
    engine = ["--jobs", "1", "--cache-dir", cache_dir]
    if workload == "paper_cold":
        return ["experiments", *engine]
    if workload == "corpus_cold":
        benches = [f for name in corpus_programs(seed) for f in ("--bench", name)]
        return ["experiments", "--nprocs", str(CORPUS_NPROCS), *benches, *engine]
    if workload in ("sweep_cold", "sweep_warm"):
        axis = "net.latency=" + ",".join(sweep_latencies(seed))
        return ["sweep", "--axis", axis, *engine]
    raise ValueError(f"unknown workload {workload!r}")


def points(workload: str) -> int:
    """(benchmark, key, machine-variant) points one unit completes."""
    if workload == "paper_cold":
        return len(PAPER_PROGRAMS) * PAPER_KEYS
    if workload == "corpus_cold":
        return CORPUS_SIZE * PAPER_KEYS
    if workload in ("sweep_cold", "sweep_warm"):
        return len(PAPER_PROGRAMS) * PAPER_KEYS * SWEEP_VALUES
    raise ValueError(f"unknown workload {workload!r}")
