"""The repository's end-to-end benchmark.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload paper_cold --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all

Each timed unit is one ``repro`` CLI command (see :mod:`workloads`) run
by :mod:`child` in a fresh interpreter with ``--jobs 1``: one caller,
one unit at a time, each started after the previous one exits (a closed
loop).  Units repeat until ``--seconds`` have passed, and at least
:data:`MIN_UNITS` ran.  Every unit's output is checked after it exits;
:mod:`oracle` runs once per invocation, untimed.

With ``--trace 0`` the last stdout line reports the end-to-end metrics
(medians over the units).  With ``--trace 1`` untraced and traced units
alternate, and it reports the per-layer metrics of the traced units,
whose span documents are written to ``perfbench/.work/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional

import benchstats
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
EXPECTED = HERE / "expected.json"

#: Fewest units of each kind (untraced, traced) in one invocation.
MIN_UNITS = 3
#: Seconds one child may take before the invocation gives up.
UNIT_TIMEOUT = 150


def manifest_units(kind: str) -> Dict[str, str]:
    """``name -> unit`` of the ``end_to_end`` or ``per_layer`` metrics
    that ``BENCHMARK.json`` declares, in its order."""
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in manifest[kind]}


#: Span name of each per-layer time metric.
SPAN_OF = {
    "programs.source_s": "programs.source",
    "frontend.parse_s": "frontend.parse",
    "frontend.analyze_s": "frontend.analyze",
    "ir.lower_s": "ir.lower",
    "comm.optimize_s": "comm.optimize",
    "runtime.plan_s": "runtime.plan",
    "runtime.simulate_s": "runtime.simulate",
    "runtime.schedule_lower_s": "runtime.schedule_lower",
    "runtime.dispatch_s": "runtime.dispatch",
    "runtime.batch_s": "runtime.batch",
    "machine.pack_s": "machine.pack",
    "sweep.expand_s": "sweep.expand",
    "engine.fingerprint_s": "engine.fingerprint",
    "engine.cache_get_s": "engine.cache_get",
    "engine.cache_put_s": "engine.cache_put",
    "analysis.render_s": "analysis.render",
}

#: Counts the wrappers keep, reported under the same name.
COUNTS = (
    "comm.static_comms",
    "runtime.plan_lookups",
    "runtime.plan_messages",
    "runtime.extrapolated_trips",
    "runtime.fallbacks",
    "runtime.batch_rows",
)


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def stdout_digest(text: str) -> str:
    """SHA-256 of a unit's stdout without its ``cache hits`` line (the
    one line where a cold and a warm run may differ)."""
    kept = [line for line in text.splitlines() if "cache hits" not in line]
    return hashlib.sha256("\n".join(kept).encode()).hexdigest()


def records_digest(cache_dir: Path) -> tuple:
    """``(sha256, count)`` over the ``result`` field of every record in
    a result-cache directory, keyed by the record's matrix point.
    Floats are compared through their exact JSON text."""
    entries = []
    for path in cache_dir.rglob("*.json"):
        record = json.loads(path.read_text())
        point = [
            record["benchmark"],
            record["experiment"],
            record["library"],
            record["nprocs"],
            record.get("machine_overrides", {}),
        ]
        entries.append(json.dumps([point, record["result"]], sort_keys=True))
    entries.sort()
    return hashlib.sha256("\n".join(entries).encode()).hexdigest(), len(entries)


def tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


@dataclass
class Expected:
    """What every unit's output must equal.  Pinned digests apply to
    the default seed (and to ``paper_cold``, which ignores the seed);
    otherwise the first output seen becomes the reference."""

    stdout: Optional[str] = None
    records: Optional[str] = None

    @classmethod
    def pinned(cls, workload: str, seed: int) -> "Expected":
        if workload != "paper_cold" and seed != workloads.DEFAULT_SEED:
            return cls()
        # a warm unit prints what the cold run of its command printed
        name = "sweep_cold" if workload == "sweep_warm" else workload
        pins = json.loads(EXPECTED.read_text()).get(name, {})
        return cls(pins.get("stdout"), pins.get("records"))

    def check(self, kind: str, digest: str) -> Optional[str]:
        """Adopt ``digest`` as the reference if none is set yet, else
        describe a mismatch."""
        reference = getattr(self, kind)
        if reference is None:
            setattr(self, kind, digest)
            return None
        if digest != reference:
            return f"{kind} digest {digest[:12]} != expected {reference[:12]}"
        return None


# ---------------------------------------------------------------------------
# units
# ---------------------------------------------------------------------------


@dataclass
class Unit:
    index: int
    traced: bool
    points: int
    problems: List[str] = field(default_factory=list)
    timings: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    #: false for the untimed cache fill of a warm workload
    timed: bool = True

    @property
    def failed(self) -> int:
        return self.points if self.problems else 0


def _child_env() -> Dict[str, str]:
    """This environment without what would point the program at another
    cache or put other code on its path."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.pop("PYTHONPATH", None)
    return env


def run_unit(
    workload: str,
    seed: int,
    index: int,
    scratch: Path,
    cache_dir: Path,
    expected: Expected,
    writes: bool,
    trace_path: Optional[Path] = None,
) -> Unit:
    """Spawn one child, time it from outside, and check its outputs;
    ``writes`` says the unit fills ``cache_dir``, so its records are
    checked too."""
    unit = Unit(index, trace_path is not None, workloads.points(workload))
    stdout_path = scratch / f"unit{index}.out"
    spec = {
        "src": str(SRC),
        "workload": workload,
        "seed": seed,
        "unit": index,
        "cache_dir": str(cache_dir),
        "stdout_path": str(stdout_path),
        "trace_path": str(trace_path) if trace_path else None,
    }
    t_spawn = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        cwd=ROOT,
        env=_child_env(),
    )
    try:
        out, err = proc.communicate(timeout=UNIT_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        unit.problems.append(f"unit timed out after {UNIT_TIMEOUT} s")
        return unit
    t_exit = time.perf_counter()
    lines = out.decode().splitlines()
    try:
        report = json.loads(lines[-2])
        t_last = json.loads(lines[-1])["t_last"]
    except (IndexError, ValueError, KeyError):
        tail = err.decode().strip().splitlines()[-3:]
        unit.problems.append(f"unit exited {proc.returncode} without a report: {tail}")
        return unit

    if report["rc"] != 0 or report["error"]:
        unit.problems.append(f"main returned {report['rc']}: {report['error']}")
    if not unit.traced and report["wrappers"]:
        unit.problems.append(f"untraced unit carries {report['wrappers']} wrappers")
    problem = expected.check("stdout", stdout_digest(stdout_path.read_text()))
    stdout_path.unlink()
    if problem:
        unit.problems.append(problem)
    if writes:
        digest, count = records_digest(cache_dir)
        if count != unit.points:
            unit.problems.append(f"{count} records for {unit.points} points")
        problem = expected.check("records", digest)
        if problem:
            unit.problems.append(problem)

    wall = report["t_main_end"] - report["t_main"]
    unit.timings = {
        "setup_s": report["t_setup"] - t_spawn,
        "wall_s": wall,
        "process_s": t_exit - t_spawn,
        "points_per_s": unit.points / wall,
        "peak_rss_mb": report["peak_rss_kb"] / 1024.0,
    }
    unit.layers = {
        "import.s": report["import_s"],
        "import.modules": report["import_modules"],
        "process.teardown_s": t_exit - t_last,
    }
    if unit.traced:
        unit.layers["engine.cache_bytes"] = tree_bytes(cache_dir)
    return unit


def layer_metrics(document: dict) -> Dict[str, float]:
    """The per-layer metrics one traced unit's span document gives."""
    totals, calls, root_s = benchstats.layer_totals(document)
    counts = document["counts"]
    metrics = {name: totals.get(span, 0.0) for name, span in SPAN_OF.items()}
    metrics.update({name: counts.get(name, 0) for name in COUNTS})
    built = calls.get("runtime.plan", 0)
    lookups = counts.get("runtime.plan_lookups", 0)
    gets = calls.get("engine.cache_get", 0)
    metrics.update(
        {
            "runtime.plans_built": built,
            "runtime.plan_reuse_ratio": (lookups - built) / lookups if lookups else 0.0,
            "engine.fingerprints": calls.get("engine.fingerprint", 0),
            "engine.cache_hit_ratio": (
                counts.get("engine.cache_hits", 0) / gets if gets else 0.0
            ),
            "trace.unattributed_frac": totals.get("cli.main", 0.0) / root_s,
        }
    )
    return metrics


def run_oracle(seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "oracle.py"), str(SRC), str(seed)],
        capture_output=True,
        cwd=ROOT,
        env=_child_env(),
        timeout=UNIT_TIMEOUT,
    )
    try:
        return json.loads(proc.stdout.decode().splitlines()[-1])
    except (IndexError, ValueError):
        tail = proc.stderr.decode().strip().splitlines()[-3:]
        return {"checks": 1, "failures": [f"oracle exited {proc.returncode}: {tail}"]}


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    workload: str
    units: List[Unit]
    oracle: dict
    problems: List[str]

    @property
    def attempted(self) -> int:
        return sum(u.points for u in self.units) + self.oracle["checks"]

    @property
    def failed(self) -> int:
        return sum(u.failed for u in self.units) + len(self.oracle["failures"])

    def samples(self, metric: str, traced: bool) -> List[float]:
        return [
            u.timings[metric] if metric in u.timings else u.layers[metric]
            for u in self.units
            if u.timed and u.traced == traced and (metric in u.timings or metric in u.layers)
        ]

    def metrics(self, names: Iterable[str], traced: bool) -> Dict[str, float]:
        """Medians over the untraced (end-to-end) or traced (per-layer)
        units, and the two ratios taken over the whole invocation."""
        values = {}
        for name in names:
            if name == "ok_frac":
                values[name] = 1.0 - self.failed / self.attempted
            elif name == "trace.overhead_frac":
                values[name] = (
                    benchstats.median(self.samples("wall_s", True))
                    / benchstats.median(self.samples("wall_s", False))
                    - 1.0
                )
            else:
                values[name] = benchstats.median(self.samples(name, traced))
        return values


def run_workload(workload: str, seed: int, seconds: float, trace: bool, scratch: Path) -> Outcome:
    expected = Expected.pinned(workload, seed)
    oracle = run_oracle(seed)
    problems = [f"oracle: {f}" for f in oracle["failures"]]

    units: List[Unit] = []
    warm_cache = None
    if workload in workloads.WARM:
        # the same command fills the cache, untimed; its stdout and
        # records are what every warm unit is checked against
        warm_cache = scratch / "warm-cache"
        fill = run_unit(workload, seed, -1, scratch, warm_cache, expected, writes=True)
        fill.timed = False
        units.append(fill)
        problems += [f"cache fill: {p}" for p in fill.problems]

    start = time.perf_counter()
    kinds = [False, True] if trace else [False]
    while (
        min(sum(u.timed and u.traced == k for u in units) for k in kinds) < MIN_UNITS
        or time.perf_counter() - start < seconds
    ):
        index = len(units)
        traced = kinds[index % len(kinds)]
        cache_dir = warm_cache or scratch / f"cache{index}"
        trace_path = WORK / f"trace-{workload}-unit{index}.json" if traced else None
        units.append(
            run_unit(
                workload, seed, index, scratch, cache_dir, expected,
                writes=warm_cache is None, trace_path=trace_path,
            )
        )
        if warm_cache is None:
            shutil.rmtree(cache_dir, ignore_errors=True)
        problems += [f"unit {index}: {p}" for p in units[-1].problems]
    if trace:
        _merge_trace_documents(workload, [u for u in units if u.traced])
    return Outcome(workload, units, oracle, problems)


def _merge_trace_documents(workload: str, traced: List[Unit]) -> None:
    """Write one span document for the workload, holding every traced
    unit's spans, and derive each unit's layer metrics from it."""
    merged = {"workload": workload, "units": []}
    for unit in traced:
        path = WORK / f"trace-{workload}-unit{unit.index}.json"
        if path.exists():  # a unit that crashed wrote none
            document = json.loads(path.read_text())
            path.unlink()
            merged["units"].append(document)
            unit.layers.update(layer_metrics(document))
    (WORK / f"trace-{workload}.json").write_text(json.dumps(merged))


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _print_summary(outcome: Outcome, trace: bool) -> None:
    """Every metric with its unit and sample count, and the percentile
    the tail rule allows."""
    print(f"== {outcome.workload}: {len(outcome.units)} units, "
          f"{outcome.failed}/{outcome.attempted} points failed "
          f"(failed_frac {outcome.failed / outcome.attempted:.6g})")
    for problem in outcome.problems[:10]:
        print(f"   problem: {problem}")
    kinds = [("end_to_end", False)] + ([("per_layer", True)] if trace else [])
    for kind, traced in kinds:
        for metric, unit in manifest_units(kind).items():
            samples = outcome.samples(metric, traced)
            if not samples:
                value = outcome.metrics([metric], traced)[metric]
                print(f"   {metric:28s} {value:.6g} {unit}")
                continue
            stats = benchstats.summarize(samples)
            tail = "".join(f"  {k} {v:.6g}" for k, v in stats.items() if k.startswith("p"))
            print(f"   {metric:28s} median {stats['median']:.6g} {unit}  n={stats['n']}{tail}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=[*workloads.WORKLOADS, "all"]
    )
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "repro" / "__main__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    trace = bool(args.trace)
    units = manifest_units("per_layer" if trace else "end_to_end")
    WORK.mkdir(parents=True, exist_ok=True)
    scratch = WORK / f"run-{os.getpid()}"
    outcomes = []
    for name in names:
        scratch.mkdir()
        try:
            outcomes.append(run_workload(name, args.seed, args.seconds, trace, scratch))
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        _print_summary(outcomes[-1], trace)

    metrics: Dict[str, dict] = {}
    for outcome in outcomes:
        prefix = "" if len(outcomes) == 1 else f"{outcome.workload}."
        try:
            values = outcome.metrics(units, trace)
        except statistics.StatisticsError:
            print(f"perfbench: no unit of {outcome.workload} completed", file=sys.stderr)
            return 1
        metrics.update(
            {prefix + k: {"value": v, "unit": units[k]} for k, v in values.items()}
        )
    failed = sum(o.failed for o in outcomes)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": sum(o.attempted for o in outcomes),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
