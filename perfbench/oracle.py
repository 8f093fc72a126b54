"""The independent oracle, run once per benchmark invocation, untimed.

Usage::

    python oracle.py SRC SEED

Checks the simulator against its independent implementations through
public ``repro`` functions only, and prints one JSON line
``{"checks": N, "failures": [...]}``:

* compiled fast path against the interpreted walk
  (``SimOptions.timing(fast=False)``), time and clocks bit-equal: each
  paper program on its reduced mesh, with enough time steps that the
  fast path extrapolates, under every experiment key on 16 ranks, and
  four of the seed's generated programs on 4 ranks;
* optimized NUMERIC against ``reference_run``, within 1e-9, for the
  same programs;
* batched rows of the ``sweep_cold`` matrix (``simulate_many`` over the
  seed's first latencies) against scalar ``simulate`` on each variant.
"""

import json
import sys

import workloads

ORACLE_NPROCS = 16
GENERATED = 4
#: Time steps of every oracle program: enough for the fast path to
#: reach a steady state and extrapolate, on a reduced mesh.
STEPS = 12
#: (program, key) cells whose batched sweep rows are re-run scalar
SWEEP_CELLS = (("tomcatv", "rr"), ("swm", "pl"), ("simple", "cc"), ("sp", "pl_shmem"))
SWEEP_VARIANTS = 2
TOLERANCE = 1e-9


def _fast_vs_walk(program, machine, label, failures):
    import numpy as np

    from repro import SimOptions, simulate

    fast = simulate(program, machine, options=SimOptions.timing(fast=True))
    walk = simulate(program, machine, options=SimOptions.timing(fast=False))
    if fast.time != walk.time or not np.array_equal(fast.clocks, walk.clocks):
        failures.append(f"{label}: fast path {fast.time!r} != walk {walk.time!r}")


def _numeric_vs_reference(source, name, config, machine, failures):
    import numpy as np

    from repro import (
        ExecutionMode,
        OptimizationConfig,
        compile_program,
        optimize,
        reference_run,
        simulate,
    )

    lowered = compile_program(source, name, config)
    reference = reference_run(lowered)
    numeric = simulate(
        optimize(lowered, OptimizationConfig.full()), machine, ExecutionMode.NUMERIC
    )
    for array in sorted(reference.arrays):
        if not np.allclose(
            numeric.array(array),
            reference.array(array),
            rtol=TOLERANCE,
            atol=TOLERANCE,
        ):
            failures.append(f"{name}: NUMERIC array {array!r} differs from reference")


def _batched_vs_scalar(seed, failures) -> int:
    from repro import SimOptions, compile_program, experiment_spec, simulate, simulate_many
    from repro.engine import MachineSpec
    from repro.machine import pack_variant_specs
    from repro.programs import benchmark_source, default_config

    latencies = [float(v) for v in workloads.sweep_latencies(seed)[:SWEEP_VARIANTS]]
    checks = 0
    for bench, key in SWEEP_CELLS:
        spec = experiment_spec(key)
        program = compile_program(
            benchmark_source(bench), f"{bench}.zl", default_config(bench), opt=spec.opt
        )
        overrides = [{"net.latency": v} for v in latencies]
        matrix = pack_variant_specs("t3d", 64, spec.library, overrides)
        rows = simulate_many(program, matrix).run(program.name).times
        for latency, row in zip(latencies, rows):
            machine = MachineSpec(
                "t3d", 64, overrides=(("net.latency", latency),)
            ).build(spec.library)
            scalar = simulate(program, machine, options=SimOptions.timing())
            checks += 1
            if float(row) != scalar.time:
                failures.append(
                    f"{bench}/{key} latency {latency!r}: batched {float(row)!r} "
                    f"!= scalar {scalar.time!r}"
                )
    return checks


def _reduced(name: str) -> dict:
    """A program's reduced-size configuration with :data:`STEPS` time
    steps."""
    from repro.programs import small_config

    config = small_config(name)
    for key in ("niters", "nsteps"):
        if key in config:
            config[key] = STEPS
    return config


def run(seed: int) -> dict:
    from repro import compile_program, experiment_spec, t3d
    from repro.analysis import EXPERIMENT_KEYS
    from repro.programs import benchmark_source

    failures = []
    checks = 0
    programs = [(name, ORACLE_NPROCS) for name in workloads.PAPER_PROGRAMS]
    programs += [
        (name, workloads.CORPUS_NPROCS)
        for name in workloads.corpus_programs(seed)[:GENERATED]
    ]
    for name, nprocs in programs:
        source = benchmark_source(name)
        config = _reduced(name)
        for key in EXPERIMENT_KEYS:
            spec = experiment_spec(key)
            program = compile_program(source, f"{name}.zl", config, opt=spec.opt)
            checks += 1
            _fast_vs_walk(program, t3d(nprocs, spec.library), f"{name}/{key}", failures)
        checks += 1
        _numeric_vs_reference(source, f"{name}.zl", config, t3d(nprocs), failures)
    checks += _batched_vs_scalar(seed, failures)
    return {"checks": checks, "failures": failures}


def main() -> None:
    sys.path.insert(0, sys.argv[1])
    seed = int(sys.argv[2])
    try:
        result = run(seed)
    except Exception as exc:  # reported as one failed check, not a crash
        result = {"checks": 1, "failures": [f"oracle raised {type(exc).__name__}: {exc}"]}
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
