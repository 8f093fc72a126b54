"""Batched many-variant TIMING evaluation.

:func:`simulate_many` evaluates one compiled TIMING schedule over a
whole **matrix of cost vectors** at once: every variant's primitive
costs, charge rates, and reduction stage costs are stacked into numpy
arrays with a leading variant axis
(:func:`repro.machine.variants.pack_variants`), and the CHARGE / REDUCE
/ SR / DN / DR / SV dispatch loop runs *once* with ``(V, P)`` clock
updates instead of once per variant.

Why this is sound: TIMING control flow is replicated scalar state, and
scalar state never depends on a cost parameter — so every cost-only
variant executes the *identical* op sequence, and the only thing that
differs between variants is the float arithmetic on the clock matrix.
Each batched op performs the same floating-point operations in the same
order as the scalar :class:`~repro.runtime.timing.TimingEngine`, just
elementwise across the variant axis, so every row of the clock matrix is
**bit-identical** to the scalar fast path run of that variant
(``tests/runtime/test_batch.py`` enforces this differentially).

Steady-state extrapolation folds per-variant: the epoch is kept as
``(V,)`` run-length-encoded advance runs, the fast path's signature
probe compares the whole clock matrix bitwise (a fixed point of the
batch is a fixed point of every variant), and recorded advance patterns
replay through the same coalescing fold — extrapolation may engage a few
trips later than it would per-variant (it waits for the *slowest*
variant to settle), but the final state is unchanged.

What the batch does **not** track, by design: per-primitive call counts
(the SR count depends on which ranks paid a nonzero software cost — a
per-variant quantity) and the per-rank time-breakdown vectors
(compute/comm-sw/wait).  Everything else the paper's figures read —
clocks, times, static/dynamic counts, message counts, volumes,
reductions, warnings, scalars — is recorded once (it is
variant-independent) and matches the scalar path exactly.

Memory model: the evaluator holds ``O(V x P)`` floats for the clock
matrix plus one ``(V, P)`` arrival matrix per in-flight transfer and
``(V, M)`` cost matrices per (plan, primitive) — for a 1000-variant
sweep on 64 ranks this is a few MB, not a concern; for 10^6-variant
grids, chunk the variant list.
"""

from __future__ import annotations

import csv
import json
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.comm.counts import static_comm_count
from repro.errors import RuntimeFault
from repro.ir import nodes as ir
from repro.ironman.calls import CallKind
from repro.machine.params import Machine, SyncKind
from repro.machine.variants import PrimColumns, VariantMatrix, pack_variants
from repro.obs import core as obs
from repro.runtime.executor import _ProgramSetup
from repro.runtime.instrument import Instrumentation
from repro.runtime.interp import ScalarEvaluator
from repro.runtime.options import ExecutionMode, SimOptions
from repro.runtime.schedule import (
    CompiledSchedule,
    FastPathStats,
    _compile_scalar,
    _Lowerer,
    _Runner,
)
from repro.runtime.transfers import TransferPlan, running_sums

__all__ = [
    "BatchEvaluator",
    "BatchResult",
    "BatchRun",
    "batch_evaluator",
    "clear_batch_evaluators",
    "simulate_many",
]


# ---------------------------------------------------------------------------
# the (V, P) timing engine
# ---------------------------------------------------------------------------


class BatchTimingEngine:
    """The :class:`~repro.runtime.timing.TimingEngine` arithmetic lifted
    to a ``(V, P)`` clock matrix — V variants, P ranks.

    Every method performs the scalar engine's float operations in the
    same order, elementwise along the variant axis; see the module
    docstring for the exactness argument.  The epoch is per-variant
    run-length-encoded, and the advance log entries are
    ``(c, mask, n)`` tuples — ``c`` the ``(V,)`` advance, ``mask`` which
    variants advanced, ``n`` the run length.
    """

    def __init__(self, matrix: VariantMatrix, instrument: Instrumentation) -> None:
        self.matrix = matrix
        self.machine = matrix.base
        self.nprocs = matrix.base.nprocs
        self.nvariants = matrix.nvariants
        self.instrument = instrument
        V, P = self.nvariants, self.nprocs
        self.clock = np.zeros((V, P), dtype=np.float64)
        self._inflight: Dict[int, np.ndarray] = {}
        self._dr_times: Dict[int, np.ndarray] = {}
        self._vrows = np.arange(V)[:, None]
        self._epoch_prefix = np.zeros(V, dtype=np.float64)
        self._epoch_c = np.zeros(V, dtype=np.float64)
        self._epoch_n = np.zeros(V, dtype=np.int64)
        self._epoch_val = np.zeros(V, dtype=np.float64)
        self._epoch_log: Optional[List[Tuple]] = None

    # -- epoch ----------------------------------------------------------
    def advance_epoch(
        self, c: np.ndarray, mask: np.ndarray, n: int = 1
    ) -> None:
        """Per-variant run-length epoch fold: variants where ``mask`` is
        set fold ``n`` advances of ``c[v]``; the rest are untouched.
        Elementwise mirror of the scalar engine's ``advance_epoch``."""
        coalesce = mask & (c == self._epoch_c) & (self._epoch_n > 0)
        start = mask & ~coalesce
        if coalesce.any():
            self._epoch_n[coalesce] += n
        if start.any():
            self._epoch_prefix[start] = (
                self._epoch_prefix[start]
                + self._epoch_c[start] * self._epoch_n[start]
            )
            self._epoch_c[start] = c[start]
            self._epoch_n[start] = n
        np.copyto(
            self._epoch_val,
            self._epoch_prefix + self._epoch_c * self._epoch_n,
            where=mask,
        )
        if self._epoch_log is not None:
            self._epoch_log.extend([(c, mask, 1)] * n)

    def loop_rebase(self) -> None:
        """Rebase each variant's offsets independently (``x - 0.0`` is a
        bitwise identity, so variants still at the epoch are genuinely
        untouched, matching the scalar engine's early return)."""
        c = self.clock.min(axis=1)
        mask = c > 0.0
        if not mask.any():
            return
        sub = np.where(mask, c, 0.0)[:, None]
        self.clock -= sub
        for arr in self._inflight.values():
            arr -= sub
        for arr in self._dr_times.values():
            arr -= sub
        self.advance_epoch(c, mask)

    def absolute_clocks(self) -> np.ndarray:
        return self._epoch_val[:, None] + self.clock

    def elapsed(self) -> np.ndarray:
        """Per-variant execution time: the last rank to finish."""
        return self._epoch_val + self.clock.max(axis=1)

    # -- compute ---------------------------------------------------------
    def array_cost(self, flops: int, elements: np.ndarray) -> np.ndarray:
        m = self.matrix
        return np.where(
            elements[None, :] > 0,
            m.loop_overhead[:, None]
            + (flops * elements)[None, :] * m.flop_time[:, None],
            0.0,
        )

    def charge_array_vec(self, cost: np.ndarray, label: str = "") -> None:
        self.clock += cost

    def scalar_cost(self, flops: int) -> np.ndarray:
        return max(flops, 1) * self.matrix.flop_time

    def charge_scalar_cost(self, cost: np.ndarray) -> None:
        self.clock += cost[:, None]

    def reduction_cost(self, flops: int, elements: np.ndarray) -> np.ndarray:
        m = self.matrix
        return np.where(
            elements[None, :] > 0,
            m.loop_overhead[:, None]
            + (max(flops, 1) * elements)[None, :] * m.flop_time[:, None],
            0.0,
        )

    def charge_reduction_vec(
        self, partial: np.ndarray, tree_time: np.ndarray
    ) -> None:
        t = (self.clock + partial).max(axis=1)
        t = t + tree_time
        self.clock[:] = t[:, None]
        self.instrument.record_reduction()

    # -- communication ---------------------------------------------------
    def _do_send(self, plan: TransferPlan, data: "_CommData") -> None:
        if plan.desc.id in self._inflight:
            raise RuntimeFault(
                f"transfer {plan.desc.describe()} initiated twice without "
                "completion — optimizer produced an illegal schedule"
            )
        dr = self._dr_times.pop(plan.desc.id, None)
        if dr is not None:
            # the put blocks until the destination's DR flag crossed the
            # wire; the flag matrix is -inf except at senders, and
            # max(x, -inf) == x bitwise, so a full-matrix maximum equals
            # the scalar engine's masked update
            flag_ready = np.full(
                (self.nvariants, self.nprocs), -np.inf, dtype=np.float64
            )
            np.maximum.at(
                flag_ready,
                (self._vrows, plan.senders[None, :]),
                dr[:, plan.receivers] + self.matrix.net_raw[:, None],
            )
            np.maximum(self.clock, flag_ready, out=self.clock)
        arrivals = np.full(
            (self.nvariants, self.nprocs), -np.inf, dtype=np.float64
        )
        send_end = self.clock[:, plan.senders] + data.cum_sw
        np.maximum.at(
            arrivals,
            (self._vrows, plan.receivers[None, :]),
            send_end + data.wire,
        )
        self.clock += data.total_sw
        self._inflight[plan.desc.id] = arrivals
        self.instrument.record_transfer(plan)

    def _do_complete(self, plan: TransferPlan, data: "_CommData") -> None:
        arrivals = self._inflight.pop(plan.desc.id, None)
        if arrivals is None:
            raise RuntimeFault(
                f"completion of {plan.desc.describe()} before initiation — "
                "optimizer produced an illegal schedule"
            )
        receivers = plan.receivers_unique
        pc = data.pc
        a = arrivals[:, receivers]
        c = self.clock[:, receivers]
        if pc.sync is SyncKind.RENDEZVOUS:
            waited = np.maximum(0.0, a - c)
            surcharge = pc.spread_penalty[:, None] * np.minimum(
                waited, pc.spread_cap[:, None]
            )
            self.clock[:, receivers] = (
                np.maximum(c, a) + pc.fixed[:, None] + surcharge
            )
        else:
            self.clock[:, receivers] = np.maximum(c, a) + data.recv_sw[
                :, receivers
            ]

    def _do_pre(self, plan: TransferPlan, data: "_CommData") -> None:
        pc = data.pc
        if pc.sync is SyncKind.RENDEZVOUS:
            receivers = plan.receivers_unique
            self.clock[:, receivers] += pc.fixed[:, None]
            self._dr_times[plan.desc.id] = self.clock.copy()
        else:
            self.clock += data.fixed_recv

    def _do_volatile(self, plan: TransferPlan, data: "_CommData") -> None:
        self.clock += data.fixed_send

    # -- lifecycle -------------------------------------------------------
    def assert_quiescent(self) -> None:
        if self._inflight:
            raise RuntimeFault(
                f"{len(self._inflight)} transfer(s) initiated but never "
                "completed — optimizer produced an illegal schedule"
            )
        if self._dr_times:
            raise RuntimeFault(
                f"{len(self._dr_times)} destination-ready flag(s) posted "
                "but never consumed — optimizer produced an illegal schedule"
            )


# ---------------------------------------------------------------------------
# batched per-(plan, primitive) comm vectors
# ---------------------------------------------------------------------------


class _CommData:
    """Precomputed ``(V, ...)`` cost matrices of one IRONMAN call on one
    plan — the batched counterpart of ``TransferPlan.prim_vectors`` and
    friends.  Built per lowering (never cached on the shared plan: plans
    are shared process-wide by geometry, not by cost model)."""

    __slots__ = (
        "pc",
        "cum_sw",
        "total_sw",
        "wire",
        "recv_sw",
        "fixed_recv",
        "fixed_send",
    )

    def __init__(self, pc: PrimColumns) -> None:
        self.pc = pc
        self.cum_sw = None
        self.total_sw = None
        self.wire = None
        self.recv_sw = None
        self.fixed_recv = None
        self.fixed_send = None


def _send_vectors(plan: TransferPlan, pc: PrimColumns, matrix: VariantMatrix):
    """Batched ``prim_vectors``: per-message cumulative send cost, total
    software cost by rank, and wire time — the same per-rank running
    sums as the scalar path, so each row matches it bitwise."""
    cum, total = running_sums(pc.sw_matrix(plan.nbytes), plan.senders, plan.nprocs)
    lat = matrix.net_raw if pc.raw_wire else matrix.net_latency
    wire = (
        lat[:, None] + plan.nbytes[None, :] / matrix.net_bandwidth[:, None]
    )
    return cum, total, wire


def _recv_vectors(plan: TransferPlan, pc: PrimColumns) -> np.ndarray:
    """Batched ``recv_sw_by_rank``: per-rank total receive cost."""
    return running_sums(pc.sw_matrix(plan.nbytes), plan.receivers, plan.nprocs)[1]


def _fixed_table(plan: TransferPlan, role: str, fixed: np.ndarray) -> np.ndarray:
    """Batched ``fixed_by_rank``.  The scalar path accumulates the same
    float ``count`` times (``np.add.at``), and repeated addition is not
    ``count * fixed`` in floats — so build an accumulation table and
    gather by count."""
    idx = plan.receivers if role == "recv" else plan.senders
    counts = np.bincount(idx, minlength=plan.nprocs)
    table = np.zeros((fixed.shape[0], int(counts.max()) + 1), dtype=np.float64)
    for k in range(1, table.shape[1]):
        table[:, k] = table[:, k - 1] + fixed
    return table[:, counts]


# ---------------------------------------------------------------------------
# the batched runner and lowerer
# ---------------------------------------------------------------------------


class _BatchRunner(_Runner):
    """`_Runner` whose epoch-replay hooks understand the batch engine's
    ``(c, mask, n)`` log entries."""

    def _replay_pattern(self, pattern: List, k: int) -> None:
        timing = self.timing
        for _ in range(k):
            for c, mask, n in pattern:
                timing.advance_epoch(c, mask, n)

    def _replay_pattern_bulk(self, pattern: List, k: int) -> None:
        c0, m0, n0 = pattern[0]
        uniform = all(
            n == n0 and np.array_equal(c, c0) and np.array_equal(mask, m0)
            for c, mask, n in pattern[1:]
        )
        if uniform:
            # the run-length fold makes one coalesced advance of
            # k * len * n identical to stepping them one at a time
            self.timing.advance_epoch(c0, m0, k * len(pattern) * n0)
        else:
            self._replay_pattern(pattern, k)


class _BatchLowerer(_Lowerer):
    """`_Lowerer` against a :class:`BatchTimingEngine`: compute charges
    become ``(V, P)`` matrices and IRONMAN calls carry per-variant
    :class:`_CommData` instead of a scalar primitive."""

    def __init__(self, sim) -> None:
        super().__init__(sim)
        self._comm_data_cache: Dict[Tuple, _CommData] = {}

    def _make_runner(self, sim) -> _Runner:
        return _BatchRunner(
            sim.timing, sim.instrument, sim.scalars, sim.repeat_cap
        )

    def _lower_simple(self, stmt: ir.SimpleStmt, ops: List) -> None:
        timing = self.timing
        if isinstance(stmt, ir.ArrayAssign):
            cost = timing.array_cost(stmt.flops, self.sim._elements(stmt.region))
            ops.append(partial(timing.charge_array_vec, cost, stmt.target))
        elif isinstance(stmt, ir.ScalarAssign):
            tree_time = timing.matrix.reduction_time
            for node in ir.walk_expr(stmt.expr):
                if isinstance(node, ir.IRReduce):
                    part = timing.reduction_cost(
                        ir.expr_flops(node.operand),
                        self.sim._elements(node.region),
                    )
                    ops.append(
                        partial(timing.charge_reduction_vec, part, tree_time)
                    )
            ops.append(
                partial(
                    timing.charge_scalar_cost,
                    timing.scalar_cost(ir.expr_flops(stmt.expr)),
                )
            )
            value = _compile_scalar(stmt.expr, self.scalars, self.reduce_hook)
            ops.append(partial(self._assign, stmt.target, value))
        elif isinstance(stmt, ir.CommCall):
            plan = self.sim.plans.plan(stmt.desc)
            if plan.message_count == 0:
                return  # nothing to move on this machine
            prim_name = self.machine.binding.primitive(stmt.kind)
            data = self._comm_data(plan, prim_name, stmt.kind)
            ops.append(partial(self._comm_dispatch[stmt.kind], plan, data))
        else:  # pragma: no cover - defensive
            raise RuntimeFault(f"cannot lower {stmt!r}")

    def _comm_data(
        self, plan: TransferPlan, prim_name: str, kind: CallKind
    ) -> _CommData:
        key = (plan.desc.id, prim_name, kind)
        data = self._comm_data_cache.get(key)
        if data is not None:
            return data
        matrix = self.timing.matrix
        pc = matrix.prims[prim_name]
        data = _CommData(pc)
        if kind is CallKind.SR:
            data.cum_sw, data.total_sw, data.wire = _send_vectors(
                plan, pc, matrix
            )
        elif kind is CallKind.DN:
            if pc.sync is not SyncKind.RENDEZVOUS:
                data.recv_sw = _recv_vectors(plan, pc)
        elif kind is CallKind.DR:
            if pc.sync is not SyncKind.RENDEZVOUS:
                data.fixed_recv = _fixed_table(plan, "recv", pc.fixed)
        elif kind is CallKind.SV:
            data.fixed_send = _fixed_table(plan, "send", pc.fixed)
        self._comm_data_cache[key] = data
        return data


# ---------------------------------------------------------------------------
# incremental-append evaluation
# ---------------------------------------------------------------------------


class BatchEvaluator(_ProgramSetup):
    """The batched TIMING simulator of one ``(program, base machine)``
    pair, built for incremental appends.

    Builds the variant-independent state once — the shared
    :class:`~repro.runtime.executor._ProgramSetup` geometry (processor
    grid, problem layout with fluff feasibility checked, plan cache,
    per-region element vectors) plus the static comm count — then
    evaluates any number of variant batches against it.  Refinement
    drivers and calibration loops call :meth:`evaluate` once per round;
    only the per-variant cost matrices and the timing engine are
    rebuilt, so appending a handful of new variants costs a fraction of
    a cold :func:`simulate_many` call while every returned row stays
    bit-identical to one.

    During :meth:`evaluate` the evaluator is also the simulation the
    :class:`_BatchLowerer` reads (``timing``, ``instrument``,
    ``scalars``, ``scalar_eval`` are that run's state).
    """

    def __init__(
        self,
        program: ir.IRProgram,
        base: Machine,
        *,
        repeat_cap: Optional[int] = None,
    ) -> None:
        super().__init__(program, base, repeat_cap)
        self.static_count = static_comm_count(program)
        self.calls = 0
        self.variants_evaluated = 0

    @property
    def base(self) -> Machine:
        return self.machine

    def _check_base(self, other: Machine) -> None:
        base = self.base
        for attr in ("name", "nprocs", "grid_shape", "library", "binding"):
            mine, theirs = getattr(base, attr), getattr(other, attr)
            if mine != theirs:
                raise RuntimeFault(
                    f"variant batch targets {attr}={theirs!r} but this "
                    f"evaluator was built for {attr}={mine!r}"
                )

    def evaluate(
        self, variants: Union[VariantMatrix, Iterable[Machine]]
    ) -> BatchRun:
        """Run one batch of cost-only variants; returns the program's
        :class:`BatchRun` (``(V,)`` times in batch order)."""
        matrix = (
            variants
            if isinstance(variants, VariantMatrix)
            else pack_variants(variants)
        )
        self._check_base(matrix.base)
        self.instrument = Instrumentation(self.machine.nprocs)
        self.timing = BatchTimingEngine(matrix, self.instrument)
        self.scalars = self._fresh_scalars()
        self.scalar_eval = ScalarEvaluator(self.scalars, self._timing_reduce)
        lowerer = _BatchLowerer(self)
        schedule = CompiledSchedule(
            lowerer.lower_body(self.program.body), lowerer.runner
        )
        stats = schedule.execute()
        self.timing.assert_quiescent()
        run = BatchRun(
            program_name=self.program.name,
            times=self.timing.elapsed(),
            clocks=self.timing.absolute_clocks(),
            static_comm_count=self.static_count,
            dynamic_comm_count=self.instrument.dynamic_comm_count,
            instrument=self.instrument,
            scalars=self._scalars_out(),
            fastpath=stats,
        )
        # cached evaluators outlive the run: drop its (V, P) clock state
        self.timing = None
        self.calls += 1
        self.variants_evaluated += matrix.nvariants
        return run


# bounded identity-checked memo: refinement rounds and fit iterations
# re-enter simulate_many with the same program object many times in a
# row; keying on id() alone would go stale if the id were recycled, so
# each entry pins the program strongly and is verified by identity.
_EVALUATOR_CACHE_MAX = 32
_evaluators: "OrderedDict[Tuple, BatchEvaluator]" = OrderedDict()


def batch_evaluator(
    program: ir.IRProgram, base: Machine, *, repeat_cap: Optional[int] = None
) -> BatchEvaluator:
    """The process-wide :class:`BatchEvaluator` for ``(program, base,
    repeat_cap)``, building (and LRU-caching) it on first use."""
    key = (
        id(program),
        base.name,
        base.nprocs,
        base.grid_shape,
        base.library,
        base.binding,
        repeat_cap,
    )
    ev = _evaluators.get(key)
    if ev is not None and ev.program is program:
        _evaluators.move_to_end(key)
        if obs.enabled():
            obs.add("sim.batch.evaluator_hits", 1)
        return ev
    ev = BatchEvaluator(program, base, repeat_cap=repeat_cap)
    _evaluators[key] = ev
    if len(_evaluators) > _EVALUATOR_CACHE_MAX:
        _evaluators.popitem(last=False)
    if obs.enabled():
        obs.add("sim.batch.evaluator_builds", 1)
    return ev


def clear_batch_evaluators() -> None:
    """Drop all cached :class:`BatchEvaluator` instances (tests)."""
    _evaluators.clear()


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------


@dataclass
class BatchRun:
    """One program's batched evaluation: per-variant times and the
    variant-independent instrumentation."""

    program_name: str
    #: (V,) simulated execution time per variant
    times: np.ndarray
    #: (V, P) absolute per-rank clocks per variant
    clocks: np.ndarray = field(repr=False)
    static_comm_count: int = 0
    dynamic_comm_count: int = 0
    instrument: Instrumentation = field(default=None, repr=False)
    scalars: Dict[str, float] = field(default_factory=dict)
    fastpath: Optional[FastPathStats] = None

    @property
    def warnings(self) -> List[str]:
        return self.instrument.warnings


@dataclass
class BatchResult:
    """Everything :func:`simulate_many` produced: a ``(B, V)`` time
    matrix over benchmarks x variants, plus per-program runs."""

    machine_name: str
    library: str
    nprocs: int
    variant_ids: Tuple[str, ...]
    benchmarks: Tuple[str, ...]
    #: (B, V) simulated execution times
    times: np.ndarray
    runs: Dict[str, BatchRun] = field(repr=False)

    @property
    def nvariants(self) -> int:
        return len(self.variant_ids)

    def run(self, benchmark: str) -> BatchRun:
        return self.runs[benchmark]

    def times_for(self, benchmark: str) -> np.ndarray:
        """(V,) times of one benchmark."""
        return self.times[self.benchmarks.index(benchmark)]

    def time(self, benchmark: str, variant: str) -> float:
        return float(
            self.times[
                self.benchmarks.index(benchmark),
                self.variant_ids.index(variant),
            ]
        )

    def as_rows(self) -> Tuple[List[str], List[List]]:
        headers = ["benchmark", "variant", "time"]
        rows = []
        for b, bench in enumerate(self.benchmarks):
            for v, vid in enumerate(self.variant_ids):
                rows.append([bench, vid, float(self.times[b, v])])
        return headers, rows

    def write_csv(self, path: Union[str, Path]) -> Path:
        """``benchmark,variant,time`` rows; times formatted ``%.6g`` so
        artifacts diff cleanly (full precision lives in the JSON)."""
        path = Path(path)
        headers, rows = self.as_rows()
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(headers)
            for bench, vid, t in rows:
                writer.writerow([bench, vid, f"{t:.6g}"])
        return path

    def write_json(self, path: Union[str, Path]) -> Path:
        """Full-precision JSON: times, scalars, and warnings keyed by
        benchmark, variants in batch order."""
        path = Path(path)
        payload = {
            "schema": 1,
            "machine": self.machine_name,
            "library": self.library,
            "nprocs": self.nprocs,
            "variants": list(self.variant_ids),
            "benchmarks": list(self.benchmarks),
            "times": {
                bench: [float(t) for t in self.times[b]]
                for b, bench in enumerate(self.benchmarks)
            },
            "scalars": {
                bench: self.runs[bench].scalars for bench in self.benchmarks
            },
            "warnings": {
                bench: list(self.runs[bench].warnings)
                for bench in self.benchmarks
            },
        }
        path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
        return path


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def simulate_many(
    programs: Union[ir.IRProgram, Iterable[ir.IRProgram]],
    variants: Union[VariantMatrix, Iterable[Machine]],
    *,
    options: Optional[SimOptions] = None,
    variant_ids: Optional[Sequence[str]] = None,
) -> BatchResult:
    """Evaluate program(s) over a batch of cost-only machine variants.

    Parameters
    ----------
    programs:
        One optimized :class:`~repro.ir.nodes.IRProgram` or an iterable
        of them (each becomes a row of the result's time matrix).
    variants:
        The machine variants — cost-only siblings of one base machine
        (same name, nprocs, grid, library, binding, primitive
        structure); typically built with
        :func:`repro.machine.apply_overrides`.  A prebuilt
        :class:`~repro.machine.variants.VariantMatrix` (e.g. from the
        memoized :func:`repro.machine.pack_variant_specs`) is accepted
        as-is, skipping the packing pass.
    options:
        A :class:`~repro.runtime.options.SimOptions` (the *only* options
        spelling here — no bare keywords).  Must be TIMING mode without
        ``trace_rank``; ``fast=False`` is rejected (there is no batched
        interpreted walk — loop per variant with :func:`repro.simulate`
        instead).  ``repeat_cap`` applies as in :func:`repro.simulate`.
    variant_ids:
        Labels for the variant axis (default ``v0..vN-1``); sweeps pass
        the machine-spec variant ids here.

    Every row of the result is bit-identical to the scalar compiled
    fast path run of that variant.
    """
    opts = options if options is not None else SimOptions(mode=ExecutionMode.TIMING)
    if opts.mode is not ExecutionMode.TIMING:
        raise RuntimeFault(
            "simulate_many evaluates the batched TIMING cost model; "
            "NUMERIC data needs one simulate() per variant"
        )
    if opts.trace_rank is not None:
        raise RuntimeFault(
            "simulate_many cannot record a per-rank timeline; pass "
            "trace_rank to simulate() on a single variant"
        )
    if opts.fast is False:
        raise RuntimeFault(
            "simulate_many has no interpreted walk (fast=False); loop "
            "over simulate() for the interpreter"
        )
    if isinstance(programs, ir.IRProgram):
        programs = (programs,)
    programs = tuple(programs)
    if not programs:
        raise RuntimeFault("simulate_many needs at least one program")
    names = [p.name for p in programs]
    if len(set(names)) != len(names):
        raise RuntimeFault(f"duplicate program names in batch: {names}")

    matrix = (
        variants
        if isinstance(variants, VariantMatrix)
        else pack_variants(variants)
    )
    if variant_ids is None:
        ids = tuple(f"v{i}" for i in range(matrix.nvariants))
    else:
        ids = tuple(str(v) for v in variant_ids)
        if len(ids) != matrix.nvariants:
            raise RuntimeFault(
                f"{len(ids)} variant ids for {matrix.nvariants} variants"
            )

    base = matrix.base
    runs: Dict[str, BatchRun] = {}
    times = np.empty((len(programs), matrix.nvariants), dtype=np.float64)
    with obs.span(
        "simulate_many",
        machine=base.name,
        library=base.library,
        nprocs=base.nprocs,
        variants=matrix.nvariants,
        programs=len(programs),
    ):
        for b, program in enumerate(programs):
            run = batch_evaluator(
                program, base, repeat_cap=opts.repeat_cap
            ).evaluate(matrix)
            runs[program.name] = run
            times[b] = run.times
    if obs.enabled():
        _record_batch_metrics(matrix.nvariants, runs)
    return BatchResult(
        machine_name=base.name,
        library=base.library,
        nprocs=base.nprocs,
        variant_ids=ids,
        benchmarks=tuple(names),
        times=times,
        runs=runs,
    )


def _record_batch_metrics(nvariants: int, runs: Dict[str, BatchRun]) -> None:
    obs.add("sim.batch.runs", len(runs))
    obs.add("sim.batch.variants", nvariants * len(runs))
    for run in runs.values():
        obs.add("sim.batch.messages", run.instrument.total_messages)
        obs.add("sim.batch.bytes", run.instrument.total_bytes)
        if run.fastpath is not None:
            obs.add(
                "sim.batch.extrapolated_trips", run.fastpath.extrapolated_trips
            )
            obs.add("sim.batch.fallbacks", run.fastpath.fallbacks)
