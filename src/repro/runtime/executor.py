"""The simulation driver.

:func:`simulate` executes an optimized IR program on a simulated machine
in one of two modes:

``NUMERIC``
    Full simulation: distributed array data is computed block-by-block,
    fluff moves through the transfer plans, *and* the clock vector runs.
    Use for correctness work (results are compared against the sequential
    reference) and moderate problem sizes.

``TIMING``
    Metadata-only simulation: the clock vector, dynamic counts, message
    counts and volumes are exact, but no array data is touched.  Scalar
    control flow still executes; embedded reductions evaluate to 0.0 with
    a recorded warning, so programs whose control flow depends on reduced
    values should run NUMERIC (the bundled benchmarks use counted loops
    precisely so TIMING is exact for them).

Both modes execute the same statement walk; they differ only in whether
array payloads exist.

TIMING mode additionally has a **compiled fast path**
(:mod:`repro.runtime.schedule`): the IR body is lowered once into a flat
schedule of primitive timing ops with all invariant data precomputed,
and counted loops extrapolate their steady state in closed form.  It is
bit-exact versus the interpreted walk and is selected automatically for
TIMING runs without a ``trace_rank`` (see :func:`simulate`'s ``fast``
parameter for the escape hatch).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.comm.counts import static_comm_count
from repro.errors import RuntimeFault
from repro.ir import nodes as ir
from repro.ironman.calls import CallKind
from repro.lang.regions import Region
from repro.machine.params import Machine
from repro.obs import core as obs
from repro.runtime.distarray import DistArray
from repro.runtime.grid import ProcessorGrid
from repro.runtime.instrument import Instrumentation
from repro.runtime.interp import ParallelEvaluator, ScalarEvaluator
from repro.runtime.layout import ProblemLayout
from repro.runtime.options import ExecutionMode, SimOptions
from repro.runtime.schedule import FastPathStats, compile_schedule
from repro.runtime.timing import TimingEngine
from repro.runtime.transfers import PlanCache, TransferPlan


@dataclass
class RunResult:
    """Everything a simulation run produced."""

    program_name: str
    machine_name: str
    library: str
    nprocs: int
    mode: ExecutionMode
    #: simulated execution time (the last rank to finish), in model seconds
    time: float
    clocks: np.ndarray
    #: the paper's dynamic communication count (per-processor maximum)
    dynamic_comm_count: int
    dynamic_comms: np.ndarray
    static_comm_count: int
    instrument: Instrumentation
    scalars: Dict[str, float]
    arrays: Optional[Dict[str, DistArray]] = field(default=None, repr=False)
    #: event timeline of the traced rank (None unless trace_rank was set)
    trace: Optional[list] = field(default=None, repr=False)
    trace_rank: Optional[int] = None
    #: fast-path engagement stats (None when the interpreted walk ran)
    fastpath: Optional[FastPathStats] = None

    def array(self, name: str) -> np.ndarray:
        """Gathered global contents of an array (NUMERIC mode only)."""
        if self.arrays is None:
            raise RuntimeFault(
                "array data is unavailable in TIMING mode; run NUMERIC"
            )
        return self.arrays[name].gather()

    @property
    def warnings(self) -> List[str]:
        return self.instrument.warnings


class _ProgramSetup:
    """The machine-shape setup of one program, shared by the scalar
    simulation and :class:`~repro.runtime.batch.BatchEvaluator`:
    processor grid, problem layout (fluff feasibility checked), transfer
    plan cache and per-region element-count vectors.  All of it is pure
    geometry — no cost parameter enters — so the batched evaluator
    builds it once and reuses it for every variant batch.

    Subclasses provide ``instrument`` (read by :meth:`_timing_reduce`).
    """

    def __init__(
        self, program: ir.IRProgram, machine: Machine, repeat_cap: Optional[int]
    ) -> None:
        self.program = program
        self.machine = machine
        self.repeat_cap = repeat_cap
        rows, cols = machine.grid_shape
        self.grid = ProcessorGrid(rows, cols)
        domains = {name: dom for name, (dom, _) in program.arrays.items()}
        self.layout = ProblemLayout(self.grid, domains)
        fluff = {name: f for name, (_, f) in program.arrays.items()}
        self.layout.check_fluff_feasible(fluff)
        self.plans = PlanCache(self.layout, machine.nprocs)
        self._elems_cache: Dict[Tuple, np.ndarray] = {}

    def _fresh_scalars(self) -> Dict[str, Union[int, float, bool]]:
        """The replicated scalar environment a run starts from: configs
        + scalars (zeroed); loop variables join as they come into
        scope."""
        scalars: Dict[str, Union[int, float, bool]] = dict(
            self.program.config_values
        )
        for name in self.program.scalars:
            scalars[name] = 0.0
        return scalars

    def _scalars_out(self) -> Dict[str, float]:
        return {
            k: v for k, v in self.scalars.items() if k in self.program.scalars
        }

    def _timing_reduce(self, expr: ir.IRReduce) -> float:
        self.instrument.warn(
            "TIMING mode evaluates reductions as 0.0; control flow "
            "depending on reduced values is unreliable — run NUMERIC"
        )
        return 0.0

    def _elements(self, region: Region) -> np.ndarray:
        key = (region.lows, region.highs)
        vec = self._elems_cache.get(key)
        if vec is None:
            vec = np.fromiter(
                (
                    region.intersect(
                        self.layout.owned(region.rank, p)
                    ).size
                    for p in self.grid.ranks()
                ),
                dtype=np.float64,
                count=self.machine.nprocs,
            )
            self._elems_cache[key] = vec
        return vec


class _Simulation(_ProgramSetup):
    def __init__(
        self,
        program: ir.IRProgram,
        machine: Machine,
        mode: ExecutionMode,
        repeat_cap: Optional[int],
        trace_rank: Optional[int] = None,
        fast: bool = False,
    ) -> None:
        super().__init__(program, machine, repeat_cap)
        self.mode = mode
        self.fast = fast
        self._alias_cache: Dict[int, bool] = {}
        self.instrument = Instrumentation(machine.nprocs)
        self.timing = TimingEngine(machine, self.instrument, trace_rank=trace_rank)
        self._payloads: Dict[int, List[List[np.ndarray]]] = {}
        self.scalars = self._fresh_scalars()

        self.arrays: Optional[Dict[str, DistArray]] = None
        if mode is ExecutionMode.NUMERIC:
            self.arrays = {
                name: DistArray(name, dom, f, self.layout)
                for name, (dom, f) in program.arrays.items()
            }
            self.parallel = ParallelEvaluator(
                self.arrays, self.scalars, self.layout
            )
            self.scalar_eval = ScalarEvaluator(
                self.scalars, self.parallel.reduce
            )
        else:
            self.parallel = None
            self.scalar_eval = ScalarEvaluator(self.scalars, self._timing_reduce)

    # ------------------------------------------------------------------
    def run(self) -> RunResult:
        fast_stats: Optional[FastPathStats] = None
        if self.fast:
            fast_stats = compile_schedule(self).execute()
        else:
            self._exec_body(self.program.body)
        self.timing.assert_quiescent()
        return RunResult(
            program_name=self.program.name,
            machine_name=self.machine.name,
            library=self.machine.library,
            nprocs=self.machine.nprocs,
            mode=self.mode,
            time=self.timing.elapsed,
            clocks=self.timing.absolute_clocks(),
            dynamic_comm_count=self.instrument.dynamic_comm_count,
            dynamic_comms=self.instrument.dynamic_comms.copy(),
            static_comm_count=static_comm_count(self.program),
            instrument=self.instrument,
            scalars=self._scalars_out(),
            arrays=self.arrays,
            trace=self.timing.trace if self.timing.trace_rank is not None else None,
            trace_rank=self.timing.trace_rank,
            fastpath=fast_stats,
        )

    # ------------------------------------------------------------------
    def _exec_body(self, body: List[ir.IRStmt]) -> None:
        for stmt in body:
            if isinstance(stmt, ir.Block):
                for s in stmt.stmts:
                    self._exec_simple(s)
            elif isinstance(stmt, ir.ForLoop):
                self._exec_for(stmt)
            elif isinstance(stmt, ir.RepeatLoop):
                self._exec_repeat(stmt)
            elif isinstance(stmt, ir.IfStmt):
                self._exec_if(stmt)
            else:  # pragma: no cover - defensive
                raise RuntimeFault(f"cannot execute {stmt!r}")

    def _exec_for(self, stmt: ir.ForLoop) -> None:
        lo = int(self.scalar_eval.eval(stmt.low))
        hi = int(self.scalar_eval.eval(stmt.high))
        step = int(self.scalar_eval.eval(stmt.step)) if stmt.step else 1
        if step == 0:
            raise RuntimeFault(f"for {stmt.var}: zero step")
        stop = hi + (1 if step > 0 else -1)
        for value in range(lo, stop, step):
            self.scalars[stmt.var] = value
            self._exec_body(stmt.body)
            self.timing.loop_rebase()

    def _exec_repeat(self, stmt: ir.RepeatLoop) -> None:
        cap = self.repeat_cap if self.repeat_cap is not None else stmt.max_trips
        trips = 0
        while True:
            self._exec_body(stmt.body)
            self.timing.loop_rebase()
            trips += 1
            if bool(self.scalar_eval.eval(stmt.cond)):
                break
            if trips >= cap:
                self.instrument.warn(
                    f"repeat loop capped at {cap} trips without converging"
                )
                break

    def _exec_if(self, stmt: ir.IfStmt) -> None:
        for cond, body in stmt.arms:
            if bool(self.scalar_eval.eval(cond)):
                self._exec_body(body)
                return
        self._exec_body(stmt.orelse)

    # ------------------------------------------------------------------
    def _exec_simple(self, stmt: ir.SimpleStmt) -> None:
        if isinstance(stmt, ir.ArrayAssign):
            self.timing.charge_array_stmt(
                stmt.flops, self._elements(stmt.region), label=stmt.target
            )
            if self.arrays is not None:
                self._store_array_stmt(stmt)
        elif isinstance(stmt, ir.ScalarAssign):
            self._exec_scalar_assign(stmt)
        elif isinstance(stmt, ir.CommCall):
            self._exec_comm(stmt)
        else:  # pragma: no cover - defensive
            raise RuntimeFault(f"cannot execute {stmt!r}")

    def _store_array_stmt(self, stmt: ir.ArrayAssign) -> None:
        target = self.arrays[stmt.target]
        # aliasing is only possible when the target appears in its own
        # RHS; hoisted per statement so the common non-aliasing case
        # skips the per-rank shares_memory probe entirely
        may_alias = self._alias_cache.get(id(stmt))
        if may_alias is None:
            may_alias = stmt.target in ir.arrays_read(stmt.expr)
            self._alias_cache[id(stmt)] = may_alias
        for proc in self.grid.ranks():
            owned = self.layout.owned(stmt.region.rank, proc)
            box = stmt.region.intersect(owned)
            if box.is_empty:
                continue
            value = self.parallel.eval(stmt.expr, proc, box)
            dest = target.block(proc).view(box)
            if isinstance(value, np.ndarray):
                if may_alias and np.shares_memory(
                    value, target.block(proc).data
                ):
                    value = value.copy()
                dest[...] = value
            else:
                dest[...] = value

    def _exec_scalar_assign(self, stmt: ir.ScalarAssign) -> None:
        # collective cost for each embedded reduction
        for node in ir.walk_expr(stmt.expr):
            if isinstance(node, ir.IRReduce):
                self.timing.charge_reduction(
                    ir.expr_flops(node.operand), self._elements(node.region)
                )
        self.timing.charge_scalar_stmt(ir.expr_flops(stmt.expr))
        self.scalars[stmt.target] = self.scalar_eval.eval(stmt.expr)

    def _exec_comm(self, stmt: ir.CommCall) -> None:
        plan = self.plans.plan(stmt.desc)
        if self.arrays is not None:
            if stmt.kind is CallKind.SR:
                self._snapshot(plan)
            elif stmt.kind is CallKind.DN:
                self._deliver(plan)
        self.timing.comm_call(stmt.kind, plan)

    def _snapshot(self, plan: TransferPlan) -> None:
        if plan.message_count == 0:
            return
        payloads = [
            [
                self.arrays[copy.array]
                .block(msg.sender)
                .view(copy.source)
                .copy()
                for copy in msg.copies
            ]
            for msg in plan.messages
        ]
        self._payloads[plan.desc.id] = payloads

    def _deliver(self, plan: TransferPlan) -> None:
        if plan.message_count == 0:
            return
        payloads = self._payloads.pop(plan.desc.id, None)
        if payloads is None:  # pragma: no cover - timing engine raises first
            raise RuntimeFault(
                f"delivery of {plan.desc.describe()} before initiation"
            )
        for msg, msg_payloads in zip(plan.messages, payloads):
            for copy, payload in zip(msg.copies, msg_payloads):
                self.arrays[copy.array].block(msg.receiver).view(copy.box)[
                    ...
                ] = payload


def _resolve_fast(
    fast: Optional[bool], mode: ExecutionMode, trace_rank: Optional[int]
) -> bool:
    if fast is None:
        return mode is ExecutionMode.TIMING and trace_rank is None
    if fast:
        if mode is not ExecutionMode.TIMING:
            raise RuntimeFault(
                "fast=True requires TIMING mode; NUMERIC runs the "
                "interpreted walk (pass fast=False or fast=None)"
            )
        if trace_rank is not None:
            raise RuntimeFault(
                "fast=True cannot record a per-rank timeline; pass "
                "fast=False together with trace_rank"
            )
    return bool(fast)


#: Sentinel distinguishing "argument not passed" from an explicit value
#: (``fast=None`` is a meaningful setting, so ``None`` can't mark absence).
_UNSET = object()


def _resolve_options(
    options: Optional[SimOptions], mode: object
) -> SimOptions:
    """Fold the positional ``mode`` and the options object into one
    :class:`SimOptions`; mixing them raises."""
    if options is not None:
        if mode is not _UNSET:
            raise RuntimeFault(
                "simulate() got options= together with mode — put every "
                "setting on the SimOptions object"
            )
        return options
    return SimOptions(
        mode=mode if mode is not _UNSET else ExecutionMode.NUMERIC
    )


def simulate(
    program: ir.IRProgram,
    machine: Machine,
    mode: ExecutionMode = _UNSET,  # type: ignore[assignment]
    *,
    options: Optional[SimOptions] = None,
) -> RunResult:
    """Run an optimized program on a simulated machine.

    Parameters
    ----------
    program:
        An :class:`~repro.ir.nodes.IRProgram`, typically from
        :func:`repro.comm.optimize` (a communication-free program runs
        too: on one processor, or trivially wrong on several — useful in
        tests that demonstrate why communication is needed).
    machine:
        From :func:`repro.machine.paragon` / :func:`repro.machine.t3d`.
    options:
        A :class:`~repro.runtime.options.SimOptions`; the single place
        for every run-shaping setting:

        ``mode``
            NUMERIC (data + time) or TIMING (time and counts only).
        ``repeat_cap``
            Override for every ``repeat`` loop's trip cap.
        ``trace_rank``
            Record the full event timeline (compute/send/recv/wait/...)
            of one processor; retrieve it as ``result.trace`` and render
            it with :mod:`repro.analysis.timeline` or bridge it into a
            Perfetto trace with :func:`repro.obs.bridge_rank_trace`.
        ``fast``
            Select the compiled TIMING fast path
            (:mod:`repro.runtime.schedule`).  ``None`` (default) chooses
            it automatically for TIMING runs without a ``trace_rank``;
            ``False`` forces the interpreted walk (the CLI's
            ``--no-fast-path``); ``True`` demands it and raises if the
            mode can't support it.  Results are bit-identical either
            way.

    ``mode`` may also be passed positionally — ``simulate(program,
    machine, ExecutionMode.TIMING)`` is the stable short form — but
    every other setting lives on the options object (the bare
    ``repeat_cap``/``trace_rank``/``fast`` keywords completed their
    deprecation cycle and are gone).  Mixing ``mode`` with ``options=``
    raises.
    """
    opts = _resolve_options(options, mode)
    mode = opts.mode
    repeat_cap = opts.repeat_cap
    trace_rank = opts.trace_rank
    use_fast = _resolve_fast(opts.fast, mode, trace_rank)
    with obs.span(
        "simulate",
        program=program.name,
        machine=machine.name,
        library=machine.library,
        nprocs=machine.nprocs,
        mode=mode.value,
    ):
        result = _Simulation(
            program, machine, mode, repeat_cap, trace_rank, fast=use_fast
        ).run()
    if obs.enabled():
        _record_run_metrics(result)
    return result


def _record_run_metrics(result: RunResult) -> None:
    """Post one finished run's model-side totals into the metrics
    registry: the IRONMAN per-primitive call counts the instrumentation
    gathered, communication volumes, and the model time histogram.
    Called only when tracing is on."""
    inst = result.instrument
    for primitive, count in inst.call_counts.items():
        obs.add(f"sim.calls.{primitive}", count)
    obs.add("sim.runs", 1)
    obs.add("sim.dynamic_comms", result.dynamic_comm_count)
    obs.add("sim.messages", inst.total_messages)
    obs.add("sim.bytes", inst.total_bytes)
    obs.add("sim.reductions", inst.reductions)
    obs.observe("sim.model_time_s", result.time)
    if result.fastpath is not None:
        obs.add("sim.fastpath.compiled", 1)
        obs.add("sim.fastpath.extrapolated_trips", result.fastpath.extrapolated_trips)
        obs.add("sim.fastpath.fallbacks", result.fastpath.fallbacks)
