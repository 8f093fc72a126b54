"""Differential exactness of closed-form transfer plans.

``TransferPlan`` computes every receiver's strips at once over whole-mesh
integer arrays.  These tests hold it to the point-by-point reference
builder in :mod:`tests.runtime.transfer_oracle`: equal
``senders``/``receivers``/``nbytes``, equal materialized messages (pair
order, copy order, ``box``, ``src_box``), and the same fault text where
the reference faults.  Coverage: every plan of the paper matrix at 64
ranks, the kernel corpus, a batch of generated programs (wrap and
non-wrap), and hand-built edge layouts.
"""

import itertools

import numpy as np
import pytest

from repro.errors import RuntimeFault
from repro.experiments_registry import EXPERIMENT_KEYS, experiment_spec
from repro.ir.nodes import CommDescriptor, CommEntry
from repro.lang.regions import Direction, Region
from repro.machine import t3d
from repro.programs import BENCHMARKS, KERNELS, build_benchmark, small_config
from repro.programs.generate import generated_name
from repro.runtime.grid import ProcessorGrid
from repro.runtime.layout import ProblemLayout
from repro.runtime.transfers import TransferPlan
from tests.runtime.transfer_oracle import build_messages


def assert_same_plan(desc, layout):
    """The closed-form plan equals the reference; returns whether the
    descriptor produced a plan (False: both faulted identically)."""
    nprocs = layout.grid.nprocs
    try:
        expected = build_messages(desc, layout)
    except RuntimeFault as exc:
        with pytest.raises(RuntimeFault) as got:
            TransferPlan(desc, layout, nprocs)
        assert str(got.value) == str(exc)
        return False
    plan = TransferPlan(desc, layout, nprocs)
    for name in ("senders", "receivers", "nbytes"):
        assert getattr(plan, name).dtype == np.int64, name
    assert plan.senders.tolist() == [m.sender for m in expected]
    assert plan.receivers.tolist() == [m.receiver for m in expected]
    assert plan.nbytes.tolist() == [m.nbytes for m in expected]
    assert plan.message_count == len(plan.messages) == len(expected)
    assert list(plan.messages) == expected
    return True


def program_layout(program, nprocs):
    grid = ProcessorGrid(*t3d(nprocs).grid_shape)
    domains = {name: dom for name, (dom, _) in program.arrays.items()}
    return ProblemLayout(grid, domains)


def assert_program_plans(program, nprocs):
    """Every descriptor of ``program``; returns (plans, wrap plans)."""
    layout = program_layout(program, nprocs)
    descs = program.all_descriptors()
    for desc in descs:
        assert assert_same_plan(desc, layout), desc.describe()
    return len(descs), sum(desc.wrap for desc in descs)


class TestProgramPlans:
    @pytest.mark.parametrize("key", EXPERIMENT_KEYS)
    @pytest.mark.parametrize("bench", BENCHMARKS)
    def test_paper_matrix_at_64_ranks(self, bench, key):
        program = build_benchmark(bench, opt=experiment_spec(key).opt)
        plans, _ = assert_program_plans(program, 64)
        assert plans

    @pytest.mark.parametrize("nprocs", [16, 64])
    @pytest.mark.parametrize("bench", KERNELS)
    def test_kernels(self, bench, nprocs):
        for key in EXPERIMENT_KEYS:
            program = build_benchmark(bench, opt=experiment_spec(key).opt)
            assert_program_plans(program, nprocs)

    @pytest.mark.parametrize("nprocs", [4, 16])
    def test_generated_batch(self, nprocs):
        plans = wraps = 0
        for seed in range(12):
            name = generated_name(seed)
            for key in ("baseline", "pl"):
                program = build_benchmark(
                    name, config=small_config(name), opt=experiment_spec(key).opt
                )
                n, w = assert_program_plans(program, nprocs)
                plans, wraps = plans + n, wraps + w
        # the batch exercises both builders' modes
        assert 0 < wraps < plans


RANK2_OFFSETS = [
    o for o in itertools.product((-2, -1, 0, 1, 2), repeat=2) if any(o)
]


def rank2_cases():
    for rows, cols in [(1, 1), (1, 4), (4, 1), (3, 3), (5, 1), (2, 3)]:
        for n in (3, 10):
            full = Region("R", (1, 1), (n, n))
            partial = Region("S", (1, 1), (n, max(1, n - 2)))
            yield rows, cols, {"A": full, "B": partial}, [
                full,
                Region("In", (2, 2), (n - 1, n - 1)),
                Region("Row", (1, 2), (1, n)),
                partial,
            ]


class TestEdgeLayouts:
    """1x1, 1xP and Px1 meshes, uneven splits (10 over 3), more mesh
    rows than extent (3 over 5: empty blocks), a partial domain that
    does not span the layout, every rank-2 offset up to 2 — single and
    combined, bounded and wrap."""

    @pytest.mark.parametrize("wrap", [False, True])
    def test_rank2(self, wrap):
        planned = faulted = 0
        for rows, cols, domains, regions in rank2_cases():
            layout = ProblemLayout(ProcessorGrid(rows, cols), domains)
            for offsets, use in itertools.product(RANK2_OFFSETS, regions):
                direction = Direction("d", offsets)
                for arrays in (("A",), ("B",), ("A", "B")):
                    desc = CommDescriptor(
                        direction=direction,
                        entries=[CommEntry(a, use) for a in arrays],
                        wrap=wrap,
                    )
                    if assert_same_plan(desc, layout):
                        planned += 1
                    else:
                        faulted += 1
        assert planned and faulted

    @pytest.mark.parametrize("wrap", [False, True])
    @pytest.mark.parametrize("rows,cols", [(1, 1), (1, 3), (4, 1), (2, 2), (5, 2)])
    def test_rank1_lives_on_column_zero(self, rows, cols, wrap):
        domains = {"V": Region("L", (1,), (7,)), "W": Region("M", (1,), (3,))}
        layout = ProblemLayout(ProcessorGrid(rows, cols), domains)
        for offset, (lo, hi) in itertools.product(
            (-2, -1, 1, 2), [(1, 7), (2, 6), (3, 3), (1, 3)]
        ):
            for arrays in (("V",), ("W",), ("V", "W")):
                desc = CommDescriptor(
                    direction=Direction("d", (offset,)),
                    entries=[
                        CommEntry(a, Region("U", (lo,), (hi,))) for a in arrays
                    ],
                    wrap=wrap,
                )
                if assert_same_plan(desc, layout):
                    # only mesh column 0 ever owns rank-1 data
                    plan = TransferPlan(desc, layout, layout.grid.nprocs)
                    assert not (plan.senders % cols).any()
                    assert not (plan.receivers % cols).any()

    @pytest.mark.parametrize("wrap", [False, True])
    @pytest.mark.parametrize("rows,cols", [(1, 1), (2, 2), (3, 1), (2, 3)])
    def test_rank3_shift_along_local_dim(self, rows, cols, wrap):
        domains = {
            "U": Region("V", (1, 1, 1), (6, 6, 5)),
            "T": Region("W", (1, 1, 2), (6, 6, 4)),
        }
        layout = ProblemLayout(ProcessorGrid(rows, cols), domains)
        uses = [
            Region("In", (2, 2, 2), (5, 5, 4)),
            Region("All", (1, 1, 1), (6, 6, 5)),
        ]
        offsets = [(0, 0, 1), (1, 0, 1), (0, -1, 2), (1, 1, -1), (-1, 1, 0)]
        for offset, use in itertools.product(offsets, uses):
            for arrays in (("U",), ("T",), ("U", "T")):
                desc = CommDescriptor(
                    direction=Direction("d", offset),
                    entries=[CommEntry(a, use) for a in arrays],
                    wrap=wrap,
                )
                assert_same_plan(desc, layout)


class TestMessageList:
    def test_len_builds_nothing(self):
        layout = ProblemLayout(
            ProcessorGrid(2, 2), {"A": Region("R", (1, 1), (8, 8))}
        )
        desc = CommDescriptor(
            direction=Direction("se", (1, 1)),
            entries=[CommEntry("A", Region("In", (2, 2), (7, 7)))],
        )
        plan = TransferPlan(desc, layout, 4)
        assert len(plan.messages) == plan.message_count == 5
        assert plan.messages._items is None
        first = plan.messages[0]
        assert plan.messages._items is not None
        assert list(plan.messages)[0] is first
