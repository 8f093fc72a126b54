"""Unit tests for transfer plans (message computation)."""

import re

import numpy as np
import pytest

from repro.errors import RuntimeFault
from repro.ir.nodes import CommDescriptor, CommEntry
from repro.lang.regions import Direction, Region
from repro.runtime.grid import ProcessorGrid
from repro.runtime.layout import ProblemLayout
from repro.runtime.transfers import PlanCache, TransferPlan, running_sums


def make_plan(direction, use_region=None, rows=2, cols=2, n=8, arrays=("A",)):
    grid = ProcessorGrid(rows, cols)
    domain = Region("R", (1, 1), (n, n))
    layout = ProblemLayout(grid, {name: domain for name in arrays})
    use = use_region or Region("In", (2, 2), (n - 1, n - 1))
    desc = CommDescriptor(
        direction=direction,
        entries=[CommEntry(array=name, use_region=use) for name in arrays],
    )
    return TransferPlan(desc, layout, grid.nprocs), layout


def wrap_plan_builder(domains, array, direction, use_region, rows, cols):
    """A thunk building the wrap (``@@``) plan of one entry of
    ``array``, laid out with every array of ``domains``."""
    grid = ProcessorGrid(rows, cols)
    layout = ProblemLayout(grid, domains)
    desc = CommDescriptor(
        direction=direction,
        entries=[CommEntry(array=array, use_region=use_region)],
        wrap=True,
    )
    return lambda: TransferPlan(desc, layout, grid.nprocs)


class TestPlanFaults:
    """Every fault a plan can raise, with its full text: the descriptor
    or array, and the first offending strip in (entry, receiver, subset)
    order."""

    def test_strip_without_owning_neighbour(self):
        grid = ProcessorGrid(2, 2)
        domain = Region("R", (1, 1), (8, 8))
        layout = ProblemLayout(grid, {"A": domain})
        # reading east of the whole domain: rank 1 (the north-east
        # block) needs column 9, which no processor owns
        desc = CommDescriptor(
            direction=Direction("east", (0, 1)),
            entries=[CommEntry(array="A", use_region=domain)],
        )
        message = (
            f"transfer {desc.describe()}: strip [1..4, 9..9] for rank 1 "
            "has no owning neighbour — layout/semantic inconsistency"
        )
        with pytest.raises(RuntimeFault, match=re.escape(message)):
            TransferPlan(desc, layout, grid.nprocs)

    def test_wrap_domain_not_spanning_the_layout(self):
        # B stops at column 6 while the rank-2 layout runs to column 8:
        # rank 2's east strip (column 7) lies outside B's domain
        big = Region("R", (1, 1), (8, 8))
        small = Region("S", (1, 1), (8, 6))
        build = wrap_plan_builder(
            {"A": big, "B": small}, "B", Direction("east", (0, 1)),
            small, rows=1, cols=4,
        )
        message = (
            "wrap transfer of 'B': its domain does not span the rank-class "
            "layout in dim 2; periodic arrays must cover the full "
            "distributed extent"
        )
        with pytest.raises(RuntimeFault, match=re.escape(message)):
            build()

    def test_wrap_folded_strip_escaping_the_domain(self):
        # an offset of 6 on a 4-wide domain: rank 1's strip (columns
        # 9..10) folds to 5..6, still outside
        domain = Region("R", (1, 1), (4, 4))
        build = wrap_plan_builder(
            {"A": domain}, "A", Direction("far", (0, 6)),
            domain, rows=1, cols=2,
        )
        message = (
            "wrap transfer of 'A': folded strip [1..4, 5..6] still escapes "
            "the domain [1..4, 1..4] — offset too large for the mesh"
        )
        with pytest.raises(RuntimeFault, match=re.escape(message)):
            build()

    def test_wrap_strip_spanning_processors(self):
        # blocks two columns wide, shift of three: rank 0's strip
        # (columns 4..5) straddles ranks 1 and 2
        domain = Region("R", (1, 1), (8, 8))
        build = wrap_plan_builder(
            {"A": domain}, "A", Direction("e3", (0, 3)),
            domain, rows=1, cols=4,
        )
        message = (
            "wrap transfer of 'A': strip [1..8, 4..5] spans processors — "
            "shift width exceeds a block"
        )
        with pytest.raises(RuntimeFault, match=re.escape(message)):
            build()


class TestAxisTransfers:
    def test_east_shift_moves_column_strips(self):
        plan, layout = make_plan(Direction("east", (0, 1)))
        # 2x2 mesh: each left-column rank receives from its right neighbour
        assert plan.message_count == 2
        for msg in plan.messages:
            assert layout.grid.coords(msg.sender)[1] == 1
            assert layout.grid.coords(msg.receiver)[1] == 0

    def test_strip_contents_are_boundary_columns(self):
        plan, _ = make_plan(Direction("east", (0, 1)))
        for msg in plan.messages:
            (copy,) = msg.copies
            lo, hi = copy.box.lows[1], copy.box.highs[1]
            assert lo == hi == 5  # first column of the east block

    def test_bytes_match_strip_sizes(self):
        plan, _ = make_plan(Direction("east", (0, 1)))
        for msg in plan.messages:
            assert msg.nbytes == msg.copies[0].box.size * 8

    def test_boundary_ranks_send_nothing_west(self):
        plan, layout = make_plan(Direction("west", (0, -1)))
        senders = {layout.grid.coords(m.sender)[1] for m in plan.messages}
        assert senders == {0}


class TestDiagonalTransfers:
    def test_se_shift_involves_three_neighbor_classes(self):
        plan, layout = make_plan(Direction("se", (1, 1)), rows=3, cols=3, n=9)
        # the top-left rank receives an east strip, a south strip, and a
        # corner from the south-east neighbour
        senders = sorted(
            m.sender for m in plan.messages if m.receiver == 0
        )
        assert senders == [1, 3, 4]

    def test_corner_message_is_single_cell(self):
        plan, layout = make_plan(Direction("se", (1, 1)), rows=3, cols=3, n=9)
        corner = [
            m for m in plan.messages if m.receiver == 0 and m.sender == 4
        ]
        assert corner[0].copies[0].box.size == 1


class TestCombinedTransfers:
    def test_combined_entries_share_messages(self):
        single, _ = make_plan(Direction("east", (0, 1)), arrays=("A",))
        combined, _ = make_plan(Direction("east", (0, 1)), arrays=("A", "B"))
        assert combined.message_count == single.message_count
        assert combined.nbytes.sum() == 2 * single.nbytes.sum()

    def test_combined_message_carries_both_strips(self):
        plan, _ = make_plan(Direction("east", (0, 1)), arrays=("A", "B"))
        for msg in plan.messages:
            assert sorted(c.array for c in msg.copies) == ["A", "B"]


class TestLocalShifts:
    def test_rank3_local_dim_shift_has_no_messages(self):
        grid = ProcessorGrid(2, 2)
        domain = Region("R", (1, 1, 1), (4, 4, 8))
        layout = ProblemLayout(grid, {"U": domain})
        desc = CommDescriptor(
            direction=Direction("zup", (0, 0, 1)),
            entries=[
                CommEntry(
                    array="U", use_region=Region("In", (1, 1, 1), (4, 4, 7))
                )
            ],
        )
        plan = TransferPlan(desc, layout, 4)
        assert plan.message_count == 0

    def test_single_processor_has_no_messages(self):
        plan, _ = make_plan(Direction("east", (0, 1)), rows=1, cols=1)
        assert plan.message_count == 0


class TestParticipants:
    def test_participants_cover_senders_and_receivers(self):
        plan, _ = make_plan(Direction("east", (0, 1)))
        assert plan.participant_count == 4  # every rank sends or receives

    def test_plan_cache_reuses_plans(self):
        grid = ProcessorGrid(2, 2)
        domain = Region("R", (1, 1), (8, 8))
        layout = ProblemLayout(grid, {"A": domain})
        cache = PlanCache(layout, 4)
        desc = CommDescriptor(
            direction=Direction("east", (0, 1)),
            entries=[CommEntry("A", Region("In", (2, 2), (7, 7)))],
        )
        assert cache.plan(desc) is cache.plan(desc)


class TestPrimVectors:
    def test_cumulative_send_costs(self):
        from repro.machine.params import NetworkParams, PrimitiveCost

        plan, _ = make_plan(Direction("se", (1, 1)), rows=3, cols=3, n=9)
        prim = PrimitiveCost("send", fixed=10e-6)
        net = NetworkParams(latency=1e-6, bandwidth=1e9)
        vecs = plan.prim_vectors(prim, net)
        # rank 4 (center) sends 3 messages: cumulative 10, 20, 30us
        cums = sorted(
            vecs.cum_sw[i]
            for i in range(plan.message_count)
            if plan.senders[i] == 4
        )
        assert np.allclose(cums, [10e-6, 20e-6, 30e-6])
        assert vecs.total_sw_by_rank[4] == pytest.approx(30e-6)


class TestCostModelCacheKeys:
    """Plans are shared process-wide across machines by geometry, so the
    per-plan cost caches must key on the full cost model — two variants
    differing only in a primitive-cost field must not reuse vectors
    (regression: these used to key on the primitive *name*)."""

    def test_prim_vectors_distinguish_cost_fields(self):
        from repro.machine.params import NetworkParams, PrimitiveCost

        plan, _ = make_plan(Direction("east", (0, 1)), n=16)
        net = NetworkParams(latency=1e-6, bandwidth=1e9)
        cheap = PrimitiveCost("send", fixed=10e-6)
        # same name and network, different knee/beyond
        steep = PrimitiveCost(
            "send", fixed=10e-6, knee_bytes=8, per_byte_beyond=1e-6
        )
        a = plan.prim_vectors(cheap, net)
        b = plan.prim_vectors(steep, net)
        assert a is not b
        assert (b.cum_sw > a.cum_sw).all()

    def test_prim_vectors_distinguish_network_params(self):
        from repro.machine.params import NetworkParams, PrimitiveCost

        plan, _ = make_plan(Direction("east", (0, 1)), n=16)
        prim = PrimitiveCost("send", fixed=10e-6)
        slow = plan.prim_vectors(prim, NetworkParams(latency=1e-4, bandwidth=1e6))
        fast = plan.prim_vectors(prim, NetworkParams(latency=1e-6, bandwidth=1e9))
        assert (slow.wire > fast.wire).all()

    def test_recv_sw_distinguishes_cost_fields(self):
        from repro.machine.params import PrimitiveCost

        plan, _ = make_plan(Direction("east", (0, 1)), n=16)
        cheap = PrimitiveCost("recv", fixed=10e-6)
        steep = PrimitiveCost(
            "recv", fixed=10e-6, knee_bytes=8, per_byte_beyond=1e-6
        )
        a = plan.recv_sw_by_rank(cheap)
        b = plan.recv_sw_by_rank(steep)
        receiving = a > 0
        assert receiving.any()
        assert (b[receiving] > a[receiving]).all()

    def test_variant_times_differ_through_shared_plans(self):
        """End to end: two simulations in one process, same geometry,
        cost model moved between them — the shared plan cache must not
        leak the first machine's costs into the second's times."""
        from repro import ExecutionMode, OptimizationConfig, compile_program, simulate, t3d
        from repro.machine import apply_overrides
        from tests.conftest import MINI_SOURCE

        program = compile_program(
            MINI_SOURCE, "mini.zl", opt=OptimizationConfig.full()
        )
        base = t3d(4)
        variant = apply_overrides(
            base, {"prim.*.knee_bytes": 8, "prim.*.per_byte_beyond": 1e-5}
        )
        t_base = simulate(program, base, ExecutionMode.TIMING).time
        t_variant = simulate(program, variant, ExecutionMode.TIMING).time
        assert t_variant > t_base


class TestRunningSums:
    """The scalar and batched engines share ``running_sums``, so their
    agreement cannot catch an error in it: pin it against the
    sequential per-rank loop, bit for bit."""

    @staticmethod
    def sequential(values, endpoints, nprocs):
        cum = np.zeros_like(values)
        total = np.zeros((len(values), nprocs))
        for row in range(len(values)):
            for i, r in enumerate(endpoints):
                total[row, r] += values[row, i]
                cum[row, i] = total[row, r]
        return cum, total

    @pytest.mark.parametrize("rows,cols,offsets", [
        (3, 3, (1, 1)), (4, 4, (-1, 1)), (2, 2, (0, 1)), (1, 1, (1, 0)),
    ])
    def test_matches_sequential_loop_bitwise(self, rows, cols, offsets):
        plan, _ = make_plan(
            Direction("d", offsets), rows=rows, cols=cols, n=12, arrays=("A", "B")
        )
        rng = np.random.default_rng(7)
        values = rng.random((5, plan.message_count)) * 1e-5
        for endpoints in (plan.senders, plan.receivers):
            cum, total = running_sums(values, endpoints, plan.nprocs)
            want_cum, want_total = self.sequential(values, endpoints, plan.nprocs)
            assert np.array_equal(cum, want_cum)
            assert np.array_equal(total, want_total)

    def test_plan_vectors_match_sequential_loop(self):
        from repro.machine.params import NetworkParams, PrimitiveCost

        plan, _ = make_plan(Direction("se", (1, 1)), rows=3, cols=3, n=10)
        prim = PrimitiveCost(
            "send", fixed=3.3e-6, per_byte=1.7e-9, knee_bytes=24,
            per_byte_beyond=7.1e-8,
        )
        sw = np.array([[prim.sw(int(b)) for b in plan.nbytes]])
        vecs = plan.prim_vectors(prim, NetworkParams(latency=1e-6, bandwidth=1e8))
        cum, total = self.sequential(sw, plan.senders, plan.nprocs)
        assert np.array_equal(vecs.cum_sw, cum[0])
        assert np.array_equal(vecs.total_sw_by_rank, total[0])
        _, recv = self.sequential(sw, plan.receivers, plan.nprocs)
        assert np.array_equal(plan.recv_sw_by_rank(prim), recv[0])
