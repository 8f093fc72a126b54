"""Transfer plans: which bytes move between which processors for one
communication descriptor.

For a transfer of ``A @ d`` serving statements over region ``r``, each
processor ``k`` computes its part ``box_k = r ∩ owned_k`` and reads
``box_k`` shifted by ``d``.  The cells of that shifted box falling outside
``owned_k`` are fluff, owned by mesh neighbours.  For an axis direction
that is one neighbour; for a diagonal direction like ``se`` the
outside cells form an L (south strip, east strip, corner) spanning up to
three neighbours.  The paper counts the whole thing as *one
communication* ("a set of calls to perform a single data transfer"); the
simulator prices the individual neighbour messages.

A combined descriptor packs all its entries' strips for the same
neighbour pair into one message (that is the point of combining: fewer,
larger messages, same volume).

Under a block distribution the strip geometry is affine in processor
coordinates, so a plan is computed in closed form for every receiver
at once: one ``(entries x processors x strips, rank)`` integer array per
bound, not one ``Region`` per strip.  Plans are pure metadata.  The
timing engines consume the ``senders``/``receivers``/``nbytes`` arrays;
only the numeric engine walks ``messages``, whose ``Message`` and
``StripCopy`` objects are built from the strip bounds on first access.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import RuntimeFault
from repro.ir.nodes import CommDescriptor
from repro.lang.regions import Region
from repro.runtime.grid import ProcessorGrid
from repro.runtime.layout import ProblemLayout

_DOUBLE = 8  # bytes per element; ZL arrays are doubles


@dataclass(frozen=True)
class StripCopy:
    """One rectangular piece of one array inside one message.

    ``box`` is in destination coordinates (the receiver's fluff);
    ``src_box`` is in the sender's owned coordinates.  They coincide for
    ordinary transfers and differ by a domain extent per wrapped
    dimension for periodic (wrap-@) transfers."""

    array: str
    box: Region
    src_box: Optional[Region] = None

    @property
    def source(self) -> Region:
        return self.src_box if self.src_box is not None else self.box


@dataclass
class Message:
    """One point-to-point message of a transfer."""

    sender: int
    receiver: int
    copies: List[StripCopy]

    @property
    def nbytes(self) -> int:
        return sum(c.box.size for c in self.copies) * _DOUBLE

    def __post_init__(self) -> None:
        for c in self.copies:
            assert c.source.size == c.box.size, "wrap strip size mismatch"


@dataclass
class _PrimCache:
    """Per-primitive precomputed timing vectors for a plan."""

    cum_sw: np.ndarray  # per message: cumulative send sw at its sender
    total_sw_by_rank: np.ndarray  # per rank: total send sw
    wire: np.ndarray  # per message: latency + bytes/bandwidth


def running_sums(
    values: np.ndarray, endpoints: np.ndarray, nprocs: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-rank running sums of ``values`` (messages, or variants x
    messages) over the messages of each endpoint rank, in message order,
    and each rank's total (ranks, or variants x ranks).

    The messages are laid out as a ``ranks x width`` matrix of slots,
    each rank's messages in order and padded at the end of its row, so
    one ``np.cumsum`` along the rows does the same float adds, in the
    same order, as a sequential per-rank loop.  A total is its rank's
    last running sum plus zero padding, which changes no float but -0.0
    (never a cost).  Both the scalar and the batched engines reduce
    through here, so their rows agree bitwise."""
    count = len(endpoints)
    per_rank = np.bincount(endpoints, minlength=nprocs)
    width = max(int(per_rank.max()), 1)
    order = np.argsort(endpoints, kind="stable")
    ordered = endpoints[order]
    position = np.arange(count) - (np.cumsum(per_rank) - per_rank)[ordered]
    slot_of = np.empty(count, dtype=np.int64)
    slot_of[order] = ordered * width + position
    slots = np.full(nprocs * width, count)  # ``count`` indexes the padding
    slots[slot_of] = np.arange(count)
    lead = values.shape[:-1]
    padded = np.concatenate([values, np.zeros(lead + (1,))], axis=-1)
    sums = padded[..., slots].reshape(lead + (nprocs, width)).cumsum(axis=-1)
    return sums.reshape(lead + (-1,))[..., slot_of], sums[..., -1].copy()


class TransferPlan:
    """All messages of one descriptor on one machine layout."""

    def __init__(
        self, desc: CommDescriptor, layout: ProblemLayout, nprocs: int
    ) -> None:
        self.desc = desc
        self.nprocs = nprocs
        entry, receiver, sender, bounds, src = _strips(desc, layout)
        # one message per (sender, receiver) pair, in sorted pair order;
        # the stable sort keeps each pair's strips in (entry, subset) order
        key = sender * nprocs + receiver
        order = np.argsort(key, kind="stable")
        key = key[order]
        first = np.ones(len(key), dtype=bool)
        np.not_equal(key[1:], key[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        pairs = key[starts]
        self.senders = pairs // nprocs
        self.receivers = pairs % nprocs
        sizes = (bounds[:, 1] - bounds[:, 0] + 1).prod(axis=1)[order]
        self.nbytes = np.add.reduceat(sizes, starts) * _DOUBLE
        self.messages = MessageList(
            desc, self.senders, self.receivers, starts, order, entry, bounds, src
        )
        sends = np.zeros(nprocs, dtype=bool)
        sends[self.senders] = True
        recvs = np.zeros(nprocs, dtype=bool)
        recvs[self.receivers] = True
        self.participants = sends | recvs
        self.participant_count = int(self.participants.sum())
        self.receivers_unique = np.flatnonzero(recvs)
        self.senders_unique = np.flatnonzero(sends)
        self._prim_cache: Dict[Tuple, _PrimCache] = {}
        self._recv_sw_cache: Dict[Tuple, np.ndarray] = {}
        self._fixed_cache: Dict[Tuple[str, float], np.ndarray] = {}

    @property
    def message_count(self) -> int:
        return len(self.senders)

    def _sw(self, prim) -> np.ndarray:
        return np.fromiter(
            (prim.sw(int(b)) for b in self.nbytes),
            dtype=np.float64,
            count=len(self.nbytes),
        )

    def prim_vectors(self, prim, network) -> _PrimCache:
        """Cached per-primitive (cum_sw, total_by_rank, wire) vectors.

        Keyed by the *full* cost model (the ``PrimitiveCost`` value, not
        just its name) plus the wire parameters: plans are shared
        process-wide across machines by geometry, so two machine variants
        that differ only in a primitive-cost field (a parameter sweep)
        must not reuse each other's vectors.
        """
        key = (prim, network.latency, network.raw, network.bandwidth)
        cached = self._prim_cache.get(key)
        if cached is not None:
            return cached
        cum, total = running_sums(self._sw(prim), self.senders, self.nprocs)
        wire = np.fromiter(
            (
                network.transfer_time(int(b), raw_wire=prim.raw_wire)
                for b in self.nbytes
            ),
            dtype=np.float64,
            count=len(self.nbytes),
        )
        cached = _PrimCache(cum_sw=cum, total_sw_by_rank=total, wire=wire)
        self._prim_cache[key] = cached
        return cached

    def recv_sw_by_rank(self, prim) -> np.ndarray:
        """Per-rank total receive software cost under ``prim``
        (invariant per cost model — cached by the full ``PrimitiveCost``
        value, treat as read-only)."""
        out = self._recv_sw_cache.get(prim)
        if out is None:
            out = running_sums(self._sw(prim), self.receivers, self.nprocs)[1]
            self._recv_sw_cache[prim] = out
        return out

    def fixed_by_rank(self, role: str, fixed: float) -> np.ndarray:
        """Per-rank total of a fixed per-message cost over this plan's
        ``"recv"`` or ``"send"`` endpoints (cached, treat as read-only)."""
        key = (role, fixed)
        out = self._fixed_cache.get(key)
        if out is None:
            out = np.zeros(self.nprocs, dtype=np.float64)
            np.add.at(
                out, self.receivers if role == "recv" else self.senders, fixed
            )
            self._fixed_cache[key] = out
        return out


class MessageList(Sequence):
    """A plan's messages as ``Message``/``StripCopy`` objects, in sorted
    (sender, receiver) order with each message's copies in (entry,
    subset) order.  Only the numeric engine reads them, so they are
    built from the strip bounds on first access; ``len`` builds
    nothing."""

    def __init__(
        self, desc, senders, receivers, starts, order, entry, bounds, src
    ) -> None:
        self._count = len(senders)
        self._parts = (desc, senders, receivers, starts, order, entry, bounds, src)
        self._items: Optional[Tuple[Message, ...]] = None

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, index):
        return self._build()[index]

    def __iter__(self):
        return iter(self._build())

    def _build(self) -> Tuple[Message, ...]:
        if self._items is None:
            desc, senders, receivers, starts, order, entry, bounds, src = self._parts
            names = [desc.entries[i].array for i in entry[order].tolist()]
            boxes = [
                Region(f"<strip:{name}>", lo, hi)
                for name, (lo, hi) in zip(names, bounds[order].tolist())
            ]
            if src is None:
                copies = [StripCopy(name, box) for name, box in zip(names, boxes)]
            else:
                copies = [
                    StripCopy(name, box, Region(f"<wrapsrc:{name}>", lo, hi))
                    for name, box, (lo, hi) in zip(names, boxes, src[order].tolist())
                ]
            ends = starts[1:].tolist() + [len(copies)]
            self._items = tuple(
                Message(sender=s, receiver=r, copies=copies[a:b])
                for s, r, a, b in zip(
                    senders.tolist(), receivers.tolist(), starts.tolist(), ends
                )
            )
            self._parts = None
        return self._items


# Strip geometry works on bounds stacked as ``(..., 2, rank)`` with the
# highs negated, so that intersecting boxes — the max of the lows and
# the min of the highs — is one ``np.maximum``, and a box is empty where
# ``low + (-high) > 0`` in some dim.
_UNBOUNDED = np.iinfo(np.int64).min // 4


@lru_cache(maxsize=None)
def _strip_kinds(
    rank: int, dist_dims: Tuple[int, ...], signs: Tuple[int, ...]
) -> Tuple[np.ndarray, ...]:
    """The overflow strips of one receiver, one per non-empty subset of
    the active (distributed, shifted) dims in bitmask order.

    Returns ``(kind, bound, dim, step)``: the first three, each
    ``(strips, 2, rank)``, index a receiver's ``(3, 2, rank)`` stack of
    bound candidates (unbounded; past its block on the offset's side;
    inside its block); ``step`` is the mesh step from the receiver to
    each strip's owner, as a column of the neighbour table."""
    active = [d for d in dist_dims if signs[d] != 0]
    kinds, steps = [], []
    for bits in range(1, 1 << len(active)):
        subset = {d for i, d in enumerate(active) if bits & (1 << i)}
        low, high = [], []
        for d in range(rank):
            if d in subset:
                # the overflow strip on the offset's side
                low.append(1 if signs[d] > 0 else 0)
                high.append(0 if signs[d] > 0 else 1)
            elif d in dist_dims:
                low.append(2)
                high.append(2)
            else:
                low.append(0)
                high.append(0)
        kinds.append([low, high])
        step = [0, 0]
        for mesh_axis, d in enumerate(dist_dims):
            if d in subset:
                step[mesh_axis] = signs[d]
        steps.append((step[0] + 1) * 3 + step[1] + 1)
    kind = np.array(kinds, dtype=np.int64)
    bound, dim = np.indices(kind.shape)[1:]
    shared = (kind, bound, dim, np.array(steps))
    for array in shared:
        array.setflags(write=False)  # cached: every plan reads the same
    return shared


@lru_cache(maxsize=64)
def _neighbour_table(grid: ProcessorGrid) -> np.ndarray:
    """``(nprocs, 9)``: the rank at mesh step ``(dr, dc)`` from each
    rank, in column ``(dr + 1) * 3 + dc + 1``; -1 off the mesh."""
    steps = [(dr, dc) for dr in (-1, 0, 1) for dc in (-1, 0, 1)]
    table = np.full((grid.nprocs, len(steps)), -1, dtype=np.int64)
    for rank in grid.ranks():
        for column, step in enumerate(steps):
            neighbour = grid.neighbor(rank, step)
            if neighbour is not None:
                table[rank, column] = neighbour
    table.setflags(write=False)
    return table


def _strips(desc: CommDescriptor, layout: ProblemLayout):
    """Every strip of ``desc`` for every receiver at once, in (entry,
    receiver, subset) order: ``(entry, receiver, sender, bounds, src)``
    with ``(strips, 2, rank)`` bounds (lows, highs) and, for wrap
    transfers, the source bounds in the sender's coordinates (else
    None)."""
    entries = desc.entries
    domains = [layout.array_domains[e.array] for e in entries]
    rank = domains[0].rank if domains else 1
    offsets = desc.direction.offsets
    signs = tuple((o > 0) - (o < 0) for o in offsets)
    dist_dims = layout.distributed_dims(rank) if domains else ()
    if not any(signs[d] for d in dist_dims):
        none = np.zeros(0, dtype=np.int64)
        return none, none, none, none.reshape(0, 2, rank), None  # local shift
    own_lo, own_hi, split_lows = layout.owned_arrays(rank)
    kind, bound, dim, steps = _strip_kinds(rank, dist_dims, signs)

    # per receiver and strip, the bounds its block alone sets: the block
    # shifted by the offset, cut to past the block's edge on the
    # offset's side (overflow dims) or to inside the block (the other
    # distributed dims)
    candidates = np.empty((len(own_lo), 3, 2, rank), dtype=np.int64)
    candidates[:, 0] = _UNBOUNDED
    candidates[:, 1, 0] = own_hi + 1
    candidates[:, 1, 1] = 1 - own_lo
    candidates[:, 2, 0] = own_lo
    candidates[:, 2, 1] = -own_hi
    shift = np.array([offsets, [-o for o in offsets]], dtype=np.int64)
    limits = np.maximum(
        candidates[:, kind, bound, dim],
        (candidates[:, 2] + shift)[:, None],
    )
    # each entry's shifted use region clipped to every receiver's strips
    use = np.array(
        [
            [
                [lo + o for lo, o in zip(e.use_region.lows, offsets)],
                [-hi - o for hi, o in zip(e.use_region.highs, offsets)],
            ]
            for e in entries
        ],
        dtype=np.int64,
    )
    strips = np.maximum(limits, use[:, None, None])
    entry, receiver, subset = np.nonzero(
        ((strips[..., 0, :] + strips[..., 1, :]) <= 0).all(axis=-1)
    )
    bounds = strips[entry, receiver, subset]
    bounds[:, 1] *= -1  # back to (lows, highs)

    if desc.wrap:
        sender, src = _wrap_senders(
            entries, domains, layout, split_lows, entry, bounds
        )
        return entry, receiver, sender, bounds, src

    grid = layout.grid
    sender = _neighbour_table(grid)[receiver, steps[subset]]
    if (sender < 0).any():
        i = int(np.argmax(sender < 0))
        strip = Region(f"<strip:{entries[entry[i]].array}>", *bounds[i])
        raise RuntimeFault(
            f"transfer {desc.describe()}: strip {strip} for "
            f"rank {receiver[i]} has no owning neighbour — "
            "layout/semantic inconsistency"
        )
    return entry, receiver, sender, bounds, None


def _wrap_senders(entries, domains, layout, split_lows, entry, bounds):
    """Senders and source bounds of periodic strips: coordinates outside
    the domain fold back by one domain extent, and the owner of the
    folded box (found by its block along each mesh axis) sends it."""
    cls = layout.rank_class(domains[0].rank)
    dom_lo = np.array([dom.lows for dom in domains], dtype=np.int64)
    dom_hi = np.array([dom.highs for dom in domains], dtype=np.int64)
    partial = (dom_lo != cls.bounding.lows) | (dom_hi != cls.bounding.highs)
    dom_lo, dom_hi, partial = dom_lo[entry], dom_hi[entry], partial[entry]
    lows, highs = bounds[:, 0], bounds[:, 1]
    unspanned = partial & ((lows < dom_lo) | (highs > dom_hi))
    extent = dom_hi - dom_lo + 1
    shift = np.where(
        highs < dom_lo, extent, np.where(lows > dom_hi, -extent, 0)
    )
    src = bounds + shift[:, None, :]
    src_lo, src_hi = src[:, 0], src[:, 1]
    escaped = ((src_lo < dom_lo) | (src_hi > dom_hi)).any(axis=1)

    def owner(index):
        coords = [
            np.searchsorted(split_lows[i], index[:, d], side="right") - 1
            for i, d in enumerate(cls.distributed_dims)
        ]
        col = coords[1] if len(coords) > 1 else 0
        return coords[0] * layout.grid.cols + col

    sender = owner(src_lo)
    faulty = unspanned.any(axis=1) | escaped | (sender != owner(src_hi))
    if faulty.any():
        i = int(np.argmax(faulty))
        name = entries[entry[i]].array
        if unspanned[i].any():
            raise RuntimeFault(
                f"wrap transfer of {name!r}: its domain does not "
                "span the rank-class layout in dim "
                f"{int(np.argmax(unspanned[i])) + 1}; periodic "
                "arrays must cover the full distributed extent"
            )
        src_box = Region(f"<wrapsrc:{name}>", src_lo[i], src_hi[i])
        if escaped[i]:
            raise RuntimeFault(
                f"wrap transfer of {name!r}: folded strip {src_box} still "
                f"escapes the domain {domains[entry[i]]} — offset too "
                "large for the mesh"
            )
        raise RuntimeFault(
            f"wrap transfer of {name!r}: strip {src_box} spans "
            "processors — shift width exceeds a block"
        )
    return sender, src


class PlanCache:
    """Per-simulation cache of transfer plans keyed by descriptor id.

    Backed by a process-wide memo keyed by *content* (grid shape, array
    domains, descriptor geometry), so re-simulating the same program on
    the same layout — e.g. every cell of a study sweep, or a fast-path
    run next to its interpreted check — reuses the built plans instead of
    re-deriving the message lists.  A ``TransferPlan`` is pure metadata
    and safe to share within a process; the memo is bounded LRU.
    """

    # sized above one full paper study (646 distinct plans across the
    # 4 x 6 matrix at 64 ranks) so sweep cells reuse instead of thrash;
    # a plan holds index arrays and strip bounds (~14 KB at 64 ranks)
    # until a NUMERIC run builds its message objects
    _GLOBAL_MAX = 1024
    _global: "OrderedDict[Tuple, TransferPlan]" = OrderedDict()

    def __init__(self, layout: ProblemLayout, nprocs: int) -> None:
        self.layout = layout
        self.nprocs = nprocs
        self._plans: Dict[int, TransferPlan] = {}
        self._layout_key = (
            layout.grid.rows,
            layout.grid.cols,
            tuple(
                sorted(
                    (name, dom.lows, dom.highs)
                    for name, dom in layout.array_domains.items()
                )
            ),
        )

    def _desc_key(self, desc: CommDescriptor) -> Tuple:
        return (
            self._layout_key,
            self.nprocs,
            desc.id,
            desc.direction.offsets,
            desc.wrap,
            tuple(
                (e.array, e.use_region.lows, e.use_region.highs)
                for e in desc.entries
            ),
        )

    def plan(self, desc: CommDescriptor) -> TransferPlan:
        plan = self._plans.get(desc.id)
        if plan is None:
            key = self._desc_key(desc)
            memo = type(self)._global
            plan = memo.get(key)
            if plan is None:
                plan = TransferPlan(desc, self.layout, self.nprocs)
                memo[key] = plan
                if len(memo) > self._GLOBAL_MAX:
                    memo.popitem(last=False)
            else:
                memo.move_to_end(key)
            self._plans[desc.id] = plan
        return plan

    @classmethod
    def clear_global(cls) -> None:
        """Drop the process-wide plan memo (tests)."""
        cls._global.clear()
