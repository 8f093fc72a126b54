"""Point-by-point reference builder for transfer plans.

This is the original receiver-by-receiver, subset-by-subset enumeration
of a descriptor's strips, one ``Region`` at a time.  The runtime builds
plans in closed form over whole-mesh arrays; this module is the oracle
the differential tests in ``test_plan_exactness.py`` hold it to.  It is
test-only: nothing under ``src/`` imports it.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.errors import RuntimeFault
from repro.ir.nodes import CommDescriptor
from repro.lang.regions import Region
from repro.runtime.layout import ProblemLayout
from repro.runtime.transfers import Message, StripCopy


def nonempty_subsets(dims: List[int]) -> List[Tuple[int, ...]]:
    out: List[Tuple[int, ...]] = []
    n = len(dims)
    for mask in range(1, 1 << n):
        out.append(tuple(dims[i] for i in range(n) if mask & (1 << i)))
    return out


def build_messages(
    desc: CommDescriptor, layout: ProblemLayout
) -> List[Message]:
    """Every message of ``desc`` on ``layout``, in sorted (sender,
    receiver) order; copies within a message in (entry, subset) order."""
    grid = layout.grid
    pair_copies: Dict[Tuple[int, int], List[StripCopy]] = {}

    for entry in desc.entries:
        domain = layout.array_domains[entry.array]
        rank = domain.rank
        dist_dims = list(layout.distributed_dims(rank))
        offsets = desc.direction.offsets
        active = [d for d in dist_dims if offsets[d] != 0]
        if not active:
            continue  # purely local shift: no messages

        for receiver in grid.ranks():
            owned_class = layout.owned(rank, receiver)
            box = entry.use_region.intersect(owned_class)
            if box.is_empty:
                continue
            needed = box.shifted(desc.direction)
            for subset in nonempty_subsets(active):
                lows, highs = list(needed.lows), list(needed.highs)
                ok = True
                for d in range(rank):
                    if d in subset:
                        # the overflow strip on the offset's side
                        if offsets[d] > 0:
                            lo = max(lows[d], owned_class.highs[d] + 1)
                            hi = highs[d]
                        else:
                            lo = lows[d]
                            hi = min(highs[d], owned_class.lows[d] - 1)
                    elif d in dist_dims:
                        lo = max(lows[d], owned_class.lows[d])
                        hi = min(highs[d], owned_class.highs[d])
                    else:
                        lo, hi = lows[d], highs[d]
                    if hi < lo:
                        ok = False
                        break
                    lows[d], highs[d] = lo, hi
                if not ok:
                    continue
                strip = Region(
                    f"<strip:{entry.array}>", tuple(lows), tuple(highs)
                )
                if desc.wrap:
                    sender, src = wrap_source(entry, strip, domain, layout)
                    pair_copies.setdefault((sender, receiver), []).append(
                        StripCopy(array=entry.array, box=strip, src_box=src)
                    )
                    continue
                step = mesh_step(rank, dist_dims, subset, offsets)
                sender = grid.neighbor(receiver, step)
                if sender is None:
                    raise RuntimeFault(
                        f"transfer {desc.describe()}: strip {strip} for "
                        f"rank {receiver} has no owning neighbour — "
                        "layout/semantic inconsistency"
                    )
                pair_copies.setdefault((sender, receiver), []).append(
                    StripCopy(array=entry.array, box=strip)
                )

    return [
        Message(sender=s, receiver=r, copies=copies)
        for (s, r), copies in sorted(pair_copies.items())
    ]


def wrap_source(entry, strip: Region, domain: Region, layout):
    """Source rank and source-coordinate box for a (possibly wrapped)
    periodic strip: coordinates outside the domain fold back by one
    domain extent, and the owner of the folded box sends it."""
    cls = layout.rank_class(domain.rank)
    lows, highs = list(strip.lows), list(strip.highs)
    for d in range(domain.rank):
        extent = domain.highs[d] - domain.lows[d] + 1
        if (
            cls.bounding.lows[d] != domain.lows[d]
            or cls.bounding.highs[d] != domain.highs[d]
        ) and (lows[d] < domain.lows[d] or highs[d] > domain.highs[d]):
            raise RuntimeFault(
                f"wrap transfer of {entry.array!r}: its domain does not "
                f"span the rank-class layout in dim {d + 1}; periodic "
                "arrays must cover the full distributed extent"
            )
        if highs[d] < domain.lows[d]:
            lows[d] += extent
            highs[d] += extent
        elif lows[d] > domain.highs[d]:
            lows[d] -= extent
            highs[d] -= extent
    src = Region(f"<wrapsrc:{entry.array}>", tuple(lows), tuple(highs))
    if not domain.contains(src):
        raise RuntimeFault(
            f"wrap transfer of {entry.array!r}: folded strip {src} still "
            f"escapes the domain {domain} — offset too large for the mesh"
        )
    sender = layout.owner_of(domain.rank, src.lows)
    sender_hi = layout.owner_of(domain.rank, src.highs)
    if sender != sender_hi:
        raise RuntimeFault(
            f"wrap transfer of {entry.array!r}: strip {src} spans "
            "processors — shift width exceeds a block"
        )
    return sender, src


def mesh_step(
    rank: int,
    dist_dims: List[int],
    subset: Tuple[int, ...],
    offsets: Tuple[int, ...],
) -> Tuple[int, int]:
    """Mesh offset of the neighbour owning the overflow strip for
    ``subset`` (receiver -> sender direction)."""
    step = [0, 0]
    for mesh_axis, d in enumerate(dist_dims):
        if d in subset:
            step[mesh_axis] = 1 if offsets[d] > 0 else -1
    if rank == 1:
        return (step[0], 0)
    return (step[0], step[1])
