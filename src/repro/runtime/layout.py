"""Block distribution of index space over the processor mesh.

All arrays are *trivially aligned*: element ``(i, j)`` of every array
lives on the same processor.  To guarantee this across arrays declared
over different (but same-rank) regions, the partition is computed once
per array rank from the bounding region of all declared domains of that
rank, and every array of that rank uses it.

Distribution convention (ZPL's, as the paper describes):

* rank-2 arrays: dim 0 over mesh rows, dim 1 over mesh columns;
* rank-3 arrays: dims 0 and 1 over the mesh, dim 2 local to each node;
* rank-1 arrays: dim 0 over mesh rows, resident on mesh column 0
  (processors in other columns own nothing and idle through rank-1
  statements — the owner-computes rule).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.errors import RuntimeFault
from repro.lang.regions import Region, bounding_region
from repro.runtime.grid import ProcessorGrid


def split_extent(low: int, high: int, parts: int) -> List[Tuple[int, int]]:
    """Split the inclusive range ``[low, high]`` into ``parts`` contiguous
    blocks whose sizes differ by at most one (larger blocks first).  Empty
    blocks (when ``parts`` exceeds the extent) are ``(lo, lo-1)`` pairs.
    """
    n = high - low + 1
    if n < 0:
        raise ValueError(f"bad extent [{low}..{high}]")
    base, rem = divmod(n, parts)
    out: List[Tuple[int, int]] = []
    cursor = low
    for i in range(parts):
        size = base + (1 if i < rem else 0)
        out.append((cursor, cursor + size - 1))
        cursor += size
    return out


@dataclass(frozen=True)
class RankClassLayout:
    """Partition of one array-rank class over the mesh."""

    rank: int
    bounding: Region
    #: per distributed dim: list of (low, high) per mesh coordinate
    dim_splits: Tuple[Tuple[Tuple[int, int], ...], ...]
    #: which array dims are distributed (0-based), in mesh-dim order
    distributed_dims: Tuple[int, ...]


class ProblemLayout:
    """Owner map for every array in a program on a given mesh."""

    def __init__(
        self, grid: ProcessorGrid, array_domains: Dict[str, Region]
    ) -> None:
        self.grid = grid
        self.array_domains = dict(array_domains)
        self._classes: Dict[int, RankClassLayout] = {}
        self._owned_arrays: Dict[int, Tuple[np.ndarray, ...]] = {}
        by_rank: Dict[int, List[Region]] = {}
        for region in array_domains.values():
            by_rank.setdefault(region.rank, []).append(region)
        for rank, regions in by_rank.items():
            self._classes[rank] = self._build_class(rank, regions)

    # ------------------------------------------------------------------
    def _build_class(self, rank: int, regions: List[Region]) -> RankClassLayout:
        bounding = bounding_region(f"<rank{rank}>", regions)
        assert bounding is not None
        if rank == 1:
            dist_dims: Tuple[int, ...] = (0,)
            mesh_sizes = (self.grid.rows,)
        else:
            dist_dims = (0, 1)
            mesh_sizes = (self.grid.rows, self.grid.cols)
        splits = tuple(
            tuple(
                split_extent(bounding.lows[d], bounding.highs[d], mesh_sizes[i])
            )
            for i, d in enumerate(dist_dims)
        )
        return RankClassLayout(
            rank=rank,
            bounding=bounding,
            dim_splits=splits,
            distributed_dims=dist_dims,
        )

    # ------------------------------------------------------------------
    def rank_class(self, array_rank: int) -> RankClassLayout:
        try:
            return self._classes[array_rank]
        except KeyError:
            raise RuntimeFault(
                f"no rank-{array_rank} arrays were declared; cannot lay out"
            ) from None

    def distributed_dims(self, array_rank: int) -> Tuple[int, ...]:
        return self.rank_class(array_rank).distributed_dims

    def owned(self, array_rank: int, proc: int) -> Region:
        """The block of the rank-class index space owned by ``proc``
        (empty region for idle processors)."""
        cls = self.rank_class(array_rank)
        row, col = self.grid.coords(proc)
        lows = list(cls.bounding.lows)
        highs = list(cls.bounding.highs)
        mesh_coords = (row, col)
        if array_rank == 1:
            if col != 0:
                # resident on mesh column 0 only
                return Region(f"<own{proc}>", (lows[0],), (lows[0] - 1,))
            lo, hi = cls.dim_splits[0][row]
            return Region(f"<own{proc}>", (lo,), (hi,))
        for i, d in enumerate(cls.distributed_dims):
            lo, hi = cls.dim_splits[i][mesh_coords[i]]
            lows[d], highs[d] = lo, hi
        return Region(f"<own{proc}>", tuple(lows), tuple(highs))

    def owned_arrays(
        self, array_rank: int
    ) -> Tuple[np.ndarray, np.ndarray, Tuple[np.ndarray, ...]]:
        """:meth:`owned` for every processor at once: ``(lows, highs)`` as
        ``(nprocs, rank)`` int64 arrays (row ``p`` is processor ``p``'s
        block), plus the low bound of each block along each mesh axis
        (cached per rank class; treat as read-only)."""
        cached = self._owned_arrays.get(array_rank)
        if cached is None:
            blocks = [self.owned(array_rank, p) for p in self.grid.ranks()]
            splits = self.rank_class(array_rank).dim_splits
            cached = (
                np.array([block.lows for block in blocks], dtype=np.int64),
                np.array([block.highs for block in blocks], dtype=np.int64),
                tuple(
                    np.array([lo for lo, _ in axis], dtype=np.int64)
                    for axis in splits
                ),
            )
            self._owned_arrays[array_rank] = cached
        return cached

    def owner_of(self, array_rank: int, index: Sequence[int]) -> int:
        """Processor owning a global index (for tests/diagnostics)."""
        cls = self.rank_class(array_rank)
        coords = [0, 0]
        for i, d in enumerate(cls.distributed_dims):
            pos = None
            for j, (lo, hi) in enumerate(cls.dim_splits[i]):
                if lo <= index[d] <= hi:
                    pos = j
                    break
            if pos is None:
                raise RuntimeFault(
                    f"index {tuple(index)} outside the rank-{array_rank} "
                    f"bounding region {cls.bounding}"
                )
            coords[i] = pos
        if array_rank == 1:
            return self.grid.rank_of(coords[0], 0)
        return self.grid.rank_of(coords[0], coords[1])

    def check_fluff_feasible(
        self, fluff: Dict[str, Tuple[int, ...]]
    ) -> None:
        """Every shift offset must fit within a single neighbouring block;
        otherwise a strip would span multiple processors and the
        nearest-neighbour transfer model breaks.  (The paper's benchmarks
        use unit offsets; this guards hand-written configurations.)"""
        for array, widths in fluff.items():
            domain = self.array_domains[array]
            cls = self.rank_class(domain.rank)
            for i, d in enumerate(cls.distributed_dims):
                width = widths[d]
                if width == 0:
                    continue
                for lo, hi in cls.dim_splits[i]:
                    size = hi - lo + 1
                    if 0 < size < width:
                        raise RuntimeFault(
                            f"array {array!r}: shift width {width} in dim "
                            f"{d} exceeds a block of size {size}; use a "
                            "smaller mesh or a larger problem"
                        )
