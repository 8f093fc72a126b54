"""Simulation options: the execution mode and the run-shaping knobs.

:class:`SimOptions` is the single options surface shared by
:func:`repro.simulate` and :func:`repro.simulate_many`.  Neither takes
``repeat_cap``, ``trace_rank`` or ``fast`` as bare keyword arguments;
``simulate`` also accepts the execution mode positionally.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Union

__all__ = ["ExecutionMode", "SimOptions"]


class ExecutionMode(enum.Enum):
    NUMERIC = "numeric"
    TIMING = "timing"


@dataclass(frozen=True)
class SimOptions:
    """How a simulation runs, independent of *what* runs.

    Attributes
    ----------
    mode:
        NUMERIC (data + time) or TIMING (time and counts only); a mode
        string (``"timing"``) coerces.
    repeat_cap:
        Override for every ``repeat`` loop's trip cap.
    trace_rank:
        Record the full event timeline of one processor (interpreted
        walk only; see :func:`repro.simulate`).
    fast:
        Compiled TIMING fast-path selection: ``None`` auto-selects,
        ``False`` forces the interpreted walk, ``True`` demands the
        compiled schedule.
    """

    mode: ExecutionMode = ExecutionMode.NUMERIC
    repeat_cap: Optional[int] = None
    trace_rank: Optional[int] = None
    fast: Optional[bool] = None

    def __post_init__(self) -> None:
        if not isinstance(self.mode, ExecutionMode):
            object.__setattr__(self, "mode", ExecutionMode(self.mode))

    @classmethod
    def timing(
        cls,
        *,
        repeat_cap: Optional[int] = None,
        trace_rank: Optional[int] = None,
        fast: Optional[bool] = None,
    ) -> "SimOptions":
        return cls(
            mode=ExecutionMode.TIMING,
            repeat_cap=repeat_cap,
            trace_rank=trace_rank,
            fast=fast,
        )

    @classmethod
    def numeric(
        cls,
        *,
        repeat_cap: Optional[int] = None,
        trace_rank: Optional[int] = None,
        fast: Optional[bool] = None,
    ) -> "SimOptions":
        return cls(
            mode=ExecutionMode.NUMERIC,
            repeat_cap=repeat_cap,
            trace_rank=trace_rank,
            fast=fast,
        )


ModeLike = Union[ExecutionMode, str]
