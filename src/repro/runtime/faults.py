"""Deterministic, seeded fault injection for schedule executors.

A :class:`FaultPlan` is a list of :class:`FaultSpec` entries, each
naming *where* a fault fires (barrier group — or exchange-stage
counter in the distributed simulator — plus an optional task/rank
index) and *how often* (``max_hits``; 1 = transient, larger values
model persistent failures).  Executors consult the plan at
well-defined probe points:

* :meth:`FaultPlan.crash_fault` — before running a task's actions;
  a hit raises :class:`~repro.runtime.errors.InjectedFault`;
* :meth:`FaultPlan.stall_fault` — before running a task; a hit makes
  the worker sleep ``stall_s`` seconds (tripping any policy deadline);
* :meth:`FaultPlan.corrupt_fault` — after a task's actions; a hit
  poisons the task's written regions with NaN (silent data
  corruption — only the group-level guard sweep can see it);
* :meth:`FaultPlan.exchange_fault` — per source rank at each
  distributed stage exchange; ``drop`` skips the boundary-band copy,
  ``garble`` delivers NaN instead of the authoritative values.

Hit bookkeeping is thread-safe (tasks of one barrier group probe the
plan concurrently) and *deterministic*: given the same plan, the same
faults fire at the same probe points in every run, which is what makes
"recovered run is bit-identical to fault-free run" a testable
property.  :meth:`FaultPlan.reset` re-arms the plan so one instance
can drive both runs of such a comparison.
"""

from __future__ import annotations

import re
import threading
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.runtime.errors import InjectedFault

#: Fault kinds understood by the shared-memory executors.
TASK_KINDS = ("crash", "corrupt", "stall")
#: Fault kinds understood by the distributed simulator's exchange.
EXCHANGE_KINDS = ("drop", "garble")
ALL_KINDS = TASK_KINDS + EXCHANGE_KINDS

_SPEC_RE = re.compile(
    r"^(crash|corrupt|stall|drop|garble)"
    r"@(\d+)(?:/(\d+))?(?:x(\d+))?$"
)


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault.

    ``group`` is the barrier-group index (shared-memory executors) or
    the global exchange-stage counter (distributed simulator).
    ``task`` is the task index within the group — or the *source rank*
    for exchange faults — with ``None`` matching any.  ``max_hits``
    bounds how many times the fault fires before burning out: 1 is a
    transient fault (a retry succeeds), a large value models a
    persistent failure.
    """

    kind: str
    group: int
    task: Optional[int] = None
    max_hits: int = 1
    stall_s: float = 0.05

    def __post_init__(self) -> None:
        if self.kind not in ALL_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {ALL_KINDS}"
            )
        if self.group < 0:
            raise ValueError(f"fault group must be >= 0, got {self.group}")
        if self.max_hits < 1:
            raise ValueError(f"max_hits must be >= 1, got {self.max_hits}")

    def describe(self) -> str:
        where = f"@{self.group}" + ("" if self.task is None else f"/{self.task}")
        hits = "" if self.max_hits == 1 else f"x{self.max_hits}"
        return f"{self.kind}{where}{hits}"


@dataclass
class FaultHit:
    """Log entry: one fault that actually fired."""

    kind: str
    group: int
    task: Optional[int]
    hit_number: int


class FaultPlan:
    """A deterministic set of planned faults plus hit bookkeeping."""

    def __init__(self, faults: Iterable[FaultSpec] = ()):
        self.faults: List[FaultSpec] = list(faults)
        self._hits = [0] * len(self.faults)
        self._lock = threading.Lock()
        self.log: List[FaultHit] = []

    # -- construction ------------------------------------------------

    @classmethod
    def parse(cls, specs: Sequence[str]) -> "FaultPlan":
        """Build a plan from CLI-style strings.

        Grammar: ``kind@group[/task][xN]`` with kind one of
        ``crash|corrupt|stall`` (shared-memory executors) or
        ``drop|garble`` (distributed simulator — ``group`` is the
        global stage counter); ``/task`` selects a task (or source
        rank) index, ``xN`` sets ``max_hits`` (default 1).  Examples:
        ``crash@2``, ``corrupt@0/3``, ``drop@1x999``.
        """
        out = []
        for s in specs:
            m = _SPEC_RE.match(s.strip())
            if not m:
                raise ValueError(
                    f"bad fault spec {s!r}; expected kind@group[/task][xN] "
                    f"with kind in {ALL_KINDS}"
                )
            kind, group, task, hits = m.groups()
            out.append(FaultSpec(
                kind=kind,
                group=int(group),
                task=None if task is None else int(task),
                max_hits=1 if hits is None else int(hits),
            ))
        return cls(out)

    @classmethod
    def random(
        cls,
        num_groups: int,
        rate: float = 0.1,
        seed: int = 0,
        kinds: Sequence[str] = ("crash", "corrupt"),
        max_task: int = 0,
        stall_s: float = 0.02,
    ) -> "FaultPlan":
        """Sample transient faults with ``rate`` per barrier group.

        Deterministic in ``seed``: the property-style tests sweep seeds
        and assert recovery to bit-identical results for each.
        ``max_task`` bounds the sampled task index (0 pins task 0 —
        always present in non-empty groups).
        """
        rng = np.random.default_rng(seed)
        faults = []
        for g in range(num_groups):
            if rng.random() < rate:
                kind = str(rng.choice(list(kinds)))
                task = int(rng.integers(0, max_task + 1))
                faults.append(FaultSpec(kind=kind, group=g, task=task,
                                        stall_s=stall_s))
        return cls(faults)

    # -- bookkeeping -------------------------------------------------

    def reset(self) -> None:
        """Re-arm every fault (clears hit counters and the log)."""
        with self._lock:
            self._hits = [0] * len(self.faults)
            self.log = []

    @property
    def total_hits(self) -> int:
        with self._lock:
            return sum(self._hits)

    def hits_of_kind(self, kind: str) -> int:
        with self._lock:
            return sum(1 for h in self.log if h.kind == kind)

    def _fire(self, kinds: Tuple[str, ...], group: int,
              task: Optional[int]) -> Optional[FaultSpec]:
        """Consume and return the first armed matching fault, if any."""
        with self._lock:
            for i, f in enumerate(self.faults):
                if f.kind not in kinds or f.group != group:
                    continue
                if f.task is not None and task is not None and f.task != task:
                    continue
                if self._hits[i] >= f.max_hits:
                    continue
                self._hits[i] += 1
                self.log.append(FaultHit(f.kind, group, task, self._hits[i]))
                return f
        return None

    # -- probe points ------------------------------------------------

    def crash_fault(self, group: int, task: int) -> Optional[FaultSpec]:
        return self._fire(("crash",), group, task)

    def stall_fault(self, group: int, task: int) -> Optional[FaultSpec]:
        return self._fire(("stall",), group, task)

    def corrupt_fault(self, group: int, task: int) -> Optional[FaultSpec]:
        return self._fire(("corrupt",), group, task)

    def exchange_fault(self, stage: int, src: int) -> Optional[FaultSpec]:
        return self._fire(("drop", "garble"), stage, src)

    def raise_if_crash(self, group: int, task: int) -> None:
        """Convenience probe: raise :class:`InjectedFault` on a hit."""
        f = self.crash_fault(group, task)
        if f is not None:
            raise InjectedFault("crash", group, task)

    def describe(self) -> str:
        if not self.faults:
            return "no faults"
        return ", ".join(f.describe() for f in self.faults)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"FaultPlan({self.describe()})"


def poison_task_output(grid, task) -> None:
    """Overwrite a task's written regions with NaN (silent corruption).

    Models a worker returning garbage: every point the task wrote — at
    every time level it advanced, in every field of a staged system —
    is replaced with NaN in the corresponding ping-pong buffer.  Integer
    grids cannot represent NaN; the task body treats ``corrupt`` as
    ``crash`` for those (see :func:`repro.runtime.threadpool._run_task`).
    """
    for a in task.actions:
        dst = grid.at(a.t + 1)
        # the region is spatial: a staged buffer's field axis leads
        idx = (Ellipsis,) + tuple(
            slice(lo + h, hi + h)
            for (lo, hi), h in zip(a.region, grid.spec.halo))
        dst[idx] = np.nan
