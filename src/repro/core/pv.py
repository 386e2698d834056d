"""Processing vector: a row of PEs sharing one local µop buffer.

A processing vector (PV) is the unit of MIMD-ness in GANAX: the PEs inside a
PV always execute the same µop (SIMD), while different PVs may execute
different µops selected by the per-PV index fields of a ``mimd.exe`` global
µop.  The PV also performs the horizontal accumulation of the partial-sum
rows its PEs produce, which is how an output row's value is completed.

Every control input reaches a PV as a whole: the global µops that
configure, start and stop generators, load the repeat register or deliver
execute µops each name a PV, never a PE, and the methods below that feed
the PEs do so for all of them.  So the control state (generators, FIFOs,
repeat logic, cycle counters) is per PV in effect, and only the data (each
PE's buffers and accumulator) is per PE.  The machine runs a PV in lockstep
on that basis (:meth:`enter_lockstep`): one control path, the first PE's,
ticks for the whole PV.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..config import ArchitectureConfig
from ..errors import SimulationError
from ..hw.counters import EventCounters
from ..isa.uops import ExecuteUop, MicroOp, RepeatUop
from .pe import ProcessingEngine
from .uop_buffers import LocalUopBuffer


class ProcessingVector:
    """A horizontal group of PEs plus its local µop buffer."""

    def __init__(
        self,
        pv_index: int,
        num_pes: int,
        config: Optional[ArchitectureConfig] = None,
        counters: Optional[EventCounters] = None,
        pe_buffer_words: Optional[dict] = None,
    ) -> None:
        if num_pes <= 0:
            raise SimulationError("a PV needs at least one PE")
        self._config = config or ArchitectureConfig.paper_default()
        self._pv_index = pv_index
        self._counters = counters if counters is not None else EventCounters()
        buffer_words = pe_buffer_words or {}
        self._pes: List[ProcessingEngine] = [
            ProcessingEngine(
                pv_index=pv_index,
                pe_index=i,
                config=self._config,
                counters=self._counters,
                input_words=buffer_words.get("input"),
                weight_words=buffer_words.get("weight"),
                output_words=buffer_words.get("output"),
            )
            for i in range(num_pes)
        ]
        self._local_buffer = LocalUopBuffer(
            entries=self._config.local_uop_entries,
            pv_index=pv_index,
            counters=self._counters,
        )
        self._accumulation_cycles = 0

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def pv_index(self) -> int:
        return self._pv_index

    @property
    def pes(self) -> List[ProcessingEngine]:
        return self._pes

    @property
    def num_pes(self) -> int:
        return len(self._pes)

    @property
    def local_buffer(self) -> LocalUopBuffer:
        return self._local_buffer

    @property
    def busy(self) -> bool:
        return any(pe.busy for pe in self._pes)

    @property
    def accumulation_cycles(self) -> int:
        return self._accumulation_cycles

    def pe(self, index: int) -> ProcessingEngine:
        if not (0 <= index < len(self._pes)):
            raise SimulationError(
                f"PV {self._pv_index}: PE index {index} out of range"
            )
        return self._pes[index]

    # ------------------------------------------------------------------
    # Control interface (drives every PE of the PV)
    # ------------------------------------------------------------------
    def preload_local_uops(self, uops: Sequence[MicroOp]) -> None:
        self._local_buffer.preload(uops)

    def broadcast_uop(self, uop: MicroOp) -> bool:
        """Broadcast an execute-group µop to the PEs (SIMD within the PV).

        Returns False — and enqueues nothing — when any µop FIFO is full, so
        the controller can retry next cycle (back-pressure).
        """
        if not isinstance(uop, (ExecuteUop, RepeatUop)):
            raise SimulationError(f"PV cannot broadcast {uop!r}")
        if any(pe.execute.uop_fifo.is_full for pe in self._pes):
            return False
        # A RepeatUop and its follower must land in the FIFO together, so the
        # caller dispatches them as separate global µops; FIFO depth >= 2
        # guarantees both fit eventually.
        for pe in self._pes:
            if not pe.enqueue_uop(uop):  # pragma: no cover - guarded above
                raise SimulationError("µop FIFO overflow despite capacity check")
        return True

    def dispatch_local(self, index: int) -> bool:
        """MIMD-SIMD dispatch: fetch local µop ``index`` and broadcast it."""
        return self.broadcast_uop(self._local_buffer.fetch(index))

    def set_repeat_register(self, value: int) -> None:
        for pe in self._pes:
            pe.set_repeat_register(value)

    # ------------------------------------------------------------------
    # Lockstep execution (driven by the machine)
    # ------------------------------------------------------------------
    def enter_lockstep(self) -> ProcessingEngine:
        """Make the first PE lead the PV; returns it.

        Until :meth:`leave_lockstep`, the machine drives and ticks only the
        lead: its control path stands for every PE and its data effects land
        on all of them.  Raises :class:`SimulationError` if the PEs' control
        states differ (a PE was driven on its own), because one control path
        could not reproduce them.
        """
        lead, *others = self._pes
        state = lead.save_control_state()
        for pe in others:
            if pe.save_control_state() != state:
                raise SimulationError(
                    f"PV {self._pv_index}: PE {pe.pe_index} has a different control "
                    "state from PE 0, so the PV cannot run in lockstep; drive "
                    "all PEs of a PV alike"
                )
        lead.lead(self._pes)
        return lead

    def leave_lockstep(self) -> None:
        """End lockstep: every PE takes over the lead's control state."""
        lead, *others = self._pes
        lead.lead([lead])
        state = lead.save_control_state()
        for pe in others:
            pe.load_control_state(state)

    # ------------------------------------------------------------------
    # Horizontal accumulation
    # ------------------------------------------------------------------
    def accumulate_rows(self, width: int, active_pes: Optional[int] = None) -> List[float]:
        """Sum the partial-sum rows of the (active) PEs element-wise.

        Models the horizontal accumulation chain of Figures 4-5: partial sums
        hop from PE to PE and are added along the way.  The latency charged is
        ``width + active_pes`` cycles (a pipelined chain of ``active_pes``
        adders over ``width`` elements) and each element crosses
        ``active_pes - 1`` NoC links.
        """
        if width <= 0:
            raise SimulationError("accumulation width must be positive")
        count = len(self._pes) if active_pes is None else active_pes
        if not (0 < count <= len(self._pes)):
            raise SimulationError(
                f"PV {self._pv_index}: cannot accumulate over {count} PEs"
            )
        rows = [pe.read_output_row(width) for pe in self._pes[:count]]
        total = [sum(values) for values in zip(*rows)]
        hops = (count - 1) * width
        self._counters.noc_transfers += hops
        self._counters.alu_ops += hops
        self._accumulation_cycles += width + count
        return total
