"""Cycle-level GANAX machine: PE array + global controller.

:class:`GanaxMachine` executes :class:`~repro.isa.program.MicroProgram`
objects on a (usually small) array of processing vectors.  It is used to

* validate the ISA and the decoupled access-execute microarchitecture
  end-to-end against the NumPy functional reference (tests and the ISA
  walkthrough example), and
* measure cycle counts of the GANAX dataflow versus the conventional dense
  dataflow on identical hardware for small layers (an ablation benchmark).

Full-model numbers in the experiments come from the analytical model
(:mod:`repro.core.performance`), mirroring how the paper's own evaluation uses
a simulator rather than RTL for whole networks.

Dispatch semantics
------------------
One global µop is dispatched per cycle, in program order:

* ``access.cfg`` writes a configuration register of one generator in every PE
  of the addressed PV; it stalls while that generator is still running so an
  in-flight pattern is never corrupted.
* ``access.start`` / ``access.stop`` control the addressed generator.
* ``mimd.ld`` writes the repeat register of every PE in the addressed PV.
* an execute-group µop (SIMD mode) is broadcast to every PE of every PV.
* ``mimd.exe`` (MIMD-SIMD mode) makes each PV fetch the µop selected by its
  4-bit index from its local buffer and broadcast it to its own PEs.

Broadcasts apply back-pressure: if any destination µop FIFO is full the
global µop retries on the next cycle.

Execution model
---------------
The model is defined as if every PE ticked on every cycle, after that
cycle's dispatch.  :meth:`GanaxMachine.run` computes exactly that result
with much less host work, in two ways.

*PV lockstep.*  Dispatch only ever addresses whole PVs, so all PEs of a PV
hold the same control state (generators, FIFOs, repeat logic, counters) and
differ only in their data (buffers, accumulator).  A run therefore gangs each
PV behind its first PE (:meth:`ProcessingVector.enter_lockstep`): dispatch
writes the lead's control state only, the lead ticks once per cycle for the
whole PV, and every data effect — MAC/MUL/ADD on each PE's own buffers and
accumulator, ``act`` and ``pool`` writes — is replayed on all PEs, with the
shared event counters scaled by the PE count.  When the run ends the other
PEs take over the lead's control state, so a run that returns leaves every
PE as per-PE ticking would have left it.  (A run that raises still leaves
each PV's PEs in step.)

*Sleep and wake.*  A PV whose lead has no running generator, an empty µop
FIFO and no pending repeat would only count a cycle and an execute stall per
tick.  Such a PV sleeps: it is not ticked until a dispatch gives it work
(``access.start`` of a generator with work, or a µop broadcast), and the
cycles it slept are then credited to its cycle and stall counters exactly.
The run ends when the global stream is exhausted and every PV sleeps; the
busy state is tracked as PVs fall asleep and wake, not rescanned per cycle.
If a sleeping PV still holds addresses nothing will consume, the program is
deadlocked, and the run fails as it would have at ``max_cycles``.

*Divergence.*  A run starts only if the PEs of each PV agree on their control
state.  A PE driven on its own (say, through
:meth:`ProcessingEngine.set_repeat_register`) makes the run raise
:class:`SimulationError` rather than be simulated wrongly.  The public PV
methods always drive all of a PV's PEs and keep them in step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from ..config import ArchitectureConfig
from ..errors import SimulationError
from ..hw.counters import EventCounters
from ..isa.program import MicroProgram
from ..isa.uops import (
    AccessCfg,
    AccessStart,
    AccessStop,
    ExecuteUop,
    MicroOp,
    MimdExecute,
    MimdLoad,
    RepeatUop,
)
from .pe import ProcessingEngine
from .pv import ProcessingVector
from .uop_buffers import GlobalUopBuffer


@dataclass(frozen=True)
class MachineRunStatistics:
    """Summary of one program execution on the cycle-level machine."""

    cycles: int
    dispatched_uops: int
    dispatch_stall_cycles: int
    executed_pe_uops: int
    pe_busy_cycles: int
    pe_stall_cycles: int

    @property
    def pe_occupancy(self) -> float:
        total = self.pe_busy_cycles + self.pe_stall_cycles
        if total == 0:
            return 0.0
        return self.pe_busy_cycles / total


class GanaxMachine:
    """A cycle-level model of the GANAX PE array and its global controller."""

    def __init__(
        self,
        num_pvs: int = 2,
        pes_per_pv: int = 4,
        config: Optional[ArchitectureConfig] = None,
        pe_buffer_words: Optional[Dict[str, int]] = None,
    ) -> None:
        if num_pvs <= 0 or pes_per_pv <= 0:
            raise SimulationError("machine dimensions must be positive")
        base = config or ArchitectureConfig.paper_default()
        self._config = base.with_updates(num_pvs=num_pvs, pes_per_pv=pes_per_pv)
        self._counters = EventCounters()
        self._pvs: List[ProcessingVector] = [
            ProcessingVector(
                pv_index=i,
                num_pes=pes_per_pv,
                config=self._config,
                counters=self._counters,
                pe_buffer_words=pe_buffer_words,
            )
            for i in range(num_pvs)
        ]
        self._global_buffer = GlobalUopBuffer(
            entries=self._config.global_uop_entries, counters=self._counters
        )
        self._cycle = 0
        self._dispatched = 0
        self._dispatch_stalls = 0
        # Lockstep run state (see "Execution model"): each PV's lead PE, the
        # awake leads, and the cycle each PV fell asleep (None while awake).
        self._leads: List[ProcessingEngine] = []
        self._awake: List[ProcessingEngine] = []
        self._asleep_since: List[Optional[int]] = []

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def config(self) -> ArchitectureConfig:
        return self._config

    @property
    def counters(self) -> EventCounters:
        return self._counters

    @property
    def pvs(self) -> List[ProcessingVector]:
        return self._pvs

    @property
    def cycle(self) -> int:
        return self._cycle

    def pv(self, index: int) -> ProcessingVector:
        if not (0 <= index < len(self._pvs)):
            raise SimulationError(f"PV index {index} out of range")
        return self._pvs[index]

    @property
    def busy(self) -> bool:
        return (not self._global_buffer.exhausted) or any(pv.busy for pv in self._pvs)

    # ------------------------------------------------------------------
    # Program loading
    # ------------------------------------------------------------------
    def load_program(self, program: MicroProgram) -> None:
        """Load local µop buffers and the global µop stream."""
        if program.num_pvs != len(self._pvs):
            raise SimulationError(
                f"program targets {program.num_pvs} PVs but the machine has "
                f"{len(self._pvs)}"
            )
        program.validate_against_buffers(self._config.local_uop_entries)
        for pv, uops in zip(self._pvs, program.local_uops):
            pv.preload_local_uops(uops)
        self._global_buffer.load_program(program.global_uops)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, max_cycles: int = 1_000_000) -> MachineRunStatistics:
        """Run until the program completes and the array drains."""
        start_cycle = self._cycle
        start_dispatched = self._dispatched
        start_stalls = self._dispatch_stalls
        self._leads = []
        try:
            for pv in self._pvs:
                self._leads.append(pv.enter_lockstep())
            self._run_lockstep(start_cycle, max_cycles)
        finally:
            for pv in self._pvs[: len(self._leads)]:
                pv.leave_lockstep()
            self._leads = []
        busy = sum(pe.execute.busy_cycles for pv in self._pvs for pe in pv.pes)
        stalls = sum(pe.execute.stall_cycles for pv in self._pvs for pe in pv.pes)
        executed = sum(pe.execute.executed_uops for pv in self._pvs for pe in pv.pes)
        return MachineRunStatistics(
            cycles=self._cycle - start_cycle,
            dispatched_uops=self._dispatched - start_dispatched,
            dispatch_stall_cycles=self._dispatch_stalls - start_stalls,
            executed_pe_uops=executed,
            pe_busy_cycles=busy,
            pe_stall_cycles=stalls,
        )

    def _run_lockstep(self, start_cycle: int, max_cycles: int) -> None:
        """Cycle the machine to completion with every PV ganged behind its lead."""
        leads = self._leads
        buffer = self._global_buffer
        limit = start_cycle + max_cycles
        self._asleep_since = [None if lead.has_work else self._cycle for lead in leads]
        self._awake = [lead for lead in leads if lead.has_work]
        try:
            while True:
                uop = buffer.peek()
                if uop is None and not self._awake:
                    break
                if self._cycle >= limit:
                    raise _deadlock(max_cycles)
                self._cycle += 1
                if uop is not None:
                    if self._try_dispatch(uop):
                        buffer.advance()
                        self._dispatched += 1
                    else:
                        self._dispatch_stalls += 1
                awake = self._awake
                for lead in awake[:]:  # a copy: leads fall asleep meanwhile
                    lead.tick()
                    if not lead.has_work:
                        awake.remove(lead)
                        self._asleep_since[lead.pv_index] = self._cycle
            if any(lead.busy for lead in leads):
                # Addresses wait in a FIFO and no µop is left to consume them:
                # per-PE ticking would idle up to the limit, then give up.
                self._cycle = limit
                raise _deadlock(max_cycles)
        finally:
            for lead, since in zip(leads, self._asleep_since):
                if since is not None:
                    lead.skip_idle(self._cycle - since)

    def _wake(self, lead: ProcessingEngine) -> None:
        """A dispatch gave ``lead``'s PV work: credit its sleep, tick it again."""
        since = self._asleep_since[lead.pv_index]
        if since is None or not lead.has_work:
            return
        # it sleeps through the cycles before this one; this one it ticks
        lead.skip_idle(self._cycle - 1 - since)
        self._asleep_since[lead.pv_index] = None
        self._awake.append(lead)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _lead(self, index: int) -> ProcessingEngine:
        if not (0 <= index < len(self._leads)):
            raise SimulationError(f"PV index {index} out of range")
        return self._leads[index]

    def _try_dispatch(self, uop: MicroOp) -> bool:
        if isinstance(uop, AccessCfg):
            lead = self._lead(uop.pv_index)
            if lead.generator_running(uop.generator):
                return False
            lead.apply_access_cfg(uop.generator, uop.register, uop.immediate)
            return True
        if isinstance(uop, AccessStart):
            lead = self._lead(uop.pv_index)
            if lead.generator_running(uop.generator):
                return False
            lead.start_generator(uop.generator)
            self._wake(lead)
            return True
        if isinstance(uop, AccessStop):
            self._lead(uop.pv_index).stop_generator(uop.generator)
            return True
        if isinstance(uop, MimdLoad):
            lead = self._lead(uop.pv_index)
            if uop.destination == "repeat":
                lead.set_repeat_register(uop.immediate)
                return True
            raise SimulationError(
                f"mimd.ld destination '{uop.destination}' is not modelled"
            )
        if isinstance(uop, (ExecuteUop, RepeatUop)):
            # SIMD mode: broadcast to every PE of every PV; all-or-nothing.
            if self._any_uop_fifo_full():
                return False
            self._enqueue([uop] * len(self._leads))
            return True
        if isinstance(uop, MimdExecute):
            # MIMD-SIMD mode: per-PV local fetch; all-or-nothing so the PVs
            # stay aligned with the global stream.
            if self._any_uop_fifo_full():
                return False
            self._enqueue(
                pv.local_buffer.fetch(index)
                for pv, index in zip(self._pvs, uop.local_indices)
            )
            return True
        raise SimulationError(f"cannot dispatch µop {uop!r}")

    def _any_uop_fifo_full(self) -> bool:
        return any(lead.execute.uop_fifo.is_full for lead in self._leads)

    def _enqueue(self, uops: Iterable[MicroOp]) -> None:
        """Give each PV in turn its µop (SIMD within the PV)."""
        for lead, uop in zip(self._leads, uops):
            lead.enqueue_uop(uop)
            self._wake(lead)

    # ------------------------------------------------------------------
    # Data-side helpers used by the layer executor
    # ------------------------------------------------------------------
    def load_pe_operands(
        self,
        pv_index: int,
        pe_index: int,
        input_row: Sequence[float],
        weight_row: Sequence[float],
    ) -> None:
        pe = self.pv(pv_index).pe(pe_index)
        pe.clear_output()
        pe.load_input_row(input_row)
        pe.load_weight_row(weight_row)

    def accumulate_pv(self, pv_index: int, width: int, active_pes: int) -> List[float]:
        return self.pv(pv_index).accumulate_rows(width, active_pes=active_pes)


def _deadlock(max_cycles: int) -> SimulationError:
    return SimulationError(
        f"machine did not finish within {max_cycles} cycles; "
        "the program is likely deadlocked"
    )
