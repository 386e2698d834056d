"""A GANAX processing engine: decoupled access and execute µ-engines.

Each PE (Figure 7a) owns:

* an :class:`~repro.core.access_engine.AccessEngine` with three strided
  µindex generators (input, weight, output) and their address FIFOs,
* an :class:`~repro.core.execute_engine.ExecuteEngine` with a µop FIFO, an
  ALU and an accumulator register, and
* three small data buffers: the input register file, the weight SRAM and the
  output (partial-sum) register file, sized per Table III.

The PE exposes a single :meth:`tick` that advances both µ-engines by one
cycle; they communicate only through the address FIFOs, so either engine can
run ahead of (or stall behind) the other — the decoupled access-execute
behaviour the paper relies on to amortise MIMD overheads.

Control and data
----------------
A PE's state splits in two.  *Data* is private to each PE: the three buffers
and the accumulator.  *Control* is everything else: the generators'
registers and positions, the address and µop FIFOs, the repeat register and
pending repeat, and the cycle, busy, stall and executed counters.  The global
controller only ever addresses whole processing vectors, so every PE of a PV
carries the same control state.  The machine exploits that: while it runs a
PV, the PV's first PE leads (:meth:`lead`) — its control path ticks once per
cycle for the whole PV and its data effects land on every PE — and the other
PEs take over its control state when the run ends (:meth:`load_control_state`).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from ..config import ArchitectureConfig
from ..errors import SimulationError
from ..hw.counters import EventCounters
from ..hw.sram import Scratchpad
from ..isa.uops import (
    AddressGenerator,
    ConfigRegister,
    ExecuteUop,
    MicroOp,
    RepeatUop,
)
from .access_engine import AccessEngine
from .execute_engine import ExecuteEngine


class ProcessingEngine:
    """One GANAX PE with decoupled access/execute µ-engines."""

    def __init__(
        self,
        pv_index: int,
        pe_index: int,
        config: Optional[ArchitectureConfig] = None,
        counters: Optional[EventCounters] = None,
        input_words: Optional[int] = None,
        weight_words: Optional[int] = None,
        output_words: Optional[int] = None,
    ) -> None:
        self._config = config or ArchitectureConfig.paper_default()
        self._pv_index = pv_index
        self._pe_index = pe_index
        self._counters = counters if counters is not None else EventCounters()
        name = f"pe[{pv_index}][{pe_index}]"

        self._input_buffer = Scratchpad(
            words=input_words or max(self._config.input_register_entries, 64),
            name=f"{name}.input",
            counters=self._counters,
            read_counter="register_file_reads",
            write_counter="register_file_writes",
        )
        self._weight_buffer = Scratchpad(
            words=weight_words or max(self._config.weight_sram_entries, 64),
            name=f"{name}.weight",
            counters=self._counters,
            read_counter="register_file_reads",
            write_counter="register_file_writes",
        )
        self._output_buffer = Scratchpad(
            words=output_words or max(self._config.partial_sum_register_entries, 64),
            name=f"{name}.output",
            counters=self._counters,
            read_counter="register_file_reads",
            write_counter="register_file_writes",
        )
        self._access = AccessEngine(
            fifo_depth=self._config.address_fifo_depth,
            counters=self._counters,
            name=f"{name}.access",
        )
        self._execute = ExecuteEngine(
            access=self._access,
            input_buffer=self._input_buffer,
            weight_buffer=self._weight_buffer,
            output_buffer=self._output_buffer,
            uop_fifo_depth=self._config.uop_fifo_depth,
            counters=self._counters,
            name=f"{name}.execute",
        )
        self._cycles = 0
        #: how many PEs this one's control path stands for (see :meth:`lead`)
        self._width = 1

    # ------------------------------------------------------------------
    # Identity and sub-components
    # ------------------------------------------------------------------
    @property
    def pv_index(self) -> int:
        return self._pv_index

    @property
    def pe_index(self) -> int:
        return self._pe_index

    @property
    def access(self) -> AccessEngine:
        return self._access

    @property
    def execute(self) -> ExecuteEngine:
        return self._execute

    @property
    def input_buffer(self) -> Scratchpad:
        return self._input_buffer

    @property
    def weight_buffer(self) -> Scratchpad:
        return self._weight_buffer

    @property
    def output_buffer(self) -> Scratchpad:
        return self._output_buffer

    @property
    def counters(self) -> EventCounters:
        return self._counters

    @property
    def cycles(self) -> int:
        return self._cycles

    @property
    def busy(self) -> bool:
        """True while either µ-engine has outstanding work."""
        return self._access.busy or self._execute.busy

    @property
    def has_work(self) -> bool:
        """True while a tick can change anything but the cycle and stall counts.

        False means no generator is running, the µop FIFO is empty and no
        repeat is pending; addresses may still sit in the address FIFOs.
        """
        return self._access.generating or self._execute.busy

    # ------------------------------------------------------------------
    # Control interface (driven by the global controller / PV)
    # ------------------------------------------------------------------
    def apply_access_cfg(
        self, generator: AddressGenerator, register: ConfigRegister, value: int
    ) -> None:
        self._access.write_register(generator, register, value)

    def start_generator(self, generator: AddressGenerator) -> None:
        self._access.start(generator)

    def stop_generator(self, generator: AddressGenerator) -> None:
        self._access.stop(generator)

    def generator_running(self, generator: AddressGenerator) -> bool:
        return self._access.generator(generator).running

    def set_repeat_register(self, value: int) -> None:
        self._execute.set_repeat_register(value)

    def enqueue_uop(self, uop: MicroOp) -> bool:
        """Push a dispatched execute-group µop; False when the FIFO is full."""
        if not isinstance(uop, (ExecuteUop, RepeatUop)):
            raise SimulationError(f"PE cannot execute {uop!r}")
        return self._execute.enqueue(uop)

    # ------------------------------------------------------------------
    # Data movement helpers (modelled as fills from the global buffer)
    # ------------------------------------------------------------------
    def load_input_row(self, values: Iterable[float], base: int = 0) -> None:
        values = list(values)
        self._input_buffer.load(values, base=base)
        self._count_fill(len(values))

    def load_weight_row(self, values: Iterable[float], base: int = 0) -> None:
        values = list(values)
        self._weight_buffer.load(values, base=base)
        self._count_fill(len(values))

    def read_output_row(self, count: int, base: int = 0) -> List[float]:
        return self._output_buffer.dump(base=base, count=count)

    def clear_output(self) -> None:
        self._output_buffer.clear()

    def _count_fill(self, words: int) -> None:
        """A buffer fill reads the global buffer and crosses the NoC once per word."""
        self._counters.global_buffer_reads += words
        self._counters.noc_transfers += words

    # ------------------------------------------------------------------
    # Lockstep support (driven by the machine through the PV)
    # ------------------------------------------------------------------
    def lead(self, pes: Sequence["ProcessingEngine"]) -> None:
        """Tick as the control path of ``pes`` (this PE first).

        From now on every data effect of :meth:`tick` is applied to the
        buffers and accumulator of each PE in ``pes``, and the shared event
        counters count each event once per PE.  The other PEs' control state
        is left untouched; copy this PE's over it with
        :meth:`load_control_state` when done.  ``lead([self])`` ends it.
        """
        self._execute.set_lanes([pe.execute for pe in pes])
        self._width = len(pes)

    def save_control_state(self) -> Tuple:
        """This PE's control state and counters (no data) as a tuple."""
        return (self._cycles, self._access.save_state(), self._execute.save_state())

    def load_control_state(self, state: Tuple) -> None:
        """Adopt a control state from :meth:`save_control_state`; data stays."""
        self._cycles, access_state, execute_state = state
        self._access.load_state(access_state)
        self._execute.load_state(execute_state)

    def skip_idle(self, cycles: int) -> None:
        """Account ``cycles`` ticks of a PE without work (see :attr:`has_work`).

        Such a tick only advances the cycle counter and records an execute
        stall, so skipping it and crediting both afterwards is exact.
        """
        self._cycles += cycles
        self._execute.credit_stall_cycles(cycles)

    # ------------------------------------------------------------------
    # Cycle behaviour
    # ------------------------------------------------------------------
    def tick(self) -> bool:
        """Advance both µ-engines one cycle; True if the execute engine worked."""
        self._cycles += 1
        produced = self._access.tick()
        if produced and self._width > 1:
            # the led PEs' generators produced the same addresses
            self._counters.index_generations += produced * (self._width - 1)
        return self._execute.tick()
