"""Strided µindex generator (paper Figure 7b).

The access µ-engine of every GANAX PE contains one strided µindex generator
per operand stream (input, weight, output).  Five configuration registers
govern the generated pattern:

* ``Addr``   — the starting point of the counter within the range,
* ``Offset`` — a constant added to every generated value (the base address),
* ``Step``   — the increment applied by the modulo adder each cycle,
* ``End``    — the exclusive upper bound of the counting range, and
* ``Repeat`` — how many rounds (wrap-arounds) are generated before stopping.

Each cycle the generator emits ``Offset + current`` and advances ``current``
by ``Step`` through the modulo adder: when the sum reaches ``End`` it wraps by
subtracting ``End`` and the ``Repeat`` counter is decremented; when ``Repeat``
reaches zero the ``Stop`` signal is asserted and no further addresses are
produced.  After configuration the generator yields one address per cycle
without any further controller intervention, which is what lets GANAX reuse
tiny execute µops on millions of operands.

Two common configurations used by the layer compiler:

* sequential sweep of ``n`` addresses starting at ``base``:
  ``Addr=0, Offset=base, Step=1, End=n, Repeat=1``;
* the same constant address repeated ``n`` times (a stationary operand):
  ``Addr=0, Offset=base, Step=1, End=1, Repeat=n``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..errors import SimulationError
from ..isa.uops import ConfigRegister


@dataclass
class GeneratorConfig:
    """The five configuration registers of one strided µindex generator."""

    addr: int = 0
    offset: int = 0
    step: int = 1
    end: int = 1
    repeat: int = 0

    def validate(self) -> None:
        if self.step <= 0:
            raise SimulationError(f"index generator Step must be positive, got {self.step}")
        if self.end <= 0:
            raise SimulationError(f"index generator End must be positive, got {self.end}")
        if self.step > self.end:
            raise SimulationError(
                f"index generator Step ({self.step}) must not exceed End "
                f"({self.end}); the modulo adder wraps within [0, End)"
            )
        if self.repeat < 0:
            raise SimulationError(f"index generator Repeat must be >= 0, got {self.repeat}")
        if self.addr < 0 or self.offset < 0:
            raise SimulationError("index generator Addr/Offset must be >= 0")
        if self.addr >= self.end:
            raise SimulationError(
                f"index generator Addr ({self.addr}) must be < End ({self.end})"
            )

    def addresses_per_round(self) -> int:
        """Number of addresses emitted in one round of the counting range."""
        span = self.end - self.addr
        return (span + self.step - 1) // self.step

    def total_addresses(self) -> int:
        """Total addresses the configuration will emit before stopping.

        Each round starts where the modulo adder left off (``Addr`` for the
        first round, the wrapped remainder afterwards) and runs until the next
        wrap, so rounds can differ in length when ``Step`` does not divide
        ``End``.  The count is computed round by round with the same modulo
        arithmetic the hardware applies.
        """
        total = 0
        start = self.addr
        for _ in range(self.repeat):
            length = (self.end - start + self.step - 1) // self.step
            total += length
            start = start + length * self.step - self.end
        return total


class StridedIndexGenerator:
    """Cycle-level model of the strided µindex generator."""

    def __init__(self, name: str = "indexgen") -> None:
        self._name = name
        self._config = GeneratorConfig()
        self._current = 0
        self._repeats_left = 0
        self._running = False
        self._generated = 0

    # ------------------------------------------------------------------
    # Configuration interface (driven by access.cfg µops)
    # ------------------------------------------------------------------
    def write_register(self, register: ConfigRegister, value: int) -> None:
        """Write one configuration register (the access.cfg µop)."""
        if value < 0:
            raise SimulationError(f"{self._name}: register value must be >= 0")
        if register is ConfigRegister.ADDR:
            self._config.addr = value
        elif register is ConfigRegister.OFFSET:
            self._config.offset = value
        elif register is ConfigRegister.STEP:
            self._config.step = value
        elif register is ConfigRegister.END:
            self._config.end = value
        elif register is ConfigRegister.REPEAT:
            self._config.repeat = value
        else:  # pragma: no cover - enum is exhaustive
            raise SimulationError(f"unknown configuration register {register}")

    def configure(self, config: GeneratorConfig) -> None:
        """Load a full configuration at once (convenience for tests)."""
        self._config = GeneratorConfig(
            addr=config.addr,
            offset=config.offset,
            step=config.step,
            end=config.end,
            repeat=config.repeat,
        )

    def start(self) -> None:
        """The access.start µop: begin generating addresses."""
        self._config.validate()
        self._current = self._config.addr
        self._repeats_left = self._config.repeat
        self._running = self._repeats_left > 0

    def stop(self) -> None:
        """The access.stop µop: interrupt address generation."""
        self._running = False

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self._name

    @property
    def config(self) -> GeneratorConfig:
        return self._config

    @property
    def running(self) -> bool:
        """True while the Stop signal has not been asserted."""
        return self._running

    @property
    def addresses_generated(self) -> int:
        return self._generated

    def save_state(self) -> Tuple:
        """Registers, counter position and statistics as a restorable tuple."""
        c = self._config
        return (
            (c.addr, c.offset, c.step, c.end, c.repeat),
            self._current,
            self._repeats_left,
            self._running,
            self._generated,
        )

    def load_state(self, state: Tuple) -> None:
        """Restore what :meth:`save_state` returned (possibly another generator's)."""
        config, self._current, self._repeats_left, self._running, self._generated = state
        self._config = GeneratorConfig(*config)

    # ------------------------------------------------------------------
    # Cycle behaviour
    # ------------------------------------------------------------------
    def tick(self) -> Optional[int]:
        """Advance one cycle; returns the generated address or None if stopped."""
        if not self._running:
            return None
        address = self._config.offset + self._current
        self._generated += 1

        nxt = self._current + self._config.step
        if nxt < self._config.end:
            self._current = nxt
        else:
            # Modulo adder wrap: subtract End and decrement Repeat.
            self._current = nxt - self._config.end
            self._repeats_left -= 1
            if self._repeats_left <= 0:
                self._running = False
        return address

    def drain(self, limit: int = 1_000_000) -> List[int]:
        """Run the generator to completion and collect every address.

        Intended for tests and the compiler's static address-stream checks;
        ``limit`` guards against misconfigured infinite patterns.
        """
        addresses: List[int] = []
        while self._running:
            if len(addresses) >= limit:
                raise SimulationError(
                    f"{self._name}: drained more than {limit} addresses; "
                    "configuration is likely wrong"
                )
            value = self.tick()
            if value is None:
                break
            addresses.append(value)
        return addresses

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        c = self._config
        return (
            f"StridedIndexGenerator(name={self._name!r}, addr={c.addr}, "
            f"offset={c.offset}, step={c.step}, end={c.end}, repeat={c.repeat}, "
            f"running={self._running})"
        )
