"""Exactness goldens for the cycle-level machine.

The machine ticks one control path per processing vector and replays its data
effects on every PE of the PV (see :mod:`repro.core.machine`).  That must be
indistinguishable from ticking every PE on its own, so this module pins a
digest of everything a run leaves observable — outputs, cycle counts, run
statistics, the shared event counters and every PE's counters, registers,
FIFO and buffer statistics — over a grid of small layers, schedules and
array shapes.  The digest was captured from a machine that ticked every PE
of every PV on every cycle.
"""

from __future__ import annotations

import hashlib
from dataclasses import astuple

import numpy as np
import pytest

from repro.core.compiler import GanaxLayerExecutor
from repro.core.machine import GanaxMachine
from repro.errors import SimulationError
from repro.isa.program import MicroProgramBuilder
from repro.isa.uops import AddressGenerator, ConfigRegister, ExecuteOp, ExecuteUop
from repro.nn.functional import transposed_conv2d

PES_PER_PV = 4
SCHEDULES = ("blocked", "default", "hoisted", "raster", "colmajor@tile2", "unroll@u2")

#: (transposed, input size, kernel, stride, padding)
SHAPES = (
    (True, 4, 3, 2, 1),
    (True, 5, 4, 2, 2),
    (False, 6, 3, 1, 1),
    (False, 7, 3, 2, 0),
)

GOLDEN_DIGEST = "eae91192a2263627f7205ca9d6ccd57fa064de8d63dd1b3000fdb59981f435dc"


def _pe_state(pe):
    execute = pe.execute
    access = pe.access
    return (
        pe.cycles,
        execute.busy_cycles,
        execute.stall_cycles,
        execute.executed_uops,
        execute.accumulator,
        execute.repeat_register,
        execute.uop_fifo.total_pushes,
        execute.uop_fifo.total_pops,
        execute.uop_fifo.occupancy,
        sorted(access.drain_statistics().items()),
        [
            (access.generator(g).running, access.generator(g).addresses_generated)
            for g in AddressGenerator
        ],
        [
            (buffer.reads, buffer.writes)
            for buffer in (pe.input_buffer, pe.weight_buffer, pe.output_buffer)
        ],
    )


def _machine_state(machine, stats):
    return (
        machine.cycle,
        astuple(stats),
        sorted(machine.counters.as_dict().items()),
        [[_pe_state(pe) for pe in pv.pes] for pv in machine.pvs],
    )


def _grid():
    for transposed, size, kernel, stride, padding in SHAPES:
        for num_pvs in (2, 4):
            for schedule in SCHEDULES:
                modes = (True, False) if transposed and kernel <= PES_PER_PV else (True,)
                for skip_zeros in modes:
                    yield transposed, size, kernel, stride, padding, num_pvs, schedule, skip_zeros


def _digest(monkeypatch) -> str:
    records = []
    original_run = GanaxMachine.run

    def recording_run(self, *args, **kwargs):
        stats = original_run(self, *args, **kwargs)
        records.append(_machine_state(self, stats))
        return stats

    monkeypatch.setattr(GanaxMachine, "run", recording_run)
    digest = hashlib.sha256()
    rng = np.random.default_rng(2018)
    for point in _grid():
        transposed, size, kernel, stride, padding, num_pvs, schedule, skip_zeros = point
        x = rng.standard_normal((size, size))
        weight = rng.standard_normal((kernel, kernel))
        executor = GanaxLayerExecutor(
            num_pvs=num_pvs, pes_per_pv=PES_PER_PV, skip_zeros=skip_zeros, schedule=schedule
        )
        run = executor.run_transposed_conv if transposed else executor.run_conv
        records.clear()
        execution = run(x, weight, stride=stride, padding=padding)
        digest.update(repr(point).encode())
        digest.update(execution.output.tobytes())
        digest.update(repr((execution.cycles, execution.waves)).encode())
        digest.update(repr([astuple(s) for s in execution.statistics]).encode())
        digest.update(repr(records).encode())
    return digest.hexdigest()


def test_machine_digest_matches_per_pe_golden(monkeypatch):
    assert _digest(monkeypatch) == GOLDEN_DIGEST


def test_paper_running_example_cycles():
    """4x4 input, 5x5 filter, stride 2 on 2x4 PEs (paper Figures 2-5)."""
    rng = np.random.default_rng(2018)
    x = rng.standard_normal((4, 4))
    weight = rng.standard_normal((5, 5))
    execution = GanaxLayerExecutor(num_pvs=2, pes_per_pv=4).run_transposed_conv(
        x, weight, stride=2, padding=2
    )
    assert execution.cycles == 1_057
    reference = transposed_conv2d(x[None], weight[None, None], stride=2, padding=2)[0]
    np.testing.assert_allclose(execution.output, reference, atol=1e-9)


def test_sixteen_by_sixteen_tconv_cycles():
    """16x16 input, 4x4 filter, stride 2, padding 1 on 8x4 PEs."""
    rng = np.random.default_rng(7)
    x = rng.standard_normal((16, 16))
    weight = rng.standard_normal((4, 4))
    execution = GanaxLayerExecutor(num_pvs=8, pes_per_pv=4).run_transposed_conv(
        x, weight, stride=2, padding=1
    )
    assert execution.cycles == 19_976
    reference = transposed_conv2d(x[None], weight[None, None], stride=2, padding=1)[0]
    np.testing.assert_allclose(execution.output, reference, atol=1e-9)


def _single_mac_program(num_pvs: int):
    builder = MicroProgramBuilder(name="one-mac", num_pvs=num_pvs)
    mac = ExecuteUop(op=ExecuteOp.MAC)
    builder.preload_local_everywhere(mac)
    for pv in range(num_pvs):
        for generator in (AddressGenerator.INPUT, AddressGenerator.WEIGHT):
            builder.emit_access_cfg(pv, generator, ConfigRegister.END, 1)
            builder.emit_access_cfg(pv, generator, ConfigRegister.REPEAT, 1)
            builder.emit_access_start(pv, generator)
    builder.emit_simd(mac)
    return builder.build()


def _small_machine() -> GanaxMachine:
    return GanaxMachine(
        num_pvs=2, pes_per_pv=2, pe_buffer_words={"input": 8, "weight": 8, "output": 8}
    )


def test_stranded_addresses_fail_like_per_pe_ticking():
    """Addresses nothing will consume: the run gives up at ``max_cycles``."""
    builder = MicroProgramBuilder(name="stranded", num_pvs=2)
    builder.emit_access_cfg(0, AddressGenerator.INPUT, ConfigRegister.END, 1)
    builder.emit_access_cfg(0, AddressGenerator.INPUT, ConfigRegister.REPEAT, 1)
    builder.emit_access_start(0, AddressGenerator.INPUT)
    machine = _small_machine()
    machine.load_program(builder.build())
    with pytest.raises(SimulationError, match="deadlocked"):
        machine.run(max_cycles=200)
    assert machine.cycle == 200
    for pv in machine.pvs:
        for pe in pv.pes:
            assert (pe.cycles, pe.execute.stall_cycles) == (200, 200)
    assert machine.pv(0).pe(1).access.pending_addresses(AddressGenerator.INPUT) == 1


def test_diverged_pv_raises():
    machine = _small_machine()
    machine.load_program(_single_mac_program(2))
    # Drive one PE of PV 1 on its own: its repeat register now differs from
    # its neighbour's, which lockstep execution cannot represent.
    machine.pv(1).pe(0).set_repeat_register(3)
    with pytest.raises(SimulationError, match="PV 1"):
        machine.run()


def test_pv_methods_keep_pes_in_step():
    machine = _small_machine()
    for pv in range(2):
        for pe in range(2):
            machine.load_pe_operands(pv, pe, [float(pe + 1)], [2.0])
    machine.load_program(_single_mac_program(2))
    machine.pv(1).set_repeat_register(3)
    machine.run()
    for pv in machine.pvs:
        assert [pe.execute.accumulator for pe in pv.pes] == [2.0, 4.0]
        assert len({pe.cycles for pe in pv.pes}) == 1
