"""The benchmark's four workloads.

Each workload is a closed loop with one client: ``run.py`` calls
:meth:`Workload.prepare` (input generation, untimed), :meth:`Workload.op`
(timed) and :meth:`Workload.check` (untimed) in turn, and only then starts the
next op.  ``check`` raises :class:`CheckFailure` when the op's output is wrong
and otherwise returns the work the op did, as :class:`Work`.

The workloads call only the public ``repro`` API, through module attributes
so that the traced run's wrappers (see :mod:`tracing`) see every call.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

import numpy as np

import repro.core.compiler as compiler_module
import repro.staticcheck as staticcheck_module
from repro.accelerators import accelerator_names
from repro.analysis.metrics import geometric_mean
from repro.analysis.serialization import canonical_json, gan_result_rows
from repro.core.compiler import GanaxLayerExecutor
from repro.experiments.paper_data import HEADLINE_ENERGY_REDUCTION, HEADLINE_SPEEDUP
from repro.nn import functional
from repro.nn.layers import ConvLayer, TransposedConvLayer
from repro.nn.network import LayerBinding
from repro.nn.shapes import FeatureMapShape
from repro.runner import SimulationRunner, configure_layer_memo
from repro.session import Session

import goldens
from tracing import Tracer, serial_backend_class

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: Scratch space for the ``paper-cli`` ops' files and the traced run's spans.
OUT_DIR = os.path.join(HERE, "out")

#: The paper's two accelerators; the energy split of each is reported.
PAPER_PAIR = ("eyeriss", "ganax")
ENERGY_COMPONENTS = ("pe", "rf", "noc", "gbuf", "dram")


class CheckFailure(Exception):
    """An op produced a wrong output."""


@dataclass
class Work:
    """What one op produced: layer results, simulated cycles and µops.

    ``uop_seconds`` / ``cycle_seconds`` are the host time the µop and cycle
    rates divide by when it is narrower than the whole op
    (``compile-verify`` times its compile+verify and execute phases).
    """

    layers: int
    sim_cycles: int
    uops: int
    uop_seconds: Optional[float] = None
    cycle_seconds: Optional[float] = None


def analytic_work(results) -> Work:
    """Layer results, simulated cycles and modeled µop fetches of GAN results."""
    layers = cycles = uops = 0
    for result in results:
        for network in (result.generator, result.discriminator):
            if network is None:
                continue
            layers += len(network.layer_results)
            cycles += network.cycles
            uops += network.counters.uop_fetches
    return Work(layers=layers, sim_cycles=cycles, uops=uops)


def _all_results(comparisons) -> List[Any]:
    return [r for multi in comparisons.values() for r in multi.results.values()]


class PaperReference:
    """The six paper GANs on every accelerator, computed once at set-up.

    Gives the simulated model metrics (``model.*``) and the fidelity of the
    generator speedup and energy reduction against the paper's stated values.
    Deterministic: every workload reports the same values.
    """

    def __init__(self) -> None:
        session = Session(accelerators=accelerator_names(), runner=SimulationRunner())
        self.comparisons = session.compare()
        self.work = analytic_work(_all_results(self.comparisons))
        self.summaries = {
            name: multi.summary() for name, multi in self.comparisons.items()
        }

    def fidelity(self) -> Dict[str, float]:
        return fidelity_from_summaries(self.summaries)

    def model_metrics(self) -> Dict[str, float]:
        metrics: Dict[str, float] = {}
        for accelerator in PAPER_PAIR:
            generators = [
                multi.results[accelerator].generator
                for multi in self.comparisons.values()
            ]
            energy = {c: 0.0 for c in ENERGY_COMPONENTS}
            for network in generators:
                for component, value in network.energy.as_dict().items():
                    if component in energy:
                        energy[component] += value
            total = sum(network.energy_pj for network in generators)
            metrics[f"model.{accelerator}.gen_cycles"] = sum(n.cycles for n in generators)
            metrics[f"model.{accelerator}.gen_energy_pj"] = total
            for component in ENERGY_COMPONENTS:
                metrics[f"model.{accelerator}.energy_frac.{component}"] = (
                    energy[component] / total
                )
            metrics[f"model.{accelerator}.pe_utilization"] = sum(
                n.pe_utilization for n in generators
            ) / len(generators)
        ganax = [m.results["ganax"].generator for m in self.comparisons.values()]
        metrics["model.consequential_mac_frac"] = sum(
            n.macs_consequential / n.macs_total for n in ganax
        ) / len(ganax)
        return metrics


def fidelity_from_summaries(summaries) -> Dict[str, float]:
    """|geomean / paper − 1| in percent, for GANAX speedup and energy reduction.

    Only the paper's text-stated geomeans (3.6x and 3.1x) are used, not values
    read off its bar charts.
    """
    speedup = geometric_mean([s["ganax"]["speedup"] for s in summaries.values()])
    energy = geometric_mean([s["ganax"]["energy_reduction"] for s in summaries.values()])
    return {
        "speedup_err_pct": 100.0 * abs(speedup / HEADLINE_SPEEDUP - 1.0),
        "energy_err_pct": 100.0 * abs(energy / HEADLINE_ENERGY_REDUCTION - 1.0),
    }


class Workload:
    """Base class: set-up, then prepare/op/check per op."""

    name = ""
    #: Whether ops run in this process (``paper-cli`` runs them in a child).
    in_process = True

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.reference: Optional[PaperReference] = None

    def setup(self) -> None:
        self.reference = PaperReference()

    def prepare(self) -> Any:
        return None

    def op(self, item: Any, tracer: Optional[Tracer]) -> Any:
        raise NotImplementedError

    def check(self, item: Any, output: Any, tracer: Optional[Tracer]) -> Work:
        raise NotImplementedError

    def corrupt(self) -> None:
        """Perturb one expected value, so the next op must fail its check."""
        raise NotImplementedError

    def fidelity(self) -> Dict[str, float]:
        return self.reference.fidelity()

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# paper-cli
# ----------------------------------------------------------------------
class PaperCli(Workload):
    """``compare --json`` over the six paper GANs x every accelerator, in a fresh interpreter."""

    name = "paper-cli"
    in_process = False

    def setup(self) -> None:
        super().setup()
        os.makedirs(OUT_DIR, exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix="paper-cli-", dir=OUT_DIR)
        self.env = dict(os.environ)
        src = os.path.join(ROOT, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        self.expected = goldens.expected_pairs()
        self.child_rss_mb = 0.0
        self.imports: List[Dict[str, float]] = []
        self.last_fidelity: Optional[Dict[str, float]] = None

    def op(self, item, tracer):
        report = os.path.join(self.tmp, "report.json")
        output = os.path.join(self.tmp, "compare.json")
        for path in (report, output):
            if os.path.exists(path):
                os.unlink(path)
        return subprocess.run(
            [sys.executable, os.path.join(HERE, "cli_op.py"), report, output,
             "1" if tracer is not None else "0"],
            cwd=ROOT,
            env=self.env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            timeout=120,
            check=False,
        )

    def check(self, item, proc, tracer):
        if proc.returncode != 0:
            raise CheckFailure(f"compare exited {proc.returncode}: {proc.stderr.decode()[-500:]}")
        with open(os.path.join(self.tmp, "report.json"), encoding="utf-8") as handle:
            report = json.load(handle)
        with open(os.path.join(self.tmp, "compare.json"), encoding="utf-8") as handle:
            payload = json.load(handle)["compare"]
        self.child_rss_mb = max(self.child_rss_mb, report["peak_rss_mb"])
        self.imports.append(report)
        if tracer is not None and report["trace"] is not None:
            tracer.merge(report["trace"], tracer.op_id)
        if b"N-way accelerator comparison" not in proc.stdout:
            raise CheckFailure("compare printed no comparison table")
        models = payload["models"]
        for accelerator, pairs in self.expected.items():
            for model, (speedup, energy) in pairs.items():
                row = models[model][accelerator]
                for label, got, want in (
                    ("speedup", row["speedup"], speedup),
                    ("energy reduction", row["energy_reduction"], energy),
                ):
                    if abs(got - want) > goldens.RELATIVE_TOLERANCE * abs(want):
                        raise CheckFailure(
                            f"{model}/{accelerator} {label} {got!r} != golden {want!r}"
                        )
        if models != self.reference.summaries:
            raise CheckFailure("compare JSON differs from the in-process comparison")
        self.last_fidelity = fidelity_from_summaries(models)
        return self.reference.work

    def corrupt(self) -> None:
        speedup, energy = self.expected["ganax"]["DCGAN"]
        self.expected["ganax"]["DCGAN"] = (speedup * (1 + 1e-9), energy)

    def fidelity(self) -> Dict[str, float]:
        return self.last_fidelity or super().fidelity()

    def peak_rss_mb(self) -> float:
        return self.child_rss_mb

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)


# ----------------------------------------------------------------------
# dse-search
# ----------------------------------------------------------------------
class DseSearch(Workload):
    """Exhaustive ``Session.explore()`` over num_pvs x pes_per_pv, cold runner and memo."""

    name = "dse-search"
    FIELDS = ("num_pvs", "pes_per_pv")

    def setup(self) -> None:
        super().setup()
        # The warm-up op records the results its jobs produce, which fixes
        # the work every later op does (they are checked to be identical).
        results: List[Any] = []

        def collect(event) -> None:
            if event.kind == "completed" and event.result is not None:
                results.append(event.result)

        exploration = self._explore(None, collect)
        self.digest = self._digest(exploration)
        self.work = analytic_work(results)

    def _explore(self, tracer, listener=None):
        configure_layer_memo()
        runner = SimulationRunner(backend=serial_backend_class(tracer)())
        if listener is not None:
            runner.subscribe(listener)
        session = Session(accelerators=PAPER_PAIR, runner=runner)
        return session.explore(fields=self.FIELDS)

    @staticmethod
    def _digest(exploration) -> str:
        return hashlib.sha256(canonical_json(exploration.summary()).encode()).hexdigest()

    def op(self, item, tracer):
        return self._explore(tracer)

    def check(self, item, exploration, tracer):
        if self._digest(exploration) != self.digest:
            raise CheckFailure("frontier digest differs from the first op's")
        return self.work

    def corrupt(self) -> None:
        self.digest = "0" * 64


# ----------------------------------------------------------------------
# family-sweep
# ----------------------------------------------------------------------
class FamilySweep(Workload):
    """``Session.compare`` of seed-drawn family variants over a warm layer memo."""

    name = "family-sweep"
    SYNTHETIC = 8
    DCGAN = 4

    def setup(self) -> None:
        super().setup()
        rng = random.Random(self.seed)
        latents = rng.sample(range(101, 1000), self.SYNTHETIC + self.DCGAN)
        self.variants = [
            f"synthetic@d12c256l{latent}" for latent in latents[: self.SYNTHETIC]
        ] + [f"dcgan@64x64,latent{latent}" for latent in latents[self.SYNTHETIC:]]
        # Memo-disabled reference, then a fresh memo the warm-up op fills.
        configure_layer_memo(enabled=False)
        self.expected = self._serialize(self._compare(None))
        configure_layer_memo()

    def _compare(self, tracer):
        runner = SimulationRunner(backend=serial_backend_class(tracer)())
        session = Session(accelerators=accelerator_names(), runner=runner)
        return session.compare(self.variants)

    @staticmethod
    def _serialize(comparisons) -> bytes:
        return canonical_json(
            {
                name: {acc: gan_result_rows(r) for acc, r in multi.results.items()}
                for name, multi in comparisons.items()
            }
        ).encode()

    def op(self, item, tracer):
        return self._compare(tracer)

    def check(self, item, comparisons, tracer):
        if self._serialize(comparisons) != self.expected:
            raise CheckFailure("memo-warm results differ from the memo-disabled reference")
        return analytic_work(_all_results(comparisons))

    def corrupt(self) -> None:
        self.expected = self.expected[:-2] + b"0" + self.expected[-1:]


# ----------------------------------------------------------------------
# compile-verify
# ----------------------------------------------------------------------
@dataclass
class LayerDraw:
    transposed: bool
    size: int
    kernel: int
    stride: int
    padding: int
    num_pvs: int
    schedule: str
    x: np.ndarray
    weight: np.ndarray

    def binding(self) -> LayerBinding:
        cls = TransposedConvLayer if self.transposed else ConvLayer
        layer = cls(
            name="bench",
            out_channels=1,
            kernel=(self.kernel, self.kernel),
            stride=self.stride,
            padding=self.padding,
        )
        shape = FeatureMapShape.image(1, self.size, self.size)
        return LayerBinding(
            index=0, layer=layer, input_shape=shape, output_shape=layer.output_shape(shape)
        )

    def reference(self) -> np.ndarray:
        fn = functional.transposed_conv2d if self.transposed else functional.conv2d
        return fn(
            self.x[None], self.weight[None, None], stride=self.stride, padding=self.padding
        )[0]


ALL_BUT_HOISTED = ("blocked", "default", "raster", "colmajor@tile2", "unroll@u2")
NO_HOISTED_OR_UNROLL = ALL_BUT_HOISTED[:4]
HOISTED = ("hoisted",)

#: (transposed, input size, kernel, stride, padding, num_pvs, schedules): every
#: point of the executor grid — tconv (size 4-6, K 3-5, stride 2, padding
#: 1-2) and conv (size 6-10, K 3-4, stride 1-2, padding 0-1) on 2 or 4 PVs
#: of 4 PEs, under each registered schedule plus colmajor@tile2 and
#: unroll@u2 — whose compiled program had 700-1,400 µops when this table was
#: made.  Ops then carry similar work, so the op-time median is steady from
#: seed to seed.  The table is fixed so that every commit gets the same inputs.
LAYER_TABLE = (
    (True, 4, 3, 2, 1, 2, ALL_BUT_HOISTED),
    (True, 4, 3, 2, 1, 4, ALL_BUT_HOISTED),
    (True, 4, 4, 2, 1, 2, NO_HOISTED_OR_UNROLL),
    (True, 4, 4, 2, 1, 4, ALL_BUT_HOISTED),
    (True, 4, 4, 2, 2, 2, ALL_BUT_HOISTED),
    (True, 4, 4, 2, 2, 4, ALL_BUT_HOISTED),
    (True, 4, 5, 2, 1, 2, HOISTED),
    (True, 4, 5, 2, 1, 4, HOISTED),
    (True, 4, 5, 2, 2, 2, ALL_BUT_HOISTED),
    (True, 4, 5, 2, 2, 4, ALL_BUT_HOISTED),
    (True, 5, 3, 2, 1, 2, HOISTED),
    (True, 5, 3, 2, 1, 4, HOISTED),
    (True, 5, 3, 2, 2, 2, ALL_BUT_HOISTED),
    (True, 5, 3, 2, 2, 4, ALL_BUT_HOISTED),
    (True, 5, 4, 2, 1, 2, HOISTED),
    (True, 5, 4, 2, 1, 4, HOISTED),
    (True, 5, 4, 2, 2, 2, NO_HOISTED_OR_UNROLL),
    (True, 5, 4, 2, 2, 4, ALL_BUT_HOISTED),
    (True, 5, 5, 2, 1, 2, HOISTED),
    (True, 5, 5, 2, 1, 4, HOISTED),
    (True, 5, 5, 2, 2, 2, HOISTED),
    (True, 5, 5, 2, 2, 4, HOISTED),
    (True, 6, 3, 2, 1, 4, HOISTED),
    (True, 6, 3, 2, 2, 2, HOISTED),
    (True, 6, 3, 2, 2, 4, HOISTED),
    (True, 6, 4, 2, 1, 2, HOISTED),
    (True, 6, 4, 2, 1, 4, HOISTED),
    (True, 6, 4, 2, 2, 2, HOISTED),
    (True, 6, 4, 2, 2, 4, HOISTED),
    (True, 6, 5, 2, 2, 2, HOISTED),
    (True, 6, 5, 2, 2, 4, HOISTED),
    (False, 6, 3, 1, 1, 2, ALL_BUT_HOISTED),
    (False, 6, 3, 1, 1, 4, ALL_BUT_HOISTED),
    (False, 8, 3, 1, 0, 2, ALL_BUT_HOISTED),
    (False, 8, 3, 1, 0, 4, ALL_BUT_HOISTED),
    (False, 8, 3, 1, 1, 2, NO_HOISTED_OR_UNROLL),
    (False, 8, 3, 1, 1, 4, ALL_BUT_HOISTED),
    (False, 8, 4, 1, 1, 2, ALL_BUT_HOISTED),
    (False, 8, 4, 1, 1, 4, ALL_BUT_HOISTED),
    (False, 10, 3, 1, 0, 2, NO_HOISTED_OR_UNROLL),
    (False, 10, 3, 1, 0, 4, ALL_BUT_HOISTED),
    (False, 10, 3, 1, 1, 2, HOISTED),
    (False, 10, 3, 1, 1, 4, HOISTED),
    (False, 10, 4, 1, 0, 2, ALL_BUT_HOISTED),
    (False, 10, 4, 1, 0, 4, ALL_BUT_HOISTED),
)


class CompileVerify(Workload):
    """Compile, statically verify, and run one seed-drawn layer on the cycle-level machine."""

    name = "compile-verify"
    PES_PER_PV = 4
    TOLERANCE = 1e-9

    def setup(self) -> None:
        super().setup()
        self.rng = np.random.default_rng(self.seed)
        self.draws = [
            (transposed, size, kernel, stride, padding, num_pvs, schedule)
            for transposed, size, kernel, stride, padding, num_pvs, schedules in LAYER_TABLE
            for schedule in schedules
        ]
        self.order: List[int] = []
        self.perturb = 0.0

    def prepare(self) -> LayerDraw:
        """The next table entry of a seeded shuffle, with fresh random tensors."""
        if not self.order:
            self.order = list(self.rng.permutation(len(self.draws)))
        transposed, size, kernel, stride, padding, num_pvs, schedule = self.draws[self.order.pop()]
        return LayerDraw(
            transposed=transposed,
            size=size,
            kernel=kernel,
            stride=stride,
            padding=padding,
            num_pvs=num_pvs,
            schedule=schedule,
            x=self.rng.standard_normal((size, size)),
            weight=self.rng.standard_normal((kernel, kernel)),
        )

    def op(self, draw: LayerDraw, tracer):
        clock = time.perf_counter
        start = clock()
        binding = draw.binding()
        programs = compiler_module.compile_layer_programs(
            binding,
            num_pvs=draw.num_pvs,
            pes_per_pv=self.PES_PER_PV,
            schedule=draw.schedule,
        )
        model = staticcheck_module.MachineModel.for_executor(
            num_pvs=draw.num_pvs,
            pes_per_pv=self.PES_PER_PV,
            output_columns=binding.output_shape.spatial[-1],
        )
        findings = [
            finding
            for program in programs
            for finding in staticcheck_module.verify_program(program, model)
        ]
        verified = clock()
        executor = GanaxLayerExecutor(
            num_pvs=draw.num_pvs, pes_per_pv=self.PES_PER_PV, schedule=draw.schedule
        )
        run = executor.run_transposed_conv if draw.transposed else executor.run_conv
        execution = run(draw.x, draw.weight, stride=draw.stride, padding=draw.padding)
        executed = clock()
        return programs, findings, execution, verified - start, executed - verified

    def check(self, draw, output, tracer):
        programs, findings, execution, verify_s, execute_s = output
        if findings:
            raise CheckFailure(f"{len(findings)} staticcheck findings, first: {findings[0]}")
        expected = draw.reference() + self.perturb
        if not np.allclose(execution.output, expected, rtol=self.TOLERANCE, atol=self.TOLERANCE):
            raise CheckFailure("machine output differs from the nn.functional reference")
        return Work(
            layers=1,
            sim_cycles=execution.cycles,
            uops=sum(len(p.global_uops) for p in programs),
            uop_seconds=verify_s,
            cycle_seconds=execute_s,
        )

    def corrupt(self) -> None:
        self.perturb = 1e-3


WORKLOADS = {cls.name: cls for cls in (PaperCli, DseSearch, FamilySweep, CompileVerify)}
