"""Per-layer analytic estimators and the ``simulate_layers`` batch entry point.

Every accelerator runs ``GanSimulatorBase.simulate_layers`` — a loop over
``simulate_layer`` — and the runner's layer memo sends its miss batches through
it, so the batch path must stay value-for-value the per-layer path.  The golden
regression numbers pin the network totals; these tests pin per-layer accounting
invariants of the EYERISS and GANAX estimators over the six paper GANs, and
exact integer counts on a layer whose work exceeds the float64-exact range.
"""

from __future__ import annotations

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.accelerators.registry import get_accelerator
from repro.baseline.performance import estimate_layer as eyeriss_estimate
from repro.config import ArchitectureConfig
from repro.core.performance import estimate_layer as ganax_estimate
from repro.errors import WorkloadError
from repro.nn.layers import TransposedConvLayer
from repro.nn.network import LayerBinding
from repro.nn.shapes import FeatureMapShape
from repro.workloads.registry import get_workload, workload_names
from repro.workloads.synthetic import build_synthetic

ACCELERATORS = ("eyeriss", "ganax", "ganax-noskip", "ideal")
FLOAT64_EXACT_RANGE = 2**53


def _networks(model):
    return (model.generator, model.discriminator)


def _bindings(model):
    return [binding for network in _networks(model) for binding in network.bindings]


class TestSimulatorParity:
    @pytest.mark.parametrize("accelerator", ACCELERATORS)
    @pytest.mark.parametrize("model_name", sorted(workload_names()))
    def test_simulate_layers_matches_per_layer_loop(
        self, accelerator, model_name, paper_config
    ):
        simulator = get_accelerator(accelerator).create(config=paper_config)
        model = get_workload(model_name)
        for network in _networks(model):
            batched = simulator.simulate_layers(network.bindings)
            scalar = tuple(
                simulator.simulate_layer(binding) for binding in network.bindings
            )
            assert batched == scalar

    @settings(max_examples=8, deadline=None)
    @given(
        depth=st.integers(min_value=1, max_value=6),
        base_channels=st.sampled_from([8, 32, 128]),
        kernel=st.integers(min_value=2, max_value=6),
        stride=st.sampled_from([1, 2, 4]),
        upsample_percent=st.sampled_from([0, 50, 100]),
    )
    def test_parity_on_synthetic_families(
        self, depth, base_channels, kernel, stride, upsample_percent
    ):
        try:
            model = build_synthetic(
                depth=depth,
                base_channels=base_channels,
                kernel=kernel,
                stride=stride,
                upsample_percent=upsample_percent,
            )
        except WorkloadError:
            assume(False)  # no exact-upsampling geometry for these knobs
        config = ArchitectureConfig.paper_default()
        for accelerator in ("eyeriss", "ganax"):
            simulator = get_accelerator(accelerator).create(config=config)
            for network in _networks(model):
                batched = simulator.simulate_layers(network.bindings)
                scalar = tuple(
                    simulator.simulate_layer(binding)
                    for binding in network.bindings
                )
                assert batched == scalar

    def test_simulate_layers_preserves_binding_order(
        self, paper_config, dcgan_model
    ):
        bindings = dcgan_model.generator.bindings
        for accelerator in ("eyeriss", "ganax"):
            simulator = get_accelerator(accelerator).create(config=paper_config)
            forward = simulator.simulate_layers(bindings)
            backward = simulator.simulate_layers(tuple(reversed(bindings)))
            assert forward == tuple(reversed(backward))


class TestEstimatorInvariants:
    @pytest.mark.parametrize("model_name", sorted(workload_names()))
    def test_eyeriss_accounts_for_every_mac(self, model_name, paper_config):
        for binding in _bindings(get_workload(model_name)):
            estimate = eyeriss_estimate(binding, paper_config)
            counters = estimate.counters
            assert counters.mac_ops + counters.gated_ops == binding.total_macs
            assert estimate.cycles >= estimate.dram_cycles
            assert estimate.busy_pe_cycles <= estimate.total_pe_cycles

    @pytest.mark.parametrize("zero_skipping", (True, False))
    @pytest.mark.parametrize("model_name", sorted(workload_names()))
    def test_ganax_accounts_for_every_mac(
        self, model_name, zero_skipping, paper_config
    ):
        for binding in _bindings(get_workload(model_name)):
            estimate = ganax_estimate(
                binding, paper_config, zero_skipping=zero_skipping
            )
            counters = estimate.counters
            assert estimate.cycles >= estimate.dram_cycles
            assert estimate.busy_pe_cycles <= estimate.total_pe_cycles
            if zero_skipping and binding.is_transposed:
                # Inconsequential MACs are skipped outright, never gated.
                assert counters.gated_ops == 0
                assert (
                    counters.mac_ops
                    == estimate.active_pe_cycles
                    == binding.consequential_macs
                )
            else:
                assert counters.mac_ops + counters.gated_ops == binding.total_macs


class TestExactLargeLayers:
    """Counts on a layer beyond float64's exact range stay exact integers."""

    def _huge_binding(self) -> LayerBinding:
        layer = TransposedConvLayer(
            name="huge_tconv",
            out_channels=2**21,
            kernel=7,
            stride=2,
            padding=3,
            output_padding=1,
        )
        input_shape = FeatureMapShape.image(2**21, 32, 32)
        return LayerBinding(
            index=0,
            layer=layer,
            input_shape=input_shape,
            output_shape=layer.output_shape(input_shape),
        )

    def test_work_exceeds_float64_exact_range(self):
        assert self._huge_binding().total_macs > FLOAT64_EXACT_RANGE

    def test_eyeriss_counts_are_exact(self, paper_config):
        binding = self._huge_binding()
        counters = eyeriss_estimate(binding, paper_config).counters
        assert isinstance(counters.mac_ops, int)
        assert counters.mac_ops == binding.consequential_macs
        assert counters.mac_ops + counters.gated_ops == binding.total_macs

    @pytest.mark.parametrize("zero_skipping", (True, False))
    def test_ganax_counts_are_exact(self, zero_skipping, paper_config):
        binding = self._huge_binding()
        estimate = ganax_estimate(binding, paper_config, zero_skipping=zero_skipping)
        counters = estimate.counters
        assert isinstance(counters.mac_ops, int)
        assert counters.mac_ops == binding.consequential_macs
        gated = 0 if zero_skipping else binding.total_macs - binding.consequential_macs
        assert counters.gated_ops == gated
