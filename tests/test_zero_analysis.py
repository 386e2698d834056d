"""Unit tests for the structural zero / pattern analysis."""

from __future__ import annotations

import pytest

from repro.errors import LayerError
from repro.nn.layers import ConvLayer, TransposedConvLayer, consequential_taps_along_extent
from repro.nn.shapes import FeatureMapShape
from repro.nn.zero_analysis import (
    _phase_taps,
    analyze_transposed_conv,
    count_consequential_macs_bruteforce,
    distinct_row_patterns,
    layer_zero_stats,
    transposed_conv_inconsequential_fraction,
)


class TestAnalyzeTransposedConv:
    def test_paper_example_two_patterns(self, example_tconv_layer, example_tconv_input):
        analysis = analyze_transposed_conv(example_tconv_layer, example_tconv_input)
        # Section II: "there are only two distinct patterns in the output row
        # computations" for the stride-2 example.
        assert analysis.num_patterns == 2

    def test_paper_example_filter_rows_per_pattern(self, example_tconv_layer, example_tconv_input):
        analysis = analyze_transposed_conv(example_tconv_layer, example_tconv_input)
        rows_used = sorted(p.filter_rows_used for p in analysis.row_patterns)
        # Even rows use 3 filter rows (1st/3rd/5th), odd rows use 2 (2nd/4th),
        # matching the accumulation-depth reduction from 5 to 2-3 cycles.
        assert rows_used == [2, 3]

    def test_paper_example_pattern_contents(self, example_tconv_layer, example_tconv_input):
        analysis = analyze_transposed_conv(example_tconv_layer, example_tconv_input)
        patterns = {p.phase: p.consequential_filter_rows for p in analysis.row_patterns}
        assert patterns[0] == (0, 2, 4)
        assert patterns[1] == (1, 3)

    def test_consequential_fraction_matches_layer(self, example_tconv_layer, example_tconv_input):
        analysis = analyze_transposed_conv(example_tconv_layer, example_tconv_input)
        assert analysis.consequential_macs == example_tconv_layer.consequential_macs(
            example_tconv_input
        )
        assert analysis.total_macs == example_tconv_layer.total_macs(example_tconv_input)

    def test_rows_per_pattern_cover_all_rows(self, example_tconv_layer, example_tconv_input):
        analysis = analyze_transposed_conv(example_tconv_layer, example_tconv_input)
        assert sum(analysis.rows_per_pattern) == analysis.output_shape.spatial[0]

    def test_stride1_single_pattern(self):
        layer = TransposedConvLayer(name="t", out_channels=1, kernel=3, stride=1, padding=1)
        analysis = analyze_transposed_conv(layer, FeatureMapShape.image(1, 8, 8))
        assert analysis.num_patterns == 1
        assert analysis.row_patterns[0].filter_rows_used == 3

    def test_stride3_three_patterns(self):
        layer = TransposedConvLayer(name="t", out_channels=1, kernel=6, stride=3, padding=2)
        analysis = analyze_transposed_conv(layer, FeatureMapShape.image(1, 5, 5))
        assert analysis.num_patterns == 3

    def test_rejects_conv_layer(self):
        layer = ConvLayer(name="c", out_channels=1, kernel=3, stride=1, padding=1)
        with pytest.raises(LayerError):
            analyze_transposed_conv(layer, FeatureMapShape.image(1, 8, 8))


class TestBruteForceCrossCheck:
    @pytest.mark.parametrize(
        "kernel,stride,padding,size",
        [
            (5, 2, 2, 4),
            (4, 2, 1, 4),
            (4, 2, 1, 6),
            (3, 1, 1, 5),
            (6, 3, 2, 3),
            (5, 2, 1, 5),
        ],
    )
    def test_exact_count_matches_bruteforce_2d(self, kernel, stride, padding, size):
        layer = TransposedConvLayer(
            name="t", out_channels=2, kernel=kernel, stride=stride, padding=padding
        )
        shape = FeatureMapShape.image(3, size, size)
        assert layer.consequential_macs(shape) == count_consequential_macs_bruteforce(
            layer, shape
        )

    def test_exact_count_matches_bruteforce_3d(self):
        layer = TransposedConvLayer(
            name="t", out_channels=1, kernel=4, stride=2, padding=1, rank=3
        )
        shape = FeatureMapShape.volume(1, 3, 3, 3)
        assert layer.consequential_macs(shape) == count_consequential_macs_bruteforce(
            layer, shape
        )

    def test_exact_count_matches_bruteforce_anisotropic(self):
        layer = TransposedConvLayer(
            name="t", out_channels=1, kernel=(5, 3), stride=(2, 1), padding=(2, 1)
        )
        shape = FeatureMapShape.image(1, 4, 6)
        assert layer.consequential_macs(shape) == count_consequential_macs_bruteforce(
            layer, shape
        )


def _reference_taps(in_extent, out_extent, kernel, stride, padding):
    """Brute-force 1-D count: lay the genuine inputs out, slide the window."""
    border = kernel - 1 - padding
    genuine = {border + stride * index for index in range(in_extent)}
    return tuple(
        sum(1 for tap in range(kernel) if out + tap in genuine)
        for out in range(out_extent)
    )


def _reference_phase_taps(taps, stride):
    maxima = [0] * stride
    for column, count in enumerate(taps):
        maxima[column % stride] = max(maxima[column % stride], count)
    return tuple(maxima)


class TestTapCountHelpers:
    """The plain-integer tap helpers against an independent brute force."""

    @pytest.mark.parametrize("stride", [1, 2, 3, 4])
    def test_exhaustive_small_grid(self, stride):
        for in_extent in range(1, 10):
            for kernel in range(1, 8):
                for padding in range(kernel):
                    dense = (in_extent - 1) * stride - 2 * padding + kernel
                    for output_padding in range(stride):
                        out_extent = dense + output_padding
                        if out_extent <= 0:
                            continue
                        expected = _reference_taps(
                            in_extent, out_extent, kernel, stride, padding
                        )
                        taps = consequential_taps_along_extent(
                            in_extent, out_extent, kernel, stride, padding
                        )
                        assert taps == expected, (in_extent, kernel, padding, out_extent)
                        assert _phase_taps(taps, stride) == _reference_phase_taps(
                            taps, stride
                        )

    @pytest.mark.parametrize(
        "layer,shape",
        [
            (
                TransposedConvLayer(
                    name="t1", out_channels=2, kernel=5, stride=3, padding=1, rank=1
                ),
                FeatureMapShape(channels=3, spatial=(7,)),
            ),
            (
                TransposedConvLayer(
                    name="t2",
                    out_channels=2,
                    kernel=(4, 3),
                    stride=(2, 3),
                    padding=(1, 0),
                    output_padding=(1, 0),
                ),
                FeatureMapShape.image(2, 5, 4),
            ),
            (
                TransposedConvLayer(
                    name="t3", out_channels=1, kernel=(3, 4, 5), stride=(1, 2, 3),
                    padding=(2, 1, 0), rank=3,
                ),
                FeatureMapShape.volume(2, 3, 4, 3),
            ),
        ],
        ids=["rank1", "rank2", "rank3"],
    )
    def test_layer_count_matches_bruteforce(self, layer, shape):
        assert layer.consequential_macs(shape) == count_consequential_macs_bruteforce(
            layer, shape
        )


class TestAggregation:
    def test_layer_zero_stats(self, example_tconv_layer, example_tconv_input):
        stats = layer_zero_stats(example_tconv_layer, example_tconv_input)
        assert stats.is_transposed
        assert stats.total_macs == stats.consequential_macs + stats.inconsequential_macs
        assert 0.0 < stats.inconsequential_fraction < 1.0

    def test_conv_layer_stats_fully_consequential(self):
        layer = ConvLayer(name="c", out_channels=2, kernel=3, stride=1, padding=1)
        stats = layer_zero_stats(layer, FeatureMapShape.image(1, 8, 8))
        assert stats.inconsequential_macs == 0
        assert not stats.is_transposed

    def test_network_fraction_ignores_conv_layers(self):
        conv = ConvLayer(name="c", out_channels=4, kernel=3, stride=1, padding=1)
        tconv = TransposedConvLayer(name="t", out_channels=4, kernel=4, stride=2, padding=1)
        shape = FeatureMapShape.image(4, 8, 8)
        with_conv = transposed_conv_inconsequential_fraction(
            [(conv, shape), (tconv, shape)]
        )
        only_tconv = transposed_conv_inconsequential_fraction([(tconv, shape)])
        assert with_conv == pytest.approx(only_tconv)

    def test_network_fraction_empty_is_zero(self):
        assert transposed_conv_inconsequential_fraction([]) == 0.0

    def test_distinct_row_patterns_counts(self, example_tconv_layer, example_tconv_input):
        patterns = distinct_row_patterns(example_tconv_layer, example_tconv_input)
        assert len(patterns) == 2
        assert sum(patterns.values()) == 7  # all 7 output rows covered
