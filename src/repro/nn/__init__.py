"""Neural-network substrate: shapes, layers, functional reference, analysis."""

from .._lazy import lazy_exports

__all__ = [
    "FeatureMapShape",
    "conv_output_extent",
    "transposed_conv_output_extent",
    "zero_inserted_extent",
    "ActivationLayer",
    "BatchNormLayer",
    "ConvLayer",
    "DenseLayer",
    "LayerSpec",
    "PoolingLayer",
    "ReshapeLayer",
    "TransposedConvLayer",
    "LayerParameters",
    "NetworkRunner",
    "run_generator",
    "GANModel",
    "LayerBinding",
    "Network",
    "LayerZeroStats",
    "RowPattern",
    "TransposedConvAnalysis",
    "analyze_transposed_conv",
    "count_consequential_macs_bruteforce",
    "distinct_row_patterns",
    "layer_zero_stats",
    "transposed_conv_inconsequential_fraction",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".shapes": (
            "FeatureMapShape",
            "conv_output_extent",
            "transposed_conv_output_extent",
            "zero_inserted_extent",
        ),
        ".layers": (
            "ActivationLayer",
            "BatchNormLayer",
            "ConvLayer",
            "DenseLayer",
            "LayerSpec",
            "PoolingLayer",
            "ReshapeLayer",
            "TransposedConvLayer",
        ),
        ".inference": ("LayerParameters", "NetworkRunner", "run_generator"),
        ".network": ("GANModel", "LayerBinding", "Network"),
        ".zero_analysis": (
            "LayerZeroStats",
            "RowPattern",
            "TransposedConvAnalysis",
            "analyze_transposed_conv",
            "count_consequential_macs_bruteforce",
            "distinct_row_patterns",
            "layer_zero_stats",
            "transposed_conv_inconsequential_fraction",
        ),
    },
)
