"""Hardware substrate: FIFOs, scratchpads, DRAM, NoC, energy and area models."""

from .._lazy import lazy_exports

__all__ = [
    "AcceleratorAreaBreakdown",
    "AreaModel",
    "PeAreaBreakdown",
    "EventCounters",
    "DramModel",
    "DramTraffic",
    "ENERGY_COMPONENTS",
    "EnergyBreakdown",
    "EnergyModel",
    "EnergyTable",
    "Fifo",
    "FixedPointAccumulator",
    "FixedPointFormat",
    "quantization_error",
    "quantize",
    "NocModel",
    "NocStatistics",
    "Scratchpad",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".area": ("AcceleratorAreaBreakdown", "AreaModel", "PeAreaBreakdown"),
        ".counters": ("EventCounters",),
        ".dram": ("DramModel", "DramTraffic"),
        ".energy": ("ENERGY_COMPONENTS", "EnergyBreakdown", "EnergyModel", "EnergyTable"),
        ".fifo": ("Fifo",),
        ".fixed_point": (
            "FixedPointAccumulator",
            "FixedPointFormat",
            "quantization_error",
            "quantize",
        ),
        ".noc": ("NocModel", "NocStatistics"),
        ".sram": ("Scratchpad",),
    },
)
