"""GANAX core: dataflow, ISA-level machine, compiler and analytical simulator."""

from .._lazy import lazy_exports

__all__ = [
    "AccessEngine",
    "GanaxLayerExecutor",
    "LayerExecution",
    "ColumnSegment",
    "DataflowSchedule",
    "RowGroup",
    "average_active_filter_rows",
    "build_schedule",
    "pv_assignment",
    "ExecuteEngine",
    "GeneratorConfig",
    "StridedIndexGenerator",
    "GanaxMachine",
    "MachineRunStatistics",
    "ProcessingEngine",
    "GanaxLayerEstimate",
    "estimate_layer",
    "ProcessingVector",
    "ACCELERATOR_NAME",
    "GanaxSimulator",
    "GlobalUopBuffer",
    "LocalUopBuffer",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".access_engine": ("AccessEngine",),
        ".compiler": ("GanaxLayerExecutor", "LayerExecution"),
        ".dataflow": (
            "ColumnSegment",
            "DataflowSchedule",
            "RowGroup",
            "average_active_filter_rows",
            "build_schedule",
            "pv_assignment",
        ),
        ".execute_engine": ("ExecuteEngine",),
        ".index_generator": ("GeneratorConfig", "StridedIndexGenerator"),
        ".machine": ("GanaxMachine", "MachineRunStatistics"),
        ".pe": ("ProcessingEngine",),
        ".performance": ("GanaxLayerEstimate", "estimate_layer"),
        ".pv": ("ProcessingVector",),
        ".simulator": ("ACCELERATOR_NAME", "GanaxSimulator"),
        ".uop_buffers": ("GlobalUopBuffer", "LocalUopBuffer"),
    },
)
