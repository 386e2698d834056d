"""The GANAX µop instruction set: definitions, encoding, assembler, programs."""

from .._lazy import lazy_exports

__all__ = [
    "assemble",
    "assemble_line",
    "disassemble",
    "disassemble_uop",
    "GLOBAL_UOP_BITS",
    "LOCAL_UOP_BITS",
    "PV_INDEX_FIELD_BITS",
    "decode_global_uop",
    "decode_local_uop",
    "encode_global_uop",
    "encode_local_uop",
    "encoded_size_bits",
    "is_mimd_word",
    "MicroProgram",
    "MicroProgramBuilder",
    "AccessCfg",
    "AccessStart",
    "AccessStop",
    "AddressGenerator",
    "ConfigRegister",
    "ExecuteOp",
    "ExecuteUop",
    "MicroOp",
    "MimdExecute",
    "MimdLoad",
    "RepeatUop",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".assembler": ("assemble", "assemble_line", "disassemble", "disassemble_uop"),
        ".encoding": (
            "GLOBAL_UOP_BITS",
            "LOCAL_UOP_BITS",
            "PV_INDEX_FIELD_BITS",
            "decode_global_uop",
            "decode_local_uop",
            "encode_global_uop",
            "encode_local_uop",
            "encoded_size_bits",
            "is_mimd_word",
        ),
        ".program": ("MicroProgram", "MicroProgramBuilder"),
        ".uops": (
            "AccessCfg",
            "AccessStart",
            "AccessStop",
            "AddressGenerator",
            "ConfigRegister",
            "ExecuteOp",
            "ExecuteUop",
            "MicroOp",
            "MimdExecute",
            "MimdLoad",
            "RepeatUop",
        ),
    },
)
