"""Package-level tests: public API surface, error hierarchy, example scripts."""

from __future__ import annotations

import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import errors

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


class TestPublicApi:
    def test_version_string(self):
        assert repro.__version__.count(".") == 2

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.{name} missing"

    def test_headline_workflow_via_top_level_api(self):
        model = repro.get_workload("DCGAN")
        comparison = repro.compare_model(model)
        assert comparison.generator_speedup > 1.0

    def test_simulators_exported(self):
        assert repro.EyerissSimulator().name == "eyeriss"
        assert repro.GanaxSimulator().name == "ganax"

    def test_config_exported(self):
        assert repro.ArchitectureConfig.paper_default().num_pes == 256


class TestErrorHierarchy:
    ALL_ERRORS = [
        errors.ConfigurationError,
        errors.ShapeError,
        errors.LayerError,
        errors.NetworkError,
        errors.WorkloadError,
        errors.IsaError,
        errors.AssemblerError,
        errors.ProgramError,
        errors.HardwareError,
        errors.FifoError,
        errors.BufferError_,
        errors.SimulationError,
        errors.CompilationError,
        errors.DataflowError,
        errors.AnalysisError,
        errors.ExperimentError,
    ]

    @pytest.mark.parametrize("error_type", ALL_ERRORS, ids=lambda e: e.__name__)
    def test_all_errors_derive_from_repro_error(self, error_type):
        assert issubclass(error_type, errors.ReproError)

    def test_assembler_error_is_isa_error(self):
        assert issubclass(errors.AssemblerError, errors.IsaError)

    def test_fifo_error_is_hardware_error(self):
        assert issubclass(errors.FifoError, errors.HardwareError)

    def test_catching_repro_error_covers_library_failures(self):
        with pytest.raises(errors.ReproError):
            repro.get_workload("does-not-exist")

    # One instance of every error class in repro.errors.  A job that fails in
    # a process-pool worker ships its exception back pickled, so each must
    # come back with its type, message and structured fields intact.
    PICKLE_CASES = [
        errors.ReproError("base failure"),
        errors.ConfigurationError("num_pvs must be positive"),
        errors.ShapeError("channel mismatch"),
        errors.LayerError("stride must be >= 1"),
        errors.NetworkError("shape chain broken"),
        errors.WorkloadError("cannot build workload"),
        errors.UnknownWorkloadError("dcgam", ("DCGAN", "3D-GAN"), ("dcgan", "synthetic")),
        errors.IsaError("bad µop"),
        errors.AssemblerError("unknown mnemonic"),
        errors.ProgramError("empty program"),
        errors.ProgramEncodingError("tconv1", "global µop 12", "Mac()", "field overflow"),
        errors.HardwareError("misused primitive"),
        errors.FifoError("pop on empty FIFO"),
        errors.BufferError_("address out of range"),
        errors.SimulationError("machine stalled"),
        errors.CompilationError("cannot lower layer"),
        errors.DataflowError("inconsistent schedule"),
        errors.ScheduleError("bad knob"),
        errors.UnknownScheduleError("hoist", ("default", "hoisted"), ("colmajor",)),
        errors.AnalysisError("empty result set"),
        errors.UnknownAcceleratorError("ganx", ("eyeriss", "ganax")),
        errors.ExperimentError("experiment failed"),
    ]

    @pytest.mark.parametrize("error", PICKLE_CASES, ids=lambda e: type(e).__name__)
    def test_error_survives_a_pickle_round_trip(self, error):
        clone = pickle.loads(pickle.dumps(error))
        assert type(clone) is type(error)
        assert str(clone) == str(error)
        assert vars(clone) == vars(error)

    def test_pickle_cases_cover_every_library_error(self):
        defined = {
            obj
            for obj in vars(errors).values()
            if isinstance(obj, type)
            and issubclass(obj, errors.ReproError)
            and obj.__module__ == errors.__name__
        }
        assert {type(error) for error in self.PICKLE_CASES} == defined


@pytest.mark.parametrize("script", ["quickstart.py", "isa_walkthrough.py"])
def test_example_scripts_run(script):
    """The quick examples must run end-to-end and exit cleanly."""
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / script)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()
