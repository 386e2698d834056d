"""Parameter-sweep utilities for ablation studies.

The ablation benchmarks sweep architectural parameters (DRAM bandwidth, PE
array shape, zero-gating energy, MIMD dispatch overhead) and dataflow choices
(output-row reorganization on/off, filter-row reorganization on/off) and ask
how the headline metrics move.  :class:`ParameterSweep` runs a comparison for
every parameter value and collects the per-model speedup / energy-reduction
series in a structure the report renderer understands.

All simulation work routes through a :class:`~repro.runner.SimulationRunner`:
a sweep submits its entire (config x model x accelerator) grid as **one
batch**, so identical jobs deduplicate, cached results are reused across
sweeps and experiments, and a parallel backend fans out over the whole grid.
The module-level :func:`compare_model` / :func:`compare_models` helpers (the
legacy EYERISS-vs-GANAX pair) and :func:`compare_accelerators` (N-way over
any registered accelerators) use the process-wide default runner unless one
is passed explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Mapping, Optional, Sequence

from ..config import ArchitectureConfig, SimulationOptions
from ..errors import AnalysisError
from ..nn.network import GANModel
from .metrics import geometric_mean
from .results import ComparisonResult, MultiComparison

if TYPE_CHECKING:
    from ..runner import SimulationRunner


def _resolve_runner(runner: Optional[SimulationRunner]) -> SimulationRunner:
    """``runner``, or the process-wide default when None.

    The runner package sits above this one: it imports
    :mod:`repro.analysis.results`, which loads this package first, so the
    runner is imported on use rather than at module level.
    """
    if runner is not None:
        return runner
    from ..runner import get_default_runner

    return get_default_runner()


def build_labelled_configs(
    parameter: str,
    values: Sequence[Any],
    base_config: ArchitectureConfig,
    label_format: str = "{parameter}={value}",
) -> Dict[str, ArchitectureConfig]:
    """Label -> config for a sweep over one configuration field.

    Shared by :meth:`ParameterSweep.run` and :meth:`repro.Session.sweep`;
    rejects empty value lists and label formats that collapse distinct
    values onto one label.
    """
    if not values:
        raise AnalysisError("a sweep needs at least one parameter value")
    labelled_configs = {
        label_format.format(parameter=parameter, value=value):
            base_config.with_updates(**{parameter: value})
        for value in values
    }
    if len(labelled_configs) != len(values):
        raise AnalysisError(
            f"sweep over '{parameter}' produced duplicate labels; "
            "use a label_format that distinguishes the values"
        )
    return labelled_configs


@dataclass(frozen=True)
class SweepPoint:
    """One point of a parameter sweep."""

    label: str
    config: ArchitectureConfig
    speedups: Dict[str, float]
    energy_reductions: Dict[str, float]

    @property
    def geomean_speedup(self) -> float:
        return geometric_mean(list(self.speedups.values()))

    @property
    def geomean_energy_reduction(self) -> float:
        return geometric_mean(list(self.energy_reductions.values()))

    @classmethod
    def from_comparisons(
        cls,
        label: str,
        config: ArchitectureConfig,
        comparisons: Mapping[str, ComparisonResult],
    ) -> "SweepPoint":
        """Build a point from one config's per-model comparison results."""
        return cls(
            label=label,
            config=config,
            speedups={
                name: c.generator_speedup for name, c in comparisons.items()
            },
            energy_reductions={
                name: c.generator_energy_reduction
                for name, c in comparisons.items()
            },
        )


def compare_model(
    model: GANModel,
    config: Optional[ArchitectureConfig] = None,
    options: Optional[SimulationOptions] = None,
    runner: Optional[SimulationRunner] = None,
) -> ComparisonResult:
    """Run one GAN on both accelerators with a shared configuration."""
    runner = _resolve_runner(runner)
    return runner.compare_model(model, config, options)


def compare_models(
    models: Sequence[GANModel],
    config: Optional[ArchitectureConfig] = None,
    options: Optional[SimulationOptions] = None,
    runner: Optional[SimulationRunner] = None,
) -> Dict[str, ComparisonResult]:
    """Run every GAN on both accelerators; returns name -> comparison."""
    if not models:
        raise AnalysisError("no models provided")
    runner = _resolve_runner(runner)
    return runner.compare_models(models, config, options)


def compare_accelerators(
    models: Sequence[GANModel],
    accelerators: Optional[Sequence[str]] = None,
    baseline: Optional[str] = None,
    config: Optional[ArchitectureConfig] = None,
    options: Optional[SimulationOptions] = None,
    runner: Optional[SimulationRunner] = None,
) -> Dict[str, MultiComparison]:
    """Run every GAN on every named registered accelerator (N-way).

    The N-way counterpart of :func:`compare_models`: returns
    ``{model_name: MultiComparison}`` against the declared ``baseline``
    (``"eyeriss"`` when present).  :class:`repro.Session` is the stateful
    facade over this entry point.
    """
    if not models:
        raise AnalysisError("no models provided")
    runner = _resolve_runner(runner)
    return runner.compare_accelerators(models, accelerators, baseline, config, options)


class ParameterSweep:
    """Sweep one architectural parameter over a set of values."""

    def __init__(
        self,
        models: Sequence[GANModel],
        base_config: Optional[ArchitectureConfig] = None,
        options: Optional[SimulationOptions] = None,
        runner: Optional[SimulationRunner] = None,
    ) -> None:
        if not models:
            raise AnalysisError("a sweep needs at least one model")
        self._models = list(models)
        self._base_config = base_config or ArchitectureConfig.paper_default()
        self._options = options
        self._runner = runner

    def run(
        self,
        parameter: str,
        values: Sequence[Any],
        label_format: str = "{parameter}={value}",
    ) -> List[SweepPoint]:
        """Run the sweep over ``values`` of the named configuration field."""
        return self._build_points(
            build_labelled_configs(parameter, values, self._base_config, label_format)
        )

    def run_configs(
        self, labelled_configs: Mapping[str, ArchitectureConfig]
    ) -> List[SweepPoint]:
        """Run the sweep over explicit, pre-built configurations."""
        if not labelled_configs:
            raise AnalysisError("a sweep needs at least one configuration")
        return self._build_points(labelled_configs)

    def iter_points(
        self,
        parameter: str,
        values: Sequence[Any],
        label_format: str = "{parameter}={value}",
    ) -> Iterator[SweepPoint]:
        """Yield each :class:`SweepPoint` as soon as its config completes.

        The streaming counterpart of :meth:`run`: the whole grid still joins
        one runner submission (same deduplication, same cache entries), but
        a sweep point is yielded the moment every model of *its* configuration
        has finished, instead of after the slowest point of the whole sweep.
        Points arrive in completion order — equal to value order with the
        serial backend — and abandoning the iterator cancels unstarted jobs.
        """
        yield from self.iter_configs(
            build_labelled_configs(parameter, values, self._base_config, label_format)
        )

    def iter_configs(
        self, labelled_configs: Mapping[str, ArchitectureConfig]
    ) -> Iterator[SweepPoint]:
        """Streaming counterpart of :meth:`run_configs`; see :meth:`iter_points`."""
        if not labelled_configs:
            raise AnalysisError("a sweep needs at least one configuration")
        from ..runner import COMPARISON_PAIR

        runner = _resolve_runner(self._runner)
        # Unique names: the stream collapses equivalent workload spellings
        # (e.g. "DCGAN" and "dcgan@64x64") to one group, exactly as the
        # batch path's per-name comparison dict does.
        expected = list(dict.fromkeys(model.name for model in self._models))
        pending: Dict[str, Dict[str, ComparisonResult]] = {}
        for label, model_name, multi in runner.stream_accelerators_over_configs(
            self._models,
            labelled_configs,
            COMPARISON_PAIR,
            baseline="eyeriss",
            options=self._options,
        ):
            per_label = pending.setdefault(label, {})
            per_label[model_name] = multi.as_comparison()
            if len(per_label) == len(expected):
                yield SweepPoint.from_comparisons(
                    label,
                    labelled_configs[label],
                    {name: per_label.pop(name) for name in expected},
                )

    def _build_points(
        self, labelled_configs: Mapping[str, ArchitectureConfig]
    ) -> List[SweepPoint]:
        """Submit the whole grid as one batch and assemble sweep points."""
        runner = _resolve_runner(self._runner)
        grid = runner.compare_models_over_configs(
            self._models, labelled_configs, self._options
        )
        return [
            SweepPoint.from_comparisons(label, config, grid[label])
            for label, config in labelled_configs.items()
        ]
