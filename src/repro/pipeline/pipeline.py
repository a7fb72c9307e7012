"""The Pipeline: run a :class:`RunSpec` end to end.

This is the canonical public entry point of the library — one object that
executes the paper's deployment flow (prune → quantize → compile → evaluate)
and returns a saveable :class:`~repro.pipeline.artifact.DeployableArtifact`::

    from repro.pipeline import Pipeline, RunSpec

    spec = RunSpec.load("examples/specs/tiny_rtoss3ep.json")
    artifact = Pipeline.from_spec(spec).run()
    print(artifact.summary())
    artifact.save("tiny_rtoss3ep.npz")

The flow is fixed; the spec's sections switch its optional steps on and off.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, Union

from repro.models import build_model
from repro.nn.module import Module
from repro.pipeline.artifact import DeployableArtifact
from repro.pipeline.spec import RunSpec
from repro.utils.logging import get_logger
from repro.utils.rng import set_global_seed

logger = get_logger("pipeline")


class Pipeline:
    """Executes the deployment flow described by a :class:`RunSpec`."""

    def __init__(self, spec: RunSpec) -> None:
        self.spec = spec

    @classmethod
    def from_spec(cls, spec: Union[RunSpec, str]) -> "Pipeline":
        """Build a pipeline from a :class:`RunSpec` or a path to a spec JSON file."""
        if isinstance(spec, str):
            spec = RunSpec.load(spec)
        return cls(spec)

    # ------------------------------------------------------------------ execution
    def run(self) -> DeployableArtifact:
        """Prune, then quantize, compile and evaluate as the spec enables them.

        Each step's wall-clock seconds land in ``artifact.timings`` under its
        name, in execution order.
        """
        from repro.engine.bench import measure_speedup
        from repro.engine.compiler import compile_model
        from repro.evaluation.evaluator import snapshot_weight_energy
        from repro.pruning.registry import build_seeded_framework

        spec = self.spec
        timings: Dict[str, float] = {}

        def factory():
            return build_model(spec.model.name, **spec.model.kwargs)

        set_global_seed(spec.seed)
        model = factory()

        with _timed(timings, "prune"):
            pruner = build_seeded_framework(spec.framework.name, spec.seed,
                                            spec.framework.overrides)
            pre_prune_energy = snapshot_weight_energy(model)
            report = pruner.prune(model, spec.framework.example_shape(), spec.model.name)
            logger.info("pruned %s with %s: sparsity %.1f%%", spec.model.name,
                        spec.framework.name, 100 * report.overall_sparsity)

        quantization_meta = None
        if spec.quantization.enabled:
            with _timed(timings, "quantize"):
                quantization_meta = _quantize(model, spec)
                report.masks.reapply(model)

        compiled = measurement = None
        if spec.engine.enabled:
            engine = spec.engine
            with _timed(timings, "compile"):
                compiled = compile_model(model, report.masks, apply_masks=False)
                if engine.measure:
                    # Measures the engine compiled above — the one the artifact
                    # ships — against the unpruned twin through the same executor.
                    measurement = measure_speedup(
                        model, compile_model(factory()), masks=report.masks,
                        repeats=engine.repeats, batch=engine.batch,
                        image_size=engine.image_size, model_name=spec.model.name,
                        seed=spec.seed, compiled=compiled)

        metrics: Dict[str, Any] = {}
        if spec.evaluation.enabled:
            with _timed(timings, "evaluate"):
                metrics = _evaluator(spec, factory).score(
                    model, report, pre_prune_energy, measurement).row()

        artifact = DeployableArtifact(
            spec=spec, model=model, report=report,
            quantization_meta=quantization_meta, compiled=compiled,
            measurement=measurement.row() if measurement is not None else None,
            metrics=metrics, timings=timings)
        if spec.artifact_path:
            path = artifact.save(spec.artifact_path)
            logger.info("artifact written to %s", path)
        return artifact


@contextmanager
def _timed(timings: Dict[str, float], name: str) -> Iterator[None]:
    """Record the wall-clock seconds of the ``with`` body as ``timings[name]``."""
    started = time.perf_counter()
    yield
    elapsed = time.perf_counter() - started
    timings[name] = round(elapsed, 4)
    logger.info("step %-10s done in %.2fs", name, elapsed)


def _quantize(model: Module, spec: RunSpec) -> Dict[str, Any]:
    """Post-training quantization of ``model`` in place (pruned zeros quantise
    to exactly zero); returns the artifact's quantization metadata."""
    from repro.compression.quantization import quantize_model, quantized_model_bytes

    section = spec.quantization
    report = quantize_model(model, bits=section.bits, apply=True,
                            skip_names=section.skip_names)
    return {
        "bits": report.bits,
        "num_layers": report.num_layers,
        "float_bytes": report.float_bytes,
        "quantized_bytes": report.quantized_bytes,
        "compression_ratio": report.compression_ratio,
        "max_absolute_error": report.max_absolute_error,
        "deployed_bytes": quantized_model_bytes(model, report, count_zeros=False),
    }


def _evaluator(spec: RunSpec, factory: Callable[[], Module]):
    """The :class:`~repro.evaluation.evaluator.DetectorEvaluator` of the spec's
    evaluation section; without a ``baseline_map`` the mAP anchor is the
    model's ``BASELINE_MAP`` entry, 60.0 for a model it does not list."""
    from repro.evaluation.accuracy_proxy import BASELINE_MAP
    from repro.evaluation.evaluator import DetectorEvaluator
    from repro.hardware import get_platform

    evaluation = spec.evaluation
    baseline_map = evaluation.baseline_map
    if baseline_map is None:
        baseline_map = BASELINE_MAP.get(spec.model.name.lower(), 60.0)
    return DetectorEvaluator(
        factory, spec.model.name, baseline_map, image_size=evaluation.image_size,
        probe_size=evaluation.probe_size,
        platforms=[get_platform(name) for name in evaluation.platforms])
