"""End-to-end evaluation of a pruning framework on one detector.

For a given model factory and pruner the evaluator produces everything the paper's
figures need: compression ratio (parameters and storage), per-platform latency and
speedup, per-platform energy and reduction, and the estimated mAP.

:meth:`DetectorEvaluator.score` also carries an engine measurement taken by its
caller (the pipeline's ``engine.measure``), so the row publishes the *measured*
host-CPU speedup from pruning next to the modeled platform speedups.
"""

from __future__ import annotations

import copy
import functools
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.core.report import PruningReport
from repro.evaluation.accuracy_proxy import AccuracyEstimate, estimate_pruned_map
from repro.hardware.compression import estimate_model_size
from repro.hardware.cost_model import ModelCostProfile, profile_model
from repro.hardware.energy import estimate_energy
from repro.hardware.latency import estimate_latency
from repro.hardware.platform import JETSON_TX2, RTX_2080TI, PlatformSpec
from repro.hardware.sparsity import SparsityProfile
from repro.nn.module import Module
from repro.nn.tensor import Tensor

ModelFactory = Callable[[], Module]


def built_once(build: ModelFactory) -> ModelFactory:
    """A factory that calls ``build`` once and hands out deep copies of its model.

    The factories in :mod:`repro.models` are deterministic, so a copy is the
    model a fresh build would return, weight for weight; drawing a full-size
    model's weights costs several times the copy (RetinaNet-50: ≈ 0.9 s against
    ≈ 0.1 s on a 2-core AVX-512 host).
    """
    model = functools.cache(build)
    return lambda: copy.deepcopy(model())


def snapshot_weight_energy(model: Module) -> Dict[str, float]:
    """Per-parameter L2 energy of a model's weights (taken *before* pruning)."""
    return {
        name: float((param.data.astype(np.float64) ** 2).sum())
        for name, param in model.named_parameters()
    }


def weight_energy_retention(model: Module, pre_energy: Dict[str, float],
                            report: PruningReport) -> float:
    """Fraction of weight L2 energy kept by the pruning masks.

    ``pre_energy`` is the :func:`snapshot_weight_energy` of the same model taken
    before pruning; the retention feeds the accuracy estimator
    (:func:`repro.evaluation.accuracy_proxy.estimate_pruned_map`).
    """
    modules = dict(model.named_modules())
    kept = 0.0
    total = 0.0
    for mask in report.masks:
        module = modules.get(mask.layer_name)
        if module is None:
            continue
        param = getattr(module, mask.parameter_name, None)
        if param is None:
            continue
        full_name = f"{mask.layer_name}.{mask.parameter_name}"
        total += pre_energy.get(full_name, 0.0)
        kept += float((param.data.astype(np.float64) ** 2).sum())
    if total <= 0:
        return 1.0
    return float(np.clip(kept / total, 0.0, 1.0))


@dataclass
class FrameworkResult:
    """Evaluation outcome for one pruning framework on one model."""

    framework: str
    model_name: str
    compression_ratio: float
    storage_compression_ratio: float
    overall_sparsity: float
    map_estimate: float
    map_baseline: float
    latency_seconds: Dict[str, float]
    speedup: Dict[str, float]
    energy_joules: Dict[str, float]
    energy_reduction_percent: Dict[str, float]
    report: Optional[PruningReport] = None
    accuracy: Optional[AccuracyEstimate] = None
    #: Wall-clock engine measurement (repro.engine.EngineMeasurement) handed
    #: to :meth:`DetectorEvaluator.score`; None otherwise.
    measured: Optional[object] = None

    def row(self) -> Dict[str, float]:
        """Flat dictionary used by the table/figure formatters."""
        row: Dict[str, float] = {
            "framework": self.framework,
            "model": self.model_name,
            "compression_ratio": round(self.compression_ratio, 3),
            "storage_compression_ratio": round(self.storage_compression_ratio, 3),
            "sparsity": round(self.overall_sparsity, 4),
            "mAP": round(self.map_estimate, 2),
        }
        for platform, value in self.latency_seconds.items():
            row[f"latency_ms[{platform}]"] = round(value * 1e3, 2)
        for platform, value in self.speedup.items():
            row[f"speedup[{platform}]"] = round(value, 2)
        for platform, value in self.energy_joules.items():
            row[f"energy_J[{platform}]"] = round(value, 3)
        for platform, value in self.energy_reduction_percent.items():
            row[f"energy_reduction_%[{platform}]"] = round(value, 2)
        if self.measured is not None:
            row["pruning_speedup[host]"] = round(self.measured.pruning_speedup, 2)
            row["measured_latency_ms[host]"] = round(self.measured.compiled_seconds * 1e3, 2)
        return row


class DetectorEvaluator:
    """Evaluates pruning frameworks on one detector model.

    Parameters
    ----------
    model_factory:
        Zero-argument callable building a *fresh, identically initialised* model
        (all model factories in :mod:`repro.models` are deterministic).
    model_key:
        Key used for baseline-mAP lookup and display ('yolov5s', 'retinanet', ...).
    baseline_map:
        mAP of the trained, unpruned model (anchor for the accuracy estimates).
    image_size:
        Input resolution of the latency/energy evaluation (the paper uses 640).
    platforms:
        Platform models to evaluate on; defaults to RTX 2080Ti and Jetson TX2.

    The evaluator only models; the measured speedup from pruning is taken by
    :meth:`repro.pipeline.Pipeline.run` and passed to :meth:`score`.
    """

    def __init__(self, model_factory: ModelFactory, model_key: str, baseline_map: float,
                 image_size: int = 640, probe_size: int = 64,
                 platforms: Optional[List[PlatformSpec]] = None,
                 trace_size: int = 64) -> None:
        self.model_factory = model_factory
        self.model_key = model_key
        self.baseline_map = float(baseline_map)
        self.image_size = int(image_size)
        self.probe_size = int(probe_size)
        self.trace_size = int(trace_size)
        self.platforms = platforms if platforms is not None else [RTX_2080TI, JETSON_TX2]
        self._profile: Optional[ModelCostProfile] = None
        self._baseline_latency: Dict[str, float] = {}
        self._baseline_energy: Dict[str, float] = {}

    # ------------------------------------------------------------------ shared state
    @property
    def profile(self) -> ModelCostProfile:
        """Static cost profile of the dense model (computed once, reused)."""
        if self._profile is None:
            model = self.model_factory()
            self._profile = profile_model(model, self.image_size, self.probe_size,
                                          model_name=self.model_key)
        return self._profile

    def example_input(self) -> Tensor:
        return Tensor(np.zeros((1, 3, self.trace_size, self.trace_size), dtype=np.float32))

    # ------------------------------------------------------------------ baseline
    def evaluate_baseline(self) -> FrameworkResult:
        """Evaluate the unpruned base model (the paper's "BM")."""
        dense = SparsityProfile.dense()
        latency, energy = {}, {}
        for platform in self.platforms:
            lat = estimate_latency(self.profile, platform, dense)
            en = estimate_energy(self.profile, platform, dense, lat)
            latency[platform.name] = lat.total_seconds
            energy[platform.name] = en.total_joules
        self._baseline_latency = dict(latency)
        self._baseline_energy = dict(energy)
        return FrameworkResult(
            framework="BM",
            model_name=self.model_key,
            compression_ratio=1.0,
            storage_compression_ratio=1.0,
            overall_sparsity=0.0,
            map_estimate=self.baseline_map,
            map_baseline=self.baseline_map,
            latency_seconds=latency,
            speedup={name: 1.0 for name in latency},
            energy_joules=energy,
            energy_reduction_percent={name: 0.0 for name in energy},
        )

    # ------------------------------------------------------------------ frameworks
    def evaluate(self, pruner, framework_name: Optional[str] = None) -> FrameworkResult:
        """Build a fresh model, prune it with ``pruner`` and :meth:`score` it."""
        model = self.model_factory()
        # Snapshot the weight energy before pruning so information retention is exact.
        pre_energy = snapshot_weight_energy(model)
        report: PruningReport = pruner.prune(model, self.example_input(), self.model_key)
        if framework_name:
            report.framework = framework_name
        return self.score(model, report, pre_energy)

    def score(self, model: Module, report: PruningReport, pre_energy: Dict[str, float],
              measured: Optional[object] = None) -> FrameworkResult:
        """Score an already-pruned ``model`` against the dense baseline.

        ``pre_energy`` is the model's :func:`snapshot_weight_energy` taken before
        pruning; ``measured`` is an optional engine measurement the result carries.
        """
        if not self._baseline_latency:
            self.evaluate_baseline()
        retention = weight_energy_retention(model, pre_energy, report)
        accuracy = estimate_pruned_map(report, self.baseline_map, retention)

        sparsity = SparsityProfile.from_report(report)
        size = estimate_model_size(self.profile, sparsity)

        latency, speedup, energy, reduction = {}, {}, {}, {}
        for platform in self.platforms:
            lat = estimate_latency(self.profile, platform, sparsity)
            en = estimate_energy(self.profile, platform, sparsity, lat)
            latency[platform.name] = lat.total_seconds
            energy[platform.name] = en.total_joules
            speedup[platform.name] = self._baseline_latency[platform.name] / lat.total_seconds
            reduction[platform.name] = 100.0 * (
                1.0 - en.total_joules / self._baseline_energy[platform.name]
            )

        return FrameworkResult(
            framework=report.framework,
            model_name=self.model_key,
            compression_ratio=report.compression_ratio,
            storage_compression_ratio=size.compression_ratio,
            overall_sparsity=report.overall_sparsity,
            map_estimate=accuracy.estimated_map,
            map_baseline=self.baseline_map,
            latency_seconds=latency,
            speedup=speedup,
            energy_joules=energy,
            energy_reduction_percent=reduction,
            report=report,
            accuracy=accuracy,
            measured=measured,
        )
