"""Deployable artifacts: one portable file per pruned (+quantized, +compiled) model.

A :class:`DeployableArtifact` is what :meth:`repro.pipeline.Pipeline.run`
returns: the pruned model, its :class:`~repro.core.masks.MaskSet` and
:class:`~repro.core.report.PruningReport`, quantization metadata, the compiled
execution engine and the evaluation metrics, bundled behind ``save()`` /
``load()`` built on :mod:`repro.utils.serialization`.  Saving produces a single
``.npz`` file; loading rebuilds the model from the spec, restores the weights
and masks, and recompiles the engine — so a deployed model travels as one file
and comes back executable::

    artifact = Pipeline.from_spec(spec).run()
    path = artifact.save("yolo_rtoss3ep.npz")
    restored = DeployableArtifact.load(path)
    outputs = restored(batch)            # compiled no-grad inference
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

import numpy as np

from repro.core.masks import MaskSet, PruningMask
from repro.core.report import LayerReport, PruningReport
from repro.engine.compiler import CompiledModel, compile_model
from repro.models import build_model
from repro.nn.module import Module
from repro.nn.tensor import Tensor, no_grad
from repro.pipeline.spec import RunSpec
from repro.utils.serialization import load_state_dict, save_state_dict

#: Format version written into every artifact (bump on incompatible changes).
ARTIFACT_VERSION = 8

_META_KEY = "__artifact__"
_STATE_PREFIX = "state::"
_MASK_PREFIX = "mask::"


@dataclass
class DeployableArtifact:
    """The end product of a pipeline run: a deployable pruned model bundle."""

    spec: RunSpec
    model: Module
    report: PruningReport
    #: Quantization metadata (bits, per-layer counts, compression) or None.
    quantization_meta: Optional[Dict[str, Any]] = None
    #: The execution engine of ``model`` (None when EngineSpec.enabled is False).
    compiled: Optional[CompiledModel] = None
    #: Wall-clock EngineMeasurement row() dict when ``engine.measure`` was on.
    measurement: Optional[Dict[str, Any]] = None
    #: Evaluation metrics: the ``FrameworkResult.row()`` of
    #: ``DetectorEvaluator.score`` (empty when evaluation is off).
    metrics: Dict[str, Any] = field(default_factory=dict)
    #: Per-step wall-clock seconds, in execution order.
    timings: Dict[str, float] = field(default_factory=dict)
    #: The file this artifact was last saved to or loaded from (None while it
    #: exists only in memory) — what a worker cluster's processes load.
    path: Optional[str] = None

    # ------------------------------------------------------------------ inference
    @property
    def masks(self) -> MaskSet:
        return self.report.masks

    def __call__(self, x) -> Tensor:
        """No-grad inference through the compiled engine (or the plain model)."""
        if self.compiled is not None:
            return self.compiled(x)
        if isinstance(x, np.ndarray):
            x = Tensor(np.asarray(x, dtype=np.float32))
        self.model.eval()
        with no_grad():
            return self.model(x)

    def forward_raw(self, data: np.ndarray):
        """Numpy-in / numpy-out inference (the serving layer's hot path).

        Delegates to :meth:`repro.engine.compiler.CompiledModel.forward_raw`
        when the artifact has an engine — raw arrays end to end, no per-request
        Tensor wrapping.  Nested outputs (multi-scale detector heads) come
        back as the same structure of numpy arrays; compare two calls with
        :func:`repro.engine.max_abs_output_diff`.
        """
        if self.compiled is not None:
            return self.compiled.forward_raw(data)
        from repro.engine.runner import _to_numpy

        return _to_numpy(self(Tensor(np.asarray(data, dtype=np.float32))))

    # ------------------------------------------------------------------ reporting
    def summary(self) -> Dict[str, Any]:
        """One flat row describing the artifact (used by the CLI)."""
        row: Dict[str, Any] = dict(self.report.summary())
        if self.quantization_meta:
            row["quantized_bits"] = self.quantization_meta.get("bits")
        if self.compiled is not None:
            row["compiled_layers"] = self.compiled.num_compiled_layers
        if self.measurement:
            row["pruning_speedup"] = self.measurement.get("pruning_speedup")
        return row

    # ------------------------------------------------------------------ persistence
    def save(self, path: str) -> str:
        """Write the artifact as a single ``.npz`` file; returns the path written."""
        meta = {
            "version": ARTIFACT_VERSION,
            "spec": self.spec.to_dict(),
            "model_class": type(self.model).__name__,
            "report": {
                "framework": self.report.framework,
                "model_name": self.report.model_name,
                "total_parameters": self.report.total_parameters,
                "extra": _jsonable(self.report.extra),
                "layers": [
                    {
                        "layer_name": layer.layer_name,
                        "kernel_size": list(layer.kernel_size),
                        "total_weights": layer.total_weights,
                        "kept_weights": layer.kept_weights,
                        "method": layer.method,
                        "group_parent": layer.group_parent,
                    }
                    for layer in self.report.layers
                ],
            },
            "mask_signature": self.masks.signature() if len(self.masks) else None,
            "quantization": _jsonable(self.quantization_meta),
            # load() recompiles accordingly, so serving processes
            # (InferenceService / cluster WorkerProcess) get the engine too.
            "compiled": self.compiled is not None,
            "measurement": _jsonable(self.measurement),
            "metrics": _jsonable(self.metrics),
            "timings": _jsonable(self.timings),
        }
        bundle: Dict[str, np.ndarray] = {
            _META_KEY: np.asarray(json.dumps(meta)),
        }
        for name, array in self.model.state_dict().items():
            bundle[_STATE_PREFIX + name] = np.asarray(array)
        for mask in self.masks:
            bundle[_MASK_PREFIX + mask.full_name] = mask.mask.astype(np.uint8)
        self.path = save_state_dict(bundle, path)
        return self.path

    @classmethod
    def load(cls, path: str) -> "DeployableArtifact":
        """Rebuild a saved artifact: model + weights + masks (+ recompiled engine)."""
        bundle = load_state_dict(path)
        if _META_KEY not in bundle:
            raise ValueError(f"{path!r} is not a DeployableArtifact bundle "
                             f"(missing {_META_KEY!r} entry)")
        meta = json.loads(str(bundle[_META_KEY][()]))
        version = meta.get("version")
        if version != ARTIFACT_VERSION:
            raise ValueError(f"unsupported artifact version {version!r} "
                             f"(this build reads version {ARTIFACT_VERSION})")

        spec = RunSpec.from_dict(meta["spec"])
        model = build_model(spec.model.name, **spec.model.kwargs)
        state = {name[len(_STATE_PREFIX):]: array for name, array in bundle.items()
                 if name.startswith(_STATE_PREFIX)}
        model.load_state_dict(state)
        model.eval()

        masks = MaskSet()
        for name, array in bundle.items():
            if not name.startswith(_MASK_PREFIX):
                continue
            full_name = name[len(_MASK_PREFIX):]
            layer_name, _, parameter_name = full_name.rpartition(".")
            masks.add(PruningMask(layer_name, parameter_name,
                                  array.astype(np.float32)))
        if len(masks):
            # Weights were saved already masked; applying re-registers the masks
            # on the layers (and is a no-op on the values).
            masks.apply(model)

        report_meta = meta["report"]
        report = PruningReport(
            framework=report_meta["framework"],
            model_name=report_meta["model_name"],
            total_parameters=int(report_meta["total_parameters"]),
            masks=masks,
            extra=dict(report_meta.get("extra") or {}),
            layers=[
                LayerReport(
                    layer_name=layer["layer_name"],
                    kernel_size=tuple(layer["kernel_size"]),
                    total_weights=int(layer["total_weights"]),
                    kept_weights=int(layer["kept_weights"]),
                    method=layer.get("method", ""),
                    group_parent=layer.get("group_parent"),
                )
                for layer in report_meta.get("layers", [])
            ],
        )

        signature = meta.get("mask_signature")
        if signature and masks.signature() != signature:
            raise ValueError(f"artifact {path!r} is corrupt: mask signature "
                             f"mismatch ({masks.signature()} != {signature})")

        compiled = None
        if meta.get("compiled"):
            compiled = compile_model(model, masks if len(masks) else None,
                                     apply_masks=False)

        return cls(
            spec=spec,
            model=model,
            report=report,
            quantization_meta=meta.get("quantization"),
            compiled=compiled,
            measurement=meta.get("measurement"),
            metrics=dict(meta.get("metrics") or {}),
            timings=dict(meta.get("timings") or {}),
            path=path,
        )


def _jsonable(value: Any) -> Any:
    """Recursively coerce numpy scalars so ``json.dumps`` accepts the metadata."""
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value
