"""Unified deployment pipeline: the canonical public API of the reproduction.

The paper's value proposition is an *end-to-end deployment flow* — prune with
Algorithms 1-3, optionally quantize, compile for the target, evaluate.  This
package exposes that flow as one serializable surface:

* :class:`RunSpec` (:mod:`repro.pipeline.spec`) — a declarative dataclass tree
  (model + framework + quantization + engine + evaluation sections) that
  round-trips to/from plain dicts and JSON files,
* :class:`Pipeline` (:mod:`repro.pipeline.pipeline`) — runs the fixed flow
  prune → quantize → compile → evaluate, each optional step switched by its
  spec section; evaluation scores through
  :meth:`repro.evaluation.evaluator.DetectorEvaluator.score`,
* :class:`DeployableArtifact` (:mod:`repro.pipeline.artifact`) — the result: a
  pruned (+quantized, +compiled) model that saves to / loads from a single
  portable ``.npz`` file,
* the pruning-framework registry it consumes lives in
  :mod:`repro.pruning.registry`.

Quick use::

    from repro.pipeline import Pipeline, RunSpec

    artifact = Pipeline.from_spec("examples/specs/tiny_rtoss3ep.json").run()
    artifact.save("tiny_rtoss3ep.npz")

or from the command line::

    python -m repro.cli run --spec examples/specs/tiny_rtoss3ep.json
"""

from repro.pipeline.artifact import ARTIFACT_VERSION, DeployableArtifact
from repro.pipeline.pipeline import Pipeline
from repro.pipeline.spec import (
    EngineSpec,
    EvaluationSpec,
    FrameworkSpec,
    ModelSpec,
    QuantizationSpec,
    RunSpec,
    ServeSpec,
)

__all__ = [
    "ARTIFACT_VERSION", "DeployableArtifact", "Pipeline",
    "EngineSpec", "EvaluationSpec", "FrameworkSpec", "ModelSpec",
    "QuantizationSpec", "RunSpec", "ServeSpec",
]
