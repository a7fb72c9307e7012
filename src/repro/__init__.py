"""R-TOSS reproduction library.

A complete, self-contained reproduction of *R-TOSS: A Framework for Real-Time
Object Detection using Semi-Structured Pruning* (DAC 2023), including:

* ``repro.nn`` — a numpy neural-network substrate (tensors, autograd, layers),
* ``repro.detection`` / ``repro.data`` — detection toolkit and synthetic KITTI data,
* ``repro.models`` — YOLOv5s, RetinaNet and the other detectors the paper references,
* ``repro.core`` — the R-TOSS semi-structured pruning framework itself,
* ``repro.pruning`` — the baseline pruning frameworks compared against,
* ``repro.hardware`` — analytic latency/energy/compression models of the paper's
  evaluation platforms (RTX 2080Ti, Jetson TX2),
* ``repro.evaluation`` / ``repro.experiments`` — end-to-end evaluation and drivers
  that regenerate every table and figure of the paper,
* ``repro.pipeline`` — the unified deployment API: declarative ``RunSpec`` configs,
  the ``Pipeline`` that runs the fixed flow prune → quantize → compile → evaluate
  (scoring through ``repro.evaluation``'s ``DetectorEvaluator``) and single-file
  ``DeployableArtifact`` results (see docs/pipeline.md),
* ``repro.pruning.registry`` — the decorator-based framework registry the pipeline,
  CLI and comparison suite all resolve pruners through,
* ``repro.obs`` — observability for the serving runtime: unified metrics registry,
  cross-process request tracing, per-op engine profiler and the ``repro top``
  dashboard (see docs/observability.md).
"""

from repro.version import __version__

__all__ = ["__version__"]
