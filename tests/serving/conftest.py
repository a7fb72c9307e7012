"""Shared serving-test fixtures: one tiny artifact built and saved once."""

from __future__ import annotations

import numpy as np
import pytest

from repro.pipeline import DeployableArtifact, Pipeline, RunSpec

TINY_SERVE_SPEC = {
    "name": "tiny_serve_test",
    "seed": 0,
    "model": {"name": "tiny",
              "kwargs": {"num_classes": 3, "image_size": 64, "base_channels": 8}},
    "framework": {"name": "rtoss-2ep", "trace_size": 64},
    "engine": {"enabled": True, "measure": False, "image_size": 64, "batch": 1,
               "repeats": 1},
    "evaluation": {"enabled": False},
    "serve": {"max_batch_size": 4,
              "queue_capacity": 64, "requests": 16, "concurrency": 4},
}


@pytest.fixture(scope="session")
def serve_artifact() -> DeployableArtifact:
    """One pruned + compiled TinyDetector artifact shared by the serving tests."""
    return Pipeline.from_spec(RunSpec.from_dict(TINY_SERVE_SPEC)).run()


@pytest.fixture(scope="session")
def artifact_path(serve_artifact, tmp_path_factory) -> str:
    """The same artifact saved to disk (for pool/CLI tests that load by path)."""
    path = tmp_path_factory.mktemp("serving") / "tiny_serve_test.npz"
    return serve_artifact.save(str(path))


@pytest.fixture
def images() -> np.ndarray:
    rng = np.random.default_rng(7)
    return rng.standard_normal((12, 3, 64, 64)).astype(np.float32)
