"""ModelPool / PooledModel: load once per path, always warm, concurrent first gets."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.pipeline import DeployableArtifact
from repro.serving.pool import ModelPool, PooledModel, as_batch_callable


class TestBasics:
    def test_get_loads_once_and_caches(self, artifact_path, images):
        pool = ModelPool()
        entry = pool.get(artifact_path)
        assert pool.get(artifact_path) is entry
        out = entry.run(images[:2])
        assert out.shape[0] == 2

    def test_objects_are_served_as_they_are(self, serve_artifact, images):
        entry = PooledModel(serve_artifact)
        assert entry.model is serve_artifact
        assert entry.engine_mode == "fused"
        np.testing.assert_allclose(entry.run(images[:1]),
                                   serve_artifact.forward_raw(images[:1]),
                                   atol=0, rtol=0)

    def test_construction_warms(self, serve_artifact):
        """Serving always warms: one forward pass runs before the entry is returned."""
        calls = []

        class Counting:
            spec = serve_artifact.spec

            def forward_raw(self, batch):
                calls.append(batch.shape)
                return batch

        PooledModel(Counting())
        assert calls == [(1, 3, 64, 64)]

    def test_as_batch_callable_rejects_unknown(self):
        with pytest.raises(TypeError, match="cannot serve"):
            as_batch_callable(object())


class TestConcurrency:
    def test_concurrent_first_gets_share_one_load(self, artifact_path, monkeypatch):
        loads = []
        load_lock = threading.Lock()
        load = DeployableArtifact.load

        def counting_load(path):
            with load_lock:
                loads.append(path)
            return load(path)

        monkeypatch.setattr(DeployableArtifact, "load", staticmethod(counting_load))
        pool = ModelPool()
        entries = [None] * 4
        barrier = threading.Barrier(4)

        def worker(index):
            barrier.wait()
            entries[index] = pool.get(artifact_path)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30.0)
        assert all(e is not None for e in entries)
        assert len(loads) == 1, "concurrent gets of one path must share one load"
        assert len({id(e) for e in entries}) == 1


class TestPooledModel:
    def test_default_image_shape_from_spec(self, serve_artifact):
        entry = PooledModel(serve_artifact)
        assert entry.default_image_shape() == (3, 64, 64)

    def test_pool_entry_outputs_match_direct_artifact(self, artifact_path,
                                                      serve_artifact, images):
        entry = ModelPool().get(artifact_path)
        np.testing.assert_allclose(entry.run(images[:3]),
                                   serve_artifact.forward_raw(images[:3]),
                                   atol=1e-5, rtol=0)
