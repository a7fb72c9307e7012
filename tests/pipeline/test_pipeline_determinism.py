"""Seeded determinism of the pipeline: same RunSpec + seed, same bits.

Storage quantization sits between pruning and compilation, so a run of the
full flow (prune -> quantize -> compile -> evaluate) is where nondeterminism
could sneak in.  This test pins the end result: two fresh runs of the same
spec produce content-identical artifacts, identical quantization metadata and
metrics, and bit-identical engine outputs — also after a save -> load round
trip.
"""

from __future__ import annotations

import numpy as np

from repro.pipeline import DeployableArtifact, Pipeline, RunSpec
from repro.utils.rng import set_global_seed

SPEC = {
    "name": "pipeline_determinism", "seed": 123,
    "model": {"name": "tiny",
              "kwargs": {"num_classes": 3, "image_size": 64, "base_channels": 16}},
    "framework": {"name": "rtoss-2ep", "trace_size": 64},
    "quantization": {"enabled": True, "bits": 8},
    "engine": {"enabled": True, "measure": False, "image_size": 64,
               "batch": 2, "repeats": 1},
    "evaluation": {"enabled": True, "image_size": 64, "probe_size": 64},
}


def _run():
    set_global_seed(SPEC["seed"])
    return Pipeline.from_spec(RunSpec.from_dict(SPEC)).run()


def test_same_spec_same_seed_is_bit_identical(tmp_path):
    first = _run()
    second = _run()
    # Weights, masks and quantization metadata are content-identical.
    state_a, state_b = first.model.state_dict(), second.model.state_dict()
    assert state_a.keys() == state_b.keys()
    for name in state_a:
        np.testing.assert_array_equal(state_a[name], state_b[name])
    assert first.masks.signature() == second.masks.signature()
    assert first.quantization_meta == second.quantization_meta
    assert first.quantization_meta["bits"] == 8

    # Metrics (the analytic evaluation consumes quantized sizes) match.
    assert first.metrics == second.metrics

    # The engines produce the same bits on the same input.
    x = np.random.default_rng(9).standard_normal(
        (3, 3, 64, 64)).astype(np.float32)
    out_a = first.compiled.forward_raw(x)
    out_b = second.compiled.forward_raw(x)
    assert first.compiled.engine_mode == second.compiled.engine_mode == "fused"
    np.testing.assert_array_equal(out_a, out_b)

    # And the persisted artifacts agree at content level (the .npz zip
    # container itself embeds timestamps, so byte equality is the wrong
    # assertion) — including after a reload round trip.
    loaded_a = DeployableArtifact.load(first.save(str(tmp_path / "a.npz")))
    loaded_b = DeployableArtifact.load(second.save(str(tmp_path / "b.npz")))
    assert loaded_a.quantization_meta == loaded_b.quantization_meta == first.quantization_meta
    np.testing.assert_array_equal(loaded_a.compiled.forward_raw(x),
                                  loaded_b.compiled.forward_raw(x))
    np.testing.assert_array_equal(loaded_a.compiled.forward_raw(x), out_a)
