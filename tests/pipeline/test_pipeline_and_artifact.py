"""The Pipeline's fixed deployment flow and DeployableArtifact persistence."""

from pathlib import Path

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.evaluation.accuracy_proxy import BASELINE_MAP
from repro.evaluation.evaluator import DetectorEvaluator, snapshot_weight_energy
from repro.models import build_model
from repro.pipeline import DeployableArtifact, Pipeline, RunSpec

EXAMPLE_SPEC = Path(__file__).resolve().parents[2] / "examples" / "specs" / "tiny_rtoss3ep.json"

TINY_SPEC = {
    "name": "tiny_test",
    "seed": 0,
    "model": {"name": "tiny",
              "kwargs": {"num_classes": 3, "image_size": 64, "base_channels": 8}},
    "framework": {"name": "rtoss-3ep", "trace_size": 64},
    "quantization": {"enabled": True, "bits": 8},
    "engine": {"enabled": True, "measure": False, "image_size": 64, "batch": 1,
               "repeats": 1},
    "evaluation": {"enabled": True, "image_size": 64, "probe_size": 64},
}


@pytest.fixture(scope="module")
def artifact():
    """One full pipeline run shared by the read-only assertions."""
    return Pipeline.from_spec(RunSpec.from_dict(TINY_SPEC)).run()


class TestPipelineRun:
    def test_stages_ran_in_order(self, artifact):
        assert list(artifact.timings) == ["prune", "quantize", "compile", "evaluate"]

    def test_report_and_masks_populated(self, artifact):
        assert artifact.report.overall_sparsity > 0.3
        assert len(artifact.masks) > 0

    def test_quantization_metadata(self, artifact):
        assert artifact.quantization_meta["bits"] == 8
        assert artifact.quantization_meta["num_layers"] > 0
        assert artifact.quantization_meta["compression_ratio"] == pytest.approx(4.0, rel=0.2)

    def test_engine_compiled(self, artifact):
        assert artifact.compiled is not None
        assert artifact.compiled.num_compiled_layers > 0

    def test_evaluation_metrics(self, artifact):
        metrics = artifact.metrics
        assert metrics["framework"] == "R-TOSS-3EP"
        assert metrics["compression_ratio"] > 1.5
        assert "latency_ms[Jetson TX2]" in metrics
        assert "speedup[RTX 2080Ti]" in metrics
        assert 0 < metrics["mAP"] <= BASELINE_MAP["tiny"] + 10

    def test_metrics_are_the_evaluators_scoring_row(self, artifact):
        """Evaluation is DetectorEvaluator.score over the pipeline's own pruned
        model and report, with the energies of the identical unpruned model."""
        def factory():
            return build_model("tiny", **TINY_SPEC["model"]["kwargs"])

        evaluator = DetectorEvaluator(factory, "tiny", BASELINE_MAP["tiny"],
                                      image_size=64, probe_size=64)
        row = evaluator.score(artifact.model, artifact.report,
                              snapshot_weight_energy(factory())).row()
        assert artifact.metrics == row

    def test_disabled_stages_are_skipped(self):
        spec_dict = dict(TINY_SPEC, name="no_extras",
                         quantization={"enabled": False},
                         engine={"enabled": False},
                         evaluation={"enabled": False})
        result = Pipeline.from_spec(RunSpec.from_dict(spec_dict)).run()
        assert list(result.timings) == ["prune"]
        assert result.compiled is None and result.quantization_meta is None
        assert result.metrics == {}

    def test_seed_changes_are_isolated(self):
        # Two runs with the same seed produce identical masks.
        first = Pipeline.from_spec(RunSpec.from_dict(dict(
            TINY_SPEC, name="a", engine={"enabled": False},
            evaluation={"enabled": False}))).run()
        second = Pipeline.from_spec(RunSpec.from_dict(dict(
            TINY_SPEC, name="b", engine={"enabled": False},
            evaluation={"enabled": False}))).run()
        assert first.masks.signature() == second.masks.signature()


class TestFixedFlow:
    @pytest.mark.parametrize("argument", ["stages", "finetune", "model_factory"])
    def test_the_flow_takes_no_plug_ins(self, argument):
        spec = RunSpec.from_dict(TINY_SPEC)
        with pytest.raises(TypeError):
            Pipeline(spec, **{argument: None})

    def test_measured_speedup_is_published_in_the_metrics(self):
        spec = RunSpec.from_dict(dict(TINY_SPEC, name="measured_eval",
                                      quantization={"enabled": False},
                                      engine={"enabled": True, "measure": True,
                                              "image_size": 64, "batch": 1,
                                              "repeats": 1}))
        result = Pipeline(spec).run()
        assert (result.metrics["pruning_speedup[host]"]
                == round(result.measurement["pruning_speedup"], 2))


class TestDeployableArtifact:
    def test_save_load_round_trip_outputs_match(self, artifact, tmp_path):
        rng = np.random.default_rng(1)
        batch = rng.standard_normal((2, 3, 64, 64)).astype(np.float32)
        live = artifact.forward_raw(batch)

        path = artifact.save(str(tmp_path / "tiny_artifact"))
        assert path.endswith(".npz")
        restored = DeployableArtifact.load(path)
        reloaded = restored.forward_raw(batch)
        assert np.abs(live - reloaded).max() < 1e-5

    def test_loaded_artifact_preserves_report_and_metadata(self, artifact, tmp_path):
        path = artifact.save(str(tmp_path / "meta_artifact"))
        restored = DeployableArtifact.load(path)
        assert restored.report.framework == artifact.report.framework
        assert restored.report.total_parameters == artifact.report.total_parameters
        assert len(restored.report.layers) == len(artifact.report.layers)
        assert restored.masks.signature() == artifact.masks.signature()
        assert restored.quantization_meta["bits"] == 8
        assert restored.metrics == artifact.metrics
        assert restored.spec.to_dict() == artifact.spec.to_dict()

    def test_loaded_artifact_recompiles_engine(self, artifact, tmp_path):
        path = artifact.save(str(tmp_path / "engine_artifact"))
        restored = DeployableArtifact.load(path)
        assert restored.compiled is not None
        assert (restored.compiled.num_compiled_layers
                == artifact.compiled.num_compiled_layers)

    def test_load_rejects_non_artifact_npz(self, tmp_path):
        from repro.utils.serialization import save_state_dict

        path = save_state_dict({"weight": np.ones(3)}, str(tmp_path / "plain"))
        with pytest.raises(ValueError, match="not a DeployableArtifact"):
            DeployableArtifact.load(path)

    def test_load_refuses_older_versions_by_their_version(self, artifact, tmp_path):
        """A version-2 file carries ``engine.int8`` in its spec, a version-3
        one ``serve.max_wait_ms``, a version-4 one a measurement whose
        speedup was taken against the taped dense forward, a version-5 one
        ``serve.pool_capacity`` / ``serve.warmup`` / ``serve.enabled`` and a
        version-6 one ``serve.cluster.autoscaler``: each must be refused for
        its version, before the spec parser sees the key."""
        import json

        from repro.utils.serialization import load_state_dict, save_state_dict

        bundle = load_state_dict(artifact.save(str(tmp_path / "current")))
        meta = json.loads(str(bundle["__artifact__"][()]))
        meta["spec"]["engine"]["int8"] = False
        meta["int8"] = False
        meta["spec"]["serve"]["max_wait_ms"] = 2.0
        meta["spec"]["serve"].update(pool_capacity=2, warmup=True, enabled=False)
        meta["spec"]["serve"]["cluster"]["autoscaler"] = {"enabled": False}
        for version in (1, 2, 3, 4, 5, 6):
            meta["version"] = version
            bundle["__artifact__"] = np.asarray(json.dumps(meta))
            path = save_state_dict(bundle, str(tmp_path / f"v{version}"))
            with pytest.raises(ValueError, match=f"unsupported artifact version {version}"):
                DeployableArtifact.load(path)

    def test_a_current_file_with_an_autoscaler_node_is_refused_by_its_spec(
            self, artifact, tmp_path):
        """The version gate lets a current-version file through; a stored
        ``serve.cluster.autoscaler`` in it is then an unknown key, named as such."""
        import json

        from repro.utils.serialization import load_state_dict, save_state_dict

        bundle = load_state_dict(artifact.save(str(tmp_path / "current")))
        meta = json.loads(str(bundle["__artifact__"][()]))
        meta["spec"]["serve"]["cluster"]["autoscaler"] = {"enabled": False}
        bundle["__artifact__"] = np.asarray(json.dumps(meta))
        path = save_state_dict(bundle, str(tmp_path / "edited"))
        with pytest.raises(ValueError, match=r"ClusterSpec: unknown key\(s\) \['autoscaler'\]"):
            DeployableArtifact.load(path)


class TestCliRun:
    def test_run_command_from_example_spec(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = cli_main(["run", "--spec", str(EXAMPLE_SPEC),
                         "--artifact", str(tmp_path / "cli_artifact.npz")])
        out = capsys.readouterr().out
        assert code == 0
        assert "pipeline run 'tiny_rtoss3ep'" in out
        assert "Evaluation" in out
        assert "artifact reload equivalence" in out and "OK" in out
        assert (tmp_path / "cli_artifact.npz").exists()

    def test_run_command_artifact_flag_overrides_spec_path(self, capsys, tmp_path,
                                                           monkeypatch):
        # --artifact must fully replace the spec's artifact_path: exactly one
        # file is written, at the flag's location.
        monkeypatch.chdir(tmp_path)
        spec = RunSpec.from_dict(dict(TINY_SPEC, name="override",
                                      engine={"enabled": False},
                                      evaluation={"enabled": False}))
        spec.artifact_path = str(tmp_path / "from_spec.npz")
        spec_path = spec.save(str(tmp_path / "spec.json"))
        code = cli_main(["run", "--spec", spec_path,
                         "--artifact", str(tmp_path / "from_flag.npz")])
        capsys.readouterr()
        assert code == 0
        assert (tmp_path / "from_flag.npz").exists()
        assert not (tmp_path / "from_spec.npz").exists()

    def test_run_command_measure_reuses_compiled_engine(self, tmp_path):
        # With measure on, the engine measured is the artifact's own: only the
        # measurement runs a forward here, so it is what traced this engine.
        spec = RunSpec.from_dict(dict(TINY_SPEC, name="measured",
                                      engine={"enabled": True, "measure": True,
                                              "image_size": 64, "batch": 1,
                                              "repeats": 1},
                                      evaluation={"enabled": False}))
        result = Pipeline(spec).run()
        assert result.measurement is not None
        assert result.compiled is not None and result.compiled.fused_active
        assert result.measurement["engine_mode"] == "fused"
        assert result.measurement["max_abs_diff"] < 1e-5
        # One speed number: the paired ratio, published as stored.
        speedup = result.measurement["pruning_speedup"]
        assert speedup > 0
        assert result.summary()["pruning_speedup"] == speedup
        restored = DeployableArtifact.load(result.save(str(tmp_path / "measured")))
        assert restored.measurement["pruning_speedup"] == speedup
        assert restored.summary()["pruning_speedup"] == speedup

    def test_run_command_missing_spec(self, capsys):
        assert cli_main(["run", "--spec", "/does/not/exist.json"]) == 2
        assert "could not load spec" in capsys.readouterr().err

    def test_run_command_unknown_framework_fails_fast(self, capsys, tmp_path):
        spec = RunSpec.from_dict(dict(TINY_SPEC, name="bad"))
        spec.framework.name = "typo-framework"
        path = spec.save(str(tmp_path / "bad.json"))
        assert cli_main(["run", "--spec", path]) == 2
        assert "unknown pruning framework" in capsys.readouterr().err

    def test_run_command_unknown_model_fails_fast(self, capsys, tmp_path):
        spec = RunSpec.from_dict(dict(TINY_SPEC, name="bad_model"))
        spec.model.name = "typo-model"
        path = spec.save(str(tmp_path / "bad_model.json"))
        assert cli_main(["run", "--spec", path]) == 2
        assert "unknown model" in capsys.readouterr().err

    def test_frameworks_command(self, capsys):
        assert cli_main(["frameworks"]) == 0
        out = capsys.readouterr().out
        assert "rtoss-3ep" in out and "R-TOSS-3EP" in out
