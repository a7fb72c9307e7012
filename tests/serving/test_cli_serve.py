"""The `repro serve` CLI subcommand."""

from __future__ import annotations

import pytest

from repro.cli import main as cli_main


class TestServeCommand:
    def test_serve_closed_loop_reports_and_verifies(self, artifact_path, capsys):
        code = cli_main(["serve", "--artifact", artifact_path,
                         "--requests", "12", "--concurrency", "3",
                         "--max-batch-size", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "OK" in out and "MISMATCH" not in out
        for column in ("p50_ms", "p95_ms", "p99_ms", "throughput_rps"):
            assert column in out
        assert "Micro-batch size distribution" in out

    def test_serve_open_loop(self, artifact_path, capsys):
        code = cli_main(["serve", "--artifact", artifact_path,
                         "--requests", "10", "--mode", "open", "--rate", "400",
                         "--no-verify"])
        out = capsys.readouterr().out
        assert code == 0
        assert "open-loop" in out

    def test_serve_defaults_come_from_artifact_spec(self, artifact_path, capsys):
        # The fixture spec bakes serve.requests=16 / max_batch_size=4 defaults.
        code = cli_main(["serve", "--artifact", artifact_path, "--no-verify"])
        out = capsys.readouterr().out
        assert code == 0
        assert "16 requests" in out and "batch<= 4" in out

    def test_serve_missing_artifact_errors(self, tmp_path, capsys):
        code = cli_main(["serve", "--artifact", str(tmp_path / "nope.npz")])
        assert code == 2
        assert "could not load artifact" in capsys.readouterr().err

    def test_serve_rejects_bad_counts(self, artifact_path, capsys):
        assert cli_main(["serve", "--artifact", artifact_path,
                         "--requests", "0"]) == 2
        assert cli_main(["serve", "--artifact", artifact_path,
                         "--workers", "0"]) == 2

    def test_serve_rejects_bad_policy_flags(self, artifact_path, capsys):
        assert cli_main(["serve", "--artifact", artifact_path,
                         "--max-batch-size", "0"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_serve_exits_nonzero_on_equivalence_mismatch(self, artifact_path,
                                                         capsys, monkeypatch):
        """The sequential-equivalence check is a gate, not a report line: a
        mismatch must fail the command (CI smoke jobs rely on the exit code)."""
        import repro.engine

        monkeypatch.setattr(repro.engine, "max_abs_output_diff",
                            lambda *args, **kwargs: 1.0)
        code = cli_main(["serve", "--artifact", artifact_path,
                         "--requests", "6", "--concurrency", "2"])
        assert code == 1
        assert "MISMATCH" in capsys.readouterr().out


class TestServeClusterCommand:
    def test_serve_cluster_closed_loop_verifies_and_reports(self, artifact_path, capsys):
        code = cli_main(["serve", "--artifact", artifact_path,
                         "--workers", "2", "--requests", "12", "--concurrency", "3",
                         "--max-batch-size", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "cluster vs sequential BatchRunner" in out
        assert "OK" in out and "MISMATCH" not in out
        assert "2 workers" in out and "round-robin routing" in out
        assert "Per-worker breakdown" in out
        assert "worker-0" in out and "worker-1" in out

    def test_serve_cluster_routing_flag(self, artifact_path, capsys):
        code = cli_main(["serve", "--artifact", artifact_path,
                         "--workers", "2", "--routing", "least-outstanding",
                         "--requests", "8", "--no-verify"])
        out = capsys.readouterr().out
        assert code == 0
        assert "least-outstanding routing" in out

    def test_serve_cluster_exits_nonzero_on_mismatch(self, artifact_path,
                                                     capsys, monkeypatch):
        import repro.engine

        monkeypatch.setattr(repro.engine, "max_abs_output_diff",
                            lambda *args, **kwargs: 1.0)
        code = cli_main(["serve", "--artifact", artifact_path,
                         "--workers", "2", "--requests", "6"])
        assert code == 1
        assert "MISMATCH" in capsys.readouterr().out
