"""Unit tests for the command-line interface."""

import os

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_defaults(self):
        arguments = build_parser().parse_args(["generate", "blogger"])
        assert arguments.scenario == "blogger"
        assert arguments.size == 500

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestGenerateCommand:
    @pytest.mark.parametrize("scenario", ["blogger", "video", "generic"])
    def test_generates_ntriples_files(self, scenario, tmp_path, capsys):
        base = str(tmp_path / "base.nt")
        instance = str(tmp_path / "instance.nt")
        exit_code = main(
            [
                "generate",
                scenario,
                "--size",
                "30",
                "--base-output",
                base,
                "--instance-output",
                instance,
            ]
        )
        assert exit_code == 0
        assert os.path.getsize(base) > 0
        assert os.path.getsize(instance) > 0
        output = capsys.readouterr().out
        assert "base graph" in output and "AnS instance" in output

    def test_generated_files_parse_back(self, tmp_path):
        from repro.rdf.ntriples import load_ntriples

        base = str(tmp_path / "base.nt")
        instance = str(tmp_path / "instance.nt")
        main(["generate", "video", "--size", "20", "--base-output", base, "--instance-output", instance])
        assert len(load_ntriples(base)) > 0
        assert len(load_ntriples(instance)) > 0


class TestDemoCommand:
    def test_demo_prints_comparison(self, capsys):
        exit_code = main(["demo", "--bloggers", "60"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "slice" in output and "drill-out" in output
        assert "equal=True" in output

    def test_demo_explain_prints_costed_plans(self, capsys):
        exit_code = main(["demo", "--bloggers", "60", "--explain"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "plan: slice dage" in output
        assert "plan: drill-out dage" in output
        assert "cost~" in output
        assert "scratch" in output
        assert "executed plan[" in output

    def test_demo_advise_prints_report_and_comparison(self, capsys):
        exit_code = main(["demo", "--bloggers", "60", "--advise"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "advisor report" in output
        assert "materialize" in output
        assert "pin" in output
        assert "cost model: fitted" in output
        assert "advised (warm + fitted)" in output
        assert "speedup" in output

    def test_demo_serve_runs_and_verifies(self, capsys):
        exit_code = main(["demo", "--serve"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "serving demo" in output
        assert "publish mode" in output
        assert "read latency p50" in output
        assert "verified 32/32" in output

    def test_demo_serve_follows_its_seeded_plan(self, capsys):
        """Seed 7 fixes which of the 40 requests write: 8 writes, each one a
        publish, and the 32 reads all admitted."""
        assert main(["demo", "--serve"]) == 0
        output = capsys.readouterr().out
        assert "32 served, 8 writes, 0 rejected, 8 publishes" in output

    def test_demo_serve_verifies_in_heap_mode(self, capsys, monkeypatch):
        from repro.serving import generations

        resolve = generations.resolve_publish_mode
        monkeypatch.setattr(
            generations,
            "resolve_publish_mode",
            lambda mode="auto": "heap" if mode == "auto" else resolve(mode),
        )
        assert main(["demo", "--serve"]) == 0
        output = capsys.readouterr().out
        assert "publish mode 'heap'" in output
        assert "verified 32/32" in output

    def test_demo_serve_fails_on_a_divergent_cube(self, capsys, monkeypatch):
        from repro.olap.cube import Cube

        monkeypatch.setattr(Cube, "same_cells", lambda self, other: False)
        assert main(["demo", "--serve"]) == 1
        assert "verified 0/32" in capsys.readouterr().out
