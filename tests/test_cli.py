"""Tests for the ``python -m repro.bench`` command-line entry point."""

import pytest

from repro.bench.__main__ import FIGURES, main


class TestCli:
    def test_figures_registry(self):
        assert set(FIGURES) == {
            "7a", "7b", "7c", "7d", "headline", "modes", "transport",
            "streaming", "serving", "plans", "rebalance", "pushdown",
            "parallel",
        }

    def test_runs_modes_figure(self, capsys):
        exit_code = main(
            ["--figure", "modes", "--scale", "0.0005", "--repetitions", "1"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "simulated vs threads" in output
        assert "DIFF" not in output

    def test_modes_json_records_lane_estimates(self, capsys, tmp_path):
        import json

        path = tmp_path / "modes.json"
        exit_code = main(
            [
                "--figure", "modes",
                "--scale", "0.0005",
                "--repetitions", "1",
                "--json", str(path),
            ]
        )
        assert exit_code == 0
        payload = json.loads(path.read_text())
        assert payload["byte_identical"] is True
        timings = [
            timing
            for run in payload["runs"]
            for timing in run["lane_timings"]
        ]
        assert timings
        for timing in timings:
            assert timing["plan_node"].startswith("scan")
            assert timing["estimated_seconds"] > 0.0
            assert timing["simulated_seconds"] > 0.0
            assert timing["threads_seconds"] > 0.0

    def test_plans_figure_prints_explain_trees(self, capsys):
        exit_code = main(["--figure", "plans", "--scale", "0.0005"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "PhysicalPlan" in output
        assert "compose [concat]" in output
        assert "id-join" in output
        assert "merge-aggregate" in output

    def test_plans_golden_update_then_match_then_drift(self, capsys, tmp_path):
        golden = tmp_path / "plans"
        assert main(
            [
                "--figure", "plans", "--scale", "0.0005",
                "--golden-dir", str(golden), "--update-golden",
            ]
        ) == 0
        assert main(
            [
                "--figure", "plans", "--scale", "0.0005",
                "--golden-dir", str(golden),
            ]
        ) == 0
        assert "golden plans match" in capsys.readouterr().out
        # Corrupt one golden: the comparison must fail with a diff.
        victim = next(golden.glob("*.txt"))
        victim.write_text(victim.read_text() + "drift\n", encoding="utf-8")
        assert main(
            [
                "--figure", "plans", "--scale", "0.0005",
                "--golden-dir", str(golden),
            ]
        ) == 1
        assert "-drift" in capsys.readouterr().out

    def test_golden_flags_require_plans_figure(self, tmp_path):
        with pytest.raises(SystemExit):
            main(
                [
                    "--figure", "7c",
                    "--scale", "0.0005",
                    "--golden-dir", str(tmp_path),
                ]
            )

    def test_runs_a_tiny_figure(self, capsys):
        exit_code = main(
            ["--figure", "7c", "--scale", "0.0005", "--repetitions", "1"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "XBenchVer" in output
        assert "Q10" in output

    def test_transmission_flag(self, capsys):
        main(
            [
                "--figure", "7c",
                "--scale", "0.0005",
                "--repetitions", "1",
                "--transmission",
            ]
        )
        assert "with transmission" in capsys.readouterr().out

    def test_runs_transport_figure_and_writes_json(self, capsys, tmp_path):
        import json

        path = tmp_path / "transport.json"
        exit_code = main(
            [
                "--figure", "transport",
                "--scale", "0.0005",
                "--repetitions", "1",
                "--json", str(path),
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "transport comparison" in output
        assert "(wire)" in output
        assert "ANSWERS DIFFER" not in output
        payload = json.loads(path.read_text())
        assert payload["byte_identical"] is True
        assert payload["modes"] == ["simulated", "threads", "tcp"]
        tcp_lanes = [
            lane
            for run in payload["runs"]
            for lane in run["lanes"]
            if lane["mode"] == "tcp"
        ]
        assert tcp_lanes and all(lane["wire_measured"] for lane in tcp_lanes)
        assert all(lane["bytes_sent"] > 0 for lane in tcp_lanes)

    def test_runs_streaming_figure_and_writes_json(self, capsys, tmp_path):
        import json

        path = tmp_path / "streaming.json"
        exit_code = main(
            [
                "--figure", "streaming",
                "--scale", "0.0005",
                "--repetitions", "1",
                "--json", str(path),
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "monolithic vs streamed" in output
        assert "ANSWERS DIFFER" not in output
        payload = json.loads(path.read_text())
        assert payload["byte_identical"] is True
        assert payload["checks"]["peak_buffer_bounded"] is True
        assert payload["checks"]["aggregate_wire_o_fragments"] is True
        streamed_lanes = [
            lane
            for run in payload["runs"]
            for lane in run["lanes"]
            if lane["mode"] == "tcp-stream"
        ]
        assert streamed_lanes
        assert all(lane["streamed"] for lane in streamed_lanes)

    def test_runs_pushdown_figure_and_writes_json(self, capsys, tmp_path):
        import json

        path = tmp_path / "pushdown.json"
        exit_code = main(
            [
                "--figure", "pushdown",
                "--scale", "0.002",
                "--repetitions", "1",
                "--json", str(path),
            ]
        )
        assert exit_code == 0
        payload = json.loads(path.read_text())
        assert payload["configs"] == ["no-indexes", "index-candidates"]
        assert payload["checks"] == {
            "byte_identical": True,
            "pushdown_not_slower": True,
        }

    def test_json_flag_rejected_for_figures_without_payload(self, tmp_path):
        with pytest.raises(SystemExit):
            main(
                [
                    "--figure", "7c",
                    "--scale", "0.0005",
                    "--repetitions", "1",
                    "--json", str(tmp_path / "nope.json"),
                ]
            )

    def test_requires_figure(self):
        with pytest.raises(SystemExit):
            main([])

    def test_rejects_unknown_figure(self):
        with pytest.raises(SystemExit):
            main(["--figure", "9z"])
