"""The ``repro profile`` subcommand: span tree + metrics surfacing."""

import json

import pytest

from repro.cli import main
from repro.obs.report import (
    TELEMETRY_SCHEMA_VERSION,
    derived_metrics,
    metrics_table_rows,
    validate_telemetry_document,
)
from repro.obs.trace import read_spans_jsonl


class TestProfileText:
    def test_profile_bench_quick_prints_tree_and_metrics(self, tmp_path, capsys):
        out = tmp_path / "BENCH_3.json"
        code = main(["profile", "bench", "--quick", "--out", str(out)])
        assert code == 0
        captured = capsys.readouterr().out
        # The golden surface: a span tree with the solver hierarchy...
        assert "== span tree" in captured
        for name in ("cli", "bench.run", "qpp.sweep", "ssqpp.solve", "lp.solve"):
            assert name in captured
        # ...with visible nesting (>= 3 indent levels)...
        tree = captured.split("== span tree")[1]
        assert any(line.startswith("      ") for line in tree.splitlines())
        # ...the per-name rollup after the tree...
        assert captured.index("== spans by name") > captured.index("== span tree")
        by_name = captured.split("== spans by name")[1].split("== metrics for")[0]
        assert any(line.startswith("lp.solve ") for line in by_name.splitlines())
        # ...and the metrics table with the headline numbers.
        assert "LP solve count" in captured
        assert "metric cache hit rate" in captured
        assert out.exists()  # the wrapped command still did its job

    def test_profile_forwards_wrapped_exit_code(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        code = main(["profile", "place", "grid:3", "lattice:3:3",
                     "--capacity", "2", "--out", str(out)])
        assert code == 0
        assert "placement" in capsys.readouterr().out

    def test_profile_without_command_errors(self, capsys):
        assert main(["profile"]) == 2
        assert "missing command" in capsys.readouterr().err

    def test_profile_cannot_wrap_itself(self, capsys):
        assert main(["profile", "profile", "gap"]) == 2
        assert "cannot wrap itself" in capsys.readouterr().err


class TestProfileJson:
    def test_json_document_is_schema_valid(self, tmp_path, capsys):
        out = tmp_path / "BENCH_3.json"
        code = main(["profile", "--json", "bench", "--quick", "--out", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        document = json.loads(stdout[stdout.index("{"):])
        validate_telemetry_document(document)
        assert document["telemetry_schema_version"] == TELEMETRY_SCHEMA_VERSION
        assert document["exit_code"] == 0
        assert document["max_depth"] >= 3
        assert document["derived"]["lp_solve_count"] > 0
        assert 0 <= document["derived"]["metric_cache_hit_rate"] <= 1

    def test_trace_and_report_outputs_round_trip(self, tmp_path, capsys):
        spans = tmp_path / "spans.jsonl"
        report = tmp_path / "telemetry.json"
        out = tmp_path / "x.json"
        code = main([
            "profile", "--trace-out", str(spans), "--report-out", str(report),
            "gap", "--k", "3",
        ])
        assert code == 0
        roots = read_spans_jsonl(str(spans))
        assert roots and roots[0].name == "cli"
        document = json.loads(report.read_text())
        validate_telemetry_document(document)
        assert document["command"] == ["gap", "--k", "3"]
        captured = capsys.readouterr().out
        assert str(spans) in captured and str(report) in captured


class TestReportHelpers:
    def test_derived_metrics_hit_rate(self):
        derived = derived_metrics(
            {"lp.solve.count": 4, "metric.cache.builds": 1, "metric.cache.hits": 3}
        )
        assert derived["lp_solve_count"] == 4.0
        assert derived["metric_cache_hit_rate"] == pytest.approx(0.75)

    def test_derived_metrics_empty_cache(self):
        assert derived_metrics({})["metric_cache_hit_rate"] == 0.0

    def test_metrics_table_rows_lead_with_headlines(self):
        rows = metrics_table_rows(
            {"lp.solve.count": 2.0, "zero.count": 0.0}, wall_seconds=1.5
        )
        names = [name for name, _ in rows]
        assert names[0] == "LP solve count"
        assert names[1] == "metric cache hit rate"
        assert "wall seconds" in names
        assert "zero.count" not in names  # zero-delta counters are noise
