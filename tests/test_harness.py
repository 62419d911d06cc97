"""Harness: runner caching/pairing, experiment report structure, CLI."""

import pytest

from repro.harness.cli import main as cli_main
from repro.harness.experiments import EXPERIMENTS, run_experiment
from repro.harness.reporting import ExperimentReport, format_table
from repro.harness.runner import ExperimentRunner, RunSettings

QUICK = RunSettings(capacity_factor=8, refs_per_core=500,
                    warmup_refs_per_core=200, num_seeds=2)


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner(QUICK)


class TestRunner:
    def test_run_cached(self, runner):
        a = runner.run_one("shared", "apache", runner.seeds[0])
        b = runner.run_one("shared", "apache", runner.seeds[0])
        assert a is b

    def test_traces_paired_across_architectures(self, runner):
        a = runner.run_one("shared", "apache", runner.seeds[0])
        b = runner.run_one("private", "apache", runner.seeds[0])
        assert a.memory_accesses == b.memory_accesses

    def test_aggregate_counts_seeds(self, runner):
        agg = runner.aggregate("shared", "apache")
        assert len(agg.runs) == 2
        assert agg.performance > 0

    def test_custom_runs_cached_by_name(self, runner):
        a = runner.run_custom("esp[x]", runner.config, "esp-nuca", "apache",
                              runner.seeds[0])
        b = runner.run_custom("esp[x]", runner.config, "esp-nuca", "apache",
                              runner.seeds[0])
        assert a is b
        assert a.architecture == "esp[x]"

    def test_settings_quick(self):
        quick = RunSettings().quick()
        assert quick.num_seeds == 1
        assert quick.refs_per_core < RunSettings().refs_per_core


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["name", "v"], [["a", 1.5], ["bb", 2.25]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "1.500" in text and "2.250" in text

    def test_report_value_lookup(self):
        report = ExperimentReport("figX", "t", columns=["w1", "w2"],
                                  series={"arch": [1.0, 2.0]})
        assert report.value("arch", "w2") == 2.0

    def test_report_format_contains_notes(self):
        report = ExperimentReport("figX", "t", columns=["w"],
                                  series={"a": [1.0]}, notes=["hello"])
        assert "hello" in report.format()


class TestExperiments:
    def test_registry_covers_all_figures(self):
        assert {"fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
                "stability", "ablation"} <= set(EXPERIMENTS)

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            run_experiment("fig99")

    def test_fig8_structure(self, runner):
        report = run_experiment("fig8", runner)
        assert report.columns[-1] == "GMEAN"
        assert set(report.series) == {"shared", "private", "d-nuca", "asr",
                                      "cc-avg", "cc-best", "cc-worst",
                                      "esp-nuca"}
        assert all(v == pytest.approx(1.0) for v in report.series["shared"])
        for values in report.series.values():
            assert len(values) == len(report.columns)

    def test_cc_best_at_least_avg(self, runner):
        report = run_experiment("fig8", runner)
        for best, avg, worst in zip(report.series["cc-best"],
                                    report.series["cc-avg"],
                                    report.series["cc-worst"]):
            assert worst <= avg <= best

    def test_fig6_has_decomposition_tables(self, runner):
        report = run_experiment("fig6", runner)
        assert "apache" in report.extra
        assert "off-chip" in report.columns


class TestCli:
    def test_list(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig8" in out and "apache" in out

    def test_single_run(self, capsys):
        rc = cli_main(["run", "--arch", "shared", "--workload", "gcc-4",
                       "--seeds", "1", "--refs", "300", "--warmup", "100"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "performance" in out

    def test_experiment_dispatch(self, capsys):
        rc = cli_main(["fig4", "--seeds", "1", "--refs", "200",
                       "--warmup", "50"])
        assert rc == 0
        assert "fig4" in capsys.readouterr().out

    def test_json_export(self, capsys, tmp_path):
        rc = cli_main(["fig5", "--seeds", "1", "--refs", "200",
                       "--warmup", "50", "--json", str(tmp_path)])
        assert rc == 0
        exported = (tmp_path / "fig5.json").read_text()
        from repro.harness.reporting import ExperimentReport
        report = ExperimentReport.from_json(exported)
        assert report.experiment == "fig5"
        assert "esp-nuca" in report.series

    def test_chart_flag(self, capsys):
        rc = cli_main(["fig4", "--seeds", "1", "--refs", "200",
                       "--warmup", "50", "--chart"])
        assert rc == 0
        assert "█" in capsys.readouterr().out

    def test_overhead_subcommand(self, capsys):
        assert cli_main(["overhead"]) == 0
        assert "Section 5.2" in capsys.readouterr().out

    def test_trace_subcommand(self, capsys, tmp_path):
        out = str(tmp_path / "w.trace.gz")
        rc = cli_main(["trace", "--workload", "gzip-4", "--refs", "100",
                       "--warmup", "0", "--seeds", "1", "--out", out])
        assert rc == 0
        from repro.workloads.tracefile import trace_info
        assert trace_info(out)["workload"] == "gzip-4"
