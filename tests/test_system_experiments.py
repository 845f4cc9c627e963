"""Integration tests for the system-level experiments (Figs 8/9, Tab 7)
and the experiment/CLI plumbing."""

import pytest

from repro.experiments import comparisons, perf_energy, tab7_balance
from repro.experiments.circuit_tables import run_tab1, run_tab2, run_tab3
from repro.experiments.common import ExperimentScale, run_system
from repro.experiments.fig3_mf_sweep import MFSweep
from repro.experiments.missrate_figures import Panel
from repro.experiments.reporting import format_table, percent

TINY = ExperimentScale(data_n=12_000, instr_n=15_000, instructions=8_000, seed=2006)


class TestRunSystem:
    def test_returns_execution_result(self):
        result = run_system("dm", "gzip", TINY)
        assert result.instructions == TINY.instructions
        assert 0 < result.ipc < 4.0

    def test_bcache_ipc_at_least_baseline_on_conflict_benchmark(self):
        base = run_system("dm", "equake", TINY)
        bcache = run_system("mf8_bas8", "equake", TINY)
        assert bcache.ipc > base.ipc

    def test_victim_buffer_extra_cycle_charged(self):
        result = run_system("victim16", "wupwise", TINY)
        hierarchy = result.hierarchy
        assert hierarchy.l1d.slow_hits > 0


class TestFig89:
    @pytest.fixture(scope="class")
    def result(self):
        return perf_energy.run(
            TINY,
            benchmarks=("equake", "gzip", "mcf"),
            specs=("dm", "8way", "mf8_bas8", "victim16"),
        )

    def test_average_ipc_improvement_positive(self, result):
        assert result.average_ipc_improvement("mf8_bas8") > 0.0

    def test_bcache_close_to_8way_ipc(self, result):
        """Section 6.1: B-Cache within a hair of the 8-way cache."""
        gap = result.average_ipc_improvement("8way") - result.average_ipc_improvement(
            "mf8_bas8"
        )
        assert gap < 0.05

    def test_bcache_above_victim_buffer_ipc(self, result):
        assert result.average_ipc_improvement("mf8_bas8") >= result.average_ipc_improvement(
            "victim16"
        )

    def test_equake_sees_largest_gain(self, result):
        gains = {
            b: result.ipc_improvement("mf8_bas8", b) for b in result.benchmarks
        }
        assert max(gains, key=gains.get) == "equake"

    def test_bcache_saves_energy_vs_baseline(self, result):
        """Figure 9: B-Cache averages below 1.0 (2% saving in paper)."""
        assert result.average_normalized_energy("mf8_bas8") < 1.0

    def test_8way_burns_more_energy_than_bcache(self, result):
        assert result.average_normalized_energy(
            "8way"
        ) > result.average_normalized_energy("mf8_bas8")

    def test_renders(self, result):
        text = result.render()
        assert "Figure 8" in text and "Figure 9" in text
        assert "equake" in text


class TestTab7:
    @pytest.fixture(scope="class")
    def result(self):
        return tab7_balance.Balance(benchmarks=("equake", "mcf", "ammp")).run(TINY)

    def test_miss_concentration_collapses(self, result):
        """The B-Cache's whole point: conflict misses de-concentrate.
        Intensity = (share of misses) / (share of sets): how many times
        the uniform rate the frequent-miss sets absorb.  equake's
        baseline concentrates its conflicts in a handful of sets; the
        B-Cache spreads them across the clusters."""
        row = next(r for r in result.rows if r.benchmark == "equake")

        def intensity(report):
            if report.frequent_miss_sets == 0:
                return 0.0
            return report.frequent_miss_share / report.frequent_miss_sets

        assert intensity(row.bcache) < intensity(row.baseline) / 3

    def test_mcf_has_no_frequent_miss_concentration(self, result):
        row = next(r for r in result.rows if r.benchmark == "mcf")
        assert row.baseline.frequent_miss_share < 0.2

    def test_less_accessed_sets_shrink_on_average(self, result):
        base_ave, bc_ave = result.averages()
        assert bc_ave.less_accessed_sets <= base_ave.less_accessed_sets + 0.02

    def test_renders(self, result):
        assert "Table 7" in result.render()


class TestFig3:
    def test_sweep_runs_and_renders(self):
        result = MFSweep(mapping_factors=(2, 8, 64, 512)).run(TINY)
        assert len(result.points) == 4
        assert "Figure 3" in result.render()

    def test_miss_rate_falls_across_sweep(self):
        result = MFSweep(mapping_factors=(8, 512)).run(TINY)
        assert result.miss_rates()[1] < result.miss_rates()[0]


class TestPanels:
    def test_panel_structure(self):
        panel = Panel(("gzip", "mcf"), "data", specs=("2way", "mf8_bas8")).run(TINY)
        assert panel.benchmarks == ("gzip", "mcf")
        assert 0 <= panel.average("2way") <= 1
        text = panel.render()
        assert "gzip" in text and "Ave" in text


class TestComparisons:
    def test_hac_close_to_bcache(self):
        result = comparisons.HAC.run(
            ExperimentScale(data_n=8_000, instr_n=8_000, instructions=4_000)
        )
        assert result.hac_cam_bits == 26
        assert result.bcache_pd_bits == 6
        assert "HAC" in result.render()

    def test_replacement_lru_at_least_random(self):
        result = comparisons.Replacement(
            benchmarks=("equake", "crafty"), policies=("lru", "random")
        ).run(ExperimentScale(data_n=8_000, instr_n=8_000, instructions=4_000))
        assert result.data_reduction["lru"] >= result.data_reduction["random"] - 0.02


class TestCircuitTables:
    def test_tab1(self):
        result = run_tab1()
        assert result.all_have_slack
        assert "Table 1" in result.render()

    def test_tab2(self):
        result = run_tab2()
        assert result.overhead == pytest.approx(0.043, abs=0.002)
        assert "4.3" in result.render()

    def test_tab3(self):
        result = run_tab3()
        assert result.overhead == pytest.approx(0.105, abs=0.005)
        assert result.bcache_below(8) > 0.6
        assert "Table 3" in result.render()


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(("a", "bb"), [(1, 2.5), (10, 3.25)], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "2.5" in text and "3.2" in text

    def test_percent(self):
        assert percent(0.125) == "12.5%"


class TestCLI:
    def test_list(self, capsys):
        from repro.cli import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig4" in out and "tab7" in out

    def test_unknown_experiment(self, capsys):
        from repro.cli import main

        assert main(["nope"]) == 2

    def test_runs_tab2(self, capsys):
        from repro.cli import main

        assert main(["tab2", "--scale", "smoke"]) == 0
        assert "Table 2" in capsys.readouterr().out
