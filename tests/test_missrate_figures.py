"""Tests for the miss-rate figure harness internals."""

import pytest

from repro.experiments.common import ExperimentScale
from repro.experiments.missrate_figures import (
    FIG4,
    FIG5,
    FIG12,
    Fig12Result,
    Panel,
    ReductionPanel,
)

TINY = ExperimentScale(data_n=5_000, instr_n=5_000, instructions=2_000)
SPECS = ("2way", "8way", "mf8_bas8")


@pytest.fixture(scope="module")
def panel() -> ReductionPanel:
    return Panel(("gzip", "mcf"), "data", specs=SPECS).run(TINY)


class TestReductionPanel:
    def test_structure(self, panel):
        assert panel.benchmarks == ("gzip", "mcf")
        assert panel.specs == SPECS
        assert set(panel.reductions) == set(SPECS)

    def test_baseline_rates_recorded(self, panel):
        assert 0.0 < panel.baseline_rates["gzip"] < 1.0

    def test_average_is_mean_of_benchmarks(self, panel):
        spec = "8way"
        manual = sum(panel.reductions[spec].values()) / 2
        assert panel.average(spec) == pytest.approx(manual)

    def test_render_contains_all_rows(self, panel):
        text = panel.render()
        for benchmark in panel.benchmarks:
            assert benchmark in text
        assert "Ave" in text

    def test_render_chart(self, panel):
        chart = panel.render_chart()
        assert "#" in chart

    def test_invalid_side_rejected(self):
        with pytest.raises(ValueError):
            Panel(("gzip",), "both", specs=("2way",)).run(TINY)


class TestFigureRunners:
    def test_fig4_panels_cover_suites(self):
        result = FIG4.run(TINY.scaled(0.5))
        assert len(result.cint.benchmarks) == 12
        assert len(result.cfp.benchmarks) == 14
        text = result.render()
        assert "CFP2K" in text and "CINT2K" in text

    def test_fig5_covers_reported(self):
        panel = FIG5.run(TINY.scaled(0.5))
        assert len(panel.benchmarks) == 15
        assert panel.side == "instr"

    def test_fig12_four_panels(self):
        result = FIG12.run(
            ExperimentScale(data_n=2_000, instr_n=2_000, instructions=1_000)
        )
        assert isinstance(result, Fig12Result)
        assert len(result.panels) == 4
        sizes = [panel.size for panel in result.panels]
        assert sizes == [32 * 1024, 32 * 1024, 8 * 1024, 8 * 1024]
        assert "32K D$" in result.render()
