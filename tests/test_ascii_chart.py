"""Tests for the ASCII bar-chart renderer."""

import pytest

from repro.experiments.ascii_chart import grouped_bars, horizontal_bars


class TestHorizontalBars:
    def test_basic_rendering(self):
        text = horizontal_bars({"2way": 20.0, "8way": 40.0}, width=10)
        lines = text.splitlines()
        assert len(lines) == 2
        assert lines[0].count("#") == 5  # 20/40 of width 10
        assert lines[1].count("#") == 10

    def test_title(self):
        text = horizontal_bars({"a": 1.0}, title="T")
        assert text.splitlines()[0] == "T"

    def test_values_printed(self):
        text = horizontal_bars({"a": 12.34})
        assert "12.3%" in text

    def test_custom_unit(self):
        text = horizontal_bars({"a": 2.0}, unit="x")
        assert "2.0x" in text

    def test_negative_values_marked(self):
        text = horizontal_bars({"a": -10.0, "b": 10.0}, width=10)
        assert "<" in text.splitlines()[0]
        assert "#" in text.splitlines()[1]

    def test_zero_scale_safe(self):
        text = horizontal_bars({"a": 0.0})
        assert "0.0%" in text

    def test_shared_max(self):
        text = horizontal_bars({"a": 5.0}, width=10, max_value=10.0)
        assert text.count("#") == 5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            horizontal_bars({})

    def test_labels_aligned(self):
        text = horizontal_bars({"ab": 1.0, "abcdef": 2.0})
        lines = text.splitlines()
        assert lines[0].index("|") == lines[1].index("|")


class TestGroupedBars:
    def test_groups_rendered(self):
        text = grouped_bars(
            ["gzip", "mcf"],
            {"2way": {"gzip": 10.0, "mcf": 2.0}, "8way": {"gzip": 30.0, "mcf": 3.0}},
        )
        assert "gzip" in text and "mcf" in text
        assert text.count("2way") == 2

    def test_shared_scale(self):
        text = grouped_bars(
            ["a", "b"],
            {"s": {"a": 50.0, "b": 25.0}},
            width=10,
        )
        blocks = text.split("\n\n")
        assert blocks[0].count("#") == 10
        assert blocks[1].count("#") == 5

    def test_missing_value_defaults_zero(self):
        text = grouped_bars(["a", "b"], {"s": {"a": 10.0}})
        assert "0.0%" in text

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            grouped_bars([], {"s": {}})
        with pytest.raises(ValueError):
            grouped_bars(["a"], {})


class TestPanelChart:
    def test_reduction_panel_chart(self):
        from repro.experiments.common import ExperimentScale
        from repro.experiments.missrate_figures import Panel

        scale = ExperimentScale(data_n=3000, instr_n=3000, instructions=1000)
        panel = Panel(("gzip",), "data", specs=("2way", "mf8_bas8")).run(scale)
        chart = panel.render_chart()
        assert "2way" in chart and "#" in chart
