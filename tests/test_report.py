"""Tests for the markdown report generator."""

import pytest

from repro.experiments.common import SMOKE
from repro.experiments.report import generate_report, write_report


def _tables():
    return {"tab2": "STORAGE TABLE", "fig3": f"SWEEP at {SMOKE.data_n}"}


class TestGenerateReport:
    def test_contains_sections_in_order(self):
        text = generate_report(SMOKE, _tables())
        assert text.index("Table 2") < text.index("Figure 3")
        assert "STORAGE TABLE" in text

    def test_scale_recorded(self):
        text = generate_report(SMOKE, _tables())
        assert str(SMOKE.data_n) in text

    def test_explicit_ids(self):
        text = generate_report(SMOKE, {"fig3": "SWEEP"})
        assert "SWEEP" in text and "STORAGE" not in text

    def test_unknown_id_rejected(self):
        with pytest.raises(KeyError):
            generate_report(SMOKE, {"nope": "TABLE"})

    def test_output_is_markdown(self):
        text = generate_report(SMOKE, _tables())
        assert text.startswith("# B-Cache reproduction report")
        assert "```" in text


class TestWriteReport:
    def test_writes_file(self, tmp_path):
        path = write_report(tmp_path / "report.md", SMOKE, _tables())
        assert path.exists()
        assert "STORAGE TABLE" in path.read_text()

    def test_real_registry_fast_subset(self, tmp_path, capsys):
        """Circuit tables need no simulation: run them for real."""
        from repro.cli import main

        path = tmp_path / "r.md"
        assert main(["tab1", "tab2", "tab3", "--report", str(path)]) == 0
        content = path.read_text()
        assert "147456" in content  # Table 2's B-Cache bit count
        assert "slack" in content
        assert content.count("```") == 6
