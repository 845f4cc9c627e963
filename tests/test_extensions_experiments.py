"""Tests for the extension experiment modules (rendering and shapes)."""

import pytest

from repro.experiments.common import ExperimentScale
from repro.experiments.extensions import Drowsy, run_addressing

TINY = ExperimentScale(data_n=6_000, instr_n=6_000, instructions=3_000)


class TestAddressingStudy:
    @pytest.fixture(scope="class")
    def study(self):
        return run_addressing()

    def test_covers_sizes_and_pages(self, study):
        pairs = {(r.geometry.size, r.page_size) for r in study.reports}
        assert (16 * 1024, 4096) in pairs
        assert len(pairs) == 6

    def test_4kb_pages_always_need_three_bits(self, study):
        for report in study.reports:
            if report.page_size == 4096:
                assert len(report.untranslated_tag_bits) == 3

    def test_bigger_pages_relax_smaller_caches_first(self, study):
        by_size = {
            r.geometry.size: r for r in study.reports if r.page_size == 65536
        }
        assert by_size[8 * 1024].vp_compatible_without_care
        assert not by_size[32 * 1024].vp_compatible_without_care

    def test_render(self, study):
        text = study.render()
        assert "Section 6.8" in text and "V/P as-is" in text


class TestDrowsyStudy:
    @pytest.fixture(scope="class")
    def study(self):
        return Drowsy(benchmarks=("ammp", "equake", "mcf")).run(TINY)

    def test_row_per_benchmark(self, study):
        assert [row[0] for row in study.rows] == ["ammp", "equake", "mcf"]

    def test_savings_in_range(self, study):
        for _, dm, bc in study.rows:
            assert 0.0 <= dm.leakage_saving <= 0.9
            assert 0.0 <= bc.leakage_saving <= 0.9

    def test_balancing_reduces_but_does_not_erase_idleness(self, study):
        dm_total = sum(dm.leakage_saving for _, dm, _ in study.rows)
        bc_total = sum(bc.leakage_saving for _, _, bc in study.rows)
        assert bc_total <= dm_total + 0.05
        assert bc_total > 0.0

    def test_render(self, study):
        text = study.render()
        assert "drowsy" in text.lower()
        assert "Ave" in text
