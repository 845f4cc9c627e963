"""Tests for the victim-buffer sweep, §5.2 NPD widths and trace export."""

import pytest

from repro.core.config import BCacheGeometry
from repro.energy.cam import npd_bits_for
from repro.experiments.common import ExperimentScale
from repro.experiments.comparisons import VictimSizes
from repro.trace.trace_file import load_trace
from repro.workloads.export import export_suite

TINY = ExperimentScale(data_n=8_000, instr_n=8_000, instructions=4_000)


class TestVictimSweep:
    @pytest.fixture(scope="class")
    def sweep(self):
        return VictimSizes(
            benchmarks=("equake", "crafty", "gzip"), entries=(4, 16, 64, 128)
        ).run(TINY)

    def test_monotone_in_entries(self, sweep):
        values = [sweep.data_reduction[n] for n in sweep.entries]
        assert values == sorted(values)

    def test_diminishing_returns_past_the_footprint(self, sweep):
        """Section 6.6 claims returns diminish past 16 entries; the knee
        sits at the conflict working-set size.  SPEC2K's footprints are
        under 16 blocks; our synthetic profiles thrash ~40 blocks, so
        the knee lands at 64 — the *shape* (a knee followed by a
        plateau) is the reproduced property (see EXPERIMENTS.md)."""
        early = sweep.marginal_gain(16, 64)
        late = sweep.marginal_gain(64, 128)
        assert late < early / 3

    def test_render(self, sweep):
        assert "victim16" in sweep.render()


class TestNPDWidths:
    def test_section_52_worked_example(self, headline_geometry):
        """§5.2: data (4 subarrays) NPD = 4 bits, tag (8 subarrays) = 3."""
        assert npd_bits_for(headline_geometry, subarrays=4) == 4
        assert npd_bits_for(headline_geometry, subarrays=8) == 3

    def test_table1_row_consistency(self, headline_geometry):
        """One subarray: NPD = OI - bas_bits = the 6-bit local case."""
        assert npd_bits_for(headline_geometry, subarrays=1) == 6

    def test_too_many_subarrays_rejected(self, headline_geometry):
        with pytest.raises(ValueError):
            npd_bits_for(headline_geometry, subarrays=256)

    def test_uneven_partition_rejected(self):
        geometry = BCacheGeometry(16 * 1024, 32, 8, 8)
        with pytest.raises(ValueError):
            npd_bits_for(geometry, subarrays=3)


class TestTraceExport:
    def test_exports_requested_files(self, tmp_path):
        paths = export_suite(
            tmp_path, benchmarks=("gzip",), n=200, sides=("data", "instr")
        )
        assert len(paths) == 2
        assert (tmp_path / "gzip.data.din").exists()
        assert (tmp_path / "gzip.instr.din").exists()

    def test_round_trip(self, tmp_path):
        (path,) = export_suite(tmp_path, benchmarks=("mcf",), n=100, sides=("data",))
        trace = load_trace(path)
        assert len(trace) == 100

    def test_binary_format(self, tmp_path):
        (path,) = export_suite(
            tmp_path, benchmarks=("art",), n=50, sides=("data",), binary=True
        )
        assert path.suffix == ".trc"
        assert len(load_trace(path)) == 50

    def test_combined_side(self, tmp_path):
        (path,) = export_suite(
            tmp_path, benchmarks=("gzip",), n=100, sides=("combined",)
        )
        trace = load_trace(path)
        assert sum(1 for a in trace if a.is_instruction) == 100

    def test_invalid_side(self, tmp_path):
        with pytest.raises(ValueError):
            export_suite(tmp_path, benchmarks=("gzip",), n=10, sides=("code",))

    def test_deterministic(self, tmp_path):
        a = export_suite(tmp_path / "a", benchmarks=("vpr",), n=80, sides=("data",))
        b = export_suite(tmp_path / "b", benchmarks=("vpr",), n=80, sides=("data",))
        assert a[0].read_bytes() == b[0].read_bytes()
