"""Tests for the hit-latency study and the slow-hit profiles."""

import pytest

from repro.caches import make_cache
from repro.experiments.common import ExperimentScale
from repro.experiments.latency_study import LATENCY_SPECS, Latency

TINY = ExperimentScale(data_n=10_000, instr_n=10_000, instructions=5_000, seed=2006)


class TestSlowHitProfiles:
    def test_one_cycle_organisations(self):
        """DM, set-associative, B-Cache, page colouring: no slow hits."""
        for spec in ("dm", "8way", "mf8_bas8", "pagecolor"):
            cache = make_cache(spec)
            cache.access(0x40)
            cache.access(0x40)
            assert cache.stats.hits == 1
            assert cache.stats.slow_hits == cache.stats.slow_hit_cycles == 0

    def test_victim_buffer_profile(self):
        cache = make_cache("victim16")
        cache.access(0x0)
        cache.access(0x4000)
        cache.access(0x0)  # buffer swap hit
        assert cache.stats.slow_hits == cache.stats.slow_hit_cycles == 1

    def test_agac_charges_two_extra_cycles(self):
        cache = make_cache("agac")
        cache.access(0x0)
        cache.access(0x4000)
        cache.access(0x0)  # relocated hit
        assert cache.stats.slow_hits == 1
        assert cache.stats.slow_hit_cycles == 2

    def test_psa_extra_probes(self):
        cache = make_cache("psa2")
        for _ in range(10):
            cache.access(0x0)
            cache.access(0x4000)
        assert cache.stats.slow_hits > 0
        assert cache.stats.slow_hit_cycles >= cache.stats.slow_hits


class TestStudy:
    @pytest.fixture(scope="class")
    def study(self):
        return Latency(benchmarks=("equake", "crafty", "gzip")).run(TINY)

    def test_all_specs_present(self, study):
        assert {row.spec for row in study.rows} == set(LATENCY_SPECS)

    def test_bcache_has_one_cycle_hits(self, study):
        """The headline claim: all B-Cache hits in one cycle."""
        row = study.row("mf8_bas8")
        assert row.slow_hit_fraction == 0.0
        assert row.effective_hit_latency == 1.0

    def test_prior_art_pays_latency(self, study):
        for spec in ("victim16", "column", "agac", "psa2"):
            assert study.row(spec).effective_hit_latency > 1.0

    def test_bcache_wins_amat(self, study):
        """On conflict-heavy workloads the B-Cache's AMAT beats every
        compared organisation: similar reductions, no latency tax."""
        bcache_amat = study.row("mf8_bas8").amat
        for spec in ("dm", "victim16", "column", "psa2", "pam2", "pagecolor"):
            assert bcache_amat <= study.row(spec).amat + 1e-9

    def test_agac_relocated_fraction_near_paper(self, study):
        """Paper: relocated lines are 5.24% of AGAC hits."""
        assert 0.0 < study.row("agac").slow_hit_fraction < 0.15

    def test_render(self, study):
        text = study.render()
        assert "AMAT" in text and "mf8_bas8" in text

    def test_unknown_spec_lookup(self, study):
        with pytest.raises(KeyError):
            study.row("bogus")
