"""Benchmarks: Section 6.7 (HAC), Section 7.1 (prior art) and the
replacement-policy ablation of Section 3.3."""

from repro.experiments import comparisons


def test_hac_comparison(benchmark, bench_scale, archive):
    scale = bench_scale.scaled(0.5)  # the 32-way HAC probe is costly
    result = benchmark.pedantic(
        comparisons.HAC.run, args=(scale,), rounds=1, iterations=1
    )
    archive("hac_comparison", result.render())
    # Section 6.7: similar miss-rate territory, but the HAC needs a
    # 26-bit CAM where the B-Cache uses 6 bits.
    assert result.hac_cam_bits == 26
    assert result.bcache_pd_bits == 6
    bc = result.comparison.data_reduction["mf8_bas8"]
    hac = result.comparison.data_reduction["hac"]
    assert abs(bc - hac) < 0.25


def test_prior_art_comparison(benchmark, bench_scale, archive):
    scale = bench_scale.scaled(0.5)
    prior_art = comparisons.Comparison(
        "Section 7.1 prior-art comparison", comparisons.PRIOR_ART_SPECS
    )
    result = benchmark.pedantic(prior_art.run, args=(scale,), rounds=1, iterations=1)
    archive("prior_art", result.render())
    reductions = result.data_reduction
    # Section 7.1's claims: column-associative ~ 2-way; skewed ~ between
    # 2- and 4-way; the B-Cache at or above 4-way.
    assert reductions["column"] > 0.0
    assert reductions["mf8_bas8"] > reductions["column"]
    assert reductions["mf8_bas8"] > reductions["victim16"]
    assert reductions["mf8_bas8"] >= reductions["2way"]


def test_replacement_ablation(benchmark, bench_scale, archive):
    scale = bench_scale.scaled(0.5)
    result = benchmark.pedantic(
        comparisons.Replacement().run, args=(scale,), rounds=1, iterations=1
    )
    archive("replacement_ablation", result.render())
    # Section 3.3: LRU at least matches random; both clearly positive.
    assert result.data_reduction["lru"] >= result.data_reduction["random"] - 0.02
    assert result.data_reduction["random"] > 0.0
