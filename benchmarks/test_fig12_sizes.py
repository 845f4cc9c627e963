"""Benchmark: regenerate Figure 12 (8 kB and 32 kB miss-rate study)."""

from repro.experiments import missrate_figures


def test_fig12_cache_sizes(benchmark, bench_scale, archive):
    # Halve the trace length: Figure 12 sweeps 12 configs x 2 sizes x
    # both cache sides, by far the largest panel count.
    scale = bench_scale.scaled(0.5)
    result = benchmark.pedantic(
        missrate_figures.FIG12.run, args=(scale,), rounds=1, iterations=1
    )
    archive("fig12_sizes", result.render())

    for panel in result.panels:
        # The B-Cache keeps beating the victim buffer at 8 kB and 32 kB
        # (Section 6.6's size study).
        assert panel.average("mf8_bas8") > panel.average("victim16")
        # And MF=8/BAS=8 stays the best B-Cache design (Section 6.5):
        # better than the same-PD-length MF=16/BAS=4 alternative.
        assert panel.average("mf8_bas8") > panel.average("mf16_bas4") - 0.02
        # BAS=8 dominates BAS=4 at equal MF.
        assert panel.average("mf8_bas8") > panel.average("mf8_bas4") - 0.02
