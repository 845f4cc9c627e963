"""Benchmark: regenerate Figure 4 (D$ miss-rate reductions, 16 kB)."""

from repro.experiments import missrate_figures


def test_fig4_dcache_reductions(benchmark, bench_scale, archive):
    result = benchmark.pedantic(
        missrate_figures.FIG4.run, args=(bench_scale,), rounds=1, iterations=1
    )
    archive("fig4_dcache", result.render())

    for panel in (result.cint, result.cfp):
        # Associativity ordering: 2-way < 4-way < 8-way on average.
        assert panel.average("2way") < panel.average("4way") < panel.average("8way")
        # MF sweep monotone, saturating by MF=16 (Section 4.3.2).
        assert (
            panel.average("mf2_bas8")
            < panel.average("mf4_bas8")
            < panel.average("mf8_bas8")
            <= panel.average("mf16_bas8") + 0.01
        )
        # Headline: B-Cache at least as good as a 4-way cache (Sec 4.3.3).
        assert panel.average("mf8_bas8") > panel.average("4way") - 0.08
        # And above the 16-entry victim buffer (Section 6.6).
        assert panel.average("mf8_bas8") > panel.average("victim16")
