"""Benchmark: regenerate Figure 5 (I$ miss-rate reductions, 16 kB)."""

from repro.experiments import missrate_figures


def test_fig5_icache_reductions(benchmark, bench_scale, archive):
    panel = benchmark.pedantic(
        missrate_figures.FIG5.run, args=(bench_scale,), rounds=1, iterations=1
    )
    archive("fig5_icache", panel.render())

    # I$ reductions are larger than D$ in the paper (64.5% vs 37.8% at
    # MF=8); here we assert the orderings.
    assert panel.average("2way") < panel.average("4way") < panel.average("8way")
    assert panel.average("mf4_bas8") < panel.average("mf8_bas8") + 0.01
    # Section 6.6: the victim buffer lags the B-Cache dramatically on
    # instruction streams (37.9% in the paper).
    assert panel.average("mf8_bas8") > panel.average("victim16") + 0.2
    # B-Cache approaches the 8-way bound.
    assert panel.average("mf8_bas8") > 0.75 * panel.average("8way")
