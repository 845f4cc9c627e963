"""Benchmark: regenerate Tables 5 and 6 (MF x BAS x PD tradeoff)."""

from repro.experiments import tab56_tradeoff


def test_tab56_design_tradeoff(benchmark, bench_scale, archive):
    result = benchmark.pedantic(
        tab56_tradeoff.Tradeoff().run, args=(bench_scale,), rounds=1, iterations=1
    )
    archive("tab56_tradeoff", result.render())

    # Section 6.3's crossover: at PD = 4 bits design B (MF=4, BAS=4)
    # beats design A (MF=2, BAS=8); at PD = 6 bits design A (MF=8,
    # BAS=8) beats design B (MF=16, BAS=4) — hence the headline design.
    assert result.cell(4, 4).reduction > result.cell(2, 8).reduction
    assert result.cell(8, 8).reduction > result.cell(16, 4).reduction

    # Table 6: the PD hit rate during misses falls as MF grows, for
    # both associativities.
    for bas in (4, 8):
        rates = [result.cell(mf, bas).pd_hit_rate for mf in (2, 4, 8, 16)]
        assert rates == sorted(rates, reverse=True)

    # Reductions grow monotonically with MF at fixed BAS (Fig 12 inset).
    for bas in (4, 8):
        reductions = [result.cell(mf, bas).reduction for mf in (2, 4, 8, 16)]
        assert reductions == sorted(reductions)
