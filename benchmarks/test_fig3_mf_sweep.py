"""Benchmark: regenerate Figure 3 (wupwise MF sweep)."""

from repro.experiments import fig3_mf_sweep


def test_fig3_mf_sweep(benchmark, bench_scale, archive):
    result = benchmark.pedantic(
        fig3_mf_sweep.MFSweep().run, args=(bench_scale,), rounds=1, iterations=1
    )
    archive("fig3_mf_sweep", result.render())
    # Shape: the miss rate at the largest MF is below the smallest MF's,
    # and the PD hit rate during misses has fallen with it (Figure 3).
    rates = result.miss_rates()
    pd_rates = result.pd_hit_rates()
    assert rates[-1] < rates[0]
    assert pd_rates[-1] < pd_rates[0]
