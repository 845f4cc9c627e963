"""Benchmark: regenerate Table 7 (set-usage balance, baseline vs B-Cache)."""

from repro.experiments import tab7_balance


def test_tab7_balance(benchmark, bench_scale, archive):
    result = benchmark.pedantic(
        tab7_balance.Balance().run, args=(bench_scale,), rounds=1, iterations=1
    )
    archive("tab7_balance", result.render())

    base_ave, bc_ave = result.averages()

    # Section 6.4's directions, on suite average:
    # fewer sets sit idle under the B-Cache...
    assert bc_ave.less_accessed_sets <= base_ave.less_accessed_sets + 0.02
    # ...and the misses that remain are far less concentrated: the
    # frequent-miss sets' intensity (share of misses per share of sets)
    # collapses towards uniform.
    def intensity(report):
        if report.frequent_miss_sets == 0:
            return 0.0
        return report.frequent_miss_share / report.frequent_miss_sets

    assert intensity(bc_ave) < intensity(base_ave)

    # art/lucas/swim/mcf: no meaningful frequent-miss concentration in
    # the baseline (misses are uniform over sets).
    for row in result.rows:
        if row.benchmark in ("art", "lucas", "swim", "mcf"):
            assert intensity(row.baseline) < 5.0
