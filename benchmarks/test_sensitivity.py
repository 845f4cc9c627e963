"""Benchmark: geometry-sensitivity ablation (line size, capacity)."""

from repro.experiments import sensitivity


def test_line_size_sensitivity(benchmark, bench_scale, archive):
    scale = bench_scale.scaled(0.5)
    result = benchmark.pedantic(
        sensitivity.line_size_sweep().run, args=(scale,), rounds=1, iterations=1
    )
    archive("sensitivity_line_size", result.render())
    # The B-Cache's reduction is not an artefact of 32-byte lines.
    for point in result.points:
        assert point.reductions["mf8_bas8"] > 0.1
        assert point.reductions["mf8_bas8"] <= point.reductions["8way"] + 0.05


def test_cache_size_sensitivity(benchmark, bench_scale, archive):
    scale = bench_scale.scaled(0.5)
    result = benchmark.pedantic(
        sensitivity.cache_size_sweep().run, args=(scale,), rounds=1, iterations=1
    )
    archive("sensitivity_cache_size", result.render())
    rates = [p.baseline_miss_rate for p in result.points]
    assert rates == sorted(rates, reverse=True)  # capacity helps baseline
    for point in result.points:
        assert point.reductions["mf8_bas8"] > 0.05
