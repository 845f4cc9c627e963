"""Benchmarks: the hit-latency study and the extension analyses.

These are the ablation benches DESIGN.md calls out: they quantify the
design choices rather than reproduce a specific paper figure.
"""

from repro.experiments import extensions, latency_study


def test_latency_study(benchmark, bench_scale, archive):
    scale = bench_scale.scaled(0.5)
    study = benchmark.pedantic(
        latency_study.Latency().run, args=(scale,), rounds=1, iterations=1
    )
    archive("latency_study", study.render())
    # The paper's core claim, end to end: the B-Cache gets associative
    # miss rates without multi-cycle hits, so it wins AMAT.
    bcache = study.row("mf8_bas8")
    assert bcache.slow_hit_fraction == 0.0
    assert bcache.effective_hit_latency == 1.0
    for spec in ("dm", "victim16", "column", "pam2", "psa2", "pagecolor"):
        assert bcache.amat <= study.row(spec).amat + 1e-9
    # AGAC reaches similar reductions but pays 3-cycle relocated hits.
    agac = study.row("agac")
    assert agac.effective_hit_latency > 1.0


def test_addressing_analysis(benchmark, archive):
    study = benchmark(extensions.run_addressing)
    archive("addressing", study.render())
    # Section 6.8: with 4 kB pages, the headline design needs its three
    # borrowed tag bits treated as virtual index.
    four_kb = [r for r in study.reports if r.page_size == 4096]
    assert all(len(r.untranslated_tag_bits) == 3 for r in four_kb)


def test_drowsy_extension(benchmark, bench_scale, archive):
    scale = bench_scale.scaled(0.5)
    study = benchmark.pedantic(
        extensions.Drowsy().run, args=(scale,), rounds=1, iterations=1
    )
    archive("drowsy", study.render())
    # Section 6.4: balancing must not erase the idleness drowsy
    # techniques exploit — the B-Cache still saves meaningful leakage.
    bc_savings = [bc.leakage_saving for _, _, bc in study.rows]
    assert sum(bc_savings) / len(bc_savings) > 0.1
