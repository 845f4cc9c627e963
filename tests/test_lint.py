"""The custom lint pass, driven by the seeded fixture corpus.

Every rule (BCL001–BCL017 and BCL019) has one minimal violating
fixture and one minimal clean fixture under ``tests/fixtures/lint/``;
the corpus tests assert each positive is reported and each negative is
silent.  The remaining classes cover engine mechanics: noqa suppression, the
flow-aware BCL009 semantics, output formats, the result cache, CLI
exit codes — and the acceptance criterion that the repo itself is
clean under all eighteen rules.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.lint import (
    FLOW_RULES,
    RULES,
    Violation,
    available_cpus,
    engine_fingerprint,
    iter_python_files,
    lint_file,
    lint_paths,
    lint_source,
    main,
    render_json,
    render_sarif,
)

REPO_SRC = Path(__file__).resolve().parents[1] / "src"
FIXTURES = Path(__file__).resolve().parent / "fixtures" / "lint"
HOT_PATH = "src/repro/caches/example.py"
COLD_PATH = "src/repro/experiments/example.py"
ENGINE_PATH = "src/repro/engine/example.py"
SERVE_PATH = "src/repro/serve/example.py"

ALL_CODES = sorted(RULES)  # BCL001..BCL017, BCL019


def load_fixture(name: str) -> tuple[str, str]:
    """Fixture source and the virtual path its ``# lint-path:`` names."""
    source = (FIXTURES / name).read_text(encoding="utf-8")
    first_line = source.splitlines()[0]
    assert first_line.startswith("# lint-path:"), name
    return source, first_line.split(":", 1)[1].strip()


def codes(source: str, path: str = HOT_PATH) -> set[str]:
    return {violation.code for violation in lint_source(source, path)}


# ----------------------------------------------------------------------
# Fixture corpus: every positive fires, every negative is silent
# ----------------------------------------------------------------------
class TestFixtureCorpus:
    def test_every_rule_has_a_fixture_pair(self):
        for code in ALL_CODES:
            assert (FIXTURES / f"{code}_bad.py").exists(), code
            assert (FIXTURES / f"{code}_good.py").exists(), code

    @pytest.mark.parametrize("code", ALL_CODES)
    def test_bad_fixture_fires(self, code):
        source, path = load_fixture(f"{code}_bad.py")
        found = {v.code for v in lint_source(source, path)}
        assert code in found, f"{code}_bad.py did not trigger {code}: {found}"
        assert found == {code}, (
            f"{code}_bad.py is not minimal; extra codes: {found - {code}}"
        )

    @pytest.mark.parametrize("code", ALL_CODES)
    def test_good_fixture_is_silent(self, code):
        source, path = load_fixture(f"{code}_good.py")
        violations = lint_source(source, path)
        assert violations == [], "\n".join(v.render() for v in violations)

    def test_noqa_fixture_fully_suppressed(self):
        source, path = load_fixture("noqa_suppressed.py")
        assert lint_source(source, path) == []
        # Without the noqa comments the same source must fire twice.
        stripped = "\n".join(
            line.split("#")[0] for line in source.splitlines()[1:]
        )
        assert [v.code for v in lint_source(stripped, path)] == [
            "BCL005",
            "BCL005",
        ]


# ----------------------------------------------------------------------
# BCL009 — flow-aware allocation rule (CFG-cycle semantics)
# ----------------------------------------------------------------------
class TestBatchAllocationFlow:
    def test_allocation_on_cfg_cycle_fires(self):
        source, path = load_fixture("BCL009_bad.py")
        assert "BCL009" in codes(source, path)

    def test_while_loop_allocation_fires(self):
        source = (
            "def access_trace(self, addresses, kinds=None):\n"
            "    while addresses:\n"
            "        AccessResult(hit=False, set_index=1)\n"
        )
        assert "BCL009" in codes(source)

    def test_allocation_in_comprehension_fires(self):
        source = (
            "def _batch_trace(self, addresses, kinds):\n"
            "    return [AccessResult(hit=True, set_index=0) for _ in addresses]\n"
        )
        assert "BCL009" in codes(source)

    def test_return_on_first_iteration_is_clean(self):
        # The flow retrofit: lexically inside a for, but not on a cycle.
        source, path = load_fixture("BCL009_good.py")
        assert codes(source, path) == set()

    def test_allocation_outside_loop_is_clean(self):
        source = (
            "def _batch_trace(self, addresses, kinds):\n"
            "    sentinel = AccessResult(hit=False, set_index=0)\n"
            "    for address in addresses:\n"
            "        pass\n"
            "    return sentinel\n"
        )
        assert "BCL009" not in codes(source)

    def test_loop_in_other_function_is_clean(self):
        source = (
            "def _access_block(self, block: int, is_write: bool) -> int:\n"
            "    for _ in range(2):\n"
            "        AccessResult(hit=True, set_index=0)\n"
            "    return 0\n"
        )
        assert "BCL009" not in codes(source)

    def test_helper_nested_in_batch_kernel_fires(self):
        source = (
            "def _batch_trace(self, addresses, kinds):\n"
            "    def drain():\n"
            "        for address in addresses:\n"
            "            AccessResult(hit=True, set_index=0)\n"
            "    drain()\n"
        )
        assert "BCL009" in codes(source)


# ----------------------------------------------------------------------
# Flow rules — behaviours beyond the minimal fixture pair
# ----------------------------------------------------------------------
class TestDeterminismFlow:
    def test_unordered_listing_into_journal_fires(self):
        source = (
            "import os\n"
            "def collect(journal, results):\n"
            "    for name in os.listdir('runs'):\n"
            "        journal.record(name, results[0])\n"
        )
        assert "BCL013" in codes(source, ENGINE_PATH)

    def test_random_into_serve_payload_fires(self):
        source = (
            "import random\n"
            "def handler(request):\n"
            "    return {'stats': random.random()}\n"
        )
        assert "BCL013" in codes(source, SERVE_PATH)

    def test_sorted_listing_is_sanitized(self):
        source = (
            "import os\n"
            "def collect(journal, results):\n"
            "    for name in sorted(os.listdir('runs')):\n"
            "        journal.record(name, results[0])\n"
        )
        assert "BCL013" not in codes(source, ENGINE_PATH)

    def test_latency_record_is_exempt(self):
        # .record on a non-journal, non-stats receiver is not a sink.
        source = (
            "import time\n"
            "def observe(state):\n"
            "    started = time.perf_counter()\n"
            "    state.latency.record(time.perf_counter() - started)\n"
        )
        assert "BCL013" not in codes(source, SERVE_PATH)


class TestForkSafetyFlow:
    def test_unpicklable_across_process_fires(self):
        source = (
            "import threading\n"
            "import multiprocessing\n"
            "def spawn():\n"
            "    lock = threading.Lock()\n"
            "    p = multiprocessing.Process(target=run, args=(lock,))\n"
            "    p.start()\n"
        )
        assert "BCL014" in codes(source, ENGINE_PATH)

    def test_dropped_create_task_fires_in_serve(self):
        source = (
            "import asyncio\n"
            "async def serve_loop(loop):\n"
            "    loop.create_task(drain())\n"
        )
        assert "BCL014" in codes(source, SERVE_PATH)

    def test_kept_task_reference_is_clean(self):
        source = (
            "import asyncio\n"
            "async def serve_loop(loop):\n"
            "    task = loop.create_task(drain())\n"
            "    await task\n"
        )
        assert "BCL014" not in codes(source, SERVE_PATH)

    def test_create_task_outside_serve_is_exempt(self):
        source = (
            "import asyncio\n"
            "async def run(loop):\n"
            "    loop.create_task(drain())\n"
        )
        assert "BCL014" not in codes(source, COLD_PATH)


class TestAddressMathFlow:
    def test_widened_mask_fires(self):
        source, path = load_fixture("BCL015_bad.py")
        violations = [
            v for v in lint_source(source, path) if v.code == "BCL015"
        ]
        assert violations, "widened index mask must be flagged"
        assert "wider than the table" in violations[0].message

    def test_unbounded_index_stays_silent(self):
        # No constructor facts -> no finite bound -> conservative silence.
        source = (
            "class OpaqueCache:\n"
            "    def _access_block(self, block: int, is_write: bool) -> int:\n"
            "        return self._tags[block & self._mask]\n"
        )
        assert "BCL015" not in codes(source)


# ----------------------------------------------------------------------
# Mechanics: noqa, syntax errors, file discovery, cache, CLI
# ----------------------------------------------------------------------
class TestMechanics:
    def test_noqa_for_other_code_does_not_suppress(self):
        source = "rng = random.Random()  # noqa: BCL001\n"
        assert codes(source, COLD_PATH) == {"BCL005"}

    def test_syntax_error_reported_as_bcl000(self):
        violations = lint_source("def broken(:\n", COLD_PATH)
        assert [v.code for v in violations] == ["BCL000"]

    def test_violation_render_format(self):
        violation = Violation("a/b.py", 3, "BCL005", "message")
        assert violation.render() == "a/b.py:3: BCL005 message"

    def test_iter_python_files_skips_pycache(self, tmp_path):
        (tmp_path / "ok.py").write_text("x = 1\n")
        cache_dir = tmp_path / "__pycache__"
        cache_dir.mkdir()
        (cache_dir / "bad.py").write_text("x = 1\n")
        files = list(iter_python_files([tmp_path]))
        assert [f.name for f in files] == ["ok.py"]

    def test_flow_rules_registered(self):
        assert FLOW_RULES == {"BCL013", "BCL014", "BCL015"}
        assert FLOW_RULES <= set(RULES)

    def test_available_cpus_positive(self):
        assert available_cpus() >= 1

    def test_lint_source_flow_flag_skips_flow_rules(self):
        source, path = load_fixture("BCL013_bad.py")
        assert lint_source(source, path, flow=False) == []
        assert {v.code for v in lint_source(source, path)} == {"BCL013"}


class TestResultCache:
    def test_cache_roundtrip(self, tmp_path):
        target = tmp_path / "bad.py"
        target.write_text("import random\nx = random.random()\n")
        cache_dir = tmp_path / "cache"
        first = lint_file(target, cache_dir)
        assert [v.code for v in first] == ["BCL005"]
        assert list(cache_dir.glob("*.json")), "cache entry must be written"
        second = lint_file(target, cache_dir)
        assert second == first

    def test_cache_invalidated_on_edit(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text("import random\nx = random.random()\n")
        cache_dir = tmp_path / "cache"
        assert lint_file(target, cache_dir)
        target.write_text("x = 1\n")
        assert lint_file(target, cache_dir) == []

    def test_engine_fingerprint_is_stable(self):
        assert engine_fingerprint() == engine_fingerprint()
        assert len(engine_fingerprint()) == 64

    def test_parallel_jobs_match_serial(self, tmp_path):
        (tmp_path / "a.py").write_text("import random\nx = random.random()\n")
        (tmp_path / "b.py").write_text("y = 1\n")
        serial = lint_paths([tmp_path], jobs=1)
        parallel = lint_paths([tmp_path], jobs=2)
        assert sorted(parallel, key=lambda v: v.path) == sorted(
            serial, key=lambda v: v.path
        )


class TestCli:
    def test_cli_clean_file_exits_zero(self, tmp_path, capsys):
        target = tmp_path / "clean.py"
        target.write_text("x = 1\n")
        assert main([str(target), "--no-cache"]) == 0
        assert "OK" in capsys.readouterr().out

    def test_cli_violation_exits_one(self, tmp_path, capsys):
        target = tmp_path / "bad.py"
        target.write_text("import random\nx = random.random()\n")
        assert main([str(target), "--no-cache"]) == 1
        out = capsys.readouterr().out
        assert "BCL005" in out and "bad.py:2" in out

    def test_cli_missing_path_exits_two(self, tmp_path):
        assert main([str(tmp_path / "nope")]) == 2

    def test_cli_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in RULES:
            assert code in out

    def test_cli_json_format(self, tmp_path, capsys):
        target = tmp_path / "bad.py"
        target.write_text("import random\nx = random.random()\n")
        assert main([str(target), "--no-cache", "--format", "json"]) == 1
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["code"] == "BCL005" and rows[0]["line"] == 2

    def test_cli_sarif_format(self, tmp_path, capsys):
        target = tmp_path / "bad.py"
        target.write_text("import random\nx = random.random()\n")
        assert main([str(target), "--no-cache", "--format", "sarif"]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["version"] == "2.1.0"
        run = document["runs"][0]
        assert run["tool"]["driver"]["name"] == "bcache-lint"
        assert {rule["id"] for rule in run["tool"]["driver"]["rules"]} == set(
            RULES
        )
        result = run["results"][0]
        assert result["ruleId"] == "BCL005"
        location = result["locations"][0]["physicalLocation"]
        assert location["region"]["startLine"] == 2

    def test_cli_uses_cache_dir(self, tmp_path, capsys):
        target = tmp_path / "clean.py"
        target.write_text("x = 1\n")
        cache_dir = tmp_path / "lint-cache"
        assert main([str(target), "--cache-dir", str(cache_dir)]) == 0
        capsys.readouterr()
        assert list(cache_dir.glob("*.json"))

    def test_sarif_empty_run_is_valid(self):
        document = json.loads(render_sarif([]))
        assert document["runs"][0]["results"] == []

    def test_json_render_roundtrip(self):
        violation = Violation("a.py", 1, "BCL005", "msg")
        assert json.loads(render_json([violation]))[0]["path"] == "a.py"


# ----------------------------------------------------------------------
# The repo itself must stay clean under all 15 rules (acceptance).
# ----------------------------------------------------------------------
def test_repo_is_lint_clean():
    violations = lint_paths([REPO_SRC])
    assert violations == [], "\n".join(v.render() for v in violations)
