"""The custom lint pass, driven by the seeded fixture corpus.

Every rule has one minimal violating fixture and one minimal clean
fixture under ``tests/fixtures/lint/``; the corpus tests assert each
positive is reported and each negative is silent.  The remaining
classes cover BCL009's loop semantics, BCL014's entry points and task
leaks, noqa suppression, output formats, CLI exit codes — and the
acceptance criterion that the repo itself is clean under every rule.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from repro.analysis.lint import (
    RULES,
    Violation,
    iter_python_files,
    lint_paths,
    lint_source,
    main,
    render_json,
    render_sarif,
)

ROOT = Path(__file__).resolve().parents[1]
REPO_SRC = ROOT / "src"
FIXTURES = Path(__file__).resolve().parent / "fixtures" / "lint"
HOT_PATH = "src/repro/caches/example.py"
COLD_PATH = "src/repro/experiments/example.py"
ENGINE_PATH = "src/repro/engine/example.py"
SERVE_PATH = "src/repro/serve/example.py"

ALL_CODES = sorted(RULES)


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
# BCL009 — allocation inside a batch-kernel loop
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

    def test_helper_defined_in_loop_runs_once(self):
        # A nested def starts its own loop count: defining a helper
        # inside the loop does not put the helper's body on it.
        source = (
            "def _batch_trace(self, addresses, kinds):\n"
            "    for address in addresses:\n"
            "        def last():\n"
            "            return AccessResult(hit=True, set_index=0)\n"
            "    return last()\n"
        )
        assert "BCL009" not in codes(source)


# ----------------------------------------------------------------------
# BCL014 — behaviours beyond the minimal fixture pair
# ----------------------------------------------------------------------
class TestForkSafetyFlow:
    def test_pool_initializer_is_an_entry_point(self):
        source = (
            "_STATE = {}\n"
            "def _setup(root):\n"
            "    _STATE['root'] = root\n"
            "def start(ctx):\n"
            "    return ctx.Pool(2, initializer=_setup, initargs=('r',))\n"
        )
        assert "BCL014" in codes(source, ENGINE_PATH)

    def test_mutation_two_calls_below_entry_point_fires(self):
        source = (
            "_SEEN = []\n"
            "def _note(job):\n"
            "    _SEEN.append(job)\n"
            "def _step(job):\n"
            "    _note(job)\n"
            "def _run_job(job):\n"
            "    _step(job)\n"
            "def sweep(pool, jobs):\n"
            "    return pool.imap_unordered(_run_job, jobs)\n"
        )
        assert "BCL014" in codes(source, ENGINE_PATH)

    def test_builtin_map_is_not_an_entry_point(self):
        source = (
            "_SEEN = []\n"
            "def _note(job):\n"
            "    _SEEN.append(job)\n"
            "def sweep(jobs):\n"
            "    return list(map(_note, jobs))\n"
        )
        assert "BCL014" not in codes(source, ENGINE_PATH)

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


# ----------------------------------------------------------------------
# Mechanics: noqa, syntax errors, file discovery, CLI
# ----------------------------------------------------------------------
class TestMechanics:
    def test_noqa_for_other_code_does_not_suppress(self):
        source = "rng = random.Random()  # noqa: BCL007\n"
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


class TestCli:
    def test_cli_clean_file_exits_zero(self, tmp_path, capsys):
        target = tmp_path / "clean.py"
        target.write_text("x = 1\n")
        assert main([str(target)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_cli_violation_exits_one(self, tmp_path, capsys):
        target = tmp_path / "bad.py"
        target.write_text("import random\nx = random.random()\n")
        assert main([str(target)]) == 1
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
        assert main([str(target), "--format", "json"]) == 1
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["code"] == "BCL005" and rows[0]["line"] == 2

    def test_cli_sarif_format(self, tmp_path, capsys):
        target = tmp_path / "bad.py"
        target.write_text("import random\nx = random.random()\n")
        assert main([str(target), "--format", "sarif"]) == 1
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

    def test_sarif_empty_run_is_valid(self):
        document = json.loads(render_sarif([]))
        assert document["runs"][0]["results"] == []

    def test_json_render_roundtrip(self):
        violation = Violation("a.py", 1, "BCL005", "msg")
        assert json.loads(render_json([violation]))[0]["path"] == "a.py"


# ----------------------------------------------------------------------
# Rule codes: one list, RULES.  The audit history (the "Sabotage audit"
# section of docs/analysis.md, CHANGES.md, ROADMAP.md) may name retired
# codes; nothing else may.
# ----------------------------------------------------------------------
ANALYSIS_DOC = ROOT / "docs" / "analysis.md"
CODE_RE = re.compile(r"BCL\d{3}")
AUDIT_RE = re.compile(r"^## Sabotage audit$.*?(?=^## )", re.M | re.S)


def _current_text(path: Path) -> str:
    text = path.read_text(encoding="utf-8")
    return AUDIT_RE.sub("", text) if path == ANALYSIS_DOC else text


def _scanned() -> list[Path]:
    files = [ROOT / "README.md", ROOT / "Makefile"]
    for directory, pattern in (("src", "*.py"), ("tests", "*.py"),
                               ("docs", "*.md"), (".github", "*")):
        files.extend(p for p in sorted((ROOT / directory).rglob(pattern))
                     if p.is_file() and "__pycache__" not in p.parts)
    return files


class TestRuleCodes:
    def test_every_code_mentioned_is_a_rule(self):
        known = set(RULES) | {"BCL000"}
        stale = {
            f"{path.relative_to(ROOT)}: {code}"
            for path in _scanned()
            for code in CODE_RE.findall(_current_text(path))
            if code not in known
        }
        assert not stale, sorted(stale)

    def test_doc_table_lists_exactly_the_rules(self):
        rows = re.findall(r"^\| (BCL\d{3}) \|", _current_text(ANALYSIS_DOC), re.M)
        assert sorted(rows) == ["BCL000", *sorted(RULES)]


# ----------------------------------------------------------------------
# The repo itself must stay clean under every rule (acceptance).
# One syntactic walk per file: well under a second for all of src/.
# ----------------------------------------------------------------------
def test_repo_is_lint_clean():
    violations = lint_paths([REPO_SRC])
    assert violations == [], "\n".join(v.render() for v in violations)
