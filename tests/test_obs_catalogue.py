"""One list of metric names: the catalogue in ``repro.obs.instrument``.

Every series name the code, scripts, CI and docs mention must be a
catalogue row; the ``docs/observability.md`` table must list exactly
the rows (name, kind, labels); and :func:`record` must refuse what the
catalogue does not declare.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.obs import events as obs_events
from repro.obs.exposition import parse_text, render
from repro.obs.instrument import CATALOGUE, family, record
from repro.obs.metrics import Counter, MetricError, default_registry

ROOT = Path(__file__).resolve().parents[1]

#: Where series names may appear.
SCANNED = (
    ROOT / "src" / "repro",
    ROOT / "scripts",
    ROOT / ".github" / "workflows" / "ci.yml",
    ROOT / "docs" / "observability.md",
    ROOT / "docs" / "cluster.md",
)

#: ``repro_``-prefixed tokens that are not metric series.
NOT_SERIES = frozenset({"repro_trace_context"})  # a contextvar name

TOKEN_RE = re.compile(r"repro_[a-z0-9_]+")
ROW_RE = re.compile(r"^\| `(repro_[a-z0-9_]+)` \| (\w+) \| ([^|]*) \|")


def _files() -> list[Path]:
    files: list[Path] = []
    for path in SCANNED:
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        else:
            files.append(path)
    return files


def _known(token: str) -> bool:
    if token in CATALOGUE or token in NOT_SERIES:
        return True
    for suffix in ("_bucket", "_count", "_sum"):
        base = token[: -len(suffix)] if token.endswith(suffix) else ""
        if base in CATALOGUE and CATALOGUE[base].kind == "histogram":
            return True
    return False


def _doc_row(name: str) -> str:
    row = CATALOGUE[name]
    labels = ", ".join(f"`{label}`" for label in row.labels) or "—"
    return f"| `{name}` | {row.kind} | {labels} |"


def test_every_mentioned_series_is_in_the_catalogue():
    unknown = sorted(
        f"{path.relative_to(ROOT)}: {token}"
        for path in _files()
        for token in set(TOKEN_RE.findall(path.read_text(encoding="utf-8")))
        if not _known(token)
    )
    assert not unknown, "series not in the catalogue:\n" + "\n".join(unknown)


def test_docs_table_matches_the_catalogue():
    text = (ROOT / "docs" / "observability.md").read_text(encoding="utf-8")
    documented = []
    for line in text.splitlines():
        match = ROW_RE.match(line)
        if match:
            name, kind, labels = match.groups()
            labels = labels.strip()
            documented.append((name, kind, "" if labels == "—" else labels))
    expected = [
        (name, row.kind, ", ".join(f"`{label}`" for label in row.labels))
        for name, row in CATALOGUE.items()
    ]
    rows = "\n".join(_doc_row(name) for name in CATALOGUE)
    assert sorted(documented) == sorted(expected), (
        "docs/observability.md metric table is out of step; expected rows "
        f"(series | kind | labels):\n{rows}"
    )


class TestRecord:
    def test_every_row_records_and_renders(self, tmp_path):
        obs_events.configure(mode="full", log_path=tmp_path / "e.jsonl")
        for name, row in CATALOGUE.items():
            record(name, 1.0, **{label: "x" for label in row.labels})
        families = parse_text(render(default_registry()))
        for name, row in CATALOGUE.items():
            assert families[name].kind == row.kind
            assert families[name].help == row.help

    def test_gated_rows_record_only_at_full_tier(self, tmp_path):
        obs_events.configure(mode="events", log_path=tmp_path / "e.jsonl")
        record("repro_engine_job_retries_total")
        record("repro_resultcache_stores_total")
        assert default_registry().get("repro_engine_job_retries_total") is None
        stores = family("repro_resultcache_stores_total")
        assert isinstance(stores, Counter) and stores.total() == 1.0

    def test_rejects_an_undeclared_name(self):
        with pytest.raises(MetricError, match="no such series"):
            record("repro_not_a_series_total")
        with pytest.raises(MetricError, match="not in the catalogue"):
            family("repro_not_a_series_total")

    @pytest.mark.parametrize(
        "labels", [{}, {"shard": "0", "extra": "1"}, {"tier": "0"}]
    )
    def test_rejects_a_wrong_label_set(self, labels):
        with pytest.raises(MetricError, match=r"declares \['shard'\]"):
            record("repro_serve_batches_total", **labels)
        assert default_registry().get("repro_serve_batches_total") is None
