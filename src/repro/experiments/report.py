"""Markdown report generation: rendered tables in, one document out.

``bcache-repro --report FILE`` prints tables to stdout and packages the
same tables into a single timestamp-free markdown report (suitable for
committing next to EXPERIMENTS.md or diffing between runs)::

    from repro.experiments.report import write_report
    write_report("report.md", SMOKE, {"tab2": table})
"""

from __future__ import annotations

from pathlib import Path
from typing import Mapping

from repro.experiments.common import ExperimentScale

#: Section header per experiment id.
_TITLES: dict[str, str] = {
    "tab1": "Table 1 — decoder timing",
    "tab2": "Table 2 — storage cost",
    "tab3": "Table 3 — energy per access",
    "fig3": "Figure 3 — wupwise MF sweep",
    "fig4": "Figure 4 — D$ miss-rate reductions",
    "fig5": "Figure 5 — I$ miss-rate reductions",
    "fig8": "Figure 8 — IPC",
    "fig9": "Figure 9 — energy",
    "fig12": "Figure 12 — 8/32 kB study",
    "tab56": "Tables 5–6 — MF x BAS tradeoff",
    "tab7": "Table 7 — set balance",
    "hac": "Section 6.7 — HAC comparison",
    "prior-art": "Section 7.1 — prior art",
    "replacement": "Section 3.3 — replacement ablation",
    "latency": "Hit-latency / AMAT study",
    "3c": "3C miss decomposition",
    "addressing": "Section 6.8 — addressing",
    "drowsy": "Section 6.4 — drowsy leakage",
    "sensitivity": "Geometry sensitivity",
}


def generate_report(scale: ExperimentScale, tables: Mapping[str, str]) -> str:
    """One markdown document of ``{experiment id: rendered table}``, in
    the mapping's order; raises ``KeyError`` on an unknown id."""
    parts = [
        "# B-Cache reproduction report",
        "",
        f"Scale: {scale.data_n} data / {scale.instr_n} instruction "
        f"references, {scale.instructions} instructions per benchmark, "
        f"seed {scale.seed}.",
        "",
    ]
    for name, table in tables.items():
        parts.extend([f"## {_TITLES[name]}", "", "```", table, "```", ""])
    return "\n".join(parts)


def write_report(
    path: str | Path, scale: ExperimentScale, tables: Mapping[str, str]
) -> Path:
    """Generate and write the report; returns the path."""
    path = Path(path)
    path.write_text(generate_report(scale, tables))
    return path
