"""Summarise recorded experiment results into one Markdown report.

After running the benchmark suite (rows land in ``results/*.json``),
``python -m repro.bench report`` assembles a human-readable Markdown
summary: one section per experiment with its table and, for the headline
comparisons, the derived win factors.  EXPERIMENTS.md quotes the same
numbers; this keeps them regenerable from raw rows.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.bench.reporting import RESULTS_DIR, format_value

#: experiment file stem -> section title, in report order
SECTIONS: dict[str, str] = {
    "table2_datasets": "Table II — datasets",
    "fig4a_bucket_capacity": "Fig. 4a — bucket capacity",
    "fig4b_bundle_size": "Fig. 4b — bundle size",
    "fig4c_rho": "Fig. 4c — rho",
    "fig5_datasets": "Fig. 5 — query time vs dataset",
    "fig6_index_size": "Fig. 6 — index sizes",
    "fig7_vary_k": "Fig. 7 — varying k",
    "fig8_vary_objects": "Fig. 8 — varying |O|",
    "fig9_vary_frequency": "Fig. 9 — varying update frequency",
    "fig10ab_scalability": "Fig. 10a/b — scalability",
    "fig10cd_transfer": "Fig. 10c/d — transfers",
    "ablation_lazy_vs_eager": "Ablation — lazy vs eager",
    "ablation_batched_queries": "Ablation — batched queries",
    "ablation_pipelining": "Ablation — pipelined transfers",
    "ablation_sdist_early_exit": "Ablation — SDist early exit",
    "maintenance_policies": "Extension — maintenance policies",
    "workload_patterns": "Extension — workload skew robustness",
    "accuracy_vs_frequency": "Extension — accuracy vs update frequency",
    "costmodel_validation": "Cost model — Section VI bound",
    "scale": "Scale — paper-order data plane (1/8-scale, array-native path)",
}


def _markdown_table(rows: list[dict[str, Any]]) -> str:
    if not rows:
        return "_(no rows)_"
    columns = list(rows[0].keys())
    lines = [
        "| " + " | ".join(columns) + " |",
        "|" + "|".join("---" for _ in columns) + "|",
    ]
    for row in rows:
        lines.append(
            "| " + " | ".join(format_value(row.get(c, "")) for c in columns) + " |"
        )
    return "\n".join(lines)


def _win_factors(rows: list[dict[str, Any]]) -> list[str]:
    """G-Grid-vs-baseline factors for amortised-time experiments."""
    if not rows or "algorithm" not in rows[0] or "amortized_s" not in rows[0]:
        return []
    group_keys = [
        k for k in rows[0] if k not in ("algorithm", "amortized_s", "update_s")
    ]
    grouped: dict[tuple, dict[str, float]] = {}
    for row in rows:
        if row.get("amortized_s") is None:
            continue
        key = tuple(row[k] for k in group_keys)
        grouped.setdefault(key, {})[row["algorithm"]] = row["amortized_s"]
    notes = []
    for key, algos in grouped.items():
        ggrid = algos.get("G-Grid")
        if ggrid is None:
            continue
        rivals = {a: v for a, v in algos.items() if a not in ("G-Grid", "G-Grid (L)")}
        if not rivals:
            continue
        worst = max(rivals, key=rivals.get)
        label = ", ".join(f"{k}={v}" for k, v in zip(group_keys, key))
        notes.append(
            f"- {label}: G-Grid wins by up to "
            f"{rivals[worst] / ggrid:.1f}x (vs {worst})"
        )
    return notes


def build_report(directory: Path | None = None) -> str:
    """Assemble the Markdown report from all recorded result files."""
    results = directory or RESULTS_DIR
    parts = ["# Recorded experiment results\n"]
    found = 0
    for stem, title in SECTIONS.items():
        path = results / f"{stem}.json"
        if not path.exists():
            continue
        found += 1
        rows = json.loads(path.read_text())
        parts.append(f"## {title}\n")
        parts.append(_markdown_table(rows))
        factors = _win_factors(rows)
        if factors:
            parts.append("")
            parts.extend(factors)
        parts.append("")
    if not found:
        parts.append(
            "_No results found — run `pytest benchmarks/ --benchmark-only` "
            "or `python -m repro.bench all` first._"
        )
    return "\n".join(parts)


def write_report(directory: Path | None = None, out: Path | None = None) -> Path:
    """Write the report next to the results and return its path."""
    results = directory or RESULTS_DIR
    target = out or results / "REPORT.md"
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(build_report(results))
    return target
