"""Report files: run report JSON, sweep comparison CSV and a dependency-free
SVG bar chart."""

from __future__ import annotations

import csv
import json
from html import escape
from pathlib import Path

from .kpi import HEADLINE_KPIS, KPI_NAMES, Comparison, KpiReport


def write_json(path, obj, sort_keys: bool = False) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1, sort_keys=sort_keys, allow_nan=False)
        fh.write("\n")


def write_report_json(path, report: KpiReport, meta: dict) -> None:
    write_json(path, {"meta": meta, "kpis": report.to_dict()}, sort_keys=True)


COMPARISON_HEADER = ("scenario", "in", "wt_first", "wt_last", "los",
                     "outlier_green", "outlier_white", "flags")


def comparison_row(name: str, report: KpiReport, comparison: Comparison | None) -> tuple:
    flags = ";".join(comparison.flags()) if comparison is not None else ""
    return (name, *(f"{report.value(k):.2f}" for k in KPI_NAMES), flags)


def write_comparison_csv(path, rows: list[tuple]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(COMPARISON_HEADER)
        w.writerows(rows)


def svg_bar_chart(title: str, labels: list[str], values: list[float]) -> str:
    """Minimal standalone SVG: one bar per labeled value."""
    width, height, margin, axis = max(640, 26 * len(values)), 360, 40, 30
    plot_w, plot_h = width - 2 * margin, height - 2 * margin - axis
    vmax = max([v for v in values if v == v] + [1.0])
    n = max(len(values), 1)
    bar_w = plot_w / n * 0.7
    gap = plot_w / n
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{escape(title, quote=False)}</text>',
        f'<line x1="{margin}" y1="{margin + plot_h}" x2="{width - margin}" '
        f'y2="{margin + plot_h}" stroke="black"/>',
    ]
    for i, (label, value) in enumerate(zip(labels, values)):
        if value != value:  # NaN
            value = 0.0
        h = plot_h * value / vmax
        x = margin + i * gap + (gap - bar_w) / 2
        y = margin + plot_h - h
        parts.append(f'<rect x="{x:.1f}" y="{y:.1f}" width="{bar_w:.1f}" '
                     f'height="{h:.1f}" fill="#4878a8"/>')
        parts.append(f'<text x="{x + bar_w / 2:.1f}" y="{y - 4:.1f}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="10">{value:.1f}</text>')
        parts.append(f'<text x="{x + bar_w / 2:.1f}" y="{margin + plot_h + 14:.1f}" '
                     f'text-anchor="middle" font-family="sans-serif" font-size="10">'
                     f'{escape(label, quote=False)}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def write_kpi_svg(path, report: KpiReport, title: str) -> None:
    labels = ["In/day", "WT first", "WT last", "LoS"]
    values = [report.value(k) for k in HEADLINE_KPIS]
    Path(path).write_text(svg_bar_chart(title, labels, values) + "\n")
