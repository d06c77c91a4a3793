"""Result serialization: trajectory CSV, JSON manifest, SVG charts."""

from __future__ import annotations

import csv
import json
import math
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np

from .experiment import aggregate_mean
from .solvers import Checkpoint, Trajectory

CSV_HEADER = ["solver", "seed", "k", "relative_error", "clean_loss", "elapsed_seconds"]

_PALETTE = [
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
    "#7f7f7f",
]


def _fmt(v) -> str:
    return "" if v is None else format(float(v), ".17g")


def emit_results(trajectories, out_dir):
    """Write the trajectory CSV and its JSON manifest.

    Returns (csv_path, manifest_path).  Every byte of both files is
    determined by the config and seeds except the elapsed_seconds
    column, which is informational.
    """
    if not trajectories:
        raise ValueError("no trajectories to emit")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "results.csv"
    manifest_path = out_dir / "results.manifest.json"

    ordered = sorted(trajectories, key=lambda t: (t.solver, t.seed))
    with open(csv_path, "w", newline="\n", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for traj in ordered:
            for cp in traj.checkpoints:
                writer.writerow(
                    [
                        traj.solver,
                        traj.seed,
                        cp.k,
                        _fmt(cp.relative_error),
                        _fmt(cp.clean_loss),
                        _fmt(cp.elapsed_seconds),
                    ]
                )

    summary = {}
    for traj in ordered:
        entry = summary.setdefault(
            traj.solver, {"finals_rel": [], "finals_clean": [], "final_k": 0}
        )
        last = traj.checkpoints[-1]
        entry["final_k"] = last.k
        if last.relative_error is not None:
            entry["finals_rel"].append(last.relative_error)
        if last.clean_loss is not None:
            entry["finals_clean"].append(last.clean_loss)
    manifest = {
        "fingerprint": trajectories[0].fingerprint,
        "seeds": sorted({t.seed for t in trajectories}),
        "solvers": sorted({t.solver for t in trajectories}),
        "n_trajectories": len(trajectories),
        "step_law_violations": int(sum(t.step_law_violations for t in trajectories)),
        "relu_gate_violations": int(sum(t.relu_gate_violations for t in trajectories)),
        "summary": {
            name: {
                "final_k": entry["final_k"],
                "mean_final_relative_error": (
                    float(np.mean(entry["finals_rel"])) if entry["finals_rel"] else None
                ),
                "mean_final_clean_loss": (
                    float(np.mean(entry["finals_clean"])) if entry["finals_clean"] else None
                ),
            }
            for name, entry in summary.items()
        },
    }
    with open(manifest_path, "w", newline="\n", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return csv_path, manifest_path


def read_results_csv(path) -> list:
    """Rebuild trajectories from an emitted CSV (inverse of emit_results).

    Raises ValueError naming the line of a row with the wrong number of
    cells, and the line and column of a non-numeric or non-finite cell.
    Empty metric cells read as None.
    """
    grouped = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != CSV_HEADER:
            raise ValueError(f"{path}: unexpected CSV header {header}")
        for row in reader:
            where = f"{path}: line {reader.line_num}"
            if len(row) != len(CSV_HEADER):
                raise ValueError(f"{where} has {len(row)} cells, expected {len(CSV_HEADER)}")
            cells = []
            for name, cell in zip(CSV_HEADER[1:], row[1:]):
                try:
                    value = int(np.int64(cell)) if name in ("seed", "k") else float(cell or 0.0)
                except (ValueError, OverflowError):
                    value = math.nan
                if not math.isfinite(value):
                    raise ValueError(f"{where}, column {name!r}: non-numeric or non-finite cell {cell!r}")
                cells.append(None if cell == "" and name != "elapsed_seconds" else value)
            seed, k, rel, clean, elapsed = cells
            grouped.setdefault((row[0], seed), []).append(Checkpoint(k, rel, clean, elapsed))
    return [
        Trajectory(solver=solver, seed=seed, checkpoints=cps, x_final=np.empty(0))
        for (solver, seed), cps in sorted(grouped.items())
    ]


def emit_plot(trajectories, path, metric: str = "relative_error", title: str = ""):
    """Write a semilog-y SVG line chart: one polyline per solver.

    ``metric`` is a config metric name or a Checkpoint field.  Values
    are averaged across seeds at each checkpoint (``aggregate_mean``);
    nonpositive values are clamped to 1e-16 for the log scale.
    """
    if not trajectories:
        raise ValueError("no trajectories to plot")
    series = aggregate_mean(trajectories, metric)
    if not series:
        raise ValueError(f"no trajectory carries metric {metric!r}")

    width, height = 720, 480
    left, right, top, bottom = 72, 160, 36, 56
    plot_w, plot_h = width - left - right, height - top - bottom

    floor = 1e-16
    all_y = np.concatenate([np.maximum(v, floor) for _, v in series.values()])
    all_x = np.concatenate([k for k, _ in series.values()])
    # The y axis spans whole decades lo..hi, kept as exponents: 10^hi may overflow.
    lo = math.floor(math.log10(float(all_y.min())))
    hi = max(math.ceil(math.log10(float(all_y.max()))), lo + 1)
    x_lo = float(all_x.min())
    x_hi = max(float(all_x.max()), x_lo + 1.0)

    def sx(x):
        return left + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(log_y):
        return top + (hi - log_y) / (hi - lo) * plot_h

    svg = ET.Element(
        "svg",
        xmlns="http://www.w3.org/2000/svg",
        width=str(width),
        height=str(height),
        viewBox=f"0 0 {width} {height}",
    )
    ET.SubElement(svg, "rect", x="0", y="0", width=str(width), height=str(height), fill="white")
    axes = ET.SubElement(svg, "g", attrib={"class": "axes", "stroke": "#333"})
    ET.SubElement(axes, "line", x1=str(left), y1=str(top + plot_h), x2=str(left + plot_w), y2=str(top + plot_h))
    ET.SubElement(axes, "line", x1=str(left), y1=str(top), x2=str(left), y2=str(top + plot_h))

    labels = ET.SubElement(svg, "g", attrib={"font-family": "sans-serif", "font-size": "13"})
    for decade in range(lo, hi + 1):
        py = sy(decade)
        ET.SubElement(
            svg, "line", x1=str(left), y1=f"{py:.2f}", x2=str(left + plot_w), y2=f"{py:.2f}",
            stroke="#ddd",
        )
        tick = ET.SubElement(labels, "text", x=str(left - 8), y=f"{py + 4:.2f}", attrib={"text-anchor": "end"})
        tick.text = f"1e{decade}"
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        x = x_lo + frac * (x_hi - x_lo)
        tick = ET.SubElement(
            labels, "text", x=f"{sx(x):.2f}", y=str(top + plot_h + 18), attrib={"text-anchor": "middle"}
        )
        tick.text = f"{x:.0f}"
    xlabel = ET.SubElement(
        labels, "text", x=str(left + plot_w // 2), y=str(height - 12), attrib={"text-anchor": "middle"}
    )
    xlabel.text = "iteration k"
    ylabel = ET.SubElement(
        labels,
        "text",
        x="18",
        y=str(top + plot_h // 2),
        attrib={"text-anchor": "middle", "transform": f"rotate(-90 18 {top + plot_h // 2})"},
    )
    ylabel.text = metric.replace("_", " ")
    if title:
        t = ET.SubElement(
            labels, "text", x=str(left + plot_w // 2), y="22", attrib={"text-anchor": "middle"}
        )
        t.text = title

    legend = ET.SubElement(svg, "g", attrib={"class": "legend", "font-family": "sans-serif", "font-size": "13"})
    for i, (solver, (ks, vals)) in enumerate(series.items()):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join(
            f"{sx(k):.2f},{sy(math.log10(v)):.2f}" for k, v in zip(ks, np.maximum(vals, floor))
        )
        ET.SubElement(
            svg,
            "polyline",
            attrib={
                "points": pts,
                "fill": "none",
                "stroke": color,
                "stroke-width": "1.6",
                "class": f"series-{solver}",
            },
        )
        ly = top + 10 + 20 * i
        ET.SubElement(
            legend,
            "line",
            x1=str(left + plot_w + 12),
            y1=str(ly),
            x2=str(left + plot_w + 36),
            y2=str(ly),
            stroke=color,
            attrib={"stroke-width": "2"},
        )
        label = ET.SubElement(legend, "text", x=str(left + plot_w + 42), y=str(ly + 4))
        label.text = solver

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    ET.ElementTree(svg).write(path, encoding="unicode", xml_declaration=True)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("\n")
    return path


def emit_sweep_csv(rows, out_dir):
    """Write the sweep result table; one row per (solver, p, checkpoint)."""
    if not rows:
        raise ValueError("no sweep rows to emit")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "sweep.csv"
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["solver", "p", "k", "mean_value", "n_seeds", "metric"])
        for row in sorted(rows, key=lambda r: (r.solver, r.p, r.k)):
            writer.writerow(
                [row.solver, _fmt(row.p), row.k, _fmt(row.mean_value), row.n_seeds, row.metric]
            )
    return path
