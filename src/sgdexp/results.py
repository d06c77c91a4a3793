"""Result serialization: trajectory CSV, JSON manifest, SVG charts."""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import xml.etree.ElementTree as ET
from itertools import chain
from pathlib import Path

import numpy as np

from .experiment import aggregate_mean
from .solvers import METRIC_COLUMNS, CheckpointTable, Trajectory

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


@contextlib.contextmanager
def replaced(path, errors="strict"):
    """A UTF-8 text file, newlines as written, that takes the place of ``path`` once the block ends.

    The text goes to a temp file in ``path``'s directory, which must exist,
    and ``os.replace`` moves it onto ``path``; if the block raises, the temp
    file is removed and ``path`` keeps what it held.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
    try:
        with open(tmp, "x", newline="\n", encoding="utf-8", errors=errors) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _fmt(v) -> str:
    return "" if v is None else format(float(v), ".17g")


def _csv_line(cells) -> str:
    """``cells`` as ``csv.writer`` writes them, one line ending in a newline."""
    line = io.StringIO()
    csv.writer(line, lineterminator="\n").writerow(cells)
    return line.getvalue()


def emit_results(trajectories, out_dir):
    """Write the trajectory CSV and its JSON manifest.

    Returns (csv_path, manifest_path).  Every byte of both files is
    determined by the config and seeds except the elapsed_seconds
    column, which is informational.  The manifest holds
    least_squares_clean_loss when the trajectories carry one.
    """
    if not trajectories:
        raise ValueError("no trajectories to emit")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "results.csv"
    manifest_path = out_dir / "results.manifest.json"

    ordered = sorted(trajectories, key=lambda t: (t.solver, t.seed))
    with replaced(csv_path) as fh:
        fh.write(_csv_line(CSV_HEADER))
        for traj in ordered:
            # One % format per trajectory: the solver and seed cells, quoted once, then
            # "%.17g" for a column measured throughout, "" for one never measured, and
            # "%s" of ready cells for one measured in part.
            cps = traj.checkpoints
            formats, columns = ["%d"], [cps.k.tolist()]
            for name in (*METRIC_COLUMNS, "elapsed_seconds"):
                values = getattr(cps, name).tolist()
                has = getattr(cps, f"has_{name}", np.ones(len(cps), dtype=bool))
                if has.all():
                    formats.append("%.17g")
                    columns.append(values)
                elif has.any():
                    formats.append("%s")
                    columns.append([_fmt(v) if h else "" for v, h in zip(values, has)])
                else:
                    formats.append("")
            lead = _csv_line([traj.solver, traj.seed])[:-1].replace("%", "%%")
            row = ",".join([lead, *formats]) + "\n"
            fh.write((row * len(cps)) % tuple(chain.from_iterable(zip(*columns))))

    # Each mean is the last point of the plotted mean, when that point is the final k;
    # a metric that no final checkpoint carries is not averaged at all.
    carried = [f for f in METRIC_COLUMNS if any(getattr(t.checkpoints, f"has_{f}")[-1] for t in ordered)]
    means = {f: aggregate_mean(trajectories, f) for f in carried}
    summary = {}
    for solver, k in {t.solver: int(t.checkpoints.k[-1]) for t in ordered}.items():
        summary[solver] = {"final_k": k}
        for f in METRIC_COLUMNS:
            ks, values = means.get(f, {}).get(solver, ([None], None))
            summary[solver][f"mean_final_{f}"] = float(values[-1]) if ks[-1] == k else None
    manifest = {
        "fingerprint": trajectories[0].fingerprint,
        "seeds": sorted({t.seed for t in trajectories}),
        "solvers": sorted({t.solver for t in trajectories}),
        "n_trajectories": len(trajectories),
        "step_law_violations": int(sum(t.step_law_violations for t in trajectories)),
        "relu_gate_violations": int(sum(t.relu_gate_violations for t in trajectories)),
        "summary": summary,
    }
    if trajectories[0].least_squares_clean_loss is not None:
        manifest["least_squares_clean_loss"] = trajectories[0].least_squares_clean_loss
    with replaced(manifest_path) as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return csv_path, manifest_path


def read_results_csv(path) -> list:
    """Rebuild trajectories from an emitted CSV (inverse of emit_results), each with a one-lane table.

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
            grouped.setdefault((row[0], cells[0]), []).append(cells[1:])
    return [
        Trajectory(solver=solver, seed=seed, checkpoints=CheckpointTable.from_rows(rows), x_final=np.empty(0))
        for (solver, seed), rows in sorted(grouped.items())
    ]


def emit_plot(trajectories, path, metric: str = "relative_error", title: str = ""):
    """Write a semilog-y SVG line chart: one polyline per solver.

    ``metric`` is a config metric name or a CheckpointTable metric.  Values
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
    with replaced(path, errors="xmlcharrefreplace") as fh:
        ET.ElementTree(svg).write(fh, encoding="unicode", xml_declaration=True)
        fh.write("\n")
    return path


def emit_sweep_csv(rows, out_dir):
    """Write the sweep result table; one row per (solver, p, checkpoint)."""
    if not rows:
        raise ValueError("no sweep rows to emit")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "sweep.csv"
    with replaced(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["solver", "p", "k", "mean_value", "n_seeds", "metric"])
        for row in sorted(rows, key=lambda r: (r.solver, r.p, r.k)):
            writer.writerow(
                [row.solver, _fmt(row.p), row.k, _fmt(row.mean_value), row.n_seeds, row.metric]
            )
    return path
