"""Deterministic CSV / JSON result files.

Floats are rendered with %.17g so identical inputs produce byte
identical files; column order is fixed.
"""

from __future__ import annotations

import json
import os

import numpy as np

FLOAT_FMT = "%.17g"


def fmt(x) -> str:
    return FLOAT_FMT % float(x)


def write_csv(path, header: list[str], columns: list[np.ndarray]) -> None:
    lengths = {len(c) for c in columns}
    if columns and lengths != {len(columns[0])}:
        raise ValueError("column lengths differ")
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(",".join(header) + "\n")
        if not columns:
            return
        for row in zip(*columns):
            handle.write(",".join(fmt(x) for x in row) + "\n")


def write_json(path, doc: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(doc, handle, sort_keys=True, indent=2)
        handle.write("\n")


def write_run_report(outdir, trajectory) -> None:
    """Snapshot time series plus a scalar summary for one run."""
    times = trajectory.times
    energies = trajectory.energies
    write_csv(os.path.join(outdir, "run.csv"), ["t", "energy"], [times, energies])
    summary = {
        "t_end": float(times[-1]) if len(times) else 0.0,
        "snapshots": len(trajectory.snapshots),
        "initial_energy": float(energies[0]) if len(energies) else 0.0,
        "final_energy": float(energies[-1]) if len(energies) else 0.0,
    }
    write_json(os.path.join(outdir, "summary.json"), summary)


def write_check_report(outdir, report, trajectory=None) -> None:
    """Margin time series (CSV) and the report document (JSON)."""
    columns = [report.times]
    header = ["t"]
    if trajectory is not None:
        header.append("energy")
        columns.append(trajectory.energies)
    header += ["lhs", "rhs", "margin"]
    columns += [report.lhs, report.rhs, report.margin]
    write_csv(os.path.join(outdir, "check.csv"), header, columns)
    write_json(os.path.join(outdir, "dissipative_report.json"),
               report.to_json_dict())


def write_sweep_report(outdir, sweep) -> None:
    write_json(os.path.join(outdir, "sweep.json"), sweep.to_json_dict())
    for entry in sweep.entries:
        if entry.blowup is not None:
            continue
        name = f"sweep_alpha_{fmt(entry.alpha)}.csv"
        write_csv(os.path.join(outdir, name), ["t", "energy", "h_norm"],
                  [entry.times, entry.energy, entry.h_norm])


def write_ode_demo_csv(path, payload: dict) -> None:
    """Columns: t, state components, squared norm, a-priori bound."""
    times = payload["times"]
    states = payload["states"]
    header = ["t"] + [f"x{i}" for i in range(states.shape[1])]
    columns = [times] + [states[:, i] for i in range(states.shape[1])]
    header += ["norm_sq", "bound"]
    columns += [payload["norm_sq"], payload["bound"]]
    write_csv(path, header, columns)
