"""Deterministic CSV and metadata output.

Everything here is bit-reproducible: no timestamps, no machine-specific
fields, floats rendered with a fixed %.12g format, and files written with
'\n' line endings regardless of platform. Re-running a scenario must
produce byte-identical files; that property is part of the test suite.

The metadata sidecars reuse the config file syntax ([section] followed by
key = value lines) so they stay greppable and diffable alongside the
scenario files.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np

from .beams import Codebook
from .channels import ChannelMatrix
from .experiments import FieldCut, SweepResult
from .geometry import ScenarioConfig
from .optimizer import SearchOutcome
from .propagation import IntensityMap

__all__ = [
    "fmt",
    "scenario_hash",
    "write_table",
    "write_sweep_csv",
    "write_channel_csv",
    "write_intensity_map",
    "write_trace_csv",
    "write_codebook_csv",
    "write_field_cut_csv",
    "write_metadata",
]


def fmt(x) -> str:
    """Canonical text form of one value (12 significant digits for floats)."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        if math.isnan(x):
            return "nan"
        return format(x, ".12g")
    return str(x)


def scenario_hash(scenario: ScenarioConfig) -> str:
    """Stable 12-hex-digit digest of everything that defines a scenario.

    Uses full-precision float repr so any parameter change, however small,
    changes the hash; independent of process, platform, and dict order.
    """
    parts = [
        f"carrier={scenario.carrier.frequency_hz!r}",
        f"array={scenario.array.n}:{scenario.array.spacing!r}",
        f"grid={scenario.grid.nx}:{scenario.grid.window!r}:{scenario.grid.apod_width!r}",
        f"noise={scenario.noise_power!r}",
        f"power={scenario.tx_power!r}",
        f"epsilon={scenario.rzf_epsilon!r}",
    ]
    for u in scenario.users:
        parts.append(f"user={u.x!r}:{u.z!r}:{u.label}")
    if scenario.obstacle is not None:
        o = scenario.obstacle
        parts.append(f"obstacle={o.depth!r}:{o.edge_x!r}:{o.blocked_side}")
    digest = hashlib.sha256("\n".join(parts).encode()).hexdigest()
    return digest[:12]


def _write_float_rows(f, matrix, lead: str = "") -> None:
    """Write a 2-D float matrix as CSV lines, one row at a time, each line
    prefixed with the literal text `lead`.

    '%.12g' gives every finite float, inf and nan the same text as fmt, so
    each line matches what csv.writer would write from fmt(float(v)) cells.
    Rows are converted one by one; the whole matrix never becomes one list.
    """
    matrix = np.asarray(matrix, dtype=float)
    line = lead.replace("%", "%%") + ",".join(["%.12g"] * matrix.shape[1]) + "\n"
    for row in matrix:
        f.write(line % tuple(row.tolist()))


def write_table(path, header, matrix, lead: str = "") -> None:
    """CSV table: one header line (plain names, joined by commas), then one
    line of %.12g cells per row of the 2-D float `matrix`, each prefixed
    with the literal text `lead`. The bytes equal those of csv.writer fed
    fmt(float(v)) cells, for names and lead text that need no quoting."""
    with Path(path).open("w", newline="") as f:
        f.write(",".join(header) + "\n")
        _write_float_rows(f, matrix, lead)


def write_sweep_csv(out_dir, stem: str, sweep: SweepResult,
                    scenario: ScenarioConfig) -> list:
    """One CSV per strategy: <stem>_<strategy>.csv, rows in sweep order.

    Column order: scenario hash, sweep value, kappa, sigma_max, sigma_min,
    alpha_power, sinr_db, sum_rate, then the K x K coupling powers in dB,
    row-major.
    """
    tag = scenario_hash(scenario)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    k = next(iter(sweep.points[0][1].values())).coupling_db.shape[0]
    header = ["scenario", sweep.sweep_variable, "kappa", "sigma_max", "sigma_min",
              "alpha_power", "sinr_db", "sum_rate"]
    header += [f"coupling_db_{i + 1}{j + 1}" for i in range(k) for j in range(k)]
    written = []
    for strategy in sweep.strategies:
        rows = []
        for value, recs in sweep.points:
            rec = recs[strategy]
            rows.append([value, rec.condition_number, rec.singular_values[0],
                         rec.singular_values[-1], rec.alpha_power, rec.common_sinr_db,
                         rec.sum_rate, *rec.coupling_db.ravel().tolist()])
        path = out_dir / f"{stem}_{strategy}.csv"
        write_table(path, header, rows, lead=tag + ",")
        written.append(path)
    return written


def write_channel_csv(path, matrix: ChannelMatrix, scenario: ScenarioConfig) -> None:
    """Channel matrix with interleaved re/im columns plus a .meta sidecar."""
    path = Path(path)
    rows, cols = matrix.entries.shape
    header = [f"h_{j + 1}_{part}" for j in range(cols) for part in ("re", "im")]
    # A complex128 row viewed as float64 is its re, im pairs in column order.
    write_table(path, header, np.ascontiguousarray(matrix.entries, dtype=complex).view(float))
    write_metadata(
        path.with_suffix(path.suffix + ".meta"),
        {"channel": {
            "model": matrix.model,
            "kind": matrix.kind,
            "rows": rows,
            "cols": cols,
            "scenario": scenario_hash(scenario),
        }},
    )


def write_intensity_map(path, imap: IntensityMap, scenario: ScenarioConfig) -> None:
    """Plain dB matrix (rows = depth, columns = x) plus a .meta sidecar."""
    path = Path(path)
    with path.open("w", newline="") as f:
        _write_float_rows(f, imap.db)
    grid = scenario.grid
    meta = {
        "grid": {
            "nx": grid.nx,
            "window_m": grid.window,
            "apod_width_m": grid.apod_width,
        },
        "map": {
            "scenario": scenario_hash(scenario),
            "peak": imap.peak,
            "floor_db": imap.floor_db,
            "rows": len(imap.depths),
        },
        "depths": {"z_m": list(imap.depths)},
    }
    write_metadata(path.with_suffix(path.suffix + ".meta"), meta)


def write_trace_csv(path, outcome: SearchOutcome) -> None:
    """Full search trace, one evaluated candidate per row."""
    # One %-template per line: %.12g renders each float (and each int of up
    # to 12 digits, as a custom grid axis may hold) as fmt does, and the
    # verdict is written as fmt writes a bool.
    line = "%.12g,%.12g,%.12g,%.12g,%s,%.12g,%s\n"
    with Path(path).open("w", newline="") as f:
        f.write("bending,focal_m,dtheta_deg,h11_power,feasible,rate,stage\n")
        for t in outcome.trace:
            f.write(line % (t.bending, t.focal, math.degrees(t.dtheta), t.h11_power,
                            "true" if t.feasible else "false", t.rate, t.stage))


def write_codebook_csv(path, book: Codebook) -> None:
    """Per-element phases in radians, one column per beam."""
    write_table(path, [f"beam_{j + 1}_phase_rad" for j in range(len(book.beams))],
                np.column_stack([b.phases for b in book.beams]))


def write_field_cut_csv(path, cut: FieldCut) -> None:
    """Transverse dB profiles of the two compared beams at the cut depth."""
    write_table(path, ["x_m", "reference_db", "tuned_db"],
                np.column_stack([cut.xs, cut.db_reference, cut.db_tuned]))


def write_metadata(path, sections: dict) -> None:
    """Structured-text sidecar in the config syntax.

    `sections` maps section name -> {key: value}; a list value becomes one
    repeated `key = element` line per element (the users-section idiom).
    """
    lines = []
    for section, body in sections.items():
        lines.append(f"[{section}]")
        for key, value in body.items():
            if isinstance(value, (list, tuple)):
                lines.extend(f"{key} = {fmt(v)}" for v in value)
            else:
                lines.append(f"{key} = {fmt(value)}")
        lines.append("")
    Path(path).write_text("\n".join(lines), newline="\n")
