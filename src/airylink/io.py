"""Deterministic CSV and metadata output.

Everything here is bit-reproducible: no timestamps, no machine-specific
fields, floats rendered with a fixed %.12g format, and files written with
'\n' line endings regardless of platform. Re-running a scenario must
produce byte-identical files; that property is part of the test suite.

Every float matrix (maps, field cuts and sweep tables) is written by
one numpy kernel that produces the bytes of
'%.12g' % v for every float64, a chunk of cells at a time. A cell with
0.1 <= |v| < 1e11 whose decimal exponent guess e = floor(log10|v|) is
confirmed, and whose 12-digit mantissa |v| * 10**(11 - e) is clear of a
rounding tie by more than the one rounding error that product carries,
is written from that mantissa in fixed notation into a 32-byte slot in
which every byte has a fixed place. Every other cell (+-0, subnormals,
inf, nan, exponent form, fixed notation below 0.1, near-ties, rounding up
to the next decade) is formatted by '%.12g' % v itself. The search trace,
whose rows mix floats with a verdict and a stage name, keeps its own
per-row template and reads the trace's columns.

The metadata sidecars reuse the config file syntax ([section] followed by
key = value lines) so they stay greppable and diffable alongside the
scenario files.
"""

from __future__ import annotations

import hashlib
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import AirylinkError
from .experiments import FieldCut, SweepResult
from .geometry import ScenarioConfig
from .optimizer import SearchOutcome
from .propagation import IntensityMap

__all__ = [
    "fmt",
    "scenario_hash",
    "write_table",
    "write_sweep_csv",
    "write_intensity_map",
    "write_trace_csv",
    "write_field_cut_csv",
    "write_metadata",
]


def fmt(x) -> str:
    """Canonical text form of one value (12 significant digits for floats)."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
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


# The float cell kernel. '%.12g' % v writes v with 12 significant digits,
# in fixed notation when the decimal exponent e of the rounded value is in
# -4..11, and drops trailing zeros and a bare point. The kernel writes the
# same bytes for a chunk of cells at a time with numpy. A cell is "fast"
# when its exponent guess e = floor(log10|v|), clipped to -1..10, is
# verified and its last digit is clear of a tie:
# - p = |v| * 10**(11 - e) uses an exact power of ten, so it carries one
#   rounding error, of at most 2**-14 since p < 1e12 < 2**40;
# - 1e11 <= p and rint(p) < 1e12 confirm the guess; with the clip they
#   also confine fast cells to 0.1 <= |v| < 1e11, all fixed notation;
# - |p - rint(p)| < 0.5 - 2**-12 puts p and the exact product on the same
#   side of every half-integer, so rint(p) is the correctly rounded
#   (half-even) 12-digit mantissa.
# Every other cell (+-0, subnormals, inf, nan, exponent form, fixed
# notation below 0.1, near-ties, rounding up to the next decade; about
# 0.05% of a field map's cells) is formatted by '%.12g' % v itself.
#
# Each cell owns a 32-byte slot, four little-endian uint64 words, in
# which every byte has a fixed place. A fast cell holds its sign ('-' or
# 0) in byte 0, "0." in bytes 6-7 when e = -1, its twelve mantissa digits
# at bytes 8, 10, ..., 30, and the point in the odd byte after digit i
# when i + 1 digits come before it; trailing fraction zeros, and the point
# of a whole number, are masked to zero. A slow cell holds the marker
# byte 1 in byte 0. Byte 31 holds the separator (',' or '\n') and every
# other byte is zero. Deleting the zero bytes packs the slots into CSV
# text, and the slow cells' text replaces their markers.
_CHUNK_CELLS = 8192
# _SCALE[k] = 10**(11 - e) for the exponent index k = e + 1. _SPREAD4[i]:
# the ASCII digits of f"{i:04d}" at bytes 0, 2, 4 and 6 of a word.
# _TRAILING_ZEROS[i + 10000 * g]: the trailing zeros of a mantissa whose
# last nonzero four-digit group is i, followed by g zero groups.
_SCALE = 10.0 ** np.arange(12, 0, -1)
_SPREAD4 = sum((np.arange(10000, dtype=np.uint64) // 10 ** (3 - j) % 10 + ord("0")) << 16 * j
               for j in range(4))
_TRAILING_ZEROS = sum(np.arange(10000) % 10 ** k == 0 for k in range(1, 5)).astype(np.uint8)
_TRAILING_ZEROS = np.concatenate([_TRAILING_ZEROS + 4 * g for g in range(3)])


def _slot_tables():
    """_POINT[k]: the slot of exponent index k's point text ("0." in bytes
    6-7 for k = 0, "." in byte 7 + 2k otherwise). _KEEP[12 * k + z], for z
    trailing zeros: the mask of bytes 0 to the last nonzero fraction digit,
    or to the k-th digit when the fraction is all zeros."""
    point = np.zeros((12, 32), dtype=np.uint8)
    point[0, 6] = ord("0")
    point[range(12), range(7, 31, 2)] = ord(".")
    k, z = np.divmod(np.arange(144)[:, None], 12)
    end = np.where(k + z < 12, 31 - 2 * z, 7 + 2 * k)
    keep = np.where(np.arange(32) < end, 0xFF, 0).astype(np.uint8)
    return point.view("<u8"), keep.view("<u8")


_POINT, _KEEP = _slot_tables()


def _mantissas(values):
    """Per cell: the exponent index k = e + 1 of the guess, the 12-digit
    mantissa rint(p) as a float, and whether the cell is fast (see above).
    Slow cells get the mantissa 1e11 so that their slot text, which is
    overwritten, stays in bounds."""
    with np.errstate(all="ignore"):  # 0, inf and nan in log10 and the cast
        mag = np.abs(values)
        k = np.floor(np.log10(mag)).astype(np.intp)
        k = np.minimum(np.maximum(k + 1, 0), 11)
        p = mag * _SCALE.take(k)
        mantissa = np.rint(p)
        fast = (p >= 1e11) & (mantissa < 1e12) & (np.abs(p - mantissa) < 0.5 - 2.0**-12)
    mantissa[~fast] = 1e11
    return k, mantissa, fast


def _fixed_point_slots(k, mantissa):
    """The (n, 4) little-endian words of each cell's slot (see above),
    holding its fixed-point text after a zero sign byte."""
    # The twelve digits as three groups of four (exact: mantissa < 2**40).
    hi = np.floor(mantissa / 1e8)
    rest = mantissa - hi * 1e8
    mid = np.floor(rest / 1e4)
    lo = (rest - mid * 1e4).astype(np.intp)
    hi, mid = hi.astype(np.intp), mid.astype(np.intp)
    # hi >= 1000, since the mantissa is at least 1e11.
    last = np.where(lo != 0, lo, np.where(mid != 0, mid + 10000, hi + 20000))
    slots = _POINT.take(k, axis=0)
    slots[:, 1] |= _SPREAD4.take(hi)
    slots[:, 2] |= _SPREAD4.take(mid)
    slots[:, 3] |= _SPREAD4.take(lo)
    slots &= _KEEP.take(12 * k + _TRAILING_ZEROS.take(last), axis=0)
    return slots


def _format_cells(values, first_row_end: int, cols: int) -> bytes:
    """CSV text of a run of float64 cells, each '%.12g' % v followed by ','
    or, at cells first_row_end, first_row_end + cols, ..., by '\n'."""
    k, mantissa, fast = _mantissas(values)
    text = _fixed_point_slots(k, mantissa).view(np.uint8)
    text[:, 0] = np.signbit(values) * np.uint8(ord("-"))
    slow = np.flatnonzero(~fast)
    text[slow] = 0
    text[slow, 0] = 1
    text[:, 31] = ord(",")
    text[first_row_end::cols, 31] = ord("\n")
    packed = text.tobytes().translate(None, b"\0").split(b"\1")
    slow_text = (b"%.12g\1" * len(slow) % tuple(values[slow].tolist())).split(b"\1")
    return b"".join(chain.from_iterable(zip(packed, slow_text)))


def _float_matrix(matrix) -> np.ndarray:
    """`matrix` as a 2-D float64 array. One with no rows is valid (it
    writes no lines); one that is not 2-D, or has rows but no columns,
    raises AirylinkError, since it has no CSV text to write."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or (matrix.shape[0] and not matrix.shape[1]):
        raise AirylinkError(f"CSV rows need a 2-D matrix with at least one column, "
                            f"got shape {matrix.shape}")
    return matrix


def _write_float_rows(f, matrix, lead: str = "") -> None:
    """Write a 2-D float matrix (see _float_matrix) to the binary file `f`
    as CSV lines, each prefixed with the literal text `lead`.

    Each cell is written as '%.12g' % v, the same text as fmt(float(v)), so
    each line matches what csv.writer would write from fmt(float(v)) cells.
    Cells are converted a chunk at a time; the whole text never exists at
    once.
    """
    matrix = _float_matrix(matrix)
    cols = matrix.shape[1]
    cells = matrix.ravel()
    lead = lead.encode()
    if len(cells) and lead:
        f.write(lead)
    for start in range(0, len(cells), _CHUNK_CELLS):
        text = _format_cells(cells[start:start + _CHUNK_CELLS], (cols - 1 - start) % cols, cols)
        if lead:
            # Every line but the first starts after a '\n'; the last '\n'
            # of the matrix ends the file.
            text = text.replace(b"\n", b"\n" + lead)
            if start + _CHUNK_CELLS >= len(cells):
                text = text[:-len(lead)]
        f.write(text)


def write_table(path, header, matrix, lead: str = "") -> None:
    """CSV table: one header line (plain names, joined by commas), then one
    line of %.12g cells per row of the 2-D float `matrix`, each prefixed
    with the literal text `lead`. The bytes equal those of csv.writer fed
    fmt(float(v)) cells, for names and lead text that need no quoting. A
    matrix that is not 2-D, or has rows but no columns, raises
    AirylinkError before the file is opened."""
    matrix = _float_matrix(matrix)
    with Path(path).open("wb") as f:
        f.write((",".join(header) + "\n").encode())
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
    k = sweep.metrics["coupling_db"].shape[-1]
    header = ["scenario", sweep.sweep_variable, "kappa", "sigma_max", "sigma_min",
              "alpha_power", "sinr_db", "sum_rate"]
    header += [f"coupling_db_{i + 1}{j + 1}" for i in range(k) for j in range(k)]
    written = []
    for strategy in sweep.strategies:
        sigma = sweep.series(strategy, "singular_values")
        coupling = sweep.series(strategy, "coupling_db")
        rows = np.column_stack(
            [sweep.values, sweep.series(strategy, "condition_number"), sigma[:, 0], sigma[:, -1]]
            + [sweep.series(strategy, n) for n in ("alpha_power", "common_sinr_db", "sum_rate")]
            + [coupling.reshape(len(coupling), k * k)])
        path = out_dir / f"{stem}_{strategy}.csv"
        write_table(path, header, rows, lead=tag + ",")
        written.append(path)
    return written


def write_intensity_map(path, imap: IntensityMap, scenario: ScenarioConfig) -> None:
    """Plain dB matrix (rows = depth, columns = x) plus a .meta sidecar."""
    path = Path(path)
    with path.open("wb") as f:
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


def _grid_text(values: np.ndarray) -> list:
    """'%.12g' % v for every entry of a float64 column that holds few
    distinct values (a trace column of the search box's axes): each
    distinct bit pattern, so -0.0 apart from 0.0, is formatted once."""
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    text = ["%.12g" % v for v in bits.view(np.float64).tolist()]
    return [text[i] for i in inverse.tolist()]


def write_trace_csv(path, outcome: SearchOutcome) -> None:
    """Full search trace, one evaluated candidate per row."""
    # One %-template per line: %.12g renders each float as fmt does, and the
    # verdict is written as fmt writes a bool. The grid axes are formatted
    # once per distinct value; np.degrees multiplies by the same 180/pi
    # constant as math.degrees.
    t = outcome.trace
    line = "%s,%s,%s,%.12g,%s,%.12g,%s\n"
    rows = zip(_grid_text(t.bending), _grid_text(t.focal), _grid_text(np.degrees(t.dtheta)),
               t.h11_power.tolist(), np.where(t.feasible, "true", "false").tolist(),
               t.rate.tolist(), t.stage.tolist())
    with Path(path).open("w", newline="") as f:
        f.write("bending,focal_m,dtheta_deg,h11_power,feasible,rate,stage\n")
        f.write("".join([line % row for row in rows]))


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
