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
is written from that mantissa in fixed notation into a 16-byte slot.
Every other cell (+-0, subnormals, inf, nan, exponent form, fixed
notation below 0.1, near-ties, rounding up to the next decade) is
formatted by '%.12g' % v itself. The search trace, whose rows mix floats
with a verdict and a stage name, keeps its own per-row template and reads
the trace's columns.

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
# Each cell owns a 16-byte slot, two little-endian uint64 words: a fast
# cell's sign ('-' or 0) in byte 0 and its text from byte 1, or a slow
# cell's marker byte 1, then zero bytes, and the separator (',' or '\n')
# in byte 15. A fast cell's text is at most 14 bytes after the sign ("0."
# and twelve digits when e = -1), which is why the clip stops at e = -1:
# e = -2 would need 15. Deleting the zero bytes packs the slots into CSV
# text, and the slow cells' text replaces their markers.
_CHUNK_CELLS = 8192
_U64 = np.uint64
# _DIGITS4[i]: the four ASCII digits of f"{i:04d}" read as a little-endian
# integer (first digit in byte 1, so after a sign byte). _TRAILING_ZEROS
# [i + 10000 * g]: the trailing zeros of a twelve-digit mantissa whose
# last nonzero four-digit group is i and is followed by g zero groups.
_DIGITS4 = sum((np.arange(10000, dtype=_U64) // _U64(10 ** (3 - k)) % _U64(10) + _U64(ord("0")))
               << _U64(8 * k + 8) for k in range(4))
_TRAILING_ZEROS = sum(np.arange(10000) % 10 ** k == 0 for k in range(1, 5)).astype(np.uint8)
_TRAILING_ZEROS = np.concatenate([_TRAILING_ZEROS + 4 * g for g in range(3)])


def _words(x: int) -> tuple:
    """The low and high little-endian uint64 words of a 128-bit integer."""
    return x & (2**64 - 1), x >> 64


def _exponent_tables():
    """Per exponent index k = e + 1 (e = -1..10): the scale 10**(11 - e);
    the length in bits of the point text that follows the sign byte and
    the k digits before the point ("." or, for k = 0, "0."); the two words
    that mask the sign byte and those digits; and the two words that hold
    the point text in place. Per keep index 12 * k + z, for a mantissa with
    z trailing zeros: the two words that keep the sign byte, the k digits,
    and the point text and fraction digits if some fraction digit is
    nonzero."""
    rows, keep = [], []
    for k in range(12):
        point = b"." if k else b"0."
        head = (1 << 8 * (1 + k)) - 1
        placed = int.from_bytes(point, "little") << 8 * (1 + k)
        rows.append((10.0 ** (12 - k), 8 * len(point), *_words(head), *_words(placed)))
        for zeros in range(12):
            frac = 12 - k - zeros
            length = 1 + k + (len(point) + frac if frac > 0 else 0)
            keep.append(_words((1 << 8 * length) - 1))
    scale, bits, head0, head1, point0, point1 = zip(*rows)
    keep0, keep1 = zip(*keep)
    words = [np.array(c, dtype=_U64) for c in (bits, head0, head1, point0, point1, keep0, keep1)]
    return (np.array(scale), *words)


(_SCALE, _POINT_BITS, _HEAD0, _HEAD1, _POINT0, _POINT1, _KEEP0, _KEEP1) = _exponent_tables()


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
    """The (n, 2) little-endian words of each cell's slot, holding its
    fixed-point text after a zero sign byte: the k digits before the point,
    the point text, then the fraction up to its last nonzero digit."""
    # The twelve digits as three groups of four (exact: mantissa < 2**40).
    hi = np.floor(mantissa / 1e8)
    rest = mantissa - hi * 1e8
    mid = np.floor(rest / 1e4)
    lo = (rest - mid * 1e4).astype(np.intp)
    hi, mid = hi.astype(np.intp), mid.astype(np.intp)
    # Digits after the sign byte as a 13-byte two-word string; the part
    # after the sign and k digits moves up by the point text's length (at
    # most two bytes, so the text still ends in the second word).
    d_mid = _DIGITS4.take(mid)
    w0 = _DIGITS4.take(hi) | (d_mid << _U64(32))
    w1 = (d_mid >> _U64(32)) | _DIGITS4.take(lo)
    head0 = w0 & _HEAD0.take(k)
    head1 = w1 & _HEAD1.take(k)
    tail0, tail1 = w0 ^ head0, w1 ^ head1
    shift = _POINT_BITS.take(k)
    # Keep the sign byte, the k digits, and the point text and fraction
    # digits only if some fraction digit is nonzero. hi >= 1000, since the
    # mantissa is at least 1e11.
    last = np.where(lo != 0, lo, np.where(mid != 0, mid + 10000, hi + 20000))
    keep = 12 * k + _TRAILING_ZEROS.take(last)
    slots = np.empty((len(k), 2), dtype="<u8")
    np.bitwise_and(head0 | _POINT0.take(k) | (tail0 << shift), _KEEP0.take(keep),
                   out=slots[:, 0])
    np.bitwise_and(head1 | _POINT1.take(k) | (tail1 << shift) | (tail0 >> (_U64(64) - shift)),
                   _KEEP1.take(keep), out=slots[:, 1])
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
    text[:, 15] = ord(",")
    text[first_row_end::cols, 15] = ord("\n")
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
    distinct values (a search grid axis): each distinct bit pattern, so
    -0.0 apart from 0.0, is formatted once."""
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
