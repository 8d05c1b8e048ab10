"""Deterministic file output: formatting, hashing, and the CSV writers."""

import csv
import io
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from airylink import (
    AirylinkError,
    IntensityMap,
    SweepResult,
    build_codebook,
)
from airylink.optimizer import SearchTrace
from airylink.io import (
    _mantissas,
    _write_float_rows,
    fmt,
    scenario_hash,
    write_field_cut_csv,
    write_intensity_map,
    write_metadata,
    write_sweep_csv,
    write_table,
    write_trace_csv,
)


def record(k: int = 2, rate: float = 3.5) -> dict:
    coupling = 10.0 * np.log10(np.arange(1, k * k + 1, dtype=float).reshape(k, k))
    return dict(condition_number=42.5, singular_values=(2.0, 0.5),
                alpha_power=0.25, common_sinr_db=23.979400086721,
                sum_rate=rate, coupling_db=coupling, singular=False)


def columns(records) -> dict:
    """The metric columns of a sweep whose rows are `records`."""
    return {name: np.array([r[name] for r in records]) for name in records[0]}


def tiny_sweep() -> SweepResult:
    return SweepResult(
        sweep_variable="x2_lambda",
        strategies=("trad_all", "airy_geo"),
        values=[-2.0, -1.0],
        metrics=columns([record(rate=1.0), record(rate=2.0),    # x2 = -2: trad_all, airy_geo
                         record(rate=3.0), record(rate=4.0)]),  # x2 = -1
    )


class TestFmt:
    @pytest.mark.parametrize("value,text", [
        (True, "true"),
        (False, "false"),
        (math.inf, "inf"),
        (-math.inf, "-inf"),
        (1.0, "1"),
        (0.25, "0.25"),
        (1e-10, "1e-10"),
        (1.0107068735, "1.0107068735"),
        (123456789012345.0, "1.23456789012e+14"),
        (7, "7"),
        ("coarse", "coarse"),
    ])
    def test_cases(self, value, text):
        assert fmt(value) == text

    def test_nan(self):
        assert fmt(float("nan")) == "nan"


class TestScenarioHash:
    def test_is_short_hex(self, baseline_scenario):
        h = scenario_hash(baseline_scenario)
        assert len(h) == 12
        int(h, 16)  # must parse as hexadecimal

    def test_stable_across_calls(self, baseline_scenario):
        assert scenario_hash(baseline_scenario) == scenario_hash(baseline_scenario)

    def test_sensitive_to_every_field(self, shadow_scenario, lam):
        import dataclasses

        base = scenario_hash(shadow_scenario)
        variants = [
            dataclasses.replace(shadow_scenario, noise_power=2e-3),
            dataclasses.replace(shadow_scenario, tx_power=2.0e4),
            dataclasses.replace(shadow_scenario, rzf_epsilon=1e-9),
            shadow_scenario.without_obstacle(),
            shadow_scenario.with_users(
                (shadow_scenario.users[1], shadow_scenario.users[0])),
        ]
        hashes = {base} | {scenario_hash(v) for v in variants}
        assert len(hashes) == len(variants) + 1


class TestWriteSweepCsv:
    def test_one_file_per_strategy(self, tmp_path, baseline_scenario):
        paths = write_sweep_csv(tmp_path, "demo", tiny_sweep(), baseline_scenario)
        assert [p.name for p in paths] == ["demo_trad_all.csv", "demo_airy_geo.csv"]
        for p in paths:
            assert p.exists()

    def test_header_and_rows(self, tmp_path, baseline_scenario):
        paths = write_sweep_csv(tmp_path, "demo", tiny_sweep(), baseline_scenario)
        lines = paths[0].read_text().splitlines()
        assert lines[0] == ("scenario,x2_lambda,kappa,sigma_max,sigma_min,"
                            "alpha_power,sinr_db,sum_rate,"
                            "coupling_db_11,coupling_db_12,"
                            "coupling_db_21,coupling_db_22")
        assert len(lines) == 3
        tag = scenario_hash(baseline_scenario)
        first = lines[1].split(",")
        assert first[0] == tag
        assert first[1] == "-2"
        assert first[2] == "42.5"
        assert first[7] == "1"  # trad_all rate at the first point

    def test_rewrite_is_byte_identical(self, tmp_path, baseline_scenario):
        a = write_sweep_csv(tmp_path / "a", "demo", tiny_sweep(), baseline_scenario)
        b = write_sweep_csv(tmp_path / "b", "demo", tiny_sweep(), baseline_scenario)
        for pa, pb in zip(a, b):
            assert pa.read_bytes() == pb.read_bytes()


class TestWriteIntensityMap:
    def test_matrix_and_sidecar(self, tmp_path, baseline_scenario, array64,
                                 grid_std, lam):
        from airylink import intensity_map, launch_aperture

        f = launch_aperture(np.ones(64, dtype=complex), array64, grid_std, lam)
        m = intensity_map(f, None, [100 * lam, 200 * lam], lam)
        path = tmp_path / "map.csv"
        write_intensity_map(path, m, baseline_scenario)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert len(lines[0].split(",")) == grid_std.nx
        meta = (tmp_path / "map.csv.meta").read_text()
        assert "[grid]" in meta and "[map]" in meta and "[depths]" in meta
        assert "rows = 2" in meta
        assert meta.count("z_m = ") == 2


def per_cell_csv(path, matrix, header=None) -> bytes:
    """The float-matrix writer the row formatter replaced: csv.writer with
    fmt(float(v)) per cell. Returns the bytes it writes to `path`."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        if header is not None:
            w.writerow(header)
        for row in matrix:
            w.writerow(fmt(float(v)) for v in row)
    return path.read_bytes()


def awkward_matrix() -> np.ndarray:
    """Signed zeros, the dB floor, both sides of a 12-digit rounding
    boundary that carries into a new decade, extreme magnitudes and the
    non-finite values."""
    boundary = 9.999999999995
    cells = [0.0, -0.0, -60.0, np.nextafter(boundary, 0.0), np.nextafter(boundary, 20.0),
             -np.nextafter(boundary, 0.0), 1e-300, 5e-324, 1.0e16, 123456789012.5,
             math.inf, -math.inf, math.nan, -3.14159265358979, 0.1, 2.0 / 3.0]
    return np.array(cells).reshape(4, 4)


class TestFloatRowsMatchPerCellWriter:
    def test_awkward_values_in_a_map(self, tmp_path, baseline_scenario):
        matrix = awkward_matrix()
        imap = IntensityMap(db=matrix, depths=(1.0, 2.0, 3.0, 4.0), peak=1.0,
                            floor_db=-60.0)
        write_intensity_map(tmp_path / "map.csv", imap, baseline_scenario)
        expected = per_cell_csv(tmp_path / "ref.csv", matrix)
        assert expected.startswith(b"0,-0,-60,9.99999999999\n10,")
        assert b",inf,-inf\nnan," in expected
        assert (tmp_path / "map.csv").read_bytes() == expected

    def test_awkward_values_in_a_codebook(self, tmp_path):
        matrix = awkward_matrix()
        header = [f"beam_{j + 1}_phase_rad" for j in range(matrix.shape[1])]
        write_table(tmp_path / "book.csv", header, matrix)
        expected = per_cell_csv(tmp_path / "ref.csv", matrix, header)
        assert (tmp_path / "book.csv").read_bytes() == expected

    def test_real_codebook(self, tmp_path, shadow_scenario):
        book = build_codebook(shadow_scenario, "airy_geo")
        header = [f"beam_{j + 1}_phase_rad" for j in range(book.shape[1])]
        phases = np.angle(book)
        write_table(tmp_path / "book.csv", header, phases)
        expected = per_cell_csv(tmp_path / "ref.csv", phases, header)
        assert (tmp_path / "book.csv").read_bytes() == expected

    def test_shadow_fieldmap(self, tmp_path, shadow_scenario):
        import dataclasses

        from airylink import run_fieldmap

        grid = dataclasses.replace(shadow_scenario.grid, nx=1024)
        scenario = dataclasses.replace(shadow_scenario, grid=grid)
        imap = run_fieldmap(scenario, "airy_geo")
        assert imap.db.shape == (196, 1024)
        write_intensity_map(tmp_path / "map.csv", imap, scenario)
        expected = per_cell_csv(tmp_path / "ref.csv", imap.db)
        assert (tmp_path / "map.csv").read_bytes() == expected


def percent_rows(matrix, lead: str = "") -> bytes:
    """Reference for the float cell kernel: '%.12g' % v, cell by cell."""
    return b"".join(lead.encode() + b",".join(b"%.12g" % v for v in row) + b"\n"
                    for row in np.asarray(matrix, dtype=float))


def kernel_rows(matrix, lead: str = "") -> bytes:
    f = io.BytesIO()
    _write_float_rows(f, matrix, lead)
    return f.getvalue()


def below(x: float) -> float:
    return float(np.nextafter(x, 0.0))


def above(x: float) -> float:
    return float(np.nextafter(x, math.inf))


# The fixed notation's range ends and their neighbours, a value whose
# log10 rounds up to 11, the fast path's floor 0.1 with its neighbours and
# two values just below it (the first rounds up to 0.1), one value in each
# decade of fixed notation below the fast path, the largest value below
# each power of ten the fixed notation covers, exact half-ties (13
# significant digits ending in 5, the last two rounding down and up to
# even), and both sides of a 12-digit rounding boundary that carries into
# a new decade.
KERNEL_EDGES = (
    [1e-4, below(1e-4), above(1e-4), 1e11, below(1e11), above(1e11), 99999999999.99998]
    + [0.1, below(0.1), above(0.1), 0.0999999999999995, 0.09999999999995]
    + [1.23456789012345e-4, 2.34567890123456e-3, 3.45678901234567e-2]
    + [below(10.0 ** k) for k in range(-4, 12)]
    + [12345678901.25, 1234567890.125, 1.000244140625, 1.000732421875]
    + [9.999999999995, below(9.999999999995), above(9.999999999995)]
)

# Float64 cells of every kind: hypothesis' float edge cases (+-0, the
# smallest subnormal, +-inf, nan, extreme magnitudes) and dB-map-like
# values around the fast path's range.
ANY_FLOAT = st.one_of(
    st.floats(width=64, allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.floats(min_value=-70.0, max_value=70.0),
    st.sampled_from(KERNEL_EDGES),
)


class TestFloatCellKernel:
    @settings(max_examples=200, deadline=None, database=None)
    @given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=24),
                      elements=ANY_FLOAT),
           st.sampled_from(["", "abc123,"]))
    def test_matches_percent_format_cell_by_cell(self, matrix, lead):
        assert kernel_rows(matrix, lead) == percent_rows(matrix, lead)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_named_edge_values(self, sign):
        column = sign * np.array(KERNEL_EDGES).reshape(-1, 1)
        text = kernel_rows(column)
        assert text == percent_rows(column)
        lines = text.decode().splitlines()
        assert lines[KERNEL_EDGES.index(99999999999.99998)] == f"{sign * 1e11:.12g}"
        assert lines[KERNEL_EDGES.index(0.0999999999999995)] == f"{sign * 0.1:.12g}"
        assert lines[-3:] == [f"{sign * 9.99999999999:.12g}"] * 2 + [f"{sign * 10:.12g}"]
        assert f"{sign * 12345678901.2:.12g}" in lines  # half-even tie, down
        assert f"{sign * 1.00073242188:.12g}" in lines  # half-even tie, up

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_every_slot_table_row(self, sign):
        """One cell per exponent index k = 0..11 and trailing-zero count
        z = 0..11: the mantissa 987654321987 cut to z trailing zeros, with k
        digits before the point. Each takes the fast path with that exact
        (k, mantissa), so the cells write every row of the point and keep
        tables, which random cells need not reach."""
        ks, zs = np.divmod(np.arange(144), 12)
        mantissas = np.array([987654321987 // 10**z * 10**z for z in zs.tolist()])
        column = sign * mantissas / 10.0 ** (12 - ks)
        k, mantissa, fast = _mantissas(column)
        assert fast.all()
        assert np.array_equal(k, ks) and np.array_equal(mantissa, mantissas)
        assert kernel_rows(column.reshape(-1, 1)) == percent_rows(column.reshape(-1, 1))

    @pytest.mark.parametrize("shape", [(1, 9000), (9000, 1), (0, 2), (3, 5000), (4, 4096)],
                             ids=["one-row", "one-column", "no-rows", "rows-across-chunks",
                                  "rows-ending-chunks"])
    def test_shapes(self, shape):
        rng = np.random.default_rng(8)
        matrix = -60.0 * rng.random(shape)
        matrix.ravel()[::97] = 0.0
        for lead in ("", "tag,"):
            text = kernel_rows(matrix, lead)
            assert text == percent_rows(matrix, lead)
            assert text.count(b"\n") == shape[0]

    def test_lead_with_percent_is_literal(self, tmp_path):
        write_table(tmp_path / "t.csv", ["tag", "a", "b"], [[1.5, -0.0], [2.0, 1e-5]],
                    lead="50%s,%d%%,")
        assert (tmp_path / "t.csv").read_text() == (
            "tag,a,b\n50%s,%d%%,1.5,-0\n50%s,%d%%,2,1e-05\n")

    def test_map_writer_never_holds_the_whole_text(self, tmp_path, baseline_scenario):
        """A 196 x 4096 map is about 9.7 MB of text; writing it must stay far
        below that in traced memory."""
        db = -60.0 * np.random.default_rng(1).random((196, 4096))
        imap = IntensityMap(db=db, depths=tuple(float(d) for d in range(1, 197)),
                            peak=1.0, floor_db=-60.0)
        tracemalloc.start()
        try:
            write_intensity_map(tmp_path / "map.csv", imap, baseline_scenario)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (tmp_path / "map.csv").stat().st_size > 9_000_000
        assert peak < 4_000_000


class TestWriteTableShapes:
    def test_rows_without_columns_raise(self, tmp_path):
        with pytest.raises(AirylinkError, match=r"\(3, 0\)"):
            write_table(tmp_path / "t.csv", [], np.zeros((3, 0)))
        assert not (tmp_path / "t.csv").exists()

    def test_one_dimensional_input_raises(self, tmp_path):
        with pytest.raises(AirylinkError, match=r"\(4,\)"):
            write_table(tmp_path / "t.csv", ["a"], [1.0, 2.0, 3.0, 4.0])
        assert not (tmp_path / "t.csv").exists()

    def test_no_rows_writes_the_header_only(self, tmp_path):
        write_table(tmp_path / "t.csv", ["a", "b"], np.zeros((0, 2)))
        assert (tmp_path / "t.csv").read_text() == "a,b\n"


def csv_writer_bytes(path, header, rows) -> bytes:
    """What csv.writer writes for a header and rows of text cells."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)
    return path.read_bytes()


def old_trace_csv(path, outcome) -> bytes:
    """The csv.writer + per-cell fmt trace writer that the row template
    replaced."""
    return csv_writer_bytes(
        path, ["bending", "focal_m", "dtheta_deg", "h11_power", "feasible", "rate", "stage"],
        [[fmt(b), fmt(f), fmt(math.degrees(dt)), fmt(h), fmt(ok), fmt(r), stage]
         for b, f, dt, h, r, ok, stage in zip(*(getattr(outcome.trace, name).tolist() for name in
                                                ("bending", "focal", "dtheta", "h11_power",
                                                 "rate", "feasible", "stage")))])


def old_field_cut_csv(path, cut) -> bytes:
    return csv_writer_bytes(
        path, ["x_m", "reference_db", "tuned_db"],
        [[fmt(float(x)), fmt(float(a)), fmt(float(b))]
         for x, a, b in zip(cut.xs, cut.db_reference, cut.db_tuned)])


def old_sweep_csv(out_dir, stem, sweep, scenario) -> list:
    tag = scenario_hash(scenario)
    m = sweep.metrics
    k = m["coupling_db"].shape[-1]
    header = ["scenario", sweep.sweep_variable, "kappa", "sigma_max", "sigma_min",
              "alpha_power", "sinr_db", "sum_rate"]
    header += [f"coupling_db_{i + 1}{j + 1}" for i in range(k) for j in range(k)]
    out = []
    for s, strategy in enumerate(sweep.strategies):
        rows = []
        for p, value in enumerate(sweep.values.tolist()):
            c = p * len(sweep.strategies) + s  # value-major rows
            rows.append([tag, fmt(value), fmt(float(m["condition_number"][c])),
                         fmt(float(m["singular_values"][c][0])),
                         fmt(float(m["singular_values"][c][-1])),
                         fmt(float(m["alpha_power"][c])), fmt(float(m["common_sinr_db"][c])),
                         fmt(float(m["sum_rate"][c]))]
                        + [fmt(float(m["coupling_db"][c][i, j]))
                           for i in range(k) for j in range(k)])
        out.append(csv_writer_bytes(out_dir / f"old_{stem}_{strategy}.csv", header, rows))
    return out


# Signed zero, a huge value, both sides of a 12-digit rounding boundary
# that carries into a new decade, and the non-finite values.
EDGE = [-0.0, 1e16, 9.999999999995, np.nextafter(9.999999999995, 0.0),
        math.inf, -math.inf, math.nan, 0.1, -123456789012.5]


class TestTemplateWritersMatchCsvWriter:
    def test_real_mixed_opt_outputs(self, tmp_path, mixed_scenario, mixed_opt_result):
        search = mixed_opt_result.search
        write_trace_csv(tmp_path / "trace.csv", search)
        assert (tmp_path / "trace.csv").read_bytes() \
            == old_trace_csv(tmp_path / "old_trace.csv", search)
        cut = mixed_opt_result.field_cut
        write_field_cut_csv(tmp_path / "cut.csv", cut)
        assert (tmp_path / "cut.csv").read_bytes() \
            == old_field_cut_csv(tmp_path / "old_cut.csv", cut)
        sweep = mixed_opt_result.dtheta_sweep
        paths = write_sweep_csv(tmp_path, "dtheta", sweep, mixed_scenario)
        expected = old_sweep_csv(tmp_path, "dtheta", sweep, mixed_scenario)
        assert [p.read_bytes() for p in paths] == expected

    def test_edge_values_in_a_trace(self, tmp_path):
        """Int axis values (SearchTrace stores them as floats) and awkward
        measured values in every numeric column."""
        trace = [(-60, 2, 0, 1e16, math.inf, True, "coarse"),
                 (-0.0, 1.75, -0.0, 9.999999999995, -math.inf, False, "coarse")]
        trace += [(v, 1.0, math.radians(0.5), v, v, bool(v > 0), "fine") for v in EDGE]
        outcome = SimpleNamespace(trace=SearchTrace(*zip(*trace)))
        write_trace_csv(tmp_path / "trace.csv", outcome)
        expected = old_trace_csv(tmp_path / "old.csv", outcome)
        assert b"\n-60,2,0,1e+16,true,inf,coarse\n" in expected
        assert b"\nnan,1,0.5,nan,false,nan,fine\n" in expected
        assert (tmp_path / "trace.csv").read_bytes() == expected

    def test_edge_values_in_a_field_cut(self, tmp_path):
        column = np.array(EDGE)
        cut = SimpleNamespace(xs=column, db_reference=column[::-1].copy(),
                              db_tuned=np.roll(column, 3))
        write_field_cut_csv(tmp_path / "cut.csv", cut)
        expected = old_field_cut_csv(tmp_path / "old.csv", cut)
        assert b"\n-0,-123456789012,nan\n" in expected
        assert (tmp_path / "cut.csv").read_bytes() == expected

    def test_edge_values_in_a_sweep(self, tmp_path, baseline_scenario):
        def rec(v):
            return dict(condition_number=math.inf, singular_values=(1e16, -0.0),
                        alpha_power=9.999999999995, common_sinr_db=-math.inf,
                        sum_rate=v, coupling_db=np.array([[v, -0.0], [1e16, v]]),
                        singular=True)

        xs = (-3, -2.5, 0, 1e16)
        sweep = SweepResult(sweep_variable="x2_lambda", strategies=("a", "b"), values=xs,
                            metrics=columns([r for _, v in zip(xs, EDGE)
                                             for r in (rec(v), rec(-v))]))
        paths = write_sweep_csv(tmp_path, "edge", sweep, baseline_scenario)
        expected = old_sweep_csv(tmp_path, "edge", sweep, baseline_scenario)
        assert b",-3,inf,1e+16,-0,9.99999999999,-inf,-0,-0,-0,1e+16,-0\n" in expected[0]
        assert [p.read_bytes() for p in paths] == expected


    def test_edge_values_in_a_channel(self, tmp_path):
        finite = [v for v in EDGE if math.isfinite(v)] + [5e-324, 2.0 / 3.0]
        entries = np.zeros(8, dtype=complex)
        entries.real, entries.imag = finite, finite[::-1]
        entries = entries.reshape(2, 4)
        header = [f"h_{j + 1}_{part}" for j in range(4) for part in ("re", "im")]
        # A complex128 row viewed as float64 is its re, im pairs in column order.
        write_table(tmp_path / "chan.csv", header, entries.view(float))
        expected = csv_writer_bytes(
            tmp_path / "old.csv", header,
            [[fmt(float(c)) for h in row for c in (h.real, h.imag)] for row in entries])
        assert (tmp_path / "chan.csv").read_bytes() == expected


class TestWriteTraceCsv:
    def test_columns_and_degrees(self, tmp_path, mixed_opt_result):
        outcome = mixed_opt_result.search
        path = tmp_path / "trace.csv"
        write_trace_csv(path, outcome)
        lines = path.read_text().splitlines()
        assert lines[0] == "bending,focal_m,dtheta_deg,h11_power,feasible,rate,stage"
        assert len(lines) == 1 + outcome.evaluations
        cells = lines[1].split(",")
        assert cells[:2] == ["-60", "1"]
        assert cells[2] == "-5"  # radians in the trace, degrees on disk
        assert cells[4] in ("true", "false")
        assert cells[6] == "coarse"


class TestWriteFieldCutCsv:
    def test_three_columns(self, tmp_path, mixed_opt_result):
        path = tmp_path / "cut.csv"
        write_field_cut_csv(path, mixed_opt_result.field_cut)
        lines = path.read_text().splitlines()
        assert lines[0] == "x_m,reference_db,tuned_db"
        assert len(lines) == 1 + len(mixed_opt_result.field_cut.xs)


class TestWriteMetadata:
    def test_exact_output(self, tmp_path):
        path = tmp_path / "run.meta"
        write_metadata(path, {
            "run": {"command": "demo", "points": 3, "ok": True},
            "depths": {"z_m": [1.0, 2.5]},
        })
        assert path.read_text() == (
            "[run]\n"
            "command = demo\n"
            "points = 3\n"
            "ok = true\n"
            "\n"
            "[depths]\n"
            "z_m = 1\n"
            "z_m = 2.5\n"
        )

    def test_unix_line_endings(self, tmp_path):
        path = tmp_path / "run.meta"
        write_metadata(path, {"a": {"k": 1}})
        assert b"\r" not in path.read_bytes()
