"""End-to-end exercises of the command-line entry point.

Every test drives ``airylink.cli.main(argv)`` in process, so exit codes,
stdout/stderr, and the files landing in ``--out`` are checked exactly as a
shell user would observe them.  The bundled example configs under
``configs/`` serve as inputs.
"""

import argparse
import csv
import math
import shutil
from pathlib import Path

import numpy as np
import pytest

import airylink.cli
from airylink import load_scenario, run_robustness_sweep, run_shadow_scan
from airylink.beams import airy_local_sine
from airylink.cli import main
from airylink.geometry import geometric_angle
from airylink.io import fmt
from airylink.propagation import LAUNCH_CUTOFF_SINE

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
BASELINE = str(CONFIGS / "baseline.cfg")
SHADOW = str(CONFIGS / "shadow.cfg")
MIXED = str(CONFIGS / "mixed.cfg")
DEEP_SHADOW = str(CONFIGS / "deep_shadow.cfg")


def read_rows(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


class TestArgumentHandling:
    def test_no_arguments_is_a_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(["validate", "--config", str(tmp_path / "nope.cfg")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "cannot read" in err

    def test_config_file_that_is_not_utf8(self, tmp_path, capsys):
        """A config of arbitrary bytes is an error line naming the file and
        exit code 1, not a UnicodeDecodeError traceback."""
        junk = tmp_path / "junk.cfg"
        junk.write_bytes(bytes(range(256)))
        rc = main(["validate", "--config", str(junk)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert str(junk) in err and "Traceback" not in err

    def test_out_naming_an_existing_file(self, tmp_path, capsys):
        """--out must name a directory; a file in its place is an error
        line and exit code 1, not a traceback."""
        blocker = tmp_path / "some_file"
        blocker.write_text("")
        rc = main(["baseline", "--config", BASELINE, "--out", str(blocker)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_unknown_config_key_fails_fast(self, tmp_path, capsys):
        text = Path(BASELINE).read_text() + "\nwavelength_nm = 5\n"
        bad = tmp_path / "bad.cfg"
        bad.write_text(text)
        rc = main(["validate", "--config", str(bad)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_nx_override_must_be_power_of_two(self, capsys):
        rc = main(["validate", "--config", MIXED, "--nx", "100"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_nx_override_must_sample_finely_enough(self, capsys):
        # 512 points over a 256-wavelength window puts dx at lambda/2
        rc = main(["validate", "--config", MIXED, "--nx", "512"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "lambda/4" in err

    @pytest.mark.parametrize("argv, message", [
        (["fieldmap", "--config", SHADOW, "--strategy", "airy_geo", "--zstep", "0"], "sweep step"),
        (["fieldmap", "--config", SHADOW, "--strategy", "airy_geo", "--zstep", "-2"], "sweep step"),
        (["fieldmap", "--config", SHADOW, "--strategy", "airy_geo", "--zstep", "nan"], "sweep step"),
        (["fieldmap", "--config", SHADOW, "--strategy", "airy_geo", "--zstep", "inf"], "sweep step"),
        (["baseline", "--config", BASELINE, "--step", "0"], "sweep step"),
        (["shadow", "--config", SHADOW, "--step", "0"], "sweep step"),
        (["robustness", "--config", MIXED, "--step", "0"], "sweep step"),
        (["mixed-opt", "--config", MIXED, "--step", "0"], "sweep step"),
        (["fieldmap", "--config", SHADOW, "--strategy", "airy_geo", "--zmin", "50",
          "--zmax", "20"], "sweep range [50.0, 20.0] is reversed"),
    ], ids=["fieldmap-0", "fieldmap-neg", "fieldmap-nan", "fieldmap-inf",
            "baseline", "shadow", "robustness", "mixed-opt", "fieldmap-reversed"])
    def test_bad_sweep_step_is_a_config_error(self, tmp_path, capsys, argv, message):
        rc = main(argv + ["--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert message in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command, config, line", [
        ("baseline", BASELINE, "noise_power = 1e-3"),
        ("robustness", MIXED, "rzf_epsilon = 1e-10"),
        ("mixed-opt", MIXED, "edge_x = 0.0"),
    ], ids=["noise_power", "rzf_epsilon", "edge_x"])
    def test_non_finite_config_value_fails_fast(self, tmp_path, capsys, command, config,
                                                line):
        text = Path(config).read_text()
        assert line in text
        bad = tmp_path / "bad.cfg"
        bad.write_text(text.replace(line, line.split(" = ")[0] + " = nan", 1))
        out = tmp_path / "out"
        rc = main([command, "--config", str(bad), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "must be finite" in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["baseline", "--config", BASELINE],
        ["shadow", "--config", SHADOW],
        ["robustness", "--config", MIXED],
    ], ids=["baseline", "shadow", "robustness"])
    def test_workers_flag_is_gone(self, tmp_path, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--out", str(tmp_path), "--workers", "2"])
        assert excinfo.value.code == 2
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["fieldmap", "--config", SHADOW, "--strategy", "airy_geo", "--step", "99"],
        ["validate", "--config", MIXED, "--step", "7"],
    ], ids=["fieldmap", "validate"])
    def test_step_is_a_usage_error_where_nothing_reads_it(self, tmp_path, capsys, argv):
        """Only the sweeps (baseline, shadow, robustness, mixed-opt) take
        --step; fieldmap steps with --zstep and validate does not sweep."""
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as excinfo:
            main(argv + (["--out", str(out)] if argv[0] == "fieldmap" else []))
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --step" in capsys.readouterr().err
        assert not out.exists()

    def test_fieldmap_rejects_unknown_strategy(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["fieldmap", "--config", SHADOW, "--out", str(tmp_path),
                  "--strategy", "banana"])
        assert excinfo.value.code == 2


def outcome(argv, out, capsys) -> tuple:
    """Exit code (a usage error's SystemExit code included), stdout,
    stderr and the bytes of every file under `out` of one main call."""
    shutil.rmtree(out, ignore_errors=True)
    try:
        rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    stdout, stderr = capsys.readouterr()
    files = {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()} \
        if out.is_dir() else {}
    return rc, stdout, stderr, files


class TestParserBuiltOnce:
    def test_one_parser_gives_what_fresh_parsers_give(self, tmp_path, capsys):
        """validate, a bad flag and baseline, run in turn on the parser the
        process keeps, each give what they give on a freshly built one."""
        out = tmp_path / "out"
        commands = [
            ["validate", "--config", MIXED],
            ["baseline", "--config", BASELINE, "--out", str(out), "--bad-flag"],
            ["baseline", "--config", BASELINE, "--out", str(out), "--step", "5"],
        ]
        kept = [outcome(argv, out, capsys) for argv in commands]
        fresh = []
        for argv in commands:
            airylink.cli._parser.cache_clear()
            fresh.append(outcome(argv, out, capsys))
        assert kept == fresh
        assert [rc for rc, *_ in kept] == [0, 2, 0]
        assert "unrecognized arguments: --bad-flag" in kept[1][2]
        assert kept[0][1].count("PASS") == 3
        assert len(kept[2][3]) == 3

    def test_second_call_adds_no_argument(self, monkeypatch, capsys):
        calls = []
        add = argparse.ArgumentParser.add_argument

        def counted(self, *args, **kwargs):
            calls.append(args)
            return add(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counted)
        airylink.cli._parser.cache_clear()
        assert main(["validate", "--config", MIXED, "--nx", "2048"]) == 0
        assert len(calls) > 30
        calls.clear()
        assert main(["validate", "--config", MIXED, "--nx", "2048"]) == 0
        assert calls == []


class TestValidate:
    def test_all_checks_pass_on_the_mixed_scenario(self, capsys):
        rc = main(["validate", "--config", MIXED])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        assert all(line.startswith("PASS  ") for line in lines)
        joined = "\n".join(lines)
        assert "energy conservation" in joined
        assert "split-step composition" in joined
        assert "calibration residual" in joined

    def test_all_checks_pass_on_the_deep_shadow_scenario(self, capsys):
        assert main(["validate", "--config", DEEP_SHADOW]) == 0
        assert capsys.readouterr().out.count("PASS  ") == 3

    def test_accepts_a_coarser_power_of_two_grid(self, capsys):
        rc = main(["validate", "--config", BASELINE, "--nx", "2048"])
        assert rc == 0
        assert capsys.readouterr().out.count("PASS") == 3


class TestBaselineCommand:
    def test_outputs_and_reindexed_angles(self, tmp_path, capsys):
        rc = main(["baseline", "--config", BASELINE, "--out", str(tmp_path),
                   "--step", "2.5"])
        assert rc == 0

        x2_csv = tmp_path / "baseline_vs_x2_trad_all.csv"
        th_csv = tmp_path / "baseline_vs_theta2_trad_all.csv"
        meta = tmp_path / "baseline.meta"
        for p in (x2_csv, th_csv, meta):
            assert p.exists()

        header, rows = read_rows(x2_csv)
        assert header[:2] == ["scenario", "x2_lambda"]
        xs = [float(r[1]) for r in rows]
        assert xs == [-15.0 + 2.5 * i for i in range(11)]

        th_header, th_rows = read_rows(th_csv)
        assert th_header[1] == "theta2_deg"
        assert len(th_rows) == len(rows)
        # the angle column is just the lateral offset reindexed at z2
        thetas = [float(r[1]) for r in th_rows]
        assert thetas == sorted(thetas)
        assert math.isclose(thetas[-1], math.degrees(math.atan2(10, 300)),
                            rel_tol=1e-9)

        meta_text = meta.read_text()
        assert "fraunhofer_m" in meta_text
        out = capsys.readouterr().out
        assert out.count("wrote ") == 3


class TestShadowCommand:
    def test_outputs_both_strategies_and_angles(self, tmp_path):
        rc = main(["shadow", "--config", SHADOW, "--out", str(tmp_path),
                   "--step", "3.5"])
        assert rc == 0

        for name in ("shadow_vs_x2_trad_all.csv", "shadow_vs_x2_airy_geo.csv",
                     "shadow_angles.csv", "shadow.meta"):
            assert (tmp_path / name).exists(), name

        header, rows = read_rows(tmp_path / "shadow_vs_x2_trad_all.csv")
        assert [float(r[1]) for r in rows] == [-15.0, -11.5, -8.0, -4.5, -1.0]

        ang_header, ang_rows = read_rows(tmp_path / "shadow_angles.csv")
        assert ang_header == ["x2_lambda", "theta1_deg", "theta2_deg"]
        assert len(ang_rows) == 5
        theta1 = {r[1] for r in ang_rows}
        assert len(theta1) == 1  # user 1 never moves during the scan


class TestRobustnessCommand:
    def test_outputs_worst_case_and_gain_tables(self, tmp_path):
        rc = main(["robustness", "--config", MIXED, "--out", str(tmp_path),
                   "--step", "1.5"])
        assert rc == 0

        for s in ("trad_all", "airy_geo", "airy_opt"):
            assert (tmp_path / f"robustness_vs_dx2_{s}.csv").exists()

        header, rows = read_rows(tmp_path / "robustness_worst_case.csv")
        assert header == ["abs_dx2_lambda", "worst_rate_trad_all",
                          "worst_rate_airy_geo", "worst_rate_airy_opt"]
        assert [float(r[0]) for r in rows] == [0.0, 1.5, 3.0]

        g_header, g_rows = read_rows(tmp_path / "robustness_gain.csv")
        assert g_header == ["dx2_lambda", "gain_airy_geo_vs_trad",
                            "gain_airy_opt_vs_trad"]
        assert [float(r[0]) for r in g_rows] == [-3.0, -1.5, 0.0, 1.5, 3.0]
        assert (tmp_path / "robustness.meta").exists()


def csv_writer_bytes(path, header, rows) -> bytes:
    """The csv.writer + per-cell fmt writer the CLI tables used before they
    went through io.write_table."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(header)
        w.writerows([fmt(float(v)) for v in row] for row in rows)
    return Path(path).read_bytes()


class TestTablesMatchCsvWriter:
    def test_shadow_angles(self, tmp_path):
        assert main(["shadow", "--config", SHADOW, "--out", str(tmp_path),
                     "--step", "3.5"]) == 0
        scenario = load_scenario(SHADOW)
        sweep = run_shadow_scan(scenario, step_lambda=3.5)
        lam, z2 = scenario.carrier.wavelength, scenario.users[1].z
        theta1 = math.degrees(geometric_angle(scenario.users[0]))
        expected = csv_writer_bytes(
            tmp_path / "old.csv", ["x2_lambda", "theta1_deg", "theta2_deg"],
            [(x, theta1, math.degrees(math.atan2(x * lam, z2))) for x in sweep.values])
        assert (tmp_path / "shadow_angles.csv").read_bytes() == expected

    def test_robustness_tables(self, tmp_path):
        assert main(["robustness", "--config", MIXED, "--out", str(tmp_path),
                     "--step", "1.5"]) == 0
        sweep = run_robustness_sweep(load_scenario(MIXED), step_lambda=1.5)
        values = list(sweep.values)
        rates = {s: sweep.series(s, "sum_rate") for s in sweep.strategies}
        worst = [[a] + [min(rates[s][i] for i, v in enumerate(values) if abs(v) == a)
                        for s in sweep.strategies]
                 for a in sorted({abs(v) for v in values})]
        expected = csv_writer_bytes(
            tmp_path / "old_wc.csv",
            ["abs_dx2_lambda"] + [f"worst_rate_{s}" for s in sweep.strategies], worst)
        assert (tmp_path / "robustness_worst_case.csv").read_bytes() == expected
        others = [s for s in sweep.strategies if s != "trad_all"]
        gains = [[v] + [rates[s][i] - rates["trad_all"][i] for s in others]
                 for i, v in enumerate(values)]
        expected = csv_writer_bytes(
            tmp_path / "old_gain.csv",
            ["dx2_lambda"] + [f"gain_{s}_vs_trad" for s in others], gains)
        assert (tmp_path / "robustness_gain.csv").read_bytes() == expected


class TestFieldmapCommand:
    def test_map_matrix_has_one_row_per_depth(self, tmp_path):
        rc = main(["fieldmap", "--config", SHADOW, "--out", str(tmp_path),
                   "--strategy", "airy_geo", "--zstep", "97.5", "--nx", "1024"])
        assert rc == 0

        csv = tmp_path / "fieldmap_airy_geo_beam0.csv"
        meta = tmp_path / "fieldmap_airy_geo_beam0.csv.meta"
        assert csv.exists() and meta.exists()

        lines = csv.read_text().splitlines()
        assert len(lines) == 5  # depths 10, 107.5, 205, 302.5, 400
        assert all(len(line.split(",")) == 1024 for line in lines)

        meta_text = meta.read_text()
        assert "rows = 5" in meta_text
        assert meta_text.count("z_m =") == 5


class TestRoles:
    @pytest.mark.parametrize("command, who", [("mixed-opt", "the search"),
                                              ("robustness", "robustness sweep")])
    def test_swapped_users_are_refused(self, tmp_path, capsys, command, who):
        """mixed.cfg with its two users in the other order: user 0 is the
        bright one, so neither command may serve it with the cubic beam."""
        text = Path(MIXED).read_text()
        shadowed, bright = "x = -5\nz = 250\nunit = lambda\n", "x = 3.5\nz = 300\nunit = lambda\n"
        assert shadowed + bright in text
        swapped = tmp_path / "swapped.cfg"
        swapped.write_text(text.replace(shadowed + bright, bright + shadowed))
        out = tmp_path / "out"
        rc = main([command, "--config", str(swapped), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {who} needs user 0 shadowed and user 1 bright, got bright and shadowed"]
        assert not out.exists()


class TestMixedOptCommand:
    def test_full_search_products(self, tmp_path):
        rc = main(["mixed-opt", "--config", MIXED, "--out", str(tmp_path),
                   "--step", "1.0"])
        assert rc == 0

        trace = tmp_path / "search_trace.csv"
        sweep = tmp_path / "dtheta_sweep_airy_best_bf.csv"
        cut = tmp_path / "field_cut.csv"
        meta = tmp_path / "mixed_opt.meta"
        for p in (trace, sweep, cut, meta):
            assert p.exists()

        trace_lines = trace.read_text().splitlines()
        assert len(trace_lines) == 1 + 11 * 7 * 21 + 11 ** 3

        _, sweep_rows = read_rows(sweep)
        assert [float(r[1]) for r in sweep_rows] == [float(d - 5)
                                                     for d in range(11)]

        meta_text = meta.read_text()
        assert "[search]" in meta_text
        assert "[calibration]" in meta_text
        assert f"evaluations = {11 * 7 * 21 + 11 ** 3}" in meta_text

        cut_header, cut_rows = read_rows(cut)
        assert cut_header == ["x_m", "reference_db", "tuned_db"]
        assert len(cut_rows) > 100

    def test_runs_on_the_deep_shadow_scenario(self, tmp_path):
        rc = main(["mixed-opt", "--config", DEEP_SHADOW, "--out", str(tmp_path),
                   "--step", "1.0"])
        assert rc == 0
        assert (tmp_path / "mixed_opt.meta").exists()

    def test_meta_counts_candidates_past_the_launch_cutoff(self, tmp_path):
        """The sampling flags: traced candidates whose local sine exceeds
        LAUNCH_CUTOFF_SINE and 1, recounted from the trace file, and the
        winner's local sine. The bundled search flags 403 and 137 of its
        2948 candidates and keeps them in the search."""
        rc = main(["mixed-opt", "--config", MIXED, "--out", str(tmp_path),
                   "--step", "1.0"])
        assert rc == 0
        lines = (tmp_path / "mixed_opt.meta").read_text().splitlines()
        fields = dict(line.split(" = ", 1) for line in lines if " = " in line)
        scenario = load_scenario(MIXED)
        theta_geo = geometric_angle(scenario.users[0])
        header, rows = read_rows(tmp_path / "search_trace.csv")
        bending, focal, dtheta = (np.array([float(r[header.index(c)]) for r in rows])
                                  for c in ("bending", "focal_m", "dtheta_deg"))
        sines = airy_local_sine(scenario.array, bending, focal, theta_geo + np.radians(dtheta))
        counts = (np.count_nonzero(sines > LAUNCH_CUTOFF_SINE), np.count_nonzero(sines > 1.0))
        assert counts == (403, 137)
        flags = ("local_sine_above_cutoff", "local_sine_above_one")
        assert tuple(int(fields[name]) for name in flags) == counts
        best = airy_local_sine(scenario.array, float(fields["best_bending"]),
                               float(fields["best_focal_m"]),
                               theta_geo + math.radians(float(fields["best_dtheta_deg"])))
        assert float(fields["best_local_sine"]) == pytest.approx(best, rel=1e-9)

    def test_meta_flags_winner_on_fine_grid_edge(self, tmp_path):
        """The seed winner (-5, 2.05 m, +1.3 deg) sits on the bending edge of
        its fine grid (-15..-5) and inside the focal and angle axes."""
        rc = main(["mixed-opt", "--config", MIXED, "--out", str(tmp_path),
                   "--step", "1.0"])
        assert rc == 0
        lines = (tmp_path / "mixed_opt.meta").read_text().splitlines()
        fields = dict(line.split(" = ", 1) for line in lines if " = " in line)
        flags = {k: fields[f"{k}_on_fine_edge"] for k in ("bending", "focal", "dtheta")}
        assert flags == {"bending": "true", "focal": "false", "dtheta": "false"}

        header, rows = read_rows(tmp_path / "search_trace.csv")
        fine = [r for r in rows if r[header.index("stage")] == "fine"]
        bendings = [float(r[header.index("bending")]) for r in fine]
        assert (min(bendings), max(bendings)) == (-15.0, float(fields["best_bending"]))
