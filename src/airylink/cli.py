"""Command-line front end.

One subcommand per experiment family plus `validate` for quick self
checks. Every run writes CSVs (plus structured-text .meta sidecars) into
--out and prints the file list; the process exits 0 only when every
inline invariant held along the way.

    airylink baseline   --config configs/baseline.cfg --out results/
    airylink shadow     --config configs/shadow.cfg   --out results/
    airylink mixed-opt  --config configs/mixed.cfg    --out results/
    airylink robustness --config configs/mixed.cfg    --out results/
    airylink fieldmap   --config configs/shadow.cfg   --out results/ \
                        --strategy airy_geo --beam 0 --zmin 10 --zmax 400 --zstep 2
    airylink validate   --config configs/mixed.cfg
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import io as aio
from .beams import DESIGNS, airy_local_sine
from .channels import remark1_calibration
from .config import load_scenario
from .errors import AirylinkError
from .experiments import (
    run_baseline_scan,
    run_fieldmap,
    run_mixed_optimization,
    run_robustness_sweep,
    run_shadow_scan,
)
from .geometry import ScenarioConfig, fraunhofer_distance, geometric_angle
from .propagation import (
    LAUNCH_CUTOFF_SINE,
    ComplexField,
    band_limit,
    propagate_angular_spectrum,
)

__all__ = ["main"]


def _common_flags(p: argparse.ArgumentParser, needs_out: bool = True,
                  needs_step: bool = True) -> None:
    p.add_argument("--config", required=True, help="scenario config file")
    if needs_out:
        p.add_argument("--out", required=True, help="output directory for CSVs")
    if needs_step:
        p.add_argument("--step", type=float, default=None,
                       help="sweep step override (lambda units; degrees for mixed-opt)")
    p.add_argument("--nx", type=int, default=None,
                   help="override grid sample count (power of two)")


def _load(args) -> ScenarioConfig:
    scenario = load_scenario(args.config)
    if args.nx is not None:
        scenario = replace(scenario, grid=replace(scenario.grid, nx=args.nx))
    return scenario


def _step_override(args) -> dict:
    return {} if args.step is None else {"step_lambda": args.step}


def _report(paths) -> None:
    for p in paths:
        print(f"wrote {p}")


def _cmd_baseline(args) -> int:
    scenario = _load(args)
    sweep = run_baseline_scan(scenario, **_step_override(args))
    out = Path(args.out)
    paths = aio.write_sweep_csv(out, "baseline_vs_x2", sweep, scenario)

    # The same scan indexed by the second user's geometric angle.
    lam = scenario.carrier.wavelength
    z2 = scenario.users[1].z
    theta_sweep = replace(sweep, sweep_variable="theta2_deg",
                          values=[math.degrees(math.atan2(x * lam, z2)) for x in sweep.values])
    paths += aio.write_sweep_csv(out, "baseline_vs_theta2", theta_sweep, scenario)
    aio.write_metadata(out / "baseline.meta", {
        "run": {
            "command": "baseline",
            "scenario": aio.scenario_hash(scenario),
            "points": len(sweep.values),
            "fraunhofer_m": fraunhofer_distance(scenario.array, scenario.carrier),
        },
    })
    _report(paths + [out / "baseline.meta"])
    return 0


def _cmd_shadow(args) -> int:
    scenario = _load(args)
    sweep = run_shadow_scan(scenario, **_step_override(args))
    out = Path(args.out)
    paths = aio.write_sweep_csv(out, "shadow_vs_x2", sweep, scenario)

    # Steering angles actually used by the curved codebook at each point.
    lam = scenario.carrier.wavelength
    theta1 = math.degrees(geometric_angle(scenario.users[0]))
    z2 = scenario.users[1].z
    angle_path = out / "shadow_angles.csv"
    aio.write_table(angle_path, ["x2_lambda", "theta1_deg", "theta2_deg"], [
        (x, theta1, math.degrees(math.atan2(x * lam, z2))) for x in sweep.values
    ])
    aio.write_metadata(out / "shadow.meta", {
        "run": {
            "command": "shadow",
            "scenario": aio.scenario_hash(scenario),
            "points": len(sweep.values),
        },
    })
    _report(paths + [angle_path, out / "shadow.meta"])
    return 0


def _fine_edge_flags(search, theta_geo: float) -> dict:
    """Per search axis, whether the winner sits on the edge of the fine
    stage: its coordinate equals the minimum or maximum of that axis among
    the fine-stage trace rows. A winner on the edge may have a better
    neighbour outside the grid."""
    trace = search.trace
    fine = trace.stage == "fine"
    best = search.best_params
    axes = (
        ("bending", best.bending, trace.bending[fine]),
        ("focal", best.focal, trace.focal[fine]),
        # The winner's launch angle is theta_geo + its trace offset, exactly.
        ("dtheta", best.launch_angle, theta_geo + trace.dtheta[fine]),
    )
    return {
        f"{name}_on_fine_edge": value in (axis.min(), axis.max())
        for name, value, axis in axes
    }


def _cmd_mixed_opt(args) -> int:
    scenario = _load(args)
    kwargs = {"eta": args.eta}
    if args.step is not None:
        kwargs["dtheta_step_deg"] = args.step
    result = run_mixed_optimization(scenario, **kwargs)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    trace_path = out / "search_trace.csv"
    aio.write_trace_csv(trace_path, result.search)
    sweep_paths = aio.write_sweep_csv(out, "dtheta_sweep", result.dtheta_sweep, scenario)
    cut_path = out / "field_cut.csv"
    aio.write_field_cut_csv(cut_path, result.field_cut)

    best, trace = result.search.best_params, result.search.trace
    theta_geo = geometric_angle(scenario.users[0])
    # Candidates past the launch cutoff or past 1 are flagged, not rejected.
    sines = airy_local_sine(scenario.array, trace.bending, trace.focal, theta_geo + trace.dtheta)
    best_sine = airy_local_sine(scenario.array, best.bending, best.focal, best.launch_angle)
    aio.write_metadata(out / "mixed_opt.meta", {
        "run": {
            "command": "mixed-opt",
            "scenario": aio.scenario_hash(scenario),
        },
        "search": {
            "best_bending": best.bending,
            "best_focal_m": best.focal,
            "best_dtheta_deg": math.degrees(best.launch_angle - theta_geo),
            "best_rate": result.search.best_rate,
            "baseline_gain": result.search.baseline_gain,
            "threshold": result.search.threshold,
            "evaluations": result.search.evaluations,
            "rejected_by_constraint": result.search.rejected_by_constraint,
            **_fine_edge_flags(result.search, theta_geo),
            "local_sine_above_cutoff": int(np.count_nonzero(sines > LAUNCH_CUTOFF_SINE)),
            "local_sine_above_one": int(np.count_nonzero(sines > 1.0)),
            "best_local_sine": float(best_sine),
        },
        "calibration": {
            "scale_re": result.calibration_scale.real,
            "scale_im": result.calibration_scale.imag,
            "residual": result.calibration_residual,
        },
        "field_cut": {
            "cut_depth_m": result.field_cut.cut_depth,
            "peak": result.field_cut.peak,
            "gain_at_shadowed_db": result.field_cut.gain_at_shadowed_db,
            "interference_change_db": result.field_cut.interference_change_db,
        },
    })
    _report([trace_path] + sweep_paths + [cut_path, out / "mixed_opt.meta"])
    return 0


def _cmd_robustness(args) -> int:
    scenario = _load(args)
    sweep = run_robustness_sweep(scenario, **_step_override(args))
    out = Path(args.out)
    paths = aio.write_sweep_csv(out, "robustness_vs_dx2", sweep, scenario)

    # Worst-case-over-sign and gain-over-traditional summaries.
    values = list(sweep.values)
    rates = {s: sweep.series(s, "sum_rate") for s in sweep.strategies}
    wc_path = out / "robustness_worst_case.csv"
    worst = []
    for a in sorted({abs(v) for v in values}):
        idx = [i for i, v in enumerate(values) if abs(v) == a]
        worst.append([a] + [min(rates[s][i] for i in idx) for s in sweep.strategies])
    aio.write_table(wc_path, ["abs_dx2_lambda"] + [f"worst_rate_{s}" for s in sweep.strategies],
                    worst)
    gain_path = out / "robustness_gain.csv"
    others = [s for s in sweep.strategies if s != "trad_all"]
    aio.write_table(gain_path, ["dx2_lambda"] + [f"gain_{s}_vs_trad" for s in others], [
        [v] + [rates[s][i] - rates["trad_all"][i] for s in others] for i, v in enumerate(values)
    ])
    aio.write_metadata(out / "robustness.meta", {
        "run": {
            "command": "robustness",
            "scenario": aio.scenario_hash(scenario),
            "points": len(sweep.values),
        },
    })
    _report(paths + [wc_path, gain_path, out / "robustness.meta"])
    return 0


def _cmd_fieldmap(args) -> int:
    scenario = _load(args)
    imap = run_fieldmap(
        scenario,
        strategy=args.strategy,
        beam_index=args.beam,
        depth_start_lambda=args.zmin,
        depth_stop_lambda=args.zmax,
        depth_step_lambda=args.zstep,
        with_obstacle=(args.scenario == "blocked"),
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"fieldmap_{args.strategy}_beam{args.beam}.csv"
    aio.write_intensity_map(path, imap, scenario)
    _report([path, Path(str(path) + ".meta")])
    return 0


def _cmd_validate(args) -> int:
    """Fast self-checks: the foundational physics invariants on the loaded
    scenario's grid, and the cross-model calibration quality."""
    scenario = _load(args)
    lam = scenario.carrier.wavelength
    bare = replace(scenario.grid, apod_width=0.0)
    rng = np.random.default_rng(2026)
    checks = []

    worst = 0.0
    for _ in range(20):
        samples = rng.standard_normal(bare.nx) + 1j * rng.standard_normal(bare.nx)
        field = ComplexField(samples, bare, 0.0)
        out = propagate_angular_spectrum(field, 123.4 * lam, lam)
        worst = max(worst, abs(out.energy - field.energy) / field.energy)
    checks.append(("energy conservation (20 random fields)", worst < 1e-10,
                   f"max rel drift {worst:.3e}"))

    worst = 0.0
    for _ in range(10):
        samples = rng.standard_normal(bare.nx) + 1j * rng.standard_normal(bare.nx)
        field = band_limit(ComplexField(samples, bare, 0.0), wavelength=lam)
        z1, z2 = (float(rng.uniform(20, 200)) * lam for _ in range(2))
        once = propagate_angular_spectrum(field, z1 + z2, lam)
        twice = propagate_angular_spectrum(
            propagate_angular_spectrum(field, z1, lam), z2, lam
        )
        err = np.linalg.norm(once.samples - twice.samples) / np.linalg.norm(once.samples)
        worst = max(worst, float(err))
    checks.append(("split-step composition (10 cases)", worst < 1e-9,
                   f"max rel err {worst:.3e}"))

    _scale, residual = remark1_calibration(scenario)
    checks.append(("cross-model calibration residual", residual < 0.02,
                   f"residual {residual:.3%}"))

    ok = True
    for name, passed, detail in checks:
        print(f"{'PASS' if passed else 'FAIL'}  {name}: {detail}")
        ok = ok and passed
    return 0 if ok else 1


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and kept for the
    process: parsing leaves it unchanged, and building it costs about a
    millisecond (each add_argument asks for the terminal size)."""
    parser = argparse.ArgumentParser(
        prog="airylink",
        description="Wave-optics link simulator: curved analog beams around a knife edge",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("baseline", help="free-space lateral scan of user 2")
    _common_flags(p)
    p.set_defaults(fn=_cmd_baseline)

    p = sub.add_parser("shadow", help="obstructed scan: traditional vs curved codebook")
    _common_flags(p)
    p.set_defaults(fn=_cmd_shadow)

    p = sub.add_parser("mixed-opt", help="curved-beam parameter search + diagnostics")
    _common_flags(p)
    p.add_argument("--eta", type=float, default=0.4,
                   help="gain-constraint relaxation factor in (0,1)")
    p.set_defaults(fn=_cmd_mixed_opt)

    p = sub.add_parser("robustness", help="positioning-error sweep with frozen beams")
    _common_flags(p)
    p.set_defaults(fn=_cmd_robustness)

    p = sub.add_parser("fieldmap", help="intensity map of one beam over depth")
    _common_flags(p, needs_step=False)
    p.add_argument("--strategy", required=True,
                   choices=("trad_all", *DESIGNS))
    p.add_argument("--scenario", choices=("blocked", "free"), default="blocked",
                   help="apply the config's obstacle or ignore it")
    p.add_argument("--beam", type=int, default=0, help="beam (user) index to map")
    p.add_argument("--zmin", type=float, default=10.0, help="first depth, lambda units")
    p.add_argument("--zmax", type=float, default=400.0, help="last depth, lambda units")
    p.add_argument("--zstep", type=float, default=2.0, help="depth step, lambda units")
    p.set_defaults(fn=_cmd_fieldmap)

    p = sub.add_parser("validate", help="run fast physics self-checks and exit")
    _common_flags(p, needs_out=False, needs_step=False)
    p.set_defaults(fn=_cmd_validate)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (AirylinkError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
