"""The acceptance gate: fourteen numbered criteria, each printing one
PASS/FAIL line with its measured values and then asserting.

Run ``pytest tests/test_acceptance.py -s`` for the readable report.

Criteria 1-6 are property-based foundations; 7-13 are figure-level
reproductions with stated tolerance bands; 14 is end-to-end determinism.
Criterion 3 compares the propagator with a quadrature oracle that the
package does not ship (tests/wave_oracles.py); criterion 5 checks the RZF
that every sweep scores through, batch_metrics and achieved_power.

Criterion 11 checks the search endpoint against the same search run on the
closed-form knife-edge channel (tests/knife_edge_oracle.py), which agrees
with diffraction_channel to 4% on the shadowed user and 1% on the bright
user of the mixed scenario.

Criteria 9 (two of three clauses), 12 and 13 do not hold on this
implementation. Their bands copy the paper's deep-shadow results, while
the bundled shadowed users sit in penumbra: across the aperture the
knife-edge parameter nu of the mixed scenario's shadowed user runs from
-0.58 to 1.67, and deep shadow starts near nu = 2-3. Each failure has its
own cause:

* 9(c) and 12(a) ask for more than any phase-only beam can give at that
  point; the report line prints that ceiling next to the band.
* 9(a) is reachable (the most any precoder can deliver,
  P/(sigma^2 sum_k 1/||h_k||^2), stays above 3 dB over the scan), but the
  stock geometric curved beam is not an edge-riding design.
* 12(b) needs the paper's null steering, which is not implemented.
* 13(b) depends only on the geometry and the fixed focusing codebook; the
  report line prints the traditional kappa range. 13(a), (c) and (d)
  measure the frozen reference design, which on this geometry keeps 3.5%
  of the geometric design's |h11|^2, below the search's 40% floor.

Those tests fail with their measured values on the report line rather than
being weakened.
"""

import filecmp
import math

import numpy as np

from airylink import (
    GridSpec,
    UserPosition,
    airy_weights,
    diffraction_channel,
    geometric_angle,
    propagate_angular_spectrum,
    run_baseline_scan,
)
from airylink.cli import main
from airylink.propagation import grid_fx, grid_x

from batch_of_one import design_params, focus_row, rzf_of_one
from knife_edge_oracle import fine_steps, oracle_channel, oracle_search
from test_cli import BASELINE, MIXED, SHADOW
from wave_oracles import propagate_direct_fresnel

# Gain floor of the mixed-opt search: run_mixed_optimization's default eta.
SEARCH_ETA = 0.4


def report(num: int, label: str, clauses) -> None:
    """One line per criterion; every clause's measurement is on the line so
    a failure documents itself. `clauses` is a list of (ok, detail)."""
    ok = all(c for c, _ in clauses)
    details = "; ".join(d for _, d in clauses)
    print(f"{'PASS' if ok else 'FAIL'} criterion {num:02d} [{label}]: {details}")
    failed = [d for c, d in clauses if not c]
    assert not failed, f"criterion {num} [{label}]: " + "; ".join(failed)


def phase_only_ceiling_db(scenario, user: UserPosition, weights) -> float:
    """How far the best phase-only beam can raise |h.w|^2 above beam
    `weights` at `user`, in dB. With uniform 1/sqrt(N) amplitudes the best
    phases co-phase every element, giving (sum_n |h_n|)^2 / N."""
    moved = scenario.with_users((user,) + scenario.users[1:])
    h = diffraction_channel(moved)[0]
    best = np.sum(np.abs(h)) ** 2 / scenario.array.n
    return 10.0 * math.log10(best / abs(h @ weights) ** 2)


def white_field(grid: GridSpec, rng) -> np.ndarray:
    return rng.standard_normal(grid.nx) + 1j * rng.standard_normal(grid.nx)


def energy(samples, grid: GridSpec) -> float:
    """Discrete field energy, sum |E|^2 dx."""
    return float(np.sum(np.abs(samples) ** 2) * grid.dx)


def confined_field(grid: GridSpec, lam: float, rng) -> np.ndarray:
    """Band-limited (|sin| < 0.05) and spatially confined to the central
    fifth of the window, so the direct-quadrature oracle and the periodic
    FFT path see the same physics at every tested depth."""
    spectrum = rng.standard_normal(grid.nx) + 1j * rng.standard_normal(grid.nx)
    spectrum[np.abs(lam * grid_fx(grid)) > 0.05] = 0.0
    x = grid_x(grid)
    envelope = np.exp(-((x / (grid.window / 5.0)) ** 8))
    return np.fft.ifft(spectrum) * envelope


class TestFoundations:
    def test_criterion_01_propagator_unitarity(self, grid_bare, lam, rng):
        worst = 0.0
        for _ in range(100):
            f = white_field(grid_bare, rng)
            out = propagate_angular_spectrum(f, grid_bare, float(rng.uniform(20, 400)) * lam, lam)
            e0 = energy(f, grid_bare)
            worst = max(worst, abs(energy(out, grid_bare) - e0) / e0)
        report(1, "propagator unitarity", [
            (worst < 1e-10, f"max relative energy drift {worst:.2e} (tol 1e-10)"),
        ])

    def test_criterion_02_semigroup(self, grid_bare, lam, rng):
        worst = 0.0
        for _ in range(50):
            f = white_field(grid_bare, rng)
            z1, z2 = (float(rng.uniform(20, 200)) * lam for _ in range(2))
            once = propagate_angular_spectrum(f, grid_bare, z1 + z2, lam)
            twice = propagate_angular_spectrum(
                propagate_angular_spectrum(f, grid_bare, z1, lam), grid_bare, z2, lam)
            err = np.linalg.norm(once - twice) / np.linalg.norm(once)
            worst = max(worst, float(err))
        report(2, "split-step semigroup", [
            (worst < 1e-9, f"max relative split error {worst:.2e} (tol 1e-9)"),
        ])

    def test_criterion_03_oracle_equivalence(self, grid_bare, lam, rng):
        interior = np.abs(grid_x(grid_bare)) < grid_bare.window / 4
        worst = 0.0
        for _ in range(20):
            f = confined_field(grid_bare, lam, rng)
            z = float(rng.uniform(50, 400)) * lam
            fast = propagate_angular_spectrum(f, grid_bare, z, lam)[interior]
            slow = propagate_direct_fresnel(f, grid_bare, z, lam)[interior]
            err = float(np.max(np.abs(fast - slow)) / np.max(np.abs(slow)))
            worst = max(worst, err)
        report(3, "spectral vs quadrature oracle", [
            (worst < 1e-3,
             f"max relative interior error {worst:.2e} over 20 fields (tol 1e-3)"),
        ])

    def test_criterion_04_cross_model_calibration(self, baseline_calibration):
        scale, residual = baseline_calibration
        report(4, "cross-model calibration", [
            (residual < 0.02,
             f"residual {residual:.4%} (tol 2%), |scale| = {abs(scale):.4f}"),
        ])

    def test_criterion_05_zero_forcing_contract(self, rng):
        beams = np.zeros((2, 4), dtype=complex)
        beams[0, 0] = beams[1, 1] = 1.0
        worst_zf, worst_power = 0.0, 0.0
        for _ in range(100):
            while True:
                h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                sigma = np.linalg.svd(h, compute_uv=False)
                if sigma[0] / sigma[-1] < 100.0:
                    break
            res = rzf_of_one(h, beams, tx_power=3.7, epsilon=0.0)
            target = res.alpha * np.eye(2)
            worst_zf = max(worst_zf, float(
                np.linalg.norm(res.product_check - target)
                / np.linalg.norm(target)))
            worst_power = max(worst_power, abs(res.achieved_power - 3.7) / 3.7)
        report(5, "zero-forcing exactness", [
            (worst_zf < 1e-8, f"max diagonalization error {worst_zf:.2e} (tol 1e-8)"),
            (worst_power < 1e-9, f"max power error {worst_power:.2e} (tol 1e-9)"),
        ])

    def test_criterion_06_gaussian_beam(self, grid_bare, lam):
        w0, z = 4 * lam, 100 * lam
        zr = math.pi * w0**2 / lam
        x = grid_x(grid_bare)
        launch = np.exp(-(x / w0) ** 2).astype(complex)
        intensity = np.abs(propagate_angular_spectrum(launch, grid_bare, z, lam)) ** 2
        measured = 2.0 * math.sqrt(float(np.sum(x**2 * intensity) / np.sum(intensity)))
        expected = w0 * math.sqrt(1.0 + (z / zr) ** 2)
        rel = abs(measured - expected) / expected
        report(6, "gaussian beam closed form", [
            (rel < 0.01,
             f"waist {measured / lam:.3f}λ vs analytic {expected / lam:.3f}λ, "
             f"error {rel:.2%} (tol 1%)"),
        ])


class TestFigureLevel:
    def test_criterion_07_condition_number_peak(self, baseline_scenario, lam):
        sweep = run_baseline_scan(baseline_scenario)
        kappa = sweep.series("trad_all", "condition_number")
        peak_x = float(sweep.values[int(np.argmax(kappa))])
        peak = float(kappa.max())
        report(7, "near-collinear singularity", [
            (abs(peak_x - (-6.0)) <= 0.5,
             f"κ peak at x2 = {peak_x:+.1f}λ (want −6λ ± 0.5λ)"),
            (158 / 3 <= peak <= 158 * 3,
             f"peak κ = {peak:.1f} (want within 3x of 158)"),
        ])

    def test_criterion_08_angular_window(self, baseline_scenario):
        sweep = run_baseline_scan(
            baseline_scenario, step_lambda=1.0, start_lambda=-40.0,
            stop_lambda=40.0)
        ue1 = baseline_scenario.users[0]
        z2 = baseline_scenario.users[1].z
        lam = baseline_scenario.carrier.wavelength
        theta1 = math.degrees(geometric_angle(ue1))
        theta2 = np.degrees(np.arctan2(sweep.values * lam, z2))
        sinr = sweep.series("trad_all", "common_sinr_db")
        far = np.abs(theta2 - theta1) > 3.0
        plateau = float(np.median(sinr[far]))
        dev = float(np.max(np.abs(sinr[far] - plateau)))
        report(8, "angular separation window", [
            (dev < 1.0,
             f"SINR within {dev:.3f} dB of the {plateau:.2f} dB plateau for "
             f"|θ2−θ1| > 3° ({int(far.sum())} points, tol 1 dB)"),
        ])

    def test_criterion_09_shadow_resilience(self, shadow_sweep, shadow_scenario):
        airy = shadow_sweep.series("airy_geo", "common_sinr_db")
        trad = shadow_sweep.series("trad_all", "common_sinr_db")
        deep = shadow_sweep.values <= -6.0
        at_11 = np.flatnonzero(shadow_sweep.values == -11.0).item()
        gain = float(shadow_sweep.series("airy_geo", "coupling_db")[:, 1, 1][at_11]
                     - shadow_sweep.series("trad_all", "coupling_db")[:, 1, 1][at_11])
        lam = shadow_scenario.carrier.wavelength
        ue2 = UserPosition(-11.0 * lam, shadow_scenario.users[1].z, "ue2")
        ceiling = phase_only_ceiling_db(
            shadow_scenario, ue2,
            focus_row(shadow_scenario.array, shadow_scenario.carrier, ue2))
        report(9, "shadow-scan resilience", [
            (float(airy.min()) > 0.0,
             f"min curved-beam SINR {airy.min():+.2f} dB (want > 0 dB)"),
            (float(trad[deep].max()) < 0.0,
             f"max traditional SINR at x2 ≤ −6λ {trad[deep].max():+.2f} dB "
             f"(want < 0 dB)"),
            (gain > 10.0,
             f"shadowed-link power gain at x2 = −11λ {gain:+.2f} dB (want > 10 dB; "
             f"phase-only ceiling {ceiling:+.2f} dB)"),
        ])

    def test_criterion_10_sum_rate_gain(self, shadow_sweep):
        gain = (shadow_sweep.series("airy_geo", "sum_rate")
                - shadow_sweep.series("trad_all", "sum_rate"))
        best = float(gain.max())
        report(10, "shadow-scan sum-rate gain", [
            (2.0 <= best <= 6.0,
             f"max sum-rate gain {best:.2f} bits/s/Hz (want in [2, 6])"),
        ])

    def test_criterion_11_optimizer_endpoint(self, mixed_opt_result, mixed_scenario):
        """The search promises the constrained maximum of the post-RZF sum
        rate, not a location. The expected endpoint is that maximum on the
        closed-form knife-edge channel, reached by the same objective, gain
        floor and coarse-to-fine rule; the winner must lie within one fine
        step of it on each axis."""
        expected = oracle_search(mixed_scenario, oracle_channel(mixed_scenario), SEARCH_ETA)
        search = mixed_opt_result.search
        best = search.best_params
        found = (best.bending, best.focal,
                 best.launch_angle - geometric_angle(mixed_scenario.users[0]))
        steps = fine_steps()
        t = search.trace
        fine = list(zip(*(column[t.stage == "fine"].tolist()
                          for column in (t.bending, t.focal, t.dtheta))))
        ends = [(min(c[a] for c in fine), max(c[a] for c in fine)) for a in range(3)]
        on_edge = [name for name, f, (lo, hi), step
                   in zip(("bending", "focal", "Δθ"), found, ends, steps)
                   if min(abs(f - lo), abs(f - hi)) <= 1e-9 * step]

        def show(point):
            b, f, dt = point
            return f"({b:+.1f}, {f:.2f} m, {math.degrees(dt):+.2f}°)"

        within = [abs(found[a] - expected.best[a]) <= steps[a] * (1.0 + 1e-9)
                  for a in range(3)]
        report(11, "search endpoint vs knife-edge oracle", [
            (within[0], f"bending* = {found[0]:+.1f} (oracle {expected.best[0]:+.1f}, "
                        f"want within {steps[0]:g})"),
            (within[1], f"focal* = {found[1]:.2f} m (oracle {expected.best[1]:.2f} m, "
                        f"want within {steps[1]:g} m)"),
            (within[2], f"Δθ* = {math.degrees(found[2]):+.2f}° (oracle "
                        f"{math.degrees(expected.best[2]):+.2f}°, want within "
                        f"{math.degrees(steps[2]):.2f}°)"),
            (True, f"oracle endpoint {show(expected.best)} via coarse incumbent "
                   f"{show(expected.coarse)}; winner on the fine-grid edge in "
                   f"{', '.join(on_edge) or 'no axis'}"),
        ])

    def test_criterion_12_energy_rebalancing(self, mixed_opt_result, mixed_scenario):
        cut = mixed_opt_result.field_cut
        # The cut reads the shadowed user's x at the cut depth.
        at_cut = UserPosition(mixed_scenario.users[0].x, cut.cut_depth, "cut")
        geometric = airy_weights(mixed_scenario.array, mixed_scenario.carrier,
                                 design_params("airy_geo", mixed_scenario.users[0]))
        ceiling = phase_only_ceiling_db(mixed_scenario, at_cut, geometric)
        report(12, "field-cut rebalancing", [
            (15.0 <= cut.gain_at_shadowed_db <= 27.0,
             f"tuned-vs-geometric gain at the shadowed user "
             f"{cut.gain_at_shadowed_db:+.2f} dB (want in [+15, +27]; "
             f"phase-only ceiling at the cut point {ceiling:+.2f} dB)"),
            (-8.0 <= cut.interference_change_db <= 0.0,
             f"interference change at the bright user "
             f"{cut.interference_change_db:+.2f} dB (want in [−8, 0])"),
        ])

    def test_criterion_13_positioning_robustness(self, robustness_result):
        k_opt = robustness_result.series("airy_opt", "condition_number")
        k_trad = robustness_result.series("trad_all", "condition_number")
        gain = (robustness_result.series("airy_opt", "sum_rate")
                - robustness_result.series("trad_all", "sum_rate"))
        report(13, "positioning-error robustness", [
            (float(k_opt.max()) < 10.0,
             f"max tuned-beam κ {k_opt.max():.1f} (want < 10)"),
            (float(k_trad.min()) > 50.0,
             f"min traditional κ {k_trad.min():.1f} (want > 50; traditional κ "
             f"spans {k_trad.min():.1f}–{k_trad.max():.1f}, fixed by the geometry "
             f"and the focusing codebook)"),
            (2.5 <= float(gain.mean()) <= 5.5,
             f"mean sum-rate gain {gain.mean():+.2f} bits/s/Hz (want in [2.5, 5.5])"),
            (float(gain.min()) > 2.0,
             f"worst-case gain {gain.min():+.2f} bits/s/Hz (want > 2)"),
        ])


class TestDeterminism:
    COMMANDS = (
        ("baseline", BASELINE, ["--step", "2.5"]),
        ("shadow", SHADOW, ["--step", "3.5"]),
        ("mixed-opt", MIXED, ["--step", "1.0"]),
        ("robustness", MIXED, ["--step", "1.5"]),
        ("fieldmap", SHADOW,
         ["--strategy", "airy_geo", "--zstep", "97.5", "--nx", "1024"]),
    )

    def test_criterion_14_byte_identical_reruns(self, tmp_path, capsys):
        clauses = []
        for name, config, extra in self.COMMANDS:
            outs = []
            for run in ("a", "b"):
                out = tmp_path / f"{name}-{run}"
                rc = main([name, "--config", config, "--out", str(out)] + extra)
                assert rc == 0, f"{name} run {run} exited {rc}"
                outs.append(out)
            files = sorted(p.name for p in outs[0].iterdir())
            assert files == sorted(p.name for p in outs[1].iterdir())
            _, mismatch, errors = filecmp.cmpfiles(*outs, files, shallow=False)
            clauses.append((not mismatch and not errors,
                            f"{name}: {len(files)} files identical"))
        capsys.readouterr()  # drop the per-file "wrote" chatter from the report
        report(14, "run-to-run determinism", clauses)
