"""airylink benchmark: time to a result for the CLI experiments.

    python3 bench/run_bench.py --workload mixed_search --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout. The harness imports the package
from `src/`, writes the scenario files for `--seed` (seed 0 reproduces the
bundled configs), and drives `airylink.cli.main(argv)` in this process as
one closed-loop client: each command starts after the previous one
returns. A pass is one round of the workload's commands; passes repeat
until the next one would end after `--seconds`, with at least two, so
every run can compare two passes' `--out` trees byte for byte.

`--trace 0` reports the end-to-end metrics (tracing off): wall and CPU
time per pass, set-up time of a fresh interpreter, peak resident memory
and the share of operations that succeeded. `--trace 1`
alternates untraced and traced passes and reports the per-layer metrics
of the traced ones. The last line of standard output is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
An operation is one CLI invocation; it fails if it exits non-zero,
raises, or fails an output check.

`--record-reference` instead runs every workload's commands once at seed 0
and rewrites the reference values that the output check compares against.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checks
import scenarios
import tracer as tracing

ROOT = Path.cwd()
SRC = ROOT / "src"
REFERENCE = Path(__file__).resolve().parent / "reference_seed0.json"

# The mixed-opt winner recorded at seed 0: (bending, focal m, angle offset deg).
SEED0_WINNER = {"best_bending": -5.0, "best_focal_m": 2.05, "best_dtheta_deg": 1.3}

# mixed_search: the coarse-to-fine search (2948 candidates) plus the angle
#   sweep; mostly propagation and precoding, with the beam weights moving
#   and the users fixed.
# depth_map: three field maps of 196 distinct depths each; mostly CSV
#   output, never reaches the optimizer or precoding, so a per-depth cache
#   gets no hits here.
# scan_sweeps: many small calibrated channels with the users moving and the
#   beams fixed; the only workload on the Green's-function model and the
#   only one whose thread pools do real work. Each command is short, so one
#   pass runs all four.
WORKLOADS = {
    "mixed_search": {
        "config": "mixed",
        "ops": [("mixed-opt", ["mixed-opt", "--config", "{mixed}"])],
    },
    "depth_map": {
        "config": "shadow",
        "ops": [
            (f"fieldmap-{s}", ["fieldmap", "--config", "{shadow}", "--strategy", s])
            for s in ("trad_all", "airy_geo", "airy_opt")
        ],
    },
    "scan_sweeps": {
        "config": "mixed",
        "ops": [
            ("validate", ["validate", "--config", "{mixed}"]),
            ("baseline", ["baseline", "--config", "{baseline}"]),
            ("shadow", ["shadow", "--config", "{shadow}"]),
            ("robustness", ["robustness", "--config", "{mixed}"]),
        ],
    },
}
# Commands that take no --out directory.
NO_OUT = ("validate",)

# Public functions wrapped in the traced run, as module.function.
TARGETS = (
    "cli.main",
    "config.load_scenario",
    "geometry.geometric_angle",
    "geometry.classify_user",
    "beams.airy_weights",
    "beams.traditional_focus",
    "beams.build_codebook",
    "propagation.embed_aperture",
    "propagation.band_limit",
    "propagation.launch_aperture",
    "propagation.propagate_angular_spectrum",
    "propagation.apply_mask",
    "propagation.propagate_blocked",
    "propagation.intensity_map",
    "propagation.sample_field",
    "channels.greens_channel",
    "channels.effective_channel_greens",
    "channels.beam_column",
    "channels.effective_channel_diffraction",
    "channels.remark1_calibration",
    "precoding.rzf_precoder",
    "precoding.link_metrics",
    "optimizer.evaluate_candidate",
    "optimizer.coarse_to_fine_search",
    "experiments.run_baseline_scan",
    "experiments.run_shadow_scan",
    "experiments.run_mixed_optimization",
    "experiments.run_robustness_sweep",
    "experiments.run_fieldmap",
    "io.write_sweep_csv",
    "io.write_intensity_map",
    "io.write_trace_csv",
    "io.write_field_cut_csv",
    "io.write_metadata",
)

# Which end-to-end metric each layer metric should move, on which workload.
LAYER_MAP = {
    "propagation.*.self_s, channels.beam_column.calls":
        "wall_s on mixed_search; barely depth_map",
    "io.write_intensity_map.self_s": "wall_s on depth_map; nothing on mixed_search",
    "precoding.*.self_s, beams.traditional_focus.calls": "wall_s on mixed_search",
    "experiments.run_* spans, experiments.pool_busy_s": "cpu_s - wall_s on scan_sweeps",
    "config.load_scenario": "setup_s",
    "optimizer.evaluations": "wall_s on mixed_search (searching less, not running faster)",
}

# Set-up samples per untraced run, spread evenly over the run's passes.
SETUP_RUNS = 12
_SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import airylink; "
    "airylink.load_scenario(sys.argv[2])"
)


def _median(values):
    return statistics.median(values) if values else 0.0


def _percentile(values, q):
    """Nearest-rank percentile (q in [0, 100])."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def environment(seed: int, nx: int) -> dict:
    import numpy as np

    nproc = None
    if shutil.which("nproc"):
        out = subprocess.run(["nproc"], capture_output=True, text=True, check=False)
        nproc = int(out.stdout) if out.returncode == 0 else None
    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    cpu_count = os.cpu_count()
    return {
        "nproc": nproc,
        "affinity": affinity,
        "cpu_count": cpu_count,
        # The sweep runners size their thread pools from os.cpu_count().
        "oversubscribed": bool(affinity and cpu_count and cpu_count > affinity),
        "numpy": np.__version__,
        "blas": blas,
        "python": platform.python_version(),
        "nx": nx,
        "seed": seed,
    }


def setup_sample(config: Path) -> float:
    """Wall time of one fresh interpreter that imports airylink and loads
    the config."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", _SETUP_CODE, str(SRC), str(config)],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up interpreter failed: {proc.stderr.strip()}")
    return elapsed


def unit_of(metric: str) -> str:
    if metric.endswith("_us"):
        return "us"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    if metric == "propagation.fft_flops_computed":
        return "flop"
    if metric == "io.bytes_written":
        return "B"
    return "count"


def run_op(cli, argv: list) -> tuple:
    """Run one CLI command in-process: (ok, stdout, error)."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
    except (Exception, SystemExit) as exc:  # a failed operation, counted by the caller
        traceback.print_exc(file=sys.stderr)
        return False, buf.getvalue(), repr(exc)
    return rc == 0, buf.getvalue(), None if rc == 0 else f"exit code {rc}"


def run_pass(cli, ops, paths: dict, pass_dir: Path) -> dict:
    """One closed-loop round of the workload's commands. Each writing
    command gets its own `--out` directory under `pass_dir`."""
    results = []
    t0, c0 = time.perf_counter(), time.process_time()
    for name, template in ops:
        argv = [a.format(**paths) for a in template]
        if name not in NO_OUT:
            argv += ["--out", str(pass_dir / name)]
        results.append((name, run_op(cli, argv)))
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    ops_out = {}
    for name, (ok, stdout, error) in results:
        if name == "validate" and "FAIL" in stdout:
            ok, error = False, error or "validate reported FAIL"
        out = pass_dir / name
        ops_out[name] = {
            "error": None if ok else error,
            "digest": checks.tree_digest(out) if out.is_dir() else {},
        }
    written = sum(f.stat().st_size for f in pass_dir.rglob("*") if f.is_file())
    return {"wall": wall, "cpu": cpu, "ops": ops_out, "bytes": written}


def reference_check(pass_dir: Path, ops, reference: dict) -> dict:
    """Compare one pass's CSV outputs with the seed-0 reference: per op,
    (worst relative drift, first problem or None). Files the reference does
    not know are ignored; the .meta sidecars are only checked for the
    mixed-opt winner (they are meant to grow diagnostics)."""
    files = reference["files"]
    verdict = {}
    for name, _template in ops:
        want = sorted(k for k in files if k.startswith(f"{name}/"))
        missing = [k for k in want if not (pass_dir / k).is_file()]
        if missing:
            verdict[name] = (float("inf"), f"missing outputs {missing}")
            continue
        worst, problem = 0.0, None
        for key in want:
            drift, issue = checks.compare(pass_dir / key, files[key])
            worst = max(worst, drift)
            problem = problem or (f"{key} {issue}" if issue else None)
        if name == "mixed-opt":
            meta = (pass_dir / name / "mixed_opt.meta").read_text().splitlines()
            fields = dict(line.split(" = ", 1) for line in meta if " = " in line)
            winner = {k: checks.number(fields.get(k, "")) for k in SEED0_WINNER}
            if winner != SEED0_WINNER:
                problem = problem or f"winner {winner} != {SEED0_WINNER}"
        verdict[name] = (worst, problem)
    return verdict


def traced_pass(cli, ops, paths, pass_dir, tracer, pass_id) -> dict:
    """A pass with every target wrapped; the wrappers are removed after."""
    counters = {"evaluations": 0, "rejected": 0}

    def on_search(outcome):
        counters["evaluations"] += outcome.evaluations
        counters["rejected"] += outcome.rejected_by_constraint

    tracer.pass_id = pass_id
    tracer.fft_calls, tracer.fft_flops = 0, 0.0
    binding = tracing.Binding()
    try:
        missing = binding.install(
            tracer, TARGETS, hooks={"optimizer.coarse_to_fine_search": on_search}
        )
        result = run_pass(cli, ops, paths, pass_dir)
    finally:
        binding.restore()
    result.update(counters, missing=missing, fft_calls=tracer.fft_calls,
                  fft_flops=tracer.fft_flops)
    return result


def layer_metrics(spans: list, main_thread: int, p: dict) -> dict:
    """Per-layer metrics of one traced pass `p`, from its spans."""
    durations = {name: [] for name in TARGETS}
    self_times = {name: 0.0 for name in TARGETS}
    pool_threads, pool_busy = set(), 0.0
    for _sid, name, start, end, parent, tid, _pass, self_s in spans:
        durations[name].append(end - start)
        self_times[name] += self_s
        if tid != main_thread:
            pool_threads.add(tid)
            if parent is None:
                pool_busy += end - start
    m = {}
    for name in TARGETS:
        m[f"{name}.calls"] = len(durations[name])
        m[f"{name}.total_s"] = sum(durations[name])
        m[f"{name}.self_s"] = self_times[name]
    evals = [d * 1e6 for d in durations["optimizer.evaluate_candidate"]]
    m["optimizer.evaluate_candidate.p50_us"] = _percentile(evals, 50)
    m["optimizer.evaluate_candidate.p99_us"] = _percentile(evals, 99)
    m["optimizer.evaluations"] = p["evaluations"]
    m["optimizer.rejected"] = p["rejected"]
    m["optimizer.feasible_ratio"] = (
        (p["evaluations"] - p["rejected"]) / p["evaluations"] if p["evaluations"] else 0.0
    )
    m["propagation.fft_calls"] = p["fft_calls"]
    m["propagation.fft_flops_computed"] = p["fft_flops"]
    # Fastest call against the fastest raw FFT pair: both minima, so the
    # ratio does not move with how busy the host was.
    m["propagation.propagate_angular_spectrum.min_us"] = (
        min(durations["propagation.propagate_angular_spectrum"], default=0.0) * 1e6
    )
    m["io.bytes_written"] = p["bytes"]
    m["experiments.pool_threads"] = len(pool_threads)
    m["experiments.pool_busy_s"] = pool_busy
    m["trace.missing_functions"] = len(p["missing"])
    return m


def per_layer(passes: list, tracer: tracing.Tracer, floor_us: float) -> dict:
    """Medians over the traced passes, plus the FFT-pair floor (fastest raw
    pair seen in this run) and the tracing overhead."""
    spans = tracer.spans()
    traced = [(i, p) for i, p in enumerate(passes) if p["traced"]]
    each = [layer_metrics([s for s in spans if s[6] == i], tracer.main_thread, p)
            for i, p in traced]
    layer = {k: _median([m[k] for m in each]) for k in each[0]}
    layer["propagation.fft_floor_us"] = floor_us
    layer["propagation.propagate_angular_spectrum.floor_ratio"] = (
        layer.pop("propagation.propagate_angular_spectrum.min_us") / floor_us
    )
    layer["trace_overhead_ratio"] = (
        _median([p["wall"] for _, p in traced])
        / _median([p["wall"] for p in passes if not p["traced"]])
    )
    return layer


def output_failures(passes: list, reference: dict) -> list:
    """Failed operations: errors, passes whose outputs differ from the
    first pass, and (at seed 0) ops whose outputs drift from the reference."""
    failures = []
    for i, p in enumerate(passes):
        for name, op in p["ops"].items():
            problem = op["error"]
            if problem is None and op["digest"] != passes[0]["ops"][name]["digest"]:
                problem = "output differs from pass 0"
            if problem is None and reference.get(name, (0.0, None))[1]:
                problem = f"reference: {reference[name][1]}"
            if problem is not None:
                failures.append(f"pass {i} {name}: {problem}")
    return failures


def import_airylink():
    """Import airylink from this checkout's src/, or None if it is absent."""
    if not (SRC / "airylink" / "__init__.py").is_file():
        print(f"error: no airylink sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return None
    sys.path.insert(0, str(SRC))
    import airylink
    import airylink.cli

    if SRC.resolve() not in Path(airylink.__file__).resolve().parents:
        print(f"error: imported airylink from {airylink.__file__}, not {SRC}", file=sys.stderr)
        return None
    return airylink


def write_scenarios(work: Path, seed: int) -> dict:
    paths = {}
    for name, text in scenarios.scenario_texts(seed).items():
        paths[name] = work / f"{name}.cfg"
        paths[name].write_text(text)
    return paths


def benchmark(airylink, args, work: Path) -> int:
    workload = WORKLOADS[args.workload]
    ops = workload["ops"]
    paths = write_scenarios(work, args.seed)
    config = paths[workload["config"]]
    nx = airylink.load_scenario(str(config)).grid.nx
    env = environment(args.seed, nx)
    if env["oversubscribed"]:
        print("warning: os.cpu_count() exceeds the CPU affinity set; "
              "the sweep thread pools oversubscribe the cores", file=sys.stderr)
    setup = []
    if not args.trace:
        setup_sample(config)  # unmeasured: fills the bytecode cache

    tracer = tracing.Tracer()
    passes = []
    probes = []  # FFT-pair times after each pass: how fast the host ran
    measured = 0.0  # time in passes and their checks, set-up samples excluded
    while True:
        i = len(passes)
        t0 = time.perf_counter()
        pass_dir = work / f"pass{i}"
        if args.trace and i % 2 == 1:
            p = traced_pass(airylink.cli, ops, paths, pass_dir, tracer, i)
            p["traced"] = True
        else:
            p = run_pass(airylink.cli, ops, paths, pass_dir)
            p["traced"] = False
        if i > 0:  # pass 0 stays for the reference check
            shutil.rmtree(pass_dir, ignore_errors=True)
        passes.append(p)
        measured += time.perf_counter() - t0
        probes += tracing.fft_pair_times_us(nx, reps=50)
        done = len(passes) >= 2 and measured + measured / len(passes) > args.seconds
        # Host speed drifts over seconds, so set-up samples are spread over
        # the whole run rather than taken in one burst.
        due = SETUP_RUNS if done else int(SETUP_RUNS * measured / args.seconds)
        while not args.trace and len(setup) < due:
            setup.append(setup_sample(config))
        if done:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    reference = {}
    if args.seed == 0:
        reference = reference_check(work / "pass0", ops, json.loads(REFERENCE.read_text()))
    failures = output_failures(passes, reference)
    attempted, failed = len(passes) * len(ops), len(failures)

    report = {
        "workload": args.workload,
        "environment": env,
        "passes": len(passes),
        "pass_wall_s": [p["wall"] for p in passes],
        "host_fft_pair_us": {"median": _median(probes), "min": min(probes)},
        "failure_ratio": failed / attempted,
        "failures": failures[:20],
        "reference_rtol": checks.RTOL,
        "reference_max_drift": max((d for d, _ in reference.values()), default=None),
        "layer_map": LAYER_MAP,
    }
    if args.trace:
        metrics = per_layer(passes, tracer, min(probes))
        report["missing_functions"] = sorted({f for p in passes for f in p.get("missing", ())})
        report["spans"] = len(tracer.spans())
    else:
        # Means, not medians: on a shared host the CPU speed switches
        # between two levels about once a second, and the median of a few
        # multi-second passes jumps between them while the mean follows
        # the share of time spent at each.
        metrics = {
            "wall_s": statistics.mean(p["wall"] for p in passes),
            "cpu_s": statistics.mean(p["cpu"] for p in passes),
            "setup_s": statistics.mean(setup),
            "peak_rss_mb": peak_rss_mb,
            "success_ratio": (attempted - failed) / attempted,
        }
        report["setup_s"] = setup
    units = {k: "MB" if k == "peak_rss_mb" else unit_of(k) for k in metrics}

    for name, value in metrics.items():
        print(f"{name:<55} {value:>14.6g} {units[name]}")
    print(f"{'failure_ratio':<55} {failed / attempted:>14.6g} ratio")
    print(json.dumps(report))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def record_reference(airylink, work: Path) -> int:
    """Run every workload's commands once at seed 0 and store the
    reference entry of every CSV output."""
    paths = write_scenarios(work, 0)
    files = {}
    for name, workload in WORKLOADS.items():
        p = run_pass(airylink.cli, workload["ops"], paths, work / name)
        errors = {op: o["error"] for op, o in p["ops"].items() if o["error"]}
        if errors:
            print(f"error: {name}: {errors}", file=sys.stderr)
            return 1
        for path in sorted((work / name).rglob("*.csv")):
            files[path.relative_to(work / name).as_posix()] = checks.summarize(path)
    REFERENCE.write_text(json.dumps({"seed": 0, "files": files}, separators=(",", ":")) + "\n")
    print(f"wrote {REFERENCE} ({len(files)} files)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite the seed-0 reference values and exit")
    args = parser.parse_args(argv)
    if not args.record_reference and args.workload is None:
        parser.error("--workload is required")

    airylink = import_airylink()
    if airylink is None:
        return 2
    work = ROOT / ".bench_work" / f"{args.workload or 'reference'}-s{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.record_reference:
            return record_reference(airylink, work)
        return benchmark(airylink, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()


if __name__ == "__main__":
    sys.exit(main())
