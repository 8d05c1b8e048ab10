"""Drift gate: the benchmark's commands, run once on the bundled configs,
write CSV files within the benchmark's output check of the values recorded
in bench/reference_seed0.json, and the mixed-opt run keeps the recorded
winner.

Rerun determinism (criterion 14) compares a run only with itself, so an
output that moves would otherwise show only when the benchmark runs. The
gate is the benchmark's own check: run_bench.run_pass runs each
workload's commands as one pass, and run_bench.reference_check compares
every CSV the reference knows through checks.compare (relative drift at
most checks.RTOL) and, for mixed-opt, the winner in mixed_opt.meta
against run_bench.SEED0_WINNER.

The bench modules are imported without writing bytecode, and every output
goes to a temporary directory, so the test reads bench/ and writes nothing
there. The three field maps make depth_map the slow case: about 2 s on
a 2-vCPU host, two thirds of it in checks.compare.
"""

import json
import sys
from pathlib import Path

import pytest

import airylink.cli

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = {name: ROOT / "configs" / f"{name}.cfg" for name in ("baseline", "mixed", "shadow")}
WORKLOADS = ("mixed_search", "depth_map", "scan_sweeps")


@pytest.fixture(scope="module")
def bench():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sys, "dont_write_bytecode", True)
        patch.syspath_prepend(str(ROOT / "bench"))
        import run_bench

        yield run_bench


def test_every_workload_is_gated(bench):
    assert sorted(bench.WORKLOADS) == sorted(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_outputs_match_the_seed0_reference(bench, workload, tmp_path):
    ops = bench.WORKLOADS[workload]["ops"]
    run = bench.run_pass(airylink.cli, ops, CONFIGS, tmp_path)
    assert {name: op["error"] for name, op in run["ops"].items()} == dict.fromkeys(run["ops"])
    reference = json.loads(bench.REFERENCE.read_text())
    verdict = bench.reference_check(tmp_path, ops, reference)
    assert {name: problem for name, (_drift, problem) in verdict.items()} \
        == dict.fromkeys(verdict), verdict

