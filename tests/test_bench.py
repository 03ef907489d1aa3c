import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["ladder", "verify_all", "search", "construct"])
def test_benchmark_replay_still_runs_on_the_public_calls(workload):
    # the traced workloads call pipeline() through saturation_matching,
    # is_acyclic, collapse on plain sets and removal_phases (ladder), rebuild
    # the `all` report from verify.SUITES and verify.fingerprint (verify_all),
    # call the solver with HomSearchConfig(node_budget=...) (search) and
    # build_approx_map(g, k) (construct); a change to those calls that
    # breaks the benchmark fails here first
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--smoke"]
        + ["--trace", "1", "--seconds", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True and summary["failed"] == 0
