import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_replay_still_runs_on_the_public_calls():
    # the traced ladder replays pipeline() through saturation_matching,
    # is_acyclic, collapse on plain sets and removal_phases; a change to
    # those calls that breaks the benchmark fails here first
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ladder", "--smoke"]
        + ["--trace", "1", "--seconds", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True and summary["failed"] == 0
