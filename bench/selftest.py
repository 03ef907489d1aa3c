"""Self-tests of the benchmark harness; run with ``python3 bench/selftest.py``.

They cover the arithmetic the report rests on (the ten-beyond percentile
rule, self time from nested spans, the bases of decided_frac and
failed_frac), the agreement of BENCHMARK.json with the metrics the harness
prints, a smoke run of every workload with tracing off and on, and a
cross-check of the expected Betti vectors against the independent numpy
oracle in ``tests/util.py``.  Exits 0 when every check passes.
"""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

CHECKS = []


def check(fn):
    CHECKS.append(fn)
    return fn


@check
def tail_percentile_keeps_ten_beyond():
    assert harness.tail_percentile([1.0] * 10) is None
    for n in range(11, 600):
        values = [float(i) for i in range(n)]
        p, value = harness.tail_percentile(values)
        rank = int(value) + 1
        assert n - rank >= 10, (n, p)
        # one percentile higher would leave fewer than ten beyond
        assert p == 99 or n - -(-(p + 1) * n // 100) < 10, (n, p)
    assert harness.tail_percentile([float(i) for i in range(11)]) == (9, 0.0)
    assert harness.tail_percentile([float(i) for i in range(20)]) == (50, 9.0)
    assert harness.tail_percentile([float(i) for i in range(100)]) == (90, 89.0)
    assert harness.tail_percentile([float(i) for i in range(1000)]) == (99, 989.0)


@check
def self_time_subtracts_covered_child_time():
    S = harness.Span
    spans = [
        S("round", 0.0, 10.0, None, 0),
        S("a", 1.0, 3.0, 0, 0),
        S("b", 2.0, 5.0, 0, 0),  # overlaps a: the union [1, 5] counts once
        S("c", 6.0, 7.0, 0, 0),
        S("a.inner", 1.5, 2.0, 1, 0),
        S("late", 9.5, 11.0, 0, 0),  # runs past its parent: only [9.5, 10] covers it
    ]
    got = harness.self_times(spans)
    want = [10.0 - 4.0 - 1.0 - 0.5, 1.5, 3.0, 1.0, 0.5, 1.5]
    assert all(abs(g - w) < 1e-12 for g, w in zip(got, want)), got


@check
def tracer_records_nesting_and_counts():
    tr = harness.Tracer()
    tr.round_id = 3
    with tr.span("outer"):
        with tr.span("morse.collapse", pairs=2) as c:
            c["collapse_steps"] = 4
    outer, inner = tr.spans
    assert inner.parent == 0 and outer.parent is None and inner.round_id == 3
    assert inner.counts == {"pairs": 2, "collapse_steps": 4}
    assert outer.start <= inner.start <= inner.end <= outer.end
    records = harness.span_records(tr.spans)
    assert records[0]["self"] <= outer.duration and records[1]["parent"] == 0


@check
def fractions_use_attempts_as_base():
    assert harness.fractions(6, 4, 0) == (4 / 6, 0.0)
    assert harness.fractions(4, 4, 1) == (1.0, 0.25)
    try:
        harness.fractions(0, 0, 0)
    except ValueError:
        pass
    else:
        raise AssertionError("zero attempts must be refused")


@check
def attempt_classifies_outcomes():
    lib = workloads.import_library()
    null = harness.NullTracer()
    expected = {"x": {"answer": {"verdict": "none"}}}

    def raising(exc):
        def run(lib, tr):
            raise exc
        return run

    cases = [
        (lambda lib, tr: {"verdict": "none"}, (True, False)),
        (lambda lib, tr: {"verdict": "exists"}, (True, True)),  # wrong verdict
        (raising(lib.ol.ResourceError("budget")), (False, False)),  # undecided
        (raising(lib.ol.ContractError("bug")), (False, True)),
        (raising(KeyError("bug")), (False, True)),
    ]
    for fn, want in cases:
        decided, failed, _ = run.attempt(workloads.Instance("x", fn), lib, null, expected)
        assert (decided, failed) == want, (decided, failed, want)


@check
def benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == run.END_TO_END, e2e
    assert layer == run.PER_LAYER, set(layer) ^ set(run.PER_LAYER)
    assert spec["command"][:2] == ["python3", "bench/run.py"]


@check
def expected_betti_vectors_match_the_numpy_oracle():
    spec = importlib.util.spec_from_file_location("oracle_util", ROOT / "tests" / "util.py")
    util = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(util)
    lib = workloads.import_library()
    ol = lib.ol
    rungs = {
        ("full", "C7_k3"): (ol.cycle_graph(7), 3),
        ("full", "Petersen_k1"): (ol.petersen(), 1),
        ("full", "K4_k1"): (ol.clique(4), 1),
        ("smoke", "K3_k1"): (ol.clique(3), 1),
    }
    for (part, name), (g, k) in rungs.items():
        want = workloads.expected("ladder", part == "smoke")[name]["answer"]["betti"]
        lower = ol.build_box(ol.omega(g, 2 * k - 1).graph).simplices()
        got = list(util.betti_oracle(lower))
        assert all(v == got for v in want.values()), (name, got, want)


def _smoke(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--smoke",
           "--seconds", "0.5", "--trace", str(trace), "--seed", "7"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


@check
def smoke_runs_every_workload_with_tracing_off_and_on():
    for workload in workloads.WORKLOADS:
        for trace, names in ((0, run.END_TO_END), (1, run.PER_LAYER)):
            out = _smoke(workload, trace)
            assert set(out) == {"correct", "attempted", "failed", "metrics"}, out
            assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1, out
            assert set(out["metrics"]) == set(names), set(out["metrics"]) ^ set(names)
            if trace == 0:
                assert all(m["value"] > 0 for m in out["metrics"].values()), out


def main() -> int:
    failed = 0
    for fn in CHECKS:
        try:
            fn()
        except Exception as exc:  # report every check, then fail overall
            failed += 1
            print(f"FAIL {fn.__name__}: {type(exc).__name__}: {exc}")
        else:
            print(f"ok   {fn.__name__}")
    print(f"{len(CHECKS) - failed} of {len(CHECKS)} self-tests passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
