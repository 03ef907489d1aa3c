"""omegalab benchmark: one workload per process, closed loop, one caller.

    python3 bench/run.py --workload ladder --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --smoke --trace 1

A run sets up (imports omegalab and generates the inputs from the seed), then
runs rounds until the next one would end after ``--seconds``.  Set-up is
timed again between calls, at most once every two seconds, and the median of
all set-up times is reported.  A round calls every instance of the workload once,
in an order shuffled from the seed; each call starts when the previous one
returns.  Every answer is checked against ``expected.json``.  Rounds also
time a fixed reference loop around every call, and untraced rounds are
reported in units of it as well as in seconds.

With ``--trace 0`` the rounds run untraced and the last line of output is a
JSON object with the end-to-end metrics.  With ``--trace 1`` untraced and
traced rounds alternate, spans are written to ``bench/out/``, and the last
line carries the per-layer metrics.  The lines before the last are the
human-readable report, including the noise record of the run.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import workloads  # noqa: E402

# set-up is timed again between calls, at most once per
# SETUP_EVERY_S, so that its median spans the run and not only its start
SETUP_EVERY_S = 2.0
# one reference loop takes 13-25 ms on a shared 2-vCPU Xeon under Python 3.11
REFERENCE_ADDS = 300_000
OUT_DIR = HERE / "out"

# round_s.p50, the wall time of a round, is printed but not gated: on a
# shared host it drifts by 20% from run to run.  round_ref.p50 divides every
# call by the reference loop timed next to it, which cancels most of that.
END_TO_END = {
    "round_ref.p50": "ref",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "decided_frac": "fraction",
}

LAYERS = ("functors", "boxcomplex", "morse", "homology", "homsearch", "approx", "verify")

PER_LAYER = {
    "functors.omega_s": "s",
    "functors.omega_prime_s": "s",
    "functors.adjoint_vertices": "count",
    "boxcomplex.build_box_s": "s",
    "boxcomplex.validate_s": "s",
    "boxcomplex.faces_s": "s",
    "boxcomplex.facets": "count",
    "boxcomplex.faces": "count",
    "boxcomplex.format_s": "s",
    "boxcomplex.parse_s": "s",
    "morse.shortcut_complex_s": "s",
    "morse.saturation_matching_s": "s",
    "morse.removal_phases_s": "s",
    "morse.is_acyclic_s": "s",
    "morse.collapse_s": "s",
    "morse.plain_box_s": "s",
    "morse.pairs": "count",
    "morse.collapse_steps": "count",
    "morse.replay_ratio": "ratio",
    "homology.betti_s": "s",
    "homology.simplices": "count",
    "homology.simplices_per_s": "1/s",
    "homsearch.search_s": "s",
    "homsearch.calls": "count",
    "homsearch.decided": "count",
    "homsearch.budget_stops": "count",
    "homsearch.probe_nodes_per_s": "1/s",
    "approx.build_map_s": "s",
    "approx.diameter_s": "s",
    "approx.carrier_s": "s",
    "approx.facets": "count",
    **{f"verify.{suite}_s": "s" for suite in (
        "adjointness", "betti", "chromatic", "squarefree", "morse", "kunneth", "approx"
    )},
    "verify.checks": "count",
}


def noise_snapshot() -> dict:
    return {"loadavg": list(os.getloadavg()), "time": time.time()}


def set_up(workload: str, seed: int, smoke: bool):
    """Import omegalab afresh and generate the workload's inputs, timed from
    an emptied garbage collector, so that every set-up starts alike."""
    gc.collect()
    t0 = time.perf_counter()
    lib = workloads.import_library()
    instances = workloads.build(workload, lib, seed, smoke)
    return lib, instances, time.perf_counter() - t0


def sample_set_up(workload: str, seed: int, smoke: bool) -> float:
    """Time one more set-up, then put back the modules in use, so that the
    rounds keep calling the objects they were built from, and collect the
    discarded modules now rather than inside a timed call."""
    def ours():
        return {m: mod for m, mod in sys.modules.items()
                if m == "omegalab" or m.startswith("omegalab.")}

    live = ours()
    try:
        return set_up(workload, seed, smoke)[2]
    finally:
        for name in ours():
            del sys.modules[name]
        sys.modules.update(live)
        gc.collect()


def attempt(inst, lib, tr, expected: dict) -> tuple[bool, bool, str]:
    """(decided, failed, note) for one call of one instance."""
    try:
        answer = inst.run(lib, tr)
    except lib.ol.ResourceError as exc:
        return False, False, f"undecided: {exc}"
    except Exception as exc:  # anything else is a failure of the program
        traceback.print_exc()
        return False, True, f"{type(exc).__name__}: {exc}"
    want = expected[inst.name]["answer"]
    answer = json.loads(json.dumps(answer))  # tuples -> lists, as stored
    if answer != want:
        return True, True, f"answer {answer} != expected {want}"
    return True, False, "ok"


def reference_s() -> float:
    """Time of a fixed pure-Python loop, a reading of the host's current
    speed for the interpreter."""
    t0 = time.perf_counter()
    total = 0
    for i in range(REFERENCE_ADDS):
        total += i
    return time.perf_counter() - t0


def run_rounds(instances, lib, seconds: float, trace: bool, seed: int, expected: dict,
               sample_setup) -> dict:
    """Closed loop over rounds; with tracing, untraced and traced rounds
    alternate, starting untraced.  Stops once the next round would end after
    ``seconds``, but only after at least one round of each kind.

    A round's time is the sum of its instance calls.  Every round also times
    the reference loop before and after every call; each call divided by the
    mean of its two neighbouring readings, summed over the round, gives the
    round in reference units.  Between calls, ``sample_setup`` times a
    set-up now and then.  Traced and untraced rounds do the same between
    calls, so that they differ only by their spans.
    """
    rng = random.Random(seed)
    tracer = harness.Tracer() if trace else None
    null = harness.NullTracer()
    rounds = {"untraced": [], "traced": []}
    rounds_ref = {"untraced": [], "traced": []}
    references = []
    elapsed = {"untraced": [], "traced": []}  # wall time per round, references included
    instance_times: dict[str, dict[str, list[float]]] = {"untraced": {}, "traced": {}}
    tallies = {"attempted": 0, "decided": 0, "failed": 0}
    notes: dict[str, int] = {}
    setup_times = []
    t_start = last_setup = time.perf_counter()
    round_id = 0
    while True:
        kind = "traced" if trace and round_id % 2 == 1 else "untraced"
        tr = tracer if kind == "traced" else null
        tr.round_id = round_id
        order = list(instances)
        rng.shuffle(order)
        t0 = time.perf_counter()
        wall = in_ref = 0.0
        ref = reference_s()
        references.append(ref)
        with tr.span("round"):
            for inst in order:
                t1 = time.perf_counter()
                with tr.span("instance:" + inst.name):
                    decided, failed, note = attempt(inst, lib, tr, expected)
                call = time.perf_counter() - t1
                wall += call
                after = reference_s()
                references.append(after)
                in_ref += call / ((ref + after) / 2)
                ref = after
                if time.perf_counter() - last_setup >= SETUP_EVERY_S:
                    # the next call gets a reference reading taken after this
                    setup_times.append(sample_setup())
                    last_setup = time.perf_counter()
                    ref = reference_s()
                    references.append(ref)
                instance_times[kind].setdefault(inst.name, []).append(call)
                tallies["attempted"] += 1
                tallies["decided"] += decided
                tallies["failed"] += failed
                key = f"{inst.name}: {note}"
                notes[key] = notes.get(key, 0) + 1
        rounds_ref[kind].append(in_ref)
        rounds[kind].append(wall)
        elapsed[kind].append(time.perf_counter() - t0)
        round_id += 1
        if trace and not rounds["traced"]:
            continue
        next_kind = "traced" if trace and round_id % 2 == 1 else "untraced"
        if time.perf_counter() - t_start + statistics.median(elapsed[next_kind]) > seconds:
            break
    return {
        "rounds": rounds,
        "rounds_ref": rounds_ref,
        "references": references,
        "setup_times": setup_times,
        "instance_times": instance_times,
        "tallies": tallies,
        "notes": notes,
        "spans": tracer.spans if tracer else [],
    }


def layer_of(name: str) -> str:
    head = name.split(".", 1)[0]
    return head if head in LAYERS and "." in name else "bench"


def layer_metrics(spans, rounds: dict, instance_times: dict) -> tuple[dict, dict, dict, dict]:
    """Per-layer metrics, per-layer self time, the tracing overhead and the
    bases of the ratio metrics.

    Times are self times summed per traced round; every figure is the median
    over traced rounds.  Work under ``extra`` spans is left out of the traced
    round time that the overhead compares with the untraced rounds.
    """
    selfs = harness.self_times(spans)
    per_round: dict[int, dict[str, float]] = {}
    layer_round: dict[int, dict[str, float]] = {}
    for sp, own in zip(spans, selfs):
        m = per_round.setdefault(sp.round_id, {})
        lay = layer_round.setdefault(sp.round_id, {})
        layer = layer_of(sp.name)
        lay[layer] = lay.get(layer, 0.0) + own
        if layer != "bench":
            m[sp.name + "_s"] = m.get(sp.name + "_s", 0.0) + own
            for key, val in sp.counts.items():
                metric = f"{layer}.{key}"
                m[metric] = m.get(metric, 0) + val
            if "probe_nodes" in sp.counts:
                m["probe_s"] = m.get("probe_s", 0.0) + sp.duration
        elif sp.name in ("replay", "extra"):
            m[sp.name] = m.get(sp.name, 0.0) + sp.duration

    # the replay mirrors pipeline(), and on the ladder every instance is one
    # pipeline() call, so the base is the untraced instance times
    pipeline_base = 0.0
    if any(sp.name == "replay" for sp in spans):
        pipeline_base = sum(statistics.median(t) for t in instance_times["untraced"].values())

    def med(key: str, table=per_round) -> float:
        return statistics.median(r.get(key, 0.0) for r in table.values())

    metrics = {}
    for name in PER_LAYER:
        metrics[name] = med(name)
    # ratio metrics as (numerator, its unit, denominator, its unit)
    ratios = {
        "morse.replay_ratio": (med("replay"), "s of replayed stages", pipeline_base, "s of untraced pipeline()"),
        "homology.simplices_per_s": (
            metrics["homology.simplices"], "simplices", metrics["homology.betti_s"], "s in betti_mod2"
        ),
        "homsearch.probe_nodes_per_s": (
            med("homsearch.probe_nodes"), "nodes to budget", med("probe_s"), "s in budget probes"
        ),
    }
    for name, (num, _, den, _) in ratios.items():
        metrics[name] = num / den if den else 0.0

    layers = {layer: med(layer, layer_round) for layer in LAYERS + ("bench",)}
    extra = [per_round[r].get("extra", 0.0) for r in sorted(per_round)]
    comparable = [t - e for t, e in zip(rounds["traced"], extra)]
    untraced = statistics.median(rounds["untraced"])
    overhead = {
        "untraced_round_s": untraced,
        "traced_round_s": statistics.median(comparable),
        "extra_s": statistics.median(extra),
        "overhead_s": statistics.median(comparable) - untraced,
    }
    return metrics, layers, overhead, ratios


def report(args, setup_times, result, noise, trace_out) -> dict:
    rounds = result["rounds"]["untraced"]
    tallies = result["tallies"]
    decided_frac, failed_frac = harness.fractions(
        tallies["attempted"], tallies["decided"], tallies["failed"]
    )
    tail = harness.tail_percentile(rounds)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    e2e = {
        "round_ref.p50": statistics.median(result["rounds_ref"]["untraced"]),
        "round_s.p50": statistics.median(rounds),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak,
        "decided_frac": decided_frac,
    }

    say = print

    def q(values):
        return "q1/med/q3 " + " / ".join(f"{x:.4f}" for x in harness.quartiles(values))

    say(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
        f"trace {int(args.trace)}  smoke {'yes' if args.smoke else 'no'}")
    say(f"noise: nproc {noise['nproc']}  loadavg start "
        f"{' '.join(f'{x:.2f}' for x in noise['start']['loadavg'])}  end "
        f"{' '.join(f'{x:.2f}' for x in noise['end']['loadavg'])}  reference loop "
        f"{len(result['references'])}x {q(result['references'])} s")

    say(f"  setup_s        {e2e['setup_s']:.4f} s   median of {len(setup_times)}; {q(setup_times)}")
    say(f"  round_ref.p50  {e2e['round_ref.p50']:.4f} ref {len(rounds)} untraced rounds; {q(result['rounds_ref']['untraced'])}")
    say(f"  round_s.p50    {e2e['round_s.p50']:.4f} s   {len(rounds)} untraced rounds; {q(rounds)}")
    if tail:
        say(f"  round_s.tail   {tail[1]:.4f} s   p{tail[0]} of {len(rounds)} rounds")
    else:
        say(f"  round_s.tail   n/a      needs 11 rounds for 10 beyond a percentile, have {len(rounds)}")
    say(f"  decided_frac   {decided_frac:.4f}     {tallies['decided']} of {tallies['attempted']} attempted")
    say(f"  failed_frac    {failed_frac:.4f}     {tallies['failed']} of {tallies['attempted']} attempted")
    say(f"  peak_rss_mb    {peak:.1f} MB")
    say("instances (seconds per call):")
    for kind, table in result["instance_times"].items():
        for name, times in table.items():
            say(f"  {kind:9} {name:40} n={len(times):3}  {q(times)}")
    say("outcomes:")
    for note, count in result["notes"].items():
        say(f"  {count:4} x {note}")

    out = {
        "args": vars(args),
        "noise": noise,
        "setup_s": setup_times,
        "rounds": result["rounds"],
        "rounds_ref": result["rounds_ref"],
        "references": result["references"],
        "instance_times": result["instance_times"],
        "tallies": tallies,
        "notes": result["notes"],
        "end_to_end": e2e,
        "round_s.tail": {"percentile": tail[0], "value": tail[1]} if tail else None,
        "failed_frac": failed_frac,
        "quartiles": {
            "setup_s": harness.quartiles(setup_times),
            "reference_s": harness.quartiles(result["references"]),
            "round_ref.untraced": harness.quartiles(result["rounds_ref"]["untraced"]),
            "round_s.untraced": harness.quartiles(rounds),
            "round_s.traced": harness.quartiles(result["rounds"]["traced"]),
        },
    }
    if trace_out:
        metrics, layers, overhead, ratios = trace_out
        base = overhead["untraced_round_s"]
        say("self time per layer (median per traced round):")
        for layer, secs in layers.items():
            say(f"  {layer:11} {secs:9.4f} s   {secs / base:7.1%} of the untraced round ({base:.4f} s)")
        say(f"tracing overhead {overhead['overhead_s']:+.4f} s on an untraced round of {base:.4f} s "
            f"({overhead['overhead_s'] / base:+.1%}); traced round {overhead['traced_round_s']:.4f} s "
            f"without {overhead['extra_s']:.4f} s of extra calls")
        for name, (num, num_unit, den, den_unit) in ratios.items():
            if den:
                say(f"{name} {metrics[name]:.6g} = {num:.6g} {num_unit} / {den:.6g} {den_unit}")
            else:
                say(f"{name} n/a: 0 {den_unit} on this workload")
        say("per-layer metrics:")
        for name, value in metrics.items():
            say(f"  {name:32} {value:14.6g} {PER_LAYER[name]}")
        out.update(per_layer=metrics, layer_self_s=layers, overhead=overhead)
    return out, e2e


def run_one(args) -> int:
    noise = {"nproc": len(os.sched_getaffinity(0)), "start": noise_snapshot()}
    try:
        lib, instances, first_setup = set_up(args.workload, args.seed, args.smoke)
    except ImportError as exc:
        print(f"bench: cannot import omegalab from this checkout: {exc}", file=sys.stderr)
        return 2
    expected = workloads.expected(args.workload, args.smoke)
    result = run_rounds(
        instances, lib, args.seconds, args.trace, args.seed, expected,
        lambda: sample_set_up(args.workload, args.seed, args.smoke),
    )
    setup_times = [first_setup] + result["setup_times"]
    trace_out = None
    if args.trace:
        trace_out = layer_metrics(result["spans"], result["rounds"], result["instance_times"])
    noise["end"] = noise_snapshot()
    out, e2e = report(args, setup_times, result, noise, trace_out)

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{int(args.trace)}{'-smoke' if args.smoke else ''}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(out, indent=1) + "\n")
    if args.trace:
        spans = harness.span_records(result["spans"])
        (OUT_DIR / f"{stem}.spans.json").write_text(json.dumps(spans) + "\n")

    tallies = result["tallies"]
    if args.trace:
        metrics = {n: {"value": v, "unit": PER_LAYER[n]} for n, v in trace_out[0].items()}
    else:
        metrics = {n: {"value": e2e[n], "unit": u} for n, u in END_TO_END.items()}
    print(json.dumps({
        "correct": tallies["failed"] == 0,
        "attempted": tallies["attempted"],
        "failed": tallies["failed"],
        "metrics": metrics,
    }))
    return 0 if tallies["failed"] == 0 else 1


def run_all(args) -> int:
    """Each workload in its own process, one after the other, so that
    peak_rss_mb is the workload's own."""
    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(int(args.trace))] + (["--smoke"] if args.smoke else [])
        done = subprocess.run(cmd)
        status = max(status, done.returncode)
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="toy instances (K3 k=1, omega(K3,3)->K2, approx on K2 k=5)")
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
