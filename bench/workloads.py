"""The four benchmark workloads and the public omegalab calls they make.

Every instance returns a plain answer dict that is compared with the entry of
the same name in ``expected.json``.  A ``ResourceError`` means the instance is
undecided; any other exception, or an answer that differs from the expected
one, means it failed.

With a real ``Tracer`` the instances wrap each public call in a span named
``<layer>.<call>``.  Work done only in traced rounds, and so absent from the
untraced round it is compared with, sits under an ``extra`` span.
"""

from __future__ import annotations

import importlib
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# The solver budget of the two search probes; the solver raises on node
# budget + 1, so a budget stop means exactly this many nodes were searched.
PROBE_BUDGET = 50_000
SMOKE_PROBE_BUDGET = 1


def import_library() -> SimpleNamespace:
    """Import omegalab afresh from this checkout's ``src`` directory.

    Earlier imports are dropped first, so each call pays the full import.
    """
    for name in [m for m in sys.modules if m == "omegalab" or m.startswith("omegalab.")]:
        del sys.modules[name]
    ol = importlib.import_module("omegalab")
    src = (ROOT / "src").resolve()
    if src not in Path(ol.__file__).resolve().parents:
        raise ImportError(f"omegalab was imported from {ol.__file__}, not from {src}")
    return SimpleNamespace(
        ol=ol,
        box=importlib.import_module("omegalab.boxcomplex"),
        verify=importlib.import_module("omegalab.verify"),
    )


def base_graphs(lib: SimpleNamespace, rng: random.Random) -> dict:
    """The base graphs, each relabelled by a permutation drawn from ``rng``.

    Relabelling leaves every answer unchanged; cliques come out identical.
    """
    ol = lib.ol
    plain = {
        "K2": ol.clique(2),
        "K3": ol.clique(3),
        "K4": ol.clique(4),
        "K5": ol.clique(5),
        "C7": ol.cycle_graph(7),
        "Petersen": ol.petersen(),
    }
    out = {}
    for name, g in plain.items():
        perm = list(range(g.n))
        rng.shuffle(perm)
        out[name] = ol.Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
    return out


@dataclass
class Instance:
    name: str
    run: Callable  # (lib, tracer) -> answer dict


# -- ladder: the collapse pipeline ---------------------------------------------


def _pipeline_answer(report: dict) -> dict:
    keys = ("adjoint_vertices", "simplices", "collapse_steps", "betti", "betti_agree")
    return {k: report[k] for k in keys}


def _ladder_instance(name: str, g, k: int) -> Instance:
    def run(lib, tr):
        if not tr.enabled:
            return _pipeline_answer(lib.ol.pipeline(g, k))
        return _replay_pipeline(lib, tr, g, k)

    return Instance(name, run)


def _extra_calls(lib, tr, g, k: int) -> None:
    """Build the adjoint graphs and the shortcut box complex on their own, so
    that the functors/boxcomplex share of ``ShortcutComplex`` shows.  Nothing
    is kept, so the replay that follows starts from the same heap as
    ``pipeline`` would."""
    ol = lib.ol
    with tr.span("extra"):
        with tr.span("functors.omega") as c:
            c["adjoint_vertices"] = ol.omega(g, 2 * k + 1).graph.n
        with tr.span("functors.omega_prime"):
            prime = ol.omega_prime(g, 2 * k + 1)
        with tr.span("boxcomplex.build_box") as c:
            box = ol.build_box(prime.graph)
            c["facets"] = len(box.facets)
        with tr.span("boxcomplex.faces") as c:
            c["faces"] = len(box.simplices())


def _replay_pipeline(lib, tr, g, k: int) -> dict:
    """``pipeline(g, k)`` stage by stage through public calls, each in a span;
    the ``replay`` span holds exactly the stages ``pipeline`` runs."""
    ol = lib.ol
    _extra_calls(lib, tr, g, k)
    with tr.span("replay"):
        with tr.span("morse.shortcut_complex"):
            sc = ol.ShortcutComplex(g, k)
        with tr.span("morse.saturation_matching") as c:
            sat_matching, sat_sub = ol.saturation_matching(sc)
            c["pairs"] = len(sat_matching.pairs)
        with tr.span("morse.is_acyclic"):
            _require(ol, ol.is_acyclic(sat_matching), "saturation matching is cyclic")
        with tr.span("morse.collapse") as c:
            cert = ol.collapse(sc.box, set(sc.simplices), sat_sub, sat_matching)
            c["collapse_steps"] = len(cert.steps)
        saturation_steps = len(cert.steps)

        with tr.span("morse.removal_phases") as c:
            phases = ol.removal_phases(sc)
            c["pairs"] = sum(len(m.pairs) for m, _ in phases)
        current = set(sc.simplices)
        phase_steps = []
        for matching, domain in phases:
            with tr.span("morse.is_acyclic"):
                _require(ol, ol.is_acyclic(matching), "phase matching is cyclic")
            with tr.span("morse.collapse") as c:
                target = current - domain
                cert = ol.collapse(sc.box, current, target, matching)
                c["collapse_steps"] = len(cert.steps)
            phase_steps.append(len(cert.steps))
            current = target
        with tr.span("morse.plain_box"):
            plain = sc.plain_box_simplices()
        _require(ol, current == plain, "three-phase collapse missed the unmodified box complex")

        def betti(simplices):
            with tr.span("homology.betti", simplices=len(simplices)):
                return list(ol.betti_mod2(simplices))

        vectors = {
            "shortcut": betti(sc.simplices),
            "plain": betti(plain),
            "saturated_image": betti(sat_sub),
        }
        with tr.span("functors.omega") as c:
            lower = ol.omega(g, 2 * k - 1)
            c["adjoint_vertices"] = lower.graph.n
        with tr.span("boxcomplex.build_box") as c:
            lower_box = ol.build_box(lower.graph)
            c["facets"] = len(lower_box.facets)
        with tr.span("boxcomplex.faces") as c:
            lower_faces = lower_box.simplices()
            c["faces"] = len(lower_faces)
        vectors["lower_index"] = betti(lower_faces)

    first = vectors["shortcut"]
    return {
        "adjoint_vertices": sc.omega.graph.n,
        "simplices": len(sc.simplices),
        "collapse_steps": {"saturation": saturation_steps, "phases": phase_steps},
        "betti": vectors,
        "betti_agree": all(v == first for v in vectors.values()),
    }


def _require(ol, holds: bool, message: str) -> None:
    """Raise as ``pipeline`` does when one of its own checks fails."""
    if not holds:
        raise ol.ContractError(message)


def ladder(lib, graphs, smoke: bool) -> list[Instance]:
    rungs = [("K3", 1)] if smoke else [("K4", 1), ("K4", 3), ("C7", 3), ("Petersen", 1)]
    return [_ladder_instance(f"{b}_k{k}", graphs[b], k) for b, k in rungs]


# -- verify_all: the headline command ------------------------------------------


def _verify_answer(lib, report: dict) -> dict:
    if report["incomplete"]:
        raise lib.ol.ResourceError("verify report is incomplete")
    return {
        "fingerprint": report["fingerprint"][:16],
        "exit_code": lib.verify.exit_code(report),
        "checks": len(report["checks"]),
        "failing": [c["id"] for c in report["checks"] if c["status"] != "pass"],
    }


def _verify_all(lib, tr) -> dict:
    v = lib.verify
    if not tr.enabled:
        return _verify_answer(lib, v.run_suite("all"))
    # traced: one span per suite; the "all" report is rebuilt from the parts
    parts = []
    for suite in v.SUITES:
        with tr.span(f"verify.{suite}") as c:
            part = v.run_suite(suite)
            c["checks"] = len(part["checks"])
        parts.append(part)
    checks = [c for part in parts for c in part["checks"]]
    statuses = [c["status"] for c in checks]
    report = {
        "schema": parts[0]["schema"],
        "tool": parts[0]["tool"],
        "suite": "all",
        "checks": checks,
        "passed": all(s == "pass" for s in statuses),
        "incomplete": any(s == "resource" for s in statuses),
    }
    report["fingerprint"] = v.fingerprint(report)
    return _verify_answer(lib, report)


def verify_all(lib, graphs, smoke: bool) -> list[Instance]:
    # the corpus and the fingerprint are fixed, so the seed plays no part,
    # and the whole command is already a smoke-sized run
    return [Instance("all", _verify_all)]


# -- search: the homomorphism solver -------------------------------------------


def _solver_call(lib, tr, fn: Callable, budget: int | None = None):
    """One public solver call in a ``homsearch.search`` span that counts the
    call, whether it reached a verdict, and the nodes of a budget stop."""
    with tr.span("homsearch.search", calls=1) as c:
        try:
            answer = fn()
        except lib.ol.ResourceError:
            c["budget_stops"] = 1
            if budget is not None:
                c["probe_nodes"] = budget
            raise
        c["decided"] = 1
    return answer


def _hom_instance(name: str, g, h, budget: int | None = None) -> Instance:
    def run(lib, tr):
        ol = lib.ol
        cfg = ol.HomSearchConfig() if budget is None else ol.HomSearchConfig(node_budget=budget)
        found = _solver_call(lib, tr, lambda: ol.hom_exists(g, h, cfg), budget)
        return {"verdict": "none" if found is None else "exists"}

    return Instance(name, run)


def _call_instance(name: str, fn: Callable) -> Instance:
    return Instance(name, lambda lib, tr: _solver_call(lib, tr, lambda: fn(lib.ol)))


def search(lib, graphs, smoke: bool) -> list[Instance]:
    ol = lib.ol
    if smoke:
        adjoint = ol.omega(graphs["K3"], 3).graph
        return [
            _hom_instance("adjoint3_K3_to_K2", adjoint, ol.clique(2)),
            _hom_instance("probe_adjoint3_K3_to_K2", adjoint, ol.clique(2), SMOKE_PROBE_BUDGET),
        ]
    adjoint3_K4 = ol.omega(graphs["K4"], 3).graph
    adjoint3_petersen = ol.omega(graphs["Petersen"], 3).graph
    gamma3_petersen = ol.subdivide(graphs["Petersen"], 3).graph
    return [
        _hom_instance("adjoint3_K4_to_K3", adjoint3_K4, ol.clique(3)),
        _call_instance(
            "chromatic_adjoint3_K4",
            lambda ol: {"chromatic_number": ol.chromatic_number(adjoint3_K4)},
        ),
        _call_instance(
            "equivalent_adjoint3_gamma3_Petersen",
            lambda ol: {"equivalent": ol.hom_equivalent(adjoint3_petersen, gamma3_petersen)[0]},
        ),
        _hom_instance("adjoint5_C7_to_K3", ol.omega(graphs["C7"], 5).graph, ol.clique(3)),
        _hom_instance(
            "probe_adjoint5_K4_to_K3", ol.omega(graphs["K4"], 5).graph, ol.clique(3), PROBE_BUDGET
        ),
        _hom_instance(
            "probe_adjoint3_K5_to_K4", ol.omega(graphs["K5"], 3).graph, ol.clique(4), PROBE_BUDGET
        ),
    ]


# -- construct: functors, box complexes and the approximation map --------------


def _box_instance(name: str, g, k: int) -> Instance:
    def run(lib, tr):
        ol, bx = lib.ol, lib.box
        with tr.span("functors.omega") as c:
            adj = ol.omega(g, k)
            c["adjoint_vertices"] = adj.graph.n
        with tr.span("boxcomplex.build_box") as c:
            box = ol.build_box(adj.graph)
            c["facets"] = len(box.facets)
        if tr.enabled:
            with tr.span("extra"), tr.span("boxcomplex.validate"):
                box.validate()
        with tr.span("boxcomplex.format"):
            text = bx.format_complex(box)
        with tr.span("boxcomplex.parse"):
            back = bx.parse_complex(text)
        return {
            "adjoint_vertices": adj.graph.n,
            "shore": box.h,
            "facets": len(box.facets),
            "round_trip": (back.base, back.facets, back.free) == (box.base, box.facets, box.free),
        }

    return Instance(name, run)


def _approx_instance(name: str, g, k: int) -> Instance:
    def run(lib, tr):
        ol = lib.ol
        with tr.span("approx.build_map") as c:
            amap = ol.build_approx_map(g, k)
            c["facets"] = len(amap.source.facets)
        with tr.span("approx.diameter"):
            diameter_sq = ol.max_facet_diameter_sq(amap)
        with tr.span("approx.carrier"):
            carried = ol.carrier_check(amap)
        return {
            "facets": len(amap.source.facets),
            "max_diameter_sq": str(diameter_sq),
            "below_bound": diameter_sq < ol.diameter_bound(g, k) ** 2,
            "carrier": carried,
        }

    return Instance(name, run)


def construct(lib, graphs, smoke: bool) -> list[Instance]:
    if smoke:
        return [
            _box_instance("box_adjoint3_K3", graphs["K3"], 3),
            _approx_instance("approx_K2_k5", graphs["K2"], 5),
        ]
    return [
        _box_instance("box_adjoint5_K5", graphs["K5"], 5),
        _approx_instance("approx_K4_k3", graphs["K4"], 3),
        _approx_instance("approx_K5_k1", graphs["K5"], 1),
    ]


WORKLOADS = {
    "ladder": ladder,
    "verify_all": verify_all,
    "search": search,
    "construct": construct,
}


def build(name: str, lib, seed: int, smoke: bool) -> list[Instance]:
    """The workload's inputs, generated from the seed alone."""
    graphs = base_graphs(lib, random.Random(seed))
    return WORKLOADS[name](lib, graphs, smoke)


def expected(workload: str, smoke: bool) -> dict:
    """The expected answers of the workload's instances, by instance name."""
    table = json.loads((HERE / "expected.json").read_text())
    return table["smoke" if smoke else "full"][workload]
