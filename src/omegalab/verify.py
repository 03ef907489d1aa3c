"""Verification suites over a fixed graph corpus, with deterministic reports.

Each suite runs a list of named checks and returns a report dict whose
canonical JSON serialization is byte-identical across runs once wall times
are stripped; a fingerprint over the stripped form is embedded in the
report.  Resource errors mark a check (and the suite) incomplete rather
than failed.
"""

from __future__ import annotations

import hashlib
import json
import time
from functools import cache, partial

from . import __version__
from .approx import (
    build_approx_map,
    carrier_check,
    diameter_bound,
    equivariant,
    image_diameters_sq,
)
from .boxcomplex import build_box
from .errors import DEFAULT_BUDGETS, Budgets, OmegalabError, ResourceError
from .functors import (
    adjoint_witness_from_omega,
    adjoint_witness_to_omega,
    omega,
    subdivide,
    subdivision_embedding,
    squarefree_retraction,
    walk_power,
)
from .graphs import (
    Graph,
    clique,
    cycle_graph,
    min_odd_closed_walk,
    path_graph,
    petersen,
    tensor_product,
)
from .homology import betti_of_complex, convolve
from .homsearch import chromatic_number, hom_equivalent, hom_exists
from .morse import pipeline

SCHEMA_VERSION = 1


def corpus() -> list[tuple[str, Graph]]:
    return [
        ("K2", clique(2)),
        ("K3", clique(3)),
        ("K4", clique(4)),
        ("C5", cycle_graph(5)),
        ("C7", cycle_graph(7)),
        ("P4", path_graph(4)),
        ("Petersen", petersen()),
    ]


class _Runner:
    def __init__(self):
        self.checks: list[dict] = []

    def run(self, check_id: str, claim: str, inputs: str, expected, fn) -> None:
        t0 = time.perf_counter()
        try:
            actual = fn()
            status = "pass" if actual == expected else "fail"
        except ResourceError as exc:
            actual = f"resource error: {exc}"
            status = "resource"
        except OmegalabError as exc:
            actual = f"{type(exc).__name__}: {exc}"
            status = "fail"
        wall_ms = round((time.perf_counter() - t0) * 1000.0, 3)
        self.checks.append(
            {
                "id": check_id,
                "claim": claim,
                "inputs": inputs,
                "expected": expected,
                "actual": actual,
                "status": status,
                "wall_ms": wall_ms,
            }
        )


# -- suites --------------------------------------------------------------------
#
# An input that a budget can stop is built inside the checks that read it, so
# that a budget stop marks those checks "resource" instead of ending the run;
# ``cache(partial(...))`` still builds it once.

def _suite_adjointness(r: _Runner, budgets: Budgets) -> None:
    names = corpus()
    for k in (3, 5):
        subdivided = {n: cache(partial(subdivide, g, k, budgets.vertex_budget)) for n, g in names}
        powered = {n: walk_power(g, k) for n, g in names}
        adjoints = {n: cache(partial(omega, g, k, budgets.vertex_budget)) for n, g in names}
        for gn, g in names:
            for hn, h in names:
                r.run(
                    f"adjointness/k{k}/{gn}->{hn}/subdivision-power",
                    "subdividing the source agrees with powering the target",
                    f"G={gn} H={hn} k={k}",
                    True,
                    lambda g=g, h=h, gn=gn, hn=hn, k=k: (
                        (hom_exists(subdivided[gn]().graph, h, budgets) is not None)
                        == (hom_exists(g, powered[hn], budgets) is not None)
                    ),
                )

                def both_sides(g=g, gn=gn, hn=hn, h=h, k=k):
                    oh = adjoints[hn]()
                    f = hom_exists(powered[gn], h, budgets)
                    back = hom_exists(g, oh.graph, budgets)
                    if (f is None) != (back is None):
                        return False
                    # transported witnesses must validate in both directions
                    if f is not None:
                        adjoint_witness_to_omega(g, f, oh)
                    if back is not None:
                        adjoint_witness_from_omega(back, oh)
                    return True

                r.run(
                    f"adjointness/k{k}/{gn}->{hn}/power-adjoint",
                    "powering the source agrees with the right adjoint on the target, with transported witnesses validating",
                    f"G={gn} H={hn} k={k}",
                    True,
                    both_sides,
                )


def _suite_betti(r: _Runner, budgets: Budgets) -> None:
    expected = {2: [2], 3: [1, 1], 4: [1, 0, 1], 5: [1, 0, 0, 1]}
    for n, exp in expected.items():
        r.run(
            f"betti/box-K{n}",
            "box complex of the clique has sphere mod-2 homology",
            f"K{n}",
            exp,
            lambda n=n: list(betti_of_complex(build_box(clique(n)), budgets.simplex_budget)),
        )
    for n in (3, 4):
        r.run(
            f"betti/box-adjoint3-K{n}",
            "the index-3 right adjoint preserves the clique's Betti vector",
            f"omega_3(K{n})",
            expected[n],
            lambda n=n: list(
                betti_of_complex(
                    build_box(omega(clique(n), 3, budgets.vertex_budget).graph),
                    budgets.simplex_budget,
                )
            ),
        )


def _suite_chromatic(r: _Runner, budgets: Budgets) -> None:
    for n in (3, 4):
        adjoint = cache(partial(omega, clique(n), 3, budgets.vertex_budget))
        r.run(
            f"chromatic/adjoint3-K{n}",
            "the index-3 right adjoint of the clique keeps its chromatic number",
            f"omega_3(K{n})",
            n,
            lambda adjoint=adjoint: chromatic_number(adjoint().graph, budgets),
        )
        r.run(
            f"oddwalk/adjoint3-K{n}",
            "no odd closed walk of length three or less",
            f"omega_3(K{n})",
            True,
            lambda adjoint=adjoint: min_odd_closed_walk(adjoint().graph) > 3,
        )
        r.run(
            f"power-equivalence/K{n}",
            "the third power of the adjoint is homomorphically equivalent to the clique",
            f"pi_3(omega_3(K{n})) vs K{n}",
            True,
            lambda adjoint=adjoint, n=n: hom_equivalent(
                walk_power(adjoint().graph, 3), clique(n), budgets
            )[0],
        )


def _suite_squarefree(r: _Runner, budgets: Budgets) -> None:
    members = [
        ("C5", cycle_graph(5)),
        ("C7", cycle_graph(7)),
        ("P4", path_graph(4)),
        ("Petersen", petersen()),
    ]
    for name, g in members:
        gamma = cache(partial(subdivide, g, 3, budgets.vertex_budget))
        adjoint = cache(partial(omega, g, 3, budgets.vertex_budget))

        def embed(g=g, gamma=gamma, adjoint=adjoint):
            emb = subdivision_embedding(g, 3, gamma(), adjoint())
            return emb.is_injective()

        r.run(
            f"squarefree/{name}/embedding-injective",
            "the subdivision embeds injectively into the right adjoint",
            f"gamma_3({name}) -> omega_3({name})",
            True,
            embed,
        )
        r.run(
            f"squarefree/{name}/retraction-valid",
            "the square-free retraction onto the subdivision validates",
            f"omega_3({name}) -> gamma_3({name})",
            True,
            lambda g=g, gamma=gamma, adjoint=adjoint: (
                squarefree_retraction(g, 3, gamma(), adjoint()) is not None
            ),
        )
        r.run(
            f"squarefree/{name}/equivalent",
            "subdivision and right adjoint are homomorphically equivalent",
            f"gamma_3({name}) vs omega_3({name})",
            True,
            lambda gamma=gamma, adjoint=adjoint: hom_equivalent(
                gamma().graph, adjoint().graph, budgets
            )[0],
        )


def _suite_morse(r: _Runner, budgets: Budgets) -> None:
    members = [
        ("K2", clique(2)),
        ("K3", clique(3)),
        ("C5", cycle_graph(5)),
        ("K4", clique(4)),
    ]
    for name, g in members:
        r.run(
            f"morse/{name}/pipeline",
            "both collapses reach their subcomplexes and all Betti vectors agree",
            f"shortcut complex of omega_3({name})",
            True,
            lambda g=g: pipeline(g, 1, budgets)["betti_agree"],
        )


def _suite_kunneth(r: _Runner, budgets: Budgets) -> None:
    pairs = [
        ("K2", clique(2), "K2", clique(2), [4]),
        ("K3", clique(3), "K3", clique(3), [1, 2, 1]),
        ("K3", clique(3), "C5", cycle_graph(5), [1, 2, 1]),
    ]
    for an, a, bn, b, expected in pairs:
        def both(a=a, b=b):
            direct = betti_of_complex(
                build_box(tensor_product(a, b, budgets.vertex_budget)), budgets.simplex_budget
            )
            conv = convolve(
                betti_of_complex(build_box(a), budgets.simplex_budget),
                betti_of_complex(build_box(b), budgets.simplex_budget),
            )
            return {"direct": list(direct), "convolution": list(conv)}

        r.run(
            f"kunneth/{an}x{bn}",
            "Betti of the product's box complex equals the factor convolution",
            f"{an} x {bn}",
            {"direct": expected, "convolution": expected},
            both,
        )


def _suite_approx(r: _Runner, budgets: Budgets) -> None:
    members = [("K2", clique(2), 5), ("K3", clique(3), 2), ("C5", cycle_graph(5), 4)]
    for name, g, k in members:
        amap = cache(partial(build_approx_map, g, k, budgets.vertex_budget))
        bound_sq = diameter_bound(g, k) ** 2

        def within(amap=amap, bound_sq=bound_sq):
            return all(d < bound_sq for d in image_diameters_sq(amap(), amap().source.facets))

        r.run(
            f"approx/{name}-k{k}/bound",
            "every facet image has squared diameter strictly below the bound",
            f"{name}, half index {k}, bound^2 = {bound_sq}",
            True,
            within,
        )
        r.run(
            f"approx/{name}-k{k}/carrier",
            "every facet image is carried by a single target simplex",
            f"{name}, half index {k}",
            True,
            lambda amap=amap: carrier_check(amap()) and equivariant(amap()),
        )
    r.run(
        "approx/K2-k5/nonvacuous",
        "the squared bound is below two, beating the trivial simplex diameter",
        "K2, half index 5",
        True,
        lambda: diameter_bound(clique(2), 5) ** 2 < 2,
    )


_SUITE_FNS = {
    "adjointness": _suite_adjointness,
    "betti": _suite_betti,
    "chromatic": _suite_chromatic,
    "squarefree": _suite_squarefree,
    "morse": _suite_morse,
    "kunneth": _suite_kunneth,
    "approx": _suite_approx,
}
SUITES = tuple(_SUITE_FNS)


def run_suite(suite: str, budgets: Budgets = DEFAULT_BUDGETS) -> dict:
    """Run one suite (or "all") and return the report dict."""
    names = list(SUITES) if suite == "all" else [suite]
    for n in names:
        if n not in _SUITE_FNS:
            raise ValueError(f"unknown suite {n!r}")
    runner = _Runner()
    for n in names:
        _SUITE_FNS[n](runner, budgets)
    statuses = [c["status"] for c in runner.checks]
    report = {
        "schema": SCHEMA_VERSION,
        "tool": {"name": "omegalab", "version": __version__},
        "suite": suite,
        "checks": runner.checks,
        "passed": all(s == "pass" for s in statuses),
        "incomplete": any(s == "resource" for s in statuses),
    }
    report["fingerprint"] = fingerprint(report)
    return report


def strip_timings(obj):
    """Copy of a report with wall-time fields removed; used for determinism
    comparisons and the embedded fingerprint."""
    if isinstance(obj, dict):
        return {k: strip_timings(v) for k, v in obj.items() if k not in ("wall_ms", "fingerprint")}
    if isinstance(obj, list):
        return [strip_timings(v) for v in obj]
    return obj


def canonical_json(report) -> str:
    return json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"


def fingerprint(report) -> str:
    return hashlib.sha256(canonical_json(strip_timings(report)).encode()).hexdigest()


def exit_code(report) -> int:
    if report["incomplete"]:
        return 2
    return 0 if report["passed"] else 1
