"""Acceptance gate: one test per criterion, one pass/fail line printed each.

Criterion 4 contains a sub-check that is mathematically unattainable for the
path on four vertices (see the README paragraph "One acceptance sub-check
fails by design" and the analysis inside the test); it is asserted as stated
and fails honestly.
"""

import json
import random
import subprocess
import sys

import pytest

from omegalab.approx import build_approx_map, carrier_check, diameter_bound, max_facet_diameter_sq
from omegalab.functors import omega, subdivide, subdivision_embedding, squarefree_retraction, walk_power
from omegalab.graphs import clique, cycle_graph, min_odd_closed_walk, path_graph, petersen
from omegalab.homology import betti_mod2
from omegalab.homsearch import chromatic_number, hom_equivalent, hom_exists
from omegalab.morse import ShortcutComplex, collapse, is_acyclic, pipeline, removal_phases, saturation_matching
from omegalab.verify import run_suite

from util import (
    acyclic_oracle,
    cli_env,
    hom_exists_bruteforce,
    random_collapse_matching,
    random_free_complex,
    random_graph,
)


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE criterion {number} [{name}]: {status}{suffix}")
    return ok


def suite_failures(rep):
    return [c["id"] + ": " + str(c["actual"]) for c in rep["checks"] if c["status"] != "pass"]


def test_criterion_1_adjointness():
    rep = run_suite("adjointness")
    bad = suite_failures(rep)
    assert report(1, "adjointness", not bad, "; ".join(bad[:4])), bad


def test_criterion_2_sphere_betti():
    rep = run_suite("betti")
    bad = suite_failures(rep)
    assert report(2, "sphere betti", not bad, "; ".join(bad[:4])), bad


def test_criterion_3_chromatic():
    ok = True
    for n in (3, 4):
        adjoint = omega(clique(n), 3).graph
        ok &= chromatic_number(adjoint) == n
        ok &= min_odd_closed_walk(adjoint) > 3
        ok &= hom_equivalent(walk_power(adjoint, 3), clique(n))[0]
    assert report(3, "chromatic claims", ok)


def test_criterion_4_squarefree_and_embedding():
    failures = []
    for name, g in [("C5", cycle_graph(5)), ("C7", cycle_graph(7)), ("P4", path_graph(4)), ("Petersen", petersen())]:
        gamma = subdivide(g, 3)
        adjoint = omega(g, 3)
        emb = subdivision_embedding(g, 3, gamma, adjoint)  # validates as hom
        if not emb.is_injective():
            failures.append(f"{name}: embedding not injective")
        squarefree_retraction(g, 3, gamma, adjoint)  # validates as hom
        if not hom_equivalent(gamma.graph, adjoint.graph)[0]:
            failures.append(f"{name}: subdivision and adjoint not equivalent")
    ok = report(4, "square-free equivalence + embedding", not failures, "; ".join(failures))
    if failures:
        pytest.fail(
            "criterion 4 fails as specified: "
            + "; ".join(failures)
            + ". For P4 an injective embedding cannot exist: the index-3 right "
            "adjoint of P4 is an 8-vertex path, while the 3-subdivision of P4 has "
            "10 vertices, and a homomorphic image of a connected graph lies in "
            "one component. Any graph with a degree-1 vertex folds two path "
            "positions onto one tuple. See README, \"Install and test\".",
        )
    assert ok


def test_criterion_5_morse_suite():
    ok = True
    details = []
    for name, g in [("K2", clique(2)), ("K3", clique(3)), ("C5", cycle_graph(5)), ("K4", clique(4))]:
        sc = ShortcutComplex(g, 1)
        sat_matching, sat_sub = saturation_matching(sc)  # equivariant involution enforced
        ok &= is_acyclic(sat_matching)
        cert = collapse(sc.box, set(sc.simplices), sat_sub, sat_matching)
        ok &= cert.remaining == frozenset(sat_sub)
        current = set(sc.simplices)
        for matching, domain in removal_phases(sc):
            ok &= is_acyclic(matching)
            cert = collapse(sc.box, current, current - domain, matching)
            current -= domain
            ok &= cert.remaining == frozenset(current)
        ok &= current == sc.plain_box_simplices()
        rep = pipeline(g, 1)
        ok &= rep["betti_agree"]
        details.append(f"{name}: betti {rep['betti']['plain']}")
    assert report(5, "morse collapses", ok, "; ".join(details))


def test_criterion_6_collapse_invariance():
    rng = random.Random(66012)
    agree = True
    for _ in range(200):
        k = random_free_complex(rng, max_shore=10)
        matching, sub = random_collapse_matching(rng, k)
        if not is_acyclic(matching) or not acyclic_oracle(matching):
            agree = False
            break
        cert = collapse(k, set(k.simplices()), sub, matching)
        if cert.remaining != frozenset(sub):
            agree = False
            break
        if betti_mod2(k.simplices()) != betti_mod2(sub):
            agree = False
            break
    assert report(6, "collapse invariance, 200 random runs", agree)


def test_criterion_7_kunneth():
    rep = run_suite("kunneth")
    bad = suite_failures(rep)
    expected = {
        "kunneth/K2xK2": [4],
        "kunneth/K3xK3": [1, 2, 1],
        "kunneth/K3xC5": [1, 2, 1],
    }
    values_ok = all(
        c["actual"] == {"direct": expected[c["id"]], "convolution": expected[c["id"]]}
        for c in rep["checks"]
    )
    assert report(7, "kunneth shadow", not bad and values_ok, "; ".join(bad))


def test_criterion_8_approximation_bound():
    ok = True
    details = []
    for g, name, k in [(clique(2), "K2", 5), (clique(3), "K3", 2), (cycle_graph(5), "C5", 4)]:
        amap = build_approx_map(g, k)
        worst = max_facet_diameter_sq(amap)
        bound_sq = diameter_bound(g, k) ** 2
        ok &= worst < bound_sq
        ok &= carrier_check(amap)
        details.append(f"{name} k={k}: {worst} < {bound_sq}")
    ok &= diameter_bound(clique(2), 5) ** 2 < 2  # non-vacuous: below sqrt(2)^2
    assert report(8, "approximation diameter bound", ok, "; ".join(details))


def test_criterion_9_solver_oracle():
    rng = random.Random(90125)
    ok = True
    for _ in range(300):
        g = random_graph(rng, rng.randint(1, 6), 0.45, loop_p=0.1)
        h = random_graph(rng, rng.randint(1, 5), 0.45, loop_p=0.1)
        if (hom_exists(g, h) is None) != (hom_exists_bruteforce(g, h) is None):
            ok = False
            break
    assert report(9, "solver vs brute force, 300 random pairs", ok)


VERIFY_ALL_FINGERPRINT = "2b7b609cece5eee11c2ac8bb7d021bbe3104d24514d706a38f86805aad5f1c63"


def test_criterion_10_determinism(tmp_path):
    outs = []
    codes = []
    for i in range(2):
        path = tmp_path / f"report{i}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "omegalab.cli", "verify", "all", "-o", str(path)],
            capture_output=True,
            text=True,
            timeout=1200,
            env=cli_env(),
        )
        codes.append(proc.returncode)
        outs.append(path.read_text())
    from omegalab.verify import canonical_json, strip_timings

    stripped = [canonical_json(strip_timings(json.loads(o))) for o in outs]
    identical = stripped[0] == stripped[1] and codes[0] == codes[1]
    fingerprints = [json.loads(o)["fingerprint"] for o in outs]
    assert report(
        10,
        "verify all determinism",
        identical and fingerprints[0] == fingerprints[1],
        f"fingerprint {fingerprints[0][:16]}",
    )
    # the behaviour invariant: a change that moves it on purpose updates the
    # pin and says why
    assert fingerprints[0] == VERIFY_ALL_FINGERPRINT
