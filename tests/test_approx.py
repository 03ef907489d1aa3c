from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from omegalab.approx import (
    build_approx_map,
    carrier_check,
    diameter_bound,
    distance_sq,
    equivariant,
    image_diameters_sq,
    max_facet_diameter_sq,
)
from omegalab.bitset import bits
from omegalab.boxcomplex import build_box
from omegalab.errors import ParameterError, PreconditionError, ResourceError
from omegalab.graphs import Graph, clique, cycle_graph, path_graph

from util import approx_points_oracle, image_diameter_sq_oracle, small_graph


def test_k2_points_have_tiny_support():
    # all components are singletons, so each image is spread over at most
    # two target tokens
    amap = build_approx_map(clique(2), 5)
    for point in amap.points:
        assert len(point) <= 2
        assert sum(point.values()) == amap.denominator


def test_singleton_head_is_sent_to_itself_at_index_one():
    amap = build_approx_map(clique(3), 1)
    for token in range(amap.source.token_count):
        vertex, shore = amap.source.token_name(token)
        tup = amap.adjoint.tuples[vertex]
        head = next(bits(tup[0]))
        head_token = amap.target.base.index(head) + (
            0 if shore == "+" else amap.target.h
        )
        assert amap.points[token].get(head_token, 0) > 0


def test_equivariance():
    for g, k in [(clique(2), 5), (clique(3), 2), (cycle_graph(5), 2)]:
        assert equivariant(build_approx_map(g, k))


def test_single_vertex_diameter_zero():
    amap = build_approx_map(clique(3), 1)
    assert image_diameters_sq(amap, [1]) == [0]


def test_frozen_max_diameters():
    # exact sweep values; the bound comparison is strict in Q
    cases = [
        (clique(2), 5, Fraction(0), Fraction(36, 25)),
        (clique(3), 2, Fraction(2, 9), Fraction(36)),
        (cycle_graph(5), 4, Fraction(2, 25), Fraction(9)),
    ]
    for g, k, frozen, bound_sq in cases:
        amap = build_approx_map(g, k)
        worst = max_facet_diameter_sq(amap)
        assert worst == frozen
        assert worst < bound_sq == diameter_bound(g, k) ** 2
    # the K2 bound beats the trivial simplex diameter sqrt(2)
    assert diameter_bound(clique(2), 5) ** 2 < 2


def test_stronger_than_trivial_bound_for_c5():
    amap = build_approx_map(cycle_graph(5), 4)
    assert max_facet_diameter_sq(amap) < 2


def test_carrier_checks():
    assert carrier_check(build_approx_map(clique(3), 1))
    assert carrier_check(build_approx_map(cycle_graph(5), 2))


def test_carrier_negative_control():
    # against the box complex of an unrelated graph the carrier property dies
    amap = build_approx_map(clique(3), 1)
    assert not carrier_check(replace(amap, target=build_box(path_graph(4))))


def test_carrier_detects_missing_adjacency():
    # removing one edge of the base graph invalidates carriers computed for it
    g = cycle_graph(5)
    amap = build_approx_map(g, 2)
    smaller = Graph.from_edges(5, [e for e in g.edges() if e != (0, 1)])
    assert not carrier_check(replace(amap, target=build_box(smaller)))


def test_denominator_growth_bound():
    import math

    for g, k in [(clique(3), 2), (cycle_graph(5), 3)]:
        amap = build_approx_map(g, k)
        limit = math.factorial(k + 1) * g.n
        for point in amap.points:
            for numerator in point.values():
                assert Fraction(numerator, amap.denominator).denominator <= limit


def test_diameter_trend_is_nonincreasing_for_c5():
    # observed trend, asserted only on these inputs: a larger half index
    # refines the image
    values = [max_facet_diameter_sq(build_approx_map(cycle_graph(5), k)) for k in (1, 2, 3)]
    assert values == sorted(values, reverse=True)


def test_diameter_bound_refuses_a_half_index_below_one():
    # as build_approx_map does: 6D/k has no meaning at k = 0 or below
    for k in (0, -2):
        with pytest.raises(ParameterError, match="half index must be >= 1"):
            diameter_bound(clique(3), k)
        with pytest.raises(ParameterError, match="half index must be >= 1"):
            build_approx_map(clique(3), k)
    assert diameter_bound(clique(3), 1) == 12


def test_loops_rejected():
    with pytest.raises(PreconditionError):
        build_approx_map(Graph.from_edges(1, [(0, 0)]), 1)


def test_distance_is_symmetric_metricish():
    amap = build_approx_map(clique(3), 2)
    a, b = amap.points[0], amap.points[1]
    assert distance_sq(a, b) == distance_sq(b, a)
    assert distance_sq(a, a) == 0


@settings(derandomize=True, max_examples=80, deadline=None)
@given(small_graph(6, False), st.integers(1, 3))
@example(clique(2), 5)  # the three members of `verify approx`
@example(clique(3), 2)
@example(cycle_graph(5), 4)
def test_diameters_match_the_fraction_oracle(g, k):
    # integer numerators over one denominator, each token pair measured once,
    # against Fraction coordinates summed weight by weight, every pair afresh
    try:
        amap = build_approx_map(g, k, vertex_budget=250)
    except ResourceError:
        assume(False)
    points = approx_points_oracle(amap)
    for point, exact in zip(amap.points, points, strict=True):
        assert sum(point.values()) == amap.denominator
        assert {t: Fraction(c, amap.denominator) for t, c in point.items()} == exact
    want = [image_diameter_sq_oracle(points, f) for f in amap.source.facets]
    assert image_diameters_sq(amap, amap.source.facets) == want
    assert max_facet_diameter_sq(amap) == max(want, default=Fraction(0))
