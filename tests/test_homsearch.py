import random

import pytest

from omegalab.errors import PreconditionError, ResourceError
from omegalab.functors import omega, walk_power
from omegalab.graphs import Graph, clique, cycle_graph, path_graph
from omegalab.homsearch import (
    HomSearchConfig,
    chromatic_number,
    format_witness,
    hom_equivalent,
    hom_exists,
    parse_witness,
)

from util import hom_exists_bruteforce, random_graph


def test_hom_exists_examples():
    assert hom_exists(cycle_graph(5), clique(3)) is not None
    assert hom_exists(cycle_graph(5), cycle_graph(7)) is None
    looped = Graph.from_edges(2, [(0, 0), (0, 1)])
    assert hom_exists(looped, clique(4)) is None
    target_loop = Graph.from_edges(1, [(0, 0)])
    assert hom_exists(looped, target_loop) is not None


def test_budget_is_distinct_from_none():
    g, h = petersen_pair()
    with pytest.raises(ResourceError):
        hom_exists(g, h, HomSearchConfig(node_budget=3))


def petersen_pair():
    from omegalab.graphs import petersen

    return petersen(), omega(petersen(), 5).graph


def test_chromatic_examples():
    assert chromatic_number(cycle_graph(5)) == 3
    for n in (2, 4, 6):
        assert chromatic_number(clique(n)) == n
    assert chromatic_number(omega(clique(4), 3).graph) == 4
    assert chromatic_number(path_graph(5)) == 2
    with pytest.raises(PreconditionError):
        chromatic_number(Graph.from_edges(1, [(0, 0)]))


def test_hom_equivalent_examples():
    g = cycle_graph(5)
    eq, fwd, back = hom_equivalent(g, g)
    assert eq and fwd is not None and back is not None
    from omegalab.functors import subdivide

    eq, _, _ = hom_equivalent(subdivide(g, 3).graph, omega(g, 3).graph)
    assert eq
    eq, _, _ = hom_equivalent(walk_power(omega(clique(3), 3).graph, 3), clique(3))
    assert eq


def test_solver_matches_bruteforce_on_random_pairs():
    rng = random.Random(20240817)
    for _ in range(80):
        g = random_graph(rng, rng.randint(1, 6), 0.45, loop_p=0.1)
        h = random_graph(rng, rng.randint(1, 5), 0.45, loop_p=0.1)
        fast = hom_exists(g, h)
        slow = hom_exists_bruteforce(g, h)
        assert (fast is None) == (slow is None)


def test_witness_composition_validates():
    rng = random.Random(99)
    hits = 0
    for _ in range(100):
        g = random_graph(rng, rng.randint(1, 5), 0.5)
        h = random_graph(rng, rng.randint(1, 5), 0.5)
        k = random_graph(rng, rng.randint(1, 5), 0.5)
        f = hom_exists(g, h)
        s = hom_exists(h, k)
        if f is not None and s is not None:
            s.compose(f)  # validates transitivity witness
            hits += 1
    assert hits > 10


def test_witness_file_roundtrip():
    g, h = cycle_graph(5), clique(3)
    f = hom_exists(g, h)
    text = format_witness(f)
    again = parse_witness(text, g, h)
    assert again.mapping == f.mapping


def test_long_path_search_has_no_recursion_limit():
    f = hom_exists(path_graph(1200), clique(2))
    assert f is not None and f.mapping[:4] == (1, 0, 1, 0)
