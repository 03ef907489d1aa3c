import functools
import random
import time

import numpy as np
import pytest

from omegalab.bitset import mask_of
from omegalab import graphs
from omegalab.errors import ParameterError, ParseError, ResourceError
from omegalab.functors import omega
from omegalab.graphs import (
    Graph,
    circular_clique,
    clique,
    common_neighborhood,
    cycle_graph,
    format_graph,
    is_joined,
    is_square_free,
    make_family,
    max_degree,
    min_odd_closed_walk,
    parse_graph,
    path_graph,
    petersen,
    tensor_product,
    walk_rows,
)

from util import is_isomorphic, min_odd_closed_walk_reference, random_graph, same_adjacency


def test_family_examples():
    # circular clique at q=2 on 5 vertices is the 5-cycle, checked by brute force
    assert is_isomorphic(make_family("circular_clique", 5, 2), cycle_graph(5))
    for n in (2, 3, 5):
        assert same_adjacency(make_family("circular_clique", n, 1), clique(n))
    assert is_isomorphic(make_family("biclique", 1, 1), clique(2))
    assert make_family("path", 4).edge_count() == 3
    assert make_family("cycle", 6).edge_count() == 6


def test_family_parameter_errors():
    with pytest.raises(ParameterError):
        make_family("circular_clique", 3, 2)  # ratio below two
    with pytest.raises(ParameterError):
        make_family("path", 0)
    with pytest.raises(ParameterError):
        make_family("nonsense", 3)


def test_circular_clique_refuses_q_below_one():
    # q = 0 would join every vertex to itself: K_p with a loop at each vertex
    for q in (0, -1):
        with pytest.raises(ParameterError, match="q >= 1"):
            circular_clique(5, q)
    assert not circular_clique(5, 1).has_loops()


def test_common_neighborhood_examples():
    k4 = clique(4)
    assert common_neighborhood(k4, mask_of([1, 2])) == mask_of([0, 3])
    assert common_neighborhood(k4, 0) == k4.vertex_mask()
    c5 = cycle_graph(5)
    assert common_neighborhood(c5, mask_of([0, 2])) == mask_of([1])


def test_is_joined_examples():
    k4 = clique(4)
    assert is_joined(k4, mask_of([0]), mask_of([1, 2, 3]))
    c5 = cycle_graph(5)
    assert not is_joined(c5, mask_of([2]), mask_of([2]))  # loopless: v not joined to itself
    assert is_joined(c5, 0, mask_of([0, 1]))  # empty side is vacuous


def test_joined_iff_contained_in_common_neighborhood():
    rng = random.Random(7)
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 8), 0.5, loop_p=0.2)
        a = rng.getrandbits(g.n)
        b = rng.getrandbits(g.n)
        joined = is_joined(g, a, b)
        assert joined == (b & ~common_neighborhood(g, a) == 0)
        assert joined == (a & ~common_neighborhood(g, b) == 0)
        assert joined == is_joined(g, b, a)


def test_common_neighborhood_of_a_union_is_the_intersection():
    # CN(A | B) = CN(A) & CN(B), which lets the capped tail of the removal
    # phases AND one memo per shore
    rng = random.Random(6464)
    for _ in range(300):
        g = random_graph(rng, rng.randint(1, 9), rng.uniform(0.2, 0.9), loop_p=0.2)
        a, b = rng.getrandbits(g.n), rng.getrandbits(g.n)
        cn = functools.partial(common_neighborhood, g)
        assert cn(a | b) == cn(a) & cn(b)


def test_tensor_product():
    two_edges = tensor_product(clique(2), clique(2))
    assert two_edges.n == 4 and two_edges.edge_count() == 2
    assert is_isomorphic(tensor_product(cycle_graph(5), clique(2)), cycle_graph(10))


def test_tensor_product_counts_against_the_given_vertex_budget():
    assert tensor_product(clique(3), clique(3), vertex_budget=9).n == 9
    with pytest.raises(ResourceError, match="tensor product vertex budget 8 exceeded"):
        tensor_product(clique(3), clique(3), vertex_budget=8)


def test_tensor_product_checks_its_budgets_before_building_rows():
    start = time.perf_counter()
    with pytest.raises(ResourceError, match="vertex budget"):
        tensor_product(path_graph(3000), path_graph(3000))  # 9,000,000 vertices
    with pytest.raises(ResourceError, match="row bit budget"):
        tensor_product(path_graph(1000), path_graph(1000))  # 10^6 vertices, ~5e11 row bits
    assert time.perf_counter() - start < 1.0


def test_tensor_product_row_bits_are_counted_exactly(monkeypatch):
    # the bound is the rows' exact total: at it the product builds, one bit
    # below it is refused
    rng = random.Random(99)
    for _ in range(20):
        g = random_graph(rng, rng.randint(1, 6), 0.5)
        h = random_graph(rng, rng.randint(1, 6), 0.5)
        total = sum(row.bit_length() for row in tensor_product(g, h).adj)
        monkeypatch.setattr(graphs, "ROW_BIT_BUDGET", total)
        tensor_product(g, h)
        monkeypatch.setattr(graphs, "ROW_BIT_BUDGET", total - 1)
        with pytest.raises(ResourceError, match="row bit budget"):
            tensor_product(g, h)
        monkeypatch.undo()


def test_tensor_projections_are_homomorphisms():
    from omegalab.functors import Homomorphism

    g, h = cycle_graph(5), clique(3)
    prod = tensor_product(g, h)
    first = tuple(i // h.n for i in range(prod.n))
    second = tuple(i % h.n for i in range(prod.n))
    Homomorphism(prod, g, first)
    Homomorphism(prod, h, second)


def test_tensor_commutes_with_relabeling():
    # spot check: swapping the factors gives an isomorphic product
    a, b = path_graph(3), cycle_graph(3)
    assert is_isomorphic(tensor_product(a, b), tensor_product(b, a))


def test_square_free():
    assert not is_square_free(cycle_graph(4))
    assert is_square_free(cycle_graph(5))
    assert is_square_free(petersen())
    assert not is_square_free(clique(4))
    triangle_loop = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2), (0, 0)])
    assert not is_square_free(triangle_loop)
    adjacent_loops = Graph.from_edges(2, [(0, 0), (1, 1), (0, 1)])
    assert not is_square_free(adjacent_loops)


def test_min_odd_closed_walk():
    assert min_odd_closed_walk(cycle_graph(5)) == 5
    assert min_odd_closed_walk(clique(2)) is None
    assert min_odd_closed_walk(path_graph(6)) is None
    assert min_odd_closed_walk(Graph.from_edges(2, [(0, 0), (0, 1)])) == 1
    assert min_odd_closed_walk(petersen()) == 5


def test_min_odd_closed_walk_matches_the_parity_bfs():
    rng = random.Random(2401)
    cases = [
        random_graph(rng, rng.randint(1, 10), rng.uniform(0.05, 0.6), rng.choice([0.0, 0.1]))
        for _ in range(300)
    ]
    adjoints = [omega(clique(3), 3), omega(clique(4), 3), omega(clique(4), 5), omega(petersen(), 3)]
    cases += [a.graph for a in adjoints]
    for g in cases:
        assert min_odd_closed_walk(g) == min_odd_closed_walk_reference(g)
    assert [min_odd_closed_walk(g) for g in cases[-4:]] == [9, 7, 11, 15]


def test_walk_rows_are_the_walks_of_each_length_until_they_repeat():
    # row v at length j is row v of the j-th boolean power of the adjacency
    # matrix; the rows stop just before the first that repeats those two
    # before it (from length 3 on), and repeat with period 2 from there
    rng = random.Random(2402)
    cases = [Graph(0, ()), Graph.from_edges(3, [])]
    cases += [random_graph(rng, rng.randint(1, 8), rng.uniform(0.1, 0.6), 0.1) for _ in range(100)]
    for g in cases:
        adj = np.array([g.adj[u] >> v & 1 for u in range(g.n) for v in range(g.n)], dtype=np.int64)
        adj = adj.reshape(g.n, g.n)
        rows = list(walk_rows(g))
        power, by_length = np.eye(g.n, dtype=np.int64), [None]
        for _ in range(len(rows) + 4):
            power = np.minimum(power @ adj, 1)
            by_length.append(tuple(mask_of(np.flatnonzero(r).tolist()) for r in power))
        assert rows == by_length[1 : len(rows) + 1]
        assert all(by_length[j] != by_length[j - 2] for j in range(3, len(rows) + 1))
        assert all(by_length[j] == by_length[j - 2] for j in range(len(rows) + 1, len(by_length)))


def test_max_degree():
    assert max_degree(clique(4)) == 3
    assert max_degree(cycle_graph(9)) == 2
    assert max_degree(Graph.from_edges(1, [(0, 0)])) == 1


def test_adjacency_validation():
    with pytest.raises(ParameterError):
        Graph(2, (0b10, 0b00))  # asymmetric
    with pytest.raises(ParameterError):
        Graph(1, (0b10,))  # bit beyond n-1


def test_row_bits_are_counted_from_the_edge_list(monkeypatch):
    # each row takes its highest neighbour + 1 bits, counted before any row
    # is built: a budget of exactly that many bits builds, one bit less refuses
    rng = random.Random(31)
    for g in [random_graph(rng, rng.randint(1, 9), 0.5, 0.2) for _ in range(30)]:
        row_bits = sum(row.bit_length() for row in g.adj)
        monkeypatch.setattr(graphs, "ROW_BIT_BUDGET", row_bits)
        assert same_adjacency(Graph.from_edges(g.n, g.edges()), g)
        if row_bits:
            monkeypatch.setattr(graphs, "ROW_BIT_BUDGET", row_bits - 1)
            with pytest.raises(ResourceError, match=f"{row_bits} bits"):
                Graph.from_edges(g.n, g.edges())
            with pytest.raises(ParseError, match=f"{row_bits} bits"):
                parse_graph(format_graph(g))
    with pytest.raises(ParameterError, match="out of range"):
        Graph.from_edges(4, [(0, 1), (0, 4)])


def test_graph_roundtrip_byte_exact():
    g = petersen().with_labels([f"v{i}" for i in range(10)])
    text = format_graph(g)
    again = parse_graph(text)
    assert same_adjacency(g, again) and again.labels == g.labels
    assert format_graph(again) == text


def test_graph_roundtrip_loops_and_spaces_in_labels():
    g = Graph.from_edges(3, [(0, 0), (0, 1), (1, 2)], ["a b", "c", "d{1 2}"])
    assert format_graph(parse_graph(format_graph(g))) == format_graph(g)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_graph("p 2 1\ne 0 5\n")
    assert "line 2" in str(err.value)
    with pytest.raises(ParseError):
        parse_graph("e 0 1\n")
    with pytest.raises(ParseError) as err:
        parse_graph("p 2 2\ne 0 1\n")
    assert "announced" in str(err.value)


def test_no_odd_walk_iff_two_colorable():
    from omegalab.homsearch import hom_exists

    rng = random.Random(31)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 8), 0.4, loop_p=0.05)
        bipartite = min_odd_closed_walk(g) is None
        assert bipartite == (hom_exists(g, clique(2)) is not None)


def test_isomorphism_brute_force():
    assert is_isomorphic(petersen(), petersen())
    assert not is_isomorphic(cycle_graph(6), path_graph(6))
    shuffled = Graph.from_edges(5, [(4, 3), (3, 2), (2, 1), (1, 0), (0, 4)])
    assert is_isomorphic(shuffled, cycle_graph(5))
