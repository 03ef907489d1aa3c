import hashlib
import random
import time
import tracemalloc
from itertools import combinations

import pytest

from omegalab.bitset import bits, mask_of
from omegalab.errors import ContractError, ParameterError, PreconditionError, ResourceError
from omegalab.functors import (
    Homomorphism,
    adjoint_witness_from_omega,
    adjoint_witness_to_omega,
    base_projection,
    omega,
    omega_label,
    omega_prime,
    saturate_tail,
    saturation_indices,
    shortcut,
    subdivide,
    subdivision_embedding,
    subdivision_path,
    squarefree_retraction,
    truncate_projection,
    walk_power,
)
from omegalab.graphs import (
    Graph,
    clique,
    common_neighborhood,
    cycle_graph,
    is_joined,
    path_graph,
    petersen,
)
from omegalab.homsearch import hom_exists

from util import is_isomorphic, omega_adjacent_oracle, random_graph, same_adjacency


def count_omega_vertices_bruteforce(g: Graph, k: int) -> int:
    """Independent oracle: enumerate tuples over all subset combinations."""
    depth = (k - 1) // 2
    subsets = [mask_of(c) for r in range(1, g.n + 1) for c in combinations(range(g.n), r)]

    def extend(prefix):
        if len(prefix) == depth + 1:
            return 1
        return sum(
            extend(prefix + [s])
            for s in subsets
            if is_joined(g, prefix[-1], s)
        )

    return sum(extend([1 << v]) for v in range(g.n))


def walks_of_length(g: Graph, k: int) -> set[tuple[int, int]]:
    """Independent oracle for the walk power: breadth-first walk expansion."""
    pairs = {(u, v) for u in range(g.n) for v in bits(g.adj[u])}
    for _ in range(k - 1):
        pairs = {(u, w) for u, v in pairs for w in bits(g.adj[v])}
    return pairs


def test_walk_power_matches_step_by_step_expansion():
    rng = random.Random(1515)
    for _ in range(30):
        g = random_graph(rng, rng.randint(1, 8), rng.uniform(0.1, 0.6), loop_p=0.1)
        for k in range(1, 16, 2):
            got = walk_power(g, k)
            assert {(u, v) for u in range(g.n) for v in bits(got.adj[u])} == walks_of_length(g, k)


def test_walk_power_huge_index_is_fast():
    start = time.perf_counter()
    got = walk_power(cycle_graph(5), 1_000_000_001)
    assert time.perf_counter() - start < 1.0
    assert same_adjacency(got, walk_power(cycle_graph(5), 5))
    assert all(got.has_edge(u, v) for u in range(5) for v in range(5))


def test_subdivide_examples():
    assert is_isomorphic(subdivide(clique(2), 3).graph, path_graph(4))
    assert is_isomorphic(subdivide(cycle_graph(5), 3).graph, cycle_graph(15))
    g = petersen()
    assert same_adjacency(subdivide(g, 1).graph, g)
    with pytest.raises(ParameterError):
        subdivide(g, 2)


def test_subdivide_counts_against_the_given_vertex_budget():
    assert subdivide(cycle_graph(5), 3, vertex_budget=15).graph.n == 15
    with pytest.raises(ResourceError, match="subdivision vertex budget 14 exceeded"):
        subdivide(cycle_graph(5), 3, vertex_budget=14)


def test_subdivide_loop_becomes_closed_walk():
    loop = Graph.from_edges(1, [(0, 0)])
    tri = subdivide(loop, 3).graph
    assert is_isomorphic(tri, cycle_graph(3))


def test_subdivision_path_orientation():
    res = subdivide(cycle_graph(5), 3)
    fwd = subdivision_path(res, 0, 1)
    back = subdivision_path(res, 1, 0)
    assert fwd == back[::-1] and len(fwd) == 4


# a triangle with a loop at 0 and a pendant vertex 3
LOOPED = Graph.from_edges(4, [(0, 0), (0, 1), (1, 2), (2, 0), (2, 3)])


def test_subdivision_path_walks_every_edge_both_ways():
    for g in (petersen(), LOOPED):
        for k in (3, 5):
            gamma = subdivide(g, k)
            interior = []
            for u, v in g.edges():
                fwd, back = subdivision_path(gamma, u, v), subdivision_path(gamma, v, u)
                assert len(fwd) == k + 1 and fwd[0] == u and fwd[-1] == v
                assert all(gamma.graph.has_edge(x, y) for x, y in zip(fwd, fwd[1:]))
                if u != v:
                    assert back == fwd[::-1]
                interior += fwd[1:-1]
            # the paths' interiors are the new vertices, each once
            assert sorted(interior) == list(range(g.n, gamma.graph.n))
            u, v = next((u, v) for u in range(g.n) for v in range(g.n) if not g.has_edge(u, v))
            with pytest.raises(ContractError):
                subdivision_path(gamma, u, v)


# SHA-256 of the mapping, as comma-separated images, per (graph, k)
MAPPING_SHA256 = {
    ("C5", 3): (
        "8124f5a92c3d20964dee1cf8237db8eee5aa9fe4ac78a138df7e0c9dfafa3611",
        "1a73d272f469f33df659a8fe47f554e49407f12fb56114d9ada4a4ccb375a008",
    ),
    ("C5", 5): (
        "6c5696beaff3c1905151d9293287e112f0683ca3fc9d41b3548e3fb4858716ba",
        "155e67bb667496e9c4156e891c4c0e774b6a23ae834ecdb6165f032b36a7c03e",
    ),
    ("C7", 3): (
        "0eb2f0216445914dc54647bd56fedb07b69987597e4f5a2199849967c66b4090",
        "fd047f1897f8deab3b8184a10b83202f6022cc4f016ed9fa8301626e7adb53e7",
    ),
    ("C7", 5): (
        "e9d00626c8c698f1f67ddf9c0ed4bdfd739a4d584d45ca2c01e0abd8230b8675",
        "cbdd81f31582643e66233e4564dea2f3a36f8c71c471e7a5415db54ed8806747",
    ),
    ("Petersen", 3): (
        "bc40bdd00204b8eb31dcc49ed109f621859ebd803427ea392034fbc118d98f6d",
        "9b78db758414488b8e28ee96d42b5019b646ebd1f42e25ac3d272950c86ecb6d",
    ),
    ("Petersen", 5): (
        "1885d655d383fecf7f02bcd82362efb5ba12fa75cafca9acf8f96949af091cb0",
        "ea1cfc92b3641d6ee6f48ba7dddc876ce79f8ed66c42b92916ea7fb2b27efc42",
    ),
}


def test_embedding_and_retraction_mappings_are_pinned():
    graphs = {"C5": cycle_graph(5), "C7": cycle_graph(7), "Petersen": petersen()}
    for (name, k), digests in MAPPING_SHA256.items():
        g = graphs[name]
        for build, digest in zip((subdivision_embedding, squarefree_retraction), digests):
            mapping = build(g, k).mapping
            assert hashlib.sha256(",".join(map(str, mapping)).encode()).hexdigest() == digest, (
                name, k, build.__name__,
            )


def test_power_examples():
    c5 = cycle_graph(5)
    assert same_adjacency(walk_power(c5, 1), c5)
    # expected adjacency computed by independent walk enumeration
    expected = walks_of_length(c5, 3)
    got = walk_power(c5, 3)
    assert {(u, v) for u in range(5) for v in bits(got.adj[u])} == expected
    assert same_adjacency(got, clique(5))
    p3c3 = walk_power(cycle_graph(3), 3)
    assert walks_of_length(cycle_graph(3), 3) == {
        (u, v) for u in range(3) for v in bits(p3c3.adj[u])
    }
    assert all(p3c3.has_edge(v, v) for v in range(3))


def test_omega_counts_against_bruteforce():
    for g, k in [(clique(4), 3), (clique(3), 5), (cycle_graph(5), 3), (path_graph(4), 3)]:
        assert omega(g, k).graph.n == count_omega_vertices_bruteforce(g, k)
    assert omega(clique(4), 3).graph.n == 28


def test_index_of_inverts_the_tuples():
    for g, k in [(clique(4), 3), (cycle_graph(5), 5), (petersen(), 3), (LOOPED, 5), (clique(3), 1)]:
        o = omega(g, k)
        results = [o] if k == 1 else [o, shortcut(o, saturation_indices(g, o))]
        for res in results:
            assert [res.index_of(t) for t in res.tuples] == list(range(res.graph.n))
    with pytest.raises(KeyError):
        omega(clique(4), 3).index_of((1, 1))  # ({0}, {0}) is not joined in K4


def test_omega_identity_and_small_cases():
    g = petersen()
    assert same_adjacency(omega(g, 1).graph, g)
    # in K2 every component is forced to a singleton
    o = omega(clique(2), 5)
    assert o.graph.n == 2 and o.graph.edge_count() == 1


def test_omega_of_looped_graph_keeps_loops():
    # a looped vertex yields self-adjacent tuples, e.g. ({v}, {v})
    g = Graph.from_edges(2, [(0, 0), (0, 1)])
    o = omega(g, 3)
    self_adjacent = [i for i in range(o.graph.n) if o.graph.has_edge(i, i)]
    assert self_adjacent
    loop_tuple = o.index_of((1, 1))  # ({0}, {0})
    assert loop_tuple in self_adjacent
    # adjointness sanity must survive loops on the target side
    from omegalab.homsearch import hom_exists

    for probe in (clique(3), cycle_graph(5)):
        left = hom_exists(walk_power(probe, 3), g) is not None
        right = hom_exists(probe, o.graph) is not None
        assert left == right


def test_omega_of_k4_has_no_short_odd_walks():
    from omegalab.graphs import min_odd_closed_walk

    assert min_odd_closed_walk(omega(clique(4), 5).graph) > 5


def test_omega_budget():
    from omegalab.errors import ResourceError

    with pytest.raises(ResourceError):
        omega(clique(5), 5, vertex_budget=10)


def test_omega_deep_index_has_no_recursion_limit():
    deep = omega(clique(2), 2001)
    assert deep.graph.n == 2 and deep.graph.edge_count() == 1
    assert deep.tuples[0] == (0b01, 0b10) * 500 + (0b01,)


def test_omega_deep_index_counts_components_against_the_budget():
    # K3's tuple count grows exponentially with the index; at k = 2001 the
    # budget stops the enumeration after about 4,000 tuples, not 10^6
    start = time.perf_counter()
    with pytest.raises(ResourceError, match="3997 tuples of 1001 components"):
        omega(clique(3), 2001)
    assert time.perf_counter() - start < 2.0


@pytest.mark.parametrize(
    "k, match",
    [(200001, "40 tuples of 100001 components"), (10**13 + 1, "one tuple has")],
    ids=["k200001", "k1e13"],
)
def test_omega_huge_index_stops_fast_in_little_memory(k, match):
    # the enumeration keeps one prefix, so memory stays linear in the depth,
    # and an index whose single tuple exceeds the budget is refused up front
    start = time.perf_counter()
    with pytest.raises(ResourceError, match=match):
        omega(clique(3), k)
    assert time.perf_counter() - start < 2.0


def test_omega_adjacency_matches_pairwise_oracle():
    # seeded random graphs with loops, and named graphs, at k = 3, 5, 7: every
    # pair of tuples, i == j included, against the definition
    rng = random.Random(9090)
    graphs = [random_graph(rng, rng.randint(1, 5), rng.uniform(0.3, 0.9), 0.3) for _ in range(30)]
    graphs += [clique(4), cycle_graph(5), Graph.from_edges(2, [(0, 0), (0, 1)])]
    checked = looped = 0
    for g in graphs:
        for k in (3, 5, 7):
            try:
                o = omega(g, k, vertex_budget=250)
            except ResourceError:
                continue
            t = o.tuples
            for i in range(o.graph.n):
                expect = mask_of(j for j in range(o.graph.n) if omega_adjacent_oracle(g, t[i], t[j]))
                assert o.graph.adj[i] == expect, (g.adj, k, i)
            checked += 1
            looped += o.graph.has_loops()
    assert checked >= 60 and looped >= 10


# tracemalloc peaks of omega on these inputs before the holder sets were
# built on demand, when these inputs built none; building every component's
# sets up front raises them to about 3.1 MB and 12.3 MB
DEEP_INDEX_PEAK_BYTES = {20001: 887_000, 2001: 4_489_000}


def test_omega_deep_index_on_many_vertices_matches_pairwise_oracle():
    # a few long tuples over many vertices: the isolated vertices hold no
    # tuple, and a perfect matching's 100 tuples settle at the tail, so
    # neither builds holder sets for more than one component
    for g, k, n in [
        (Graph.from_edges(1002, [(0, 1)]), 20001, 2),
        (Graph.from_edges(100, [(2 * i, 2 * i + 1) for i in range(50)]), 2001, 100),
    ]:
        start = time.perf_counter()
        o = omega(g, k)
        assert time.perf_counter() - start < 2.0
        t = o.tuples
        assert o.graph.n == n and o.graph.edge_count() == n // 2
        for i in range(n):
            assert o.graph.adj[i] == mask_of(j for j in range(n) if omega_adjacent_oracle(g, t[i], t[j]))
        del o, t
        tracemalloc.start()
        try:
            omega(g, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * DEEP_INDEX_PEAK_BYTES[k], peak


def test_omega_moderate_index_adjacency_is_fast():
    # 13,828 tuples: the pairwise loop took about 44 s here
    start = time.perf_counter()
    o = omega(clique(4), 11)
    assert o.graph.n == 13828
    assert time.perf_counter() - start < 5.0


def test_omega_enumeration_order_is_canonical():
    # depth-first by head vertex, extending by subsets in ascending bitmask
    # order; frozen because the Morse matchings key off this order
    o = omega(clique(3), 3)
    assert o.tuples == (
        (1, 2), (1, 4), (1, 6),
        (2, 1), (2, 4), (2, 5),
        (4, 1), (4, 2), (4, 3),
    )


def test_omega_labels_match_tuple_grammar():
    o = omega(clique(4), 3)
    assert omega_label((mask_of([1]), mask_of([2, 3]))) == "1{2 3}"
    assert omega_label((mask_of([0]), mask_of([1]), mask_of([0, 2]))) == "0{1}|{0 2}"
    labels = set(o.labels)
    assert "0{1 2 3}" in labels and "1{0}" in labels


def test_adjoint_labels_are_made_only_when_read(monkeypatch):
    # omega and shortcut build graphs without labels; an Adjoint names its
    # vertices by omega_label on the first read of ``labels``
    import omegalab.functors

    made = []
    monkeypatch.setattr(omegalab.functors, "omega_label", lambda t: made.append(t) or omega_label(t))
    for g, k in [(clique(4), 3), (petersen(), 5), (LOOPED, 5), (cycle_graph(5), 7)]:
        made.clear()
        o = omega(g, k)
        prime = omega_prime(g, k)
        assert o.graph.labels is None and prime.graph.labels is None and not made
        assert o.labels == tuple(omega_label(t) for t in o.tuples)
        assert len(set(o.labels)) == o.graph.n and len(made) == o.graph.n
        assert o.labels is o.labels  # made once
        assert prime.labels == o.labels
    g = Graph.from_edges(3, [(0, 1), (1, 2)], ["a", "b", "c"])
    assert omega(g, 1).graph is g  # index 1 returns the input, labels and all


def test_projection_examples():
    g = clique(4)
    o1 = omega(g, 1)
    assert base_projection(o1).mapping == tuple(range(4))
    o3 = omega(g, 3)
    p = base_projection(o3)  # validates edge preservation on construction
    coloring = Homomorphism.identity(g)
    composed = coloring.compose(p)
    assert composed.target.n == 4


def test_projection_chain_composes():
    g = clique(3)
    o5, o3, o1 = omega(g, 5), omega(g, 3), omega(g, 1)
    step1 = truncate_projection(o5, o3)
    step2 = truncate_projection(o3, o1)
    chain = step2.compose(step1)
    assert chain.target.n == g.n
    assert chain.mapping == base_projection(o5).mapping


def test_saturate_tail():
    g = clique(4)
    tup = (mask_of([1]), mask_of([2]))
    sat = saturate_tail(g, tup)
    assert sat == (mask_of([1]), common_neighborhood(g, mask_of([1])))
    assert saturate_tail(g, sat) == sat
    # fixed points are exactly the tuples with maximal tail
    o = omega(g, 3)
    for t in o.tuples:
        fixed = saturate_tail(g, t) == t
        assert fixed == (t[-1] == common_neighborhood(g, t[-2]))


def test_omega_prime_examples():
    g = cycle_graph(5)
    o = omega(g, 3)
    op = omega_prime(g, 3)
    for i in range(o.graph.n):
        assert o.graph.adj[i] & ~op.graph.adj[i] == 0  # edges only added
    assert same_adjacency(omega_prime(clique(2), 3).graph, omega(clique(2), 3).graph)


def test_omega_prime_saturated_subgraph_is_lower_omega():
    for g in (clique(3), clique(4), cycle_graph(5)):
        op = omega_prime(g, 3)
        lower = omega(g, 1)
        sat = saturation_indices(g, op)
        image = sorted({sat[i] for i in range(op.graph.n)})
        mapping = {v: lower.index_of(op.tuples[v][:-1]) for v in image}
        assert sorted(mapping.values()) == list(range(lower.graph.n))
        for a in image:
            for b in image:
                if a < b:
                    assert op.graph.has_edge(a, b) == lower.graph.has_edge(
                        mapping[a], mapping[b]
                    )


def test_adjoint_witnesses_roundtrip():
    g, h, k = cycle_graph(5), clique(5), 3
    oh = omega(h, k)
    f = hom_exists(walk_power(g, k), h)
    assert f is not None
    w = adjoint_witness_to_omega(g, f, oh)  # validates
    back = adjoint_witness_from_omega(w, oh)
    assert back.source.n == g.n and back.target.n == h.n


def test_adjoint_witness_reads_the_walks_of_each_length():
    # past the length where the walk rows settle, they repeat with period 2:
    # K2 settles after length 2, short of the depth 4 of index 9
    rng = random.Random(2404)
    cases = [clique(2), path_graph(5), cycle_graph(6), Graph.from_edges(4, [(0, 1), (1, 2)])]
    cases += [random_graph(rng, rng.randint(2, 7), 0.4) for _ in range(20)]
    for g in cases:
        for k in (3, 7, 9):
            oh, depth = omega(clique(3), k), (k - 1) // 2
            f = hom_exists(walk_power(g, k), clique(3))
            if f is None:
                continue
            w = adjoint_witness_to_omega(g, f, oh)
            ends = [{(v, v) for v in range(g.n)}] + [walks_of_length(g, i) for i in range(1, depth + 1)]
            for v in range(g.n):
                if g.adj[v]:
                    comps = tuple(mask_of(f(u) for a, u in e if a == v) for e in ends)
                    assert oh.tuples[w(v)] == comps


def test_adjoint_witness_identity_at_index_one():
    g, h = cycle_graph(5), clique(3)
    oh = omega(h, 1)
    f = hom_exists(walk_power(g, 1), h)
    w = adjoint_witness_to_omega(g, f, oh)
    assert w.mapping == f.mapping


def test_adjoint_witness_rejects_wrong_source():
    g, h = cycle_graph(5), clique(5)
    oh = omega(h, 3)
    f = hom_exists(g, h)  # not the walk power of g
    with pytest.raises(ContractError):
        adjoint_witness_to_omega(g, f, oh)


def test_embedding_examples():
    c5 = cycle_graph(5)
    emb = subdivision_embedding(c5, 3)
    assert emb.is_injective()
    o = omega(c5, 3)
    for v in range(5):
        tup = o.tuples[emb(v)]
        assert tup == (1 << v, c5.adj[v])  # original vertices hit ({a}, N(a))
    pet = petersen()
    assert subdivision_embedding(pet, 3).is_injective()
    assert subdivision_embedding(pet, 5).is_injective()


def test_embedding_on_k2_folds():
    # the right adjoint of K2 is K2 itself, so the path embedding cannot be
    # injective: it validates as a homomorphism and folds the path
    emb = subdivision_embedding(clique(2), 3)
    assert not emb.is_injective()
    assert emb.target.n == 2


def test_retraction_examples():
    c5 = cycle_graph(5)
    gamma = subdivide(c5, 3)
    o = omega(c5, 3)
    ret = squarefree_retraction(c5, 3, gamma, o)
    # all-singleton tuples land in the middle of their path (position
    # 2l+1-l for odd l), mirroring the all-singleton rows of the embedding
    for i, tup in enumerate(o.tuples):
        if all(c.bit_count() == 1 for c in tup):
            a = next(bits(tup[0]))
            b = next(bits(tup[1]))
            assert subdivision_path(gamma, a, b).index(ret(i)) == 2
    emb = subdivision_embedding(c5, 3, gamma, o)
    endo = ret.compose(emb)  # C15 -> C15 endomorphism, validated
    assert endo.source.n == 15 and endo.target.n == 15


def test_retraction_requires_square_free():
    with pytest.raises(PreconditionError):
        squarefree_retraction(clique(4), 3)
    with pytest.raises(PreconditionError):
        squarefree_retraction(Graph.from_edges(1, [(0, 0)]), 3)


def test_retraction_both_tail_parities():
    # index 7 exercises an even number of middle components
    for g in (cycle_graph(5), cycle_graph(7), petersen()):
        squarefree_retraction(g, 5)
        squarefree_retraction(g, 7)


def test_composition_equivalence_with_ninth_power():
    for g in (clique(2), clique(3)):
        o9 = omega(g, 9)
        o33 = omega(omega(g, 3).graph, 3)
        assert (hom_exists(o9.graph, o33.graph) is not None) and (
            hom_exists(o33.graph, o9.graph) is not None
        )


def test_hom_iff_adjoint_hom():
    pairs = [
        (clique(2), clique(3)),
        (clique(3), clique(2)),
        (cycle_graph(5), clique(3)),
        (clique(3), cycle_graph(5)),
    ]
    for g, h in pairs:
        direct = hom_exists(g, h) is not None
        lifted = hom_exists(omega(g, 3).graph, omega(h, 3).graph) is not None
        assert direct == lifted
