import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from omegalab.errors import ContractError, ParseError, PreconditionError, ResourceError
from omegalab.functors import Homomorphism, omega, subdivide, walk_power
from omegalab.graphs import Graph, clique, cycle_graph, path_graph, petersen
from omegalab.homsearch import (
    HomSearchConfig,
    chromatic_number,
    format_witness,
    hom_equivalent,
    hom_exists,
    parse_witness,
)

from util import hom_exists_bruteforce, min_deciding_budget, random_graph


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


@st.composite
def _small_graph(draw, max_n: int, loops: bool) -> Graph:
    """A graph on up to ``max_n`` vertices, often with isolated vertices, and
    with loops only if ``loops``."""
    n = draw(st.integers(0, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u, n) if loops or u != v]
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return Graph.from_edges(n, sorted(edges))


@st.composite
def _graph_pair(draw):
    return draw(_small_graph(6, True)), draw(_small_graph(5, draw(st.booleans())))


@settings(derandomize=True, max_examples=250, deadline=None)
@given(_graph_pair())
@example((Graph.from_edges(2, [(0, 0), (0, 1)]), clique(3)))  # a loop, no target loop
@example((Graph.from_edges(3, [(0, 1)]), Graph.from_edges(3, [(1, 1), (1, 2)])))  # isolated vertices
@example(  # loops on both sides, so the first domains are not arc consistent
    (
        Graph.from_edges(5, [(0, 1), (0, 3), (1, 2), (2, 2), (3, 3)]),
        Graph.from_edges(6, [(0, 4), (1, 4), (1, 5), (2, 3), (2, 4), (3, 3), (5, 5)]),
    )
)
def test_solver_matches_bruteforce_on_generated_pairs(pair):
    g, h = pair
    fast = hom_exists(g, h)
    assert (fast is None) == (hom_exists_bruteforce(g, h) is None)
    if fast is not None:
        assert fast.source is g and fast.target is h and len(fast.mapping) == g.n
        assert all(h.has_edge(fast(u), fast(v)) for u, v in g.edges())


# the least node budget that decides each instance, and the verdict, recorded
# before propagation moved onto support sets: the search tree is the same
SEARCH_TREES = {
    "omega(K4,3)->K3": (lambda: (omega(clique(4), 3).graph, clique(3)), 3492, "none"),
    "omega(K4,3)->K4": (lambda: (omega(clique(4), 3).graph, clique(4)), 28, "exists"),
    "omega(C7,5)->K3": (lambda: (omega(cycle_graph(7), 5).graph, clique(3)), 49, "exists"),
    "omega(Petersen,3)->subdivide(Petersen,3)": (
        lambda: (omega(petersen(), 3).graph, subdivide(petersen(), 3).graph), 142, "exists"
    ),
    "subdivide(Petersen,3)->omega(Petersen,3)": (
        lambda: (subdivide(petersen(), 3).graph, omega(petersen(), 3).graph), 80, "exists"
    ),
    "C5->C7": (lambda: (cycle_graph(5), cycle_graph(7)), 7, "none"),
}


@pytest.mark.parametrize("name", list(SEARCH_TREES))
def test_search_tree_is_pinned(name):
    # a change to propagation or variable ordering must move these on purpose
    build, budget, verdict = SEARCH_TREES[name]
    g, h = build()
    least, found = min_deciding_budget(g, h)
    assert (least, "none" if found is None else "exists") == (budget, verdict)
    with pytest.raises(ResourceError):
        hom_exists(g, h, HomSearchConfig(node_budget=budget - 1))


def test_the_root_is_arc_consistent_before_the_first_assignment():
    # five isolated target vertices numbered below a triangle leave every
    # domain before the first assignment, so neither C5 tries them (this
    # took 20 nodes when they stayed until a neighbour was assigned)
    two_c5 = Graph.from_edges(10, [(c + i, c + (i + 1) % 5) for c in (0, 5) for i in range(5)])
    padded = Graph.from_edges(8, [(5, 6), (6, 7), (5, 7)])
    least, found = min_deciding_budget(two_c5, padded)
    assert least == 10 == min_deciding_budget(two_c5, clique(3))[0]
    assert set(found.mapping) == {5, 6, 7}


def test_budget_error_names_the_depth_reached():
    # the deepest position at which propagation succeeded, out of the
    # number of source vertices; the count is deterministic
    g, h = omega(clique(4), 3).graph, clique(3)
    for budget, depth in ((1, 1), (6, 6), (100, 15), (3491, 15)):
        with pytest.raises(ResourceError) as err:
            hom_exists(g, h, HomSearchConfig(node_budget=budget))
        assert str(err.value) == f"search node budget {budget} exhausted at depth {depth} of 28"
    # every value of C5's first vertex is refuted by propagation alone
    with pytest.raises(ResourceError, match="^search node budget 6 exhausted at depth 0 of 5$"):
        hom_exists(cycle_graph(5), cycle_graph(7), HomSearchConfig(node_budget=6))


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


_FIELD = st.one_of(
    st.integers(-2, 4).map(str),
    st.sampled_from(["x", "1e3", "0x1", "1_0", "99999999999", "-0", "", "\u0663"]),
    st.text(max_size=3),
)


@st.composite
def _witness_text(draw):
    """'m <u> <v>' lines for a map on three vertices, often a valid one:
    some vertices missing or repeated, images that may be out of range or
    not edge-preserving, a field that may be replaced or added, and blank
    or junk lines."""
    images = draw(st.permutations(range(3)))  # a valid map, nine times in ten
    kept = 3 if draw(st.integers(0, 3)) else draw(st.integers(0, 2))
    sources = draw(st.permutations(range(3)))[:kept]
    if not draw(st.integers(0, 3)):
        sources += draw(st.lists(st.integers(-1, 3), max_size=2))
    lines = []
    for u in sources:
        valid = u in range(3) and draw(st.integers(0, 9))
        image = images[u] if valid else draw(st.integers(-1, 3))
        fields = ["m", str(u), str(image)]
        if draw(st.integers(0, 4)) == 0:
            fields[draw(st.integers(0, 2))] = draw(_FIELD)
        if draw(st.integers(0, 9)) == 0:
            fields.append(draw(_FIELD))
        lines.append(" ".join(fields))
    for _ in range(draw(st.integers(0, 2))):
        junk = st.one_of(st.sampled_from(["", "  ", "m", "m 0", "p 3 3"]), st.text(max_size=6))
        lines.insert(draw(st.integers(0, len(lines))), draw(junk))
    return "\n".join(lines)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_witness_text())
@example("m 0 0\nm 1 1\nm 2 -1")  # an edge test once read the negative image
def test_witness_parser_never_crashes(text):
    # generated text against K3 -> K3 gives a validated homomorphism or a
    # documented error, never any other exception
    k3 = clique(3)
    try:
        f = parse_witness(text, k3, k3)
    except (ParseError, ContractError):
        return
    assert isinstance(f, Homomorphism) and f.source is k3 and f.target is k3
    assert all(k3.has_edge(f(u), f(v)) for u, v in k3.edges())
