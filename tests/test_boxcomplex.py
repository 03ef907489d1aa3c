import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omegalab.bitset import bits, mask_of
from omegalab.boxcomplex import (
    Faces,
    FaceTable,
    Z2Complex,
    _facet_order,
    _maximal,
    build_box,
    format_complex,
    induced_map,
    make_complex,
    parse_complex,
)
from omegalab.errors import ParameterError, ParseError, ResourceError
from omegalab.functors import Homomorphism, base_projection, omega
from omegalab.graphs import Graph, biclique, clique, common_neighborhood, cycle_graph, path_graph

from util import (
    box_facets_oracle,
    check_against_boundary_reference,
    faces_oracle,
    facet_order_reference,
    random_graph,
)


def test_box_of_k2():
    k = build_box(clique(2))
    assert k.token_count == 4 and len(k.facets) == 2 and k.free
    assert all(f.bit_count() == 2 for f in k.facets)
    assert all(f & k.mirror(f) == 0 for f in k.facets)


def test_box_of_k4_has_fourteen_facets():
    k = build_box(clique(4))
    assert len(k.facets) == 14
    # facets pair a nonempty proper subset with its complement on the shores
    for f in k.facets:
        lo = f & ((1 << k.h) - 1)
        hi = f >> k.h
        assert lo and hi and lo & hi == 0 and (lo | hi) == (1 << 4) - 1


def test_box_of_looped_vertex_is_not_free():
    k = build_box(Graph.from_edges(1, [(0, 0)]))
    assert not k.free
    assert k.facets == (0b11,)


def test_box_is_free_exactly_when_the_graph_has_no_loops():
    # ``free`` is read from the facets; a loop at v makes a facet hold both
    # copies of v, and only a loop does
    rng = random.Random(4242)
    looped = 0
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 7), rng.uniform(0.2, 0.8), loop_p=0.2)
        assert build_box(g).free == (not g.has_loops())
        looped += g.has_loops()
    assert 50 <= looped <= 150


def test_isolated_vertices_dropped():
    g = Graph.from_edges(4, [(0, 1)])  # vertices 2, 3 isolated
    k = build_box(g)
    assert k.base == (0, 1)


def test_facets_match_closed_set_oracle():
    rng = random.Random(2718)
    for _ in range(300):
        g = random_graph(rng, rng.randint(0, 10), rng.random(), loop_p=rng.choice((0.0, 0.15)))
        box = build_box(g)
        assert set(box.facets) == box_facets_oracle(g)
        box.validate()  # an antichain, swap-symmetric, by construction


def test_membership():
    k = build_box(clique(3))
    facet = k.facets[0]
    assert k.membership(facet)
    low = facet & -facet
    assert k.membership(low)
    outside = facet | (1 << (k.token_count - 1))
    if outside != facet:
        assert not k.membership(outside)
    assert not k.membership(0)  # simplices are nonempty


def test_shore_saturation_is_again_a_simplex():
    rng = random.Random(3)
    for _ in range(40):
        g = random_graph(rng, rng.randint(2, 7), 0.5)
        k = build_box(g)
        if not k.facets:
            continue
        pos = {v: i for i, v in enumerate(k.base)}
        for f in k.facets:
            lo = f & ((1 << k.h) - 1)
            if not lo:
                continue
            white = mask_of(k.base[p] for p in bits(lo))
            cn = common_neighborhood(g, white)
            closure = lo | mask_of(
                k.h + pos[v] for v in bits(cn) if v in pos
            )
            assert k.membership(closure)


def test_maximal_simplices_have_both_shores():
    for g in (clique(3), cycle_graph(5), path_graph(4)):
        k = build_box(g)
        for f in k.facets:
            assert f & ((1 << k.h) - 1) and f >> k.h


def test_induced_map_identity_and_projection():
    g = clique(3)
    ident = induced_map(Homomorphism.identity(g))
    assert ident.vertex_map == tuple(range(ident.source.token_count))
    o3 = omega(g, 3)
    m = induced_map(base_projection(o3))  # validates simpliciality + equivariance
    assert m.target.token_count == 6


def test_induced_map_functorial():
    g = cycle_graph(5)
    h = clique(3)
    from omegalab.homsearch import hom_exists

    f = hom_exists(g, h)
    ident = Homomorphism.identity(h)
    composed_hom = ident.compose(f)
    assert (
        induced_map(composed_hom).vertex_map
        == induced_map(ident).compose(induced_map(f)).vertex_map
    )


def test_complex_roundtrip_byte_exact():
    for g in (clique(4), cycle_graph(5), Graph.from_edges(1, [(0, 0)])):
        k = build_box(g)
        text = format_complex(k)
        again = parse_complex(text)
        assert format_complex(again) == text
        assert again.facets == k.facets and again.free == k.free


def test_complex_parse_errors():
    with pytest.raises(ParseError) as err:
        parse_complex("c 2\nn 0 0 +\nn 1 1 -\n")  # shores do not pair up
    assert "involution" in str(err.value)
    with pytest.raises(ParseError) as err:
        parse_complex("c 2\nn 0 0 +\nn 1 0 -\nf 0 7\n")
    assert "line 4" in str(err.value)


def test_parse_complex_normalizes_foreign_layout():
    # ids permuted and shores interleaved; the parser must remap to the
    # canonical half-shift layout and keep the same facets up to renaming
    text = "c 4\nn 3 7 +\nn 0 7 -\nn 2 9 +\nn 1 9 -\nf 3 1\nf 2 0\n"
    k = parse_complex(text)
    assert k.base == (7, 9)
    assert set(k.facets) == {0b1001, 0b0110}
    assert format_complex(parse_complex(format_complex(k))) == format_complex(k)


def test_make_complex_maximalizes_and_mirrors():
    # facet {0 white, 1 black} plus a face of it: the face must be absorbed
    # and the mirror facet {1 white, 0 black} added
    k = make_complex((0, 1), [0b1001, 0b0001])
    assert set(k.facets) == {0b1001, 0b0110}
    assert k.free


def test_maximal_matches_all_pairs_definition():
    # nested and repeated masks; a repeated mask is contained in its copy
    rng = random.Random(9091)
    for _ in range(300):
        masks = [rng.randrange(1, 1 << 8) for _ in range(rng.randint(1, 12))]
        for _ in range(rng.randint(0, 4)):
            m = rng.choice(masks)  # append a copy of m or a nonempty submask of it
            masks.append(m if rng.random() < 0.5 else m & rng.randrange(1 << 8) or m)
        rng.shuffle(masks)
        expected = [
            m for i, m in enumerate(masks)
            if not any(j != i and m & ~o == 0 for j, o in enumerate(masks))
        ]
        assert _maximal(masks) == expected


def test_validate_refuses_nested_or_repeated_facets():
    for facets in ((0b0001, 0b1001, 0b0110), (0b1001, 0b1001, 0b0110, 0b0110)):
        with pytest.raises(ParameterError, match="not an antichain"):
            Z2Complex((0, 1), facets).validate()


def test_validate_refuses_stray_tokens_and_asymmetric_facets():
    with pytest.raises(ParameterError, match="beyond the vertex table"):
        Z2Complex((0, 1), (0b1001, 0b0110, 1 << 4)).validate()
    with pytest.raises(ParameterError, match="not swap-symmetric"):
        Z2Complex((0, 1), (0b1001,)).validate()


def test_make_complex_refuses_stray_tokens_before_mirroring():
    # on two shores of 2, the mirror of token 5 is token 3, in range
    with pytest.raises(ParameterError, match="beyond the vertex table"):
        make_complex((0, 1), [0b1001, 1 << 5])


def test_make_complex_is_valid_without_validating():
    rng = random.Random(2403)
    for _ in range(200):
        h = rng.randint(1, 5)
        facets = [rng.randrange(1 << 2 * h) for _ in range(rng.randint(0, 8))]
        k = make_complex(range(h), facets)
        k.validate()
        assert k.facets == tuple(sorted(k.facets, key=lambda m: tuple(bits(m))))
        closed = {m for f in facets if f for m in (f, k.mirror(f))}
        assert set(k.facets) == {m for m in closed if not any(m != o and m & ~o == 0 for o in closed)}


def test_parse_complex_is_linear_in_tokens():
    h = 20000
    lines = [f"c {2 * h}"] + [f"n {t} {t // 2} {'+-'[t % 2]}" for t in range(2 * h)]
    start = time.perf_counter()
    k = parse_complex("\n".join(lines) + "\n")
    assert time.perf_counter() - start < 1.0
    assert k.base == tuple(range(h)) and k.facets == ()


def test_one_facet_over_the_budget_is_refused_before_any_face():
    # 2^25 - 1 faces in one facet: enumerating them took minutes and half a
    # gigabyte before the budget stopped it
    k = make_complex(range(30), [(1 << 25) - 1])
    start = time.perf_counter()
    with pytest.raises(ResourceError, match="simplex budget 10000000 exceeded"):
        k.simplices()
    assert time.perf_counter() - start < 1.0
    # a white tetrahedron and its black mirror: 15 faces each
    for budget in (14, 29):
        with pytest.raises(ResourceError, match=f"simplex budget {budget} exceeded"):
            make_complex(range(4), [0b1111]).simplices(budget)
    assert len(make_complex(range(4), [0b1111]).simplices(30)) == 30


def test_the_budget_applies_on_every_call():
    # B(K4) has 78 faces; an earlier call with room for them all lets no
    # later call past a smaller budget
    k = build_box(clique(4))
    assert len(k.simplices()) == 78
    with pytest.raises(ResourceError, match="simplex budget 5 exceeded"):
        k.simplices(5)
    assert k.simplices() is not k.simplices()


def test_exact_budget_on_shared_faces():
    # two tetrahedra sharing a triangle: 15 + 15 faces over the facets, 23
    # distinct ones, so the budget counts each shared face once
    def k():
        return Z2Complex(tuple(range(5)), (0b01111, 0b10111))

    assert len(k().simplices(23)) == 23
    with pytest.raises(ResourceError) as err:
        k().simplices(22)
    assert str(err.value) == "simplex budget 22 exceeded after 2 of 2 facets"
    # three disjoint triangles, 7 faces each: the second passes a budget of 10
    with pytest.raises(ResourceError) as err:
        Z2Complex(tuple(range(5)), (0b111, 0b111 << 3, 0b111 << 6)).simplices(10)
    assert str(err.value) == "simplex budget 10 exceeded after 2 of 3 facets"


def test_a_box_complex_counts_its_faces_exactly_before_making_any():
    # the cube walk counts 1 + 2^|CN(B)| faces per shore set B: B(K4) has 78
    k = build_box(clique(4))
    assert len(k.simplices(78)) == 78
    with pytest.raises(ResourceError) as err:
        k.simplices(77)
    assert str(err.value) == "simplex budget 77 exceeded"
    # B(K_{16,16}) has 2(2^16 - 1)(1 + 2^16) faces, about 8.6e9: the walk
    # counts the cube of sets below each one-vertex shore set at once
    start = time.perf_counter()
    with pytest.raises(ResourceError, match="simplex budget 10000000 exceeded"):
        build_box(biclique(16, 16)).simplices()
    assert time.perf_counter() - start < 1.0


def test_cube_walk_matches_the_facet_walk():
    # a box complex lists its faces from its position rows; the same base
    # and facets without the rows walk the facets' subset trees.  The pair
    # rows read by cube are checked on the whole table and on a drawn subset
    rng = random.Random(2606)
    edgeless = [Graph.from_edges(n, []) for n in (0, 1, 5)] + [Graph.from_edges(1, [(0, 0)])]
    # in a biclique the walk records each one-vertex shore set with the cube
    # of sets below it, all with the other side as common neighbourhood
    graphs = edgeless + [biclique(3, 4)] + [
        random_graph(rng, rng.randint(2, 8), rng.uniform(0.2, 0.9), (0.0, 0.3)[i % 2]) for i in range(295)
    ]
    checked = 0
    for i, g in enumerate(graphs):
        box = build_box(g)
        plain = Z2Complex(box.base, box.facets)
        assert box == plain and plain.rows is None
        faces = box.simplices()
        table = faces.table
        assert table.masks == plain.simplices().table.masks and table.closed
        get = table.index.get
        assert list(table.pivots()) == [get(s ^ (s & -s), -1) for s in table.masks]
        if i % 50 == 7:
            assert table.starts is not None
            check_against_boundary_reference(faces, box.h)
            drawn = table.faces(s for s in faces if rng.random() < 0.7)
            check_against_boundary_reference(drawn, box.h, set(range(0, len(faces), 2)))
            checked += 1
    assert checked == 6


def test_facet_order_is_the_order_of_token_lists():
    # for an antichain the bit-reversed masks, descending, order the facets
    # as their ascending token lists do
    rng = random.Random(7)
    for _ in range(3000):
        width = rng.randint(1, 12)
        masks = [rng.getrandbits(width) for _ in range(rng.randint(1, 10))]
        antichain = _maximal(list(set(masks) - {0}))
        assert _facet_order(antichain) == tuple(sorted(antichain, key=lambda m: tuple(bits(m))))


def test_facet_order_matches_the_string_reversal_reference():
    # the byte keys pad a width that is not a multiple of 8 with low zero
    # bits, which keeps the order; the top bit is set in one mask of half the
    # lists so that every width from 1 to 70 bits occurs exactly
    rng = random.Random(2929)
    assert _facet_order([]) == facet_order_reference([]) == ()
    assert _facet_order([0b1011]) == facet_order_reference([0b1011]) == (0b1011,)
    widths = set()
    for i in range(4000):
        width = rng.randint(1, 70)
        masks = [rng.randint(1, (1 << width) - 1) for _ in range(rng.randint(1, 12))]
        if i % 2:
            masks[rng.randrange(len(masks))] |= 1 << (width - 1)
            widths.add(width)
        assert _facet_order(masks) == facet_order_reference(masks), masks
    assert widths == set(range(1, 71))
    rng = random.Random(2718)
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 9), rng.uniform(0.1, 0.9), rng.choice((0.0, 0.2)))
        facets = build_box(g).facets
        assert facets == facet_order_reference(list(facets))


@st.composite
def facet_lists(draw):
    """Facets over 2h tokens with overlaps, plus nested and duplicate copies
    of some of them, in any order."""
    h = draw(st.integers(1, 5))
    full = (1 << 2 * h) - 1
    facets = draw(st.lists(st.integers(1, full), min_size=1, max_size=8))
    for _ in range(draw(st.integers(0, 4))):
        f = facets[draw(st.integers(0, len(facets) - 1))]
        facets.append(f & draw(st.integers(0, full)) or f)  # nested, else a duplicate
    return h, draw(st.permutations(facets))


def test_simplices_match_the_submask_oracle():
    # the faces, and the pivots, closedness and pair rows read from them,
    # against the submask oracle and the reference boundary; also on a table
    # that lacks a face and its mirror, and on a drawn subset.  Only the
    # faces of a complex come on a table made closed; the scan of the gapped
    # tables must find both closed and open ones
    scanned = []

    @given(facet_lists(), st.integers(0, 2**32))
    @settings(derandomize=True, max_examples=300, deadline=None)
    def check(case, seed):
        h, facets = case
        rng = random.Random(seed)
        for k in (Z2Complex(tuple(range(h)), tuple(facets)), make_complex(range(h), facets)):
            faces, want = k.simplices(), FaceTable(faces_oracle(k.facets))
            assert faces.table.masks == want.masks and len(faces) == len(want.masks)
            assert faces.table.closed and not want.closed
            check_against_boundary_reference(faces, h)
            masks = set(want.masks)
            lost = rng.choice(want.masks)
            gapped = FaceTable(masks - {lost, k.mirror(lost)}).faces()
            kept = set(rng.sample(range(len(masks)), len(masks) // 2))
            assert not gapped.table.closed and not Faces.of(masks).table.closed
            check_against_boundary_reference(gapped, h, kept)
            scanned.append(gapped.is_closed())
            drawn = faces.table.faces(s for s in faces if rng.random() < 0.7)
            check_against_boundary_reference(drawn, h, kept)

    check()
    assert {True, False} <= set(scanned)


def test_box_of_a_clique_has_three_to_the_n_minus_three_faces():
    # a face is a disjoint pair of shores, nonempty, with neither side all of V
    for n in range(2, 9):
        assert len(build_box(clique(n)).simplices()) == 3**n - 3


def test_mirror_ids_invert_the_swap():
    k = build_box(clique(4))
    faces = set(k.simplices())
    faces.discard(max(faces))  # a face whose mirror is missing
    table = FaceTable(faces)
    mirror = table.mirrors(k.h)
    for i, m in enumerate(table.masks):
        j = mirror[i]
        if j >= 0:
            assert table.masks[j] == k.mirror(m) and mirror[j] == i
        else:
            assert k.mirror(m) not in faces
    assert list(mirror).count(-1) == 1
