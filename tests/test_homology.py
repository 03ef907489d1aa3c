import itertools
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from omegalab.bitset import bits
from omegalab.boxcomplex import Faces, FaceTable, Z2Complex, build_box
from omegalab.errors import ContractError, ResourceError
from omegalab.functors import omega
from omegalab.graphs import clique, cycle_graph, tensor_product
from omegalab.homology import (
    betti_mod2,
    betti_of_complex,
    convolve,
    euler_characteristic,
)

from util import (
    betti_mod2_reference,
    betti_oracle,
    boundary_reference,
    check_against_boundary_reference,
    component_count,
    euler_of_complex,
    random_free_complex,
    random_graph,
    small_graph,
)


def full_simplex_faces(n):
    return [m for m in range(1, 1 << n)]


def test_contractible_point_and_simplex():
    assert betti_mod2([0b1]) == (1,)
    assert betti_mod2(full_simplex_faces(4)) == (1,)
    assert euler_characteristic([0b1]) == 1
    assert euler_characteristic(full_simplex_faces(4)) == 1


def test_sphere_boundaries():
    # boundary of the full simplex on n+2 vertices is an n-sphere
    for n_tokens, expect in [(3, (1, 1)), (4, (1, 0, 1)), (5, (1, 0, 0, 1))]:
        faces = [m for m in range(1, 1 << n_tokens) if m != (1 << n_tokens) - 1]
        assert betti_mod2(faces) == expect


def test_box_betti_values():
    assert betti_of_complex(build_box(clique(2))) == (2,)
    assert betti_of_complex(build_box(clique(4))) == (1, 0, 1)
    assert betti_of_complex(build_box(cycle_graph(5))) == (1, 1)


def test_box_betti_against_dense_oracle():
    for g in (clique(2), clique(3), clique(4), cycle_graph(5), cycle_graph(7)):
        faces = build_box(g).simplices()
        assert betti_mod2(faces) == betti_oracle(faces)


def test_euler_examples():
    assert euler_of_complex(build_box(clique(2))) == 2  # 4 vertices - 2 edges
    assert euler_of_complex(build_box(clique(4))) == 2  # sphere
    chi = euler_of_complex(build_box(cycle_graph(5)))
    betti = betti_of_complex(build_box(cycle_graph(5)))
    assert chi == sum((-1) ** i * b for i, b in enumerate(betti)) == 0


def test_euler_equals_alternating_betti_on_random_complexes():
    rng = random.Random(11)
    for _ in range(30):
        k = random_free_complex(rng, max_shore=6)
        faces = k.simplices()
        betti = betti_mod2(faces)
        assert euler_characteristic(faces) == sum(
            (-1) ** i * b for i, b in enumerate(betti)
        )
        assert betti[0] == component_count(faces)


def test_kunneth_convolution():
    b2 = betti_of_complex(build_box(clique(2)))
    b3 = betti_of_complex(build_box(clique(3)))
    bc5 = betti_of_complex(build_box(cycle_graph(5)))
    assert convolve(b2, b2) == (4,)
    assert convolve(b3, b3) == (1, 2, 1)
    assert convolve(b3, bc5) == (1, 2, 1)
    assert betti_of_complex(build_box(tensor_product(clique(2), clique(2)))) == (4,)
    assert betti_of_complex(build_box(tensor_product(clique(3), clique(3)))) == (1, 2, 1)
    assert betti_of_complex(build_box(tensor_product(clique(3), cycle_graph(5)))) == (1, 2, 1)


def test_adjoint_box_betti_matches_base():
    for n in (3, 4):
        base = betti_of_complex(build_box(clique(n)))
        lifted = betti_of_complex(build_box(omega(clique(n), 3).graph))
        assert base == lifted


def test_boundary_squares_to_zero():
    # a complex's faces come on a table made closed, and the reference
    # boundary finds no face missing, holds each face's codimension-1 faces
    # and squares to zero; read through the mirror pairs of a free complex,
    # the pair rows square to zero too, and the occurrences of a pair in the
    # rows count the cofacets of either of its faces, which is what a
    # collapse reads
    rng = random.Random(99)
    complexes = [build_box(clique(4))] + [random_free_complex(rng, 7) for _ in range(150)]
    pairs = 0
    for k in complexes:
        faces = k.simplices()
        table = faces.table
        offsets, ids, closed = boundary_reference(table)
        assert closed and table.closed and len(faces) == len(table.masks)
        for i, s in enumerate(table.masks):
            facets = ids[offsets[i] : offsets[i + 1]]
            expect = {s ^ (1 << t) for t in bits(s)} if s.bit_count() > 1 else set()
            assert sorted(table.masks[f] for f in facets) == sorted(expect)
            acc = 0
            for f in facets:
                for g in ids[offsets[f] : offsets[f + 1]]:
                    acc ^= 1 << g
            assert acc == 0
        row_offsets, rows = check_against_boundary_reference(faces, k.h)
        mirror = table.mirrors(k.h)
        cofacets = [0] * len(table.masks)
        for f in ids:
            cofacets[f] += 1
        occurs = [0] * len(table.masks)
        for p in rows:
            occurs[p] += 1
        for i, m in enumerate(mirror):
            if i > m:
                assert occurs[i] == 0
            else:
                assert occurs[i] == cofacets[i] == cofacets[m]
                pairs += 1
                acc = 0
                for p in rows[row_offsets[i] : row_offsets[i + 1]]:
                    for q in rows[row_offsets[p] : row_offsets[p + 1]]:
                        acc ^= 1 << q
                assert acc == 0
    assert pairs > 2_000


def test_boundary_rows_lead_with_the_face_without_its_lowest_token():
    # betti_mod2 reads a column's pivot from the table's pivots: the first and
    # greatest id of the reference boundary row, on free and looped complexes
    rng = random.Random(4242)
    tables = [build_box(clique(4)).simplices().table]
    for _ in range(60):
        tables.append(random_free_complex(rng, max_shore=7).simplices().table)
        g = random_graph(rng, rng.randint(1, 6), rng.uniform(0.3, 0.9), 0.4)
        tables.append(build_box(g).simplices().table)
    rows = 0
    for table in tables:
        offsets, ids, _ = boundary_reference(table)
        pivot = table.pivots()
        for i, s in enumerate(table.masks):
            row = ids[offsets[i] : offsets[i + 1]]
            if s.bit_count() >= 2:
                assert table.masks[row[0]] == s ^ (s & -s) and row[0] == max(row) == pivot[i]
                rows += 1
            else:
                assert pivot[i] == -1  # no table holds the empty mask here
    assert rows > 5_000


def test_empty_mask_is_refused():
    for simplices in ([0, 1], [0], [1, 2, 3, 0]):
        with pytest.raises(ContractError, match="empty set"):
            betti_mod2(simplices)
        with pytest.raises(ContractError, match="empty set"):
            euler_characteristic(simplices)
    table = FaceTable([0, 1, 2, 3])
    with pytest.raises(ContractError, match="empty set"):
        betti_mod2(table.faces())
    assert betti_mod2(table.faces([1, 2, 3])) == (1,)


@st.composite
def closed_face_sets(draw):
    """A closed simplex set of one of three kinds: the faces of a random free
    complex, those of the box complex of a graph with loops (not free), or
    the faces of some facets of a free complex, drawn from its whole table."""
    kind = draw(st.sampled_from(("free", "looped", "drawn")))
    if kind == "looped":
        k = build_box(draw(small_graph(5, True)))
    else:
        k = random_free_complex(draw(st.randoms(use_true_random=False)), max_shore=7)
    faces = k.simplices()
    if kind == "drawn":
        chosen = draw(st.lists(st.sampled_from(k.facets), min_size=1, unique=True))
        faces = faces.table.faces(s for s in faces if any(s & ~f == 0 for f in chosen))
    return faces


def test_betti_matches_the_eager_reference_and_the_dense_oracle():
    # columns built only on a taken pivot give the eager eliminator's ranks;
    # the examples must make the reference merge columns, or the lazily
    # built path would go untested
    merged = []

    @settings(derandomize=True, max_examples=250, deadline=None)
    @given(closed_face_sets())
    @example(build_box(clique(4)).simplices())
    @example(build_box(tensor_product(clique(3), cycle_graph(5))).simplices())
    def check(faces):
        assume(faces)
        betti, columns = betti_mod2_reference(faces)
        assert betti_mod2(faces) == betti == betti_oracle(faces)
        merged.extend(columns)

    check()
    assert any(xors >= 2 for xors, _ in merged)
    assert any(zero for _, zero in merged)
    assert any(not zero for _, zero in merged)


def test_betti_against_dense_oracle_on_random_complexes():
    # the table-driven elimination with clearing against numpy row reduction
    rng = random.Random(20240)
    for _ in range(220):
        faces = random_free_complex(rng, max_shore=7).simplices()
        assert betti_mod2(faces) == betti_oracle(faces)
        assert betti_mod2(set(faces)) == betti_oracle(faces)


def test_betti_against_dense_oracle_on_looped_box_complexes():
    # box complexes of graphs with loops are not free: a face may hold both
    # copies of a vertex
    rng = random.Random(31337)
    non_free = 0
    for _ in range(60):
        k = build_box(random_graph(rng, rng.randint(1, 6), rng.uniform(0.3, 0.9), 0.4))
        faces = k.simplices()
        if not faces:
            continue
        non_free += not k.free
        assert betti_mod2(faces) == betti_oracle(faces)
    assert non_free >= 20


def test_betti_of_a_subset_drawn_from_a_table():
    # a subcomplex read through the big table's ids and rows: the faces of
    # the first facet of B(K4) and their mirrors
    faces = build_box(clique(4)).simplices()
    f = max(faces)
    sub = faces.table.faces(s for s in faces if s & ~f == 0)
    assert len(sub) == 2 ** f.bit_count() - 1 and sub.table is faces.table
    assert betti_mod2(sub) == betti_oracle(set(sub)) == (1,)


def test_betti_budget_is_checked_before_boundary_work():
    faces = build_box(clique(4)).simplices()
    with pytest.raises(ResourceError, match="homology budget"):
        betti_mod2(faces, budget=len(faces) - 1)
    # a box complex's table comes with its pivots; the facet walk's leaves
    # them to be read on first use
    box = build_box(cycle_graph(5))
    fresh = Z2Complex(box.base, box.facets).simplices()
    with pytest.raises(ResourceError, match="homology budget"):
        betti_mod2(fresh, budget=len(fresh) - 1)
    assert fresh.table._pivots is None  # refused before any pivot was read
    assert betti_mod2(faces, budget=len(faces)) == (1, 0, 1)


def test_betti_refuses_sets_missing_a_face():
    with pytest.raises(ContractError, match="every face"):
        betti_mod2([0b11, 0b01])
    faces = build_box(clique(3)).simplices()
    edge = next(s for s in faces if s.bit_count() == 2)
    with pytest.raises(ContractError, match="every face"):
        betti_mod2(faces - {edge & -edge})


def test_faces_behave_as_a_set():
    faces = build_box(clique(3)).simplices()
    plain = set(faces)
    assert list(faces) == sorted(plain) and len(faces) == len(plain)
    some = {s for s in plain if s.bit_count() == 1}
    rest = faces - some
    assert isinstance(rest, Faces) and rest.table is faces.table
    assert rest == plain - some and plain - some == rest and rest != faces
    assert rest <= faces and not faces <= rest and rest <= plain
    assert set(rest) == plain - some and plain - rest == some
    assert all(s in faces for s in plain) and 0 not in faces and (1 << 40) not in faces
    assert faces - (faces - some) == Faces.of(some)
    assert hash(rest) == hash(frozenset(rest))
    # comparisons between sets of one table read the flags; between tables,
    # and against plain sets, the members: both agree with frozenset
    other = Faces.of(plain)
    assert other.table is not faces.table
    rng = random.Random(99)
    drawn = [faces, rest, faces - rest, Faces.of(set()), other, other - some]
    for _ in range(40):
        drawn.append(faces.table.faces(s for s in plain if rng.random() < 0.8))
        drawn.append(other.table.faces(s for s in plain if rng.random() < 0.8))
    for a, b in itertools.product(drawn, repeat=2):
        fa, fb = frozenset(a), frozenset(b)
        got = (a <= b, a < b, a >= b, a > b, a == b, a != b)
        assert got == (fa <= fb, fa < fb, fa >= fb, fa > fb, fa == fb, fa != fb)
        assert (a <= fb, a == fb, fa <= b, fa == b) == (fa <= fb, fa == fb, fa <= fb, fa == fb)
    # flags are read 8 KB at a time: a difference in the last chunk counts
    big = Faces.of(range(1, 20_001))
    most = big - {20_000}
    assert most <= big and most < big and not big <= most and most != big
    assert big - most == {20_000} and big.table.faces([5, 20_000]) - most == {20_000}
