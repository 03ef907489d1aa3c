import dataclasses
import functools
import gc
import hashlib
import random
import time
import tracemalloc
import weakref
from array import array
from operator import and_, or_

import pytest

from omegalab import morse
from omegalab.bitset import bits, union_of
from omegalab.boxcomplex import Faces, FaceTable, make_complex
from omegalab.errors import Budgets, ContractError, ResourceError
from omegalab.graphs import Graph, clique, common_neighborhood, cycle_graph, is_joined, petersen
from omegalab.homology import betti_mod2
from omegalab.morse import (
    MorseMatching,
    SaturationCollapse,
    ShortcutComplex,
    _check_toggle,
    _phase_partners,
    collapse,
    is_acyclic,
    pipeline,
    removal_phases,
    saturation_matching,
    shortcut_collapses,
)

from util import (
    acyclic_oracle,
    check_against_boundary_reference,
    collapse_by_masks,
    is_box_face,
    offense,
    offense_leads,
    offense_oracle,
    phase_partners_reference,
    random_collapse_matching,
    random_equivariant_matching,
    random_free_complex,
    random_graph,
    saturation_facet_reference,
)


def two_shore_edge_complex():
    # two disjoint mirrored edges: {0w,1b} and {1w,0b}
    return make_complex((0, 1), [0b1001, 0b0110])


def test_single_free_pair_is_acyclic():
    m = MorseMatching(((0b0001, 0b1001), (0b0100, 0b0110)))
    assert is_acyclic(m)
    assert acyclic_oracle(m)


def test_containment_cycle_is_detected():
    # a three-pair cycle: vertices of a triangle matched to the "next" edge.
    # (two pairs cannot form the forbidden pattern: both cofacets would have
    # to equal the union of the two faces, breaking injectivity.)
    a, b, c = 1 << 0, 1 << 1, 1 << 2
    m = MorseMatching(((a, a | b), (b, b | c), (c, c | a)))
    assert not is_acyclic(m)
    assert not acyclic_oracle(m)


def test_collapse_full_simplex_pair():
    k = two_shore_edge_complex()
    simplices = set(k.simplices())
    sub = {0b0001, 0b0100}  # one endpoint per mirror orbit
    matching = MorseMatching(((0b1000, 0b1001), (0b0010, 0b0110)))
    cert = collapse(k, simplices, sub, matching)
    assert cert.remaining == frozenset(sub)
    assert len(cert.steps) == 2


def test_collapse_refuses_cyclic_matching():
    # mirrored triangle boundary: vertices and edges of {0w,1w,2w} plus mirrors
    facets = [0b000011, 0b000110, 0b000101]
    k = make_complex((0, 1, 2), facets)
    simplices = set(k.simplices())
    a, b, c = 1, 2, 4
    pairs = [(a, a | b), (b, b | c), (c, c | a)]
    mirrored = [(k.mirror(x), k.mirror(y)) for x, y in pairs]
    matching = MorseMatching(tuple(pairs + mirrored))
    with pytest.raises(ContractError):
        collapse(k, simplices, simplices - matching.matched(), matching)


def test_collapse_refuses_non_equivariant_matching():
    # the pairs cover everything outside sub and are acyclic, but the mirror
    # of the first pair is not a pair: collapse used to remove it on trust
    k = make_complex((0, 1, 2), [0b010101, 0b101010])
    pairs = (
        (0b000101, 0b010101),
        (0b001010, 0b101010),
        (0b000001, 0b010001),
        (0b001000, 0b101000),
    )
    matching = MorseMatching(pairs)
    simplices = set(k.simplices())
    with pytest.raises(ContractError, match="equivariant"):
        collapse(k, simplices, simplices - matching.matched(), matching)


def test_collapse_refuses_non_elementary_mirror_step():
    # white triangle boundary and its mirror, without the black edge {1b, 2b}:
    # {2b} is a free face of {0b, 2b}, but its mirror {2w} also lies in {1w, 2w}.
    # Such a face set is not closed under the swap, and is refused before any
    # step, by the reference on masks too
    k = make_complex((0, 1, 2), [0b000111, 0b111000])
    simplices = {s for s in k.simplices() if s.bit_count() < 3} - {0b110000}
    matching = MorseMatching(((0b000100, 0b000101), (0b100000, 0b101000)))
    sub = simplices - matching.matched()
    message = "simplices are not closed under the shore swap"
    with pytest.raises(ContractError) as err:
        collapse(k, simplices, sub, matching)
    assert str(err.value) == message == collapse_by_masks(k, simplices, sub, matching)


def test_saturation_matching_on_k3():
    sc = ShortcutComplex(clique(3), 1)
    matching, sub = saturation_matching(sc)
    assert is_acyclic(matching)
    # simplices inside the saturated image are unmatched
    assert not (matching.matched() & sub)
    cert = collapse(sc.box, set(sc.simplices), sub, matching)
    assert cert.remaining == frozenset(sub)
    assert betti_mod2(sc.simplices) == betti_mod2(sub)


def test_saturation_matching_is_involution_on_c5():
    sc = ShortcutComplex(cycle_graph(5), 1)
    matching, _ = saturation_matching(sc)
    partner = matching.partner()
    for s, t in matching.pairs:
        assert partner[t] == s and partner[s] == t
        assert partner[sc.box.mirror(s)] == sc.box.mirror(t)
    assert is_acyclic(matching) and acyclic_oracle(matching)


def test_classifier_matches_membership_bruteforce(named_complex):
    # a simplex lies outside the unmodified box complex exactly when it has
    # a cross-shore or a same-shore offense
    for name in ("K3", "K4"):
        sc = named_complex(name, 1)
        plain = sc.plain_box_simplices()
        for s in sc.simplices:
            found = offense(sc, s)
            assert found == offense_oracle(sc, s)
            assert (found is not None) == (s not in plain)


def test_plain_box_faces_are_built_once(named_complex):
    sc = named_complex("K3", 1)
    assert sc.plain_box_simplices() is sc.plain_box_simplices()
    assert sc.plain_box_simplices().table is not sc.simplices.table


def test_same_shore_only_offense_exists_in_k4(named_complex):
    # offending pairs on one shore with valid cross joins
    sc = named_complex("K4", 1)
    plain = sc.plain_box_simplices()
    assert any(
        s not in plain
        and offense(sc, s)[0] in (1, 2)
        and offense_oracle(sc, s)[0] in (1, 2)
        and next(offense_leads(sc, s, same_shore=False), None) is None
        for s in sc.simplices
    )


def test_removal_phases_refuse_a_complex_that_is_not_free():
    # the scan reads each mirror pair once, which needs a free complex
    sc = ShortcutComplex(clique(3), 1)
    f = sc.box.facets[0]
    sc.box = dataclasses.replace(sc.box, facets=[*sc.box.facets, f | sc.box.mirror(f & -f)])
    assert not sc.box.free
    with pytest.raises(ContractError, match="need a free complex"):
        removal_phases(sc)


def test_plain_box_is_the_box_complex_of_omega_in_shared_layout():
    # the complex build_box makes for omega, read in the shortcut complex's
    # token names, holds exactly the shortcut simplices that are faces of
    # B(omega) by definition
    rng = random.Random(5150)
    budgets = Budgets(vertex_budget=100, simplex_budget=5000)
    built = strict = 0
    for _ in range(60):
        g = random_graph(rng, rng.randint(2, 6), rng.uniform(0.3, 0.8))
        try:
            sc = ShortcutComplex(g, rng.choice((1, 2)), budgets)
        except ResourceError:
            continue
        faces = {s for s in sc.simplices if is_box_face(sc.omega.graph, sc.box, s)}
        assert sc.plain_box_simplices() == faces
        built += 1
        strict += faces != sc.simplices
    assert built >= 30 and strict > 0


def test_removal_phases_reach_plain_box():
    for g in (clique(3), cycle_graph(5)):
        sc = ShortcutComplex(g, 1)
        current = set(sc.simplices)
        for matching, domain in removal_phases(sc):
            assert is_acyclic(matching)
            partner = matching.partner()
            for s, t in matching.pairs:
                assert partner[sc.box.mirror(s)] == sc.box.mirror(t)
            cert = collapse(sc.box, current, current - domain, matching)
            current -= domain
            assert cert.remaining == frozenset(current)
        assert current == sc.plain_box_simplices()


def test_pipeline_reports():
    rep = pipeline(clique(3), 1)
    assert rep["betti"]["plain"] == [1, 1]
    assert rep["betti_agree"]
    rep = pipeline(clique(2), 1)
    assert rep["betti"]["plain"] == [2]
    rep = pipeline(clique(4), 1)
    assert rep["betti"]["plain"] == [1, 0, 1]


def test_collapse_rejects_partial_coverage():
    k = two_shore_edge_complex()
    simplices = set(k.simplices())
    matching = MorseMatching(((0b1000, 0b1001),))  # mirror pair missing
    with pytest.raises(ContractError):
        collapse(k, simplices, {0b0001, 0b0100}, matching)


def test_collapse_rejects_non_cofacet_pairs():
    k = two_shore_edge_complex()
    simplices = set(k.simplices())
    matching = MorseMatching(((0b0001, 0b0110),))  # not a face of the cofacet
    with pytest.raises(ContractError):
        collapse(k, simplices, simplices - matching.matched(), matching)


def test_engine_against_random_collapses():
    rng = random.Random(424242)
    for _ in range(40):
        k = random_free_complex(rng, max_shore=6)
        matching, sub = random_collapse_matching(rng, k)
        assert is_acyclic(matching)
        cert = collapse(k, set(k.simplices()), sub, matching)
        assert cert.remaining == frozenset(sub)
        assert betti_mod2(k.simplices()) == betti_mod2(sub)


def test_is_acyclic_agrees_with_oracle_on_random_matchings():
    rng = random.Random(7777)
    cyclic_seen = acyclic_seen = 0
    for _ in range(60):
        k = random_free_complex(rng, max_shore=5)
        matching = random_equivariant_matching(rng, k)
        if len(matching.pairs) > 12:
            matching = MorseMatching(matching.pairs[:12])
        got = is_acyclic(matching)
        assert got == acyclic_oracle(matching)
        if got:
            acyclic_seen += 1
        else:
            cyclic_seen += 1
    assert acyclic_seen > 0 and cyclic_seen > 0


def test_collapse_refuses_cyclic_random_matchings_in_its_heap_loop():
    # the target is the unmatched part and the pairs come in mirror pairs, so
    # the preflight checks pass and only the heap loop stands between a cyclic
    # matching and a completed collapse.  An acyclic matching may still stick
    # here, since its unmatched part need not be a subcomplex; the converse,
    # that acyclic matchings onto a subcomplex complete, is
    # test_engine_against_random_collapses.
    rng = random.Random(6006)
    cyclic = completed = 0
    for _ in range(300):
        k = random_free_complex(rng, max_shore=5)
        matching = MorseMatching(random_equivariant_matching(rng, k).pairs[:12])
        simplices = set(k.simplices())
        sub = simplices - matching.matched()
        if not acyclic_oracle(matching):
            cyclic += 1
            with pytest.raises(ContractError, match="collapse stuck"):
                collapse(k, simplices, sub, matching)
            continue
        try:
            collapse(k, simplices, sub, matching)
        except ContractError as err:
            assert str(err).startswith("collapse stuck")
            continue
        completed += 1
    assert cyclic > 0 and completed > 0


def _pairs_by_lesser_id(partner):
    """The id pairs of a partner array, each at its lesser id, ascending."""
    return [(i, j) for i, j in enumerate(partner) if i < j]


def _toggle_mask_pairs(toggle, faces=(1, 2, 3, 6)):
    """``_check_toggle`` over a table of ``faces``, on masks: the toggle of
    each key is its value, a value outside the table has id -1.  Returns
    the pairs read back from the partner array."""
    table = FaceTable(faces)
    flags, partner = bytearray(len(table.masks)), array("i", [-1]) * len(table.masks)
    for s, t in toggle.items():
        flags[table.index[s]] = 1
        partner[table.index[s]] = table.index.get(t, -1)
    domain = _check_toggle(table, flags, partner)
    assert set(domain) == set(toggle)
    return [(table.masks[a], table.masks[b]) for a, b in _pairs_by_lesser_id(partner)]


def test_toggle_matching_refuses_non_involutions():
    with pytest.raises(ContractError, match="involution"):
        _toggle_mask_pairs({1: 3, 3: 2, 2: 6, 6: 2})
    with pytest.raises(ContractError, match="involution"):
        _toggle_mask_pairs({1: 1})
    with pytest.raises(ContractError, match="left the shortcut complex"):
        _toggle_mask_pairs({2: 6, 6: 2, 3: 7})
    assert _toggle_mask_pairs({1: 3, 3: 1}) == [(1, 3)]
    # pairs by lesser id, face first
    assert _toggle_mask_pairs({6: 2, 2: 6, 1: 3, 3: 1}) == [(1, 3), (2, 6)]


def _seeded_shortcut_complexes():
    """The shortcut complexes of 250 seeded random graphs that fit the budgets."""
    rng = random.Random(2024)
    budgets = Budgets(vertex_budget=200, simplex_budget=5000)
    for _ in range(250):
        g = random_graph(rng, rng.randint(1, 7), rng.uniform(0.2, 0.9))
        try:
            yield ShortcutComplex(g, rng.choice((1, 2)), budgets)
        except ResourceError:
            continue


# The tests below share their complexes through these module-scoped fixtures;
# none of them leaves a complex it is given changed (the test that points
# partners elsewhere restores each one).


@pytest.fixture(scope="module")
def seeded_complexes():
    return list(_seeded_shortcut_complexes())


@pytest.fixture(scope="module")
def named_complex():
    """``ShortcutComplex(GRAPHS[name], k)``, built once per (name, k)."""
    return functools.cache(lambda name, k: ShortcutComplex(GRAPHS[name], k))


def test_offense_matches_the_oracle_on_every_face(seeded_complexes, named_complex):
    # one offense scan gives the phase, lead and shore of the definition, and
    # no offense exactly on the unmodified box complex
    checked = 0
    phases = set()
    named = [named_complex("K4", 1), named_complex("Petersen", 1)]
    for sc in [*seeded_complexes, *named]:
        faces = list(sc.simplices)
        offenses = [offense(sc, s) for s in faces]
        assert offenses == [offense_oracle(sc, s) for s in faces]
        assert {s for s, o in zip(faces, offenses) if o is None} == sc.plain_box_simplices()
        phases.update(o and o[0] for o in offenses)
        checked += 1
    assert checked >= 150 and phases == {None, 1, 2, 3}


def test_offender_rows_match_a_pairwise_recomputation(seeded_complexes):
    # row q holds the positions p whose tail fails to join tail(q), or
    # subtail(q); the capped tail's memos read the common neighborhoods
    for sc in seeded_complexes:
        h = sc.box.h
        for q in range(h):
            for rows, offenders in (
                (sc.tail, sc.tail_offenders),
                (sc.subtail, sc.subtail_offenders),
            ):
                offending = [p for p in range(h) if not is_joined(sc.g, sc.tail[p], rows[q])]
                assert offenders[q] == sum(1 << p for p in offending)
            assert sc.cn_tail[q] == common_neighborhood(sc.g, sc.tail[q])
            assert sc.cn_subtail[q] == common_neighborhood(sc.g, sc.subtail[q])


def test_shore_folds_match_their_unions_and_intersections(seeded_complexes, named_complex):
    # the two folds over shore-set ids, read as the offense scan and the
    # capped tail read them, at every shore set and at the empty shore: the
    # union of the subtail offender rows, and the AND of the subtails'
    # common neighborhoods from all vertices
    checked = 0
    for sc in [*seeded_complexes, named_complex("Petersen", 1)]:
        table, everything = sc.simplices.table, sc.g.vertex_mask()
        same = morse._shore_fold(sc, sc.subtail_offenders, or_, 0)
        capped = morse._shore_fold(sc, sc.cn_subtail, and_, everything)
        shore_sets = [m for m in table.masks if not m >> sc.box.h]
        assert len(same) == len(capped) == len(shore_sets) + 1
        for x in [*shore_sets, 0]:
            i = table.index.get(x, -1)
            assert same[i] == union_of(sc.subtail_offenders, x)
            assert capped[i] == functools.reduce(and_, (sc.cn_subtail[p] for p in bits(x)), everything)
        checked += 1
    assert checked >= 150


def test_shortcut_collapses_on_random_graphs(seeded_complexes):
    built = 0
    for sc in seeded_complexes:
        shortcut_collapses(sc)
        built += 1
    assert built >= 150


def test_phase_scan_matches_the_per_face_reference(seeded_complexes, named_complex):
    # the scan over folded memos gives the domains and partner ids of one
    # offense call and one directly taken capped tail per face; the pairs
    # are a function of the partner ids
    checked = 0
    named = [named_complex("K4", 1), named_complex("Petersen", 1)]
    for sc in [*seeded_complexes, *named]:
        got, expect = _phase_partners(sc), phase_partners_reference(sc)
        assert len(got) == len(expect) == 3
        for (domain, partner), (domain_ref, partner_ref) in zip(got, expect):
            assert domain.table is domain_ref.table and domain.flags == domain_ref.flags
            assert partner == partner_ref
        checked += 1
    assert checked >= 150


def test_phase_scan_matches_the_reference_on_relabelled_graphs(named_complex):
    # the scan reads shore-set ids by cube offset; a relabelled base graph
    # lays its cubes out differently, as the benchmark's relabelled inputs do
    # (a relabelled clique is the same graph, and so the same layout)
    rng = random.Random(1729)
    for name, k in (("Petersen", 1), ("Petersen", 1), ("K4", 1), ("K4", 3)):
        g = GRAPHS[name]
        perm = list(range(g.n))
        rng.shuffle(perm)
        sc = ShortcutComplex(Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()]), k)
        got, expect = _phase_partners(sc), phase_partners_reference(sc)
        for (domain, partner), (domain_ref, partner_ref) in zip(got, expect, strict=True):
            assert domain.flags == domain_ref.flags and partner == partner_ref
        if name == "Petersen":
            assert sc.simplices.table.starts != named_complex(name, k).simplices.table.starts


def test_carried_phases_match_collapses_from_scratch(seeded_complexes, named_complex):
    # each phase, run on the state the last one left, gives the certificate
    # of a collapse on masks started afresh from that phase's faces
    checked = 0
    named = [named_complex("K4", 1), named_complex("Petersen", 1)]
    for sc in [*seeded_complexes, *named]:
        _, phases = shortcut_collapses(sc)
        current = set(sc.simplices)
        recipes = removal_phases(sc)
        assert len(phases) == len(recipes) == 3
        for cert, (matching, domain) in zip(phases, recipes):
            target = current - domain
            steps, remaining = collapse_by_masks(sc.box, current, target, matching)
            assert list(cert.steps) == steps and cert.remaining == remaining == target
            current = target
        checked += 1
    assert checked >= 150


def _spoil_phase_2(sc, recipes, kind, rng):
    """The recipes with phase 2 spoiled: two pairs swap their cofacets
    (kind 0), one pair is dropped (1), or one pair and its mirror pair are
    dropped (2).  Returns the spoiled recipes and phase 2's spoiled pairs
    as masks, read back from its partner array by lesser id."""
    table = sc.simplices.table
    domain, partner = recipes[1]
    pairs, partner = _pairs_by_lesser_id(partner), array("i", partner)
    if kind == 0:
        j, k = rng.sample(range(len(pairs)), 2)
        (a, b), (c, d) = pairs[j], pairs[k]
        partner[a], partner[d], partner[c], partner[b] = d, a, b, c
    else:
        a, b = pairs[rng.randrange(len(pairs))]
        mirror = table.mirrors(sc.box.h)
        for x, y in [(a, b), (mirror[a], mirror[b])][:kind]:
            partner[x] = partner[y] = -1
    spoiled = [recipes[0], (domain, partner), recipes[2]]
    pairs = _pairs_by_lesser_id(partner)
    return spoiled, MorseMatching(tuple((table.masks[a], table.masks[b]) for a, b in pairs))


def test_a_spoiled_phase_2_fails_as_a_collapse_from_scratch(seeded_complexes, monkeypatch):
    # on the state phase 1 left, a spoiled phase 2 raises the first error a
    # collapse of that phase on masks, started afresh, raises
    rng = random.Random(31337)
    messages, spoiled_count = set(), 0
    for sc in seeded_complexes:
        recipes = _phase_partners(sc)
        if len(_pairs_by_lesser_id(recipes[1][1])) < 2:
            continue
        first = set(sc.simplices) - recipes[0][0]
        target = first - recipes[1][0]
        spoiled, matching = _spoil_phase_2(sc, recipes, spoiled_count % 3, rng)
        expect = collapse_by_masks(sc.box, first, target, matching)
        assert isinstance(expect, str)
        monkeypatch.setattr(morse, "_phase_partners", lambda sc, spoiled=spoiled: spoiled)
        with pytest.raises(ContractError) as err:
            shortcut_collapses(sc)
        monkeypatch.undo()
        assert str(err.value).split(";")[0] == expect
        messages.add(expect)
        spoiled_count += 1
    assert spoiled_count >= 30 and messages == {
        "matching pair is not a face/cofacet pair",
        "matching is not equivariant",
        "matching does not cover the simplices outside the subcomplex",
    }


def _spoil_a_greater_pair(table, partner, mirror, target, kind, rng):
    """Spoil only greater pairs, those whose face is the greater id of its
    mirror pair: two of them swap their cofacets (kind 0); one is dropped,
    so the face of its mirror pair is a lower id whose mirror is not one
    (1); one's face is matched down to an unmatched face x of it, a lower
    id whose mirror is not one, and its cofacet is left over (2); one's
    face is left in the target (3); or a face x of the target, with its
    mirror below it, is matched to a cofacet of it in the target and both
    leave the target, so x is a lower id whose mirror, left in the target,
    is not one (4).  ``target`` holds the target's ids.  Returns the
    partner array and the sets of masks moved into the target and out of
    it, or None when there is no such pair."""
    greater = [(a, b) for a, b in _pairs_by_lesser_id(partner) if mirror[a] < a]
    partner, kept, freed = array("i", partner), set(), set()
    if kind == 0 and len(greater) >= 2:
        (a, b), (c, d) = rng.sample(greater, 2)
        partner[a], partner[d], partner[c], partner[b] = d, a, b, c
    elif kind == 1 and greater:
        a, b = rng.choice(greater)
        partner[a] = partner[b] = -1
    elif kind == 2 and (downs := [
        (a, b, x)
        for a, b in greater
        for t in bits(table.masks[a])
        if (x := table.index.get(table.masks[a] ^ 1 << t, -1)) >= 0 and partner[x] < 0
        and partner[mirror[x]] < 0
    ]):
        a, b, x = rng.choice(downs)
        partner[x], partner[a], partner[b] = a, x, -1
    elif kind == 3 and greater:
        kept.add(table.masks[rng.choice(greater)[0]])
    elif kind == 4 and (ups := [
        (x, y)
        for y in sorted(target)
        for t in bits(table.masks[y])
        if (x := table.index.get(table.masks[y] ^ 1 << t, -1)) in target and mirror[x] < x
    ]):
        x, y = rng.choice(ups)
        partner[x], partner[y] = y, x
        freed |= {table.masks[x], table.masks[y]}
    else:
        return None
    return partner, kept, freed


def test_a_spoiled_greater_pair_raises_the_first_error_of_the_mask_reference(
    seeded_complexes, monkeypatch
):
    # each mirror pair of matched pairs is checked once, at its lesser face;
    # spoiling only the other pair must still raise the error a check of
    # every pair by ascending face raises, in phase 1 through
    # shortcut_collapses and in a plain collapse call
    rng = random.Random(4141)
    messages = {"phase 1": set(), "collapse": set()}
    spoiled_count = 0
    for sc in seeded_complexes:
        table, mirror = sc.simplices.table, sc.simplices.table.mirrors(sc.box.h)
        recipes = _phase_partners(sc)
        target = set((sc.simplices - recipes[0][0]).ids())
        spoil = _spoil_a_greater_pair(table, recipes[0][1], mirror, target, spoiled_count % 5, rng)
        if spoil is None:
            continue
        partner, kept, freed = spoil
        domain = recipes[0][0] - kept | freed
        pairs = [(table.masks[a], table.masks[b]) for a, b in _pairs_by_lesser_id(partner)]
        faces = set(sc.simplices)
        expect = collapse_by_masks(sc.box, faces, faces - domain, MorseMatching(tuple(pairs)))
        assert isinstance(expect, str)
        spoiled = [(domain, partner), *recipes[1:]]
        monkeypatch.setattr(morse, "_phase_partners", lambda sc, spoiled=spoiled: spoiled)
        with pytest.raises(ContractError) as err:
            shortcut_collapses(sc)
        monkeypatch.undo()
        assert str(err.value).split(";")[0] == expect
        messages["phase 1"].add(expect)
        spoiled_count += 1
    for trial in range(300):
        k = random_free_complex(rng, max_shore=6)
        matching, sub = random_collapse_matching(rng, k)
        faces = Faces.of(set(k.simplices()))
        table, mirror = faces.table, faces.table.mirrors(k.h)
        partner = array("i", [-1]) * len(table.masks)
        for s, t in matching.pairs:
            partner[table.index[s]], partner[table.index[t]] = table.index[t], table.index[s]
        target = {table.index[s] for s in sub}
        if (spoil := _spoil_a_greater_pair(table, partner, mirror, target, trial % 5, rng)) is None:
            continue
        partner, kept, freed = spoil
        pairs = [(table.masks[a], table.masks[b]) for a, b in _pairs_by_lesser_id(partner)]
        matching = MorseMatching(tuple(pairs))
        expect = collapse_by_masks(k, faces, (sub | kept) - freed, matching)
        assert isinstance(expect, str)
        assert _outcome(k, faces, (sub | kept) - freed, matching) == expect
        messages["collapse"].add(expect)
    assert spoiled_count >= 30
    for found in messages.values():
        assert {m.split(":")[0] for m in found} >= {
            "matching is not equivariant",
            "matching touches the protected subcomplex",
        }


def test_facet_certificate_matches_the_face_level_collapse(seeded_complexes, named_complex):
    # Lemma 5.2 certified on facets leaves the faces the face-level collapse
    # of the saturation matching leaves, in as many steps
    checked = unsaturated = 0
    named = [named_complex("K4", 1), named_complex("Petersen", 1)]
    for sc in [*seeded_complexes, *named]:
        saturation = SaturationCollapse(sc)
        matching, sub = saturation_matching(sc)
        cert = collapse(sc.box, sc.simplices, sub, matching)
        assert saturation.remaining == cert.remaining == sub
        assert saturation.step_count == len(cert.steps) == len(matching.pairs)
        assert saturation.steps == cert.steps
        checked += 1
        unsaturated += saturation.step_count > 0
    assert checked >= 150 and unsaturated >= 60


def test_facet_certificate_refuses_a_wrong_partner():
    sc = ShortcutComplex(clique(3), 1)
    p = next(bits(sc.box.white & ~sc.saturated_pos))
    right = sc.sat_token[p]
    # the partner must be another position, and a saturated one
    for wrong in (p, next(q for q in bits(sc.box.white & ~sc.saturated_pos) if q != p)):
        sc.sat_token[p] = wrong
        with pytest.raises(ContractError, match="no saturated partner"):
            shortcut_collapses(sc)
    # and it must dominate p: a facet holding p holds the partner on p's shore
    undominating = [
        q for q in bits(sc.saturated_pos)
        if any(f >> p & 1 and not f >> q & 1 for f in sc.box.facets)
    ]
    assert undominating
    for wrong in undominating:
        sc.sat_token[p] = wrong
        with pytest.raises(ContractError, match=f"position {p} is not dominated by"):
            shortcut_collapses(sc)
    sc.sat_token[p] = right
    saturation, _ = shortcut_collapses(sc)
    matching, sub = saturation_matching(sc)
    assert saturation.steps == collapse(sc.box, sc.simplices, sub, matching).steps


def test_domination_certificate_refuses_what_the_facet_scan_refuses(
    seeded_complexes, named_complex
):
    # every unsaturated position p's partner pointed at every other position
    # in turn, its own partner included: the graph check refuses exactly the
    # partners the facet scan refuses, with the same message where no
    # saturated partner is named; each partner is restored, so the shared
    # complexes stay as given
    refused = accepted = 0
    for sc in [*seeded_complexes, named_complex("K4", 1)]:
        for p in bits(sc.box.white & ~sc.saturated_pos):
            right = sc.sat_token[p]
            try:
                for q in range(sc.box.h):
                    if q == p:
                        continue
                    sc.sat_token[p] = q
                    expect = saturation_facet_reference(sc)
                    try:
                        SaturationCollapse(sc)
                    except ContractError as e:
                        assert expect is not None, (p, q)
                        if "no saturated partner" in expect:
                            assert str(e) == expect
                        else:
                            assert str(e) == f"position {p} is not dominated by its saturated partner {q}"
                        refused += 1
                    else:
                        assert expect is None, (p, q)
                        accepted += 1
            finally:
                sc.sat_token[p] = right
    assert refused >= 10_000 and accepted >= 500


def test_shortcut_collapses_leave_no_reference_cycle():
    # the face table a complex holds must not refer back to the complex:
    # with a cycle, every pipeline's faces wait for the cyclic collector,
    # and repeated pipelines grew peak RSS round after round
    sc = ShortcutComplex(clique(3), 1)
    saturation, phases = shortcut_collapses(sc)
    assert saturation.steps
    box = weakref.ref(sc.box)
    gc.disable()
    try:
        del sc, saturation, phases
        assert box() is None
    finally:
        gc.enable()


def test_a_facet_over_the_budget_stops_the_shortcut_complex_at_once():
    # the largest facet of K5's shortcut complex at k = 1 has 33 tokens
    start = time.perf_counter()
    with pytest.raises(ResourceError, match="simplex budget 1000000 exceeded"):
        ShortcutComplex(clique(5), 1, Budgets(simplex_budget=10**6))
    assert time.perf_counter() - start < 2.0


def test_the_face_count_stops_the_groetzsch_shortcut_complex_at_once():
    # no facet of the Grötzsch graph's shortcut complex at k = 2 is over the
    # default budget alone; listing its faces up to the budget took 12.8 s
    # and 1.2 GB, and counting them stops before any is made
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, (i + d) % 5) for i in range(5) for d in (1, 4)]
    edges += [(10, 5 + i) for i in range(5)]
    start = time.perf_counter()
    with pytest.raises(ResourceError, match="simplex budget 10000000 exceeded"):
        ShortcutComplex(Graph.from_edges(11, edges), 2)
    assert time.perf_counter() - start < 2.0


# full pipeline reports, pinned so that a change to the collapse or homology
# engines that moves the heap order or any count shows up here
PIPELINE_REPORTS = {
    ("K4", 1): {
        "base": {"n": 4, "m": 6},
        "half_index": 1,
        "adjoint_vertices": 28,
        "simplices": 69182,
        "collapse_steps": {"saturation": 34552, "phases": [31008, 2320, 648]},
        "betti": {
            "shortcut": [1, 0, 1],
            "plain": [1, 0, 1],
            "saturated_image": [1, 0, 1],
            "lower_index": [1, 0, 1],
        },
        "betti_agree": True,
    },
    ("K4", 3): {
        "base": {"n": 4, "m": 6},
        "half_index": 3,
        "adjoint_vertices": 604,
        "simplices": 38814,
        "collapse_steps": {"saturation": 17640, "phases": [8352, 5952, 1608]},
        "betti": {
            "shortcut": [1, 0, 1],
            "plain": [1, 0, 1],
            "saturated_image": [1, 0, 1],
            "lower_index": [1, 0, 1],
        },
        "betti_agree": True,
    },
    ("C7", 3): {
        "base": {"n": 7, "m": 7},
        "half_index": 3,
        "adjoint_vertices": 119,
        "simplices": 560,
        "collapse_steps": {"saturation": 140, "phases": [0, 56, 28]},
        "betti": {
            "shortcut": [1, 1],
            "plain": [1, 1],
            "saturated_image": [1, 1],
            "lower_index": [1, 1],
        },
        "betti_agree": True,
    },
    # phase 2 needs the other shore's unsaturated tails in its capped tail:
    # without them, or with a capped tail memoised by its own shore alone,
    # a toggle leaves the shortcut complex
    ("G7", 1): {
        "base": {"n": 7, "m": 7},
        "half_index": 1,
        "adjoint_vertices": 31,
        "simplices": 18510,
        "collapse_steps": {"saturation": 9208, "phases": [5376, 476, 1128]},
        "betti": {"shortcut": [2], "plain": [2], "saturated_image": [2], "lower_index": [2]},
        "betti_agree": True,
    },
    # the ladder's largest rung
    ("Petersen", 1): {
        "base": {"n": 10, "m": 15},
        "half_index": 1,
        "adjoint_vertices": 70,
        "simplices": 166250,
        "collapse_steps": {"saturation": 83020, "phases": [79920, 1480, 780]},
        "betti": {
            "shortcut": [1, 11],
            "plain": [1, 11],
            "saturated_image": [1, 11],
            "lower_index": [1, 11],
        },
        "betti_agree": True,
    },
}

G7 = Graph.from_edges(7, [(0, 1), (0, 4), (0, 5), (0, 6), (2, 4), (2, 5), (3, 4)])

GRAPHS = {
    "K3": clique(3),
    "K4": clique(4),
    "C5": cycle_graph(5),
    "C7": cycle_graph(7),
    "G7": G7,
    "Petersen": petersen(),
}


def test_betti_of_the_petersen_table_builds_few_columns(named_complex):
    # the pivots, closedness and pair rows of the Petersen table agree with
    # the reference boundary; a column is built only when its pivot is taken:
    # 102 XORs among 83,130 pivots here, about 4 MB of traced peak against
    # 28 MB for eager columns
    sc = named_complex("Petersen", 1)
    check_against_boundary_reference(sc.simplices, sc.box.h)
    assert sc.simplices.table.closed  # made closed: betti_mod2 skips the scan
    tracemalloc.start()
    try:
        betti = betti_mod2(sc.simplices)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert betti == (1, 11)
    assert peak < 10_000_000


def test_petersen_collapses_stay_within_their_memory(named_complex):
    # the collapses run on mirror pairs, with rows only for matched faces,
    # steps kept as ids and every matching's lower ids in one byte per face;
    # the scan folds its shore sets into lists by id, and a face set's `-`
    # reads its flags 8 KB at a time: about 8.2 MB of traced peak here,
    # against 8.6 MB with whole-table ints for `-`, 9.3 MB with folded memos
    # and 16 MB for full boundaries and mask-pair steps
    sc = named_complex("Petersen", 1)
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        saturation, phases = shortcut_collapses(sc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [cert.step_count for cert in phases] == [79920, 1480, 780]
    assert saturation.step_count == 83020
    assert peak - start <= 10_000_000


@pytest.mark.parametrize("name,k", list(PIPELINE_REPORTS), ids=lambda x: str(x))
def test_pipeline_reports_are_pinned(name, k):
    assert pipeline(GRAPHS[name], k) == PIPELINE_REPORTS[name, k]


# SHA-256 prefixes of each removal phase's sorted pairs and sorted domain, in
# collapse order, recorded before the phases moved onto face-table ids
REMOVAL_PHASES_SHA256 = {
    ("K4", 1): "314a1d9e4ba2c750",
    ("K4", 2): "600afe6d18258bb0",
    ("K4", 3): "22466cd4582f20ac",
    ("C5", 2): "afa3e06f2c5495d8",
    ("C7", 3): "0a840b9e45bb562e",
    ("Petersen", 1): "2548ba5b91d1fee8",
    ("G7", 1): "d7ce0959045ad771",
}


@pytest.mark.parametrize("name,k", list(REMOVAL_PHASES_SHA256), ids=lambda x: str(x))
def test_removal_phases_are_pinned(name, k, named_complex):
    digest = hashlib.sha256()
    sc = named_complex(name, k)
    for matching, domain in removal_phases(sc):
        assert list(matching.pairs) == sorted(matching.pairs)  # read back by ascending face
        digest.update(repr(sorted(matching.pairs)).encode())
        digest.update(repr(sorted(domain)).encode())
    assert digest.hexdigest()[:16] == REMOVAL_PHASES_SHA256[name, k]
    matching, _ = saturation_matching(sc)
    assert list(matching.pairs) == sorted(matching.pairs)


def _outcome(k, simplices, sub, matching):
    try:
        cert = collapse(k, simplices, sub, matching)
    except ContractError as err:
        return str(err).split(";")[0]
    return list(cert.steps), set(cert.remaining)


def test_collapse_on_ids_matches_the_mask_reference():
    # the same steps in the same order, or the same refusal, as the dict-and-
    # set collapse on masks, through a table and through plain sets alike;
    # eight cases in ten are spoiled, each in its own way
    rng = random.Random(8128)
    outcomes = set()
    for trial in range(500):
        k = random_free_complex(rng, max_shore=6)
        faces = set(k.simplices())
        if trial % 2:
            matching, sub = random_collapse_matching(rng, k)
        else:
            matching = MorseMatching(random_equivariant_matching(rng, k).pairs[:14])
            sub = faces - matching.matched()
        pairs = list(matching.pairs)
        spoil = trial // 2 % 10
        if pairs and spoil == 0:  # a simplex in two pairs
            pairs.append(pairs[rng.randrange(len(pairs))])
        elif pairs and spoil == 1:  # the first pair given cofacet first
            pairs[0] = pairs[0][::-1]
        elif pairs and spoil == 2:  # a pair without its mirror
            pairs.pop(rng.randrange(len(pairs)))
        elif pairs and spoil == 4:  # the target grows into the matching
            sub = sub | {pairs[rng.randrange(len(pairs))][1]}
        elif sub and spoil == 5:  # the target leaves a simplex unmatched
            sub = sub - {min(sub)}
        elif spoil in (6, 7):  # a pair outside the complex, at 7 twice over
            top = 1 << (2 * k.h + 3)
            pairs += [(top, top | 1)] * (spoil - 5)
        elif sub and spoil == 8:  # one side of the target loses a top simplex
            top = max(sub, key=lambda s: (s.bit_count(), s))
            faces.discard(top)
            sub = sub - {top}
        matching = MorseMatching(tuple(pairs))
        expect = collapse_by_masks(k, faces, sub, matching)
        drawn = Faces.of(faces)
        assert _outcome(k, drawn, sub, matching) == expect
        assert _outcome(k, faces, set(sub), matching) == expect
        if sub <= faces:  # else the drawn target would lose its outside members
            assert _outcome(k, drawn, drawn.table.faces(sub), matching) == expect
        outcomes.add(expect if isinstance(expect, str) else "completed")
    assert {o.split(":")[0] for o in outcomes} == {
        "completed",
        "collapse stuck",
        "a simplex appears in two matching pairs",
        "matching pair is not a face/cofacet pair",
        "matching is not equivariant",
        "matching touches the protected subcomplex",
        "matching pair uses unknown simplices",
        "matching does not cover the simplices outside the subcomplex",
        "simplices are not closed under the shore swap",
    }


def test_collapse_remaining_is_drawn_from_the_table():
    sc = ShortcutComplex(clique(3), 1)
    matching, sub = saturation_matching(sc)
    cert = collapse(sc.box, sc.simplices, sub, matching)
    assert cert.remaining.table is sc.simplices.table
    assert cert.remaining == sub and cert.remaining <= sc.simplices
