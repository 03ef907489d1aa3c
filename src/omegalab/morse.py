"""Equivariant discrete Morse matchings and collapses on box complexes.

The generic engine (``is_acyclic``, ``collapse``) works on any free
two-shore complex.  The specific matchings are the two collapse recipes for
the shortcut complex of the right-adjoint graph: ``saturation_matching``
retracts it onto the saturated-image subcomplex, and ``removal_phases``
peels the added simplices in three phases until exactly the unmodified box
complex remains, the one ``build_box`` builds for omega(G, 2k+1).
``shortcut_collapses`` runs both, and ``pipeline`` and the CLI share it.
Both parameterize by the half index k, acting on the functor of odd index
2k+1.

Each property of a matching is checked once: a recipe's toggle must stay in
the shortcut complex and be an involution without fixed points
(``_toggle_pairs``, the one toggle check); ``collapse`` checks face/cofacet
pairs that cover exactly the simplices outside the target under the shore
swap of a free complex, and a completed collapse proves acyclicity.
``is_acyclic`` is the standalone check.  A failure is a falsification
signal, not an expected runtime event.

The saturation collapse is a strong collapse (Barmak and Minian, DCG 2012):
each unsaturated token is dominated by its saturated partner's token on the
same shore, so ``SaturationCollapse`` certifies it on the facets and builds
the face-level steps only when they are read.

Both recipes, their collapses and the shortcut complex's Betti vector read
one face table (``boxcomplex.FaceTable``), built once per shortcut complex:
dense ids in mask order, and every face's codimension-1 faces and mirror as
ids.  A recipe emits partner ids over it, the removal phases by one offense
scan per simplex (``ShortcutComplex.offense``), and is collapsed on ids
(``_collapse_ids``), with flag sets for domains, targets and the faces a
collapse leaves; ``saturation_matching`` and ``removal_phases`` read the
recipes back as masks.  ``collapse`` turns a matching of masks into ids once
and runs the same checks and loop.  Ids in mask order make the heap pop
faces in the order a heap of masks would, so the certificates are those of
a collapse on masks.
"""

from __future__ import annotations

import heapq
from array import array
from collections.abc import Set as AbstractSet
from dataclasses import dataclass
from functools import cached_property
from itertools import compress

from .bitset import bits, holders, mask_of, union_of
from .boxcomplex import Faces, FaceTable, Z2Complex, build_box
from .errors import DEFAULT_BUDGETS, Budgets, ContractError, ParameterError
from .functors import FunctorResult, omega, saturation_indices, shortcut
from .graphs import Graph, common_neighborhood
from .homology import betti_mod2


@dataclass(frozen=True)
class MorseMatching:
    """Vertex-disjoint face/cofacet pairs on the simplices outside a subcomplex."""

    pairs: tuple[tuple[int, int], ...]  # (face, cofacet), |cofacet \ face| = 1

    def matched(self) -> set[int]:
        out = set()
        for a, b in self.pairs:
            out.add(a)
            out.add(b)
        return out

    def partner(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for a, b in self.pairs:
            if a in out or b in out:
                raise ContractError("a simplex appears in two matching pairs")
            out[a] = b
            out[b] = a
        return out


@dataclass(frozen=True)
class CollapseCertificate:
    """Ordered elementary collapses; mirror removals appear as their own steps."""

    steps: tuple[tuple[int, int], ...]
    remaining: Faces


def is_acyclic(matching: MorseMatching) -> bool:
    """Check for directed cycles through alternating face/cofacet steps.

    A step goes up from a matched face to its cofacet and back down to a
    different matched face of the same size; a cycle among those steps is
    exactly the forbidden pattern.
    """
    partner = matching.partner()
    lower_set = {a for a, _ in matching.pairs}

    def downsteps(low: int):
        up = partner[low]
        m = up
        while m:
            bit = m & -m
            m ^= bit
            nxt = up ^ bit
            if nxt != low and nxt in lower_set:
                yield nxt

    WHITE, GRAY, BLACK = 0, 1, 2
    color = dict.fromkeys(lower_set, WHITE)
    for root in lower_set:
        if color[root] != WHITE:
            continue
        stack = [(root, downsteps(root))]
        color[root] = GRAY
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                c = color[nxt]
                if c == GRAY:
                    return False
                if c == WHITE:
                    color[nxt] = GRAY
                    stack.append((nxt, downsteps(nxt)))
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                stack.pop()
    return True


def collapse(
    complex_: Z2Complex,
    simplices: AbstractSet[int],
    sub: AbstractSet[int],
    matching: MorseMatching,
) -> CollapseCertificate:
    """Run the matching as a sequence of equivariant elementary collapses.

    First checks the matching: face/cofacet pairs that cover exactly
    ``simplices - sub`` and are closed under the shore swap of a free
    complex.  At every step the removed cofacet is the unique simplex
    properly containing its face in the current complex; the mirror pair is
    removed in the same step.  No face on a directed cycle ever becomes free,
    so ending exactly at ``sub`` proves the matching acyclic; else raises.

    The pairs are turned into ids of the face table ``simplices`` is drawn
    from (a new table when it is a plain set) once; the checks and the
    collapse then run on ids (``_collapse_ids``).  The remaining faces are
    drawn from the same table.
    """
    if not complex_.free:
        raise ContractError("equivariant collapses need a free complex")
    simplices = Faces.of(simplices)
    table = simplices.table
    get, n = table.index.get, len(table.masks)
    # a mask outside the table gets an id past its end; its pair fails the
    # unknown-simplex check
    strays: dict[int, int] = {}
    partner = array("i", [-1]) * n

    def stray(mask: int) -> int:
        if (i := strays.get(mask)) is None:
            i = strays[mask] = n + len(strays)
            partner.append(-1)
        return i

    pairs = []
    for a, b in matching.pairs:
        ia = get(a)
        ia = stray(a) if ia is None else ia
        ib = get(b)
        ib = stray(b) if ib is None else ib
        if partner[ia] >= 0 or partner[ib] >= 0:
            raise ContractError("a simplex appears in two matching pairs")
        partner[ia], partner[ib] = ib, ia
        pairs.append((ia, ib))
    return _collapse_ids(complex_, simplices, sub, partner, pairs, strays)


def _collapse_ids(
    complex_: Z2Complex,
    simplices: Faces,
    sub: AbstractSet[int],
    partner: array,
    pairs: list[tuple[int, int]],
    strays: dict[int, int],
) -> CollapseCertificate:
    """``collapse`` on ids of the table ``simplices`` is drawn from: the
    ``pairs`` (face, cofacet) are checked in order, then the cover, then the
    heap loop runs.  ``partner`` maps every matched id to its partner and
    holds -1 elsewhere; ids past the table are ``strays``, by mask."""
    table = simplices.table
    matched = len(partner) - partner.count(-1)
    n = len(table.masks)
    masks = table.masks + list(strays) if strays else table.masks
    mirror = table.mirrors(complex_.h)
    inside = simplices.drawn(sub)
    known, protected = simplices.flags, inside.flags
    lower = bytearray(n)
    for ia, ib in pairs:
        a, b = masks[ia], masks[ib]
        if a.bit_count() + 1 != b.bit_count() or a & ~b:
            raise ContractError("matching pair is not a face/cofacet pair")
        if ia >= n or ib >= n or not (known[ia] and known[ib]):
            raise ContractError("matching pair uses unknown simplices")
        if protected[ia] or protected[ib]:
            raise ContractError("matching touches the protected subcomplex")
        # a mirror outside the table can only be a stray
        ma = mirror[ia] if mirror[ia] >= 0 else strays.get(complex_.mirror(a), -1)
        mb = mirror[ib] if mirror[ib] >= 0 else strays.get(complex_.mirror(b), -1)
        if ma < 0 or partner[ma] < 0 or partner[ma] != mb:
            raise ContractError("matching is not equivariant")
        lower[ia] = 1
    # every pair member lies in simplices - sub, so the sizes decide the cover
    if len(inside) != len(sub) or not inside <= simplices or matched != len(simplices) - len(sub):
        raise ContractError("matching does not cover the simplices outside the subcomplex")

    offsets, ids = table.boundary()
    alive = bytearray(simplices.flags)
    counts = [0] * n  # alive cofacets per face
    for s in simplices.ids():
        for f in ids[offsets[s] : offsets[s + 1]]:
            counts[f] += 1
    heap = [low for low in compress(range(n), lower) if counts[low] == 1]
    heapq.heapify(heap)
    steps: list[tuple[int, int]] = []

    def remove(s: int) -> None:
        alive[s] = 0
        for f in ids[offsets[s] : offsets[s + 1]]:
            c = counts[f] - 1
            counts[f] = c
            if c == 1 and lower[f] and alive[f]:
                heapq.heappush(heap, f)

    while heap:
        low = heapq.heappop(heap)
        if not alive[low] or counts[low] != 1:
            continue
        up = partner[low]
        mlow, mup = mirror[low], mirror[up]
        if counts[mlow] != 1:  # only when simplices or sub is not swap-symmetric
            raise ContractError("mirror step is not an elementary collapse")
        for s in (low, up, mlow, mup):
            remove(s)
        steps.append((masks[low], masks[up]))
        steps.append((masks[mlow], masks[mup]))

    if alive != inside.flags:
        raise ContractError(
            f"collapse stuck: {alive.count(1) - len(sub)} matched simplices remain; "
            "the matching is cyclic or the target is not a subcomplex"
        )
    return CollapseCertificate(tuple(steps), Faces(table, alive))


# -- the shortcut-complex machinery -------------------------------------------


class ShortcutComplex:
    """Bundles the right-adjoint graph of index 2k+1, the box complex of its
    shortcut extension with its faces, the faces of its unmodified box
    complex, and the per-position data the matchings consume (tail masks,
    saturation flags, pairwise join tables)."""

    def __init__(self, g: Graph, k: int, budgets: Budgets = DEFAULT_BUDGETS):
        if k < 1:
            raise ParameterError("half index must be >= 1")
        if g.has_loops():
            raise ParameterError("shortcut collapses need a loopless base graph")
        self.g = g
        self.omega: FunctorResult = omega(g, 2 * k + 1, budgets.vertex_budget)
        sat = saturation_indices(g, self.omega)
        self.box: Z2Complex = build_box(shortcut(self.omega, sat).graph)
        self.simplices: Faces = self.box.simplices(budgets.simplex_budget)
        # shortcut edges touch only omega's non-isolated vertices: one layout
        plain = build_box(self.omega.graph)
        if plain.base != self.box.base:
            raise ContractError("shortcut and unmodified box complexes differ in layout")
        # on a table of their own, which needs no shortcut face
        self._plain_simplices: Faces = plain.simplices(budgets.simplex_budget)

        base = self.box.base  # positions -> vertex ids of the adjoint graph
        pos_of = {v: p for p, v in enumerate(base)}
        tuples = self.omega.tuples

        self.tail = [tuples[v][-1] for v in base]
        self.subtail = [tuples[v][-2] for v in base]
        self.saturated_pos = mask_of(p for p, v in enumerate(base) if sat[v] == v)
        if any(sat[v] not in pos_of for v in base):
            raise ContractError("saturated partner is isolated; cannot happen")
        self.sat_token = [pos_of[sat[v]] for v in base]  # partner's position, per position
        self.pos_of = pos_of

        # join tables over positions: q is in row p unless tail(q) (in
        # join_tail_tail) or subtail(q) (in join_tail_subtail) holds a vertex
        # outside CN(tail(p)); the holder sets name the q holding each vertex
        cns = [common_neighborhood(g, t) for t in self.tail]

        def joined(rows: list[int]) -> list[int]:
            held = holders(rows)
            present = mask_of(held)
            return [self.box.white & ~union_of(held, present & ~cn) for cn in cns]

        self.join_tail_tail = joined(self.tail)
        self.join_tail_subtail = joined(self.subtail)

    def plain_box_simplices(self) -> Faces:
        """The simplices of the unmodified box complex, built with the
        shortcut complex on a face table of their own."""
        return self._plain_simplices

    def offense(self, mask: int) -> tuple[int, int, int] | None:
        """Why a simplex lies outside the unmodified box complex, as
        ``(phase, lead, shore)``, or None when it lies inside.

        A lead p offends on its own shore when its tail fails to join some
        subtail there, and across when it fails to join some tail on the
        other shore.  One pass over the positions in ascending order: the
        first unsaturated same-shore lead gives phase 1 at once; else the
        first saturated same-shore lead gives phase 2; else the first
        cross-shore lead gives phase 3.  A position on both shores is read
        on the white one."""
        lo, hi = self.box.split(mask)
        later = None
        for p in bits(lo | hi):
            shore = 0 if lo >> p & 1 else 1
            mine, other = (lo, hi) if shore == 0 else (hi, lo)
            if mine & ~self.join_tail_subtail[p]:
                if not self.saturated_pos >> p & 1:
                    return 1, p, shore
                if later is None or later[0] == 3:
                    later = 2, p, shore
            elif later is None and other & ~self.join_tail_tail[p]:
                later = 3, p, shore
        return later


def saturation_matching(sc: ShortcutComplex) -> tuple[MorseMatching, set[int]]:
    """Match every simplex containing an unsaturated vertex with its toggle
    by the saturated partner of the least such vertex.  Returns the matching
    and the protected subcomplex (simplices purely on saturated vertices),
    ``_saturation_partners`` read back as masks."""
    domain, pairs, _ = _saturation_partners(sc)
    return _read_back(sc, pairs), set(sc.simplices - domain)


def removal_phases(sc: ShortcutComplex):
    """The three-phase matching peeling the shortcut-only simplices.

    Returns a list of (matching, domain) in collapse order; the domains
    partition the simplices outside the unmodified box complex.  The
    matchings and domains are ``_phase_partners`` read back as masks.
    """
    return [(_read_back(sc, pairs), domain) for domain, pairs, _ in _phase_partners(sc)]


def _read_back(sc: ShortcutComplex, pairs: list[tuple[int, int]]) -> MorseMatching:
    """The id pairs of a recipe over the shortcut table, as a mask matching."""
    masks = sc.simplices.table.masks
    return MorseMatching(tuple((masks[a], masks[b]) for a, b in pairs))


# a recipe on ids of the shortcut table: its domain, its (face, cofacet) id
# pairs by lesser id, and every id's partner (-1 off the domain)
Recipe = tuple[Faces, list[tuple[int, int]], array]


def _toggle_pairs(
    table: FaceTable, domain: list[int], partner: array
) -> tuple[Faces, list[tuple[int, int]]]:
    """Check a recipe's toggle and pair its domain up.  ``domain`` holds
    ids of ``table`` in ascending order and ``partner[i]`` the id of i's
    toggle, -1 where the toggle is not in the table; the toggle must stay in
    the table and be an involution without fixed points on the domain.
    Returns the domain, drawn from the table, and its (face, cofacet) id
    pairs by lesser id."""
    masks = table.masks
    flags, pairs = bytearray(len(masks)), []
    for i in domain:
        j = partner[i]
        if j < 0:
            raise ContractError(f"toggle of {masks[i]:#x} left the shortcut complex")
        if j == i or partner[j] != i:
            raise ContractError(
                f"toggle of {masks[i]:#x} is not an involution without fixed points"
            )
        flags[i] = 1
        if i < j:
            pairs.append((i, j) if masks[i].bit_count() < masks[j].bit_count() else (j, i))
    return Faces(table, flags), pairs


def _saturation_partners(sc: ShortcutComplex) -> Recipe:
    """The saturation matching as a recipe; its domain is the faces with an
    unsaturated token."""
    table = sc.simplices.table
    masks, get = table.masks, table.index.get
    domain, partner = [], array("i", [-1]) * len(masks)
    for i in sc.simplices.ids():
        s = masks[i]
        lo, hi = sc.box.split(s)
        if union := (lo | hi) & ~sc.saturated_pos:
            # least unsaturated vertex over both shores, in canonical order
            p = (union & -union).bit_length() - 1
            domain.append(i)
            partner[i] = get(s ^ (1 << sc.box.token(sc.sat_token[p], not (lo >> p & 1))), -1)
    return (*_toggle_pairs(table, domain, partner), partner)


def _phase_partners(sc: ShortcutComplex) -> list[Recipe]:
    """The removal phases as recipes, in collapse order.  A simplex outside
    the unmodified box complex goes to the phase of its offense
    (``ShortcutComplex.offense``)."""
    table = sc.simplices.table
    masks, get = table.masks, table.index.get
    capped: dict[tuple[int, int], int] = {}  # one capped tail per (mine, other & ~saturated)
    replaced: dict[tuple[int, int], int] = {}  # (p, tail) -> position of the replacement
    phases = [([], array("i", [-1]) * len(masks)) for _ in range(3)]
    for i in (sc.simplices - sc.plain_box_simplices()).ids():
        s = masks[i]
        if (offense := sc.offense(s)) is None:
            raise ContractError(f"extra simplex {s:#x} matches no phase")
        phase, p, shore = offense
        lo, hi = sc.box.split(s)
        mine, other = (lo, hi) if shore == 0 else (hi, lo)
        if phase == 3:
            tail = union_of(sc.subtail, other)  # the other shore's subtails
        elif (tail := capped.get(key := (mine, other & ~sc.saturated_pos))) is None:
            tail = capped[key] = _capped_tail(sc, *key)
        if (pos := replaced.get(key := (p, tail))) is None:
            pos = replaced[key] = _replacement(sc, p, tail)
        domain, partner = phases[phase - 1]
        domain.append(i)
        partner[i] = get(s ^ (1 << sc.box.token(pos, shore)), -1)
    return [(*_toggle_pairs(table, domain, partner), partner) for domain, partner in phases]


def _capped_tail(sc: ShortcutComplex, mine: int, unsaturated: int) -> int:
    """Common neighborhood of the pooled shore sets (phases 1 and 2): the
    subtails of this shore and the tails of the other shore's unsaturated
    positions.

    Without those tails a toggle can leave the shortcut complex (an input in
    ``test_morse.PIPELINE_REPORTS`` shows it), but only in phase 2.  An
    unsaturated position r on the other shore is joined to the lead p by an
    Omega' edge between two unsaturated tuples, which is an Omega edge, so
    tail(r) <= CN(tail(p)); every subtail on p's shore lies in tail(r), so p
    has no same-shore offense and the simplex is not in phase 1."""
    return common_neighborhood(sc.g, union_of(sc.subtail, mine) | union_of(sc.tail, unsaturated))


def _replacement(sc: ShortcutComplex, p: int, tail: int) -> int:
    """The position of the tuple that replaces the tail of position p's tuple."""
    star = sc.omega.tuples[sc.box.base[p]][:-1] + (tail,)
    try:
        vertex = sc.omega.index_of(star)
    except KeyError:
        raise ContractError("replacement tuple is not a vertex of the adjoint graph")
    pos = sc.pos_of.get(vertex)
    if pos is None:
        raise ContractError("replacement tuple is isolated")
    return pos


class SaturationCollapse:
    """Lemma 5.2's collapse of the shortcut complex onto its saturated
    image, certified on the facets.

    Every unsaturated position's partner must be a saturated position, and
    every facet that holds an unsaturated token must hold its partner's
    token on the same shore.  Each unsaturated token is then dominated, and
    deleting it with its mirror is an equivariant strong collapse; partners
    are never deleted, so the dominations stay valid.  ``remaining`` is the
    faces with no unsaturated token; the collapse pairs the others, in
    ``step_count`` steps, half their number.  ``steps`` collapses the
    saturation matching onto ``remaining`` on ids on first read; that
    collapse refuses to end anywhere else, and takes one step per pair.
    """

    def __init__(self, sc: ShortcutComplex):
        box, saturated = sc.box, sc.saturated_pos
        if not box.free:
            raise ContractError("equivariant collapses need a free complex")
        unsaturated = box.white & ~saturated
        for p in bits(unsaturated):
            if not saturated >> sc.sat_token[p] & 1:  # so also not p itself
                raise ContractError(f"position {p} has no saturated partner")
        partner_bit = [1 << q for q in sc.sat_token]
        for f in box.facets:
            for shore in box.split(f):
                if union_of(partner_bit, shore & unsaturated) & ~shore:
                    raise ContractError(f"facet {f:#x} does not hold a saturated partner")
        outside = unsaturated | box.mirror(unsaturated)
        table = sc.simplices.table
        self.sc = sc
        self.remaining = Faces(table, bytes(not m & outside for m in table.masks))
        self.step_count = (len(sc.simplices) - len(self.remaining)) // 2

    @cached_property
    def steps(self) -> tuple[tuple[int, int], ...]:
        _, pairs, partner = _saturation_partners(self.sc)
        cert = _collapse_ids(self.sc.box, self.sc.simplices, self.remaining, partner, pairs, {})
        return cert.steps


def shortcut_collapses(sc: ShortcutComplex):
    """Run both collapse recipes on the shortcut complex.

    Returns ``(saturation, phases)``: the ``SaturationCollapse`` onto the
    saturated-image subcomplex, and the certificates of the three removal
    phases, in collapse order.  Every phase's pairs are checked on ids
    inside ``_collapse_ids``; raises unless the phases end exactly on the
    unmodified box complex.
    """
    saturation = SaturationCollapse(sc)
    current = sc.simplices
    phases = []
    for domain, pairs, partner in _phase_partners(sc):
        target = current - domain
        phases.append(_collapse_ids(sc.box, current, target, partner, pairs, {}))
        current = target
    if current != sc.plain_box_simplices():
        raise ContractError("three-phase collapse missed the unmodified box complex")
    return saturation, phases


def pipeline(g: Graph, k: int, budgets: Budgets = DEFAULT_BUDGETS) -> dict:
    """Full collapse pipeline at half index k: build the shortcut complex,
    run both collapses, and certify that all three box complexes share one
    mod-2 Betti vector.  Returns a report dict; raises on any falsification.
    """
    sc = ShortcutComplex(g, k, budgets)
    saturation, phases = shortcut_collapses(sc)
    sat_sub = saturation.remaining
    collapse_steps = {
        "saturation": saturation.step_count,
        "phases": [len(cert.steps) for cert in phases],
    }
    del saturation, phases  # the homology below needs none of the steps or pairs
    plain = sc.plain_box_simplices()

    simplex_budget = budgets.simplex_budget
    betti_shortcut = betti_mod2(sc.simplices, simplex_budget)
    betti_plain = betti_mod2(plain, simplex_budget)
    betti_saturated = betti_mod2(sat_sub, simplex_budget)
    lower = omega(g, 2 * k - 1, budgets.vertex_budget)
    lower_faces = build_box(lower.graph).simplices(simplex_budget)
    betti_lower = betti_mod2(lower_faces, simplex_budget)

    report = {
        "base": {"n": g.n, "m": g.edge_count()},
        "half_index": k,
        "adjoint_vertices": sc.omega.graph.n,
        "simplices": len(sc.simplices),
        "collapse_steps": collapse_steps,
        "betti": {
            "shortcut": list(betti_shortcut),
            "plain": list(betti_plain),
            "saturated_image": list(betti_saturated),
            "lower_index": list(betti_lower),
        },
        "betti_agree": betti_shortcut
        == betti_plain
        == betti_saturated
        == betti_lower,
    }
    if not report["betti_agree"]:
        raise ContractError(f"Betti vectors disagree: {report['betti']}")
    return report
