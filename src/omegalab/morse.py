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

Each property of a matching is checked once: a recipe's toggle must be an
involution without fixed points; ``collapse`` checks face/cofacet pairs that
cover exactly the simplices outside the target under the shore swap of a
free complex, and a completed collapse proves acyclicity.  ``is_acyclic`` is
the standalone check.  A failure is a falsification signal, not an expected
runtime event.

All four collapses and the shortcut complex's Betti vector read one face
table (``boxcomplex.FaceTable``), built once when ``ShortcutComplex``
materializes its simplices: dense ids in mask order and every face's
codimension-1 faces as ids.  The removal-phase domains, each collapse's
target and the faces a collapse leaves are flag sets over those ids, and
``collapse`` keeps alive flags, cofacet counts and partners per id.  Ids in
mask order make its heap pop faces in the order a heap of masks would, so
the certificates are those of a collapse on masks.
"""

from __future__ import annotations

import heapq
from array import array
from collections.abc import Set as AbstractSet
from dataclasses import dataclass
from itertools import compress

from .bitset import bits, mask_of, union_of
from .boxcomplex import DEFAULT_SIMPLEX_BUDGET, Faces, Z2Complex, build_box
from .errors import ContractError, ParameterError
from .functors import FunctorResult, omega, saturation_indices, shortcut
from .graphs import DEFAULT_VERTEX_BUDGET, Graph, common_neighborhood
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

    Works on the ids of the face table ``simplices`` is drawn from (a new
    table when it is a plain set): alive flags, cofacet counts and partners
    per id, and a heap of ids, which pops in mask order.  The remaining
    faces are drawn from the same table.
    """
    if not complex_.free:
        raise ContractError("equivariant collapses need a free complex")
    simplices = Faces.of(simplices)
    table = simplices.table
    masks, index = table.masks, table.index
    n = len(masks)

    # the matching on ids; a pair with a member outside the table is kept by
    # mask in ``strays`` (it fails the unknown-simplex check below)
    partner = array("i", [-1]) * n
    strays: dict[int, int] = {}

    def partner_of(mask: int) -> int | None:
        if mask in strays:
            return strays[mask]
        i = index.get(mask)
        return None if i is None or partner[i] < 0 else masks[partner[i]]

    matched = 0
    for a, b in matching.pairs:
        if partner_of(a) is not None or partner_of(b) is not None:
            raise ContractError("a simplex appears in two matching pairs")
        ia, ib = index.get(a), index.get(b)
        if ia is None or ib is None:
            strays[a], strays[b] = b, a
        else:
            partner[ia], partner[ib] = ib, ia
        matched += 1 if a == b else 2

    inside = simplices.drawn(sub)
    known, protected = simplices.flags, inside.flags
    lower = bytearray(n)
    for a, b in matching.pairs:
        if a.bit_count() + 1 != b.bit_count() or a & ~b:
            raise ContractError("matching pair is not a face/cofacet pair")
        ia, ib = index.get(a), index.get(b)
        if ia is None or ib is None or not (known[ia] and known[ib]):
            raise ContractError("matching pair uses unknown simplices")
        if protected[ia] or protected[ib]:
            raise ContractError("matching touches the protected subcomplex")
        if partner_of(complex_.mirror(a)) != complex_.mirror(b):
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
        mlow = index[complex_.mirror(masks[low])]
        mup = index[complex_.mirror(masks[up])]
        if counts[mlow] != 1:  # only when simplices or sub is not swap-symmetric
            raise ContractError("mirror step is not an elementary collapse")
        for s in (low, up, mlow, mup):
            remove(s)
        steps.append((masks[low], masks[up]))
        steps.append((masks[mlow], masks[mup]))

    remaining = Faces(table, alive)
    if remaining != inside:
        raise ContractError(
            f"collapse stuck: {len(remaining) - len(sub)} matched simplices remain; "
            "the matching is cyclic or the target is not a subcomplex"
        )
    return CollapseCertificate(tuple(steps), remaining)


# -- the shortcut-complex machinery -------------------------------------------


class ShortcutComplex:
    """Bundles the right-adjoint graph of index 2k+1, the box complex of its
    shortcut extension, its unmodified box complex, and the per-position
    data the matchings consume (tail masks, saturation flags, pairwise join
    tables)."""

    def __init__(
        self,
        g: Graph,
        k: int,
        vertex_budget: int = DEFAULT_VERTEX_BUDGET,
        simplex_budget: int = DEFAULT_SIMPLEX_BUDGET,
    ):
        if k < 1:
            raise ParameterError("half index must be >= 1")
        if g.has_loops():
            raise ParameterError("shortcut collapses need a loopless base graph")
        self.g = g
        self.k = k
        self.simplex_budget = simplex_budget
        self.omega: FunctorResult = omega(g, 2 * k + 1, vertex_budget)
        sat = saturation_indices(g, self.omega)
        self.box: Z2Complex = build_box(shortcut(self.omega, sat).graph)
        self.simplices: Faces = self.box.simplices(simplex_budget)
        # shortcut edges touch only omega's non-isolated vertices: one layout
        self.plain: Z2Complex = build_box(self.omega.graph)
        if self.plain.base != self.box.base:
            raise ContractError("shortcut and unmodified box complexes differ in layout")

        base = self.box.base  # positions -> vertex ids of the adjoint graph
        h = self.box.h
        pos_of = {v: p for p, v in enumerate(base)}
        tuples = self.omega.tuples

        self.tail = [tuples[v][-1] for v in base]
        self.subtail = [tuples[v][-2] for v in base]
        self.saturated_pos = mask_of(p for p, v in enumerate(base) if sat[v] == v)
        if any(sat[v] not in pos_of for v in base):
            raise ContractError("saturated partner is isolated; cannot happen")
        self.sat_token = [pos_of[sat[v]] for v in base]  # partner's position, per position
        self.pos_of = pos_of

        # join tables over positions: tails vs tails, tails vs subtails
        self.join_tail_tail = []
        self.join_tail_subtail = []
        for p in range(h):
            cn = common_neighborhood(g, self.tail[p])
            row_tt = 0
            row_ts = 0
            for q in range(h):
                if self.tail[q] & ~cn == 0:
                    row_tt |= 1 << q
                if self.subtail[q] & ~cn == 0:
                    row_ts |= 1 << q
            self.join_tail_tail.append(row_tt)
            self.join_tail_subtail.append(row_ts)

    def plain_box_simplices(self) -> Faces:
        """The simplices of the unmodified box complex, materialized once."""
        return self.plain.simplices(self.simplex_budget)

    # offending-simplex classification ----------------------------------------

    def cross_shore_offense(self, mask: int):
        """Minimal ordered pair (p, q, shore-of-p) with tails not joined
        across shores, or None."""
        lo, hi = self.box.split(mask)
        for p in bits(lo | hi):
            if lo >> p & 1:
                off = hi & ~self.join_tail_tail[p]
            else:
                off = lo & ~self.join_tail_tail[p]
            if off:
                q = (off & -off).bit_length() - 1
                return p, q, 0 if lo >> p & 1 else 1
        return None

    def same_shore_offense(self, mask: int, require_unsaturated: bool):
        """Minimal ordered same-shore pair (p, q, shore) whose tail fails to
        join the other's subtail; optionally only pairs whose first member
        is unsaturated."""
        lo, hi = self.box.split(mask)
        cand = lo | hi
        if require_unsaturated:
            cand &= ~self.saturated_pos
        for p in bits(cand):
            shore_mask = lo if lo >> p & 1 else hi
            off = shore_mask & ~self.join_tail_subtail[p]
            if off:
                q = (off & -off).bit_length() - 1
                return p, q, 0 if lo >> p & 1 else 1
        return None


def saturation_matching(sc: ShortcutComplex) -> tuple[MorseMatching, set[int]]:
    """Match every simplex containing an unsaturated vertex with its toggle
    by the saturated partner of the least such vertex.  Returns the matching
    and the protected subcomplex (simplices purely on saturated vertices)."""
    sub = set()
    toggle = {}
    for s in sc.simplices:
        lo, hi = sc.box.split(s)
        union = (lo | hi) & ~sc.saturated_pos
        if not union:
            sub.add(s)
            continue
        # least unsaturated vertex over both shores, in canonical order
        p = (union & -union).bit_length() - 1
        toggle[s] = s ^ (1 << sc.box.token(sc.sat_token[p], not (lo >> p & 1)))
    return _toggle_matching(toggle), sub


def removal_phases(sc: ShortcutComplex):
    """The three-phase matching peeling the shortcut-only simplices.

    Phase 1: same-shore offenses whose lead vertex is unsaturated.
    Phase 2: remaining same-shore offenses (lead vertex saturated).
    Phase 3: cross-shore offenses (tails not joined across the shores).

    Returns a list of (matching, domain) in collapse order; the domains
    partition the simplices outside the unmodified box complex.
    """
    capped: dict[tuple[int, int], int] = {}  # one capped tail per (mine, other & ~saturated)
    toggles: tuple[dict[int, int], ...] = ({}, {}, {})  # per phase: simplex -> partner
    for s in sc.simplices - sc.plain_box_simplices():
        if (offense := sc.same_shore_offense(s, require_unsaturated=True)) is not None:
            phase = 0
        elif (offense := sc.same_shore_offense(s, require_unsaturated=False)) is not None:
            phase = 1
        elif (offense := sc.cross_shore_offense(s)) is not None:
            phase = 2
        else:
            raise ContractError(f"extra simplex {s:#x} matches no phase")
        p, _q, shore = offense
        lo, hi = sc.box.split(s)
        mine, other = (lo, hi) if shore == 0 else (hi, lo)
        if phase == 2:
            tail = union_of(sc.subtail, other)  # the other shore's subtails
        elif (tail := capped.get(key := (mine, other & ~sc.saturated_pos))) is None:
            tail = capped[key] = _capped_tail(sc, *key)
        toggles[phase][s] = _toggle(sc, s, p, shore, tail)
    return [(_toggle_matching(toggle), sc.simplices.drawn(toggle)) for toggle in toggles]


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


def _toggle(sc: ShortcutComplex, s: int, p: int, shore: int, tail: int) -> int:
    """Toggle s by the tuple that replaces the tail of position p's tuple."""
    star = sc.omega.tuples[sc.box.base[p]][:-1] + (tail,)
    try:
        vertex = sc.omega.index_of(star)
    except KeyError:
        raise ContractError("replacement tuple is not a vertex of the adjoint graph")
    pos = sc.pos_of.get(vertex)
    if pos is None:
        raise ContractError("replacement tuple is isolated")
    other = s ^ (1 << sc.box.token(pos, shore))
    if other == 0 or other not in sc.simplices:
        raise ContractError("toggle left the shortcut complex")
    return other


def _toggle_matching(toggle: dict[int, int]) -> MorseMatching:
    """Pair each simplex of the domain (the keys) with its toggle, face
    first; the toggle must be an involution without fixed points.
    ``collapse`` checks the pairs themselves."""
    pairs = []
    for s, other in toggle.items():
        if other == s or toggle.get(other) != s:
            raise ContractError(f"toggle of {s:#x} is not an involution without fixed points")
        if s < other:
            pairs.append((s, other) if s.bit_count() < other.bit_count() else (other, s))
    return MorseMatching(tuple(pairs))


def shortcut_collapses(sc: ShortcutComplex):
    """Run both collapse recipes on the shortcut complex.

    Returns ``(saturation, phases)``: the saturation matching with its
    certificate for the collapse onto the saturated-image subcomplex, and
    the three removal-phase matchings with their certificates, in collapse
    order.  Every matching is checked inside ``collapse``; raises unless the
    phases end exactly on the unmodified box complex.
    """
    sat_matching, sat_sub = saturation_matching(sc)
    saturation = (sat_matching, collapse(sc.box, sc.simplices, sat_sub, sat_matching))
    current = sc.simplices
    phases = []
    for matching, domain in removal_phases(sc):
        target = current - domain
        phases.append((matching, collapse(sc.box, current, target, matching)))
        current = target
    if current != sc.plain_box_simplices():
        raise ContractError("three-phase collapse missed the unmodified box complex")
    return saturation, phases


def pipeline(
    g: Graph,
    k: int,
    vertex_budget: int = DEFAULT_VERTEX_BUDGET,
    simplex_budget: int = DEFAULT_SIMPLEX_BUDGET,
) -> dict:
    """Full collapse pipeline at half index k: build the shortcut complex,
    run both collapses, and certify that all three box complexes share one
    mod-2 Betti vector.  Returns a report dict; raises on any falsification.
    """
    sc = ShortcutComplex(g, k, vertex_budget, simplex_budget)
    (_, cert52), phases = shortcut_collapses(sc)
    sat_sub = cert52.remaining
    collapse_steps = {
        "saturation": len(cert52.steps),
        "phases": [len(cert.steps) for _, cert in phases],
    }
    del cert52, phases  # the homology below needs none of the steps or pairs
    plain = sc.plain_box_simplices()

    betti_shortcut = betti_mod2(sc.simplices, simplex_budget)
    betti_plain = betti_mod2(plain, simplex_budget)
    betti_saturated = betti_mod2(sat_sub, simplex_budget)
    lower = omega(g, 2 * k - 1, vertex_budget)
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
