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
(``_check_toggle``, the one toggle check); ``collapse`` checks face/cofacet
pairs that cover exactly the simplices outside the target under the shore
swap of a free complex, and a completed collapse proves acyclicity.
``is_acyclic`` is the standalone check.  A failure is a falsification
signal, not an expected runtime event.

The saturation collapse is a strong collapse (Barmak and Minian, DCG 2012):
each unsaturated token is dominated by its saturated partner's token on the
same shore, so ``SaturationCollapse`` certifies it on the graph, one
domination test N'(u) within N'(sat u) per unsaturated position on the box
complex's rows, and builds the face-level steps only when they are read.

Both recipes, their collapses and the shortcut complex's Betti vector read
one face table (``boxcomplex.FaceTable``), built once per shortcut complex:
dense ids in mask order, and every face's mirror as an id.  A recipe is its
domain and one partner array over it: a matching is an involution, and
below the mask API that array is its only form.  The removal phases come
from one scan over the faces outside the unmodified box complex, one face
of each mirror pair, that reads each face's offense and capped tail from
folds over shore sets: offender rows ORed over a shore, common
neighborhoods ANDed over one.  The two folds every face reads (same-shore
offenders, and the capped tail's own shore) are lists over the table's
shore sets, its faces with no black token, by id: each entry is one OR or
AND onto the entry at its pivot.  The scan goes cube by cube, so a face's
black shore is read from its cube and only a nonempty white shore of a
face with black tokens is looked up in ``index``.  The two that few faces
read (cross-shore offenders, and the capped tail's other shore) are folded
memos keyed by shore sets (``bitset.Folded``), one entry per shore set the
scan meets.  All four are dropped with the scan.

Recipes are collapsed on ids by ``_CollapseState``, on mirror pairs: an
equivariant collapse of a free complex is a collapse of its quotient by the
swap (Freij, "Equivariant discrete Morse theory", Discrete Math. 2009).  It
keeps flag sets for the faces a collapse leaves and one row per mirror
pair, at its lesser id, of the pairs of its codimension-1 faces, read cube
by cube as the box complex lists its faces (``_pair_rows``); no face's
full boundary is built.  It counts cofacets once per pair and finds every
matching's lower ids (the faces of its pairs) once, when it is built, in
one byte per face.  A run checks each mirror pair of matched pairs once,
at its lesser lower id, by ascending id, and pops only lesser ids; a step
removes a face, its cofacet and both mirrors.  The three phases run on
one state, each going on from where the last one ended.  A certificate
keeps its steps as ids and decodes them to masks when read.
``saturation_matching`` and ``removal_phases`` read the recipes back as
masks, pairs by lesser id.  ``collapse`` checks that its simplices are
closed under the swap, turns a matching of masks into one partner array
and runs the same checks and loop on a fresh state.  Ids in mask order make
the lesser id of a face/cofacet pair its face, and make the heap pop faces
in the order a heap of masks would, so the certificates are those of a
collapse on masks.
"""

from __future__ import annotations

import heapq
from array import array
from bisect import bisect_left
from collections.abc import Set as AbstractSet
from dataclasses import dataclass
from functools import cached_property
from graphlib import CycleError, TopologicalSorter
from itertools import compress
from operator import and_, gt, or_

from .bitset import Folded, bits, holders, mask_of, union_of
from .boxcomplex import Faces, FaceTable, Z2Complex, build_box
from .errors import DEFAULT_BUDGETS, Budgets, ContractError, ParameterError
from .functors import Adjoint, omega, saturation_indices, shortcut
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
    """Ordered elementary collapses; mirror removals appear as their own
    steps.  ``step_ids`` holds four ids of the face table of ``remaining``
    per pair of steps: a face, its cofacet, and their mirrors."""

    step_ids: array
    remaining: Faces

    @property
    def steps(self) -> tuple[tuple[int, int], ...]:
        """The steps as (face, cofacet) mask pairs, decoded on each read."""
        ids = map(self.remaining.table.masks.__getitem__, self.step_ids)
        return tuple(zip(ids, ids))

    @property
    def step_count(self) -> int:
        return len(self.step_ids) // 2


def is_acyclic(matching: MorseMatching) -> bool:
    """Check for directed cycles through alternating face/cofacet steps.

    A step goes up from a matched face to its cofacet and back down to a
    different matched face of the same size; a cycle among those steps is
    exactly the forbidden pattern.  ``graphlib`` finds one without
    recursion; a face with no step lies on none and is left out.
    """
    partner = matching.partner()
    lower = {a for a, _ in matching.pairs}
    steps = {}
    for low in lower:
        up = partner[low]
        if out := [f for t in bits(up) if (f := up ^ 1 << t) in lower and f != low]:
            steps[low] = out
    try:
        TopologicalSorter(steps).prepare()
    except CycleError:
        return False
    return True


def collapse(
    complex_: Z2Complex,
    simplices: AbstractSet[int],
    sub: AbstractSet[int],
    matching: MorseMatching,
) -> CollapseCertificate:
    """Run the matching as a sequence of equivariant elementary collapses.

    First checks that ``simplices`` is closed under the shore swap of a
    free complex, then the matching: face/cofacet pairs that cover exactly
    ``simplices - sub`` and are closed under the swap.  At every step the
    removed cofacet is the unique simplex properly containing its face in
    the current complex; the mirror pair is removed in the same step.  No
    face on a directed cycle ever becomes free, so ending exactly at
    ``sub`` proves the matching acyclic; else raises.

    The pairs are read once into one partner array over the face table
    ``simplices`` is drawn from (a new table when it is a plain set),
    refusing a simplex in two pairs and a pair given cofacet first; the
    other checks, by ascending face, and the collapse then run on ids, on
    a fresh ``_CollapseState``.  The remaining faces are drawn from the
    same table.
    """
    if not complex_.free:
        raise ContractError("equivariant collapses need a free complex")
    simplices = Faces.of(simplices)
    mirror, flags = simplices.table.mirrors(complex_.h), simplices.flags
    # a simplex the swap fixes is no face of a free complex: refused with them
    if any(j < 0 or j == i or not flags[j] for i, j in compress(enumerate(mirror), flags)):
        raise ContractError("simplices are not closed under the shore swap")
    masks = [m for pair in matching.pairs for m in pair]
    ids = list(map(simplices.table.index.get, masks))
    if None in ids:
        # a mask outside the table: draw the simplices from a wider table that
        # holds it too, where its pair fails the unknown-simplex check
        simplices = FaceTable({*simplices.table.masks, *masks}).faces(simplices)
        ids = list(map(simplices.table.index.__getitem__, masks))
    partner = array("i", [-1]) * len(simplices.flags)
    for ia, ib in zip(ids[::2], ids[1::2]):
        if partner[ia] >= 0 or partner[ib] >= 0:
            raise ContractError("a simplex appears in two matching pairs")
        if ia >= ib:  # ids in mask order: a face's id is below its cofacet's
            raise ContractError("matching pair is not a face/cofacet pair")
        partner[ia], partner[ib] = ib, ia
    return _CollapseState(complex_, simplices, [partner]).run(sub, partner)


class _CollapseState:
    """A collapse in progress on ids of one face table, run on mirror
    pairs: a flag per face still in the complex and, per pair, the number
    of cofacets its lesser face has still in it.  The complex stays closed
    under the swap, so a face and its mirror always have as many.

    Built from ``simplices``, which must be closed under the swap of a free
    complex, and from the partner arrays of every matching it will run, at
    most eight.  Their lower ids (``partner[i] > i``, the faces of their
    pairs) are found once, here, in one byte per face: bit k of
    ``lower[i]`` is set when face i is a lower id of the k-th matching.
    Each pair gets one row (``_pair_rows``) listing only the pairs that
    hold the face of a matched pair, the only counts the heap loop reads.
    A pair appears in a row as often as one of its faces lies in the row's
    face, so summed over the pairs in the complex it counts the cofacets of
    either of its faces.  Each ``run`` collapses onto a target and leaves
    the state there, so the next run continues from that target."""

    def __init__(self, complex_: Z2Complex, simplices: Faces, partners: list[array]):
        table = simplices.table
        n = len(table.masks)
        self.current = simplices
        self.partners = partners
        self.mirror = mirror = table.mirrors(complex_.h)
        self.lower = lower = bytearray(n)
        # the lesser id of each face's pair, where the pair holds the face of
        # a matched pair; -1 elsewhere
        lesser = array("i", [-1]) * n
        for k, partner in enumerate(partners):
            bit = 1 << k
            for i in compress(range(n), map(gt, partner, range(n))):
                lower[i] |= bit
                m = mirror[i]
                lesser[i] = p = i if m < 0 or i < m else m
                if m >= 0:
                    lesser[m] = p
        self.offsets, self.rows = _pair_rows(simplices, mirror, lesser)
        self.alive = bytearray(simplices.flags)
        self.counts = counts = [0] * n
        for p in self.rows:
            counts[p] += 1

    def run(self, sub: AbstractSet[int], partner: array) -> CollapseCertificate:
        """``collapse`` from the current faces onto ``sub``, on ids:
        ``partner`` maps every matched id to its partner and holds -1
        elsewhere, and must be one of the state's partner arrays.  Its lower
        ids are read from ``lower``, by ascending id.  Each mirror pair of
        matched pairs is checked once, at its lesser lower id: the swap
        gives the other pair's face/cofacet relation and its membership in
        the swap-closed complex, and equivariance ties the two together.  A
        lower id is skipped only when its mirror is a lower id already
        checked, and then only its protection is read, so the first error
        is the one a check of every pair by ascending face raises.  Then the
        cover is checked, and the heap loop runs on the lesser ids of
        mirror pairs."""
        simplices = self.current
        table = simplices.table
        n, matched = len(table.masks), len(partner) - partner.count(-1)
        masks, mirror, lower, counts = table.masks, self.mirror, self.lower, self.counts
        bit = next(1 << k for k, p in enumerate(self.partners) if p is partner)
        inside = simplices.drawn(sub)
        known, protected = simplices.flags, inside.flags
        heap = []
        for ia in compress(range(n), lower.translate(bytes(b & bit for b in range(256)))):
            ib, ma = partner[ia], mirror[ia]
            if 0 <= ma < ia and partner[ma] > ma:  # checked with its mirror pair
                if protected[ia] or protected[ib]:
                    raise ContractError("matching touches the protected subcomplex")
                continue
            x = masks[ia] ^ masks[ib]  # ids in mask order: masks[ia] < masks[ib]
            if x & (x - 1):
                raise ContractError("matching pair is not a face/cofacet pair")
            if not (known[ia] and known[ib]):
                raise ContractError("matching pair uses unknown simplices")
            if protected[ia] or protected[ib]:
                raise ContractError("matching touches the protected subcomplex")
            if ma < 0 or partner[ma] < 0 or partner[ma] != mirror[ib]:
                raise ContractError("matching is not equivariant")
            # not skipped, and ma is a lower id (mirror[ib] is its partner): ia < ma
            if counts[ia] == 1:
                heap.append(ia)
        # every pair member lies in simplices - sub, so the sizes decide the cover
        covered = matched == len(simplices) - len(sub)
        if len(inside) != len(sub) or not inside <= simplices or not covered:
            raise ContractError("matching does not cover the simplices outside the subcomplex")

        offsets, rows, alive = self.offsets, self.rows, self.alive
        heapq.heapify(heap)
        steps = array("i")
        while heap:
            low = heapq.heappop(heap)
            if not alive[low] or counts[low] != 1:
                continue
            up = partner[low]
            mlow, mup = mirror[low], mirror[up]
            for s in (low, min(up, mup)):  # the two pairs, by their lesser ids
                alive[s] = alive[mirror[s]] = 0
                for p in rows[offsets[s] : offsets[s + 1]]:
                    c = counts[p] = counts[p] - 1
                    if c == 1 and lower[p] & bit and alive[p]:
                        heapq.heappush(heap, p)
            steps.extend((low, up, mlow, mup))

        if alive != inside.flags:
            raise ContractError(
                f"collapse stuck: {alive.count(1) - len(sub)} matched simplices remain; "
                "the matching is cyclic or the target is not a subcomplex"
            )
        self.current = Faces(table, alive)
        return CollapseCertificate(steps, self.current)


def _pair_rows(simplices: Faces, mirror: array, lesser: array) -> tuple[array, array]:
    """One row per mirror pair of ``simplices``, at its lesser id i (where
    ``mirror[i] > i``), in flat CSR form: those of id i are
    ``rows[offsets[i]:offsets[i + 1]]``, empty at every other id.  The row
    lists ``lesser[f]`` for each codimension-1 face f of face i in the
    table, dropping i's tokens lowest first, where ``lesser[f]`` is not -1.
    A codimension-1 face missing from the table is skipped.

    The faces are read cube by cube (``FaceTable.starts``; a table without
    them is one-face cubes).  Face i, at offset j of its cube, drops each
    direction it holds, set bit ``low`` of j, onto the face at id
    ``i - low`` of the same cube, and only the drops of its cube's first
    face's tokens, read once per cube, are looked up in ``index``; the
    directions lie below those tokens, so their drops come first."""
    table = simplices.table
    masks, get, flags = table.masks, table.index.get, simplices.flags
    starts = table.starts or range(len(masks) + 1)
    offsets, rows = array("i", [0]), array("i")
    for first, end in zip(starts, starts[1:]):
        lows = [1 << t for t in bits(masks[first])]
        for i in range(first, end):
            if flags[i] and mirror[i] > i:
                j = i - first
                while j:
                    low = j & -j
                    j ^= low
                    if (p := lesser[i - low]) >= 0:
                        rows.append(p)
                s = masks[i]
                if s & (s - 1):  # a vertex has no face
                    for low in lows:
                        if (f := get(s ^ low)) is not None and (p := lesser[f]) >= 0:
                            rows.append(p)
            offsets.append(len(rows))
    return offsets, rows


# -- the shortcut-complex machinery -------------------------------------------


class ShortcutComplex:
    """Bundles the right-adjoint graph of index 2k+1, the box complex of its
    shortcut extension with its faces, the faces of its unmodified box
    complex, and the per-position data the matchings consume (tail masks,
    saturation flags, offender rows and common neighborhoods)."""

    def __init__(self, g: Graph, k: int, budgets: Budgets = DEFAULT_BUDGETS):
        if k < 1:
            raise ParameterError("half index must be >= 1")
        if g.has_loops():
            raise ParameterError("shortcut collapses need a loopless base graph")
        self.g = g
        self.omega: Adjoint = omega(g, 2 * k + 1, budgets.vertex_budget)
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

        # offender rows over positions: row q of ``tail_offenders`` holds the
        # positions p whose tail fails to join tail(q), that is, whose tail
        # holds a vertex outside CN(tail(q)); ``subtail_offenders`` the same
        # for subtail(q).  The common neighborhoods are the rows of the
        # capped tail's folds (``_phase_partners``).
        self.cn_tail = [common_neighborhood(g, t) for t in self.tail]
        self.cn_subtail = [common_neighborhood(g, t) for t in self.subtail]
        held = holders(self.tail)
        present = mask_of(held)
        self.tail_offenders = [union_of(held, present & ~cn) for cn in self.cn_tail]
        self.subtail_offenders = [union_of(held, present & ~cn) for cn in self.cn_subtail]

    def plain_box_simplices(self) -> Faces:
        """The simplices of the unmodified box complex, built with the
        shortcut complex on a face table of their own."""
        return self._plain_simplices

    def offense_scan(self):
        """The offense of a face of the shortcut complex from its two
        shores ``(lo, hi)`` and their ids as shore sets of the shortcut
        table, -1 for an empty shore: why it lies outside the unmodified box
        complex, as ``(phase, lead, shore)``, or None when it lies inside;
        read from folds that belong to the returned function.

        A lead p offends on its own shore when its tail fails to join some
        subtail there, and across when it fails to join some tail on the
        other shore; the swap is free, so a face's shores are disjoint.
        The leads offending on a shore set S are the union of the offender
        rows over S, one read: the same-shore unions are a list over the
        shore-set ids (``_shore_fold``) and the cross-shore ones, read only
        for the few simplices with no same-shore lead, a folded memo.  The
        least unsaturated same-shore lead gives phase 1; else the least
        same-shore lead, saturated, gives phase 2; else the least
        cross-shore lead gives phase 3."""
        same = _shore_fold(self, self.subtail_offenders, or_, 0)
        cross = Folded(self.tail_offenders, or_, 0)
        unsaturated = ~self.saturated_pos

        def offense(lo: int, hi: int, lo_id: int, hi_id: int) -> tuple[int, int, int] | None:
            if lead := (leads := lo & same[lo_id] | hi & same[hi_id]) & unsaturated:
                phase = 1
            elif lead := leads:
                phase = 2
            elif lead := lo & cross[hi] | hi & cross[lo]:
                phase = 3
            else:
                return None
            lead &= -lead
            return phase, lead.bit_length() - 1, 0 if lo & lead else 1

        return offense


def _shore_fold(sc: ShortcutComplex, rows: list[int], op, start: int) -> list[int]:
    """``op`` folded over ``rows`` at the positions of each shore set, by
    id: the shore sets are the faces of the shortcut table with no black
    token, ids below ``bisect_left(masks, 1 << h)``.  Each entry is one
    ``op`` onto the entry at its pivot, the set without its lowest
    position, which has a lower id.  One more entry, last, holds ``start``,
    the fold over the empty shore: a one-position set's pivot, -1, reads
    it, and so does ``index.get(0, -1)``.  The table is closed, so every
    nonempty shore of one of its faces is a shore set."""
    table = sc.simplices.table
    masks, pivots = table.masks, table.pivots()
    n = bisect_left(masks, 1 << sc.box.h)
    fold = [start] * (n + 1)
    for i in range(n):
        m = masks[i]
        fold[i] = op(fold[pivots[i]], rows[(m & -m).bit_length() - 1])
    return fold


def saturation_matching(sc: ShortcutComplex) -> tuple[MorseMatching, set[int]]:
    """Match every simplex containing an unsaturated vertex with its toggle
    by the saturated partner of the least such vertex.  Returns the matching
    and the protected subcomplex (simplices purely on saturated vertices),
    ``_saturation_partners`` read back as masks."""
    domain, partner = _saturation_partners(sc)
    return _read_back(sc, partner), set(sc.simplices - domain)


def removal_phases(sc: ShortcutComplex):
    """The three-phase matching peeling the shortcut-only simplices.

    Returns a list of (matching, domain) in collapse order; the domains
    partition the simplices outside the unmodified box complex.  The
    matchings and domains are ``_phase_partners`` read back as masks.
    """
    return [(_read_back(sc, partner), domain) for domain, partner in _phase_partners(sc)]


def _read_back(sc: ShortcutComplex, partner: array) -> MorseMatching:
    """A recipe's partner array over the shortcut table, as a mask
    matching: its pairs by lesser id, which is each pair's face."""
    masks, n = sc.simplices.table.masks, len(partner)
    lesser = compress(range(n), map(gt, partner, range(n)))
    return MorseMatching(tuple((masks[i], masks[partner[i]]) for i in lesser))


# a recipe on ids of the shortcut table: its domain and every id's partner
# (-1 off the domain)
Recipe = tuple[Faces, array]


def _check_toggle(table: FaceTable, flags: bytes, partner: array) -> Faces:
    """Check a recipe's toggle on its domain, the ids of ``table`` whose
    ``flags`` are 1: ``partner[i]`` is the id of i's toggle, -1 where it is
    not in the table; the toggle must stay in the table and be an
    involution without fixed points on the domain, checked by ascending id.
    Returns the domain, drawn from the table."""
    masks = table.masks
    for i in compress(range(len(masks)), flags):
        j = partner[i]
        if j < 0:
            raise ContractError(f"toggle of {masks[i]:#x} left the shortcut complex")
        if j == i or partner[j] != i:
            raise ContractError(
                f"toggle of {masks[i]:#x} is not an involution without fixed points"
            )
    return Faces(table, flags)


def _saturation_partners(sc: ShortcutComplex) -> Recipe:
    """The saturation matching as a recipe; its domain is the faces with an
    unsaturated token."""
    table = sc.simplices.table
    masks, get = table.masks, table.index.get
    flags, partner = bytearray(len(masks)), array("i", [-1]) * len(masks)
    for i in sc.simplices.ids():
        s = masks[i]
        lo, hi = sc.box.split(s)
        if union := (lo | hi) & ~sc.saturated_pos:
            # least unsaturated vertex over both shores, in canonical order
            p = (union & -union).bit_length() - 1
            flags[i] = 1
            partner[i] = get(s ^ (1 << sc.box.token(sc.sat_token[p], not (lo >> p & 1))), -1)
    return _check_toggle(table, flags, partner), partner


def _phase_partners(sc: ShortcutComplex) -> list[Recipe]:
    """The removal phases as recipes, in collapse order.  A simplex outside
    the unmodified box complex goes to the phase of its offense
    (``ShortcutComplex.offense_scan``) and is toggled at the position of
    the tuple that replaces its lead's tail.

    In phase 3 that tail is the union of the other shore's subtails.  In
    phases 1 and 2 it is the capped tail: the common neighborhood of the
    pooled shore sets, the subtails of this shore and the tails of the other
    shore's unsaturated positions.  As CN(A | B) = CN(A) & CN(B), it is one
    AND of two folds of common neighborhoods, one per shore set: a list
    over the shore-set ids for this shore (``_shore_fold``), a folded memo
    for the other.

    Without those tails a toggle can leave the shortcut complex (an input in
    ``test_morse.PIPELINE_REPORTS`` shows it), but only in phase 2.  An
    unsaturated position r on the other shore is joined to the lead p by an
    Omega' edge between two unsaturated tuples, which is an Omega edge, so
    tail(r) <= CN(tail(p)); every subtail on p's shore lies in tail(r), so p
    has no same-shore offense and the simplex is not in phase 1.

    The faces are scanned cube by cube (``boxcomplex._box_faces``), which
    gives their shore-set ids: a face of block 0 is its own white shore,
    with no black one, and the black shore of the face at offset j of a
    lifted cube is the face at offset ``j >> |CN|`` of the same record's
    cube in block 0.  Only a nonempty white shore of a lifted face is
    looked up in ``index``.

    In a free complex a simplex and its mirror have the same leads, phase,
    lead position and tail, on swapped shores, so the mirror's toggle is
    the toggle's mirror: each mirror pair is scanned once, at its lesser id.
    The folds belong to this scan and go with it."""
    if not sc.box.free:
        raise ContractError("equivariant collapses need a free complex")
    table = sc.simplices.table
    white, h, unsaturated = sc.box.white, sc.box.h, ~sc.saturated_pos
    masks, get, starts, mirror = table.masks, table.index.get, table.starts, table.mirrors(h)
    offense = sc.offense_scan()
    everything = sc.g.vertex_mask()
    capped_mine = _shore_fold(sc, sc.cn_subtail, and_, everything)
    capped_other = Folded(sc.cn_tail, and_, everything)
    replaced: dict[tuple[int, int], int] = {}  # (p, tail) -> position of the replacement
    phase_of = bytearray(len(masks))  # 0 until the face or its mirror is scanned
    partners = [array("i", [-1]) * len(masks) for _ in range(3)]
    scanned = (sc.simplices - sc.plain_box_simplices()).flags
    records = len(starts) // 2  # each record's cube in block 0, then lifted
    for r in range(2 * records):
        first, end = starts[r], starts[r + 1]
        if lifted := r >= records:
            shores = starts[r - records]  # the record's cube of black shores
            width = (masks[end - 1] & white).bit_count()  # |CN|, the cube's lowest directions
        for i in compress(range(first, end), scanned[first:end]):
            if phase_of[i]:
                continue
            s = masks[i]
            if lifted:
                lo, hi = s & white, s >> h
                lo_id, hi_id = get(lo) if lo else -1, shores + (i - first >> width)
            else:
                lo, hi, lo_id, hi_id = s, 0, i, -1
            if (found := offense(lo, hi, lo_id, hi_id)) is None:
                raise ContractError(f"extra simplex {s:#x} matches no phase")
            phase, p, shore = found
            mine, other = (hi_id, lo) if shore else (lo_id, hi)
            if phase == 3:
                tail = union_of(sc.subtail, other)
            else:
                tail = capped_mine[mine] & capped_other[other & unsaturated]
            if (pos := replaced.get(key := (p, tail))) is None:
                pos = replaced[key] = _replacement(sc, p, tail)
            j = get(s ^ 1 << (pos + h if shore else pos), -1)  # the token of pos on the shore
            m = mirror[i]
            phase_of[i] = phase_of[m] = phase
            partner = partners[phase - 1]
            partner[i], partner[m] = j, mirror[j] if j >= 0 else -1
    recipes = []
    for phase, partner in enumerate(partners, 1):
        # 1 where the face is in this phase, else 0
        in_phase = phase_of.translate(bytes(b == phase for b in range(256)))
        recipes.append((_check_toggle(table, in_phase, partner), partner))
    return recipes


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
    image, certified on the graph.

    Every unsaturated position p's partner q must be saturated and dominate
    p, N'(p) within N'(q): one test on the box complex's rows.  That is the
    facet test, every facet holding p's token holds q's on the same shore.
    A facet's shores are closed, so p in a shore S gives CN(S) within N'(p)
    within N'(q), hence q in CN(CN(S)) = S; and the facet of the closed set
    CN(N'(p)) holds p, so it holds q, hence N'(p) within N'(q).  Each
    unsaturated token is then dominated, and deleting it with its mirror is
    an equivariant strong collapse; partners are never deleted, so the
    dominations stay valid.  ``remaining`` is the faces with no unsaturated
    token; the collapse pairs the others, in ``step_count`` steps, half
    their number.  ``steps`` collapses the saturation matching onto
    ``remaining`` on ids on first read; that collapse refuses to end
    anywhere else, and takes one step per pair.
    """

    def __init__(self, sc: ShortcutComplex):
        box, saturated, rows = sc.box, sc.saturated_pos, sc.box.rows
        if not box.free:
            raise ContractError("equivariant collapses need a free complex")
        unsaturated = box.white & ~saturated
        for p in bits(unsaturated):
            q = sc.sat_token[p]
            if not saturated >> q & 1:  # so also not p itself
                raise ContractError(f"position {p} has no saturated partner")
            if rows[p] & ~rows[q]:
                raise ContractError(f"position {p} is not dominated by its saturated partner {q}")
        outside = unsaturated | box.mirror(unsaturated)
        table = sc.simplices.table
        self.sc = sc
        self.remaining = Faces(table, bytes(not m & outside for m in table.masks))
        self.step_count = (len(sc.simplices) - len(self.remaining)) // 2

    @cached_property
    def steps(self) -> tuple[tuple[int, int], ...]:
        _, partner = _saturation_partners(self.sc)
        state = _CollapseState(self.sc.box, self.sc.simplices, [partner])
        return state.run(self.remaining, partner).steps


def shortcut_collapses(sc: ShortcutComplex):
    """Run both collapse recipes on the shortcut complex.

    Returns ``(saturation, phases)``: the ``SaturationCollapse`` onto the
    saturated-image subcomplex, and the certificates of the three removal
    phases, in collapse order.  The phases run on one ``_CollapseState``,
    each phase's pairs checked on ids as it starts; raises unless the phases
    end exactly on the unmodified box complex.
    """
    saturation = SaturationCollapse(sc)
    recipes = _phase_partners(sc)
    state = _CollapseState(sc.box, sc.simplices, [partner for _, partner in recipes])
    phases = [state.run(state.current - domain, partner) for domain, partner in recipes]
    if state.current != sc.plain_box_simplices():
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
        "phases": [cert.step_count for cert in phases],
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
