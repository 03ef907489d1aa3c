"""Shared test helpers: independent oracles and random-object generators.

The homology oracle here is a dense numpy row-reduction, deliberately a
different algorithm and data layout than the package's bitset elimination;
``betti_mod2_reference`` is the package's earlier eager elimination, kept to
count the column XORs that the lazy one must reproduce.
"""

from __future__ import annotations

import heapq
import os
import random
import weakref
from array import array
from fractions import Fraction
from itertools import combinations, compress, product
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

from omegalab.bitset import bits, mask_of, union_of
from omegalab.boxcomplex import Faces, Z2Complex, make_complex
from omegalab.errors import ContractError
from omegalab.functors import Homomorphism
from omegalab.graphs import Graph, common_neighborhood, is_joined
from omegalab.homology import euler_characteristic
from omegalab.morse import MorseMatching, _check_toggle, _pair_rows, _replacement


def cli_env() -> dict[str, str]:
    """Environment for running ``python -m omegalab.cli`` in a subprocess
    from this checkout, whether or not the package is installed."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + os.pathsep + path if path else src}


def betti_oracle(simplices) -> tuple[int, ...]:
    by_dim: dict[int, list[int]] = {}
    for s in simplices:
        by_dim.setdefault(s.bit_count() - 1, []).append(s)
    top = max(by_dim)
    levels = [sorted(by_dim.get(d, [])) for d in range(top + 1)]
    ranks = [0] * (top + 2)
    for d in range(1, top + 1):
        rows = {s: i for i, s in enumerate(levels[d - 1])}
        mat = np.zeros((len(levels[d - 1]), len(levels[d])), dtype=np.uint8)
        for j, s in enumerate(levels[d]):
            for b in bits(s):
                mat[rows[s ^ (1 << b)], j] = 1
        ranks[d] = _rank_mod2(mat)
    out = [len(levels[d]) - ranks[d] - ranks[d + 1] for d in range(top + 1)]
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


def boundary_reference(table) -> tuple[array, array, bool]:
    """Every face's codimension-1 faces as ids of ``table``, in flat CSR
    form, and whether none was missing: those of face i are
    ``ids[offsets[i]:offsets[i + 1]]``, dropping the face's tokens lowest
    first, so the first is the face without the lowest token when it is in
    the table.  A face keeps the codimension-1 faces that are in the table,
    and a vertex has none."""
    get = table.index.get
    offsets = array("i", [0])
    ids = array("i")
    closed = True
    for s in table.masks:
        if s & (s - 1):
            for t in bits(s):
                f = get(s ^ (1 << t))
                if f is None:
                    closed = False
                else:
                    ids.append(f)
        offsets.append(len(ids))
    return offsets, ids, closed


def check_against_boundary_reference(simplices, h: int, kept=None) -> tuple[array, array]:
    """Check a face table's cube starts, pivots and closedness, and the
    pair rows of ``simplices`` (``morse._pair_rows`` under the swap of h
    positions), against ``boundary_reference``; returns the pair rows.  The
    rows list the pairs whose lesser id is in ``kept``, or every pair when
    it is None.

    Where the table has cube starts, they rise from 0 to the face count,
    and each cube is its first face ORed with the submasks of its
    directions in doubling order, every direction token below the first
    face's lowest token.  A pivot is the face without the lowest token, the
    first and greatest reference id when that face is in the table.
    ``is_closed``, on the whole table and on ``simplices``, must say whether
    each member has all its codimension-1 faces in the reference and every
    one a member.  The row of a pair is that of its lesser face read
    through the pairs: each reference id replaced by its pair's lesser id,
    and dropped where that is not kept; a table of the same masks made
    without cube starts gives the same rows."""
    table = simplices.table
    masks, get, n = table.masks, table.index.get, len(table.masks)
    if (starts := table.starts) is not None:
        assert starts[0] == 0 and starts[-1] == n
        for first, end in zip(starts, starts[1:]):
            base = masks[first]
            dirs = masks[end - 1] ^ base
            assert first < end and dirs < base & -base
            dir_bits = list(bits(dirs))
            assert end - first == 1 << len(dir_bits)
            for j in range(end - first):
                sub = sum(1 << t for k, t in enumerate(dir_bits) if j >> k & 1)
                assert masks[first + j] == base | sub
    offsets, ids, closed = boundary_reference(table)
    pivot = table.pivots()
    for i, s in enumerate(masks):
        want = get(s ^ (s & -s), -1)
        assert pivot[i] == want
        if s & (s - 1) and want >= 0:
            row = ids[offsets[i] : offsets[i + 1]]
            assert row[0] == want == max(row)
    assert table.faces().is_closed() == closed
    flags = simplices.flags
    assert simplices.is_closed() == all(
        offsets[i + 1] - offsets[i] == (s.bit_count() if s & (s - 1) else 0)
        and all(flags[f] for f in ids[offsets[i] : offsets[i + 1]])
        for i, s in compress(enumerate(masks), flags)
    )
    mirror = table.mirrors(h)
    lesser = array("i", [-1]) * n
    for i, m in enumerate(mirror):
        p = i if m < 0 or i < m else m
        if kept is None or p in kept:
            lesser[i] = p
    got_offsets, got_rows = _pair_rows(simplices, mirror, lesser)
    assert len(got_offsets) == n + 1
    for i in range(n):
        want = []
        if simplices.flags[i] and mirror[i] > i:
            want = [lesser[f] for f in ids[offsets[i] : offsets[i + 1]] if lesser[f] >= 0]
        assert list(got_rows[got_offsets[i] : got_offsets[i + 1]]) == want
    if starts is not None:
        bare = Faces.of(set(masks)).table.faces(simplices)
        assert bare.table.starts is None and bare.flags == simplices.flags
        assert _pair_rows(bare, mirror, lesser) == (got_offsets, got_rows)
    return got_offsets, got_rows


def betti_mod2_reference(simplices) -> tuple[tuple[int, ...], list[tuple[int, bool]]]:
    """The eager eliminator ``betti_mod2`` used before it built columns only
    on a taken pivot: every column not cleared is built, as an int over rows
    counted down from its level's last face and shifted down to its lowest
    row, and reduced with clearing in the same order.  Returns the Betti
    vector and, for each column that met a taken pivot, the number of
    columns XORed into it and whether it reduced to zero.  The input must be
    closed and free of the empty mask."""
    faces = Faces.of(simplices)
    if not faces:
        return (), []
    table = faces.table
    masks = table.masks
    offsets, ids, _ = boundary_reference(table)
    levels: list[array] = []
    for i in faces.ids():
        d = masks[i].bit_count() - 1
        while len(levels) <= d:
            levels.append(array("i"))
        levels[d].append(i)
    row = array("i", [-1]) * len(masks)  # rows count down from a level's last face
    for level in levels:
        for r, i in enumerate(reversed(level)):
            row[i] = r
    ranks = [0] * (len(levels) + 1)
    merged: list[tuple[int, bool]] = []
    cleared: dict[int, int] = {}
    for d in range(len(levels) - 1, 0, -1):
        pivots: dict[int, int] = {}
        for i in levels[d]:
            if row[i] in cleared:
                continue
            rows = [row[f] for f in ids[offsets[i] : offsets[i + 1]]]
            low = min(rows)
            col = 0
            for r in rows:
                col |= 1 << (r - low)
            xors = 0
            while (pivot := pivots.get(low)) is not None:
                col ^= pivot
                xors += 1
                if not col:
                    break
                shift = (col & -col).bit_length() - 1
                col >>= shift
                low += shift
            else:
                pivots[low] = col
            if xors:
                merged.append((xors, not col))
        ranks[d] = len(pivots)
        cleared = pivots
    out = [len(levels[d]) - ranks[d] - ranks[d + 1] for d in range(len(levels))]
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out), merged


def _rank_mod2(mat: np.ndarray) -> int:
    mat = mat.copy()
    rank = 0
    rows, cols = mat.shape
    pivot_row = 0
    for col in range(cols):
        hit = None
        for r in range(pivot_row, rows):
            if mat[r, col]:
                hit = r
                break
        if hit is None:
            continue
        mat[[pivot_row, hit]] = mat[[hit, pivot_row]]
        for r in range(rows):
            if r != pivot_row and mat[r, col]:
                mat[r] ^= mat[pivot_row]
        pivot_row += 1
        rank += 1
        if pivot_row == rows:
            break
    return rank


def component_count(simplices) -> int:
    vertices = set()
    edges = []
    for s in simplices:
        members = list(bits(s))
        vertices.update(members)
        if len(members) == 2:
            edges.append(members)
    parent = {v: v for v in vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    return len({find(v) for v in vertices})


def acyclic_oracle(matching: MorseMatching) -> bool:
    """Transitive-closure cycle detection, independent of the DFS checker."""
    partner = matching.partner()
    lowers = sorted(a for a, _ in matching.pairs)
    idx = {s: i for i, s in enumerate(lowers)}
    n = len(lowers)
    reach = [[False] * n for _ in range(n)]
    for s in lowers:
        up = partner[s]
        for b in bits(up):
            nxt = up ^ (1 << b)
            if nxt != s and nxt in idx:
                reach[idx[s]][idx[nxt]] = True
    for k in range(n):
        rk = reach[k]
        for i in range(n):
            if reach[i][k]:
                ri = reach[i]
                for j in range(n):
                    if rk[j]:
                        ri[j] = True
    return not any(reach[i][i] for i in range(n))


def omega_adjacent_oracle(g: Graph, a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    """Adjacency of two omega tuples by the definition, one pair at a time:
    consecutive components nest across the two tuples and the tails are
    fully joined."""
    for i in range(1, len(a)):
        if a[i - 1] & ~b[i] or b[i - 1] & ~a[i]:
            return False
    return is_joined(g, a[-1], b[-1])


def offense_leads(sc, mask: int, same_shore: bool):
    """The positions p of a shortcut simplex, ascending, with p's shore (0
    white, 1 black; white when p is on both), whose tail fails to join, by
    ``is_joined``, the subtails on p's own shore if ``same_shore``, else the
    tails on the other shore."""
    lo, hi = sc.box.split(mask)
    rows = sc.subtail if same_shore else sc.tail
    pooled = union_of(rows, lo), union_of(rows, hi)  # per shore
    for p in bits(lo | hi):
        shore = 0 if lo >> p & 1 else 1
        if not is_joined(sc.g, sc.tail[p], pooled[shore if same_shore else 1 - shore]):
            yield p, shore


_offense_scans: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def offense(sc, mask: int) -> tuple[int, int, int] | None:
    """``sc.offense_scan()`` read for one simplex: ``(phase, lead, shore)``,
    or None inside the unmodified box complex.  One scan is kept per
    complex, for as long as the complex lives."""
    if (scan := _offense_scans.get(sc)) is None:
        scan = _offense_scans[sc] = sc.offense_scan()
    lo, hi = sc.box.split(mask)
    get = sc.simplices.table.index.get
    return scan(lo, hi, get(lo, -1), get(hi, -1))


def offense_oracle(sc, mask: int):
    """``offense`` from the definition of the phases: phase 1 if some
    same-shore lead is unsaturated (the least such), else phase 2 if there
    is a same-shore lead (the least), else phase 3 if there is a cross-shore
    lead (the least), else None."""
    same_shore = offense_leads(sc, mask, True)
    unsaturated = (lead for lead in same_shore if not sc.saturated_pos >> lead[0] & 1)
    for phase, leads in (
        (1, unsaturated),
        (2, offense_leads(sc, mask, True)),
        (3, offense_leads(sc, mask, False)),
    ):
        if (lead := next(leads, None)) is not None:
            return phase, *lead
    return None


def phase_partners_reference(sc):
    """Reference for ``morse._phase_partners``: one ``offense`` call per
    face and each capped tail taken directly, by ``capped_tail_reference``
    once per (this shore, other shore's unsaturated positions).  Returns the
    same recipes: per phase, the domain and the partner ids."""
    table = sc.simplices.table
    masks, get = table.masks, table.index.get
    capped: dict[tuple[int, int], int] = {}
    replaced: dict[tuple[int, int], int] = {}  # (p, tail) -> position of the replacement
    phases = [(bytearray(len(masks)), array("i", [-1]) * len(masks)) for _ in range(3)]
    for i in (sc.simplices - sc.plain_box_simplices()).ids():
        s = masks[i]
        if (found := offense(sc, s)) is None:
            raise ContractError(f"extra simplex {s:#x} matches no phase")
        phase, p, shore = found
        lo, hi = sc.box.split(s)
        mine, other = (lo, hi) if shore == 0 else (hi, lo)
        if phase == 3:
            tail = union_of(sc.subtail, other)  # the other shore's subtails
        elif (tail := capped.get(key := (mine, other & ~sc.saturated_pos))) is None:
            tail = capped[key] = capped_tail_reference(sc, *key)
        if (pos := replaced.get(key := (p, tail))) is None:
            pos = replaced[key] = _replacement(sc, p, tail)
        domain, partner = phases[phase - 1]
        domain[i] = 1
        partner[i] = get(s ^ (1 << sc.box.token(pos, shore)), -1)
    return [(_check_toggle(table, domain, partner), partner) for domain, partner in phases]


def capped_tail_reference(sc, mine: int, unsaturated: int) -> int:
    """Common neighborhood of the pooled shore sets of phases 1 and 2: the
    subtails of the positions in ``mine`` and the tails of those in
    ``unsaturated``, in one loop over their vertices."""
    return common_neighborhood(sc.g, union_of(sc.subtail, mine) | union_of(sc.tail, unsaturated))


def saturation_facet_reference(sc) -> str | None:
    """Reference for ``morse.SaturationCollapse``'s certificate, read on the
    facets: every unsaturated position's partner is a saturated position,
    and every facet that holds an unsaturated token holds its partner's
    token on the same shore.  Returns the first refusal, or None."""
    box, saturated = sc.box, sc.saturated_pos
    unsaturated = box.white & ~saturated
    for p in bits(unsaturated):
        if not saturated >> sc.sat_token[p] & 1:
            return f"position {p} has no saturated partner"
    partner_bit = [1 << q for q in sc.sat_token]
    for f in box.facets:
        for shore in box.split(f):
            if union_of(partner_bit, shore & unsaturated) & ~shore:
                return f"facet {f:#x} does not hold a saturated partner"
    return None


def collapse_by_masks(k: Z2Complex, simplices, sub, matching: MorseMatching):
    """Reference for ``morse.collapse``: the same checks and the same heap
    loop on masks, with dicts and sets in place of the face table.  Returns
    the steps and the remaining set, or the ContractError message."""
    if any(k.mirror(s) == s or k.mirror(s) not in simplices for s in simplices):
        return "simplices are not closed under the shore swap"
    try:
        partner = matching.partner()
    except ContractError as err:
        return str(err)
    for a, b in matching.pairs:
        if a.bit_count() + 1 != b.bit_count() or a & ~b:
            return "matching pair is not a face/cofacet pair"
        if a not in simplices or b not in simplices:
            return "matching pair uses unknown simplices"
        if a in sub or b in sub:
            return "matching touches the protected subcomplex"
        if partner.get(k.mirror(a)) != k.mirror(b):
            return "matching is not equivariant"
    if not set(sub) <= set(simplices) or len(partner) != len(simplices) - len(sub):
        return "matching does not cover the simplices outside the subcomplex"
    alive = set(simplices)
    counts = {a: 0 for a, _ in matching.pairs}
    for s in alive:
        for t in bits(s):
            if s ^ (1 << t) in counts:
                counts[s ^ (1 << t)] += 1
    heap = [low for low, c in counts.items() if c == 1]
    heapq.heapify(heap)
    steps = []
    while heap:
        low = heapq.heappop(heap)
        if low not in alive or counts[low] != 1:
            continue
        up, mlow = partner[low], k.mirror(low)
        if counts[mlow] != 1:  # cannot happen on swap-closed simplices
            return "mirror step is not an elementary collapse"
        for s in (low, up, mlow, k.mirror(up)):
            alive.discard(s)
            for t in bits(s):
                face = s ^ (1 << t)
                if face in counts:
                    counts[face] -= 1
                    if counts[face] == 1 and face in alive:
                        heapq.heappush(heap, face)
        steps += [(low, up), (mlow, k.mirror(up))]
    if alive != set(sub):
        return f"collapse stuck: {len(alive) - len(sub)} matched simplices remain"
    return steps, alive


def min_odd_closed_walk_reference(g: Graph) -> int | None:
    """Length of the shortest odd closed walk, or None when bipartite, by a
    parity BFS on the double cover from each start: the distance from
    (v, even) to (v, odd).  A loop gives 1."""
    best = None
    for start in range(g.n):
        dist_even = [-1] * g.n
        dist_odd = [-1] * g.n
        dist_even[start] = 0
        frontier = [(start, 0)]
        d = 0
        while frontier:
            d += 1
            if best is not None and d >= best:
                break
            nxt = []
            for v, parity in frontier:
                tgt = dist_odd if parity == 0 else dist_even
                for u in bits(g.adj[v]):
                    if tgt[u] < 0:
                        tgt[u] = d
                        nxt.append((u, 1 - parity))
            frontier = nxt
            if dist_odd[start] >= 0:
                break
        if dist_odd[start] >= 0 and (best is None or dist_odd[start] < best):
            best = dist_odd[start]
    return best


def same_adjacency(g: Graph, h: Graph) -> bool:
    return g.n == h.n and g.adj == h.adj


def facet_order_reference(facets: list[int]) -> tuple[int, ...]:
    """``boxcomplex._facet_order`` on string keys: each mask's bits reversed
    within one width through its binary string, descending."""
    top = 1 << max(facets, default=0).bit_length()
    return tuple(sorted(facets, key=lambda m: int(bin(m | top)[:2:-1], 2), reverse=True))


def euler_of_complex(k: Z2Complex) -> int:
    return euler_characteristic(k.simplices())


def is_isomorphic(g: Graph, h: Graph) -> bool:
    """Brute-force isomorphism test by degree-pruned backtracking (n <= 16)."""
    if g.n != h.n or g.edge_count() != h.edge_count():
        return False
    if sorted(map(g.degree, range(g.n))) != sorted(map(h.degree, range(h.n))):
        return False

    deg_h = [h.degree(v) for v in range(h.n)]
    image = [-1] * g.n
    used = [False] * h.n

    def place(v: int) -> bool:
        if v == g.n:
            return True
        dv = g.degree(v)
        for w in range(h.n):
            if used[w] or deg_h[w] != dv:
                continue
            ok = True
            for u in range(v):
                if g.has_edge(u, v) != h.has_edge(image[u], w):
                    ok = False
                    break
            if ok and g.has_edge(v, v) == h.has_edge(w, w):
                image[v] = w
                used[w] = True
                if place(v + 1):
                    return True
                used[w] = False
                image[v] = -1
        return False

    return place(0)


def hom_exists_bruteforce(g: Graph, h: Graph):
    """Oracle: try all |V(h)|^|V(g)| maps.  Only sensible at toy sizes."""
    if g.n == 0:
        return Homomorphism(g, h, ())
    if h.n == 0:
        return None
    edges = g.edges()
    for mapping in product(range(h.n), repeat=g.n):
        if all(h.has_edge(mapping[u], mapping[v]) for u, v in edges):
            return Homomorphism(g, h, mapping)
    return None


def min_deciding_budget(g: Graph, h: Graph):
    """The least ``node_budget`` with which ``hom_exists(g, h)`` reaches a
    verdict, and that verdict: the budget doubles until the search decides,
    then bisection finds the boundary.  The search does not depend on its
    budget, so this is the number of nodes the search takes (at least 1)."""
    from omegalab.errors import Budgets, ResourceError
    from omegalab.homsearch import hom_exists

    def verdict(budget: int):
        try:
            return True, hom_exists(g, h, Budgets(node_budget=budget))
        except ResourceError:
            return False, None

    hi = 1
    decided, found = verdict(hi)
    while not decided:
        hi *= 2
        decided, found = verdict(hi)
    lo = hi // 2  # undecided, or 0 when the first budget decided
    while hi - lo > 1:
        mid = (lo + hi) // 2
        decided, answer = verdict(mid)
        if decided:
            hi, found = mid, answer
        else:
            lo = mid
    return hi, found


def faces_oracle(facets) -> set[int]:
    """Every nonzero submask of every facet, as sums of token combinations."""
    return {
        sum(c) for f in facets for r in range(1, f.bit_count() + 1)
        for c in combinations([1 << t for t in bits(f)], r)
    }


def box_facets_oracle(g: Graph) -> set[int]:
    """Box-complex facets from every vertex set A with CN(CN(A)) = A and
    both A and CN(A) nonempty, found by trying all 2^n subsets."""
    pos = {v: p for p, v in enumerate(v for v in range(g.n) if g.adj[v])}
    h = len(pos)
    out = set()
    for a in range(1, 1 << g.n):
        cn = common_neighborhood(g, a)
        if cn and common_neighborhood(g, cn) == a:
            out.add(mask_of(pos[v] for v in bits(a)) | mask_of(h + pos[v] for v in bits(cn)))
    return out


def is_box_face(g: Graph, k: Z2Complex, mask: int) -> bool:
    """The definition of a face of the box complex of g, on a token mask
    named as in k: its white vertices A and black vertices B satisfy
    A x B in E(g), and A and B each have a common neighbour in g."""
    names = [k.token_name(t) for t in bits(mask)]
    a = mask_of(v for v, shore in names if shore == "+")
    b = mask_of(v for v, shore in names if shore == "-")
    return (
        mask != 0
        and all(b & ~g.adj[v] == 0 for v in bits(a))
        and common_neighborhood(g, a) != 0
        and common_neighborhood(g, b) != 0
    )


def approx_points_oracle(amap) -> list[dict[int, Fraction]]:
    """Each source token's image point with ``Fraction`` coordinates, summed
    one weight 1/((k+1) * |component|) at a time from the adjoint tuples."""
    tpos = {v: i for i, v in enumerate(amap.target.base)}
    points = []
    for token in range(amap.source.token_count):
        vertex, shore = amap.source.token_name(token)
        tup = amap.adjoint.tuples[vertex]
        point: dict[int, Fraction] = {}
        for i, comp in enumerate(tup):
            black = (i % 2 == 1) ^ (shore == "-")
            weight = Fraction(1, (amap.k + 1) * comp.bit_count())
            for v in bits(comp):
                t = amap.target.token(tpos[v], black)
                point[t] = point.get(t, Fraction(0)) + weight
        points.append(point)
    return points


def distance_sq_oracle(a: dict[int, Fraction], b: dict[int, Fraction]) -> Fraction:
    total = Fraction(0)
    for t in set(a) | set(b):
        d = a.get(t, Fraction(0)) - b.get(t, Fraction(0))
        total += d * d
    return total


def image_diameter_sq_oracle(points, mask: int) -> Fraction:
    """Max squared distance between the points of the simplex's tokens,
    every pair measured afresh."""
    tokens = list(bits(mask))
    best = Fraction(0)
    for i, t in enumerate(tokens):
        for u in tokens[i + 1 :]:
            d = distance_sq_oracle(points[t], points[u])
            if d > best:
                best = d
    return best


@st.composite
def small_graph(draw, max_n: int, loops: bool) -> Graph:
    """A graph on up to ``max_n`` vertices, often with isolated vertices, and
    with loops only if ``loops``."""
    n = draw(st.integers(0, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u, n) if loops or u != v]
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return Graph.from_edges(n, sorted(edges))


def random_graph(rng: random.Random, n: int, edge_p: float, loop_p: float = 0.0) -> Graph:
    edges = []
    for u in range(n):
        if rng.random() < loop_p:
            edges.append((u, u))
        for v in range(u + 1, n):
            if rng.random() < edge_p:
                edges.append((u, v))
    return Graph.from_edges(n, edges)


def random_free_complex(rng: random.Random, max_shore: int = 10) -> Z2Complex:
    m = rng.randint(2, max_shore)
    facets = []
    for _ in range(rng.randint(1, 7)):
        size = rng.randint(1, min(5, m))
        chosen: list[int] = []
        forbidden: set[int] = set()
        pool = list(range(2 * m))
        rng.shuffle(pool)
        for t in pool:
            if t in forbidden:
                continue
            chosen.append(t)
            forbidden.add(t)
            forbidden.add(t + m if t < m else t - m)
            if len(chosen) == size:
                break
        facets.append(mask_of(chosen))
    return make_complex(tuple(range(m)), facets)


def random_collapse_matching(rng: random.Random, k: Z2Complex):
    """Random equivariant collapse; the recorded pairs are an acyclic
    matching whose unmatched remainder is the final subcomplex."""
    alive = set(k.simplices())
    tokens = k.token_count
    pairs = []
    while True:
        free = []
        for s in sorted(alive):
            cofaces = [
                s | (1 << t)
                for t in range(tokens)
                if not s >> t & 1 and (s | (1 << t)) in alive
            ]
            if len(cofaces) == 1:
                free.append((s, cofaces[0]))
        if not free or rng.random() < 0.15:
            break
        s, up = rng.choice(free)
        ms, mup = k.mirror(s), k.mirror(up)
        if len({s, up, ms, mup}) != 4:
            break
        pairs.append((s, up))
        pairs.append((ms, mup))
        alive -= {s, up, ms, mup}
    return MorseMatching(tuple(pairs)), alive


def random_equivariant_matching(rng: random.Random, k: Z2Complex) -> MorseMatching:
    """Greedy random matching with no acyclicity guarantee."""
    faces = k.simplices()
    incidences = []
    for s in sorted(faces):
        for t in range(k.token_count):
            if not s >> t & 1 and (s | (1 << t)) in faces:
                incidences.append((s, s | (1 << t)))
    rng.shuffle(incidences)
    matched: set[int] = set()
    pairs = []
    for s, up in incidences:
        ms, mup = k.mirror(s), k.mirror(up)
        quad = {s, up, ms, mup}
        if len(quad) != 4 or quad & matched:
            continue
        pairs.append((s, up))
        pairs.append((ms, mup))
        matched |= quad
    return MorseMatching(tuple(pairs))
